"""Voltage-segment detection and the 13-feature vector per charge cycle.

The charging curve is divided into three contiguous voltage study ranges:
a pre-plateau rise (VS1), the plateau (VS2), and the post-plateau rise (VS3).
VS2 is found on a single reference cycle as the widest contiguous band whose
smoothed dV/dt stays below a fraction of the median slope; the same segments
are then applied to every cycle.

Feature mapping (F8, F12, F13 are the capacity-tracking trio; the rest are
start/end/time/line-fit descriptors of the same curve):
  F1 initial voltage        F2 final voltage        F3 total charge time
  F4 fitted line slope      F5 fitted line intercept
  F6 time of entry into VS1 F7 time spent in VS1    F8 time spent in VS2
  F9 time of entry into VS2 F10 time of entry into VS3
  F11 time-weighted mean voltage                    F12 time spent in VS3
  F13 median sample voltage

The features of a cycle come from one array kernel (``_feature_block``), run
once per group of cycles with equal sample counts; each row gets the bits it
gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CycleRecord, Dataset, _csv_lines, _csv_text, _number_columns
# Both names stay importable from here; they live in the leaf module.
from .names import FEATURE_NAMES, FEATURE_UNITS

_SMOOTH_WINDOW = 5  # centered moving average applied to dV/dt
# Name and type of each column of a features CSV.
_CSV_COLUMNS = (("cycle", int), *((name, float) for name in FEATURE_NAMES), ("target", float))


@dataclass(frozen=True)
class VoltageSegments:
    vs1: tuple[float, float]
    vs2: tuple[float, float]
    vs3: tuple[float, float]

    def validate(self) -> None:
        if not np.all(np.isfinite([self.vs1, self.vs2, self.vs3])):
            raise ValueError("segment boundaries must be finite")
        if not (self.vs1[1] == self.vs2[0] and self.vs2[1] == self.vs3[0]):
            raise ValueError("segments must be contiguous")
        if not (self.vs1[0] < self.vs1[1] < self.vs2[1] < self.vs3[1]):
            raise ValueError("segment boundaries must be strictly increasing")

    def levels(self) -> tuple[float, float, float, float]:
        """The four boundaries, lowest first: where a cycle's crossing times are taken."""
        return (self.vs1[0], self.vs2[0], self.vs3[0], self.vs3[1])


@dataclass(frozen=True)
class FeatureMatrix:
    X: np.ndarray               # (N, 13)
    y: np.ndarray               # (N,)
    cycle_indices: tuple[int, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES
    target_name: str = "capacity_mah"

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0] or self.X.shape[0] != len(self.cycle_indices):
            raise ValueError("feature matrix rows, targets and cycles must align")
        if self.X.shape[0] < 3:
            raise ValueError("need at least 3 rows")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature count does not match names")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite feature or target values")


def _smoothed_derivative(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = len(t)
    deriv = np.empty(n)
    deriv[0] = (v[1] - v[0]) / (t[1] - t[0])
    deriv[-1] = (v[-1] - v[-2]) / (t[-1] - t[-2])
    deriv[1:-1] = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    half = _SMOOTH_WINDOW // 2
    return np.array([deriv[max(0, i - half):i + half + 1].mean() for i in range(n)])


def _snap_to_grid(x: float, grid: float) -> float:
    return float(np.floor(x / grid + 0.5) * grid)


def detect_segments(reference: CycleRecord, alpha: float = 0.5,
                    grid_mv: float = 10.0) -> VoltageSegments:
    """Locate the plateau band VS2 on a reference curve.

    VS2 is the contiguous run of samples with smoothed dV/dt <= alpha times
    the median smoothed dV/dt that covers the widest voltage span; its
    boundaries are snapped to the grid. VS1 and VS3 are whatever remains
    below and above.
    """
    if not 0 < alpha:
        raise ValueError("alpha must be positive")
    if grid_mv <= 0:
        raise ValueError("grid_mv must be positive")
    t, v = reference.times, reference.voltages
    grid = grid_mv / 1000.0
    if v[-1] - v[0] < 3 * grid:
        raise ValueError("reference curve spans less than 3 grid steps of voltage")
    smoothed = _smoothed_derivative(t, v)
    threshold = alpha * float(np.median(smoothed))
    below = smoothed <= threshold
    edges = np.flatnonzero(np.diff(below, prepend=False, append=False)).tolist()
    runs = list(zip(edges[0::2], [end - 1 for end in edges[1::2]]))  # first and last sample
    if not runs:
        raise ValueError(
            "no plateau found: derivative never drops below the threshold; "
            "retry with a larger alpha"
        )
    best = max(runs, key=lambda r: (v[r[1]] - v[r[0]], -r[0]))
    lo = _snap_to_grid(float(v[best[0]]), grid)
    hi = _snap_to_grid(float(v[best[1]]), grid)
    # Keep the snapped band strictly inside the curve's voltage span.
    v_first, v_last = float(v[0]), float(v[-1])
    while lo <= v_first:
        lo += grid
    while hi >= v_last:
        hi -= grid
    if not lo < hi:
        raise ValueError("plateau too narrow for the requested grid; use a finer grid_mv")
    seg = VoltageSegments(vs1=(v_first, lo), vs2=(lo, hi), vs3=(hi, v_last))
    seg.validate()
    return seg


def _feature_block(T: np.ndarray, V: np.ndarray, levels) -> tuple[np.ndarray, ...]:
    """F1-F13 of k cycles of n >= 1 samples each, with the line fit's stt.

    Row i of the C-contiguous (k, n) blocks ``T`` and ``V`` holds cycle i's
    samples; ``levels`` are the crossing levels of F6, F9, F10 and the end of
    VS3. A sum, mean or median along the last axis gives each row the bits it
    gets alone. A division by zero gives inf or nan silently.
    """
    levels = np.asarray(levels, dtype=float)
    rows = np.arange(len(T))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_mean, v_mean = T.mean(axis=1), V.mean(axis=1)
        dt, dv = T - t_mean[:, None], V - v_mean[:, None]
        stt = (dt ** 2).sum(axis=1)
        slope = (dt * dv).sum(axis=1) / stt
        intercept = v_mean - slope * t_mean
        # Interpolate between the first sample at or above each level and the
        # one before: t[0] if the curve starts there, t[-1] if it never gets there.
        reached = V[:, None, :] >= levels[:, None]  # (k, 4, n)
        hi = np.minimum(np.maximum(reached.argmax(axis=2), 1), V.shape[1] - 1)
        lo = np.maximum(hi - 1, 0)
        frac = (levels - V[rows, lo]) / (V[rows, hi] - V[rows, lo])
        crossed = np.where(reached.any(axis=2), T[rows, lo] + frac * (T[rows, hi] - T[rows, lo]),
                           T[:, -1:])
        e0, e1, e2, e3 = np.where(V[:, :1] >= levels, T[:, :1], crossed).T
        total = T[:, -1] - T[:, 0]
        mean_v = np.where(total > 0, np.trapezoid(V, T, axis=1) / total, v_mean)
    X = np.column_stack((V[:, 0], V[:, -1], total, slope, intercept, e0, e1 - e0, e2 - e1,
                         e1, e2, mean_v, e3 - e2, np.median(V, axis=1)))
    return X, stt


# Why a cycle has no feature row, in the order a cycle is checked.
_FAULTS = ("need at least 2 samples to fit a line", "all sample times identical; slope undefined",
           "time/voltage length mismatch", "non-finite feature values")


def _feature_rows(cycles, seg: VoltageSegments) -> tuple[np.ndarray, list[str | None]]:
    """F1-F13 of each cycle, one ``_feature_block`` run per sample count, and
    why each cycle has no features (None where it has them)."""
    n = np.array([len(c.times) for c in cycles], dtype=np.intp)
    fault = np.where(n < 2, 0, np.where(n != [len(c.voltages) for c in cycles], 2, -1))
    X, levels = np.zeros((len(cycles), len(FEATURE_NAMES))), seg.levels()
    for size in np.unique(n[fault < 0]).tolist():
        rows = np.flatnonzero((n == size) & (fault < 0))
        X[rows], stt = _feature_block(np.stack([cycles[i].times for i in rows]),
                                      np.stack([cycles[i].voltages for i in rows]), levels)
        fault[rows] = np.where(stt == 0.0, 1, np.where(np.isfinite(X[rows]).all(axis=1), -1, 3))
    return X, [_FAULTS[f] if f >= 0 else None for f in fault.tolist()]


def build_matrix(ds: Dataset, seg: VoltageSegments,
                 target_mode: str = "raw") -> FeatureMatrix:
    """One feature row per cycle; target is capacity (raw mAh or normalized).

    An error names the first cycle, in cycle order, that has no features.
    """
    if target_mode not in ("raw", "normalized"):
        raise ValueError("target_mode must be 'raw' or 'normalized'")
    X, faults = _feature_rows(ds.cycles, seg)
    for cyc, fault in zip(ds.cycles, faults):
        if fault:
            raise ValueError(f"feature extraction failed at cycle {cyc.cycle_index}: {fault}")
    y = ds.capacities()
    if target_mode == "normalized":
        y = y / ds.nominal_capacity
    return FeatureMatrix(X, y, tuple(c.cycle_index for c in ds.cycles),
                         target_name="capacity_mah" if target_mode == "raw" else "capacity_ratio")


def segments_to_dict(seg: VoltageSegments, alpha: float, grid_mv: float,
                     reference_cycle: int) -> dict:
    return {
        "vs1": [seg.vs1[0], seg.vs1[1]],
        "vs2": [seg.vs2[0], seg.vs2[1]],
        "vs3": [seg.vs3[0], seg.vs3[1]],
        "alpha": alpha,
        "grid_mv": grid_mv,
        "reference_cycle": reference_cycle,
    }


def segments_from_dict(obj: dict) -> VoltageSegments:
    seg = VoltageSegments(
        vs1=(float(obj["vs1"][0]), float(obj["vs1"][1])),
        vs2=(float(obj["vs2"][0]), float(obj["vs2"][1])),
        vs3=(float(obj["vs3"][0]), float(obj["vs3"][1])),
    )
    seg.validate()
    return seg


def matrix_to_csv(m: FeatureMatrix) -> str:
    header = "cycle," + ",".join(m.feature_names) + ",target"
    return _csv_text(header, m.cycle_indices, (*m.X.T, m.y))


def matrix_from_csv(csv_text: str) -> FeatureMatrix:
    """Parse a features CSV; an error names the file line (blank lines counted)
    and, for a refused number, the column."""
    lines = _csv_lines(csv_text, ",".join(name for name, _ in _CSV_COLUMNS))
    (cycles, *columns), error = _number_columns(csv_text, lines, _CSV_COLUMNS)
    if error:
        raise error
    return FeatureMatrix(X=np.column_stack(columns[:-1]), y=columns[-1],
                         cycle_indices=tuple(cycles.tolist()))
