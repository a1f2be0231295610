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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CycleRecord, Dataset, _bad_token, _csv_text, _csv_tokens
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


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r2: float


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


def fit_charging_line(rec: CycleRecord) -> LineFit:
    """Ordinary least squares of voltage on time over the whole cycle."""
    return _line_fit(rec.time_array(), rec.voltage_array())


def _line_fit(t: np.ndarray, v: np.ndarray) -> LineFit:
    if len(t) < 2:
        raise ValueError("need at least 2 samples to fit a line")
    t_mean = t.mean()
    v_mean = v.mean()
    stt = float(np.sum((t - t_mean) ** 2))
    if stt == 0.0:
        raise ValueError("all sample times identical; slope undefined")
    slope = float(np.sum((t - t_mean) * (v - v_mean)) / stt)
    intercept = float(v_mean - slope * t_mean)
    ss_res = float(np.sum((v - (slope * t + intercept)) ** 2))
    ss_tot = float(np.sum((v - v_mean) ** 2))
    # Constant voltage fits exactly with slope 0; report a perfect fit.
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return LineFit(slope=slope, intercept=intercept, r2=r2)


def _smoothed_derivative(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    n = len(t)
    deriv = np.empty(n)
    deriv[0] = (v[1] - v[0]) / (t[1] - t[0])
    deriv[-1] = (v[-1] - v[-2]) / (t[-1] - t[-2])
    if n > 2:
        deriv[1:-1] = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    half = _SMOOTH_WINDOW // 2
    smoothed = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n, i + half + 1)
        smoothed[i] = deriv[lo:hi].mean()
    return smoothed


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
    t = reference.time_array()
    v = reference.voltage_array()
    grid = grid_mv / 1000.0
    if v[-1] - v[0] < 3 * grid:
        raise ValueError("reference curve spans less than 3 grid steps of voltage")
    smoothed = _smoothed_derivative(t, v)
    threshold = alpha * float(np.median(smoothed))
    below = smoothed <= threshold
    runs = []
    start = None
    for i, flag in enumerate(below):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(below) - 1))
    if not runs:
        raise ValueError(
            "no plateau found: derivative never drops below the threshold; "
            "retry with a larger alpha"
        )
    best = max(runs, key=lambda r: (v[r[1]] - v[r[0]], -r[0]))
    lo = _snap_to_grid(float(v[best[0]]), grid)
    hi = _snap_to_grid(float(v[best[1]]), grid)
    # Keep the snapped band strictly inside the curve's voltage span.
    v_first = float(v[0])
    v_last = float(v[-1])
    while lo <= v_first:
        lo += grid
    while hi >= v_last:
        hi -= grid
    if not lo < hi:
        raise ValueError("plateau too narrow for the requested grid; use a finer grid_mv")
    seg = VoltageSegments(vs1=(v_first, lo), vs2=(lo, hi), vs3=(hi, v_last))
    seg.validate()
    return seg


def first_crossing_time(rec: CycleRecord, level: float) -> float:
    """Time at which the curve first reaches ``level`` volts.

    Linear interpolation between the bracketing samples; t[0] if the curve
    starts at or above the level, t[-1] if it never gets there.
    """
    return _crossing_time(rec.time_array(), rec.voltage_array(), level)


def _crossing_time(t: np.ndarray, v: np.ndarray, level: float) -> float:
    if v[0] >= level:
        return float(t[0])
    above = np.nonzero(v >= level)[0]
    if len(above) == 0:
        return float(t[-1])
    i = int(above[0])
    frac = (level - v[i - 1]) / (v[i] - v[i - 1])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def _entry_times(t: np.ndarray, v: np.ndarray, seg: VoltageSegments) -> list[float]:
    """First-crossing times of the four segment boundaries, lowest first."""
    return [_crossing_time(t, v, level) for level in (seg.vs1[0], seg.vs2[0], seg.vs3[0],
                                                      seg.vs3[1])]


def segment_times(rec: CycleRecord, seg: VoltageSegments) -> tuple[float, float, float]:
    """Charging time spent inside each voltage segment.

    Durations are differences of first-crossing times, which makes them
    non-negative and exactly partitions the total charge time whenever the
    curve spans all three segments.
    """
    e0, e1, e2, e3 = _entry_times(rec.time_array(), rec.voltage_array(), seg)
    return (e1 - e0, e2 - e1, e3 - e2)


def extract_features(rec: CycleRecord, seg: VoltageSegments) -> np.ndarray:
    """The 13-feature vector for one cycle (see module docstring for mapping)."""
    t = rec.time_array()
    v = rec.voltage_array()
    fit = _line_fit(t, v)
    e0, e1, e2, e3 = _entry_times(t, v, seg)
    total_time = float(t[-1] - t[0])
    mean_v = float(np.trapezoid(v, t) / total_time) if total_time > 0 else float(v.mean())
    features = np.array([
        v[0],                                # F1
        v[-1],                               # F2
        total_time,                          # F3
        fit.slope,                           # F4
        fit.intercept,                       # F5
        e0,                                  # F6
        e1 - e0,                             # F7
        e2 - e1,                             # F8
        e1,                                  # F9
        e2,                                  # F10
        mean_v,                              # F11
        e3 - e2,                             # F12
        float(np.median(v)),                 # F13
    ], dtype=float)
    if not np.all(np.isfinite(features)):
        raise ValueError(f"cycle {rec.cycle_index}: non-finite feature values")
    return features


def build_matrix(ds: Dataset, seg: VoltageSegments,
                 target_mode: str = "raw") -> FeatureMatrix:
    """One feature row per cycle; target is capacity (raw mAh or normalized)."""
    if target_mode not in ("raw", "normalized"):
        raise ValueError("target_mode must be 'raw' or 'normalized'")
    rows = []
    targets = []
    for cyc in ds.cycles:
        try:
            rows.append(extract_features(cyc, seg))
        except ValueError as exc:
            raise ValueError(f"feature extraction failed at cycle {cyc.cycle_index}: {exc}") from exc
        target = cyc.discharge_capacity
        if target_mode == "normalized":
            target = target / ds.nominal_capacity
        targets.append(target)
    return FeatureMatrix(
        X=np.array(rows, dtype=float),
        y=np.array(targets, dtype=float),
        cycle_indices=tuple(c.cycle_index for c in ds.cycles),
        target_name="capacity_mah" if target_mode == "raw" else "capacity_ratio",
    )


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
    """Parse a features CSV; an error names the file line (blank lines counted)."""
    tokens = _csv_tokens(csv_text, ",".join(name for name, _ in _CSV_COLUMNS))
    n = len(_CSV_COLUMNS)
    try:
        cycles = tuple(map(int, tokens[0::n]))
        columns = [list(map(float, tokens[j::n])) for j in range(1, n)]
    except ValueError:
        raise _bad_token(csv_text, tokens, _CSV_COLUMNS) from None
    return FeatureMatrix(
        X=np.column_stack(columns[:-1]),
        y=np.array(columns[-1]),
        cycle_indices=cycles,
    )
