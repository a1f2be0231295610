"""Battery cycle datasets: parsing, validation, splitting, synthesis.

A dataset is a list of constant-current charge cycles, each an ordered
(time, voltage) series plus the measured discharge capacity for that cycle.
The synthetic generator produces LFP-like curves whose voltage plateau
shrinks as the cell fades, so capacity-driven features exist by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import Rng, derive_seed

SAMPLES_HEADER = "battery_id,cycle,time_s,voltage_v"
CAPACITY_HEADER = "battery_id,cycle,discharge_capacity_mah"

# Constant-current charge curves rise monotonically; allow this much sensor
# ripple below the running maximum before a cycle is rejected.
VOLTAGE_TOLERANCE_V = 0.005
MIN_SAMPLES_PER_CYCLE = 10


@dataclass(frozen=True)
class CycleRecord:
    """One charge cycle: sample arrays plus measured discharge capacity.

    ``discharge_capacity`` is None until a capacity file has been joined in.
    Validation is explicit (``validate()``) so feature-level helpers can work
    on short hand-built records in tests.
    """

    cycle_index: int
    times: tuple[float, ...]
    voltages: tuple[float, ...]
    discharge_capacity: float | None = None

    def validate(self) -> None:
        if self.cycle_index < 1:
            raise ValueError(f"cycle {self.cycle_index}: cycle index must be positive")
        n = len(self.times)
        if n != len(self.voltages):
            raise ValueError(f"cycle {self.cycle_index}: time/voltage length mismatch")
        if n < MIN_SAMPLES_PER_CYCLE:
            raise ValueError(
                f"cycle {self.cycle_index}: only {n} samples (need >= {MIN_SAMPLES_PER_CYCLE})"
            )
        t = np.asarray(self.times)
        v = np.asarray(self.voltages)
        if t[0] < 0:
            raise ValueError(f"cycle {self.cycle_index}: negative time")
        if np.any(np.diff(t) <= 0):
            raise ValueError(f"cycle {self.cycle_index}: time not strictly increasing")
        running_max = np.maximum.accumulate(v)
        if np.any(v < running_max - VOLTAGE_TOLERANCE_V):
            raise ValueError(
                f"cycle {self.cycle_index}: voltage drops more than "
                f"{VOLTAGE_TOLERANCE_V * 1000:.0f} mV below its running maximum"
            )
        if self.discharge_capacity is not None and self.discharge_capacity <= 0:
            raise ValueError(f"cycle {self.cycle_index}: non-positive capacity")

    def time_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    def voltage_array(self) -> np.ndarray:
        return np.asarray(self.voltages, dtype=float)


@dataclass(frozen=True)
class Dataset:
    battery_id: str
    nominal_capacity: float
    cycles: tuple[CycleRecord, ...]

    def validate(self) -> None:
        if self.nominal_capacity <= 0:
            raise ValueError("nominal capacity must be positive")
        indices = [c.cycle_index for c in self.cycles]
        if len(set(indices)) != len(indices):
            dupes = sorted({i for i in indices if indices.count(i) > 1})
            raise ValueError(f"duplicate cycle indices: {dupes}")
        if indices != sorted(indices):
            raise ValueError("cycles not sorted by cycle_index")
        for cyc in self.cycles:
            cyc.validate()
            if cyc.discharge_capacity is None:
                raise ValueError(f"cycle {cyc.cycle_index}: missing capacity")

    def __len__(self) -> int:
        return len(self.cycles)

    def capacities(self) -> np.ndarray:
        return np.array([c.discharge_capacity for c in self.cycles], dtype=float)


@dataclass(frozen=True)
class SplitDataset:
    train: tuple[int, ...]
    test: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic fade model Q(n) = q0 * (1 - k * n^p) + noise.

    noise_sd is the voltage-sample noise in volts; capacity noise uses
    noise_sd * q0 so a single knob controls both. Keep noise_sd <= 0.00125 V:
    voltage noise is clipped at +-2 sigma, which keeps curves inside the 5 mV
    monotonicity band.
    """

    n_cycles: int = 200
    q0: float = 170.0
    fade_rate: float = 0.0015
    fade_power: float = 1.0
    plateau_voltage: float = 3.4
    noise_sd: float = 0.0003
    seed: int = 42

    def validate(self) -> None:
        if self.n_cycles < 20:
            raise ValueError("n_cycles must be >= 20")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.fade_rate < 0:
            raise ValueError("fade_rate must be >= 0")
        if self.fade_power <= 0:
            raise ValueError("fade_power must be positive")
        if self.q0 <= 0:
            raise ValueError("q0 must be positive")


def _parse_float(token: str, line_no: int, column: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"line {line_no}: bad {column} value {token!r}") from None


def _parse_int(token: str, line_no: int, column: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {line_no}: bad {column} value {token!r}") from None


def _split_csv(csv_text: str, expected_header: str) -> list[tuple[int, list[str]]]:
    lines = csv_text.replace("\r\n", "\n").split("\n")
    if not lines or lines[0].strip() != expected_header:
        raise ValueError(f"expected header {expected_header!r}")
    rows = []
    n_cols = expected_header.count(",") + 1
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n_cols:
            raise ValueError(f"line {line_no}: expected {n_cols} columns, got {len(parts)}")
        rows.append((line_no, parts))
    return rows


def parse_samples(csv_text: str) -> list[CycleRecord]:
    """Parse a samples CSV into per-cycle records (capacity unfilled).

    Rows are grouped by cycle index; within each cycle, times must already be
    strictly increasing (out-of-order data is an error, not silently sorted).
    """
    rows = _split_csv(csv_text, SAMPLES_HEADER)
    battery_ids = {parts[0] for _, parts in rows}
    if len(battery_ids) > 1:
        raise ValueError(f"multiple battery ids in one samples file: {sorted(battery_ids)}")
    grouped: dict[int, list[tuple[float, float]]] = {}
    order: list[int] = []
    for line_no, parts in rows:
        cyc = _parse_int(parts[1], line_no, "cycle")
        t = _parse_float(parts[2], line_no, "time_s")
        v = _parse_float(parts[3], line_no, "voltage_v")
        if cyc not in grouped:
            grouped[cyc] = []
            order.append(cyc)
        grouped[cyc].append((t, v))
    records = []
    for cyc in order:
        samples = grouped[cyc]
        rec = CycleRecord(
            cycle_index=cyc,
            times=tuple(t for t, _ in samples),
            voltages=tuple(v for _, v in samples),
        )
        rec.validate()
        records.append(rec)
    return records


def parse_capacity(csv_text: str) -> dict[int, float]:
    """Parse a capacity CSV into {cycle_index: discharge_capacity_mah}."""
    rows = _split_csv(csv_text, CAPACITY_HEADER)
    capacities: dict[int, float] = {}
    for line_no, parts in rows:
        cyc = _parse_int(parts[1], line_no, "cycle")
        cap = _parse_float(parts[2], line_no, "discharge_capacity_mah")
        if cyc in capacities:
            raise ValueError(f"line {line_no}: duplicate capacity for cycle {cyc}")
        if cap <= 0:
            raise ValueError(f"line {line_no}: non-positive capacity for cycle {cyc}")
        capacities[cyc] = cap
    return capacities


def sniff_battery_id(csv_text: str) -> str | None:
    """Battery id of the first data row, for cross-file consistency checks."""
    lines = csv_text.replace("\r\n", "\n").split("\n")
    for line in lines[1:]:
        if line.strip():
            return line.split(",")[0].strip()
    return None


def assemble_dataset(
    records: list[CycleRecord],
    capacities: dict[int, float],
    battery_id: str,
    nominal_capacity: float,
) -> Dataset:
    """Join sample records with capacities into a validated Dataset."""
    orphans = sorted(r.cycle_index for r in records if r.cycle_index not in capacities)
    if orphans:
        raise ValueError(f"cycles without capacity entries: {orphans}")
    filled = [
        replace(rec, discharge_capacity=capacities[rec.cycle_index]) for rec in records
    ]
    filled.sort(key=lambda r: r.cycle_index)
    ds = Dataset(
        battery_id=battery_id,
        nominal_capacity=nominal_capacity,
        cycles=tuple(filled),
    )
    ds.validate()
    return ds


def _train_size(n_rows: int, ratio: float) -> int:
    if n_rows < 3:
        raise ValueError("need at least 3 rows to split")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    n_train = int(np.floor(n_rows * ratio + 0.5))  # round half up
    if n_train < 1 or n_train >= n_rows:
        raise ValueError(f"ratio {ratio} leaves an empty train or test side")
    return n_train


def split_rows(n_rows: int, ratio: float, seed: int) -> SplitDataset:
    """Uniform shuffle of row indices, then a prefix/suffix split.

    The train size is round-half-up of ratio * n_rows. Identical arguments
    always give the identical split (pinned PRNG).
    """
    n_train = _train_size(n_rows, ratio)
    perm = list(range(n_rows))
    Rng(seed).shuffle(perm)
    return SplitDataset(train=tuple(perm[:n_train]), test=tuple(perm[n_train:]), seed=seed)


def split_rows_ordered(n_rows: int, ratio: float) -> SplitDataset:
    """Time-ordered split: the earliest rows train, the latest rows test.

    For realism studies where the model must extrapolate to later cycles.
    """
    n_train = _train_size(n_rows, ratio)
    return SplitDataset(
        train=tuple(range(n_train)), test=tuple(range(n_train, n_rows)), seed=0
    )


# Synthetic charge-curve geometry. The plateau duration scales with realized
# capacity, so plateau time carries the fade signal; the pre/post rise
# durations wobble slowly with the cycle index, which decorrelates total-time
# features from capacity without breaking the left shift of the curves (the
# wobble slope stays below the default per-cycle plateau shrinkage).
_T_PRE_S = 1000.0
_T_PLATEAU_FRESH_S = 1500.0
_T_POST_S = 900.0
# amplitude s, angular rate per cycle, phase; |amp * rate| sums to 0.8 s per
# cycle, well below the per-cycle fade of the rise and plateau durations at
# the default config, so the left shift of the curves stays strict when
# noise_sd = 0.
_PRE_WOBBLE = (15.0, 0.04, 0.0)
_POST_WOBBLE = (10.0, 0.02, 2.0)
# Aging mildly shortens the rise phases and lifts the end voltage; the
# plateau time stays the dominant capacity proxy.
_PRE_FADE_S = 250.0
_POST_FADE_S = 150.0
_V_END_DRIFT = 0.006
# Random duration jitter of the rise phases, in seconds per volt of sensor
# noise. Total charge time then varies partly independently of capacity, as
# resting and cutoff conditions would make it.
_PRE_JITTER_S_PER_V = 80000.0
_POST_JITTER_S_PER_V = 50000.0
_SAMPLE_DT_S = 20.0
_PLATEAU_HALF_WIDTH_V = 0.02
_V_START_OFFSET = -0.4
_V_END_OFFSET = 0.25


def _wobble(n: int, spec: tuple[float, float, float]) -> float:
    amp, rate, phase = spec
    return amp * np.sin(rate * n + phase)


def _curve_voltage(tau_s: float, t_pre: float, t_plat: float, t_post: float,
                   v_start: float, v_plat_lo: float, v_plat_hi: float, v_end: float) -> float:
    if tau_s <= t_pre:
        u = tau_s / t_pre
        return v_start + (v_plat_lo - v_start) * u ** 0.6
    if tau_s <= t_pre + t_plat:
        u = (tau_s - t_pre) / t_plat
        return v_plat_lo + (v_plat_hi - v_plat_lo) * u
    u = min((tau_s - t_pre - t_plat) / t_post, 1.0)
    return v_plat_hi + (v_end - v_plat_hi) * (0.6 * u + 0.4 * u ** 3)


def synth_dataset(cfg: SynthConfig) -> Dataset:
    """Generate an LFP-like synthetic dataset under the configured fade law.

    With noise_sd = 0 the capacity sequence is exactly q0 * (1 - k * n^p); at
    the default fade law the total charge time is also strictly decreasing in
    the cycle index (the duration wobble is slower than the plateau fade).
    """
    cfg.validate()
    n = np.arange(1, cfg.n_cycles + 1, dtype=float)
    clean_q = cfg.q0 * (1.0 - cfg.fade_rate * n ** cfg.fade_power)
    if np.any(clean_q <= 0):
        first_bad = int(n[clean_q <= 0][0])
        raise ValueError(
            f"fade parameters give non-positive capacity at cycle {first_bad}"
        )
    v_start = cfg.plateau_voltage + _V_START_OFFSET
    v_plat_lo = cfg.plateau_voltage - _PLATEAU_HALF_WIDTH_V
    v_plat_hi = cfg.plateau_voltage + _PLATEAU_HALF_WIDTH_V
    cap_noise_sd = cfg.noise_sd * cfg.q0
    cycles = []
    for idx in range(cfg.n_cycles):
        cycle_no = idx + 1
        rng = Rng(derive_seed(cfg.seed, "cycle", cycle_no))
        q = clean_q[idx] + (rng.normal(0.0, cap_noise_sd) if cap_noise_sd > 0 else 0.0)
        q = max(q, 1e-6 * cfg.q0)
        fade = 1.0 - q / cfg.q0
        v_end = cfg.plateau_voltage + _V_END_OFFSET + _V_END_DRIFT * fade
        t_pre = _T_PRE_S - _PRE_FADE_S * fade + _wobble(cycle_no, _PRE_WOBBLE)
        t_plat = _T_PLATEAU_FRESH_S * q / cfg.q0
        t_post = _T_POST_S - _POST_FADE_S * fade + _wobble(cycle_no, _POST_WOBBLE)
        if cfg.noise_sd > 0:
            t_pre += rng.normal(0.0, _PRE_JITTER_S_PER_V * cfg.noise_sd)
            t_post += rng.normal(0.0, _POST_JITTER_S_PER_V * cfg.noise_sd)
            t_pre = max(t_pre, 0.5 * _T_PRE_S)
            t_post = max(t_post, 0.5 * _T_POST_S)
        t_total = t_pre + t_plat + t_post

        # Per-phase sampling grids with the phase junctions as exact sample
        # points: boundary crossings then interpolate exactly on noise-free
        # curves, so segment times inherit the fade law without grid jitter.
        times = [0.0]
        for phase_start, duration in (
            (0.0, t_pre),
            (t_pre, t_plat),
            (t_pre + t_plat, t_post),
        ):
            k = 1
            while k * _SAMPLE_DT_S < duration - 1.0:
                times.append(phase_start + k * _SAMPLE_DT_S)
                k += 1
            times.append(phase_start + duration)
        voltages = []
        for t in times:
            v = _curve_voltage(t, t_pre, t_plat, t_post,
                               v_start, v_plat_lo, v_plat_hi, v_end)
            if cfg.noise_sd > 0:
                eps = rng.normal(0.0, cfg.noise_sd)
                clip = 2.0 * cfg.noise_sd
                v += min(max(eps, -clip), clip)
            voltages.append(v)
        rec = CycleRecord(
            cycle_index=cycle_no,
            times=tuple(times),
            voltages=tuple(voltages),
            discharge_capacity=float(q),
        )
        cycles.append(rec)
    ds = Dataset(battery_id="synthetic", nominal_capacity=cfg.q0, cycles=tuple(cycles))
    ds.validate()
    return ds


def samples_csv(ds: Dataset) -> str:
    """Serialize charge curves to the samples.csv wire format."""
    from .jsonio import format_number

    lines = [SAMPLES_HEADER]
    for cyc in ds.cycles:
        for t, v in zip(cyc.times, cyc.voltages):
            lines.append(
                f"{ds.battery_id},{cyc.cycle_index},{format_number(t)},{format_number(v)}"
            )
    return "\n".join(lines) + "\n"


def capacity_csv(ds: Dataset) -> str:
    from .jsonio import format_number

    lines = [CAPACITY_HEADER]
    for cyc in ds.cycles:
        lines.append(
            f"{ds.battery_id},{cyc.cycle_index},{format_number(cyc.discharge_capacity)}"
        )
    return "\n".join(lines) + "\n"
