"""Battery cycle datasets: parsing, validation, splitting, synthesis.

A dataset is a list of constant-current charge cycles, each an ordered
(time, voltage) series plus the measured discharge capacity for that cycle.
The synthetic generator produces LFP-like curves whose voltage plateau
shrinks as the cell fades, so capacity-driven features exist by construction.

A whole-life cell has hundreds of thousands of samples, so ingest works on
whole files as arrays. This module holds the CSV format of all three files,
samples, capacity and features (``features`` calls its reader and writer).
Each parser splits the file into lines once, which checks the header and the
column count (``_csv_lines``), and converts its number columns with numpy's C
text reader, the only conversion (``_number_columns``). A number is ASCII:
padding (space, tab, VT, FF, 0x1C-0x1F), then a decimal integer within int64
for a cycle, or numpy's float spelling within +-``MAX_MAGNITUDE`` (1e100,
which refuses NaN and +-inf), then padding; only a line's last column may end
with a lone carriage return. The reader only ever sees ASCII text, since some
other text crashes it; the battery id column is free text. An error names the
first refused token, by line and column. The samples parser groups a cycle's
rows even when other cycles split them up, and checks every cycle in one
array pass (``_check_runs``). The writer (``_csv_text``) formats the whole
file with one ``%``. ``synth_dataset`` draws every cycle's stream at once
through RNG lanes (``rng.normal_lanes``) and computes the curves as arrays.
Both give the same records, bit for bit, as one line or one sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat

import numpy as np

from .names import MAX_MAGNITUDE
from .rng import Rng, derive_seed, normal_lanes

SAMPLES_HEADER = "battery_id,cycle,time_s,voltage_v"
CAPACITY_HEADER = "battery_id,cycle,discharge_capacity_mah"
# Name and type of each column.
_SAMPLE_COLUMNS = (("battery_id", str), ("cycle", int), ("time_s", float), ("voltage_v", float))
_CAPACITY_COLUMNS = (("battery_id", str), ("cycle", int), ("discharge_capacity_mah", float))

# Constant-current charge curves rise monotonically; allow this much sensor
# ripple below the running maximum before a cycle is rejected.
VOLTAGE_TOLERANCE_V = 0.005
MIN_SAMPLES_PER_CYCLE = 10


@dataclass(frozen=True)
class CycleRecord:
    """One charge cycle: sample arrays plus measured discharge capacity.

    ``times`` and ``voltages`` are read-only float64 arrays; sequences given
    in their place are copied into such arrays once, here. ``parse_samples``
    and ``synth_dataset`` make them views into the cell's flat sample arrays.
    ``discharge_capacity`` is None until a capacity file has been joined in.
    Validation is explicit (``validate()``) so feature-level helpers can work
    on short hand-built records in tests.
    """

    cycle_index: int
    times: np.ndarray
    voltages: np.ndarray
    discharge_capacity: float | None = None

    def __post_init__(self):
        for name in ("times", "voltages"):  # a read-only float64 array is kept as it is
            values = getattr(self, name)
            if getattr(values, "dtype", None) != float or values.flags.writeable:
                object.__setattr__(self, name, np.array(values, dtype=float))
                getattr(self, name).flags.writeable = False

    def __eq__(self, other):  # equal fields, the samples compared element by element
        return isinstance(other, CycleRecord) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__dataclass_fields__)

    def validate(self) -> None:
        """Check the samples; ``Dataset.validate`` checks the joined-in capacity."""
        _check_runs([self.cycle_index], self.times, self.voltages, [0, len(self.times)])


@dataclass(frozen=True)
class Dataset:
    battery_id: str
    nominal_capacity: float
    cycles: tuple[CycleRecord, ...]

    def validate(self) -> None:
        """Check what the dataset owns: its records are checked where they are made."""
        if self.nominal_capacity <= 0:
            raise ValueError("nominal capacity must be positive")
        indices = [c.cycle_index for c in self.cycles]
        if len(set(indices)) != len(indices):
            dupes = sorted({i for i in indices if indices.count(i) > 1})
            raise ValueError(f"duplicate cycle indices: {dupes}")
        if indices != sorted(indices):
            raise ValueError("cycles not sorted by cycle_index")
        for cyc in self.cycles:
            if cyc.discharge_capacity is None:
                raise ValueError(f"cycle {cyc.cycle_index}: missing capacity")
            if cyc.discharge_capacity <= 0:
                raise ValueError(f"cycle {cyc.cycle_index}: non-positive capacity")

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
    monotonicity band. Above 0.01 V, which ``validate`` refuses, no curve
    stays inside it, and the jittered phases would grow without bound.
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
        if not 0 <= self.noise_sd <= 0.01:
            raise ValueError("noise_sd must lie in [0, 0.01]")
        if self.fade_rate < 0:
            raise ValueError("fade_rate must be >= 0")
        if self.fade_power <= 0:
            raise ValueError("fade_power must be positive")
        if self.q0 <= 0:
            raise ValueError("q0 must be positive")


def _split_lines(csv_text: str) -> list[str]:
    """The lines of a file with "\\n" or "\\r\\n" endings."""
    if "\r" in csv_text:  # a much faster scan than the one for "\r\n"
        csv_text = csv_text.replace("\r\n", "\n")
    return csv_text.split("\n")


def _line_no(csv_text: str, row: int) -> int:
    """File line number of data row ``row`` (from 0), blank lines counted; for errors."""
    lines = _split_lines(csv_text)
    return [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]


def _csv_lines(csv_text: str, header: str) -> list[str]:
    """The non-blank body lines of a CSV file, in file order.

    Checks the header, which must be the first line, and the column count of
    every non-blank line. Lines keep their padding: numpy's reader skips it.
    """
    lines = _split_lines(csv_text)
    if lines[0].strip() != header:
        raise ValueError(f"expected header {header!r}")
    body = list(filter(str.strip, lines[1:]))
    del lines
    n_cols = header.count(",") + 1
    if set(map(str.count, body, repeat(","))) - {n_cols - 1}:
        row = next(i for i, line in enumerate(body) if line.count(",") != n_cols - 1)
        raise ValueError(f"line {_line_no(csv_text, row)}: expected {n_cols} columns, "
                         f"got {body[row].count(',') + 1}")
    return body


def _check_one_battery(csv_text: str, lines: list[str], kind: str) -> None:
    """Raise unless the first column of every body line names one battery id."""
    prefix = lines[0][:lines[0].find(",") + 1] if lines else ""
    # Each body line follows a newline, so this counts the lines that start
    # with the first line's "id,": when all do, they name one battery.
    if csv_text.count("\n" + prefix) == len(lines):
        return
    battery_ids = {line.split(",", 1)[0].strip() for line in lines}
    if len(battery_ids) > 1:
        raise ValueError(f"multiple battery ids in one {kind} file: {sorted(battery_ids)}")


def _load(lines: list[str], dtype: np.dtype, usecols) -> np.ndarray | None:
    """numpy's C reader on ASCII ``lines`` (some other text crashes it), or
    None when it refuses a token or reads a float beyond ``MAX_MAGNITUDE``."""
    if not lines:
        return np.empty(0, dtype)
    try:
        table = np.loadtxt(lines, delimiter=",", usecols=usecols, dtype=dtype, comments=None,
                           ndmin=1)
    except ValueError:
        return None
    floats = (table[name] for name in dtype.names if dtype[name] == np.float64)
    # min and max are NaN when a value is, and need no temporary array
    return table if all(-MAX_MAGNITUDE <= x.min() and x.max() <= MAX_MAGNITUDE
                        for x in floats) else None


def _number_columns(csv_text: str, lines: list[str], columns) -> tuple[list, ValueError | None]:
    """The int and float columns of the body lines, each as one array.

    ``columns`` is (name, type) of each column, of type str, int or float;
    the str columns come first and are skipped. ``_load`` is the only
    conversion, to int64 and float64. It reads whole lines of ASCII text.
    Otherwise, or when it refuses one, it reads the number columns alone,
    in runs of rows bisected down to the first row it refuses or the first
    with a non-ASCII number, and then that row's tokens one at a time. When
    a token is refused, the arrays hold the rows before its row and the
    error names it; else the error is None.
    """
    first = next(j for j, (_, kind) in enumerate(columns) if kind is not str)
    dtype = np.dtype([(name, np.int64 if kind is int else np.float64)
                      for name, kind in columns[first:]])
    table = _load(lines, dtype, range(first, len(columns))) if csv_text.isascii() else None
    refused = len(lines)
    if table is None:
        cut = [line.split(",", first)[-1] for line in lines]
        refused = next((i for i, line in enumerate(cut) if not line.isascii()), len(cut))
        # The rows before lo are read; the first refused row lies in [lo, refused].
        parts, lo, hi = [np.empty(0, dtype)], 0, refused
        while lo < hi:
            part = _load(cut[lo:hi], dtype, None)
            if part is not None:
                parts.append(part)
                lo, hi = hi, refused
            elif hi - lo == 1:
                refused = lo
                break
            else:
                refused, hi = hi, (lo + hi) // 2
        table = np.concatenate(parts)
    # one contiguous array per column: records are views into them
    arrays = [np.ascontiguousarray(table[name]) for name in dtype.names]
    if refused == len(lines):
        return arrays, None
    # Each token is read followed by a comma, as inside a row, where a "\r" is
    # refused; the row's last token is reached only when it is the refused one.
    tokens = lines[refused].split(",")[first:]
    j = next(j for j, token in enumerate(tokens) if not token.isascii()
             or _load([token + ","], np.dtype([dtype.descr[j]]), [0]) is None)
    return arrays, ValueError(f"line {_line_no(csv_text, refused)}: bad {dtype.names[j]} "
                              f"value {tokens[j]!r}")


def _check_runs(cycles, times: np.ndarray, voltages: np.ndarray, bounds) -> None:
    """Raise the message of the first run of samples that fails a check.

    Run ``k`` is cycle ``cycles[k]``, samples ``bounds[k]`` to
    ``bounds[k + 1]`` of ``times`` and ``voltages``. Each check is one array
    operation over every run; a run fails with the first check, in the order
    of ``messages``, that it fails. The sample checks run on the runs before
    the first one of the wrong shape.
    """
    messages = (
        "cycle index must be positive",
        "time/voltage length mismatch",
        f"only {{n}} samples (need >= {MIN_SAMPLES_PER_CYCLE})",
        "negative time",
        "time not strictly increasing",
        f"voltage drops more than {VOLTAGE_TOLERANCE_V * 1000:.0f} mV below its running maximum",
    )
    counts = np.diff(bounds)
    fails = np.zeros((len(messages), len(counts)), dtype=bool)
    fails[0] = [c < 1 for c in cycles]
    fails[1] = len(times) != len(voltages)
    fails[2] = counts < MIN_SAMPLES_PER_CYCLE
    misshapen = np.flatnonzero(fails[:3].any(axis=0))
    m = misshapen[0] if len(misshapen) else len(counts)
    starts = np.array(bounds[:m], dtype=np.intp)
    t, v = times[:bounds[m]], voltages[:bounds[m]]
    fails[3, :m] = t[starts] < 0
    step_down = np.zeros(len(t), dtype=bool)
    step_down[1:] = np.diff(t) <= 0
    step_down[starts] = False  # from one cycle into the next
    fails[4, :m] = np.logical_or.reduceat(step_down, starts)
    running_max = np.empty_like(v)
    for a, b in zip(bounds[:m], bounds[1:m + 1]):
        np.maximum.accumulate(v[a:b], out=running_max[a:b])
    fails[5, :m] = np.logical_or.reduceat(v < running_max - VOLTAGE_TOLERANCE_V, starts)
    failing = np.flatnonzero(fails.any(axis=0))
    if len(failing):
        k = failing[0]
        message = messages[int(np.argmax(fails[:, k]))].format(n=counts[k])
        raise ValueError(f"cycle {cycles[k]}: {message}")


def parse_samples(csv_text: str) -> list[CycleRecord]:
    """Parse a samples CSV into per-cycle records (capacity unfilled).

    Rows are grouped by cycle index, in order of first appearance; within each
    cycle, times must already be strictly increasing (out-of-order data is an
    error, not silently sorted). The records are validated here, once.
    """
    lines = _csv_lines(csv_text, SAMPLES_HEADER)
    _check_one_battery(csv_text, lines, "samples")
    (cycle, t, v), error = _number_columns(csv_text, lines, _SAMPLE_COLUMNS)
    del lines
    if error:
        raise error
    # Each cycle number's code is its rank by first appearance.
    numbers, first, inverse = np.unique(cycle, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    code_of_number = np.empty(len(numbers), dtype=np.intp)
    code_of_number[by_first] = np.arange(len(numbers))
    codes = code_of_number[inverse]
    if np.any(codes[1:] < codes[:-1]):  # a cycle's rows are split up: gather them
        order = np.argsort(codes, kind="stable")
        t, v = t[order], v[order]
    bounds = [0, *np.cumsum(np.bincount(codes, minlength=len(numbers))).tolist()]
    cycles = numbers[by_first].tolist()
    _check_runs(cycles, t, v, bounds)
    t.flags.writeable = v.flags.writeable = False
    return [CycleRecord(cycle_index=c, times=t[a:b], voltages=v[a:b])
            for c, a, b in zip(cycles, bounds, bounds[1:])]


def parse_capacity(csv_text: str) -> dict[int, float]:
    """Parse a capacity CSV into {cycle_index: discharge_capacity_mah}.

    Rows are checked in file order: their tokens, then a repeated cycle and
    a non-positive capacity.
    """
    lines = _csv_lines(csv_text, CAPACITY_HEADER)
    _check_one_battery(csv_text, lines, "capacity")
    (cycles, caps), error = _number_columns(csv_text, lines, _CAPACITY_COLUMNS)
    capacities: dict[int, float] = {}
    for row, (cyc, cap) in enumerate(zip(cycles.tolist(), caps.tolist())):
        fault = "duplicate" if cyc in capacities else "non-positive" if cap <= 0 else None
        if fault:
            raise ValueError(f"line {_line_no(csv_text, row)}: {fault} capacity for cycle {cyc}")
        capacities[cyc] = cap
    if error:  # the rows before the refused token are checked first
        raise error
    return capacities


def sniff_battery_id(csv_text: str) -> str | None:
    """Battery id of the first data row, for cross-file consistency checks.

    Reads no further than that row.
    """
    end = csv_text.find("\n")  # the header ends here
    while end >= 0:
        start, end = end + 1, csv_text.find("\n", end + 1)
        line = csv_text[start:end] if end >= 0 else csv_text[start:]
        if line.strip():
            return line.split(",")[0].strip()
    return None


def assemble_dataset(
    records: list[CycleRecord],
    capacities: dict[int, float],
    battery_id: str,
    nominal_capacity: float,
) -> Dataset:
    """Join sample records with capacities into a validated Dataset.

    The records are those ``parse_samples`` returns, whose samples it has
    validated; here the capacities and cycle indices are checked.
    """
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


def _grid_counts(duration: np.ndarray) -> np.ndarray:
    """Interior grid points of each phase: the k >= 1 with k * dt < duration - 1.

    ceil((duration - 1) / dt) - 1 counts them as the sample loop did: with dt
    = 20, a quotient rounded to the nearest double never lands past an
    integer that the exact quotient does not reach.
    """
    return np.maximum(np.ceil((duration - 1.0) / _SAMPLE_DT_S) - 1.0, 0.0).astype(np.int64)


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """base ** exponent through libm ``pow``, as numpy scalars and floats raise."""
    return np.fromiter(map(math.pow, base.tolist(), repeat(exponent)), float, len(base))


def synth_dataset(cfg: SynthConfig) -> Dataset:
    """Generate an LFP-like synthetic dataset under the configured fade law.

    With noise_sd = 0 the capacity sequence is exactly q0 * (1 - k * n^p); at
    the default fade law the total charge time is also strictly decreasing in
    the cycle index (the duration wobble is slower than the plateau fade).

    Every cycle draws from its own stream ``derive_seed(seed, "cycle", n)``:
    the capacity normal, the two duration jitters, then one normal per
    sample. All cycles are drawn together through ``normal_lanes``, and the
    curves are computed as arrays over every sample of the cell.
    """
    cfg.validate()
    n = np.arange(1, cfg.n_cycles + 1, dtype=float)
    with np.errstate(over="ignore"):  # a power beyond the float range fades a cycle out
        loss = cfg.fade_rate * n ** cfg.fade_power if cfg.fade_rate else np.zeros_like(n)
    clean_q = cfg.q0 * (1.0 - loss)
    if np.any(clean_q <= 0):
        first_bad = int(n[clean_q <= 0][0])
        raise ValueError(
            f"fade parameters give non-positive capacity at cycle {first_bad}"
        )
    v_start = cfg.plateau_voltage + _V_START_OFFSET
    v_plat_lo = cfg.plateau_voltage - _PLATEAU_HALF_WIDTH_V
    v_plat_hi = cfg.plateau_voltage + _PLATEAU_HALF_WIDTH_V
    cap_noise_sd = cfg.noise_sd * cfg.q0
    cycle_nos = range(1, cfg.n_cycles + 1)
    seeds = [derive_seed(cfg.seed, "cycle", c) for c in cycle_nos]
    lead_sds = [cap_noise_sd] if cap_noise_sd > 0 else []
    if cfg.noise_sd > 0:
        lead_sds += [_PRE_JITTER_S_PER_V * cfg.noise_sd, _POST_JITTER_S_PER_V * cfg.noise_sd]
    lead = normal_lanes(seeds, lead_sds)

    q = clean_q + (lead[:, 0] if cap_noise_sd > 0 else 0.0)
    q = np.maximum(q, 1e-6 * cfg.q0)
    fade = 1.0 - q / cfg.q0
    v_end = cfg.plateau_voltage + _V_END_OFFSET + _V_END_DRIFT * fade
    t_pre = _T_PRE_S - _PRE_FADE_S * fade + np.array([_wobble(c, _PRE_WOBBLE) for c in cycle_nos])
    t_plat = _T_PLATEAU_FRESH_S * q / cfg.q0
    t_post = _T_POST_S - _POST_FADE_S * fade + np.array([_wobble(c, _POST_WOBBLE) for c in cycle_nos])
    if cfg.noise_sd > 0:
        t_pre = np.maximum(t_pre + lead[:, -2], 0.5 * _T_PRE_S)
        t_post = np.maximum(t_post + lead[:, -1], 0.5 * _T_POST_S)
    t_rise = t_pre + t_plat

    # Per-phase sampling grids with the phase junctions as exact sample
    # points: boundary crossings then interpolate exactly on noise-free
    # curves, so segment times inherit the fade law without grid jitter.
    # Each cycle is four runs of samples at phase_start + offset: the start
    # 0.0, then for each phase its grid points k * dt and its end at
    # phase_start + duration.
    zero = np.zeros(cfg.n_cycles)
    run_start = np.column_stack((zero, zero, t_pre, t_rise)).ravel()
    run_duration = np.column_stack((zero, t_pre, t_plat, t_post)).ravel()
    run_len = 1 + _grid_counts(run_duration)
    position = np.arange(run_len.sum()) - np.repeat(np.cumsum(run_len) - run_len, run_len)
    is_end = position == np.repeat(run_len - 1, run_len)
    offset = np.where(is_end, np.repeat(run_duration, run_len), (position + 1) * _SAMPLE_DT_S)
    tau = np.repeat(run_start, run_len) + offset

    n_samples = run_len.reshape(-1, 4).sum(axis=1)
    pre, plat, post, end = (np.repeat(a, n_samples) for a in (t_pre, t_plat, t_post, v_end))
    voltage = np.empty(len(tau))
    rise = tau <= pre
    plateau = ~rise & (tau <= pre + plat)
    tail = ~rise & ~plateau
    u = tau[rise] / pre[rise]
    voltage[rise] = v_start + (v_plat_lo - v_start) * _pow(u, 0.6)
    u = (tau[plateau] - pre[plateau]) / plat[plateau]
    voltage[plateau] = v_plat_lo + (v_plat_hi - v_plat_lo) * u
    u = np.minimum((tau[tail] - pre[tail] - plat[tail]) / post[tail], 1.0)
    voltage[tail] = v_plat_hi + (end[tail] - v_plat_hi) * (0.6 * u + 0.4 * _pow(u, 3.0))
    if cfg.noise_sd > 0:
        sample_sds = [cfg.noise_sd] * int(n_samples.max())
        eps = normal_lanes(seeds, lead_sds + sample_sds)[:, len(lead_sds):]
        eps = eps[np.arange(eps.shape[1]) < n_samples[:, None]]
        clip = 2.0 * cfg.noise_sd
        voltage += np.minimum(np.maximum(eps, -clip), clip)

    bounds = np.concatenate(([0], np.cumsum(n_samples))).tolist()
    tau.flags.writeable = voltage.flags.writeable = False
    cycles = tuple(
        CycleRecord(cycle_index=c, times=tau[a:b], voltages=voltage[a:b], discharge_capacity=cap)
        for c, a, b, cap in zip(cycle_nos, bounds, bounds[1:], q.tolist())
    )
    ds = Dataset(battery_id="synthetic", nominal_capacity=cfg.q0, cycles=cycles)
    _check_runs(cycle_nos, tau, voltage, bounds)
    ds.validate()
    return ds


def _unlike_g12(x: np.ndarray) -> np.ndarray:
    """Where ``"%.12g" % x`` differs from ``format_number(x)``: non-finite
    values, which it must reject, -0.0 and integral values of 13 to 15 digits."""
    whole = (x == np.trunc(x)) & (np.abs(x) < 1e15)
    return ~np.isfinite(x) | whole & ((np.abs(x) >= 1e12) | ((x == 0) & np.signbit(x)))


def _csv_text(header: str, prefixes, columns) -> str:
    """CSV text: the header, then per row its prefix (the text of its leading
    columns) and its value of each float column as ``format_number`` writes it.

    The rows are one ``%`` format of ``"%.12g"`` fields; the few rows where
    that differs from ``format_number`` get ``"%s"`` fields, which take the
    values as ``format_number`` writes them.
    """
    from .jsonio import format_number

    k = len(columns)
    values = list(chain.from_iterable(zip(prefixes, *(c.tolist() for c in columns))))
    redo = np.zeros(len(values) // (k + 1), dtype=bool)
    for c in columns:
        redo |= _unlike_g12(c)
    row_g, row_s = "%s" + ",%.12g" * k + "\n", "%s" + ",%s" * k + "\n"
    row_formats, done = [], 0
    for i in np.flatnonzero(redo).tolist():
        values[i * (k + 1) + 1:(i + 1) * (k + 1)] = [format_number(c[i]) for c in columns]
        row_formats += [row_g * (i - done), row_s]
        done = i + 1
    row_formats.append(row_g * (len(redo) - done))
    return header + "\n" + "".join(row_formats) % tuple(values)


def samples_csv(ds: Dataset) -> str:
    """Serialize charge curves to the samples.csv wire format."""
    lengths = [min(len(c.times), len(c.voltages)) for c in ds.cycles]
    t = np.concatenate([np.empty(0), *(c.times[:k] for c, k in zip(ds.cycles, lengths))])
    v = np.concatenate([np.empty(0), *(c.voltages[:k] for c, k in zip(ds.cycles, lengths))])
    prefixes = chain.from_iterable(repeat(f"{ds.battery_id},{c.cycle_index}", k)
                                   for c, k in zip(ds.cycles, lengths))
    return _csv_text(SAMPLES_HEADER, prefixes, (t, v))


def capacity_csv(ds: Dataset) -> str:
    """Serialize the discharge capacities to the capacity.csv wire format."""
    prefixes = (f"{ds.battery_id},{c.cycle_index}" for c in ds.cycles)
    return _csv_text(CAPACITY_HEADER, prefixes, (ds.capacities(),))
