"""The whole-file array passes of ingest against the code they replaced.

Parsing, synthesis, CSV output and feature extraction must give the same
records, the same bits, the same text and the same error messages as the
per-line and per-sample code below, transcribed from before the array
passes (only the names carry a ``_ref`` prefix). The parsers' number
contract is written out independently of numpy: a regex for each column
type's spellings, int64 cycles and a magnitude bound on floats.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batcap import data, features
from batcap.data import (
    _POST_FADE_S, _POST_JITTER_S_PER_V, _POST_WOBBLE, _PRE_FADE_S, _PRE_JITTER_S_PER_V,
    _PRE_WOBBLE, _PLATEAU_HALF_WIDTH_V, _SAMPLE_DT_S, _T_PLATEAU_FRESH_S, _T_POST_S, _T_PRE_S,
    _V_END_DRIFT, _V_END_OFFSET, _V_START_OFFSET, CAPACITY_HEADER, SAMPLES_HEADER, CycleRecord,
    Dataset, SynthConfig,
)
from batcap.features import FeatureMatrix, VoltageSegments
from batcap.rng import Rng, derive_seed
from conftest import LineFit, first_crossing_time, fit_charging_line, segment_times


# --- the per-line and per-sample code ----------------------------------------

# The number contract. A number is padding, an int or float spelling, then
# padding; only a line's last token may end with a carriage return (its line
# end). Cycles lie in int64, floats within +-1e100 (NaN and +-inf beyond).
_PAD_CHARS = " \t\v\f\x1c\x1d\x1e\x1f"
_PAD = f"[{_PAD_CHARS}]*"
_SPELLINGS = {
    int: re.compile(f"{_PAD}[+-]?[0-9]+{_PAD}"),
    float: re.compile(f"{_PAD}[+-]?(?:(?:[0-9]+\\.?[0-9]*|\\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                      f"|(?i:inf|infinity|nan)){_PAD}"),
}
_REF_BOUND = 1e100


def _ref_number(token: str, kind, last: bool = False):
    """The value of a number token, or None where the contract refuses it."""
    spelling = token[:-1] if last and token.endswith("\r") else token
    if not _SPELLINGS[kind].fullmatch(spelling):
        return None
    value = kind(spelling.strip(_PAD_CHARS))
    in_range = -2 ** 63 <= value < 2 ** 63 if kind is int else abs(value) <= _REF_BOUND
    return value if in_range else None


def _ref_parse(token: str, line_no: int, column: str, kind, last: bool = False):
    value = _ref_number(token, kind, last)
    if value is None:
        raise ValueError(f"line {line_no}: bad {column} value {token!r}")
    return value


def _ref_split_csv(csv_text: str, expected_header: str) -> list[tuple[int, list[str]]]:
    """The non-blank rows as (line number, tokens as written)."""
    lines = csv_text.replace("\r\n", "\n").split("\n")
    if not lines or lines[0].strip() != expected_header:
        raise ValueError(f"expected header {expected_header!r}")
    rows = []
    n_cols = expected_header.count(",") + 1
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ValueError(f"line {line_no}: expected {n_cols} columns, got {len(parts)}")
        rows.append((line_no, parts))
    return rows


def _ref_parse_samples(csv_text: str) -> list[CycleRecord]:
    """Parse a samples CSV into per-cycle records (capacity unfilled).

    Rows are grouped by cycle index; within each cycle, times must already be
    strictly increasing (out-of-order data is an error, not silently sorted).
    """
    rows = _ref_split_csv(csv_text, SAMPLES_HEADER)
    battery_ids = {parts[0].strip() for _, parts in rows}
    if len(battery_ids) > 1:
        raise ValueError(f"multiple battery ids in one samples file: {sorted(battery_ids)}")
    grouped: dict[int, list[tuple[float, float]]] = {}
    order: list[int] = []
    for line_no, parts in rows:
        cyc = _ref_parse(parts[1], line_no, "cycle", int)
        t = _ref_parse(parts[2], line_no, "time_s", float)
        v = _ref_parse(parts[3], line_no, "voltage_v", float, last=True)
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


def _ref_parse_capacity(csv_text: str) -> dict[int, float]:
    """Parse a capacity CSV into {cycle_index: discharge_capacity_mah}."""
    rows = _ref_split_csv(csv_text, CAPACITY_HEADER)
    capacities: dict[int, float] = {}
    for line_no, parts in rows:
        cyc = _ref_parse(parts[1], line_no, "cycle", int)
        cap = _ref_parse(parts[2], line_no, "discharge_capacity_mah", float, last=True)
        if cyc in capacities:
            raise ValueError(f"line {line_no}: duplicate capacity for cycle {cyc}")
        if cap <= 0:
            raise ValueError(f"line {line_no}: non-positive capacity for cycle {cyc}")
        capacities[cyc] = cap
    return capacities


def _ref_sniff_battery_id(csv_text: str) -> str | None:
    """Battery id of the first data row, for cross-file consistency checks."""
    lines = csv_text.replace("\r\n", "\n").split("\n")
    for line in lines[1:]:
        if line.strip():
            return line.split(",")[0].strip()
    return None


def _ref_wobble(n: int, spec: tuple[float, float, float]) -> float:
    amp, rate, phase = spec
    return amp * np.sin(rate * n + phase)


def _ref_curve_voltage(tau_s: float, t_pre: float, t_plat: float, t_post: float,
                       v_start: float, v_plat_lo: float, v_plat_hi: float, v_end: float) -> float:
    if tau_s <= t_pre:
        u = tau_s / t_pre
        return v_start + (v_plat_lo - v_start) * u ** 0.6
    if tau_s <= t_pre + t_plat:
        u = (tau_s - t_pre) / t_plat
        return v_plat_lo + (v_plat_hi - v_plat_lo) * u
    u = min((tau_s - t_pre - t_plat) / t_post, 1.0)
    return v_plat_hi + (v_end - v_plat_hi) * (0.6 * u + 0.4 * u ** 3)


def _ref_synth_dataset(cfg: SynthConfig) -> Dataset:
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
        t_pre = _T_PRE_S - _PRE_FADE_S * fade + _ref_wobble(cycle_no, _PRE_WOBBLE)
        t_plat = _T_PLATEAU_FRESH_S * q / cfg.q0
        t_post = _T_POST_S - _POST_FADE_S * fade + _ref_wobble(cycle_no, _POST_WOBBLE)
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
            v = _ref_curve_voltage(t, t_pre, t_plat, t_post,
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


def _ref_samples_csv(ds: Dataset) -> str:
    """Serialize charge curves to the samples.csv wire format."""
    from batcap.jsonio import format_number

    lines = [SAMPLES_HEADER]
    for cyc in ds.cycles:
        for t, v in zip(cyc.times, cyc.voltages):
            lines.append(
                f"{ds.battery_id},{cyc.cycle_index},{format_number(t)},{format_number(v)}"
            )
    return "\n".join(lines) + "\n"



def _ref_capacity_csv(ds: Dataset) -> str:
    from batcap.jsonio import format_number

    lines = [CAPACITY_HEADER]
    for cyc in ds.cycles:
        lines.append(
            f"{ds.battery_id},{cyc.cycle_index},{format_number(cyc.discharge_capacity)}"
        )
    return "\n".join(lines) + "\n"


def _ref_matrix_to_csv(m: FeatureMatrix) -> str:
    from batcap.jsonio import format_number

    header = "cycle," + ",".join(m.feature_names) + ",target"
    lines = [header]
    for cyc, row, target in zip(m.cycle_indices, m.X, m.y):
        values = ",".join(format_number(x) for x in row)
        lines.append(f"{cyc},{values},{format_number(target)}")
    return "\n".join(lines) + "\n"

def _ref_fit_charging_line(rec: CycleRecord) -> LineFit:
    """Ordinary least squares of voltage on time over the whole cycle."""
    t = rec.times
    v = rec.voltages
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


def _ref_first_crossing_time(rec: CycleRecord, level: float) -> float:
    """Time at which the curve first reaches ``level`` volts.

    Linear interpolation between the bracketing samples; t[0] if the curve
    starts at or above the level, t[-1] if it never gets there.
    """
    t = rec.times
    v = rec.voltages
    if v[0] >= level:
        return float(t[0])
    above = np.nonzero(v >= level)[0]
    if len(above) == 0:
        return float(t[-1])
    i = int(above[0])
    frac = (level - v[i - 1]) / (v[i] - v[i - 1])
    return float(t[i - 1] + frac * (t[i] - t[i - 1]))


def _ref_segment_times(rec: CycleRecord, seg: VoltageSegments) -> tuple[float, float, float]:
    """Charging time spent inside each voltage segment.

    Durations are differences of first-crossing times, which makes them
    non-negative and exactly partitions the total charge time whenever the
    curve spans all three segments.
    """
    e0 = _ref_first_crossing_time(rec, seg.vs1[0])
    e1 = _ref_first_crossing_time(rec, seg.vs2[0])
    e2 = _ref_first_crossing_time(rec, seg.vs3[0])
    e3 = _ref_first_crossing_time(rec, seg.vs3[1])
    return (e1 - e0, e2 - e1, e3 - e2)


def _ref_extract_features(rec: CycleRecord, seg: VoltageSegments) -> np.ndarray:
    """The 13-feature vector for one cycle (see module docstring for mapping)."""
    t = rec.times
    v = rec.voltages
    fit = _ref_fit_charging_line(rec)
    t_vs1, t_vs2, t_vs3 = _ref_segment_times(rec, seg)
    total_time = float(t[-1] - t[0])
    mean_v = float(np.trapezoid(v, t) / total_time) if total_time > 0 else float(v.mean())
    features = np.array([
        v[0],                                # F1
        v[-1],                               # F2
        total_time,                          # F3
        fit.slope,                           # F4
        fit.intercept,                       # F5
        _ref_first_crossing_time(rec, seg.vs1[0]),  # F6
        t_vs1,                               # F7
        t_vs2,                               # F8
        _ref_first_crossing_time(rec, seg.vs2[0]),  # F9
        _ref_first_crossing_time(rec, seg.vs3[0]),  # F10
        mean_v,                              # F11
        t_vs3,                               # F12
        float(np.median(v)),                 # F13
    ], dtype=float)
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature values")
    return features

# --- equivalence ------------------------------------------------------------

SYNTH_CONFIGS = {
    "default": SynthConfig(),
    "long_life": SynthConfig(n_cycles=2000, fade_rate=0.0004),
    "noise_free": SynthConfig(noise_sd=0.0),
    **{f"seed_{seed}": SynthConfig(n_cycles=120, seed=seed) for seed in (1, 2, 3)},
}


def _bits(records):
    """Every number of the records as raw float64 bytes, so -0.0 differs from 0.0."""
    return [(r.cycle_index, np.array(r.times).tobytes(), np.array(r.voltages).tobytes(),
             np.float64(r.discharge_capacity or 0.0).tobytes()) for r in records]


@pytest.fixture(scope="module", params=list(SYNTH_CONFIGS), ids=list(SYNTH_CONFIGS))
def synth_pair(request):
    cfg = SYNTH_CONFIGS[request.param]
    return data.synth_dataset(cfg), _ref_synth_dataset(cfg)


def test_synth_matches_the_per_sample_reference(synth_pair):
    ds, ref = synth_pair
    assert (ds.battery_id, ds.nominal_capacity) == (ref.battery_id, ref.nominal_capacity)
    assert _bits(ds.cycles) == _bits(ref.cycles)


def test_samples_csv_matches_the_reference(synth_pair):
    ds, ref = synth_pair
    assert data.samples_csv(ds) == _ref_samples_csv(ref)


def test_parse_matches_the_reference_on_synthetic_csv(synth_pair):
    text = _ref_samples_csv(synth_pair[1])
    records = data.parse_samples(text)
    expected = _ref_parse_samples(text)
    assert _bits(records) == _bits(expected)
    # the benchmark's data.rows_parsed counter reads this sum
    assert sum(len(c.times) for c in records) == len(text.splitlines()) - 1


def test_features_match_the_reference(synth_pair):
    ds = synth_pair[0]
    seg = features.detect_segments(ds.cycles[len(ds) // 2])
    expected = np.array([_ref_extract_features(c, seg) for c in ds.cycles])
    assert np.array_equal(features.build_matrix(ds, seg).X, expected)
    for cyc in ds.cycles[:: max(1, len(ds) // 20)]:
        assert segment_times(cyc, seg) == _ref_segment_times(cyc, seg)
        assert fit_charging_line(cyc) == _ref_fit_charging_line(cyc)


def _ramp(cycle, n, top=3.6, nan_at=None, flat_start=False):
    """A record of n samples rising from 3.0 V to ``top``; a NaN voltage at
    ``nan_at``, or a first step with no rise."""
    v = np.linspace(3.0, top, n)
    if nan_at is not None:
        v[nan_at] = np.nan
    if flat_start:
        v[1] = v[0]
    return CycleRecord(cycle, 10.0 * np.arange(n), v, 171.0 - cycle)


RAMP_SEGMENTS = VoltageSegments((3.0, 3.2), (3.2, 3.4), (3.4, 3.5))


def _per_cycle_error(ds, seg):
    """The error the per-cycle build_matrix loop raised around the reference
    extraction: that of the first cycle that fails, in cycle order."""
    for cyc in ds.cycles:
        try:
            _ref_extract_features(cyc, seg)
        except ValueError as exc:
            return f"feature extraction failed at cycle {cyc.cycle_index}: {exc}"
    return None


def test_build_matrix_names_the_first_failing_cycle_across_groups():
    # Three sample counts. Cycles 2 and 4 give non-finite features; cycle 2
    # is in the group of 31 samples, which is reduced after the group of 12.
    # Cycle 3 never reaches the top level and starts flat: its unused
    # interpolation divides by zero, which must stay silent.
    cycles = (_ramp(1, 20), _ramp(2, 31, nan_at=7), _ramp(3, 12, top=3.45, flat_start=True),
              _ramp(4, 12, nan_at=3), _ramp(5, 20, top=3.45), _ramp(6, 31))
    ds = Dataset("b", 170.0, cycles)
    expected = _per_cycle_error(ds, RAMP_SEGMENTS)
    assert expected == "feature extraction failed at cycle 2: non-finite feature values"
    good = Dataset("b", 170.0, cycles[:1] + cycles[2:3] + cycles[4:])
    reference = np.array([_ref_extract_features(c, RAMP_SEGMENTS) for c in good.cycles])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as got:
            features.build_matrix(ds, RAMP_SEGMENTS)
        assert str(got.value) == expected
        assert features.build_matrix(good, RAMP_SEGMENTS).X.tobytes() == reference.tobytes()


def test_one_row_path_matches_the_reference_on_short_and_degenerate_records():
    two = CycleRecord(1, (0.0, 10.0), (3.0, 3.6), 170.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = features.build_matrix(Dataset("b", 170.0, (two,) * 3), RAMP_SEGMENTS).X
        assert got.tobytes() == np.array([_ref_extract_features(two, RAMP_SEGMENTS)] * 3).tobytes()
        assert fit_charging_line(two) == _ref_fit_charging_line(two)
        assert segment_times(two, RAMP_SEGMENTS) == _ref_segment_times(two, RAMP_SEGMENTS)
        for level in (2.9, 3.0, 3.3, 3.6, 3.7):
            assert first_crossing_time(two, level) == _ref_first_crossing_time(two, level)
    same_times = CycleRecord(2, (5.0,) * 12, np.linspace(3.0, 3.6, 12), 169.0)
    one = CycleRecord(2, (5.0,), (3.0,), 169.0)
    for rec, fault in ((same_times, "all sample times identical; slope undefined"),
                       (one, "need at least 2 samples to fit a line")):
        for ref in (_ref_fit_charging_line, lambda r: _ref_extract_features(r, RAMP_SEGMENTS)):
            with pytest.raises(ValueError, match=f"^{fault}$"):
                ref(rec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{fault}$"):
                fit_charging_line(rec)
        ds = Dataset("b", 170.0, (two, rec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                features.build_matrix(ds, RAMP_SEGMENTS)
        assert str(got.value) == _per_cycle_error(ds, RAMP_SEGMENTS)
        assert str(got.value) == f"feature extraction failed at cycle 2: {fault}"


def test_samples_csv_matches_the_reference_on_special_values():
    times = (-0.0, 0.0, 1.0, 999999999999.0, 1e12, 123456789012345.0, 1e15, 2.5e-7, 1e300, 7.0)
    voltages = (3.0, -0.0, 1234567890123.0, -5.0, 0.1, 1 / 3, -1e13, 4.25, 3.3, 3.4)
    ds = Dataset("cell,7", 170.0, (CycleRecord(1, times, voltages, 170.0),
                                   CycleRecord(3, times[:4], voltages[:3], 169.0)))
    assert data.samples_csv(ds) == _ref_samples_csv(ds)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_samples_csv_rejects_non_finite_values_as_the_reference(bad):
    first = CycleRecord(1, (0.0, 1.0, 2.0), (3.0, 3.1, 3.2), 170.0)
    later = CycleRecord(2, (0.0, 1.0, bad), (3.0, -bad, 3.2), 169.0)
    ds = Dataset("b", 170.0, (first, later))
    with pytest.raises(ValueError) as expected:
        _ref_samples_csv(ds)
    with pytest.raises(ValueError) as got:
        data.samples_csv(ds)
    assert str(got.value) == str(expected.value)



SPECIAL_VALUES = (-0.0, 0.0, 1.0, 170.0, 999999999999.0, 1e12, 123456789012345.0, 1e15,
                  1 / 3, 2.5e-7, -1e13)


def _special_matrix() -> FeatureMatrix:
    """Every special value in every column: row i is the values rotated by i."""
    n = len(features.FEATURE_NAMES)
    X = np.array([np.roll(SPECIAL_VALUES, -i)[np.arange(n) % len(SPECIAL_VALUES)]
                  for i in range(len(SPECIAL_VALUES))])
    return FeatureMatrix(X, np.array(SPECIAL_VALUES[::-1]), tuple(range(1, len(X) + 1)))


def test_capacity_and_features_csv_match_the_reference_on_special_values():
    ds = Dataset("cell,7", 170.0, tuple(CycleRecord(i, (), (), q)
                                        for i, q in enumerate(SPECIAL_VALUES, start=1)))
    assert data.capacity_csv(ds) == _ref_capacity_csv(ds)
    m = _special_matrix()
    assert features.matrix_to_csv(m) == _ref_matrix_to_csv(m)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_capacity_and_features_csv_reject_non_finite_values_as_the_reference(bad):
    ds = Dataset("b", 170.0, (CycleRecord(1, (), (), 170.0), CycleRecord(2, (), (), bad)))
    m = _special_matrix()
    m.X[3, 5] = bad  # the matrix checked its values when it was made
    m.y[4] = -bad
    for write, reference, arg in ((data.capacity_csv, _ref_capacity_csv, ds),
                                  (features.matrix_to_csv, _ref_matrix_to_csv, m)):
        with pytest.raises(ValueError) as expected:
            reference(arg)
        with pytest.raises(ValueError) as got:
            write(arg)
        assert str(got.value) == str(expected.value)

def _rows(cycles, n=11, battery="b", sep=","):
    """Sample rows of the given cycle numbers, in order, each with rising t and v."""
    seen = {}
    lines = []
    for cyc in cycles:
        i = seen.get(cyc, 0)
        seen[cyc] = i + 1
        lines.append(sep.join((battery, str(cyc), str(10 * i), str(3.0 + 0.01 * i))))
    return lines


def _csv(lines, header=SAMPLES_HEADER, newline="\n"):
    return newline.join([header, *lines]) + newline


def _two_cycles():
    return _rows([1] * 11 + [2] * 11)


def _replace(lines, index, text):
    lines = list(lines)
    lines[index] = text
    return lines


ACCEPTED = {
    "plain": _csv(_two_cycles()),
    "crlf": _csv(_two_cycles(), newline="\r\n"),
    "no_final_newline": _csv(_two_cycles()).rstrip("\n"),
    "blank_lines": _csv(["", *_two_cycles()[:5], "", "   ", "\t", *_two_cycles()[5:], "", ""]),
    "crlf_blank_lines": _csv(["", *_two_cycles()[:7], " ", *_two_cycles()[7:]], newline="\r\n"),
    "padded_tokens": _csv(_rows([1] * 11 + [2] * 11, sep=" , ")),
    "padded_battery_ids": _csv([" b" + line[1:] if i % 2 else line
                                for i, line in enumerate(_two_cycles())]),
    "mixed_cycle_spellings": _csv(_rows([2] * 22)).replace("b,2,1", "b, 2,1"),
    "interleaved_1_2_1": _csv(_rows([1] * 6 + [2] * 11 + [1] * 5)),
    "interleaved_rows": _csv(_rows([1, 2] * 11)),
    "header_padded": _csv(_two_cycles(), header="  " + SAMPLES_HEADER + " "),
    "header_only": SAMPLES_HEADER + "\n",
    "header_only_no_newline": SAMPLES_HEADER,
    "header_then_blank_lines": SAMPLES_HEADER + "\n\n  \n",
    "one_cycle_many_samples": _csv(_rows([5] * 400)),
    "int64_max_cycle": _csv(_rows([2 ** 63 - 1] * 11)),
    "separator_padding": _csv(_replace(_replace(_two_cycles(), 3, "b,\x1c1\x1d,30,3.03"), 4,
                                       "b,1,\x1e40,3.04\x1f")),
    "carriage_return_at_line_end": _csv(_replace(_two_cycles(), 3, "b,1,30,3.03\r")),
    "magnitude_at_the_bound": _csv(_replace(_two_cycles(), 10, "b,1,1e100,3.1")),
    # the id column is free text: numpy reads the number columns without it
    "carriage_return_in_battery_id": _csv(_rows([1] * 11 + [2] * 11, battery="b\rc")),
    **{f"non_ascii_battery_id_{ord(c):x}": _csv(_rows([1] * 11 + [2] * 11, battery=f"zelle-{c}"))
       for c in "\u00fc\u3000\U0010ffff"},
}

REJECTED = {
    "empty": "",
    "wrong_header": _csv(_two_cycles(), header="battery,cycle,time_s,voltage_v"),
    "three_columns": _csv(_replace(_two_cycles(), 3, "b,1,30")),
    "five_columns": _csv(_replace(_two_cycles(), 3, "b,1,30,3.03,1")),
    "compensating_columns": _csv(_replace(_replace(_two_cycles(), 3, "b,1,30"), 4,
                                          "b,1,40,3.04,b")),
    "bad_cycle": _csv(_replace(_two_cycles(), 2, "b,one,20,3.02")),
    "float_cycle": _csv(_replace(_two_cycles(), 2, "b,1.0,20,3.02")),
    "bad_time": _csv(_replace(_two_cycles(), 2, "b,1,zero,3.02")),
    "bad_voltage": _csv(_replace(_two_cycles(), 2, "b,1,20,")),
    "bad_tokens_in_two_rows": _csv(_replace(_replace(_two_cycles(), 15, "b,2,x,3.0"), 2,
                                            "b,1,20,y")),
    "mixed_battery_ids": _csv(_replace(_two_cycles(), 12, "c,2,10,3.01")),
    "mixed_ids_and_bad_token": _csv(_replace(_replace(_two_cycles(), 12, "c,2,10,3.01"), 2,
                                             "b,1,x,3.02")),
    "too_few_samples": _csv(_rows([1] * 11 + [2] * 5)),
    "time_backwards": _csv(_replace(_two_cycles(), 16, "b,2,35,3.05")),
    "time_repeated": _csv(_replace(_two_cycles(), 16, "b,2,40,3.05")),
    "negative_time": _csv(_replace(_two_cycles(), 11, "b,2,-1,3.0")),
    "voltage_dip": _csv(_replace(_two_cycles(), 17, "b,2,60,3.04")),
    "cycle_zero": _csv(_rows([0] * 11)),
    "negative_cycle": _csv(_rows([-3] * 11)),
    "interleaved_times_backwards": _csv(_rows([1] * 6 + [2] * 11) + _rows([1] * 5)),
    "repeated_cycle_too_short": _csv(_rows([1] * 4 + [2] * 11 + [1] * 4)),
    "validation_after_interleaving": _csv(_rows([2] * 11 + [1] * 3 + [3] * 11 + [1] * 3)),
    "blank_lines_before_bad_token": _csv(["", "  ", *_two_cycles()[:6], "\t", "",
                                          *_replace(_two_cycles()[6:], 3, "b,1,x,3.09")]),
    "crlf_blank_lines_before_bad_token": _csv(["", " ", *_replace(_two_cycles(), 8, "b,1,80,v")],
                                              newline="\r\n"),
    "blank_lines_before_wrong_column_count": _csv(["", *_two_cycles()[:4], " ", "",
                                                   *_replace(_two_cycles()[4:], 2, "b,1,60")]),
    "crlf_blank_lines_before_wrong_column_count": _csv(
        [" ", "", *_replace(_two_cycles(), 9, "b,1,90,3.09,0")], newline="\r\n"),
    "voltage_dip_before_a_short_cycle": _csv(_replace(_rows([1] * 11 + [2] * 5), 6, "b,1,60,3.0")),
    "bad_token_after_interleaving": _csv(_replace(_rows([1] * 6 + [2] * 11 + [1] * 5), 19,
                                                  "b,1,80,3.08v")),
    "negative_cycle_beyond_int64": _csv(_rows([-2 ** 63 - 1] * 11)),
    "bad_token_after_carriage_return_led_token": _csv(
        _replace(_replace(_two_cycles(), 3, "b,1,\r30,3.03"), 14, "b,2,30,3.1x")),
    "bad_token_with_non_ascii_battery_id": _csv(
        _replace(_rows([1] * 11 + [2] * 11, battery="\u00e9"), 7, "\u00e9,1,70,\u20ac")),
    "non_ascii_digits_that_drop": _csv(_replace(_two_cycles(), 15, "b,2,40,\u0663")),
    "underscore_numerals": _csv(_rows([10] * 11)).replace("b,10,", "b,1_0,"),
    "huge_cycle_number": _csv(_rows([10 ** 30] * 11)),
    "interleaved_huge_cycle_number": _csv(_rows([10 ** 30] * 6 + [1] * 11 + [10 ** 30] * 5)),
    "cycle_beyond_int64": _csv(_rows([1] * 11 + [2 ** 63] * 11)),
    "nan_time": _csv(_replace(_two_cycles(), 4, "b,1,nan,3.04")),
    "infinite_time": _csv(_replace(_two_cycles(), 10, "b,1,inf,3.1")),
    "voltage_beyond_the_bound": _csv(_replace(_two_cycles(), 10, "b,1,100,-1.0000001e100")),
    "carriage_return_led_token": _csv(_replace(_two_cycles(), 3, "b,1,\r30,3.03")),
    "carriage_return_inside_a_row": _csv(_replace(_two_cycles(), 3, "b,1,30\r,3.03")),
    "non_ascii_digits": _csv(_replace(_two_cycles(), 5, "b,\u0661,50,3.05")),
    "non_ascii_padding": _csv(_replace(_two_cycles(), 6, "b,1,\u200060\u00a0,3.06")),
    "bad_token_before_a_non_ascii_number": _csv(
        _replace(_replace(_two_cycles(), 3, "b,1,30,y"), 5, "b,1,50,\u0663")),
    "non_ascii_number_before_a_bad_token": _csv(
        _replace(_replace(_two_cycles(), 3, "b,1,\u0663,3.03"), 5, "b,1,50,y")),
    "bad_token_after_a_refused_magnitude": _csv(
        _replace(_replace(_two_cycles(), 3, "b,1,30,nan"), 5, "b,1,50,y")),
    "refused_magnitude_after_a_bad_token": _csv(
        _replace(_replace(_two_cycles(), 3, "b,1,30,y"), 5, "b,1,50,inf")),
}


@pytest.mark.parametrize("text", list(ACCEPTED.values()), ids=list(ACCEPTED))
def test_parse_matches_the_reference_on_edge_inputs(text):
    assert _bits(data.parse_samples(text)) == _bits(_ref_parse_samples(text))


@pytest.mark.parametrize("text", list(REJECTED.values()), ids=list(REJECTED))
def test_parse_raises_the_reference_message(text):
    with pytest.raises(ValueError) as expected:
        _ref_parse_samples(text)
    with pytest.raises(ValueError) as got:
        data.parse_samples(text)
    assert str(got.value) == str(expected.value)


_TOKENS = st.sampled_from(["b", " b", "c", "1", "2", " 2 ", "3", "0", "-1", "1_0", "x", "",
                           "10", "20", "30", "3.0", "3.1", "2.9", "nan", "1e3"])


@given(st.lists(st.lists(_TOKENS, min_size=3, max_size=5).map(",".join), max_size=40),
       st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=300, deadline=None)
def test_parse_agrees_with_the_reference_on_fuzzed_rows(lines, newline):
    text = _csv(lines, newline=newline)
    try:
        expected = _ref_parse_samples(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            data.parse_samples(text)
        assert str(got.value) == str(exc)
    else:
        assert _bits(data.parse_samples(text)) == _bits(expected)


@pytest.mark.parametrize("text", [
    *ACCEPTED.values(), *REJECTED.values(),
    "", "\n", "\r\n", "header\r\n\r\n  \r\n cell-9 ,1,0,3\r\n", "h\n\n\nx\n", "h\n \t\n",
    "h\nonly-id-no-comma", "h\n\r\n\r", "h\r\nid\r",
])
def test_sniff_battery_id_matches_the_reference(text):
    assert data.sniff_battery_id(text) == _ref_sniff_battery_id(text)


def test_grid_counts_match_the_sample_loop_at_the_boundaries():
    whole = 20.0 * np.arange(0, 400) + 1.0  # k * dt == duration - 1 exactly
    durations = np.concatenate([whole, np.nextafter(whole, np.inf), np.nextafter(whole, -np.inf),
                                whole + 1e-9, whole - 1e-9, [0.0, 0.5, 1.0, 21.0, 3000.7]])
    expected = []
    for duration in durations.tolist():
        k = 1
        while k * _SAMPLE_DT_S < duration - 1.0:
            k += 1
        expected.append(k - 1)
    assert data._grid_counts(durations).tolist() == expected


def test_a_valid_file_is_validated_as_arrays_once(monkeypatch):
    text = _ref_samples_csv(_ref_synth_dataset(SynthConfig(n_cycles=40)))
    capacity = data.capacity_csv(data.synth_dataset(SynthConfig(n_cycles=40)))
    check_runs = data._check_runs
    calls = []

    def counted(cycles, *args):
        calls.append(list(cycles))
        check_runs(cycles, *args)

    def per_record(self):
        raise AssertionError("a valid file went through the per-record checks")

    monkeypatch.setattr(data, "_check_runs", counted)
    monkeypatch.setattr(CycleRecord, "validate", per_record)
    records = data.parse_samples(text)
    ds = data.assemble_dataset(records, data.parse_capacity(capacity), "synthetic", 170.0)
    assert len(ds) == 40
    assert calls == [list(range(1, 41))]


def _capacity_csv(rows, newline="\n"):
    return _csv([f"b,{cyc},{cap}" for cyc, cap in rows], CAPACITY_HEADER, newline)


CAPACITIES = [(c, 171 - c) for c in range(1, 8)]

CAPACITY_ACCEPTED = {
    "plain": _capacity_csv(CAPACITIES),
    "crlf_blank_lines": _capacity_csv(CAPACITIES, newline="\r\n").replace("b,3", "\r\n \r\nb,3"),
    "padded_tokens": _capacity_csv([(f" {c} ", f"{q} ") for c, q in CAPACITIES]),
    "header_only": CAPACITY_HEADER + "\n",
    "separator_padding": _capacity_csv([(f"\x1c{c}", f"{q}\x1f") for c, q in CAPACITIES]),
    "magnitude_at_the_bound": _capacity_csv([*CAPACITIES, (8, "1e100")]),
    **{f"non_ascii_battery_id_{ord(c):x}": _capacity_csv(CAPACITIES).replace("b,", f"{c},")
       for c in "\u00e9\u3000\U0010ffff"},
}

CAPACITY_REJECTED = {
    "empty": "",
    "wrong_header": _csv([], "battery_id,cycle,capacity"),
    "blank_lines_before_wrong_column_count": _capacity_csv(CAPACITIES).replace(
        "b,5,166", "\n \nb,5"),
    "blank_lines_before_bad_cycle": _capacity_csv(CAPACITIES).replace("b,4,", "\n\t\nb,four,"),
    "crlf_blank_lines_before_bad_capacity": _capacity_csv(
        [*CAPACITIES[:2], (3, "x"), *CAPACITIES[3:]], newline="\r\n").replace("b,2", "\r\nb,2"),
    "bad_cycle_and_capacity_in_one_row": _capacity_csv([*CAPACITIES[:3], ("1.0", "high")]),
    "duplicate": _capacity_csv([*CAPACITIES, (3, 150)]),
    "duplicate_spelled_differently": _capacity_csv([*CAPACITIES, ("03", 150)]),
    "duplicate_before_bad_token": _capacity_csv([*CAPACITIES, (2, 150), ("x", 149)]),
    "zero": _capacity_csv([*CAPACITIES[:4], (5, 0), *CAPACITIES[5:]]),
    "negative": _capacity_csv([(1, -170), *CAPACITIES[1:]]),
    "negative_infinity": _capacity_csv([*CAPACITIES, (8, "-inf")]),
    "duplicate_before_carriage_return_led_bad_token": _capacity_csv(
        [*CAPACITIES, (2, 150), ("\r9", "14x")]),
    "duplicate_beyond_int64": _capacity_csv([*CAPACITIES, (2 ** 64, 150), (2 ** 64, 149)]),
    "cycle_beyond_int64": _capacity_csv([*CAPACITIES, (2 ** 64, 150)]),
    "nan": _capacity_csv([*CAPACITIES[:3], (4, "nan"), *CAPACITIES[4:]]),
    "beyond_the_bound": _capacity_csv([*CAPACITIES, (8, "1e101")]),
    "duplicate_before_beyond_the_bound": _capacity_csv([*CAPACITIES, (2, 150), (9, "1e101")]),
    "non_positive_before_nan": _capacity_csv([*CAPACITIES, (8, "-0.0"), (9, "nan")]),
    "non_ascii_capacity": _capacity_csv([*CAPACITIES, (8, "\u0661")]).replace("b,", "\u00e9,"),
}


@pytest.mark.parametrize("text", list(CAPACITY_ACCEPTED.values()), ids=list(CAPACITY_ACCEPTED))
def test_parse_capacity_matches_the_reference(text):
    got, expected = data.parse_capacity(text), _ref_parse_capacity(text)
    assert got == expected and list(got) == list(expected)


@pytest.mark.parametrize("text", list(CAPACITY_REJECTED.values()), ids=list(CAPACITY_REJECTED))
def test_parse_capacity_raises_the_reference_message(text):
    with pytest.raises(ValueError) as expected:
        _ref_parse_capacity(text)
    with pytest.raises(ValueError) as got:
        data.parse_capacity(text)
    assert str(got.value) == str(expected.value)


# --- numpy's reader against the written-out contract ------------------------

FEATURES_HEADER = ",".join(["cycle", *features.FEATURE_NAMES, "target"])
# Header, (name, type) of each column and a valid row of each CSV file.
CSV_FILES = {
    "samples": (SAMPLES_HEADER, data._SAMPLE_COLUMNS, ["b", "1", "10", "3.0"]),
    "capacity": (CAPACITY_HEADER, data._CAPACITY_COLUMNS, ["b", "1", "170"]),
    "features": (FEATURES_HEADER, features._CSV_COLUMNS, ["1", *["0.5"] * 13, "170"]),
}
# An int and a float column of each file, at the start, inside and at the end of a row.
SPELLING_COLUMNS = [("samples", 1), ("samples", 2), ("samples", 3), ("capacity", 1),
                    ("capacity", 2), ("features", 0), ("features", 7), ("features", 14)]
# Every ASCII spelling of one or two characters that leaves the row's columns
# as they are, and longer ones at the edges of the contract.
_CHARS = [chr(i) for i in range(128) if chr(i) not in ",\n"]
SPELLINGS = _CHARS + [a + b for a in _CHARS for b in _CHARS] + [
    "1_0", "1__0", "0x1f", "1e100", "-1e100", "1.0000000000000001e100", "1e101", "1e400",
    "-infinity", "NaN", " +.5e-3\t", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "00000000000000000000000000000000001",
    "\u0661", "\u00a01", "1\u3000"]


@pytest.mark.parametrize("kind, column", SPELLING_COLUMNS,
                         ids=[f"{kind}-{CSV_FILES[kind][1][j][0]}" for kind, j in SPELLING_COLUMNS])
def test_every_short_ascii_spelling_reads_as_the_contract_says(kind, column):
    header, columns, row = CSV_FILES[kind]
    name, convert = columns[column]
    position = [j for j, (_, t) in enumerate(columns) if t is not str].index(column)
    last = column == len(columns) - 1
    for form in SPELLINGS:
        # no final newline, so a form's last carriage return stays in its line
        text = "\n".join([header, ",".join([*row[:column], form, *row[column + 1:]])])
        got, error = data._number_columns(text, data._csv_lines(text, header), columns)
        expected = _ref_number(form, convert, last)
        if expected is None:
            assert str(error) == f"line 2: bad {name} value {form!r}", repr(form)
            assert all(len(values) == 0 for values in got), repr(form)
        else:
            assert error is None, repr(form)
            value = got[position].tolist()[0]
            assert type(value) is convert, repr(form)
            assert np.float64(value).tobytes() == np.float64(expected).tobytes(), repr(form)


def _padded_inputs(pad):
    """A file of each kind with ``pad`` around one number, and the file without it."""
    features_text = "\n".join([FEATURES_HEADER, *(",".join([str(i), *["0.5"] * 13, "170"])
                                                  for i in (1, 2, 3)), ""])
    samples, capacity = _csv(_two_cycles()), _capacity_csv(CAPACITIES)
    return [(data.parse_samples, samples.replace("b,1,30,", f"b,{pad}1,30,"), samples),
            (data.parse_capacity, capacity.replace(",168\n", f",168{pad}\n"), capacity),
            (features.matrix_from_csv, features_text.replace("0.5", f"{pad}0.5", 1),
             features_text)]


@pytest.mark.parametrize("pad", "\x1c\x1d\x1e\x1f")
def test_separator_padding_reads_as_spaces(pad):
    # numpy's reader skips 0x1C-0x1F around a number, as it skips spaces
    for parse, text, plain in _padded_inputs(pad):
        assert text != plain
        got, expected = parse(text), parse(plain)
        if isinstance(got, FeatureMatrix):
            assert got.X.tobytes() == expected.X.tobytes()
        else:
            assert got == expected


def _features_csv(rows):
    return "\n".join([FEATURES_HEADER, *rows, ""])


def _ref_matrix_from_csv(csv_text: str) -> FeatureMatrix:
    """Parse a features CSV; tokens are converted row by row, in file order."""
    names = FEATURES_HEADER.split(",")
    rows = [[_ref_parse(token, line_no, name, float if j else int, last=j == len(names) - 1)
             for j, (name, token) in enumerate(zip(names, parts))]
            for line_no, parts in _ref_split_csv(csv_text, FEATURES_HEADER)]
    return FeatureMatrix(np.array([row[1:-1] for row in rows]).reshape(-1, len(names) - 2),
                         np.array([row[-1] for row in rows], dtype=float),
                         tuple(row[0] for row in rows))


FEATURES_INPUTS = {
    "plain": _features_csv(f"{i},{','.join(['0.5'] * 13)},{170 - i}" for i in range(1, 6)),
    "crlf_padded": _features_csv(f" {i} ,{','.join([' 1e-3'] * 13)},{170 - i} \r"
                                 for i in range(1, 6)),
    "at_the_bound": _features_csv(f"{i},{','.join(['-1e100'] * 13)},1e100" for i in range(1, 6)),
    "cycle_beyond_int64": _features_csv(f"{2 ** 64 + i},{','.join(['0.5'] * 13)},170"
                                        for i in range(1, 6)),
    "non_ascii_digits": _features_csv(f"{i},{','.join(['٠.5'] * 13)},170"
                                      for i in range(1, 6)),
    "bad_token": _features_csv(f"{i},{','.join(['0.5'] * 13)},{'x' if i == 4 else 170}"
                               for i in range(1, 6)),
    "non_finite": _features_csv(f"{i},{','.join(['0.5'] * 13)},{'nan' if i == 2 else 170}"
                                for i in range(1, 6)),
    "beyond_the_bound": _features_csv(f"{i},{','.join(['1e101' if i == 3 else '0.5'] * 13)},170"
                                      for i in range(1, 6)),
}


def _features_outcome(parse, text):
    try:
        m = parse(text)
    except ValueError as exc:
        return str(exc)
    assert all(type(c) is int for c in m.cycle_indices)
    return m.cycle_indices, m.X.tobytes(), m.y.tobytes()


@pytest.mark.parametrize("text", list(FEATURES_INPUTS.values()), ids=list(FEATURES_INPUTS))
def test_features_reader_matches_the_reference(text):
    assert (_features_outcome(features.matrix_from_csv, text)
            == _features_outcome(_ref_matrix_from_csv, text))


def test_features_reader_names_the_refused_token():
    outcomes = {name: _features_outcome(features.matrix_from_csv, text)
                for name, text in FEATURES_INPUTS.items()}
    assert outcomes["cycle_beyond_int64"] == "line 2: bad cycle value '18446744073709551617'"
    assert outcomes["non_ascii_digits"] == "line 2: bad F1 value '٠.5'"
    assert outcomes["bad_token"] == "line 5: bad target value 'x'"
    assert outcomes["non_finite"] == "line 3: bad target value 'nan'"
    assert outcomes["beyond_the_bound"] == "line 4: bad F1 value '1e101'"


def _outcomes():
    """What every parser gives on every edge input: bits, or the error text."""
    def run(parse, text):
        try:
            got = parse(text)
        except ValueError as exc:
            return str(exc)
        return _bits(got) if isinstance(got, list) else sorted(got.items())

    return ([run(data.parse_samples, t) for t in (*ACCEPTED.values(), *REJECTED.values())],
            [run(data.parse_capacity, t)
             for t in (*CAPACITY_ACCEPTED.values(), *CAPACITY_REJECTED.values())],
            [_features_outcome(features.matrix_from_csv, t) for t in FEATURES_INPUTS.values()])


def test_numpy_sees_only_ascii_text_and_reads_a_valid_file_in_one_call(monkeypatch):
    # Some non-ASCII text crashes numpy's reader (a segmentation fault).
    unwatched = _outcomes()
    loadtxt, seen = np.loadtxt, []

    def watched(lines, **kwargs):
        assert all(line.isascii() for line in lines), lines
        seen.append(lines)
        return loadtxt(lines, **kwargs)

    monkeypatch.setattr(np, "loadtxt", watched)
    assert _outcomes() == unwatched
    seen.clear()
    data.parse_samples(ACCEPTED["plain"])
    assert seen == [ACCEPTED["plain"].splitlines()[1:]]


# --- one % format per file ----------------------------------------------------

def _with_redo_rows(n, rows):
    """n ordinary values, and a value '%.12g' writes unlike format_number at ``rows``."""
    values = 0.25 + np.arange(n) * 1.5
    for i, special in zip(rows, [1e12, -0.0, 123456789012345.0] * n):
        values[i] = special
    return values


REDO_ROWS = {"none": [], "first": [0], "last": [11], "adjacent": [4, 5, 6],
             "first_last_and_adjacent": [0, 1, 7, 8, 10, 11], "every": list(range(12))}


@pytest.mark.parametrize("rows", list(REDO_ROWS.values()), ids=list(REDO_ROWS))
def test_one_format_writer_matches_the_reference_around_redo_rows(rows):
    times, voltages = 100.0 + np.arange(12.0), _with_redo_rows(12, rows)
    ds = Dataset("cell-1", 170.0, (CycleRecord(1, times[:7], voltages[:7], 170.0),
                                   CycleRecord(2, times[7:], voltages[7:], 169.0)))
    assert data.samples_csv(ds) == _ref_samples_csv(ds)
    caps = Dataset("cell-1", 170.0, tuple(CycleRecord(i + 1, (), (), q)
                                          for i, q in enumerate(_with_redo_rows(12, rows))))
    assert data.capacity_csv(caps) == _ref_capacity_csv(caps)
    X = np.column_stack([_with_redo_rows(12, rows) if j % 2 else 0.5 + np.arange(12.0)
                         for j in range(len(features.FEATURE_NAMES))])
    m = FeatureMatrix(X, _with_redo_rows(12, rows), tuple(range(1, 13)))
    assert features.matrix_to_csv(m) == _ref_matrix_to_csv(m)
