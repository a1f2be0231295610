import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from batcap import data, features


@pytest.fixture(scope="session")
def synth_ds():
    return data.synth_dataset(data.SynthConfig())


@pytest.fixture(scope="session")
def synth_split(synth_ds):
    return data.split_rows(len(synth_ds), 0.7, 123)


@pytest.fixture(scope="session")
def synth_segments(synth_ds, synth_split):
    ref_row = sorted(synth_split.train)[len(synth_split.train) // 2]
    return features.detect_segments(synth_ds.cycles[ref_row])


@pytest.fixture(scope="session")
def synth_matrix(synth_ds, synth_segments):
    return features.build_matrix(synth_ds, synth_segments, "raw")


def make_record(times, voltages, cycle_index=1, capacity=None):
    return data.CycleRecord(
        cycle_index=cycle_index,
        times=tuple(float(t) for t in times),
        voltages=tuple(float(v) for v in voltages),
        discharge_capacity=capacity,
    )


def feature_row(rec, seg):
    """The 13 features of one cycle, as build_matrix computes them: row 0 of
    the matrix of three copies of it (a matrix has at least 3 rows)."""
    rec = dataclasses.replace(rec, discharge_capacity=rec.discharge_capacity or 1.0)
    return features.build_matrix(data.Dataset("b", 1.0, (rec,) * 3), seg).X[0]


# One cycle's line fit, crossing time and segment times, read from the
# feature kernel that build_matrix runs.

@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r2: float


def fit_charging_line(rec):
    """Ordinary least squares of voltage on time over the whole cycle (F4, F5),
    and the fit's r2."""
    if len(rec.times) < 2:
        raise ValueError(features._FAULTS[0])
    T, V = rec.times[None], rec.voltages[None]
    X, stt = features._feature_block(T, V, (0.0,) * 4)
    if stt[0] == 0.0:
        raise ValueError(features._FAULTS[1])
    slope, intercept = X[:, 3], X[:, 4]
    with np.errstate(divide="ignore", invalid="ignore"):
        ss_res = ((V - (slope[:, None] * T + intercept[:, None])) ** 2).sum(axis=1)
        ss_tot = ((V - V.mean(axis=1)[:, None]) ** 2).sum(axis=1)
        # A constant voltage fits exactly: r2 = 1. fmin takes nan to 1.0, as min() does.
        r2 = np.where(ss_tot == 0.0, 1.0, np.fmax(0.0, np.fmin(1.0, 1.0 - ss_res / ss_tot)))
    return LineFit(slope=float(slope[0]), intercept=float(intercept[0]), r2=float(r2[0]))


def first_crossing_time(rec, level):
    """Time at which the curve first reaches ``level`` volts (F6).

    Linear interpolation between the bracketing samples; t[0] if the curve
    starts at or above the level, t[-1] if it never gets there.
    """
    X = features._feature_block(rec.times[None], rec.voltages[None], (level,) * 4)[0]
    return float(X[0, 5])


def segment_times(rec, seg):
    """Charging time spent inside each voltage segment (F7, F8, F12).

    Durations are differences of first-crossing times, which makes them
    non-negative and exactly partitions the total charge time whenever the
    curve spans all three segments.
    """
    X = features._feature_block(rec.times[None], rec.voltages[None], seg.levels())[0]
    return tuple(X[0, [6, 7, 11]].tolist())


@pytest.fixture
def plateau_record():
    """Steep rise, flat middle third, steep rise; 31 samples over 30 s."""
    times = np.arange(31.0)
    voltages = np.empty(31)
    for i, t in enumerate(times):
        if t <= 10:
            voltages[i] = 3.0 + 0.03 * t
        elif t <= 20:
            voltages[i] = 3.3 + 0.001 * (t - 10)
        else:
            voltages[i] = 3.31 + 0.03 * (t - 20)
    return make_record(times, voltages)
