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
