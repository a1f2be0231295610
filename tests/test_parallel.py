import os
import threading
import time
import warnings

import numpy as np
import pytest

from batcap import attribution, fusion, parallel
from batcap.rng import Rng


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of usable CPUs that ordered_map sees."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_cpus


def test_results_come_back_in_input_order(cpus):
    cpus(3)
    out = parallel.ordered_map(lambda i: (i * i, threading.current_thread()), range(8), workers=3)
    assert [value for value, _ in out] == [i * i for i in range(8)]
    # contiguous slices [0, 2), [2, 5), [5, 8); the caller runs the first
    ran_on = [thread for _, thread in out]
    assert ran_on[:2] == [threading.current_thread()] * 2
    assert len(set(ran_on[2:5])) == len(set(ran_on[5:])) == 1
    assert len({ran_on[0], ran_on[2], ran_on[5]}) == 3


@pytest.mark.parametrize("failing,raised", [((3, 5), "3"), ((0, 4), "0"), ((1, 2), "1")])
def test_the_earliest_failing_slice_raises(cpus, failing, raised):
    # Slices [0, 1], [2, 3], [4, 5]: the later failure is raised first in time.
    cpus(3)
    first, later = failing
    later_failed = threading.Event()
    start = threading.active_count()

    def fn(i):
        if i == first:
            later_failed.wait(10)
            raise ValueError(str(i))
        if i == later:
            later_failed.set()
            raise ValueError(str(i))
        return i

    with pytest.raises(ValueError, match=f"^{raised}$"):
        parallel.ordered_map(fn, range(6), workers=3)
    assert threading.active_count() == start


def test_no_thread_outlives_an_exception_on_the_calling_thread(cpus):
    cpus(2)
    start = threading.active_count()
    worker_done = threading.Event()

    def fn(i):
        if i == 0:
            raise KeyError(i)
        worker_done.wait(0.2)
        worker_done.set()
        return i

    with pytest.raises(KeyError):
        parallel.ordered_map(fn, range(2))
    assert worker_done.is_set() and threading.active_count() == start


def test_a_slice_stops_once_an_earlier_slice_has_failed(cpus):
    cpus(2)
    ran = []

    def fn(i):
        ran.append(i)
        if i == 0:
            raise ValueError(i)
        time.sleep(0.1)  # the calling thread fails meanwhile
        return i

    with pytest.raises(ValueError):
        parallel.ordered_map(fn, range(6))
    assert sorted(ran) == [0, 3]


@pytest.mark.parametrize("over", ["raise", "ignore"])
def test_the_callers_error_state_reaches_every_worker(cpus, over):
    cpus(2)
    seen = []

    def fn(x):
        seen.append(np.geterr()["over"])
        return np.float64(1e308) * x

    with warnings.catch_warnings(record=True) as caught, np.errstate(over=over):
        warnings.simplefilter("always")
        if over == "raise":
            with pytest.raises(FloatingPointError):
                parallel.ordered_map(fn, [10.0, 10.0])
        else:
            assert parallel.ordered_map(fn, [10.0, 10.0]) == [np.inf, np.inf]
    assert seen == [over, over] and caught == []


def no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


@pytest.mark.parametrize("n_cpus,workers,items", [(4, 2, [7]), (1, 2, range(5)), (4, 1, range(5))])
def test_one_item_cpu_or_worker_starts_no_thread(cpus, monkeypatch, n_cpus, workers, items):
    cpus(n_cpus)
    monkeypatch.setattr(parallel.threading, "Thread", no_thread)
    assert parallel.ordered_map(lambda i: i + 1, items, workers) == [i + 1 for i in items]
    assert parallel.ordered_map(lambda i: i, [], workers) == []


def test_the_threads_are_capped_at_max_workers(cpus):
    cpus(8)
    start = threading.active_count()
    seen = parallel.ordered_map(lambda i: (threading.current_thread(), threading.active_count()),
                                range(8))
    assert len({thread for thread, _ in seen}) == parallel.MAX_WORKERS == 2
    assert max(count for _, count in seen) == start + 1


def test_an_interrupted_wait_stops_the_workers_and_joins_them(cpus, monkeypatch):
    # Ctrl-C reaches the calling thread while it waits for a worker: the worker
    # finishes its current item, runs no further one, and is joined.
    cpus(2)
    start = threading.active_count()
    release, ran = threading.Event(), []

    class InterruptedJoin(threading.Thread):
        joins = 0

        def join(self, timeout=None):
            InterruptedJoin.joins += 1
            if InterruptedJoin.joins == 1:
                raise KeyboardInterrupt
            release.set()  # the interrupt is recorded by now
            super().join(timeout)

    def fn(i):
        ran.append(i)
        if i == 3:
            release.wait(10)
        return i

    monkeypatch.setattr(parallel.threading, "Thread", InterruptedJoin)
    with pytest.raises(KeyboardInterrupt):
        parallel.ordered_map(fn, range(6))
    assert sorted(ran) == [0, 1, 2, 3] and threading.active_count() == start


def test_summary_rows_run_serially_above_the_threaded_size(cpus, monkeypatch):
    cpus(4)
    predict = lambda Z: np.atleast_2d(Z).sum(axis=1)
    X = np.arange(2 * 16, dtype=float).reshape(2, 16)
    assert (8 << 16) * 16 > attribution.THREADED_ROW_BYTES >= (8 << 15) * 15
    monkeypatch.setattr(parallel.threading, "Thread", no_thread)
    summary = attribution.shapley_summary(predict, X)
    assert np.allclose(summary.phi_table, X - X.mean(axis=0))
    with pytest.raises(AssertionError, match="a thread was started"):
        attribution.shapley_summary(predict, X[:, :15])


def test_summary_and_screen_bits_do_not_depend_on_the_cpu_count(cpus):
    rng = Rng(61)
    weights = rng.normals(5)
    predict = lambda Z: np.tanh(np.atleast_2d(Z) @ weights)
    X = rng.normals(6 * 5).reshape(6, 5)
    Y = rng.normals(24 * 4).reshape(24, 4)
    params = fusion.TsneParams(perplexity=5, iterations=250, seed=3)
    runs = []
    for n in (1, 2, 3):
        cpus(n)
        summary = attribution.shapley_summary(predict, X)
        screen = fusion.screen_dimensions(Y, (1, 2, 3), params)
        runs.append((summary.phi_table, summary.predictions,
                     [screen.embeddings[d].Y for d in (1, 2, 3)], screen.kl_by_dim))
    for phi, pred, ys, kl in runs[1:]:
        assert np.array_equal(phi, runs[0][0]) and np.array_equal(pred, runs[0][1])
        assert all(np.array_equal(a, b) for a, b in zip(ys, runs[0][2]))
        assert kl == runs[0][3]
