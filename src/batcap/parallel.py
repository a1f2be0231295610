"""Independent work items spread over the usable CPUs, results in input order.

numpy releases the GIL in its ufunc loops and in BLAS, so plain threads
overlap on array work. Each item runs exactly as it would serially, so the
results do not depend on the CPU count.
"""

from __future__ import annotations

import os
import threading

import numpy as np

# Each thread holds one item's working set, so the threads are capped at the
# two CPUs the speed and peak memory were measured on. The affinity mask
# ignores cgroup CPU quotas, and the cap also bounds what that can cost.
MAX_WORKERS = 2


def ordered_map(fn, items, workers: int = MAX_WORKERS) -> list:
    """``[fn(item) for item in items]``, in contiguous slices, one per usable CPU.

    At most ``workers`` slices run at once. The calling thread runs the first
    slice, and a thread per other slice runs the rest under the caller's numpy
    error state (new threads would start from numpy's defaults). Every thread
    is joined before this returns or raises; an exception comes from the
    earliest failing slice, which is the one a serial loop would have raised,
    and a slice stops once an earlier one has failed or the caller was
    interrupted. With one CPU, one worker or one item no thread is started.
    """
    items = list(items)
    # the CPUs this process may run on: its affinity mask, as taskset sets it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = max(1, min(cpus or 1, workers, len(items)))
    bounds = [len(items) * i // n for i in range(n + 1)]
    results, errors = [None] * n, [None] * n
    errstate = {"call": np.geterrcall(), **np.geterr()}

    def run(i: int) -> None:
        part = results[i] = []
        try:
            with np.errstate(**errstate):
                for item in items[bounds[i]:bounds[i + 1]]:
                    if any(e is not None for e in errors[:i]):
                        return  # an earlier slice failed, and its exception is raised
                    part.append(fn(item))
        except BaseException as exc:
            errors[i] = exc

    threads = []
    try:
        for i in range(1, n):
            threads.append(threading.Thread(target=run, args=(i,)))
            threads[-1].start()
        run(0)
        for thread in threads:
            thread.join()
    except BaseException as exc:  # a thread did not start, or a wait was interrupted
        errors[0] = exc  # so every worker stops after its current item
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return [result for part in results for result in part]
