"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was built on changes speed by up to 1.9x over a few
seconds (a fixed Python loop took 137-257 ms; process CPU time moved with
wall time, so the machine itself slows, not the scheduler).  Raw timings of
runs a few minutes apart then differ by more than any useful regression
bound.  So the timed phase times fixed kernels -- none of them gammagen --
between tasks, at least every ``INTERVAL_NS`` of task time, and rescales
each task's wall time by the kernels' speed factor around it: the mean over
the workload's kernels of reference time over measured time.  Reported
times are therefore wall times at the speed at which each kernel takes its
reference time; the raw figures go to the result file.

Two kernels, because the slow-downs do not hit all work alike.  Over 75 s
of interleaved repeats, in windows of ~9 s, the window-to-window spread of
an oracle ``gamma_q_hp`` call was 4.8% raw, 4.4% against the numpy kernel
and 0.9% against the Python kernel; of 60 ``lemma_expr_q`` calls 3.0% raw,
1.7% against numpy, 3.7% against Python and 1.5% against both.  Against
the numpy kernel alone a p = 1e7 ``log_gamma_p`` call went from 11.8% to
7.4% over 30 single repeats.  Each workload names the kernels that track
its work.
"""

from __future__ import annotations

import ctypes
import math
import time

import numpy as np

INTERVAL_NS = 60_000_000


def _numpy_kernel() -> float:
    """numpy over a freshly allocated 2 MB array: page faults and streaming."""
    return float(np.sum(np.log(1.5 + np.arange(0, 2 ** 18, dtype=np.float64))))


def _python_kernel() -> int:
    """Interpreter work on floats and 200-bit integers, as mpmath does."""
    s, x = 0.0, 3 ** 80
    for i in range(1, 2000):
        s += math.sqrt(i) / (i + 0.5)
        x = (x * (i | 1) + i) % (1 << 200)
    return x + int(s)


# kernel -> (function, reference time in ms)
KERNELS = {"numpy": (_numpy_kernel, 2.5), "python": (_python_kernel, 0.8)}


def _load_malloc_trim():
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # the process's libc
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _load_malloc_trim()


def reset_heap() -> None:
    """Hand the C heap's free pages back to the system (glibc malloc_trim).

    gammagen's chunked numpy sums allocate 2 MB temporaries; whether glibc
    keeps or trims the freed pages depends on what earlier work left on the
    heap, and a call that must fault its pages back in costs up to 3.5x more
    (log_gamma_p at p = 1e7: 36,700 minor faults and ~155 ms, against none
    and ~42 ms when the pages stay).  Called before every task and every
    kernel run, outside the timed region, it starts each from the state a
    fresh process has, so a task's page faults no longer depend on the
    tasks before it.  A no-op where the C library has no malloc_trim.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def speed(kernels) -> float:
    """Mean over ``kernels`` of reference time over the time measured now."""
    ratios = []
    for name in kernels:
        fn, reference_ms = KERNELS[name]
        reset_heap()
        t0 = time.perf_counter_ns()
        fn()
        ratios.append(reference_ms * 1e6 / (time.perf_counter_ns() - t0))
    return sum(ratios) / len(ratios)


def setup_speed(kernels, samples: int = 5) -> float:
    """Median speed factor over a few measurements taken now."""
    return sorted(speed(kernels) for _ in range(samples))[samples // 2]


def rescale(records, speeds):
    """Rescaled times of (raw_ns, epoch) records: a record ran between
    speed measurements ``epoch`` and ``epoch + 1`` and its time is scaled
    by their mean."""
    return [raw_ns * 0.5 * (speeds[epoch] + speeds[epoch + 1])
            for raw_ns, epoch in records]
