"""Reference-speed scaling.

The host's own speed drifts by up to 2x over minutes, and CPU time drifts
with it, so raw times from one run to the next are not comparable.  Between
timed jobs the benchmark runs a short, fixed reference loop that calls no
lingame code: interpreter work plus small numpy/LAPACK calls, the same mix
the library spends its time on.  A job's reported time is

    wall * NOMINAL_S / measured

where ``measured`` is the mean of the reference loop's times just before
and just after the job and of those sampled during it (``Sampler``), and
``NOMINAL_S`` is the loop's time fixed once below.  A slowdown of the
whole process (a spinning background thread, say) also slows the loop, so
raw wall and CPU times are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median reference-loop time on the 2-core host the benchmark was tuned
# on.  Changing it rescales every reported time; keep it fixed.
NOMINAL_S = 0.0008

_RNG = np.random.default_rng(20151030)
_MAT = _RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12))
_IDX = _RNG.integers(0, 9, 256)
_WTS = _RNG.integers(1, 10, 256)


def reference_loop():
    acc = 0
    table = {}
    for i in range(1500):
        k = (i * 7919) % 97
        table[k] = table.get(k, 0) + i
        acc += k
    for _ in range(8):
        np.linalg.svd(_MAT, compute_uv=False)
        acc += int((_MAT @ _MAT.conj().T).trace().real)
        out = np.zeros(9, dtype=np.int64)
        np.add.at(out, _IDX, _WTS)
    return acc


def measure(repeats=3):
    """Median time of a few back-to-back reference loops, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Runs the reference loop every ``interval`` seconds while a job runs.

    A job that lasts seconds spans many changes of host speed, which the
    loops at its two ends miss.  The loop runs from a SIGALRM handler, in
    the job's own thread between two bytecodes, so it samples the speed
    during the job; the time spent in the handler is subtracted from the
    job's time.
    """

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(measure(1))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def scale(wall, measured):
    return wall * NOMINAL_S / measured
