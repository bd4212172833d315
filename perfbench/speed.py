"""Machine-speed normalisation of op latencies.

On a shared host the same op can take twice as long from one second to the
next, because the core's speed changes under other tenants' load. A fixed
calibration kernel (interpreter bytecode and 3x3 numpy calls, the mix
polyvisc's inner loops run) is timed just before and just after each op and,
through SIGALRM every ``INTERVAL_S`` of wall time, while it runs. An op's
normalised latency is the time it would have taken at the speed where the
kernel takes ``REF_S``:

    normalised = (elapsed - time spent sampling) * REF_S * mean(1 / kernel time)

Samples fall evenly in wall time and the work done in each interval is
proportional to 1 / kernel time, hence the mean of reciprocals.
setup_probe.py applies the same formula, with a pure-Python kernel, to the
fresh interpreter that ``setup_s`` times.
"""

from __future__ import annotations

import signal
import time

import numpy as np

ITERS = 100
REF_S = 2.0e-4  # reference kernel time: roughly an uncontended Intel Xeon vCPU
INTERVAL_S = 0.02


def kernel_seconds() -> float:
    y, m, acc = np.ones(3), np.eye(3) * 0.999, 0.0
    start = time.perf_counter()
    for k in range(ITERS):
        y = m @ y + 1e-3
        acc += float(y[0]) * 0.5 + k % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager around one op; ``sample_during`` turns on SIGALRM sampling."""

    def __init__(self, sample_during: bool = True):
        self.sample_during = sample_during
        self.samples: list = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples = [kernel_seconds()]
        self.spent = 0.0
        if self.sample_during:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sample_during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.samples.append(kernel_seconds())
        return False

    def normalise(self, elapsed: float, spent: float) -> float:
        return normalised(elapsed - spent, self.samples, REF_S)


def normalised(seconds: float, samples, ref_s: float) -> float:
    """``seconds`` at the speed where the kernel takes ``ref_s``."""
    return seconds * ref_s * float(np.mean(1.0 / np.asarray(samples)))
