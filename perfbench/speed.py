"""The machine's speed while the benchmark runs, from fixed reference kernels.

On a shared virtual machine the speed of a core drifts with its
neighbours' load.  On the 2-vCPU x86-64 VM this benchmark was developed
on, the mean time of a fixed kernel over successive 25-second windows
ranged over +-13%, half-second samples over +-20%, and the wall time of
the same 3-second solve over 2.3-4.1 s within five minutes.  The two
vCPUs drifted independently (correlation 0.17).

So the benchmark samples a reference kernel on the same core during each
measured interval and reports the interval at the kernel's fixed nominal
time ``REF_S``: ``seconds * REF_S / mean(samples)``.  On a core where the
kernel takes ``REF_S`` this is the wall time.  The kernels use Python and
numpy only, so no change to cliffsde can change their time.  Which kernel
each measurement uses is set out in ``kernels.py``.

This module imports neither numpy nor any module beyond ``signal`` and
``time``, so that :func:`time_import` can time a fresh interpreter's whole
``import cliffsde``, numpy's import included.
"""

from __future__ import annotations

import signal
import time

#: Nominal seconds of one kernel run, within the range of each kernel's
#: mean time over a run on the development VM (2.5-6.2 ms).  Only its
#: constancy matters.
REF_S = 4.0e-3
#: Seconds of wall time between two samples of the kernel.
INTERVAL = 0.1


def python_loop() -> int:
    """Interpreter-bound Python; returns a value so that none of it can
    be skipped."""
    total = 0
    for i in range(12000):
        total += i * i
    return total


def python_kernel() -> int:
    """Interpreter-bound Python only, for timing imports."""
    return sum(python_loop() for _ in range(4))


class SpeedProbe:
    """Samples ``kernel`` every ``INTERVAL`` seconds of wall time while an
    operation runs, from a SIGALRM handler in the main thread.
    ``busy_s`` is the time the samples took, which the caller subtracts
    from the operation's wall time."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, *_):
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        busy = self.busy_s
        self._tick()
        self.busy_s = busy


def normalized_mean(times, samples) -> float:
    """Mean of ``times`` at the nominal reference speed, given the kernel
    samples taken while they were measured.  The mean, not the median:
    the samples span every interval, so only the sum of the intervals
    matches the samples' time average."""
    return sum(times) * REF_S * len(samples) / sum(samples) / len(times)


def time_import(name: str):
    """(seconds, mean kernel seconds) of importing ``name`` in this
    interpreter, with :func:`python_kernel` sampled during the import and
    its time taken out."""
    with SpeedProbe(python_kernel) as probe:
        start = time.perf_counter()
        __import__(name)
        seconds = time.perf_counter() - start
    return seconds - probe.busy_s, sum(probe.samples) / len(probe.samples)
