"""Host-speed correction for pass times on a shared machine.

On a shared host the speed of the same pure-Python code drifts by tens of
percent over tens of seconds, with CPU time equal to wall time.  While a pass
runs, a timer signal runs a fixed kernel, owned by the benchmark, every
``INTERVAL`` seconds and records how long it took.  A pass's reference time
is its wall time minus the time spent in the kernel, scaled by
``KERNEL_REF_S / median kernel time``.  That is the time the pass would have
taken on a host where the kernel takes ``KERNEL_REF_S``.  The kernel does not
touch the program, so a change to the program cannot move the scale.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.025
KERNEL_REF_S = 4.0e-4  # about the kernel's median time on a 2.0 GHz Xeon vCPU


def _kernel():
    # A plain interpreter loop.  Kernels of Fraction arithmetic, big-int gcd
    # or random memory reads tracked the program's slowdowns no better.
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s


class HostSpeed:
    """Context manager that samples the kernel time while the body runs."""

    def __init__(self):
        self.samples = []

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work_s(self, wall_s):
        """Wall seconds of the body minus the time spent in the kernel."""
        return wall_s - sum(self.samples)

    def reference_s(self, wall_s):
        """Work seconds rescaled to a host where the kernel takes KERNEL_REF_S."""
        if not self.samples:  # body shorter than one interval
            return self.work_s(wall_s)
        return self.work_s(wall_s) * KERNEL_REF_S / statistics.median(self.samples)
