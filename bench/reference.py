"""Reference probe: fixed pieces of work timed beside the program.

The cores of this machine are shared with other tenants.  Its speed moves
between two levels in phases of seconds to a minute, and the same decision
takes up to twice as long in the slow phase (see README.md).  A run of
half a minute can fall wholly in either phase, so no statistic over one
run's own timings reads the same speed in every run.

The probe measures the machine's speed beside the program instead.  It is
made of kernels, each a fixed piece of the kind of work a workload's hot
layer does, and each workload names the kernels of its probe.  The probe
runs every ``PROBE_EVERY_S`` seconds between decisions.  Each timing is
then divided by the probe's speed factor, the median over the probes
within ``SMOOTH_S`` seconds of it of the probe's time over its nominal
time: the result is what the operation would take at the speed at which
every kernel takes its nominal time.  The kernels are part of the
benchmark, so a change to the program cannot move them.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# seconds between probes; the machine's phases last much longer than this
PROBE_EVERY_S = 0.25
# a timing is scaled by the probes up to this many seconds before its start
# and after its end; the median of several smooths the probe's own jitter
SMOOTH_S = 1.0

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((12, 12))
_SMALL = _SMALL @ _SMALL.T
_LARGE = _RNG.standard_normal((160, 100)) + 1j * _RNG.standard_normal((160, 100))


def _numpy_calls():
    """Many small numpy calls, as in the float closure on small spans and
    in the trace-word walk."""
    for _ in range(80):
        np.linalg.qr(_SMALL)


def _lapack():
    """A few LAPACK factorizations of a matrix the size of a full span."""
    for _ in range(2):
        np.linalg.qr(_LARGE)


def _fractions():
    """``Fraction`` arithmetic, as in the exact closure."""
    for _ in range(12):
        total = Fraction(0)
        for k in range(1, 40):
            total += Fraction(1, k)
        for k in range(1, 40):
            total -= Fraction(1, k)
        assert total == 0


def _python_process():
    """A fresh interpreter that imports numpy, as a run's set-up does."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


# name: (kernel, its time in seconds in the fast phase of the machine the
# benchmark was built on, a 2-core Intel Xeon at 2.0 GHz)
KERNELS = {
    "numpy": (_numpy_calls, 0.0025),
    "lapack": (_lapack, 0.0032),
    "fractions": (_fractions, 0.0025),
    "process": (_python_process, 0.115),
}


class SpeedProbe:
    """Probe times, kept in order, and the scaling of timings by them."""

    def __init__(self, kernels):
        self._kernels = [KERNELS[name][0] for name in kernels]
        self._nominal_s = sum(KERNELS[name][1] for name in kernels)
        self.mids = []  # perf_counter at the middle of each probe
        self.factors = []  # each probe's time over its nominal time
        self._work()  # untimed: loads LAPACK and warms the caches

    def _work(self):
        for kernel in self._kernels:
            kernel()

    def sample(self):
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self.mids.append(0.5 * (start + end))
        self.factors.append((end - start) / self._nominal_s)

    def sample_if_due(self):
        if not self.mids or time.perf_counter() - self.mids[-1] >= PROBE_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the nominal speed.

        The speed factor is the median of the probes within ``SMOOTH_S`` of
        the interval, or of the last probe before it and the first after it
        when there are none.
        """
        lo = bisect.bisect_left(self.mids, start - SMOOTH_S)
        hi = bisect.bisect_right(self.mids, end + SMOOTH_S)
        if lo >= hi:
            lo = max(0, lo - 1)
            hi = min(len(self.mids), hi + 1)
        return (end - start) / statistics.median(self.factors[lo:hi])
