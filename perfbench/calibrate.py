"""Host-speed calibration of op times.

The benchmark host is a shared two-vCPU virtual machine.  Each vCPU's speed
drifts by up to a factor of 1.7 over seconds to minutes while the process
stays on the CPU (no steal time; CPU time tracks wall time), from load on
the physical cores behind it, and the two vCPUs drift independently.  Code
on the interpreter runs at the speed of whichever vCPU holds it.

A fixed interpreter-bound kernel is timed before the first op and after
every op.  The mean of the two kernel times around an op is the slowness s
of the main thread's vCPU during it.  The op's time t becomes
t * (NOMINAL_S / s) ** share, where share is the part of the op that runs
at that speed: 1 when the op runs on the interpreter, less when a large
part runs on BLAS threads spread over both vCPUs.  The result is the op's
time at the nominal vCPU speed.

NOMINAL_S is a fixed constant, so figures from different runs and commits
compare directly.  It lies between the kernel's times on a fast and a slow
vCPU of a 2-vCPU KVM guest (Intel Xeon, CPython 3.11): 0.011 and 0.019 s.
"""

import math
import time

NOMINAL_S = 0.015
REPEATS = 3


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def mul(self, other):
        return _Cell(self.a * other.a - self.b * other.b,
                     self.a * other.b + self.b * other.a)


def kernel(n=20000):
    """Fixed interpreter-bound work: small-object float arithmetic, dict
    updates and integer gcds."""
    acc, table, g = _Cell(0.5, 0.25), {}, 0
    step = _Cell(0.999, 0.001)
    for i in range(n):
        acc = acc.mul(step)
        table[i & 255] = table.get(i & 255, 0) + i
        g += math.gcd(i, 360)
    return acc.a + g + len(table)


class Calibrator:
    """Times the kernel between ops and rescales op times to nominal speed."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Time the kernel (best of REPEATS, robust to preemption)."""
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    def normalize(self, seconds, share=1.0):
        """Rescale a time measured between the last two samples, of which
        the given share runs at the measured vCPU's speed."""
        slowness = (self.samples[-2] + self.samples[-1]) / 2
        return seconds * (NOMINAL_S / slowness) ** share
