"""A fixed reference loop that measures how fast the host runs right now.

The shared host this benchmark runs on switches between a fast and a
slow state every few seconds to tens of seconds, and the slow state takes
about 1.7 times as long for the same work.  A raw wall time of ``hkc
verify`` therefore moves with the host, not with the code.  The
benchmark times :func:`calibrate` next to each measured sample and
reports the sample's time divided by the loop's time, scaled by
``REFERENCE_S``: seconds at the speed the host had when the loop took
``REFERENCE_S`` seconds.

The loop does what ``hkc`` spends its time on: small dense numpy
matrix-vector products and Python-level arithmetic on small objects (a
first-order dual number).  It imports nothing from ``hkc``, so a change
to the program cannot change it.
"""

import time

import numpy as np

ITERATIONS = 15000

# Median time of calibrate() in the host's fast state (2-vCPU Intel Xeon,
# Python 3, numpy with scipy-openblas, one BLAS thread).  It only scales
# the reported seconds; any fixed value would give the same ratios.
REFERENCE_S = 0.05


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)


def calibrate():
    """Seconds for the reference loop."""
    t0 = time.perf_counter()
    v = np.arange(8.0)
    m = np.eye(8)
    acc = _Dual(0.0, 0.0)
    for i in range(ITERATIONS):
        w = m @ v
        acc = acc + _Dual(float(w[i % 8]), 1.0) * _Dual(1.0, 0.5)
        v = v * 0.999 + 0.001
    return time.perf_counter() - t0
