"""A fixed piece of work that gauges how fast the machine runs at the moment.

On a shared machine the same instructions take 10-60% longer in one minute
than in another, and that drift is larger than the effects the benchmark is
meant to resolve.  The harness runs ``reference_seconds`` after every instance
(and in every set-up probe) and divides the program's times by the speed
factor ``mean(reference times) / NOMINAL_S``.  The reference mixes the kinds
of work the program does: an interpreted loop, small numpy operations and one
SLSQP solve, none of them from zerogap, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

# Median time of one reference_seconds() on a 2-core x86 virtual machine
# (Python 3.11, numpy 2.4, scipy 1.17).  It only sets the scale: times are
# reported as they would read on that machine at that speed.
NOMINAL_S = 0.0130

_A = np.random.default_rng(0).standard_normal((8, 8)) / 3.0


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def reference_seconds():
    """Wall time of one pass over the fixed reference work."""
    t0 = time.perf_counter()
    s = 0
    for k in range(5000):
        s += k * k % 7
    x = np.ones(8)
    for _ in range(100):
        x = np.tanh(_A @ x) + np.sin(x)
    minimize(_rosenbrock, np.zeros(4), method="SLSQP")
    return time.perf_counter() - t0


def speed_factor(times):
    """How much slower than nominal the machine ran while ``times`` were taken."""
    return float(np.mean(times)) / NOMINAL_S
