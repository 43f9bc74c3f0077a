"""Machine-speed reference for the timed metrics.

A shared machine runs the same fadecap call 25-40% slower for seconds or
minutes at a time, while other tenants load it; a 25-second window's
fastest repeat moves by as much. So the benchmark times a fixed piece of
reference work right before and after each operation and reports every
timing at the reference speed: measured time x REFERENCE_S / measured
reference time. The reference work uses what fadecap uses (QUADPACK
``quad`` on Python integrands, ``brentq``, ``exp1``, ``math``) and no
fadecap code, so a change to fadecap cannot move it, while a slow phase of
the machine slows both alike.

REFERENCE_S is a constant, about the reference time on the 2-core x86_64
machine of the baseline (2.8 ms at best, 4.6 ms median); it fixes the
scale of the reported figures and is the same for every commit measured.
"""

from __future__ import annotations

import math
import statistics
import time

from scipy import integrate, optimize, special

REFERENCE_S = 0.004
# what reference_work returns; a mismatch means it did not run as written
REFERENCE_VALUE = 125.93916231571
ROUNDS = 40


def reference_work() -> float:
    total = 0.0
    for k in range(ROUNDS):
        a = 10.0 ** (4.0 * k / ROUNDS - 1.0)
        total += integrate.quad(lambda z: math.log1p(a * z) * math.exp(-z) / (1.0 + z),
                                0.0, math.inf)[0]
        total += optimize.brentq(lambda t: special.exp1(t) - 1.0 / (1.0 + a), 1e-6, 50.0)
    return total


def reference_time() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    value = reference_work()
    elapsed = time.perf_counter() - t0
    if abs(value - REFERENCE_VALUE) > 1e-6:
        raise RuntimeError(f"reference work returned {value!r}, not {REFERENCE_VALUE}")
    return elapsed


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference speed the machine ran, from
    reference times measured around a timed region."""
    return statistics.median(samples) / REFERENCE_S
