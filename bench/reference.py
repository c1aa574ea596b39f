"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host, neighbours slow every instruction by up to ~1.9x in
phases of seconds to tens of seconds; the guest sees no steal time, and CPU
time slows with wall time.  The benchmark runs this kernel between passes
and divides each pass by the kernel's time around it, so a slow phase that
falls on both cancels.

The kernel has the program's instruction mix: scalar complex RK4 steps over
a numpy coupling array (as ``oracle._rk4_run``), scipy ``quad`` over a
Python integrand (as ``closedform``), and float-to-text formatting (as
``series.to_csv``).  It belongs to the benchmark, not to the package, so a
change to the package never changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad

CALLS = 16          # kernel calls per bracket, ~0.4 s on the host below
# Median wall time of one bracket (CALLS calls) on the 2-vCPU Xeon VM the
# benchmark was defined on.  It only sets the unit of the normalised
# metrics: normalised = measured / bracket time * NOMINAL_S.
NOMINAL_S = 0.40


def _kernel() -> float:
    n = 4000
    q = 0.7 * np.cos(np.arange(2 * n + 1) * 5e-4)
    dt, d1, d2 = 1e-3, 0.3, -0.3

    def deriv(qv, a, b):
        return -1j * (d1 * a + qv * b), -1j * (qv * a + d2 * b)

    a, b = 1 + 0j, 0j
    for k in range(n):
        q0, qh, q1 = q[2 * k], q[2 * k + 1], q[2 * k + 2]
        k1a, k1b = deriv(q0, a, b)
        k2a, k2b = deriv(qh, a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
        k3a, k3b = deriv(qh, a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
        k4a, k4b = deriv(q1, a + dt * k3a, b + dt * k3b)
        a = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        b = b + dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)

    def radicand(t):
        return math.sqrt(0.01 + (0.1 * math.cos(t)) ** 2)

    z = 0.0
    for i in range(200):
        z += quad(radicand, 0.0, 0.01 * (i + 1), epsabs=1e-10, epsrel=1e-12,
                  limit=200)[0]
    text = "\n".join(f"{k * dt:.17g},{x:.17g}" for k, x in enumerate(q[:1000]))
    return abs(a) ** 2 + abs(b) ** 2 + z + len(text)


def bracket() -> tuple[float, float]:
    """(wall_s, cpu_s) of CALLS kernel calls."""
    c0, w0 = time.process_time(), time.perf_counter()
    for _ in range(CALLS):
        _kernel()
    return time.perf_counter() - w0, time.process_time() - c0
