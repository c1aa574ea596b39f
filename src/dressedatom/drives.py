"""Drive signals, as the coupling envelope of the connection frame.

The model's bare coupling is the pair (J(t), Gamma(t)).  In the connection
frame, which co-rotates with arg(J + i*Gamma), the coupling is the real,
signed envelope f(t), with

    |f| = |J + i*Gamma|,    f f' = J J' + Gamma Gamma'.

That envelope is the only way a drive reaches the physics.  Every drive
supplies five things, each evaluator vectorised (a float or an ndarray of
times in, the matching shape out):

* ``frame_coupling`` -- f(t), the one definition of the envelope;
* ``frame_coupling_rate`` -- f'(t);
* ``frame_coupling_grid`` -- f on a uniform grid t0 + i*h, i < n, as a
  function of t0, built once for a given h and n: the RK4 oracle takes
  the couplings of every chunk from it without a trig call per point;
* ``coupling_scale`` -- the largest |f|;
* ``coupling_zero_count`` -- the number of isolated zeros of f in (0, t],
  in closed form: f touches zero only there, the only candidates for
  dressed-level crossings, where the smooth branch flips the sign of the
  Rabi root.

Two kinds cover the three configured drives.  The cosine drive has no
rotating-wave choice: J = j0 cos(Omega t), Gamma = 0, so f = J.  The
constant drive J = j0, Gamma = gamma0 has the constant envelope
hypot(j0, gamma0).  So has the rotating-wave drive J + i*Gamma =
j0 e^{i Omega t}: in its connection frame it is the constant envelope j0,
``ConstantDrive(j0)``, with Omega carried by the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class CosineDrive:
    """J(t) = j0 cos(omega t), Gamma(t) = 0: f = J (no rotating-wave choice)."""

    j0: float
    omega: float

    def __post_init__(self):
        if self.j0 < 0:
            raise ValidationError("j0 must be non-negative")
        if not (self.omega > 0):
            raise ValidationError("omega must be positive")

    def frame_coupling(self, t):
        return self.j0 * np.cos(self.omega * np.asarray(t, dtype=float))

    def frame_coupling_rate(self, t):
        return -self.j0 * self.omega * np.sin(self.omega * np.asarray(t, dtype=float))

    def frame_coupling_grid(self, h: float, n: int):
        """t0 -> f(t0 + i h) for i < n, as j0 Re(e^{i omega t0} T[i]).

        The phasor table T[i] = e^{i omega h i} is built by doubling,
        T[k:2k] = T[:k] e^{i omega h k}, each e^{i omega h k} computed
        fresh: log2(n) trig pairs and n complex multiplies, where a table
        of n exponentials would cost more than the cosines it saves on a
        short run.  An entry is a product of at most log2(n) phasors, so it
        is off by a few ulps; a call costs one phasor and three array
        passes.  The oracle calls it with h = dt/2 at the chunk starts
        t0 = k0 dt, k0 a multiple of its chunk at every output stride, so a
        step takes the same entry and phasor, and the same few-ulp error,
        at any stride.
        """
        table = np.empty(n, dtype=complex)
        table[0] = 1.0
        k = 1
        while k < n:
            x = self.omega * h * k
            table[k:2 * k] = table[:min(k, n - k)] * complex(math.cos(x), math.sin(x))
            k *= 2
        re, im = self.j0 * table.real, self.j0 * table.imag

        def at(t0: float) -> np.ndarray:
            x = self.omega * t0
            f = re * math.cos(x)
            f -= im * math.sin(x)
            return f

        return at

    def coupling_scale(self) -> float:
        return self.j0

    def coupling_zero_count(self, t):
        """Zeros (k + 1/2) pi / omega of cos(omega t) in (0, t], t >= 0: the
        rounding of omega t / pi that ``closedform.phase_series`` takes for
        its section index."""
        t = np.asarray(t, dtype=float)
        if self.j0 == 0.0:
            return np.zeros_like(t)  # identically zero, not isolated zeros
        return np.rint(self.omega * t / math.pi)


@dataclass(frozen=True)
class ConstantDrive:
    """J = j0, Gamma = gamma0, both constant: f = hypot(j0, gamma0).

    Also the rotating-wave drive J + i*Gamma = j0 e^{i omega t}, which is
    ``ConstantDrive(j0)`` in its connection frame.
    """

    j0: float
    gamma0: float = 0.0

    def __post_init__(self):
        if self.j0 < 0:
            raise ValidationError("j0 must be non-negative")

    def frame_coupling(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.coupling_scale())

    def frame_coupling_rate(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def frame_coupling_grid(self, h: float, n: int):
        """t0 -> the constant envelope on n points, one read-only array."""
        f = np.full(n, self.coupling_scale())
        f.flags.writeable = False
        return lambda t0: f

    def coupling_scale(self) -> float:
        return math.hypot(self.j0, self.gamma0)

    def coupling_zero_count(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


Drive = CosineDrive | ConstantDrive
