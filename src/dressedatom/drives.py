"""Drive signals, as the coupling envelope of the connection frame.

The model's bare coupling is the pair (J(t), Gamma(t)).  In the connection
frame, which co-rotates with arg(J + i*Gamma), the coupling is the real,
signed envelope f(t), with

    |f| = |J + i*Gamma|,    f f' = J J' + Gamma Gamma'.

That envelope is the only way a drive reaches the physics.  Every drive
supplies four things, each evaluator vectorised (a float or an ndarray of
times in, the matching shape out):

* ``frame_coupling`` -- f(t);
* ``frame_coupling_rate`` -- f'(t);
* ``coupling_scale`` -- the largest |f|;
* ``coupling_zero_times`` -- the times where f touches zero, the only
  candidates for dressed-level crossings, where the smooth branch flips
  the sign of the Rabi root.

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

    def coupling_scale(self) -> float:
        return self.j0

    def coupling_zero_times(self, t0: float, t1: float) -> np.ndarray:
        """Zeros of cos(omega t) in (t0, t1]."""
        if self.j0 == 0.0:
            return np.array([])  # identically zero, not isolated zeros
        k0 = math.ceil((self.omega * t0 / math.pi) - 0.5 + 1e-12)
        k1 = math.floor((self.omega * t1 / math.pi) - 0.5)
        if k1 < k0:
            return np.array([])
        ks = np.arange(k0, k1 + 1)
        return (ks + 0.5) * math.pi / self.omega


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

    def coupling_scale(self) -> float:
        return math.hypot(self.j0, self.gamma0)

    def coupling_zero_times(self, t0: float, t1: float) -> np.ndarray:
        return np.array([])


Drive = CosineDrive | ConstantDrive
