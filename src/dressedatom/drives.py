"""Drive signals: the coupling pair (J(t), Gamma(t)) with analytic derivatives.

Three kinds are supported.  Every evaluator is vectorised: it accepts a float
or an ndarray of times and returns the matching shape.

Beyond the raw pair, each drive knows two things the rest of the package
needs:

* ``coupling_zero_times`` -- the times where J^2 + Gamma^2 touches zero,
  which are the only candidates for dressed-level crossings and the pinned
  panel boundaries of the phase quadrature;
* ``frame_coupling`` -- the real coupling seen in the frame co-rotating
  with the coupling phase arg(J + i*Gamma).  The direct integrator works in
  this frame (see ``oracle._rk4_run``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class CosineDrive:
    """J(t) = j0 cos(omega t), Gamma(t) = 0 (no rotating-wave choice)."""

    j0: float
    omega: float

    kind = "cosine"

    def __post_init__(self):
        if self.j0 < 0:
            raise ValidationError("j0 must be non-negative")
        if not (self.omega > 0):
            raise ValidationError("omega must be positive")

    def j(self, t):
        return self.j0 * np.cos(self.omega * np.asarray(t, dtype=float))

    def gamma(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def dj(self, t):
        return -self.j0 * self.omega * np.sin(self.omega * np.asarray(t, dtype=float))

    def dgamma(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

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

    def frame_coupling(self, t):
        return self.j(t)


@dataclass(frozen=True)
class RwaPairDrive:
    """J = j0 cos(omega t), Gamma = j0 sin(omega t): J + i*Gamma = j0 e^{i omega t}."""

    j0: float
    omega: float

    kind = "rwa"

    def __post_init__(self):
        if self.j0 < 0:
            raise ValidationError("j0 must be non-negative")
        if not (self.omega > 0):
            raise ValidationError("omega must be positive")

    def j(self, t):
        return self.j0 * np.cos(self.omega * np.asarray(t, dtype=float))

    def gamma(self, t):
        return self.j0 * np.sin(self.omega * np.asarray(t, dtype=float))

    def dj(self, t):
        return -self.j0 * self.omega * np.sin(self.omega * np.asarray(t, dtype=float))

    def dgamma(self, t):
        return self.j0 * self.omega * np.cos(self.omega * np.asarray(t, dtype=float))

    def coupling_scale(self) -> float:
        return self.j0

    def coupling_zero_times(self, t0: float, t1: float) -> np.ndarray:
        return np.array([])  # |J + i Gamma| = j0 for all t

    def frame_coupling(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.j0)


@dataclass(frozen=True)
class ConstantDrive:
    """J = j0, Gamma = gamma0, both constant."""

    j0: float
    gamma0: float = 0.0

    kind = "constant"

    def j(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.j0)

    def gamma(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.gamma0)

    def dj(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def dgamma(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def coupling_scale(self) -> float:
        return math.hypot(self.j0, self.gamma0)

    def coupling_zero_times(self, t0: float, t1: float) -> np.ndarray:
        return np.array([])

    def frame_coupling(self, t):
        return np.full_like(np.asarray(t, dtype=float), math.hypot(self.j0, self.gamma0))


Drive = CosineDrive | RwaPairDrive | ConstantDrive
