"""Drive signals: the coupling pair (J(t), Gamma(t)) with analytic derivatives.

Four kinds are supported.  Every evaluator is vectorised: it accepts a float
or an ndarray of times and returns the matching shape.

Beyond the raw pair, each drive knows two things the rest of the package
needs:

* ``coupling_zero_times`` -- the times where J^2 + Gamma^2 touches zero,
  which are the only candidates for dressed-level crossings and the pinned
  panel boundaries of the phase quadrature;
* ``frame_coupling`` / ``frame_rate`` -- the real coupling seen in the frame
  co-rotating with the coupling phase arg(J + i*Gamma), and that phase's
  rotation rate.  The direct integrator works in this frame (see
  ``oracle._rk4_run``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

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

    def frame_rate(self) -> float:
        return 0.0


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

    def frame_rate(self) -> float:
        return self.omega


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

    def frame_rate(self) -> float:
        return 0.0


def _five_point_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fourth-order derivative on a (possibly non-uniform) grid.

    Interior points use the centred 5-point Lagrange stencil; the two points
    at each end use the one-sided 5-point stencil.
    """
    n = len(x)
    if n < 5:
        raise ValidationError("tabulated drive needs at least 5 grid points")
    d = np.empty(n)
    for i in range(n):
        lo = min(max(i - 2, 0), n - 5)
        xs = x[lo:lo + 5]
        ys = y[lo:lo + 5]
        # derivative of the Lagrange interpolant at x[i]
        acc = 0.0
        for k in range(5):
            dk = 0.0
            for m in range(5):
                if m == k:
                    continue
                term = 1.0
                for r in range(5):
                    if r in (k, m):
                        continue
                    term *= (x[i] - xs[r]) / (xs[k] - xs[r])
                dk += term / (xs[k] - xs[m])
            acc += ys[k] * dk
        d[i] = acc
    return d


@dataclass(frozen=True)
class TabulatedDrive:
    """Sampled (J, Gamma) on a strictly increasing time grid.

    Stored derivative tables are either user-supplied or built with the
    fourth-order five-point stencil.  Evaluation between nodes is cubic-spline
    interpolation of each table independently, so the declared
    ``derivative_tol`` bounds the mismatch a consistency check may report.
    Evaluation outside the grid extrapolates the spline; keep runs inside
    the tabulated span.
    """

    times: np.ndarray
    j_table: np.ndarray
    gamma_table: np.ndarray
    dj_table: np.ndarray | None = None
    dgamma_table: np.ndarray | None = None
    derivative_tol: float = 1e-6

    kind = "tabulated"

    _splines: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 5:
            raise ValidationError("time grid must be 1-d with at least 5 points")
        if not np.all(np.diff(t) > 0):
            raise ValidationError("time grid must be strictly increasing")
        jt = np.asarray(self.j_table, dtype=float)
        gt = np.asarray(self.gamma_table, dtype=float)
        if jt.shape != t.shape or gt.shape != t.shape:
            raise ValidationError("value tables must match the time grid")
        djt = (np.asarray(self.dj_table, dtype=float) if self.dj_table is not None
               else _five_point_derivative(t, jt))
        dgt = (np.asarray(self.dgamma_table, dtype=float) if self.dgamma_table is not None
               else _five_point_derivative(t, gt))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "j_table", jt)
        object.__setattr__(self, "gamma_table", gt)
        object.__setattr__(self, "dj_table", djt)
        object.__setattr__(self, "dgamma_table", dgt)
        self._splines.update(
            j=CubicSpline(t, jt), gamma=CubicSpline(t, gt),
            dj=CubicSpline(t, djt), dgamma=CubicSpline(t, dgt),
        )

    def j(self, t):
        return self._splines["j"](t)

    def gamma(self, t):
        return self._splines["gamma"](t)

    def dj(self, t):
        return self._splines["dj"](t)

    def dgamma(self, t):
        return self._splines["dgamma"](t)

    def coupling_scale(self) -> float:
        return float(np.max(np.hypot(self.j_table, self.gamma_table)))

    def coupling_zero_times(self, t0: float, t1: float) -> np.ndarray:
        q = np.hypot(self.j_table, self.gamma_table)
        eps = 1e-12 * max(self.coupling_scale(), 1.0)
        mask = (self.times > t0) & (self.times <= t1) & (q <= eps)
        return self.times[mask]

    def frame_coupling(self, t):
        g = self.gamma(t)
        if np.max(np.abs(self.gamma_table)) == 0.0:
            return self.j(t)
        return np.hypot(self.j(t), g)

    def frame_rate(self) -> float:
        return 0.0

    def derivative_consistency(self) -> float:
        """Max gap between stored derivatives and a fresh finite difference."""
        fd_j = _five_point_derivative(self.times, self.j_table)
        fd_g = _five_point_derivative(self.times, self.gamma_table)
        return float(max(np.max(np.abs(fd_j - self.dj_table)),
                         np.max(np.abs(fd_g - self.dgamma_table))))


Drive = CosineDrive | RwaPairDrive | ConstantDrive | TabulatedDrive
