"""Closed-form dressed solution: the complex phase integral and what it implies.

The central object is

    Z(t) = int_0^t omega_r(t') dt'  +  i * int_0^t dtheta/dt dt'

with omega_r branch-resolved.  The dressed pair is psi_pm = exp(∓i Z) (the
plane-wave spatial factor is the scalar 1 here), from which

    psi0 = (psi_+ - psi_-)/(2i) = -sin(Z),    psi1 = cos(Z).

Both parts are exact, point by point.  The real part is sqrt(wt^2 + f^2) t
for a constant envelope.  For the cosine drive |omega_r| =
A sqrt(1 - m sin^2(W t)) with A = sqrt(wt^2 + j0^2) and m = (j0/A)^2, so
with phi = W t = n pi + r, |r| <= pi/2, it is

    (A/W) (E(r, m) + 2n E(m))      positive root, or no crossing,
    (A/W) (-1)^n E(r, m)           smooth branch at a crossing,

the second because the smooth sign flips at every coupling zero phi =
(k + 1/2) pi.  E comes from Carlson's symmetric integrals.  The imaginary
part uses the exact shortcut theta(t) - theta(0), valid whenever the angle
path is continuous on [0, t] (the positive-root angle is; the tests check
it against a quadrature of the connection).

Note the elliptic prefactor A/W: the dimensionally inconsistent variant
J0*W/A that sometimes gets quoted is evaluated by the acceptance suite for
the record, never used.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .config import BranchMode, Model
from .drives import CosineDrive
from .errors import DomainError
from .frames import theta_of_t

DEG_EPS = 1e-12     # degeneracy threshold of the literal integrand, relative

# 7 duplications reach round-off in _ellipe for every 0 <= m < 1 and
# |r| <= pi/2: 5e-16 relative error against 40-digit mpmath, where 6 leave
# 2e-14; each further one shrinks the series' truncation error 256-fold.
# The count stays 10, because any other count moves the closed-form bytes.
_DUPLICATIONS = 10


def _carlson_rf_rd(x, y, z):
    """R_F(x, y, z) and R_D(x, y, z) by one duplication loop of fixed length
    and the leading terms of their series (Carlson, Numer. Algorithms 10
    (1995) 13; DLMF 19.36.1-2).  R_D's z must be positive."""
    tail = np.zeros_like(x)
    scale = 1.0
    for _ in range(_DUPLICATIONS):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        tail += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    a = (x + y + z) / 3.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy)
    rf = (1.0 - (dx * dy - dz * dz) / 10.0 + dx * dy * dz / 14.0) / np.sqrt(a)
    a = (x + y + 3.0 * z) / 5.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy) / 3.0
    series = 1.0 - 3.0 * (dx * dy - 6.0 * dz * dz) / 14.0 \
        + (3.0 * dx * dy - 8.0 * dz * dz) * dz / 6.0
    return rf, 3.0 * tail + scale * series / (a * np.sqrt(a))


def _ellipe(r, m: float):
    """E(r, m) = int_0^r sqrt(1 - m sin^2) for |r| <= pi/2, and E(m).

    Uses the form of DLMF 19.25(i) whose terms are all positive,

        E = s ((1 - m) (R_F + (m/3) s^2 R_D) + m c / sqrt(d)),
        R = R(c^2, 1, d),   s = sin r,  c = cos r,  d = 1 - m + m c^2,

    which keeps full relative precision as m -> 1, where R_F and R_D
    diverge; E(r, 1) = sin r.
    """
    if m == 1.0:
        return np.sin(r), 1.0
    s = np.append(np.sin(r), 1.0)  # the last entry is r = pi/2: E(m)
    c = np.append(np.cos(r), 0.0)
    d = (1.0 - m) + m * c * c
    rf, rd = _carlson_rf_rd(c * c, np.ones_like(c), d)
    e = s * ((1.0 - m) * (rf + (m / 3.0) * s * s * rd) + m * c / np.sqrt(d))
    return e[:-1].reshape(np.shape(r)), e[-1]


def phase_series(model: Model, ts: np.ndarray) -> np.ndarray:
    """Z at every time of ``ts`` (each t >= 0), in closed form."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise DomainError("phase integral defined for t >= 0")
    drive, wt = model.drive, model.omega_tilde
    amp = math.hypot(wt, drive.coupling_scale())
    if not isinstance(drive, CosineDrive) or drive.j0 == 0.0:
        re = amp * ts  # a constant envelope: zero coupling is the bare frame
    else:
        m = (drive.j0 / amp) ** 2
        n = drive.coupling_zero_count(ts)
        e, e_complete = _ellipe(drive.omega * ts - n * math.pi, m)
        if model.crossing and model.branch is BranchMode.SMOOTH_CONTINUATION:
            e = np.where(n % 2 == 0, e, -e)
        else:
            e = e + 2.0 * n * e_complete
        re = (amp / drive.omega) * e
    im = theta_of_t(model, ts) - theta_of_t(model, 0.0)
    return re + 1j * np.asarray(im)


class DressedSeries:
    """The closed-form dressed state on a grid: ``t``, ``phase`` (Z),
    ``psi0`` = -sin Z and ``p0_raw`` = |psi0|^2 are computed at once;
    ``psi1`` = cos Z, ``p1_raw`` = |psi1|^2 and ``p0_norm`` = p0_raw /
    (p0_raw + p1_raw) the first time they are read, and then kept."""

    def __init__(self, t: np.ndarray, phase: np.ndarray):
        self.t, self.phase = t, phase
        self.psi0 = -np.sin(phase)
        self.p0_raw = np.abs(self.psi0) ** 2

    @cached_property
    def psi1(self) -> np.ndarray:
        return np.cos(self.phase)

    @cached_property
    def p1_raw(self) -> np.ndarray:
        return np.abs(self.psi1) ** 2

    @cached_property
    def p0_norm(self) -> np.ndarray:
        return self.p0_raw / (self.p0_raw + self.p1_raw)


def dressed_series(model: Model, ts: np.ndarray) -> DressedSeries:
    """The closed-form dressed state on a grid (psi0(0) = 0 exactly)."""
    return DressedSeries(np.asarray(ts, dtype=float), phase_series(model, ts))


def psi0_gamma_zero_integrand(model: Model, t):
    """The printed integrand of the zero-connection solution, taken literally.

    Cross-check surface: the real part must be |omega_r| and the imaginary
    part must match the connection (up to the sign it carries where the
    cosine is negative); any pointwise gap is what the identities report
    records.  A scalar ``t`` gives a complex, an array of times a complex
    array.  The form is undefined where the radicand vanishes: it is NaN
    (real and imaginary part) where |omega_r| <= 1e-9 or |omega_r| is
    below ``DEG_EPS`` times the problem scale max(j0, |omega_tilde|, 1).
    The printed form uses the positive root, so it takes no branch mode.
    """
    drive = model.drive
    if not isinstance(drive, CosineDrive):
        raise DomainError("literal integrand is defined for the cosine drive only")
    t = np.asarray(t, dtype=float)
    wt = model.omega_tilde
    j = drive.frame_coupling(t)
    wr = np.hypot(wt, j)
    bad = (wr <= 1e-9) | (wr < DEG_EPS * max(drive.j0, abs(wt), 1.0))
    # j^2 / (wt + |omega_r|) equals |omega_r| - wt; for wt < 0 the printed
    # quotient cancels near every coupling zero and is 0/0 on one
    with np.errstate(divide="ignore", invalid="ignore"):  # the rows set to NaN
        denom = wt + (wr - wt if wt < 0 else j * j / (wt + wr))
        imag = wt * drive.frame_coupling_rate(t) / (2.0 * wr * denom)
    # real and imaginary parts set apart: wr + 1j*imag would turn -0 into 0
    out = np.empty(t.shape, dtype=complex)
    out.real, out.imag = wr, imag
    out[bad] = complex(math.nan, math.nan)
    return out[()]
