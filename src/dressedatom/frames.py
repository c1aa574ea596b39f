"""Instantaneous dressed-frame quantities of the driven two-level atom.

Everything here is a pure function of (config, drive, time): detuning, the
signed Rabi root, the mixing angle of the diagonalising rotation, the
connection d(theta)/dt generated by that rotation's time dependence, the
identity residuals the construction must satisfy, and the transition
current.

Conventions (natural units, hbar = 1):

    omega_tilde = ((e2 - e1) - omega_drive) / 2
    omega_r     = s(t) * sqrt(omega_tilde^2 + j^2 + g^2),   s = branch sign
    cos(theta)  = (omega_tilde + |omega_r|) / N
    sin(theta)  = sqrt(j^2 + g^2) / N
    N^2         = (omega_tilde + |omega_r|)^2 + j^2 + g^2

The angle always uses the positive root: through a dressed-level crossing
that is the eigenvector-continuous choice (at exact resonance it keeps
theta = pi/4 on both sides), while the branch sign lives in omega_r.

The connection is evaluated in the reduced, numerically stable form

    dtheta/dt = omega_tilde * (j j' + g g') / (sqrt(j^2+g^2) * 2 omega_r^2)

which is algebraically equivalent to the bracketed two-factor form (see
``_dtheta_bracket_form``) up to overall sign; the reduced form is the one
that agrees with the finite-difference derivative of theta(t) and with both
quotient forms d(cos theta)/dt / (-sin theta) = d(sin theta)/dt / cos theta.
"""

from __future__ import annotations

import math

import numpy as np

from .config import AtomConfig, BranchMode, Tolerances
from .drives import Drive
from .errors import DegenerateFrameError

_DEFAULT_TOL = Tolerances()


def detuning(cfg: AtomConfig) -> float:
    """omega_tilde = ((e2 - e1)/hbar - omega_drive) / 2, sign preserved."""
    c = cfg.to_natural()
    return 0.5 * ((c.e2 - c.e1) - c.omega_drive)


def coupling(drive: Drive, t):
    """(j, g, dj, dg) at time(s) t, natural units."""
    return drive.j(t), drive.gamma(t), drive.dj(t), drive.dgamma(t)


def radicand_zeros(cfg: AtomConfig, drive: Drive, t_end: float,
                   tol: Tolerances = _DEFAULT_TOL) -> np.ndarray:
    """The coupling zeros in (0, t_end] where the radicand
    omega_tilde^2 + j^2 + g^2 can touch zero.

    Empty unless the detuning is itself below the detection threshold
    rad_eps relative to the problem scale: away from resonance the radicand
    stays above omega_tilde^2 > 0.
    """
    wt = detuning(cfg)
    scale = max(drive.coupling_scale(), abs(wt), 1e-300)
    if wt * wt > tol.rad_eps * scale * scale:
        return np.array([])
    return np.asarray(drive.coupling_zero_times(0.0, t_end))


def branch_sign(cfg: AtomConfig, drive: Drive, t, branch: BranchMode,
                tol: Tolerances = _DEFAULT_TOL):
    """Sign s(t) of the Rabi root; flips at radicand zeros when smooth.

    The flips sit at the ``radicand_zeros``, so away from exact resonance
    both modes coincide and the sign is the scalar 1.
    """
    t = np.asarray(t, dtype=float)
    if branch is BranchMode.POSITIVE_ROOT or t.size == 0:
        return 1
    zeros = radicand_zeros(cfg, drive, float(np.max(t)), tol)
    if len(zeros) == 0:
        return 1
    counts = np.searchsorted(zeros, t, side="right")
    return np.where(counts % 2 == 0, 1, -1) if t.shape else (1 if counts % 2 == 0 else -1)


def rabi_frequency(cfg: AtomConfig, drive: Drive, t, branch: BranchMode,
                   tol: Tolerances = _DEFAULT_TOL):
    """omega_r(t) = s(t) sqrt(omega_tilde^2 + j^2 + g^2)."""
    wt = detuning(cfg)
    j, g = drive.j(t), drive.gamma(t)
    root = np.sqrt(wt * wt + j * j + g * g)
    return branch_sign(cfg, drive, t, branch, tol) * root


def _angle_parts(cfg: AtomConfig, drive: Drive, t):
    """(u, q, N^2) with u = omega_tilde + |omega_r| and q = sqrt(j^2+g^2)."""
    wt = detuning(cfg)
    j, g = drive.j(t), drive.gamma(t)
    q = np.hypot(j, g)
    u = wt + np.sqrt(wt * wt + q * q)
    return u, q, u * u + q * q


def degeneracy_floor(cfg: AtomConfig, drive: Drive,
                     tol: Tolerances = _DEFAULT_TOL) -> float:
    """deg_eps times the problem scale max(coupling scale, |omega_tilde|, 1).

    The one threshold below which the frame is degenerate: the mixing angle
    is undefined where N falls below it, and the literal integrand where
    |omega_r| does.
    """
    return tol.deg_eps * max(drive.coupling_scale(), abs(detuning(cfg)), 1.0)


def mixing_angle(cfg: AtomConfig, drive: Drive, t: float,
                 branch: BranchMode = BranchMode.SMOOTH_CONTINUATION,
                 tol: Tolerances = _DEFAULT_TOL) -> tuple[float, float]:
    """(cos theta, sin theta) of the diagonalising rotation at one time.

    Raises DegenerateFrameError when the normalisation N is below the
    ``degeneracy_floor`` (the zero matrix is diagonalised by any angle);
    callers that need a series use ``mixing_angle_series`` which holds the
    last well-defined angle across such points.
    """
    u, q, n2 = _angle_parts(cfg, drive, t)
    if n2 < degeneracy_floor(cfg, drive, tol) ** 2:
        raise DegenerateFrameError(f"mixing angle undefined at t={t}")
    n = math.sqrt(n2)
    return float(u / n), float(q / n)


def mixing_angle_series(cfg: AtomConfig, drive: Drive, ts: np.ndarray,
                        tol: Tolerances = _DEFAULT_TOL):
    """(cos theta, sin theta) arrays with carry-forward across degeneracies.

    A degenerate first sample takes theta = 0.
    """
    u, q, n2 = _angle_parts(cfg, drive, ts)
    good = n2 >= degeneracy_floor(cfg, drive, tol) ** 2
    n = np.sqrt(np.where(good, n2, 1.0))
    cth = np.where(good, u / n, np.nan)
    sth = np.where(good, q / n, np.nan)
    if not good.all():
        idx = np.where(good, np.arange(len(ts)), -1)
        np.maximum.accumulate(idx, out=idx)
        cth = np.where(idx >= 0, cth[np.maximum(idx, 0)], 1.0)
        sth = np.where(idx >= 0, sth[np.maximum(idx, 0)], 0.0)
    return cth, sth


def theta_of_t(cfg: AtomConfig, drive: Drive, t,
               tol: Tolerances = _DEFAULT_TOL):
    """theta(t) = atan2(sin theta, cos theta) in [0, pi], positive root."""
    u, q, n2 = _angle_parts(cfg, drive, t)
    return np.arctan2(q, u)


def connection_dtheta(cfg: AtomConfig, drive: Drive, t,
                      branch: BranchMode = BranchMode.SMOOTH_CONTINUATION,
                      tol: Tolerances = _DEFAULT_TOL):
    """The connection d(theta)/dt generated by the rotating frame.

    Vanishes identically when j^2 + g^2 is constant (constant and
    rotating-pair drives) and when the detuning is zero.  At isolated
    coupling zeros the prefactor (j j' + g g')/q is resolved by its
    one-sided limit sqrt(j'^2 + g'^2).
    """
    wt = detuning(cfg)
    j, g, dj, dg = coupling(drive, t)
    q2 = j * j + g * g
    q = np.sqrt(q2)
    p = j * dj + g * dg
    wr2 = wt * wt + q2
    lim = np.hypot(dj, dg)
    ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), lim)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = wt * ratio / (2.0 * wr2)
    return np.where(wr2 > 0, out, 0.0)


def _dtheta_bracket_form(cfg: AtomConfig, drive: Drive, t):
    """Two-factor form of the connection (sign already corrected).

    dtheta/dt = -[(j j' + g g')/(omega_r q)] *
                 [1 - (wt + omega_r)(wt + 2 omega_r) / ((wt + omega_r)^2 + q^2)]

    Singular at coupling zeros; kept for cross-checks only.
    """
    wt = detuning(cfg)
    j, g, dj, dg = coupling(drive, t)
    q = np.hypot(j, g)
    wr = np.sqrt(wt * wt + q * q)
    u = wt + wr
    p = j * dj + g * dg
    bracket = 1.0 - u * (wt + 2.0 * wr) / (u * u + q * q)
    return -(p / (wr * q)) * bracket


def frame_series(cfg: AtomConfig, drive: Drive, ts: np.ndarray,
                 branch: BranchMode = BranchMode.SMOOTH_CONTINUATION,
                 tol: Tolerances = _DEFAULT_TOL) -> dict:
    """Vectorised frame snapshot over a time grid (carry-forward angles)."""
    cth, sth = mixing_angle_series(cfg, drive, ts, tol)
    return {
        "t": np.asarray(ts, dtype=float),
        "omega_r": rabi_frequency(cfg, drive, ts, branch, tol),
        "cos_theta": cth,
        "sin_theta": sth,
        "dtheta_dt": connection_dtheta(cfg, drive, ts, branch, tol),
    }


def _fd4(fn, t, h):
    """4th-order central difference, paired so constants cancel exactly."""
    inner = fn(t + h) - fn(t - h)
    outer = fn(t + 2.0 * h) - fn(t - 2.0 * h)
    return (8.0 * inner - outer) / (12.0 * h)


def identity_residuals(cfg: AtomConfig, drive: Drive, t,
                       branch: BranchMode = BranchMode.SMOOTH_CONTINUATION,
                       tol: Tolerances = _DEFAULT_TOL):
    """Residuals of the three construction identities, each analytically zero.

    r1 = omega_r * d(omega_r)/dt - (j j' + g g')
    r2 = q (d/dt + L) q + u (d/dt + L) u,   L = -(1/2) d(N^2)/dt / N^2
    r3 = d(cos th)/dt / (-sin th) - d(sin th)/dt / cos th
         (NaN where |sin th cos th| <= 1e-3: both quotients blow up there)

    Outer time derivatives are 4th-order finite differences -- the
    independent route -- while the drive derivatives are analytic.
    """
    t = np.asarray(t, dtype=float)
    h = tol.fd_step
    wt = detuning(cfg)
    j, g, dj, dg = coupling(drive, t)
    p = j * dj + g * dg

    def wr_of(s):
        jj, gg = drive.j(s), drive.gamma(s)
        return np.sqrt(wt * wt + jj * jj + gg * gg)

    def q_of(s):
        return np.hypot(drive.j(s), drive.gamma(s))

    def u_of(s):
        return wt + wr_of(s)

    def n2_of(s):
        qq = q_of(s)
        uu = u_of(s)
        return uu * uu + qq * qq

    wr = wr_of(t)
    r1 = wr * _fd4(wr_of, t, h) - p

    q = q_of(t)
    u = u_of(t)
    n2 = n2_of(t)
    # rows where N^2 = 0 (no coupling and wt <= 0) come out as NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = -0.5 * _fd4(n2_of, t, h) / n2
        n = np.sqrt(n2)
        cth, sth = u / n, q / n
    r2 = q * (_fd4(q_of, t, h) + lam * q) + u * (_fd4(u_of, t, h) + lam * u)

    def cth_of(s):
        return u_of(s) / np.sqrt(n2_of(s))

    def sth_of(s):
        return q_of(s) / np.sqrt(n2_of(s))

    mask = np.abs(sth * cth) > 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        r3 = _fd4(cth_of, t, h) / (-sth) - _fd4(sth_of, t, h) / cth
    r3 = np.where(mask, r3, np.nan)
    return r1, r2, r3


def transition_current(c1, c2):
    """(i/2)(c1* c2 - c2* c1) = -Im(c1* c2): the stimulated-transition amplitude."""
    return -np.imag(np.conj(c1) * c2)
