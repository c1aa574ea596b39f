"""Instantaneous dressed-frame quantities of the driven two-level atom.

Everything here is a pure function of (model, time): the signed Rabi root,
the mixing angle of the diagonalising rotation, the connection d(theta)/dt
generated by that rotation's time dependence, the identity residuals the
construction must satisfy, and the transition current.  The detuning and
the branch decision come from the ``config.Model``, which evaluates them
once.

The drive enters only through its connection-frame envelope f(t) and its
rate f'(t) (see ``drives``): |f| = |J + i*Gamma| and f f' = J J' +
Gamma Gamma'.  Conventions (natural units, hbar = 1):

    omega_tilde = ((e2 - e1) - omega_drive) / 2
    omega_r     = s(t) * sqrt(omega_tilde^2 + f^2),   s = branch sign
    theta       = atan2(|f|, omega_tilde) / 2,         in [0, pi/2]

The angle is half the polar angle of the field vector (omega_tilde, |f|),
defined for every frame; the zero matrix, which any angle diagonalises,
takes theta = 0.  Algebraically cos(theta) = (omega_tilde + |omega_r|) / N
and sin(theta) = |f| / N with N^2 = (omega_tilde + |omega_r|)^2 + f^2;
the identities differentiate that form as their independent route, but
its numerator cancels for omega_tilde < 0, so nothing else takes it.

The angle always uses the positive root: through a dressed-level crossing
that is the eigenvector-continuous choice (at exact resonance it keeps
theta = pi/4 on both sides), while the branch sign lives in omega_r.

The connection is evaluated in the reduced, numerically stable form

    dtheta/dt = omega_tilde * f f' / (|f| * 2 omega_r^2)

which is algebraically equivalent to the bracketed two-factor form up to
overall sign; the reduced form is the one that agrees with the
finite-difference derivative of theta(t) and with both quotient forms
d(cos theta)/dt / (-sin theta) = d(sin theta)/dt / cos theta.
"""

from __future__ import annotations

import numpy as np

from .config import BranchMode, Model

FD_STEP = 1e-3  # step of the finite-difference cross-checks
# |sin th cos th| at or below which the quotient forms of dtheta/dt blow up
QUOTIENT_FLOOR = 1e-3


def branch_sign(model: Model, t):
    """Sign s(t) of the Rabi root; flips at radicand zeros when smooth.

    The radicand omega_tilde^2 + f^2 touches zero only at the coupling
    zeros of a model at a ``crossing``; elsewhere it stays above
    omega_tilde^2 > 0, both modes coincide and the sign is the scalar 1.
    When smooth, s is the parity of the coupling zeros in (0, t].
    """
    if model.branch is BranchMode.POSITIVE_ROOT or not model.crossing:
        return 1
    return np.where(model.drive.coupling_zero_count(t) % 2 == 0, 1, -1)


def rabi_frequency(model: Model, t):
    """omega_r(t) = s(t) sqrt(omega_tilde^2 + f^2)."""
    wt = model.omega_tilde
    f = model.drive.frame_coupling(t)
    return branch_sign(model, t) * np.sqrt(wt * wt + f * f)


def _angle_parts(model: Model, t):
    """(u, q, N^2) with u = omega_tilde + |omega_r| and q = |f|: the
    identities' independent route to the angle."""
    wt = model.omega_tilde
    q = np.abs(model.drive.frame_coupling(t))
    u = wt + np.sqrt(wt * wt + q * q)
    return u, q, u * u + q * q


def theta_of_t(model: Model, t):
    """theta(t) = atan2(|f|, omega_tilde) / 2 in [0, pi/2], positive root.

    Half the polar angle of the field vector (omega_tilde, |f|): pi/4 at
    resonance, pi/2 at a coupling zero when omega_tilde < 0, and 0 for the
    zero matrix, which any angle diagonalises.
    """
    q = np.abs(model.drive.frame_coupling(t))
    return 0.5 * np.arctan2(q, model.omega_tilde)


def mixing_angle(model: Model, t):
    """(cos theta, sin theta) of the diagonalising rotation, for a time or
    an array of times."""
    th = theta_of_t(model, t)
    return np.cos(th), np.sin(th)


def connection_dtheta(model: Model, t):
    """The connection d(theta)/dt generated by the rotating frame.

    Vanishes identically when the envelope is constant (constant and
    rotating-wave drives) and when the detuning is zero.  At isolated
    coupling zeros the prefactor f f'/|f| is resolved by its one-sided
    limit |f'|.
    """
    wt = model.omega_tilde
    f = model.drive.frame_coupling(t)
    df = model.drive.frame_coupling_rate(t)
    q = np.abs(f)
    wr2 = wt * wt + f * f
    ratio = np.where(q > 0, f * df / np.where(q > 0, q, 1.0), np.abs(df))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = wt * ratio / (2.0 * wr2)
    return np.where(wr2 > 0, out, 0.0)


def frame_series(model: Model, ts: np.ndarray) -> dict:
    """Vectorised frame snapshot over a time grid."""
    cth, sth = mixing_angle(model, ts)
    return {
        "t": np.asarray(ts, dtype=float),
        "omega_r": rabi_frequency(model, ts),
        "cos_theta": cth,
        "sin_theta": sth,
        "dtheta_dt": connection_dtheta(model, ts),
    }


def near_coupling_zero(model: Model, ts: np.ndarray) -> np.ndarray:
    """True for the times within 5 FD_STEP of a coupling zero in (0, inf).

    The identities differentiate the coupling envelope |J|, which has a
    kink at every coupling zero; a finite-difference stencil that reaches
    one does not measure the construction.
    """
    ts = np.asarray(ts, dtype=float)
    reach = 5.0 * FD_STEP
    count = model.drive.coupling_zero_count
    return count(ts + reach) > count(np.maximum(ts - reach, 0.0))


def identity_residuals(model: Model, t):
    """Residuals of the three construction identities, each analytically zero.

    r1 = (1/2) d(f^2)/dt - f f'
    r2 = q (d/dt + L) q + u (d/dt + L) u,   L = -(1/2) d(N^2)/dt / N^2
    r3 = d(cos th)/dt / (-sin th) - d(sin th)/dt / cos th
         (NaN where |sin th cos th| <= QUOTIENT_FLOOR)

    r1 is the identity omega_r d(omega_r)/dt = f f' with its left side
    differentiated as (1/2) d(omega_r^2)/dt = (1/2) d(f^2)/dt, which is
    smooth everywhere: |omega_r| itself has a kink at every coupling zero
    when omega_tilde = 0, so r1 is finite on every row.  r2 and r3
    differentiate the coupling envelope q = |f|, so they are NaN on the
    times ``near_coupling_zero``.  Outer time derivatives are 4th-order
    finite differences -- the independent route -- while the envelope rate
    f' is analytic.
    """
    t = np.asarray(t, dtype=float)
    h = FD_STEP
    p = model.drive.frame_coupling(t) * model.drive.frame_coupling_rate(t)
    u, q, n2 = _angle_parts(model, t)
    # (u, q, N^2) at t - 2h, t - h, t + h, t + 2h
    stencil = [_angle_parts(model, t + k * h) for k in (-2.0, -1.0, 1.0, 2.0)]

    def d(fn):
        """4th-order central difference of fn(u, q, N^2), paired so that
        constants cancel exactly."""
        m2, m1, p1, p2 = (fn(*x) for x in stencil)
        return (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)

    r1 = 0.5 * d(lambda u, q, n2: q * q) - p
    # rows where N^2 = 0 (no coupling and wt <= 0) come out as NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = -0.5 * d(lambda u, q, n2: n2) / n2
        n = np.sqrt(n2)
        cth, sth = u / n, q / n
        r3 = (d(lambda u, q, n2: u / np.sqrt(n2)) / (-sth)
              - d(lambda u, q, n2: q / np.sqrt(n2)) / cth)
    r2 = q * (d(lambda u, q, n2: q) + lam * q) + u * (d(lambda u, q, n2: u) + lam * u)
    r3 = np.where(np.abs(sth * cth) > QUOTIENT_FLOOR, r3, np.nan)
    kink = near_coupling_zero(model, t)
    return r1, np.where(kink, np.nan, r2), np.where(kink, np.nan, r3)


def transition_current(c1, c2):
    """(i/2)(c1* c2 - c2* c1) = -Im(c1* c2): the stimulated-transition amplitude."""
    return -np.imag(np.conj(c1) * c2)
