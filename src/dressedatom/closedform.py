"""Closed-form dressed solution: the complex phase integral and what it implies.

The central object is

    Z(t) = int_0^t omega_r(t') dt'  +  i * int_0^t dtheta/dt dt'

with omega_r branch-resolved.  The dressed pair is psi_pm = exp(∓i Z) (the
plane-wave spatial factor is the scalar 1 here), from which

    psi0 = (psi_+ - psi_-)/(2i) = -sin(Z),    psi1 = cos(Z).

The real part of Z is one vectorised panel quadrature: every output
segment, split at the known coupling zeros where the radicand can vanish,
is a panel; all panels of a block are evaluated in one integrand call with
a Gauss-Legendre n/2n pair, whose difference is the error estimate, and
only the panels that miss their share of the tolerance are bisected.  The
imaginary part uses the exact shortcut theta(t) - theta(0), valid whenever
the angle path is continuous on [0, t] (the positive-root angle is; the
tests check it against a quadrature of the connection).

For the cosine drive the real part also has the closed elliptic form
(sqrt(wt^2 + j0^2)/W) * E(W t, A) with A = j0/sqrt(wt^2 + j0^2).  Note the
prefactor: the dimensionally inconsistent variant J0*W/A that sometimes
gets quoted is evaluated by the acceptance suite for the record, never used.
"""

from __future__ import annotations

import math

import numpy as np

from .config import BranchMode, Model
from .drives import CosineDrive
from .errors import DegenerateFrameError, DomainError, QuadratureFailure
from .frames import rabi_frequency, radicand_zeros, theta_of_t

# Gauss-Legendre pair for the panel error estimate (G_n against G_2n)
_GL_N = 7
_GL_X_N, _GL_WEIGHTS_N = np.polynomial.legendre.leggauss(_GL_N)
_GL_X_2N, _GL_WEIGHTS_2N = np.polynomial.legendre.leggauss(2 * _GL_N)
_GL_NODES = np.concatenate([_GL_X_N, _GL_X_2N])
_BLOCK = 512  # segments per block and panels per integrand call


def _panel_pair(f, a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre 2n-point values of int_a^b f on each panel, with
    |G_2n - G_n| as the error estimate; one call of f for all nodes."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = f((mid[:, None] + half[:, None] * _GL_NODES).ravel()).reshape(len(a), -1)
    lo = half * np.sum(y[:, :_GL_N] * _GL_WEIGHTS_N, axis=1)
    hi = half * np.sum(y[:, _GL_N:] * _GL_WEIGHTS_2N, axis=1)
    return hi, np.abs(hi - lo)


def _block_integrals(f, ts: np.ndarray, pins: np.ndarray, seg_tol: float,
                     limit: int) -> np.ndarray:
    """int f over each segment [ts[i], ts[i+1]] of one block of the grid.

    Every segment, split at the pins inside it, starts as one or more
    panels.  Panels are evaluated at most _BLOCK at a time, last first; one
    whose error estimate misses its share of seg_tol (pro rata to its
    width, or 1e-12 relative) is bisected and pushed back.
    """
    pins = pins[np.searchsorted(pins, ts[0], "right"):
                np.searchsorted(pins, ts[-1], "left")]
    order = np.argsort(np.concatenate([ts, pins]), kind="stable")
    edges = np.concatenate([ts, pins])[order]
    # a panel belongs to the segment of the last grid point at or before it
    owner = np.cumsum(order < len(ts))[:-1] - 1
    lo, hi = edges[:-1], edges[1:]
    n_seg = len(ts) - 1
    width = np.diff(ts)
    width = np.where(width > 0, width, 1.0)
    panels = np.bincount(owner, minlength=n_seg)
    vals = np.zeros(n_seg)
    errs = np.zeros(n_seg)
    while len(lo):
        if panels.max() > limit:
            i = int(np.argmax(panels))
            raise QuadratureFailure(f"quadrature on [{ts[i]}, {ts[i + 1]}] "
                                    f"needs more than {limit} panels")
        k = max(len(lo) - _BLOCK, 0)
        a, b, own = lo[k:], hi[k:], owner[k:]
        lo, hi, owner = lo[:k], hi[:k], owner[:k]
        val, err = _panel_pair(f, a, b)
        if not np.all(np.isfinite(err)):
            i = own[np.argmin(np.isfinite(err))]
            raise QuadratureFailure(f"integrand not finite on [{ts[i]}, {ts[i + 1]}]")
        bad = err > np.maximum(seg_tol * (b - a) / width[own], 1e-12 * np.abs(val))
        vals += np.bincount(own[~bad], weights=val[~bad], minlength=n_seg)
        errs += np.bincount(own[~bad], weights=err[~bad], minlength=n_seg)
        if bad.any():
            a, b, own = a[bad], b[bad], own[bad]
            panels += np.bincount(own, minlength=n_seg)
            mid = 0.5 * (a + b)
            lo = np.concatenate([lo, a, mid])
            hi = np.concatenate([hi, mid, b])
            owner = np.concatenate([owner, own, own])
    # a roundoff-limited result whose error estimate still meets the target
    # is usable; only an estimate above tolerance is a failure
    over = errs > np.maximum(seg_tol, np.abs(vals) * 1e-10)
    if over.any():
        i = int(np.argmax(over))
        raise QuadratureFailure(f"quadrature on [{ts[i]}, {ts[i + 1]}] stopped "
                                f"at error {errs[i]:.3e} > {seg_tol:.3e}")
    return vals


def _segment_integrals(f, ts: np.ndarray, pins, seg_tol: float,
                       limit: int) -> np.ndarray:
    """int f over each segment [ts[i], ts[i+1]] of a non-decreasing grid.

    Blocks of _BLOCK segments keep memory independent of the grid length.
    A segment fails with QuadratureFailure when its summed error estimate
    exceeds max(seg_tol, |value| * 1e-10), when it needs more than
    ``limit`` panels, or when the integrand is not finite on it.
    """
    pins = np.sort(np.asarray(pins, dtype=float))
    out = np.empty(len(ts) - 1)
    for i in range(0, len(out), _BLOCK):
        out[i:i + _BLOCK] = _block_integrals(f, ts[i:i + _BLOCK + 1], pins,
                                             seg_tol, limit)
    return out


def phase_series(model: Model, ts: np.ndarray) -> np.ndarray:
    """Z on a non-decreasing grid starting at ts[0] >= 0, by cumulative
    segments; each part within the model's quad_tol."""
    ts = np.asarray(ts, dtype=float)
    if ts[0] < 0:
        raise DomainError("phase integral defined for t >= 0")
    if np.any(np.diff(ts) < 0):
        raise DomainError("phase_series needs a non-decreasing grid")
    seg_tol = max(model.tol.quad_tol / len(ts), 1e-14)
    grid = ts if ts[0] == 0.0 else np.concatenate([[0.0], ts])
    segs = _segment_integrals(lambda s: rabi_frequency(model, s),
                              grid, radicand_zeros(model, float(ts[-1])),
                              seg_tol, model.tol.quad_limit)
    re = np.concatenate([[0.0], np.cumsum(segs)])[len(grid) - len(ts):]
    im = theta_of_t(model, ts) - theta_of_t(model, 0.0)
    return re + 1j * np.asarray(im)


def dressed_series(model: Model, ts: np.ndarray) -> dict:
    """The closed-form dressed state on a grid (psi0(0) = 0 exactly)."""
    z = phase_series(model, ts)
    psi0 = -np.sin(z)
    psi1 = np.cos(z)
    p0 = np.abs(psi0) ** 2
    p1 = np.abs(psi1) ** 2
    return {"t": np.asarray(ts, dtype=float), "phase": z, "psi0": psi0,
            "psi1": psi1, "p0_raw": p0, "p1_raw": p1, "p0_norm": p0 / (p0 + p1)}


def psi0_gamma_zero_integrand(model: Model, t):
    """The printed integrand of the zero-connection solution, taken literally.

    Cross-check surface: the real part must be |omega_r| and the imaginary
    part must match the connection (up to the sign it carries where the
    cosine is negative); any pointwise gap is what the identities report
    records.  A scalar ``t`` gives a complex, an array of times a complex
    array; a radicand zero anywhere raises for the first such time.  The
    printed form uses the positive root, so it takes no branch mode.
    """
    drive = model.drive
    if not isinstance(drive, CosineDrive):
        raise DomainError("literal integrand is defined for the cosine drive only")
    t = np.asarray(t, dtype=float)
    wt = model.omega_tilde
    j = drive.frame_coupling(t)
    wr = np.hypot(wt, j)
    bad = wr < model.deg_floor
    if np.any(bad):
        raise DegenerateFrameError(f"radicand zero at t={t[bad].flat[0]}")
    # j^2 / (wt + |omega_r|) equals |omega_r| - wt; for wt < 0 the printed
    # quotient cancels near every coupling zero and is 0/0 on one
    denom = wt + (wr - wt if wt < 0 else j * j / (wt + wr))
    imag = wt * drive.frame_coupling_rate(t) / (2.0 * wr * denom)
    if t.ndim == 0:
        return complex(wr, imag)
    # real and imaginary parts set apart: wr + 1j*imag would turn -0 into 0
    out = np.empty(t.shape, dtype=complex)
    out.real, out.imag = wr, imag
    return out


def elliptic_phase(model: Model, t: float) -> float:
    """int_0^t |omega_r| dt' in closed form for the cosine drive.

    Equals (sqrt(wt^2 + j0^2)/W) * E(W t, A) with the resonant amplitude
    A = j0 / sqrt(wt^2 + j0^2).  The positive-root branch is required: the
    elliptic representation encodes the |.| root.
    """
    drive = model.drive
    if not isinstance(drive, CosineDrive):
        raise DomainError("elliptic representation requires the cosine drive")
    if model.branch is not BranchMode.POSITIVE_ROOT:
        raise DomainError("elliptic representation requires the positive root")
    # imported here so that importing the package does not load scipy
    from scipy.special import ellipeinc

    amp = math.hypot(model.omega_tilde, drive.j0)
    if amp == 0.0:
        return 0.0
    a = drive.j0 / amp
    return (amp / drive.omega) * float(ellipeinc(drive.omega * t, a * a))


def resonant_amplitude(model: Model) -> float:
    """A = j0 / sqrt(wt^2 + j0^2), the modulus of the elliptic phase."""
    j0 = model.drive.j0
    amp = math.hypot(model.omega_tilde, j0)
    return j0 / amp if amp > 0 else 0.0
