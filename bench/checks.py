"""Reference values and output checks.

Every reference is computed here from the documented model with numpy and
scipy alone; nothing is imported from dressedatom, so a change to the
package cannot change what counts as correct.  Each check returns a list of
failure messages; an empty list means the output passed.

Model conventions (README, natural units, e1 = 0, hbar = 1):

    J, Gamma     cosine: (j0 cos Wt, 0); rwa: j0 (cos Wt, sin Wt);
                 constant: (j0, gamma0)
    q            = sqrt(J^2 + Gamma^2)
    omega_r      = s(t) sqrt(wt^2 + q^2), s flips at coupling zeros only on
                   the smooth branch at exact resonance
    theta        = atan2(q, wt + sqrt(wt^2 + q^2))   (positive root)
    Z(t)         = int_0^t omega_r + i (theta(t) - theta(0))
    p0_raw       = |sin Z|^2
    oracle       i dc/dt = [[2 wt, qf], [qf, 0]] c, qf the frame coupling
                 (cosine: j0 cos Wt; rwa: j0; constant: q), then
                 p0_oracle = |a+ - a-|^2 / 2 with (a+, a-) = R(theta) c
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ellipeinc

# Acceptance thresholds.  The package's own targets are quad_tol = 1e-10 on
# each part of Z and an RK4 error far below that at the step sizes used
# here; the thresholds leave a wide margin above both while staying far
# below any physical signal (populations are O(1)).
Z_TOL = 1e-8            # rad, on Re Z and Im Z (100x quad_tol)
P0_TOL = 1e-8           # closed p0_raw against its reference
ORACLE_TOL = 1e-8       # oracle amplitudes and populations against solve_ivp
RICHARDSON_MAX = 1e-8   # the oracle's own end-point error estimate
NORM_TOL = 1e-8         # |norm - 1|, the package's default norm_tol
FRAME_TOL = 1e-9        # frame quantities, relative to the problem scale
# Identity residuals are 4th-order finite differences (h = fd_step = 1e-3),
# so they sit at the truncation error, which grows like (j0 W / wt)^5 at
# small detuning: up to 1.4e-4 over the sampled ranges.  A broken identity
# is O(0.1 - 1).
IDENTITY_MAX = 1e-3
# The current fit runs on the output grid, where the program integrates
# |omega_r| and the phase by the trapezoid rule and differentiates by
# np.gradient.  Against the analytic phase and the reference current, over
# oracle_long seeds 1-60: n_periods within 1.5e-7 (relative), correlation
# within 7e-7, amplitude within 1.5e-5 (relative).  The correlation itself
# ranges 0.01-0.99 there: the documented single-harmonic model fits the
# detuned cosine drive only loosely, so it is matched, not required near 1.
FIT_MIN_PERIODS = 5.0   # the documented span below which the fit refuses
FIT_PERIODS_RTOL = 1e-5
FIT_CORR_TOL = 1e-4
FIT_AMP_RTOL = 1e-3

DEFAULTS = {"drive": "cosine", "omega": 1.0, "j0": 1.0, "gamma0": 0.0,
            "branch": "smooth", "initial_state": "dressed", "t_end": 10.0,
            "dt": 0.001, "output_stride": 10, "fd_step": 1e-3}


def resolve(cfg: dict) -> dict:
    """The benchmark's configs always give omega_tilde; fill the rest."""
    return {**DEFAULTS, **cfg}


def output_grid(p: dict) -> np.ndarray:
    n = max(1, round(p["t_end"] / p["dt"]))
    idx = np.arange(0, n + 1, p["output_stride"])
    if idx[-1] != n:
        idx = np.append(idx, n)
    return idx * (p["t_end"] / n)


def step_bound(p: dict) -> float:
    """The documented dt bound min(2 pi/W, 2 pi/max omega_r)/200."""
    wr_max = math.hypot(p["omega_tilde"], p["j0"], p["gamma0"])
    return 2.0 * math.pi / max(p["omega"], wr_max) / 200.0


def coupling(p: dict, t):
    """(J, Gamma, J', Gamma') at times t."""
    j0, w, t = p["j0"], p["omega"], np.asarray(t, dtype=float)
    c, s = np.cos(w * t), np.sin(w * t)
    zero = np.zeros_like(t)
    if p["drive"] == "cosine":
        return j0 * c, zero, -j0 * w * s, zero
    if p["drive"] == "rwa":
        return j0 * c, j0 * s, -j0 * w * s, j0 * w * c
    return zero + j0, zero + p["gamma0"], zero, zero


def frame_coupling(p: dict, t):
    if p["drive"] == "cosine":
        return p["j0"] * np.cos(p["omega"] * t)
    return np.full_like(np.asarray(t, dtype=float), math.hypot(p["j0"], p["gamma0"]))


def is_resonant_smooth(p: dict) -> bool:
    return p["omega_tilde"] == 0.0 and p["branch"] == "smooth"


def mixing(p: dict, t):
    """(cos theta, sin theta) of the positive-root angle."""
    j, g, _, _ = coupling(p, t)
    q = np.hypot(j, g)
    u = p["omega_tilde"] + np.hypot(p["omega_tilde"], q)
    n = np.hypot(u, q)
    return u / n, q / n


def phase_reference(p: dict, t) -> np.ndarray:
    """Z(t) from closed forms: ellipeinc for the cosine drive, linear phase
    for the constant-envelope drives, (j0/W) sin Wt at resonance."""
    wt, j0, w = p["omega_tilde"], p["j0"], p["omega"]
    t = np.asarray(t, dtype=float)
    if p["drive"] != "cosine":
        return math.sqrt(wt * wt + j0 * j0 + p["gamma0"] ** 2) * t + 0j
    if is_resonant_smooth(p):
        re = (j0 / w) * np.sin(w * t)
    else:
        amp = math.hypot(wt, j0)
        re = (amp / w) * ellipeinc(w * t, (j0 / amp) ** 2)
    j, g, _, _ = coupling(p, t)
    q = np.hypot(j, g)
    theta = np.arctan2(q, wt + np.hypot(wt, q))
    q0 = math.hypot(*(float(x) for x in coupling(p, 0.0)[:2]))
    theta0 = math.atan2(q0, wt + math.hypot(wt, q0))
    return re + 1j * (theta - theta0)


def p0_of(z):
    return np.abs(np.sin(z)) ** 2


def exact_oracle_p0(p: dict, t):
    """Cases where the closed form is exact for the dressed preparation:
    the resonant cosine (smooth branch) and the constant-envelope drives."""
    if p["initial_state"] != "dressed":
        return None
    if p["drive"] != "cosine" or is_resonant_smooth(p):
        return p0_of(phase_reference(p, t).real)
    return None


def initial_state(p: dict) -> np.ndarray:
    """The two preparations the workloads use: bare1 and dressed."""
    if p["initial_state"] == "bare1":
        return np.array([1.0, 0.0], dtype=complex)
    cth, sth = (float(x) for x in mixing(p, 0.0))
    return np.array([cth - sth, sth + cth], dtype=complex) / math.sqrt(2.0)


def oracle_reference(p: dict, t: np.ndarray) -> dict:
    """Frame amplitudes by an independent adaptive integrator (DOP853)."""
    wt = p["omega_tilde"]

    def rhs(s, c):
        qf = float(frame_coupling(p, s))
        return -1j * np.array([2.0 * wt * c[0] + qf * c[1], qf * c[0]])

    sol = solve_ivp(rhs, (0.0, float(t[-1])), initial_state(p), method="DOP853",
                    t_eval=t, rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    c1, c2 = sol.y
    cth, sth = mixing(p, t)
    a_plus = cth * c1 + sth * c2
    a_minus = -sth * c1 + cth * c2
    return {"c1": c1, "c2": c2, "p0": np.abs(a_plus - a_minus) ** 2 / 2.0,
            "current": -np.imag(np.conj(c1) * c2)}


def frame_reference(p: dict, t) -> dict:
    wt = p["omega_tilde"]
    j, g, dj, dg = coupling(p, t)
    q = np.hypot(j, g)
    wr2 = wt * wt + q * q
    root = np.sqrt(wr2)
    if is_resonant_smooth(p):
        zeros_passed = np.floor(p["omega"] * np.asarray(t) / math.pi + 0.5)
        root = np.where(zeros_passed % 2 == 0, 1.0, -1.0) * root
    dq = np.where(q > 0, (j * dj + g * dg) / np.where(q > 0, q, 1.0), np.hypot(dj, dg))
    cth, sth = mixing(p, t)
    return {"omega_r": root, "cos_theta": cth, "sin_theta": sth,
            "dtheta_dt": wt * dq / (2.0 * wr2)}


def worst(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    d = np.abs(a - b)
    return float(np.max(d)) if d.size else 0.0


def close(name: str, got, want, tol: float) -> list[str]:
    err = worst(got, want)
    return [] if err <= tol else [f"{name}: worst deviation {err:.3e} > {tol:.1e}"]


def finite(name: str, a, allowed_nan=None) -> list[str]:
    bad = ~np.isfinite(np.asarray(a, dtype=float))
    if allowed_nan is not None:
        bad &= ~allowed_nan
    return [f"{name}: {int(bad.sum())} non-finite values"] if bad.any() else []


def check_closed(p: dict, t, re_z, im_z, p0_raw, p0_norm=None) -> list[str]:
    """Closed-form Z and populations against the analytic phase."""
    z = phase_reference(p, t)
    fails = close("closed Re Z", re_z, z.real, Z_TOL)
    fails += close("closed Im Z", im_z, z.imag, Z_TOL)
    fails += close("closed p0_raw", p0_raw, p0_of(z), P0_TOL)
    if p0_norm is not None:
        zc = np.asarray(re_z) + 1j * np.asarray(im_z)
        s2, c2 = p0_of(zc), np.abs(np.cos(zc)) ** 2
        fails += close("closed p0_norm", p0_norm, s2 / (s2 + c2), P0_TOL)
    return fails


def check_oracle(p: dict, t, c1, c2, norm, p0, current, ref: dict) -> list[str]:
    """Oracle columns against the independent integration and, where the
    closed form is exact, against sin^2 of the analytic phase."""
    fails = close("oracle c1", c1, ref["c1"], ORACLE_TOL)
    fails += close("oracle c2", c2, ref["c2"], ORACLE_TOL)
    fails += close("oracle norm", norm, np.ones_like(norm), NORM_TOL)
    fails += close("oracle p0", p0, ref["p0"], ORACLE_TOL)
    fails += close("oracle current", current, ref["current"], ORACLE_TOL)
    exact = exact_oracle_p0(p, t)
    if exact is not None:
        fails += close("oracle p0 vs exact", p0, exact, ORACLE_TOL)
    return fails


def check_report(report: dict) -> list[str]:
    fails = []
    if "norm_ok" in report and report["norm_ok"] is not True:
        fails.append("report: norm_ok is not true")
    rich = report.get("richardson_error")
    if rich is not None and not (rich <= RICHARDSON_MAX):
        fails.append(f"report: richardson_error {rich!r} > {RICHARDSON_MAX:.0e}")
    return fails


def swept_phase(p: dict, t: float) -> float:
    """int_0^t |omega_r| dt' in closed form."""
    wt, j0 = p["omega_tilde"], p["j0"]
    if p["drive"] != "cosine":
        return math.sqrt(wt * wt + j0 * j0 + p["gamma0"] ** 2) * t
    amp, w = math.hypot(wt, j0), p["omega"]
    return float(amp / w * ellipeinc(w * t, (j0 / amp) ** 2))


def check_current_fit(p: dict, fit: dict | None, t, current) -> list[str]:
    """The report's current_fit against the documented fit, made on the
    reference current with the analytic phase: status ok with the same
    n_periods, correlation and amplitude once the run spans 5 periods of
    |omega_r|, InsufficientSpan below that, NoOscillation for a zero current."""
    if fit is None:
        return ["report: no current_fit"]
    n_periods = swept_phase(p, float(t[-1])) / math.pi
    peak = float(np.max(np.abs(current)))
    # near the program's thresholds (|current| < 1e-13, 5 periods) either
    # status is right
    if 1e-14 < peak < 1e-12 or abs(n_periods / FIT_MIN_PERIODS - 1.0) < 1e-3:
        return []
    if peak <= 1e-14:
        want = "NoOscillation"
    elif n_periods < FIT_MIN_PERIODS:
        want = "InsufficientSpan"
    else:
        want = "ok"
    if fit.get("status") != want:
        return [f"report: current_fit status {fit.get('status')!r}, want {want!r} "
                f"({n_periods:.3f} periods)"]
    if want != "ok":
        return []
    phi = phase_reference(p, t).real
    dcur = np.gradient(current, t)
    basis = np.column_stack([np.gradient(np.sin(2.0 * phi), t),
                             np.gradient(np.cos(2.0 * phi), t)])
    coef, *_ = np.linalg.lstsq(basis, dcur, rcond=None)
    corr = float(np.corrcoef(dcur, basis @ coef)[0, 1])
    amp = float(np.hypot(*coef))
    fails = close("current_fit n_periods", fit["n_periods"], n_periods,
                  FIT_PERIODS_RTOL * n_periods)
    fails += close("current_fit correlation", fit["correlation"], corr, FIT_CORR_TOL)
    fails += close("current_fit amplitude", fit["amplitude"], amp, FIT_AMP_RTOL * amp)
    return fails


def check_frame(p: dict, cols: dict) -> list[str]:
    ref = frame_reference(p, cols["t"])
    scale = max(p["j0"], abs(p["omega_tilde"]), 1.0)
    return [f for k in ref
            for f in close(f"frame {k}", cols[k], ref[k], FRAME_TOL * scale)]


def identity_nan_rows(p: dict, t) -> dict:
    """Rows where the identities CSV documents NaN, per column."""
    t = np.asarray(t, dtype=float)
    near_zero = np.zeros(t.shape, dtype=bool)
    if p["drive"] == "cosine" and p["j0"] > 0:
        w = p["omega"]
        k = np.round(w * t / math.pi - 0.5)
        zero = (k + 0.5) * math.pi / w
        near_zero = (zero > 0) & (np.abs(t - zero) <= 5.0 * p["fd_step"] * (1 + 1e-9))
    cth, sth = mixing(p, t)
    small_angle = np.abs(sth * cth) <= 1e-3 * (1 + 1e-9)
    j, g, _, _ = coupling(p, t)
    no_root = np.hypot(p["omega_tilde"], np.hypot(j, g)) <= 1e-9 * (1 + 1e-9)
    return {"r1": np.zeros(t.shape, dtype=bool), "r2": near_zero,
            "r3": near_zero | small_angle, "re_eq24": no_root,
            "im_eq24": no_root, "im_eq24_gap": no_root}


def check_identities(p: dict, cols: dict) -> list[str]:
    t = cols["t"]
    allowed = identity_nan_rows(p, t)
    fails = []
    for name, a in cols.items():
        if name == "t":
            continue
        fails += finite(f"identities {name}", a, allowed.get(name))
        if name in ("r1", "r2", "r3"):
            # a stencil that straddles a coupling zero differentiates across
            # the kink of |J|; the magnitude bound holds away from those rows
            a = np.asarray(a)[~allowed["r2"]]
            peak = float(np.max(np.abs(a[np.isfinite(a)]), initial=0.0))
            if peak > IDENTITY_MAX:
                fails.append(f"identities {name}: max {peak:.3e} > {IDENTITY_MAX:.0e}")
    if "re_eq24" in cols:
        j, g, _, _ = coupling(p, t)
        root = np.hypot(p["omega_tilde"], np.hypot(j, g))
        ok = ~allowed["re_eq24"]
        fails += close("identities re_eq24", np.asarray(cols["re_eq24"])[ok],
                       root[ok], FRAME_TOL * max(p["j0"], 1.0))
    return fails


def check_grid(p: dict, t) -> list[str]:
    return close("time grid", t, output_grid(p), 1e-9 * max(p["t_end"], 1.0))
