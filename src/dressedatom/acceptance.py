"""Acceptance criteria, runnable as a suite (CLI ``accept``) or via pytest.

Each criterion is a function returning a CriterionResult; ``run_all``
executes them in order and reports one pass/fail line per criterion.  No
tolerance is configurable: they are the exit gate.  The two the package
shares come from their owners (``oracle.NORM_TOL`` for the norm drift,
``frames.QUOTIENT_FLOOR`` for the quotient forms); the rest are pinned here.

Criterion 11 is recorded, not thresholded: whether the integrating-factor
solution is exact off resonance is precisely what the comparison measures,
so the suite reports the gap instead of presuming it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .closedform import dressed_series, phase_series
from .config import BranchMode, Model
from .drives import ConstantDrive, CosineDrive
from .errors import DressedAtomError
from .frames import (FD_STEP, QUOTIENT_FLOOR, connection_dtheta, identity_residuals,
                     mixing_angle, near_coupling_zero, rabi_frequency)
from .oracle import (NORM_TOL, current_dynamics_check, enforced_step_bound,
                     initial_state_for_psi_frame, propagate)
from .scenario import dominant_frequency


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    drift: float = 0.0  # the largest norm drift of the oracle runs it made
    elapsed: float = 0.0  # the criterion call's runtime, set by run_all

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] C{self.cid:02d} {self.title}: {self.detail} ({self.elapsed * 1e3:.1f} ms)"


def _identity_setups():
    return [
        ("cosine-a", Model.of(CosineDrive(1.3, 2.1), 0.7)),
        ("cosine-b", Model.of(CosineDrive(0.5, 1.0), 0.3)),
        ("cosine-c", Model.of(CosineDrive(2.0, 0.8), 1.5)),
        ("constant", Model.of(ConstantDrive(1.0, 0.6), 0.4)),
        ("rwa", Model.of(ConstantDrive(0.8), 0.6)),
    ]


def _sample_times(model: Model, n: int, t_end: float = 10.0) -> np.ndarray:
    """Uniform samples, dropping those near a coupling zero (|J| has a kink
    there; the identities assume a differentiable envelope)."""
    ts = np.linspace(0.02, t_end, n)
    return ts[~near_coupling_zero(model, ts)]


def criterion_1() -> CriterionResult:
    """Identity suite: r1, r2 below 1e-8 * max(1, omega_r^2) everywhere."""
    t0 = time.perf_counter()
    worst = 0.0
    for name, model in _identity_setups():
        ts = _sample_times(model, 1000)
        r1, r2, _ = identity_residuals(model, ts)
        wr2 = rabi_frequency(model, ts) ** 2
        bound = 1e-8 * np.maximum(1.0, wr2)
        worst = max(worst, float(np.max(np.abs(r1) / bound)),
                    float(np.max(np.abs(r2) / bound)))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1.0 and elapsed < 1.0
    return CriterionResult(1, "identity suite r1,r2", passed,
                           f"max residual/bound = {worst:.3e} (tol 1; runtime tol 1 s)")


def criterion_2() -> CriterionResult:
    """Consistency: both quotient forms of dtheta/dt and the closed formula
    agree pairwise to 1e-7 relative wherever |sin th cos th| > QUOTIENT_FLOOR."""
    h = FD_STEP
    worst = 0.0
    for name, model in _identity_setups():
        ts = _sample_times(model, 1000)
        w = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
        angles = [mixing_angle(model, ts + oi * h) for oi in (-2.0, -1.0, 1.0, 2.0)]
        dc = sum(wi * c for wi, (c, _) in zip(w, angles)) / h
        ds = sum(wi * si for wi, (_, si) in zip(w, angles)) / h
        cth, sth = mixing_angle(model, ts)
        mask = np.abs(sth * cth) > QUOTIENT_FLOOR
        q1 = dc[mask] / (-sth[mask])
        q2 = ds[mask] / cth[mask]
        q3 = np.asarray(connection_dtheta(model, ts))[mask]
        # a relative comparison needs a nonzero value: points where every
        # form sits below the finite-difference noise floor (the identically
        # vanishing connections, covered at 1e-12 absolute by criterion 3)
        # are agreement by definition
        for a, b in ((q1, q2), (q1, q3), (q2, q3)):
            big = np.maximum(np.abs(a), np.abs(b))
            valid = big >= 1e-8
            if valid.any():
                worst = max(worst, float(np.max(
                    np.abs(a[valid] - b[valid]) / big[valid])))
    return CriterionResult(2, "connection consistency condition", worst <= 1e-7,
                           f"max pairwise relative gap = {worst:.3e} (tol 1e-7; "
                           "sub-1e-8 magnitudes covered by criterion 3)")


def criterion_3() -> CriterionResult:
    """|dtheta/dt| <= 1e-12 for constant, rotating-pair, and resonant cosine."""
    ts = np.linspace(0.0, 20.0, 2001)
    cases = [
        ("constant", Model.of(ConstantDrive(1.0, 0.7), 0.3)),
        ("rwa", Model.of(ConstantDrive(0.8), 0.6)),
        ("cosine-resonant", Model.of(CosineDrive(1.0, 1.0), 0.0)),
    ]
    worst = 0.0
    for name, model in cases:
        dth = np.abs(connection_dtheta(model, ts))
        worst = max(worst, float(np.max(dth)))
    return CriterionResult(3, "connection vanishing set", worst <= 1e-12,
                           f"max |dtheta/dt| = {worst:.3e} (tol 1e-12)")


# (omega_tilde, j0) of the rotating-wave drive j0 e^{i t}, which is the
# constant envelope j0 in its connection frame
_RWA_CONFIGS = ((0.0, 1.0), (0.6, 0.8), (3.0, 4.0))


def _rwa_run(wt: float, j0: float, dt_scale: float = 0.5, stride: int = 10):
    model = Model.of(ConstantDrive(j0), wt)
    wr = math.hypot(wt, j0)
    t_end = 20.0 * math.pi / wr
    dt = enforced_step_bound(model) * dt_scale
    res = propagate(model, initial_state_for_psi_frame(model), t_end, dt,
                    output_stride=stride)
    return model, wr, res


def criterion_4() -> CriterionResult:
    """Rotating-pair exactness: dressed |psi0| is |sin(omega_r t)| to 1e-6."""
    worst = drift = 0.0
    for wt, j0 in _RWA_CONFIGS:
        model, wr, res = _rwa_run(wt, j0)
        drift = max(drift, res.step_report.norm_drift)
        closed = dressed_series(model, res.times)
        gap = np.abs(np.abs(closed.psi0) - np.abs(res.psi0_oracle))
        worst = max(worst, float(np.max(gap)))
    return CriterionResult(4, "rotating-pair (Jaynes-Cummings) exactness",
                           worst <= 1e-6,
                           f"MaxAbs closed-vs-oracle |psi0| = {worst:.3e} (tol 1e-6)",
                           drift=drift)


def _resonant_cosine_run(stride: int = 10):
    model = Model.of(CosineDrive(1.0, 1.0), 0.0)
    t_end = 10.0 * 2.0 * math.pi
    dt = enforced_step_bound(model) * 0.5
    res = propagate(model, initial_state_for_psi_frame(model), t_end, dt,
                    output_stride=stride)
    return model, res


def criterion_5() -> CriterionResult:
    """Resonance limit: phase (j0/W) sin(W t) and the forced population law."""
    model, res = _resonant_cosine_run()
    drive = model.drive
    z = phase_series(model, res.times)
    beta = (drive.j0 / drive.omega) * np.sin(drive.omega * res.times)
    phase_gap = float(np.max(np.abs(z.real - beta)))
    pop_gap = float(np.max(np.abs(res.p0 - np.sin(beta) ** 2)))
    passed = phase_gap <= 1e-8 and pop_gap <= 1e-6
    return CriterionResult(5, "resonance limit", passed,
                           f"phase gap {phase_gap:.3e} (tol 1e-8), "
                           f"population gap {pop_gap:.3e} (tol 1e-6)",
                           drift=res.step_report.norm_drift)


def criterion_6() -> CriterionResult:
    """Washout: far off resonance the phase is omega_tilde * t to 0.1%."""
    wt = 50.0
    ts = np.linspace(0.05, 2.0 * math.pi, 401)
    z = phase_series(Model.of(CosineDrive(0.1, 1.0), wt), ts)
    rel = np.abs(z.real - wt * ts) / (wt * ts)
    worst = float(np.max(rel))
    return CriterionResult(6, "washout limit", worst <= 1e-3,
                           f"max relative phase deviation = {worst:.3e} (tol 1e-3)")


# criterion 7's grid; omega is away from 1, where the literal prefactor
# would coincide with the corrected one
_C7_OMEGA_TILDES = (0.1, 0.5, 1.0, 2.0, 5.0)
_C7_J0S = (0.1, 0.5, 1.0, 2.0, 4.0)
_C7_TIMES = (0.3, 1.0, 2.0, 4.0, 7.0)
_C7_OMEGA = 1.6

_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)
_HALVINGS = 2.0 ** -np.arange(13, 0, -1)  # 2^-13 .. 1/2
_SPAN_EDGES = np.concatenate(([0.0], _HALVINGS, 1.0 - _HALVINGS[-2::-1], [1.0]))


def _abs_rabi_integral(wt: float, j0: float, omega: float, t: float) -> float:
    """Integral of sqrt(wt^2 + j0^2 cos^2(omega s)) over [0, t], by composite
    40-point Gauss-Legendre, independent of the closed form.  The spans
    between the coupling zeros (k + 1/2) pi / omega in (0, t] (where the
    integrand has a kink, and complex singularities close by when
    wt << j0) are each cut at points halved 12 times toward both ends."""
    zeros = (np.arange(math.floor(omega * t / math.pi - 0.5) + 1) + 0.5) * math.pi / omega
    cuts = np.concatenate(([0.0], zeros, [t]))
    edges = (cuts[:-1, None] + np.diff(cuts)[:, None] * _SPAN_EDGES).ravel()
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    s = mid[:, None] + half[:, None] * _GL_X
    return float(np.sum(half * (np.hypot(wt, j0 * np.cos(omega * s)) @ _GL_W)))


def criterion_7() -> CriterionResult:
    """The closed-form phase (positive root) equals the Gauss-Legendre
    integral of |omega_r| to 1e-9.  The literal J0*W/A prefactor is
    recorded, not used: (J0*W/A) E(W t, A^2) is W^2 Re Z, since
    A*sqrt(wt^2 + J0^2) = J0."""
    worst = 0.0
    literal_worst = 0.0
    for wt in _C7_OMEGA_TILDES:
        for j0 in _C7_J0S:
            model = Model.of(CosineDrive(j0, _C7_OMEGA), wt,
                             branch=BranchMode.POSITIVE_ROOT)
            zs = phase_series(model, np.array(_C7_TIMES)).real
            for t, z in zip(_C7_TIMES, zs):
                ref = _abs_rabi_integral(wt, j0, _C7_OMEGA, t)
                worst = max(worst, abs(z - ref))
                lit = _C7_OMEGA ** 2 * z
                literal_worst = max(literal_worst, abs(lit - ref) / max(abs(ref), 1e-30))
    return CriterionResult(
        7, "elliptic representation", worst <= 1e-9,
        f"max |elliptic - quadrature| = {worst:.3e} (tol 1e-9); "
        f"the uncorrected prefactor J0*W/A disagrees by up to "
        f"{literal_worst:.3e} relative")


def criterion_8(drift: float) -> CriterionResult:
    """Unitarity (the norm drift of every acceptance run within NORM_TOL;
    ``drift`` is the largest of the other criteria's runs) and RK4 order."""
    wt, j0 = _RWA_CONFIGS[0]
    errs = []
    for scale in (0.5, 0.25):
        model, wr, res = _rwa_run(wt, j0, dt_scale=scale, stride=1)
        target = np.abs(np.sin(wr * res.times))
        errs.append(float(np.max(np.abs(np.abs(res.psi0_oracle) - target))))
        drift = max(drift, res.step_report.norm_drift)
    order = math.log2(errs[0] / errs[1]) if errs[1] > 0 else float("inf")
    passed = (3.5 <= order <= 4.5) and drift <= NORM_TOL
    tol = np.format_float_scientific(NORM_TOL, trim="-", exp_digits=1)
    return CriterionResult(8, "unitarity and RK4 order", passed,
                           f"convergence order = {order:.2f} (window [3.5, 4.5]), "
                           f"max norm drift = {drift:.3e} (tol {tol})", drift=drift)


def criterion_9() -> CriterionResult:
    """Current dynamics follow the harmonic of twice the accumulated phase."""
    _, _, res = _rwa_run(0.6, 0.8, stride=5)
    fit_rwa = current_dynamics_check(res)

    _, res2 = _resonant_cosine_run(stride=5)
    fit_cos = current_dynamics_check(res2)
    passed = abs(fit_rwa["correlation"]) >= 0.999 and abs(fit_cos["correlation"]) >= 0.99
    return CriterionResult(
        9, "current dynamics", passed,
        f"|rho| pair = {abs(fit_rwa['correlation']):.6f} (tol 0.999), "
        f"resonant cosine = {abs(fit_cos['correlation']):.6f} (tol 0.99)",
        drift=max(res.step_report.norm_drift, res2.step_report.norm_drift))


def _autocorr_biased(x: np.ndarray) -> np.ndarray:
    x = x - x.mean()
    var = float(np.dot(x, x))
    if var == 0.0:
        return np.zeros(len(x))
    full = np.correlate(x, x, mode="full")[len(x) - 1:]
    return full / var


def criterion_10() -> CriterionResult:
    """Modulation structure in the weak fast-drive regime.

    The |omega_r| spectrum must peak at 2*Omega, and the |psi0|^2 series
    over ten drive periods shows no autocorrelation peak (strict local
    maximum of the standard biased estimator) at or above 0.99.
    """
    omega = 1.0
    j0 = 1e-3
    model = Model.of(CosineDrive(j0, omega), 0.5 * j0)
    t_span = 10.0 * 2.0 * math.pi / omega

    ts = np.linspace(0.0, t_span, 4096, endpoint=False)
    wr = np.abs(rabi_frequency(model, ts))
    fpeak = dominant_frequency(ts, wr)
    # one bin is omega/10 wide; the cos^2 line sits exactly on bin 20
    fft_ok = abs(fpeak - 2.0 * omega) < 1e-6

    ts2 = np.linspace(0.0, t_span, 2048)
    closed = dressed_series(model, ts2)
    rho = _autocorr_biased(closed.p0_raw)
    interior = rho[1:-1]
    peaks = interior[(interior > rho[:-2]) & (interior > rho[2:])]
    peak_max = float(np.max(peaks)) if len(peaks) else 0.0
    acorr_ok = peak_max < 0.99
    return CriterionResult(
        10, "modulation structure", fft_ok and acorr_ok,
        f"|omega_r| peak at {fpeak:.6f} (want {2 * omega}); "
        f"max autocorrelation peak = {peak_max:.4f} (must stay < 0.99)")


def criterion_11() -> CriterionResult:
    """Off-resonant cosine: record the closed-form vs oracle gap.

    No pass threshold: the integrating-factor step of the closed form is
    unproven off resonance and this number is the measurement of it.
    """
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    dt = enforced_step_bound(model) * 0.5
    res = propagate(model, initial_state_for_psi_frame(model), 20.0, dt,
                    output_stride=10)
    closed = dressed_series(model, res.times)
    gap_raw = float(np.max(np.abs(closed.p0_raw - res.p0)))
    denom = res.p0 + np.abs(res.psi1_oracle) ** 2
    gap_norm = float(np.max(np.abs(closed.p0_norm - res.p0 / denom)))
    return CriterionResult(
        11, "off-resonance gap (recorded, no threshold)", True,
        f"MaxAbs raw p0 gap = {gap_raw:.6f}, normalized gap = {gap_norm:.6f}",
        drift=res.step_report.norm_drift)


def _timed(criterion, *args) -> CriterionResult:
    t0 = time.perf_counter()
    result = criterion(*args)
    result.elapsed = time.perf_counter() - t0
    return result


def run_all() -> list[CriterionResult]:
    """Run every criterion, timing each call; criterion 8 gates the norm
    drift of every oracle run, so it runs last, on the largest drift of the
    others, even though it reports in numeric order."""
    results = [_timed(c) for c in (criterion_1, criterion_2, criterion_3, criterion_4,
                                   criterion_5, criterion_6, criterion_7, criterion_9,
                                   criterion_10, criterion_11)]
    results.append(_timed(criterion_8, max(r.drift for r in results)))
    return sorted(results, key=lambda r: r.cid)


def main() -> int:
    try:
        results = run_all()
    except DressedAtomError as exc:
        print(f"acceptance suite aborted: {exc}")
        return 2
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 3
