"""Acceptance criteria, runnable as a suite (CLI ``accept``) or via pytest.

Each criterion is a function returning a CriterionResult; ``run_all``
executes them in order and reports one pass/fail line per criterion.  All
tolerances are pinned here, not configurable: they are the exit gate.

Criterion 11 is recorded, not thresholded: whether the integrating-factor
solution is exact off resonance is precisely what the comparison measures,
so the suite reports the gap instead of presuming it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import ellipeinc

from .closedform import dressed_series, phase_series
from .config import BranchMode, Model
from .drives import ConstantDrive, CosineDrive
from .errors import DressedAtomError
from .frames import (FD_STEP, connection_dtheta, identity_residuals,
                     mixing_angle_series, near_coupling_zero, rabi_frequency)
from .oracle import (current_dynamics_check, enforced_step_bound,
                     initial_state_for_psi_frame, propagate)
from .scenario import dominant_frequency


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] C{self.cid:02d} {self.title}: {self.detail} ({self.elapsed:.2f}s)"


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
                           f"max residual/bound = {worst:.3e}, runtime {elapsed:.2f}s",
                           elapsed)


def criterion_2() -> CriterionResult:
    """Consistency: both quotient forms of dtheta/dt and the closed formula
    agree pairwise to 1e-7 relative wherever |sin th cos th| > 1e-3."""
    t0 = time.perf_counter()
    h = FD_STEP
    worst = 0.0
    for name, model in _identity_setups():
        ts = _sample_times(model, 1000)

        def cth_of(s):
            c, _ = mixing_angle_series(model, np.atleast_1d(s))
            return c

        def sth_of(s):
            _, si = mixing_angle_series(model, np.atleast_1d(s))
            return si

        w = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
        off = (-2.0, -1.0, 1.0, 2.0)
        dc = sum(wi * cth_of(ts + oi * h) for wi, oi in zip(w, off)) / h
        ds = sum(wi * sth_of(ts + oi * h) for wi, oi in zip(w, off)) / h
        cth, sth = mixing_angle_series(model, ts)
        mask = np.abs(sth * cth) > 1e-3
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
    elapsed = time.perf_counter() - t0
    return CriterionResult(2, "connection consistency condition", worst <= 1e-7,
                           f"max pairwise relative gap = {worst:.3e} (tol 1e-7; "
                           "sub-1e-8 magnitudes covered by criterion 3)",
                           elapsed)


def criterion_3() -> CriterionResult:
    """|dtheta/dt| <= 1e-12 for constant, rotating-pair, and resonant cosine."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    return CriterionResult(3, "connection vanishing set", worst <= 1e-12,
                           f"max |dtheta/dt| = {worst:.3e} (tol 1e-12)", elapsed)


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


def criterion_4(drifts: list | None = None) -> CriterionResult:
    """Rotating-pair exactness: dressed |psi0| is |sin(omega_r t)| to 1e-6."""
    t0 = time.perf_counter()
    worst = 0.0
    for wt, j0 in _RWA_CONFIGS:
        model, wr, res = _rwa_run(wt, j0)
        if drifts is not None:
            drifts.append(res.step_report.norm_drift)
        closed = dressed_series(model, res.times)
        gap = np.abs(np.abs(closed.psi0) -
                     math.sqrt(2.0) * np.abs(res.psi0_oracle))
        worst = max(worst, float(np.max(gap)))
    elapsed = time.perf_counter() - t0
    return CriterionResult(4, "rotating-pair (Jaynes-Cummings) exactness",
                           worst <= 1e-6,
                           f"MaxAbs closed-vs-oracle |psi0| = {worst:.3e} (tol 1e-6)",
                           elapsed)


def _resonant_cosine_run(stride: int = 10):
    model = Model.of(CosineDrive(1.0, 1.0), 0.0)
    t_end = 10.0 * 2.0 * math.pi
    dt = enforced_step_bound(model) * 0.5
    res = propagate(model, initial_state_for_psi_frame(model), t_end, dt,
                    output_stride=stride)
    return model, res


def criterion_5(drifts: list | None = None) -> CriterionResult:
    """Resonance limit: phase (j0/W) sin(W t) and the forced population law."""
    t0 = time.perf_counter()
    model, res = _resonant_cosine_run()
    drive = model.drive
    if drifts is not None:
        drifts.append(res.step_report.norm_drift)
    z = phase_series(model, res.times)
    beta = (drive.j0 / drive.omega) * np.sin(drive.omega * res.times)
    phase_gap = float(np.max(np.abs(z.real - beta)))
    pop_gap = float(np.max(np.abs(2.0 * np.abs(res.psi0_oracle) ** 2
                                  - np.sin(beta) ** 2)))
    elapsed = time.perf_counter() - t0
    passed = phase_gap <= 1e-8 and pop_gap <= 1e-6
    return CriterionResult(5, "resonance limit", passed,
                           f"phase gap {phase_gap:.3e} (tol 1e-8), "
                           f"population gap {pop_gap:.3e} (tol 1e-6)", elapsed)


def criterion_6() -> CriterionResult:
    """Washout: far off resonance the phase is omega_tilde * t to 0.1%."""
    t0 = time.perf_counter()
    wt = 50.0
    ts = np.linspace(0.05, 2.0 * math.pi, 401)
    z = phase_series(Model.of(CosineDrive(0.1, 1.0), wt), ts)
    rel = np.abs(z.real - wt * ts) / (wt * ts)
    worst = float(np.max(rel))
    elapsed = time.perf_counter() - t0
    return CriterionResult(6, "washout limit", worst <= 1e-3,
                           f"max relative phase deviation = {worst:.3e} (tol 1e-3)",
                           elapsed)


def criterion_7() -> CriterionResult:
    """The closed-form phase (positive root) equals quadrature of |omega_r|
    to 1e-9; the literal J0*W/A prefactor is recorded, not used."""
    t0 = time.perf_counter()
    wts = (0.1, 0.5, 1.0, 2.0, 5.0)
    j0s = (0.1, 0.5, 1.0, 2.0, 4.0)
    tss = (0.3, 1.0, 2.0, 4.0, 7.0)
    omega = 1.6   # away from 1, where the literal prefactor would coincide
    worst = 0.0
    literal_worst = 0.0
    for wt in wts:
        for j0 in j0s:
            model = Model.of(CosineDrive(j0, omega), wt,
                             branch=BranchMode.POSITIVE_ROOT)
            drive = model.drive
            amp = j0 / math.hypot(wt, j0)  # the resonant amplitude A
            zs = phase_series(model, np.array(tss)).real
            for t, z in zip(tss, zs):
                ref = quad(lambda s: math.hypot(wt, j0 * math.cos(omega * s)),
                           0.0, t, limit=400, epsabs=1e-13, epsrel=1e-13,
                           points=list(drive.coupling_zero_times(0.0, t)) or None)[0]
                worst = max(worst, abs(z - ref))
                lit = (j0 * omega / amp) * ellipeinc(omega * t, amp * amp)
                literal_worst = max(literal_worst, abs(lit - ref) / max(abs(ref), 1e-30))
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        7, "elliptic representation", worst <= 1e-9,
        f"max |elliptic - quadrature| = {worst:.3e} (tol 1e-9); "
        f"the uncorrected prefactor J0*W/A disagrees by up to "
        f"{literal_worst:.3e} relative", elapsed)


def criterion_8(drifts: list | None = None) -> CriterionResult:
    """Unitarity (drift <= 1e-8 on all acceptance runs) and RK4 order."""
    t0 = time.perf_counter()
    wt, j0 = _RWA_CONFIGS[0]
    errs = []
    for scale in (0.5, 0.25):
        model, wr, res = _rwa_run(wt, j0, dt_scale=scale, stride=1)
        target = np.abs(np.sin(wr * res.times)) / math.sqrt(2.0)
        errs.append(float(np.max(np.abs(np.abs(res.psi0_oracle) - target))))
        if drifts is not None:
            drifts.append(res.step_report.norm_drift)
    order = math.log2(errs[0] / errs[1]) if errs[1] > 0 else float("inf")
    max_drift = max(drifts) if drifts else 0.0
    elapsed = time.perf_counter() - t0
    passed = (3.5 <= order <= 4.5) and max_drift <= 1e-8
    return CriterionResult(8, "unitarity and RK4 order", passed,
                           f"convergence order = {order:.2f} (window [3.5, 4.5]), "
                           f"max norm drift = {max_drift:.3e} (tol 1e-8)", elapsed)


def criterion_9(drifts: list | None = None) -> CriterionResult:
    """Current dynamics follow the harmonic of twice the accumulated phase."""
    t0 = time.perf_counter()
    model, wr, res = _rwa_run(0.6, 0.8, stride=5)
    if drifts is not None:
        drifts.append(res.step_report.norm_drift)
    fit_rwa = current_dynamics_check(res, model)

    model2, res2 = _resonant_cosine_run(stride=5)
    if drifts is not None:
        drifts.append(res2.step_report.norm_drift)
    fit_cos = current_dynamics_check(res2, model2)
    elapsed = time.perf_counter() - t0
    passed = abs(fit_rwa.correlation) >= 0.999 and abs(fit_cos.correlation) >= 0.99
    return CriterionResult(
        9, "current dynamics", passed,
        f"|rho| pair = {abs(fit_rwa.correlation):.6f} (tol 0.999), "
        f"resonant cosine = {abs(fit_cos.correlation):.6f} (tol 0.99)", elapsed)


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
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        10, "modulation structure", fft_ok and acorr_ok,
        f"|omega_r| peak at {fpeak:.6f} (want {2 * omega}); "
        f"max autocorrelation peak = {peak_max:.4f} (must stay < 0.99)", elapsed)


def criterion_11(drifts: list | None = None) -> CriterionResult:
    """Off-resonant cosine: record the closed-form vs oracle gap.

    No pass threshold: the integrating-factor step of the closed form is
    unproven off resonance and this number is the measurement of it.
    """
    t0 = time.perf_counter()
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    dt = enforced_step_bound(model) * 0.5
    res = propagate(model, initial_state_for_psi_frame(model), 20.0, dt,
                    output_stride=10)
    if drifts is not None:
        drifts.append(res.step_report.norm_drift)
    closed = dressed_series(model, res.times)
    p0_oracle = 2.0 * np.abs(res.psi0_oracle) ** 2
    gap_raw = float(np.max(np.abs(closed.p0_raw - p0_oracle)))
    denom = p0_oracle + 2.0 * np.abs(res.psi1_oracle) ** 2
    gap_norm = float(np.max(np.abs(closed.p0_norm - p0_oracle / denom)))
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        11, "off-resonance gap (recorded, no threshold)", True,
        f"MaxAbs raw p0 gap = {gap_raw:.6f}, normalized gap = {gap_norm:.6f}",
        elapsed)


def run_all() -> list[CriterionResult]:
    """Run every criterion; criterion 8 checks the drift of every other run,
    so it executes last even though it reports in numeric order."""
    drifts: list[float] = []
    results = [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(drifts),
        criterion_5(drifts),
        criterion_6(),
        criterion_7(),
        criterion_9(drifts),
        criterion_10(),
        criterion_11(drifts),
    ]
    results.append(criterion_8(drifts))
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
