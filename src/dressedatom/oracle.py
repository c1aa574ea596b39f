"""Brute-force ground truth: direct integration of the two-level dynamics.

``hamiltonian`` returns the bare-basis operator exactly as the model states
it: H = [[V1, J + i*Gamma], [J - i*Gamma, V2]] with V1 = E1 and the
recoil-shifted V2 = E2 - hbar*Omega.

``propagate`` integrates in the *connection frame*: the gauge co-rotating
with the coupling phase arg(J + i*Gamma), in which the coupling is the real
q(t) = drive.frame_coupling(t) and the detuning is omega_tilde for every
drive choice,

    H_frame(t) = (Ebar12 - Omega/2) * I + [[+wt, q(t)], [q(t), -wt]].

This is the frame the dressed construction diagonalises: for the
rotating-pair drive it is constant (the Jaynes-Cummings point, solved
exactly by |sin(omega_r t)|), and for the cosine drive at resonance the
matrices at different times commute.  Integrating the bare matrix with its
explicit e^{i Omega t} phases instead would double-count the recoil already
folded into V2: the rotating frame of that matrix carries detuning
omega_tilde - Omega/2, and neither exactness statement survives.

Fixed-step classic RK4 is used on purpose: the arithmetic is the same on
every run, so the CSV output is byte-identical across runs.  The equation
is linear, so one RK4 step is a fixed 2x2 matrix
M_k = I + dt/6 (K1 + 2 K2 + 2 K3 + K4) built from -i H_frame at t_k,
t_k + dt/2 and t_k + dt.  ``_rk4_run`` walks the grid in chunks of
``_CHUNK`` steps: it builds the chunk's M_k in one vectorised pass, forms
the inclusive prefix products M_k ... M_0 by doubling (Hillis-Steele,
log2 of the chunk length passes; Blelloch, CMU-CS-90-190) and applies
them to the state carried in from the previous chunk.  Scratch memory is
one chunk, whatever t_end/dt; ``step_count`` caps t_end/dt at
``MAX_STEPS``.  A Richardson step-halving estimate and the norm drift over
every step are attached to every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import AtomConfig, BranchMode, Tolerances
from .drives import Drive
from .errors import GridMismatch, InsufficientSpan, StepTooLarge, ValidationError
from .frames import (detuning, mixing_angle, mixing_angle_series,
                     rabi_frequency, transition_current)
from .series import TimeSeries

_DEFAULT_TOL = Tolerances()
MAX_STEPS = 10 ** 7  # ceiling on t_end/dt: a run stays minutes, not hours
# RK4 steps per scan chunk: it sets the scratch memory of _rk4_run; 4096
# steps raised the peak memory of a washout sweep by a quarter (3.2 to
# 4.0 MiB) for no measurable speed-up
_CHUNK = 1024


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude pair in the propagation basis."""

    c1: complex
    c2: complex

    @property
    def norm(self) -> float:
        return math.sqrt(abs(self.c1) ** 2 + abs(self.c2) ** 2)


@dataclass(frozen=True)
class StepReport:
    dt: float
    norm_drift: float
    richardson_error: float
    norm_ok: bool


@dataclass
class PropagationResult:
    times: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    norm: np.ndarray
    dressed_a_plus: np.ndarray
    dressed_a_minus: np.ndarray
    psi0_oracle: np.ndarray
    psi1_oracle: np.ndarray
    current: np.ndarray
    step_report: StepReport

    def state(self, i: int) -> StateVector:
        return StateVector(complex(self.c1[i]), complex(self.c2[i]))


def hamiltonian(cfg: AtomConfig, drive: Drive, t: float) -> np.ndarray:
    """Bare-basis H(t) = [[V1, J+iG], [J-iG, V2]], V2 recoil-shifted."""
    c = cfg.to_natural()
    j = float(drive.j(t))
    g = float(drive.gamma(t))
    v1 = c.e1
    v2 = c.e2 - c.omega_drive
    return np.array([[v1, j + 1j * g], [j - 1j * g, v2]], dtype=complex)


def initial_state_for_psi_frame(cfg: AtomConfig, drive: Drive,
                                branch: BranchMode = BranchMode.SMOOTH_CONTINUATION,
                                tol: Tolerances = _DEFAULT_TOL) -> StateVector:
    """Unit-norm state whose dressed amplitudes are a+ = a- = 1/sqrt(2).

    c(0) = U^-1(theta(0)) (1, 1)^T / sqrt(2); the occupied-state projection
    psi1 starts at 1/sqrt(2) and psi0 at exactly zero.
    """
    cth, sth = mixing_angle(cfg, drive, 0.0, branch, tol)
    inv = 1.0 / math.sqrt(2.0)
    return StateVector(complex((cth - sth) * inv), complex((sth + cth) * inv))


def bare_state(index: int) -> StateVector:
    """Basis preparation |1> or |2> (CLI alternative to the dressed frame)."""
    if index == 1:
        return StateVector(1.0 + 0j, 0.0 + 0j)
    if index == 2:
        return StateVector(0.0 + 0j, 1.0 + 0j)
    raise ValidationError("bare state index must be 1 or 2")


def max_rabi(cfg: AtomConfig, drive: Drive) -> float:
    wt = detuning(cfg)
    return math.hypot(wt, drive.coupling_scale())


def enforced_step_bound(cfg: AtomConfig, drive: Drive) -> float:
    """dt must not exceed min(2 pi / Omega, 2 pi / max|omega_r|) / 200."""
    c = cfg.to_natural()
    fastest = max(c.omega_drive, max_rabi(c, drive), 1e-300)
    return 2.0 * math.pi / fastest / 200.0


def step_count(t_end: float, dt: float) -> int:
    """Fixed steps of about ``dt`` covering [0, t_end], at most ``MAX_STEPS``.

    Raises ``ValidationError`` before anything is allocated when t_end/dt
    exceeds the ceiling.
    """
    n_steps = t_end / dt
    if not n_steps <= MAX_STEPS:
        raise ValidationError(f"t_end/dt = {n_steps:.3e} steps exceeds the ceiling "
                              f"of {MAX_STEPS:.0e} steps")
    return max(1, round(n_steps))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a_k b_k of 2x2 matrix stacks laid out as (2, 2, n)."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _rk4_run(cfg: AtomConfig, drive: Drive, c0: np.ndarray, n_steps: int,
             dt: float, keep_every: int):
    """Fixed-grid RK4 on the frame Hamiltonian, ``_CHUNK`` steps at a time.

    Returns (c1, c2, drift): the states after steps 0, keep_every,
    2*keep_every, ... and, last, after step n_steps; and the largest norm
    drift over every step.
    """
    c = cfg.to_natural()
    wt = detuning(c)
    off = 0.5 * (c.e1 + c.e2) - 0.5 * c.omega_drive
    eye = np.eye(2)[:, :, None]

    def generator(q):  # -i H_frame at the couplings q, as a (2, 2, len(q)) stack
        g = np.empty((2, 2, len(q)), dtype=complex)
        g[0, 0] = -1j * (off + wt)
        g[1, 1] = -1j * (off - wt)
        g[0, 1] = g[1, 0] = -1j * q
        return g

    rows = n_steps // keep_every + 1 + (n_steps % keep_every != 0)
    kept = np.empty((2, rows), dtype=complex)
    state = np.array(c0, dtype=complex)
    kept[:, 0] = state
    drift = 0.0
    for k0 in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - k0)
        # coupling at t_k and the half points of this chunk's steps
        q = np.asarray(drive.frame_coupling((np.arange(2 * m + 1) + 2 * k0) * (0.5 * dt)),
                       dtype=float)
        a0, ah, a1 = generator(q[:-1:2]), generator(q[1::2]), generator(q[2::2])
        k2 = _matmul(ah, eye + 0.5 * dt * a0)
        k3 = _matmul(ah, eye + 0.5 * dt * k2)
        k4 = _matmul(a1, eye + dt * k3)
        prod = eye + dt / 6.0 * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
        # inclusive prefix product prod[:, :, i] = M_i ... M_0, by doubling
        d = 1
        while d < m:
            prod[:, :, d:] = _matmul(prod[:, :, d:], prod[:, :, :-d])
            d *= 2
        states = prod[:, 0] * state[0] + prod[:, 1] * state[1]
        norm = np.sqrt(np.abs(states[0]) ** 2 + np.abs(states[1]) ** 2)
        drift = max(drift, float(np.max(np.abs(norm - 1.0))))
        steps = np.arange(k0 + 1, k0 + m + 1)  # states[:, i] is after steps[i]
        keep = steps % keep_every == 0
        kept[:, steps[keep] // keep_every] = states[:, keep]
        state = states[:, -1]
    kept[:, -1] = state
    return kept[0], kept[1], drift


def propagate(cfg: AtomConfig, drive: Drive, c0: StateVector, t_end: float,
              dt: float, branch: BranchMode = BranchMode.SMOOTH_CONTINUATION,
              output_stride: int = 1,
              tol: Tolerances = _DEFAULT_TOL) -> PropagationResult:
    """Propagate i dc/dt = H_frame(t) c on a fixed grid and dress the output.

    The dressed projection recomputes theta(t) per output point from the
    frame functions (single source of truth); psi0/psi1 are reported after
    removal of the common dynamical phase exp(-i (Ebar12 - Omega/2) t).
    """
    if dt <= 0 or t_end <= 0:
        raise ValidationError("dt and t_end must be positive")
    bound = enforced_step_bound(cfg, drive)
    if dt > bound * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt:.3e} exceeds the enforced bound {bound:.3e}")
    if output_stride < 1:
        raise ValidationError("output_stride must be >= 1")

    n_steps = step_count(t_end, dt)
    dt = t_end / n_steps  # land exactly on t_end
    c0v = np.array([c0.c1, c0.c2], dtype=complex)
    nrm = math.sqrt(abs(c0.c1) ** 2 + abs(c0.c2) ** 2)
    if nrm == 0:
        raise ValidationError("initial state must be non-zero")
    c0v = c0v / nrm

    c1, c2, drift = _rk4_run(cfg, drive, c0v, n_steps, dt, output_stride)
    h1, h2, _ = _rk4_run(cfg, drive, c0v, 2 * n_steps, dt / 2.0, 2 * n_steps)
    rich = (16.0 / 15.0) * math.hypot(abs(c1[-1] - h1[-1]), abs(c2[-1] - h2[-1]))

    idx = np.arange(0, n_steps + 1, output_stride)
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    times = idx * dt
    norm = np.sqrt(np.abs(c1) ** 2 + np.abs(c2) ** 2)

    cth, sth = mixing_angle_series(cfg, drive, times, tol)
    a_plus = cth * c1 + sth * c2
    a_minus = -sth * c1 + cth * c2
    c_nat = cfg.to_natural()
    phase = np.exp(1j * (c_nat.e_bar - 0.5 * c_nat.omega_drive) * times)
    psi0 = (a_plus - a_minus) / 2j * phase
    psi1 = (a_plus + a_minus) / 2.0 * phase

    return PropagationResult(
        times=times, c1=c1, c2=c2, norm=norm,
        dressed_a_plus=a_plus, dressed_a_minus=a_minus,
        psi0_oracle=psi0, psi1_oracle=psi1,
        current=transition_current(c1, c2),
        step_report=StepReport(dt=dt, norm_drift=drift, richardson_error=rich,
                               norm_ok=drift <= tol.norm_tol),
    )


@dataclass(frozen=True)
class ComparisonReport:
    max_abs: float
    rms: float
    phase_slip: float


def compare(closed: TimeSeries, oracle: TimeSeries) -> ComparisonReport:
    """Agreement metrics between closed-form and oracle |psi0|^2 series.

    Both series must carry a ``p0`` column on identical grids; the phase
    slip additionally needs re_psi0/im_psi0 columns and accumulates the
    argument difference where both |psi0| > 0.1.
    """
    if closed.data.shape[0] != oracle.data.shape[0] or \
            not np.array_equal(closed.t, oracle.t):
        raise GridMismatch("time grids differ")
    dp = closed.column("p0") - oracle.column("p0")
    max_abs = float(np.max(np.abs(dp))) if len(dp) else 0.0
    rms = float(np.sqrt(np.mean(dp ** 2))) if len(dp) else 0.0

    phase_slip = 0.0
    if all(s.has_column("re_psi0") and s.has_column("im_psi0")
           for s in (closed, oracle)) and len(dp):
        pc = closed.column("re_psi0") + 1j * closed.column("im_psi0")
        po = oracle.column("re_psi0") + 1j * oracle.column("im_psi0")
        ok = (np.abs(pc) > 0.1) & (np.abs(po) > 0.1)
        if ok.any():
            dphi = np.unwrap(np.angle(pc[ok])) - np.unwrap(np.angle(po[ok]))
            phase_slip = float(dphi[-1] - dphi[0])
    return ComparisonReport(max_abs=max_abs, rms=rms, phase_slip=phase_slip)


@dataclass(frozen=True)
class CurrentFitReport:
    status: str            # "ok" or "NoOscillation"
    correlation: float
    amplitude: float
    n_periods: float


def current_dynamics_check(result: PropagationResult, cfg: AtomConfig,
                           drive: Drive,
                           branch: BranchMode = BranchMode.SMOOTH_CONTINUATION,
                           tol: Tolerances = _DEFAULT_TOL) -> CurrentFitReport:
    """Fit d(current)/dt against the harmonic of twice the accumulated phase.

    The model is current ~ A sin(2 int omega_r dt' + phi0) + const, fitted in
    the derivative-consistent form: least squares of the numerical
    d(current)/dt on {d/dt sin(2 Phi), d/dt cos(2 Phi)}.  Returns the
    correlation of the signal with the fit and the amplitude A.
    """
    ts = result.times
    if len(ts) < 16:
        raise InsufficientSpan("too few output points for a fit")
    wr = rabi_frequency(cfg, drive, ts, branch, tol)
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (wr[1:] + wr[:-1]) * np.diff(ts))])
    # span measured against the unsigned phase: at resonance the signed
    # integral oscillates around zero while cycles keep accumulating
    swept = np.concatenate([[0.0], np.cumsum(
        0.5 * (np.abs(wr[1:]) + np.abs(wr[:-1])) * np.diff(ts))])

    cur = result.current
    if np.max(np.abs(cur)) < 1e-13:
        return CurrentFitReport(status="NoOscillation", correlation=0.0,
                                amplitude=0.0, n_periods=float(swept[-1] / math.pi))
    n_periods = float(swept[-1] / math.pi)
    if n_periods < 5.0:
        raise InsufficientSpan(
            f"run covers {n_periods:.2f} < 5 periods of the dominant oscillation")

    dcur = np.gradient(cur, ts)
    basis = np.column_stack([np.gradient(np.sin(2.0 * phi), ts),
                             np.gradient(np.cos(2.0 * phi), ts)])
    coef, *_ = np.linalg.lstsq(basis, dcur, rcond=None)
    fit = basis @ coef
    denom = np.std(dcur) * np.std(fit)
    corr = float(np.mean((dcur - dcur.mean()) * (fit - fit.mean())) / denom) \
        if denom > 0 else 0.0
    return CurrentFitReport(status="ok", correlation=corr,
                            amplitude=float(np.hypot(*coef)),
                            n_periods=n_periods)
