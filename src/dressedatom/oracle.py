"""Brute-force ground truth: direct integration of the two-level dynamics.

The model states the bare-basis operator H = [[V1, J + i*Gamma],
[J - i*Gamma, V2]] with V1 = E1 and the recoil-shifted V2 = E2 - hbar*Omega.
``propagate`` integrates it in the *connection frame*, co-rotating with the
coupling phase arg(J + i*Gamma), where the coupling is the real envelope
q(t) = drive.frame_coupling(t) and the detuning is omega_tilde for every
drive (wt and off come from the ``config.Model``):

    H_frame(t) = off * I + [[+wt, q(t)], [q(t), -wt]],   off = Ebar12 - Omega/2.

This is the frame the dressed construction diagonalises: for the
rotating-wave drive it is constant (``ConstantDrive(j0)``, the
Jaynes-Cummings point, solved exactly by |sin(omega_r t)|), and for the
cosine drive at resonance the matrices at different times commute.  The
bare matrix with its explicit e^{i Omega t} phases would double-count the
recoil already in V2 (its rotating frame carries detuning
omega_tilde - Omega/2), and neither exactness statement would survive.

RK4 integrates only the traceless part -i (wt sigma_z + q sigma_x); off is
a global phase, applied exactly as exp(-i off t) on the kept states.  RK4
does not keep the norm of a pure phase (|R(iy)| = 1 - y^6/144 + ...), so
integrating off would let a common shift of e1 and e2 change the
populations.  Fixed-step classic RK4 does the same arithmetic on every
run, so the CSV bytes are identical across runs.  A step is a 2x2 matrix
of the Cayley-Klein form [[a, b], [-b*, a*]] (Goldstein, Classical
Mechanics, sec. 4.5), stored as the pair (a, b) and held as its deviation
M_k - I (``_mul_dev``); ``_rk4_run`` multiplies the steps out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import Model
from .errors import InsufficientSpan, StepTooLarge, ValidationError
from .frames import mixing_angle, rabi_frequency, transition_current

MAX_STEPS = 10 ** 7  # ceiling on t_end/dt: a run stays minutes, not hours
NORM_TOL = 1e-8  # the norm drift above which a result is not norm_ok
# RK4 steps per chunk: it sets the scratch memory of _rk4_run
_CHUNK = 4096


@dataclass(frozen=True)
class StepReport:
    """How ``propagate`` stepped: the step ``dt`` it took, the steps of the
    main run and of its Richardson partner, the largest norm drift, the
    Richardson estimate, and whether the drift is within ``NORM_TOL``."""

    dt: float
    rk4_steps: int
    partner_steps: int
    norm_drift: float
    richardson_error: float
    norm_ok: bool


@dataclass
class PropagationResult:
    """The kept states of a run and what is derived from them.

    ``u1``, ``u2`` are the traceless run's states at ``times``.  The frame
    amplitudes ``c1``, ``c2`` (with the phase of the mean level), ``norm``,
    the dressed projections ``psi0_oracle``, ``psi1_oracle``, the population
    ``p0``, ``current`` and its slope ``dcurrent_dt`` are computed the
    first time they are read, and then kept.

    The projections are on the closed form's psi-bar = 1 scale: sqrt(2)
    times those of the unit-norm state the run carries, whose dressed
    amplitudes start at 1/sqrt(2).
    """

    times: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    model: Model
    step_report: StepReport

    @cached_property
    def _mean_phase(self) -> np.ndarray:
        return np.exp(-1j * self.model.off * self.times)

    @cached_property
    def c1(self) -> np.ndarray:
        return self.u1 * self._mean_phase

    @cached_property
    def c2(self) -> np.ndarray:
        return self.u2 * self._mean_phase

    @cached_property
    def norm(self) -> np.ndarray:
        return np.sqrt(np.abs(self.u1) ** 2 + np.abs(self.u2) ** 2)

    def _dressed(self) -> tuple[np.ndarray, np.ndarray]:
        """(a+, a-), the dressed amplitudes; not kept, as only the
        acceptance suite reads both projections."""
        cth, sth = mixing_angle(self.model, self.times)
        return cth * self.u1 + sth * self.u2, -sth * self.u1 + cth * self.u2

    @cached_property
    def psi0_oracle(self) -> np.ndarray:
        a_plus, a_minus = self._dressed()
        return math.sqrt(2.0) * ((a_plus - a_minus) / 2j)

    @cached_property
    def p0(self) -> np.ndarray:
        """|psi0_oracle|^2, comparable with the closed form's p0_raw."""
        return np.abs(self.psi0_oracle) ** 2

    @cached_property
    def psi1_oracle(self) -> np.ndarray:
        a_plus, a_minus = self._dressed()
        return math.sqrt(2.0) * ((a_plus + a_minus) / 2.0)

    @cached_property
    def current(self) -> np.ndarray:
        return transition_current(self.u1, self.u2)

    @cached_property
    def dcurrent_dt(self) -> np.ndarray:
        """np.gradient of ``current``; a run with t_end > 0 keeps at least
        two rows."""
        return np.gradient(self.current, self.times)


def initial_state_for_psi_frame(model: Model) -> np.ndarray:
    """Unit-norm state (c1, c2) whose dressed amplitudes are a+ = a- = 1/sqrt(2).

    c(0) = U^-1(theta(0)) (1, 1)^T / sqrt(2); on the psi-bar = 1 scale the
    occupied-state projection psi1_oracle starts at 1 and psi0_oracle at
    exactly zero.  The one frame without dressed states is the zero matrix,
    omega_tilde = f(0) = 0: a ValidationError.
    """
    if model.omega_tilde == 0.0 and model.drive.frame_coupling(0.0) == 0.0:
        raise ValidationError("initial_state 'dressed' needs a dressed frame at "
                              "t = 0, and omega_tilde = f(0) = 0 has none; use bare1 or bare2")
    cth, sth = mixing_angle(model, 0.0)
    inv = 1.0 / math.sqrt(2.0)
    return np.array([(cth - sth) * inv, (sth + cth) * inv], dtype=complex)


def bare_state(index: int) -> np.ndarray:
    """Basis preparation |1> or |2> (CLI alternative to the dressed frame)."""
    if index not in (1, 2):
        raise ValidationError("bare state index must be 1 or 2")
    return np.array([index == 1, index == 2], dtype=complex)


def enforced_step_bound(model: Model) -> float:
    """dt must not exceed min(2 pi / Omega, 2 pi / max|omega_r|) / 200.

    The mean level off = Ebar12 - Omega/2 is left out, correctly: RK4 no
    longer integrates it (its phase is applied exactly), so only Omega and
    the Rabi root set how fast the integrated part turns.
    """
    max_rabi = math.hypot(model.omega_tilde, model.drive.coupling_scale())
    fastest = max(model.omega, max_rabi, 1e-300)
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


def output_grid(t_end: float, dt: float, stride: int) -> np.ndarray:
    """The times of the kept states: every ``stride``-th step of the
    ``step_count`` grid, which lands exactly on t_end, and always the last.
    A stride of n_steps or more keeps the first and the last state; it is
    clamped to n_steps, so that a stride beyond int64 still gives an
    integer grid."""
    n_steps = step_count(t_end, dt)
    idx = np.arange(0, n_steps + 1, min(stride, n_steps))
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return idx * (t_end / n_steps)


def _mul_dev(xa, xb, ya, yb):
    """X <- (I + X)(I + Y) - I = X + (XY + Y) in place, for X = (xa, xb)
    and Y = (ya, yb).

    Held as deviations from the identity, products round relative to the
    deviation, so the rounding of a ~1 diagonal does not add up into a
    drift of the norm.  X is written once, from fresh arrays, so X and Y
    may be disjoint views into one array.
    """
    pa = xa * ya
    t = np.conj(yb)
    np.multiply(xb, t, out=t)
    pa -= t
    pb = xa * yb
    np.conj(ya, out=t)
    np.multiply(xb, t, out=t)
    pb += t
    pa += ya
    pb += yb
    xa += pa
    xb += pb


def _tree_order(w):
    """The order of a group's w steps in which every level of the pairwise
    reduction in ``_rk4_run`` multiplies two contiguous blocks of rows: a
    level of even length multiplies step 2j + 1 onto step 2j, so the even
    steps go first and the odd ones after them, each in the order of the
    next level; an odd length first folds step 0 into step 1.
    """
    if w == 1:
        return np.zeros(1, dtype=np.intp)
    if w % 2:
        return np.concatenate([[0], _tree_order(w - 1) + 1])
    half = _tree_order(w // 2)
    return np.concatenate([2 * half, 2 * half + 1])


def _step_matrices(wt: float, q: np.ndarray, dt: float, out: np.ndarray,
                   det: bool = False):
    """M_k - I = dt/6 (K1 + 2 K2 + 2 K3 + K4) as (a, b), for one chunk's steps.

    ``q`` holds the couplings at t_k and at the half points.  The generator
    at coupling x is A_x = -i (wt sigma_z + x sigma_x); A_x^2 = -r_x I with
    r_x = wt^2 + x^2, and A_x A_y = -(wt^2 + x y) I - i wt (y - x) sigma_y.
    So the four stages multiply out to real polynomials in r = r_qh, q0 q1,
    q0 +- q1 and qh, with every scalar factor folded into a coefficient,
    which are written into the real and imaginary parts of (a, b), the
    rows of ``out``: a (2, m) complex array, or the caller's padded slots.

    With ``det``, returns the det deviations d = det(M_k) - 1 =
    (Re a + 2) Re a + (Im a)^2 + (Re b)^2 + (Im b)^2, taken from the
    contiguous parts before they are written; otherwise None.
    """
    h2 = 0.25 * dt * dt
    ca, cb, cd = -dt * dt / 6.0, -dt * dt * wt / 6.0, -dt / 6.0
    q0, qh, q1 = q[:-1:2], q[1::2], q[2::2]
    r = qh * qh
    r += wt * wt
    s = q0 + q1
    # Re a = ca (r (1 - h^2 (wt^2 + q0 q1)) + qh s + 2 wt^2)
    ra = q0 * q1
    ra *= -ca * h2
    ra += ca * (1.0 - h2 * wt * wt)
    ra *= r
    t = qh * s
    t *= ca
    ra += t
    ra += 2.0 * ca * wt * wt
    # Im a = -dt wt (1 - 2/3 h^2 r); Re b = cb (1 - h^2 r)(q0 - q1)
    ia = r * ((2.0 / 3.0) * dt * wt * h2)
    ia -= dt * wt
    rb = r * (-cb * h2)
    rb += cb
    np.subtract(q0, q1, out=t)
    rb *= t
    # Im b = cd ((1 - 2 h^2 r) s + 4 qh), in the array of r, read no more
    ib = r
    ib *= -2.0 * cd * h2
    ib += cd
    ib *= s
    np.multiply(qh, 4.0 * cd, out=t)
    ib += t
    d = None
    if det:  # in the array of s, read no more
        d = np.add(ra, 2.0, out=s)
        d *= ra
        np.multiply(ia, ia, out=t)
        d += t
        np.multiply(rb, rb, out=t)
        d += t
        np.multiply(ib, ib, out=t)
        d += t
    a, b = out
    a.real, a.imag, b.real, b.imag = ra, ia, rb, ib
    return d


def _scan(a, b):
    """Inclusive prefix products of the stack (a, b), in place, in about
    2 n products (Blelloch, CMU-CS-90-190): the up-sweep leaves at i the
    product of the 2d rows ending there, for i + 1 a multiple of 2d, and
    the down-sweep completes the prefix at i + 1 = 3d, 5d, ... from i - d.
    """
    n, d = len(a), 1
    while 2 * d <= n:
        _mul_dev(a[2 * d - 1::2 * d], b[2 * d - 1::2 * d],
                 a[d - 1:n - d:2 * d], b[d - 1:n - d:2 * d])
        d *= 2
    while d > 1:
        d //= 2
        if 3 * d <= n:
            _mul_dev(a[3 * d - 1::2 * d], b[3 * d - 1::2 * d],
                     a[2 * d - 1:n - d:2 * d], b[2 * d - 1:n - d:2 * d])


def _rk4_run(model: Model, c0: np.ndarray, n_steps: int, dt: float,
             keep_every: int, track_drift: bool = True):
    """Fixed-grid RK4 on the traceless frame Hamiltonian, in two stages.

    Returns (u1, u2, drift): the states after steps 0, keep_every, ...
    and, last, n_steps, without the phase of the mean level, and the
    largest norm drift over every step (None unless ``track_drift``).  The
    g = min(keep_every, n_steps) steps up to a kept state form a group.

    Group products: chunks of ``_CHUNK`` steps start at multiples of
    ``_CHUNK`` at every stride, so a step's coupling (one
    ``frame_coupling_grid`` of the half step, anchored at the chunk's
    start) and its M_k do not depend on the stride.  A chunk's M_k are
    laid out in slots of w = min(g, _CHUNK + 1) steps, the first ending
    where the group of the chunk's first step ends, with identity steps
    (deviation zero) in front and behind.  A group that an earlier chunk
    began left its partial product in its row; that product goes into the
    entry just before the chunk's first step.  The slots are laid out
    step-major in ``_tree_order``, as (w, slots), reduced pairwise, and
    written to their rows.

    Block scan: after the last chunk, ``_scan`` turns each block of
    ``_CHUNK`` rows into prefix products, applied to the state carried in.
    The order of those products, and of the pairwise reduction, is what
    still depends on the stride.  det(M_k) scales the squared norm, so the
    drift sums the det deviations d_k = det(M_k) - 1 that ``_step_matrices``
    returns, det(I + X) = 1 + 2 Re a + |a|^2 + |b|^2, for log det(M_k) =
    log1p(d_k): a prefix sum moves by at most sum d_k^2 / 2 to leading
    order, and at the step bound of wt 0.3, j0 2, Omega 5 (|d_k| <= 4.7e-14)
    that is 1.1e-20 over ``MAX_STEPS`` steps.  There a third of the dets
    exceed 1, so the drift takes the extremes of the prefix sums; it also
    checks the block's states.
    """
    wt = model.omega_tilde
    g = min(keep_every, n_steps)
    w = min(g, _CHUNK + 1)  # a group, or a chunk of one and the product carried in
    order = _tree_order(w)
    coupling = model.drive.frame_coupling_grid(0.5 * dt, 2 * min(_CHUNK, n_steps) + 1)
    kept = np.empty((2, -(-n_steps // g) + 1), dtype=complex)
    u1, u2 = complex(c0[0]), complex(c0[1])
    kept[:, 0] = u1, u2
    logdet = 0.0
    drift = 0.0 if track_drift else None
    for k0 in range(0, n_steps, _CHUNK):
        k1 = min(k0 + _CHUNK, n_steps)
        # x: slots of w steps from step s0 on, the first ending with the
        # group of step k0 or after _CHUNK + 1 entries; x[:, i0:i1] are k0..k1
        s0 = min(k0 - k0 % g + g, k0 + _CHUNK) - w
        i0, i1, row = k0 - s0, k1 - s0, k0 // g + 1
        slots = -(-i1 // w)
        x = np.empty((2, slots * w), dtype=complex)
        x[:, :i0] = 0.0
        x[:, i1:] = 0.0
        if k0 % g:  # the product of the group's steps in earlier chunks
            x[:, i0 - 1] = kept[:, row]
        # coupling at t_k and the half points of this chunk's steps
        d = _step_matrices(wt, coupling(k0 * dt)[:2 * (k1 - k0) + 1], dt, x[:, i0:i1],
                           track_drift)
        if track_drift:
            d[0] += logdet
            run = np.cumsum(d, out=d)
            logdet = float(run[-1])
            # |norm - 1| = |expm1(run / 2)| after every step; expm1 is monotonic
            drift = max(drift, -math.expm1(0.5 * run.min()), math.expm1(0.5 * run.max()))
        # step-major (w, slots): a row holds one step of every group
        a, b = (y.reshape(slots, w).T[order] for y in x)
        lo, n = 0, w
        while n > 1:  # slot products M_{s0+(j+1)w-1} ... M_{s0+jw} - I, into row w - 1
            if n % 2:  # fold the first step into the next
                _mul_dev(a[lo + 1], b[lo + 1], a[lo], b[lo])
                lo, n = lo + 1, n - 1
            n //= 2
            _mul_dev(a[lo + n:lo + 2 * n], b[lo + n:lo + 2 * n], a[lo:lo + n], b[lo:lo + n])
            lo += n
        kept[:, row:row + slots] = a[-1], b[-1]
    for lo in range(1, len(kept[0]), _CHUNK):
        a, b = kept[:, lo:lo + _CHUNK]
        _scan(a, b)
        a[:], b[:] = a * u1 + b * u2 + u1, np.conj(a) * u2 - np.conj(b) * u1 + u2
        if track_drift:
            norm = np.sqrt(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2)
            drift = max(drift, float(np.max(np.abs(norm - 1.0))))
        u1, u2 = complex(a[-1]), complex(b[-1])
    return kept[0], kept[1], drift


def propagate(model: Model, c0, t_end: float, dt: float,
              output_stride: int = 1) -> PropagationResult:
    """Propagate i dc/dt = H_frame(t) c on a fixed grid and dress the output.

    ``c0`` is the initial pair (c1, c2), normalised on entry.  RK4
    integrates the traceless part; c1, c2 carry the exact phase
    exp(-i (Ebar12 - Omega/2) t) of the mean level.  The dressed projection
    recomputes theta(t) per output point from the frame functions (single
    source of truth) and is taken of the traceless states, so psi0/psi1,
    the norm and the current are free of that common phase.  Each of them
    is computed when the result is first asked for it.

    The Richardson estimate of the final state's error (Phil. Trans. R.
    Soc. A 210 (1911) 307; Hairer, Norsett & Wanner, Solving ODEs I,
    sec. II.4) is |y_h - y_p| / |(h_p/h)^4 - 1|, for a global error C h^4.
    The partner y_p is ``_rk4_run`` of n_p = ceil(n/2) steps of
    h_p = t_end/n_p, with groups of max(stride, ceil(n_p/_CHUNK)) steps;
    only its last row is read.  n = 1 takes n_p = 2, the step-halving pair
    (16/15).  An estimate below about 1e-14 is round-off, not truncation:
    it can move by any factor when the order of the products changes.

    ``_rk4_run`` starts its chunks at multiples of ``_CHUNK`` steps at
    every stride, so each step's coupling and matrix are the same for any
    ``output_stride``.  The stride still sets the order in which the steps
    are multiplied out (the groups, and the blocks of the scan), which
    moves a kept state by round-off: 6.6e-15 or less at 100 chunks of the
    cosine drive, up to 1.9e-13 at 14 chunks of a constant envelope.
    """
    if dt <= 0 or t_end <= 0:
        raise ValidationError("dt and t_end must be positive")
    bound = enforced_step_bound(model)
    if dt > bound * (1.0 + 1e-12):
        raise StepTooLarge(f"dt={dt:.3e} exceeds the enforced bound {bound:.3e}")
    if output_stride < 1:
        raise ValidationError("output_stride must be >= 1")

    times = output_grid(t_end, dt, output_stride)
    n_steps = step_count(t_end, dt)
    dt = t_end / n_steps  # land exactly on t_end
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (2,):
        raise ValidationError(f"initial state must have shape (2,), not {c0.shape}")
    c1, c2 = complex(c0[0]), complex(c0[1])
    norm = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    if norm == 0:
        raise ValidationError("initial state must be non-zero")
    c0 = c0 / norm

    u1, u2, drift = _rk4_run(model, c0, n_steps, dt, output_stride)
    # the partner step h_p ~ 2 dt may exceed enforced_step_bound: the bound
    # guards the accuracy of the main run, and the partner only estimates it
    n_p = 2 if n_steps == 1 else -(-n_steps // 2)
    # only the partner's last row is read: at most _CHUNK + 1 rows are kept
    p1, p2, _ = _rk4_run(model, c0, n_p, t_end / n_p,
                         max(output_stride, -(-n_p // _CHUNK)), track_drift=False)
    rich = math.hypot(abs(u1[-1] - p1[-1]), abs(u2[-1] - p2[-1])) \
        / abs((n_steps / n_p) ** 4 - 1.0)

    return PropagationResult(
        times=times, u1=u1, u2=u2, model=model,
        step_report=StepReport(dt=dt, rk4_steps=n_steps, partner_steps=n_p, norm_drift=drift,
                               richardson_error=rich, norm_ok=drift <= NORM_TOL),
    )


def compare(closed_psi0: np.ndarray, oracle_psi0: np.ndarray) -> dict:
    """Agreement metrics between closed-form and oracle psi0 on one grid:
    the report.json entry {"MaxAbs", "Rms", "PhaseSlip"}.

    MaxAbs and Rms compare |psi0|^2.  The phase slip is the change, from
    the first to the last row where both |psi0| > 0.1, of the unwrapped
    argument of closed_psi0 * conj(oracle_psi0).  Unwrapping the difference,
    not each phase on its own, keeps the exact pi jumps at the zeros of
    psi0, which both series share, out of it.
    """
    abs_c, abs_o = np.abs(closed_psi0), np.abs(oracle_psi0)
    dp = abs_c ** 2 - abs_o ** 2
    max_abs = float(np.max(np.abs(dp))) if len(dp) else 0.0
    rms = float(np.sqrt(np.mean(dp ** 2))) if len(dp) else 0.0
    ok = (abs_c > 0.1) & (abs_o > 0.1)
    phase_slip = 0.0
    if ok.any():
        dphi = np.unwrap(np.angle(closed_psi0[ok] * np.conj(oracle_psi0[ok])))
        phase_slip = float(dphi[-1] - dphi[0])
    return {"MaxAbs": max_abs, "Rms": rms, "PhaseSlip": phase_slip}


def current_dynamics_check(result: PropagationResult) -> dict:
    """Fit d(current)/dt against the harmonic of twice the accumulated phase.

    The model is current ~ A sin(2 int omega_r dt' + phi0) + const, fitted in
    the derivative-consistent form: least squares of the numerical
    d(current)/dt on {d/dt sin(2 Phi), d/dt cos(2 Phi)}.  Returns the
    report.json entry: ``status`` ("ok", or "NoOscillation" for a current
    that stays zero), the ``correlation`` of the signal with the fit, the
    amplitude A and the ``n_periods`` the run spans, all for the run's
    own model.
    """
    ts = result.times
    if len(ts) < 16:
        raise InsufficientSpan("too few output points for a fit")
    wr = rabi_frequency(result.model, ts)
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (wr[1:] + wr[:-1]) * np.diff(ts))])
    # span measured against the unsigned phase: at resonance the signed
    # integral oscillates around zero while cycles keep accumulating
    abs_wr = np.abs(wr)
    n_periods = float(np.sum(0.5 * (abs_wr[1:] + abs_wr[:-1]) * np.diff(ts)) / math.pi)

    cur = result.current
    if np.max(np.abs(cur)) < 1e-13:
        return {"status": "NoOscillation", "correlation": 0.0, "amplitude": 0.0,
                "n_periods": n_periods}
    if n_periods < 5.0:
        raise InsufficientSpan(
            f"run covers {n_periods:.2f} < 5 periods of the dominant oscillation")

    dcur = result.dcurrent_dt
    basis = np.column_stack([np.gradient(np.sin(2.0 * phi), ts),
                             np.gradient(np.cos(2.0 * phi), ts)])
    coef, *_ = np.linalg.lstsq(basis, dcur, rcond=None)
    fit = basis @ coef
    denom = np.std(dcur) * np.std(fit)
    corr = float(np.mean((dcur - dcur.mean()) * (fit - fit.mean())) / denom) \
        if denom > 0 else 0.0
    return {"status": "ok", "correlation": corr, "amplitude": float(np.hypot(*coef)),
            "n_periods": n_periods}
