"""Direct integrator: Hamiltonian surfaces, propagation, comparisons."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dressedatom import (ConstantDrive, CosineDrive, Model, ScenarioConfig,
                         compare, current_dynamics_check,
                         initial_state_for_psi_frame, propagate)
from dressedatom.closedform import dressed_series
from dressedatom import oracle
from dressedatom.errors import StepTooLarge, ValidationError
from dressedatom.oracle import (_CHUNK, MAX_STEPS, _rk4_run, _scan, _step_matrices,
                                bare_state, enforced_step_bound, output_grid, step_count)
from test_drives import bare_pair


def hamiltonian(model, kind, t):
    """Bare-basis H(t) = [[V1, J+iG], [J-iG, V2]], V2 = E2 - Omega
    recoil-shifted, as the model states it: V1 = off - wt, V2 = off + wt.
    The bare pair of the drive ``kind`` is written out by ``bare_pair``."""
    j, g, _, _ = (float(x) for x in bare_pair(
        kind, model.drive.j0, model.omega, t, getattr(model.drive, "gamma0", 0.0)))
    v1 = model.off - model.omega_tilde
    v2 = model.off + model.omega_tilde
    return np.array([[v1, j + 1j * g], [j - 1j * g, v2]], dtype=complex)


# -------------------------------------------------------------- hamiltonian

def test_hamiltonian_no_coupling():
    model = ScenarioConfig(drive="constant", e1=0.3, e2=2.5, omega=1.2, j0=0.0).model()
    h = hamiltonian(model, "constant", 0.7)
    assert np.allclose(h, np.diag([0.3, 2.5 - 1.2]))


def test_hamiltonian_rwa_offdiagonal_rotates():
    model = ScenarioConfig(drive="rwa", e2=2.5, j0=0.8, omega=1.3).model()
    for t in (0.0, 0.4, 2.7):
        h = hamiltonian(model, "rwa", t)
        assert h[0, 1] == pytest.approx(0.8 * np.exp(1j * 1.3 * t))
        # the connection frame takes off the phase and keeps the modulus
        assert abs(h[0, 1]) == pytest.approx(float(model.drive.frame_coupling(t)))
        assert np.allclose(h, h.conj().T)  # hermitian by construction


def test_hamiltonian_cosine_zero_of_drive():
    h = hamiltonian(Model.of(CosineDrive(1.0, 2.0), 0.2), "cosine", math.pi / 4)
    assert h[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert h[0, 1].imag == 0.0


def test_frame_hamiltonian_constant_for_pair():
    # H_frame = offset + [[wt, q], [q, -wt]]: for the pair drive the frame
    # coupling q is the constant amplitude, so the whole matrix is constant
    model = ScenarioConfig(drive="rwa", e2=2.5, j0=0.8, omega=1.3).model()
    q = model.drive.frame_coupling(np.array([0.0, 0.4, 2.1, 17.3]))
    assert np.all(q == 0.8)
    assert model.omega_tilde == pytest.approx(0.6)


# ------------------------------------------------------------ initial state

def test_initial_state_identity_rotation():
    c0 = initial_state_for_psi_frame(Model.of(ConstantDrive(0.0, 0.0), 1.0))
    assert c0[0] == pytest.approx(1 / math.sqrt(2))
    assert c0[1] == pytest.approx(1 / math.sqrt(2))


def test_initial_state_resonant_cosine():
    c0 = initial_state_for_psi_frame(Model.of(CosineDrive(1.0, 1.0), 0.0))
    assert c0[0] == pytest.approx(0.0, abs=1e-15)
    assert c0[1] == pytest.approx(1.0)


def test_initial_state_345_unit_norm():
    c0 = initial_state_for_psi_frame(Model.of(CosineDrive(4.0, 1.0), 3.0))
    assert abs(np.linalg.norm(c0) - 1.0) <= 1e-14


# -------------------------------------------------------------- propagation

def test_propagate_stationary_state():
    model = Model.of(ConstantDrive(0.0), 0.8)
    res = propagate(model, bare_state(1), 10.0, 0.002, output_stride=20)
    assert np.max(np.abs(np.abs(res.c1) - 1.0)) <= 1e-12
    assert np.max(np.abs(res.current)) == 0.0


@pytest.mark.parametrize("c0", [np.zeros(2), np.ones(3), np.eye(2), np.array(1.0)],
                         ids=["zero", "three", "matrix", "scalar"])
def test_propagate_rejects_a_bad_initial_state(c0):
    # the initial state is a non-zero pair (c1, c2)
    model = Model.of(ConstantDrive(0.8), 0.6)
    with pytest.raises(ValidationError, match="initial state"):
        propagate(model, c0, 1.0, 0.001)


def test_propagate_step_bound_enforced():
    model = Model.of(ConstantDrive(0.8), 0.6)
    bound = enforced_step_bound(model)
    with pytest.raises(StepTooLarge):
        propagate(model, bare_state(1), 5.0, 2.0 * bound)


def test_output_grid_lands_on_t_end():
    # every stride-th step, and always the last: the grid the run keeps
    assert np.array_equal(output_grid(1.0, 0.25, 1), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(output_grid(1.0, 0.25, 3), [0.0, 0.75, 1.0])
    assert np.array_equal(output_grid(1.0, 0.25, 4), [0.0, 1.0])
    model = Model.of(CosineDrive(1.0, 1.0), 0.4)
    res = propagate(model, bare_state(1), 3.0, 0.0013, output_stride=7)
    assert np.array_equal(res.times, output_grid(3.0, 0.0013, 7))


def test_propagate_rwa_matches_jaynes_cummings():
    # the pair Hamiltonian is exactly solvable; the dressed projection, on
    # the psi-bar = 1 scale, must reproduce |sin(omega_r t)| over many periods
    model = Model.of(ConstantDrive(0.8), 0.6)
    c0 = initial_state_for_psi_frame(model)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, c0, 20 * math.pi, dt, output_stride=10)
    target = np.abs(np.sin(1.0 * res.times))
    assert np.max(np.abs(np.abs(res.psi0_oracle) - target)) <= 1e-6
    assert res.step_report.norm_drift <= 1e-8
    assert res.step_report.norm_ok


def test_rwa_frame_stability():
    model = Model.of(ConstantDrive(0.8), 0.6)
    c0 = initial_state_for_psi_frame(model)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, c0, 20 * math.pi, dt, output_stride=10)
    # the dressed amplitudes a+- = psi1 +- i psi0
    for a in (res.psi1_oracle + 1j * res.psi0_oracle, res.psi1_oracle - 1j * res.psi0_oracle):
        assert np.max(np.abs(a)) - np.min(np.abs(a)) <= 1e-6


def test_propagate_gauge_covariance():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    c0 = initial_state_for_psi_frame(model)
    phase = complex(math.cos(0.9), math.sin(0.9))
    c0p = phase * c0
    dt = enforced_step_bound(model) / 2
    a = propagate(model, c0, 6.0, dt, output_stride=25)
    b = propagate(model, c0p, 6.0, dt, output_stride=25)
    assert np.max(np.abs(np.abs(a.psi0_oracle) ** 2
                         - np.abs(b.psi0_oracle) ** 2)) <= 1e-13
    assert np.max(np.abs(a.current - b.current)) <= 1e-13


def test_richardson_reflects_step_halving():
    model = Model.of(ConstantDrive(0.8), 0.6)
    c0 = initial_state_for_psi_frame(model)
    bound = enforced_step_bound(model)
    r1 = propagate(model, c0, 10.0, bound / 2, output_stride=50)
    r2 = propagate(model, c0, 10.0, bound / 4, output_stride=100)
    ratio = r1.step_report.richardson_error / r2.step_report.richardson_error
    assert 2 ** 3.5 <= ratio <= 2 ** 4.5


# the resonant cosine at the step bound, also where its h^4 error term
# nearly vanishes (est/true 2.03); a detuned cosine and the constant
# envelope between bound/8 and the bound
@example(drive="cosine", wt=0.0, j0=0.9, omega=1.0, frac=1.0, t_end=12.0)
@example(drive="cosine", wt=0.0, j0=1.0, omega=1.40625, frac=1.0, t_end=11.125)
@example(drive="cosine", wt=-0.7, j0=1.4, omega=0.6, frac=0.3, t_end=7.5)
@example(drive="rwa", wt=0.6, j0=0.8, omega=1.3, frac=0.5, t_end=10.0)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(drive=st.sampled_from(["cosine", "rwa"]), wt=st.floats(-2.0, 2.0),
       j0=st.floats(0.0, 2.0), omega=st.floats(0.2, 3.0),
       frac=st.floats(0.125, 1.0), t_end=st.floats(0.5, 12.0))
def test_richardson_tracks_true_error(drive, wt, j0, omega, frac, t_end):
    # the coarse-partner estimate against the true error of the final
    # state, measured as the distance to a run at dt/8 (4096x more accurate).
    # With the error a h^4 + b h^5 and a partner step r h (r <= 2), the
    # estimate is |(r^4 - 1) a h^4 + (r^5 - 1) b h^5| / (r^4 - 1): the true
    # error where b vanishes, and (r^5 - 1)/(r^4 - 1) <= 31/15 times it where
    # a does (the resonant cosine near Omega t_end = k pi)
    model = Model(omega_tilde=wt, off=0.0, omega=omega, drive=_drive(drive, j0, omega))
    c0 = np.array([0.6, 0.8j])
    res = propagate(model, c0, t_end, frac * enforced_step_bound(model),
                    output_stride=MAX_STEPS)
    ref = propagate(model, c0, t_end, res.step_report.dt / 8, output_stride=MAX_STEPS)
    true = math.hypot(abs(res.c1[-1] - ref.c1[-1]), abs(res.c2[-1] - ref.c2[-1]))
    est = res.step_report.richardson_error
    assert math.isfinite(est) and est >= 0.0
    if true >= 1e-12:
        assert 0.5 * true <= est <= 31.0 / 15.0 * true


@pytest.mark.parametrize("n_steps", [1, 2, 3])
def test_richardson_few_steps(n_steps):
    # one step has no coarser partner: it is paired with two half steps,
    # the step-halving estimate (16/15) |y_h - y_{h/2}|
    model = Model.of(CosineDrive(1.2, 1.3), 0.4)
    dt = enforced_step_bound(model)
    c0 = np.array([0.6, 0.8j])
    res = propagate(model, c0, n_steps * dt, dt)
    est = res.step_report.richardson_error
    assert math.isfinite(est) and est >= 0.0
    if n_steps == 1:
        h1, h2, _ = _rk4_run(model, c0, 2, dt / 2, 2)
        u1, u2 = res.c1[-1], res.c2[-1]
        phase = np.exp(-1j * model.off * dt)  # the kept states carry it, h1 and h2 not
        half = (16.0 / 15.0) * math.hypot(abs(u1 - h1[-1] * phase),
                                          abs(u2 - h2[-1] * phase))
        assert est == pytest.approx(half, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 10, 2 * _CHUNK + 1])
def test_propagate_rk4_step_count(monkeypatch, n_steps):
    # the main run and a partner of ceil(n/2) steps (two at n = 1), both
    # keeping every 7th state, nothing else; only the main run tracks the
    # norm drift, the one propagate reports
    calls, drifts = [], []

    def spy(model, c0, n, dt, keep_every, track_drift=True):
        calls.append((n, keep_every))
        out = _rk4_run(model, c0, n, dt, keep_every, track_drift)
        drifts.append(out[2])
        return out

    monkeypatch.setattr(oracle, "_rk4_run", spy)
    model = Model.of(CosineDrive(1.2, 1.3), 0.4)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, bare_state(1), n_steps * dt, dt, output_stride=7)
    assert calls == [(n_steps, 7), (2 if n_steps == 1 else -(-n_steps // 2), 7)]
    assert drifts[0] == res.step_report.norm_drift >= 0.0
    assert drifts[1] is None


def test_richardson_partner_keeps_at_most_a_chunk_of_rows(monkeypatch):
    # only the partner's last row is read: at stride 1 its groups grow to
    # ceil(n_p / _CHUNK) steps, so it keeps at most _CHUNK + 1 rows, and
    # its final state is the one of a partner at the main stride
    rows = []

    def spy(model, c0, n, dt, keep_every, track_drift=True):
        out = _rk4_run(model, c0, n, dt, keep_every, track_drift)
        rows.append(len(out[0]))
        return out

    monkeypatch.setattr(oracle, "_rk4_run", spy)
    model = Model.of(CosineDrive(1.2, 1.3), 0.4)
    n_steps = 16 * _CHUNK
    dt = enforced_step_bound(model) / 2
    res = propagate(model, bare_state(1), n_steps * dt, dt, output_stride=1)
    assert rows[0] == n_steps + 1 and rows[1] <= _CHUNK + 1

    n_p = n_steps // 2
    p1, p2, _ = _rk4_run(model, np.array([1.0, 0.0], dtype=complex), n_p,
                         n_steps * dt / n_p, 1, track_drift=False)
    est = math.hypot(abs(res.u1[-1] - p1[-1]), abs(res.u2[-1] - p2[-1])) / 15.0
    assert res.step_report.richardson_error == pytest.approx(est, rel=0.0, abs=1e-14)


def test_resonance_equivalence_to_closed_form():
    model = Model.of(CosineDrive(1.0, 1.0), 0.0)
    c0 = initial_state_for_psi_frame(model)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, c0, 4 * math.pi, dt, output_stride=10)
    closed = dressed_series(model, res.times)
    assert np.max(np.abs(closed.p0_raw - res.p0)) <= 1e-6


# ------------------------------------------------------- chunked RK4 scan

def _drive(kind, j0, omega):
    """The drive of a "cosine" or "rwa" case; the rotating pair
    j0 e^{i omega t} is the constant envelope j0 of its connection frame,
    and its omega goes on the model."""
    return CosineDrive(j0, omega) if kind == "cosine" else ConstantDrive(j0)


def _rk4_loop(model, c0, n_steps, dt, keep_every):
    """The scalar RK4 loop the chunked scan replaced: the reference.

    It integrates the traceless generator -i (wt sigma_z + q sigma_x) and
    multiplies each kept row by the exact phase exp(-i off t) of the mean
    level off = Ebar12 - Omega/2.
    """
    wt, off = model.omega_tilde, model.off
    grid = np.arange(2 * n_steps + 1) * (0.5 * dt)
    q = np.asarray(model.drive.frame_coupling(grid), dtype=float)

    def deriv(qv, a, b):
        return -1j * (wt * a + qv * b), -1j * (qv * a - wt * b)

    def phased(k, a, b):
        ph = np.exp(-1j * off * (k * dt))
        return a * ph, b * ph

    a, b = complex(c0[0]), complex(c0[1])
    kept = [(a, b)]
    drift = 0.0
    for k in range(n_steps):
        q0, qh, q1 = q[2 * k], q[2 * k + 1], q[2 * k + 2]
        k1a, k1b = deriv(q0, a, b)
        k2a, k2b = deriv(qh, a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
        k3a, k3b = deriv(qh, a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
        k4a, k4b = deriv(q1, a + dt * k3a, b + dt * k3b)
        a = a + dt / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        b = b + dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)
        drift = max(drift, abs(math.sqrt(abs(a) ** 2 + abs(b) ** 2) - 1.0))
        if (k + 1) % keep_every == 0:
            kept.append(phased(k + 1, a, b))
    return kept, drift, phased(n_steps, a, b)


# edge cases: one step, keep_every beyond n_steps, just below, at and above
# one chunk, keep_every not dividing n_steps, several chunks; a shifted
# mean level (e1) exercises the exact phase; kept rows that cross one and
# two scan blocks of _CHUNK rows
@example(wt=0.4, j0=1.2, omega=1.3, e1=0.0, n_steps=1, keep_every=1, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, e1=0.0, n_steps=1, keep_every=5, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, e1=0.0, n_steps=_CHUNK - 1, keep_every=10, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, e1=0.0, n_steps=_CHUNK, keep_every=_CHUNK, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, e1=0.0, n_steps=_CHUNK + 1, keep_every=1, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, e1=40.0, n_steps=3 * _CHUNK + 17, keep_every=7,
         drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, e1=0.0, n_steps=10 * _CHUNK + 3, keep_every=10,
         drive="cosine")
@example(wt=-0.7, j0=0.9, omega=0.6, e1=0.0, n_steps=14 * _CHUNK + 5, keep_every=7,
         drive="rwa")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(wt=st.floats(-2.0, 2.0), j0=st.floats(0.0, 2.0),
       omega=st.floats(0.2, 3.0), e1=st.floats(-5.0, 5.0),
       n_steps=st.integers(1, 3 * _CHUNK + 100),
       keep_every=st.integers(1, 400), drive=st.sampled_from(["cosine", "rwa"]))
def test_rk4_scan_matches_loop(wt, j0, omega, e1, n_steps, keep_every, drive):
    model = Model(omega_tilde=wt, off=e1 + wt, omega=omega,
                  drive=_drive(drive, j0, omega))
    t_end = n_steps * (enforced_step_bound(model) / 2)
    c0 = np.array([0.6, 0.8j])
    res = propagate(model, c0, t_end, t_end / n_steps,
                    output_stride=keep_every)
    assert round(t_end / res.step_report.dt) == n_steps
    kept, drift, final = _rk4_loop(model, c0, n_steps, res.step_report.dt, keep_every)
    if n_steps % keep_every:
        kept.append(final)  # the last row is always the final state
    ref = np.array(kept)
    assert len(res.c1) == len(res.c2) == len(ref)
    assert np.max(np.abs(res.c1 - ref[:, 0])) <= 1e-12
    assert np.max(np.abs(res.c2 - ref[:, 1])) <= 1e-12
    assert abs(res.step_report.norm_drift - drift) <= 1e-12


def _check_stride(model, n_steps, keep_every, tol=1e-13, drift_tol=5e-14):
    """_rk4_run keeping every keep_every-th state agrees with keeping all.

    The two modes multiply the same step matrices (chunks start at
    multiples of _CHUNK at every stride) in a different order.  Against a
    long-double product of those matrices, over 14 chunks at keep_every 1,
    7 and 10, the cosine drive's rows are off by at most 1.4e-15 per chunk;
    the rwa drive's constant steps round alike in every chunk, so its rows
    drift by about 9e-15 per chunk in the plain scan and 4.4-8.8e-15
    grouped, and two strides differ by 0.55-1.9e-13 at 14 chunks.  Over the
    stride test's first 600 draws (up to 3 chunks) the rows differed by at
    most 1.1e-14 and the drifts by at most 5.5e-15.
    """
    dt = enforced_step_bound(model) / 2
    c0 = np.array([0.6, 0.8j])
    s1, s2, s_drift = _rk4_run(model, c0, n_steps, dt, 1)
    r1, r2, r_drift = _rk4_run(model, c0, n_steps, dt, keep_every)
    rows = np.arange(0, n_steps + 1, keep_every)
    if rows[-1] != n_steps:
        rows = np.append(rows, n_steps)  # the last row is always the final state
    assert len(r1) == len(r2) == len(rows)
    assert r1[0] == s1[0] and r2[0] == s2[0]
    assert np.max(np.abs(r1 - s1[rows])) <= tol
    assert np.max(np.abs(r2 - s2[rows])) <= tol
    assert abs(r_drift - s_drift) <= drift_tol


@pytest.mark.parametrize("n_steps", [1, 1024, 1025, 2049, 3089])
def test_rk4_reduction_matches_scan(n_steps):
    # keep_every >= n_steps keeps only the final state: one group, reduced
    # pairwise, with an odd fold for every odd length on the way down
    _check_stride(Model.of(CosineDrive(1.2, 1.3), 0.4), n_steps, n_steps,
                  tol=1e-14, drift_tol=1e-15)


@st.composite
def _stride_cases(draw):
    n_steps = draw(st.integers(1, 3 * _CHUNK + 100))
    keep_every = draw(st.one_of(
        st.just(1),
        st.sampled_from([2, 8, 64, _CHUNK // 4, _CHUNK]),          # divide the span
        st.integers(2, _CHUNK - 1).filter(lambda k: _CHUNK % k),    # do not
        st.integers(_CHUNK + 1, max(_CHUNK + 1, n_steps)),          # beyond the span
        st.integers(n_steps, n_steps + _CHUNK)))                    # the final state only
    return n_steps, keep_every


# chunk edges: n_steps at and one past a span; groups of 10 and of
# span - 1 ending in a partial group; groups longer than a span, ending in
# a partial group or spanning the whole run; kept rows that cross one and
# two scan blocks; groups of 7 over 14 chunks, each starting mid-group
@example(case=(_CHUNK, 1), drive="cosine", wt=0.4, j0=1.2, omega=1.3)
@example(case=(_CHUNK + 1, 1), drive="cosine", wt=0.4, j0=1.2, omega=1.3)
@example(case=(3 * _CHUNK + 17, 10), drive="cosine", wt=0.4, j0=1.2, omega=1.3)
@example(case=(3 * _CHUNK + 17, _CHUNK - 1), drive="rwa", wt=-0.7, j0=0.9, omega=0.6)
@example(case=(3 * _CHUNK, _CHUNK + 1), drive="cosine", wt=0.4, j0=1.2, omega=1.3)
@example(case=(2 * _CHUNK + 7, 2 * _CHUNK + 7), drive="rwa", wt=0.4, j0=1.2, omega=1.3)
@example(case=(10 * _CHUNK + 3, 10), drive="cosine", wt=0.4, j0=1.2, omega=1.3)
@example(case=(4 * _CHUNK + 5, 2), drive="rwa", wt=-0.7, j0=0.9, omega=0.6)
@example(case=(14 * _CHUNK + 5, 7), drive="cosine", wt=0.4, j0=1.2, omega=1.3)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_stride_cases(), drive=st.sampled_from(["cosine", "rwa"]),
       wt=st.floats(-2.0, 2.0), j0=st.floats(0.0, 2.0), omega=st.floats(0.2, 3.0))
def test_rk4_stride_matches_stride_one(case, drive, wt, j0, omega):
    # one kernel for every stride: reducing each group and scanning the
    # group products gives the rows and the drift of the plain scan
    _check_stride(Model(omega_tilde=wt, off=0.0, omega=omega,
                        drive=_drive(drive, j0, omega)), *case)


@pytest.mark.parametrize("keep_every", [7, 10])
def test_rk4_final_state_does_not_depend_on_stride(keep_every):
    # chunks start at multiples of _CHUNK at every stride, so each step
    # takes the same coupling and M_k; over 100 chunks of the cosine drive
    # at dt 1e-3 the final state then differs from a one-row run only by
    # the product order: at most 6.6e-15 over four configs (wt 0.3 to 2,
    # j0 0.5 to 1.5, keep_every 7 and 10), 3.9e-15 on this one (chunk edges
    # that move with the stride gave 8.7e-14 to 2.1e-13)
    model = Model(omega_tilde=0.3, off=0.0, omega=1.0, drive=CosineDrive(0.9, 1.0))
    c0 = np.array([0.6, 0.8j])
    r1, r2, _ = _rk4_run(model, c0, 100 * _CHUNK, 1e-3, keep_every)
    s1, s2, _ = _rk4_run(model, c0, 100 * _CHUNK, 1e-3, 100 * _CHUNK)
    assert max(abs(r1[-1] - s1[-1]), abs(r2[-1] - s2[-1])) <= 2e-14


@pytest.mark.parametrize("keep_every", [1, 10, 5 * _CHUNK + 123])
def test_drift_sums_det_deviations_within_their_squares(keep_every):
    # at the step bound of wt 0.3, j0 2, Omega 5 about a third of the step
    # dets exceed 1, so the drift needs the prefix extremes of the sums; the
    # run sums d = det M_k - 1 where log det M_k = log1p(d) is exact, and
    # the two prefix sums differ by at most sum(d^2) / 2
    model = Model.of(CosineDrive(2.0, 5.0), 0.3)
    dt = enforced_step_bound(model)
    n_steps = 5 * _CHUNK + 123
    u1, u2, drift = _rk4_run(model, np.array([0.6, 0.8j]), n_steps, dt, keep_every)
    coupling = model.drive.frame_coupling_grid(0.5 * dt, 2 * _CHUNK + 1)
    logdet, ref, sum_sq, above = 0.0, 0.0, 0.0, 0
    for k0 in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - k0)
        d = _step_matrices(model.omega_tilde, coupling(k0 * dt)[:2 * m + 1], dt,
                           np.empty((2, m), dtype=complex), det=True)
        run = logdet + np.cumsum(np.log1p(d))
        logdet = float(run[-1])
        ref = max(ref, float(np.max(np.abs(np.expm1(0.5 * run)))))
        sum_sq += float(np.sum(d * d))
        above += int(np.sum(d > 0))
    assert 0.2 * n_steps < above < 0.5 * n_steps
    norm = np.sqrt(u1.real ** 2 + u1.imag ** 2 + u2.real ** 2 + u2.imag ** 2)
    ref = max(ref, float(np.max(np.abs(norm[1:] - 1.0))))  # the kept states' check
    assert abs(drift - ref) <= sum_sq


@example(n=1, seed=0)
@example(n=2, seed=0)
@example(n=3, seed=0)
@example(n=_CHUNK - 1, seed=0)
@example(n=_CHUNK, seed=0)
@example(n=_CHUNK + 1, seed=0)
@example(n=2 * _CHUNK + 1, seed=0)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 2 * _CHUNK + 1), seed=st.integers(0, 2 ** 32 - 1))
def test_scan_matches_sequential_product(n, seed):
    # prefix products of RK4 step matrices, against multiplying them on
    # one by one: the work-efficient tree and the sequential order round
    # differently, by up to about 2e-14 at 2 * _CHUNK + 1 rows
    rng = np.random.default_rng(seed)
    a, b = out = np.empty((2, n), dtype=complex)
    _step_matrices(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0, 2 * n + 1),
                   rng.uniform(1e-4, 1e-2), out)
    ref_a, ref_b = np.empty_like(a), np.empty_like(b)
    pa = pb = 0j
    for k, (xa, xb) in enumerate(zip(a.tolist(), b.tolist())):
        pa, pb = (xa + pa + xa * pa - xb * pb.conjugate(),
                  xb + pb + xa * pb + xb * pa.conjugate())
        ref_a[k], ref_b[k] = pa, pb
    _scan(a, b)
    assert np.max(np.abs(a - ref_a)) <= 1e-13
    assert np.max(np.abs(b - ref_b)) <= 1e-13


def _rk4_increment(wt, q0, qh, q1, dt, y):
    """dt/6 (K1 + 2 K2 + 2 K3 + K4) of one classic RK4 step of
    y' = -i (wt sigma_z + x(t) sigma_x) y from y, x = q0, qh, qh, q1 at the
    four stages, in exact rationals: a complex number is a pair (re, im)
    of Fractions."""
    def deriv(x, y):
        (r0, i0), (r1, i1) = y
        u0, u1 = (wt * r0 + x * r1, wt * i0 + x * i1), (x * r0 - wt * r1, x * i0 - wt * i1)
        return (u0[1], -u0[0]), (u1[1], -u1[0])  # -i (re + i im) = im - i re

    def shift(c, k):
        return tuple((yr + c * kr, yi + c * ki) for (yr, yi), (kr, ki) in zip(y, k))

    k1 = deriv(q0, y)
    k2 = deriv(qh, shift(dt / 2, k1))
    k3 = deriv(qh, shift(dt / 2, k2))
    k4 = deriv(q1, shift(dt, k3))
    return tuple(tuple((s1 + 2 * s2 + 2 * s3 + s4) * dt / 6 for s1, s2, s3, s4 in zip(*ks))
                 for ks in zip(k1, k2, k3, k4))


@example(wt=0.0, frac=1.0, q=[0.7, -1.3, 2.0])
@example(wt=-2.5, frac=1.0, q=[0.4, 1.1, -0.3, 0.0, 2.9])
@example(wt=1.7, frac=1.0, q=[0.0, 0.0, 0.0])
@example(wt=0.0, frac=0.5, q=[0.0, 0.0, 0.0])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(wt=st.floats(-3.0, 3.0), frac=st.floats(1e-6, 1.0),
       q=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=61).map(
           lambda v: v[:len(v) - 1 + len(v) % 2]))
def test_step_matrices_closed_form(wt, frac, q):
    # the kernel's (a, b) against one classic RK4 step of each basis
    # vector, in exact arithmetic: M e1 - e1 = (a, -b*), M e2 - e2 = (b, a*);
    # and its det deviation against |1 + a|^2 + |b|^2 - 1 of the pair it wrote
    scale_q = max(abs(x) for x in q)
    dt = frac * enforced_step_bound(Model(omega_tilde=wt, off=0.0, omega=1.0,
                                          drive=ConstantDrive(scale_q)))
    a, b = out = np.empty((2, len(q) // 2), dtype=complex)
    d = _step_matrices(wt, np.array(q), dt, out, det=True)
    # an ulp of the scale, and a few of the smallest subnormal, where the
    # coefficients of a tiny wt underflow
    ulp = 2.0 ** -52 * dt * math.hypot(wt, scale_q) + 8 * 2.0 ** -1074
    one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    fw, fdt = Fraction(wt), Fraction(dt)
    for k in range(len(a)):
        q0, qh, q1 = (Fraction(x) for x in q[2 * k:2 * k + 3])
        (a_re, a_im), (c_re, c_im) = _rk4_increment(fw, q0, qh, q1, fdt, (one, zero))
        (b_re, b_im), (e_re, e_im) = _rk4_increment(fw, q0, qh, q1, fdt, (zero, one))
        assert (c_re, c_im, e_re, e_im) == (-b_re, b_im, a_re, -a_im)
        for got, want in ((a[k].real, a_re), (a[k].imag, a_im),
                          (b[k].real, b_re), (b[k].imag, b_im)):
            assert abs(Fraction(got) - want) <= 2 * ulp, k
        ra, ia, rb, ib = (Fraction(x) for x in (a[k].real, a[k].imag, b[k].real, b[k].imag))
        exact = (1 + ra) ** 2 + ia ** 2 + rb ** 2 + ib ** 2 - 1
        terms = 2 * abs(ra) + ra ** 2 + ia ** 2 + rb ** 2 + ib ** 2
        assert abs(Fraction(d[k]) - exact) <= 3 * 2.0 ** -52 * terms + 4 * 2.0 ** -1074, k


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shift=st.floats(-50.0, 50.0), wt=st.floats(-1.0, 1.0),
       j0=st.floats(0.1, 1.5), drive=st.sampled_from(["cosine", "rwa"]))
def test_common_level_shift_leaves_populations(shift, wt, j0, drive):
    # a common shift of e1 and e2 is a global phase: RK4 never sees it
    base = Model.of(_drive(drive, j0, 1.0), wt)
    shifted = replace(base, off=base.off + shift)
    dt = enforced_step_bound(base) / 2
    a, b = (propagate(m, initial_state_for_psi_frame(m), 4.0, dt, output_stride=10)
            for m in (base, shifted))
    assert np.max(np.abs(a.p0 - b.p0)) <= 1e-9
    assert np.max(np.abs(a.norm - b.norm)) <= 1e-9
    assert b.step_report.norm_ok
    assert abs(a.step_report.norm_drift - b.step_report.norm_drift) <= 1e-12


def test_rk4_scan_memory_does_not_grow_with_steps():
    # the scan holds one chunk of step matrices and the kept rows, never
    # arrays over the whole grid (the scalar loop peaked at 18 MiB here)
    model = Model.of(CosineDrive(1.2, 1.3), 0.4)
    n_steps = 400_000
    tracemalloc.start()
    try:
        _rk4_run(model, np.array([1.0, 0.0]), n_steps, 1e-3, n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("keep_every", [1, 10])
def test_rk4_group_products_live_in_the_kept_rows(keep_every):
    # beyond the kept rows themselves, the scratch of a run is one chunk
    # and one scan block: it does not grow with n_steps, and no second
    # array of the rows' size holds the group products; both runs fill
    # whole scan blocks of _CHUNK rows, at least 8 and 32 of them
    model = Model.of(CosineDrive(1.2, 1.3), 0.4)
    excess = []
    for n_steps in (8 * _CHUNK * keep_every, 32 * _CHUNK * keep_every):
        rows = -(-n_steps // keep_every) + 1
        tracemalloc.start()
        try:
            _rk4_run(model, np.array([1.0, 0.0]), n_steps, 1e-3, keep_every)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        excess.append(peak - 2 * 16 * rows)
    assert max(excess) < 2 ** 20
    assert excess[1] - excess[0] < 64 * 2 ** 10


def test_step_count_ceiling():
    assert step_count(10.0, 0.001) == 10_000
    assert step_count(1e-9, 1.0) == 1
    assert step_count(MAX_STEPS * 1e-3, 1e-3) == MAX_STEPS
    for t_end, dt in ((1e300, 1e-3), ((MAX_STEPS + 1) * 1e-3, 1e-3), (1.0, 1e-310)):
        with pytest.raises(ValidationError, match="ceiling"):
            step_count(t_end, dt)


# ------------------------------------------------------------------ compare

def test_compare_identical_series():
    ts = np.linspace(0, 5, 64)
    assert compare(np.sin(ts), np.sin(ts)) == {"MaxAbs": 0.0, "Rms": 0.0, "PhaseSlip": 0.0}
    # psi * conj(psi) keeps an imaginary part of round-off size
    rep = compare(np.exp(1j * ts), np.exp(1j * ts))
    assert (rep["MaxAbs"], rep["Rms"]) == (0.0, 0.0) and abs(rep["PhaseSlip"]) <= 1e-15


def test_compare_constant_offset():
    ts = np.linspace(0, 5, 64)
    p0 = np.sin(ts) ** 2
    rep = compare(np.sqrt(p0), np.sqrt(p0 + 1e-3))
    assert rep["MaxAbs"] == pytest.approx(1e-3)
    assert rep["Rms"] == pytest.approx(1e-3)


def test_compare_phase_slip_is_relative_winding():
    # psi0 changes sign at its zeros: each phase on its own jumps there by
    # pi, in a direction the last bit decides, while their difference does
    # not jump at all
    ts = np.linspace(0.0, 10.0, 1001)
    pc = np.sin(ts) + 0j
    assert abs(compare(pc, pc * np.exp(1e-13j))["PhaseSlip"]) <= 1e-12
    # a relative winding is counted over the rows where both |psi0| > 0.1
    ok = np.abs(pc) > 0.1
    rep = compare(pc * np.exp(0.5j * ts), pc)
    assert rep["PhaseSlip"] == pytest.approx(0.5 * (ts[ok][-1] - ts[ok][0]), rel=1e-12)


def test_compare_rwa_closed_vs_oracle():
    model = Model.of(ConstantDrive(0.8), 0.6)
    c0 = initial_state_for_psi_frame(model)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, c0, 20 * math.pi, dt, output_stride=10)
    closed = dressed_series(model, res.times)
    rep = compare(closed.psi0, res.psi0_oracle)
    assert rep["MaxAbs"] <= 1e-6
    assert abs(rep["PhaseSlip"]) <= 1e-9


# ---------------------------------------------------------- current dynamics

def test_resonant_population_transfer_law():
    # starting from the psi1 preparation (0, 1), the initially-empty bare
    # component fills as sin^2((j0/W) sin(W t)) -- forced by commutation
    model = Model.of(CosineDrive(1.0, 1.0), 0.0)
    c0 = initial_state_for_psi_frame(model)
    assert abs(c0[0]) <= 1e-15 and abs(c0[1]) == pytest.approx(1.0)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, c0, 10 * 2 * math.pi, dt, output_stride=10)
    beta = np.sin(res.times)
    assert np.max(np.abs(np.abs(res.c1) ** 2 - np.sin(beta) ** 2)) <= 1e-6


def test_current_insufficient_span():
    from dressedatom.errors import InsufficientSpan
    model = Model.of(ConstantDrive(0.4), 0.3)
    res = propagate(model, initial_state_for_psi_frame(model), 2.0, 0.001,
                    output_stride=2)
    with pytest.raises(InsufficientSpan):
        current_dynamics_check(res)


def test_current_no_oscillation():
    model = Model.of(ConstantDrive(0.0), 0.8)
    res = propagate(model, bare_state(1), 40.0, 0.002, output_stride=20)
    rep = current_dynamics_check(res)
    assert rep["status"] == "NoOscillation"


def test_current_fit_rwa():
    model = Model(omega_tilde=0.6, off=0.0, omega=1.3, drive=ConstantDrive(0.8))
    c0 = initial_state_for_psi_frame(model)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, c0, 20 * math.pi, dt, output_stride=5)
    rep = current_dynamics_check(res)
    assert abs(rep["correlation"]) >= 0.999
    assert rep["n_periods"] >= 5


def test_current_fit_resonant_cosine():
    model = Model.of(CosineDrive(1.0, 1.0), 0.0)
    c0 = initial_state_for_psi_frame(model)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, c0, 10 * 2 * math.pi, dt, output_stride=5)
    rep = current_dynamics_check(res)
    assert abs(rep["correlation"]) >= 0.99
