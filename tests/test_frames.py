"""Model-core: detuning, Rabi root, mixing angle, connection, identities."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedatom import (BranchMode, ConstantDrive, CosineDrive, Model,
                         ScenarioConfig,
                         connection_dtheta, identity_residuals, mixing_angle,
                         initial_state_for_psi_frame, rabi_frequency,
                         transition_current)
from dressedatom.errors import ValidationError
from dressedatom.frames import FD_STEP, near_coupling_zero, theta_of_t
from test_drives import bare_pair, config_drive, coupling_zeros

SMOOTH = BranchMode.SMOOTH_CONTINUATION
POSITIVE = BranchMode.POSITIVE_ROOT


def _dtheta_bracket_form(model, t):
    """Two-factor form of the connection (sign already corrected).

    dtheta/dt = -[f f'/(omega_r q)] *
                 [1 - (wt + omega_r)(wt + 2 omega_r) / ((wt + omega_r)^2 + q^2)]

    with q = |f|.  Singular at coupling zeros: the reference for the
    reduced form.
    """
    wt, drive = model.omega_tilde, model.drive
    f = drive.frame_coupling(t)
    q = np.abs(f)
    wr = np.sqrt(wt * wt + q * q)
    u = wt + wr
    p = f * drive.frame_coupling_rate(t)
    bracket = 1.0 - u * (wt + 2.0 * wr) / (u * u + q * q)
    return -(p / (wr * q)) * bracket


# ------------------------------------------------------------------- model

def test_model_invariants():
    with pytest.raises(ValidationError, match="omega"):
        Model(omega_tilde=0.5, off=0.0, omega=0.0, drive=ConstantDrive(1.0))
    with pytest.raises(ValidationError, match="j0"):
        CosineDrive(j0=-0.5, omega=1.0)
    with pytest.raises(ValidationError, match="finite"):
        Model.of(CosineDrive(1.0, 1.0), math.inf)
    with pytest.raises(ValidationError, match="overflows"):
        Model.of(CosineDrive(1e200, 1.0), 0.5)
    # recoil-shifted level may have any sign
    ScenarioConfig(e1=0.0, e2=0.1, omega=5.0).model()


def test_model_thresholds():
    model = Model.of(CosineDrive(2.0, 1.0), 0.5)
    assert not model.crossing
    assert Model.of(CosineDrive(2.0, 1.0), 1e-7).crossing
    assert not Model.of(CosineDrive(2.0, 1.0), 1e-5).crossing
    # no coupling: only an exact zero detuning lets the radicand vanish
    assert Model.of(ConstantDrive(0.0), 0.0).crossing
    assert not Model.of(ConstantDrive(0.0), 1e-100).crossing


# ---------------------------------------------------------------- detuning

def _model(**kw):
    return ScenarioConfig(**kw).model()


def test_detuning_resonance():
    assert _model(e1=0, e2=2, omega=2, j0=1).omega_tilde == 0.0


def test_detuning_positive():
    assert _model(e1=0, e2=3, omega=2, j0=1).omega_tilde == 0.5


def test_detuning_degenerate_levels():
    assert _model(e1=1, e2=1, omega=2, j0=1).omega_tilde == -1.0


def test_detuning_hbar_conversion():
    m = _model(e1=0, e2=6, omega=2, j0=1, hbar=2.0)
    assert m.omega_tilde == pytest.approx((6 / 2 - 2) / 2)
    assert m.off == pytest.approx(6 / 4 - 1)
    assert m.drive.j0 == 0.5


# ---------------------------------------------------------- rabi frequency

def test_rabi_single_term():
    model = Model.of(ConstantDrive(1.0), 0.0, branch=POSITIVE)
    assert rabi_frequency(model, 0.0) == pytest.approx(1.0)


def test_rabi_345():
    model = Model.of(ConstantDrive(4.0), 3.0, branch=POSITIVE)
    assert rabi_frequency(model, 0.0) == pytest.approx(5.0)


def _tracked_eigenvalue(model, ts):
    """Independent oracle: follow one eigenvalue curve of the instantaneous
    traceless matrix through the degeneracy by eigenvector continuity."""
    wt = model.omega_tilde
    prev_vec = None
    curve = []
    for t in ts:
        j = float(model.drive.frame_coupling(t))
        m = np.array([[wt, j], [j, -wt]])
        vals, vecs = np.linalg.eigh(m)
        if prev_vec is None:
            pick = int(np.argmax(vals))  # start on the +omega_r branch
        else:
            overlaps = np.abs(vecs.T @ prev_vec)
            pick = int(np.argmax(overlaps))
        prev_vec = vecs[:, pick]
        curve.append(vals[pick])
    return np.array(curve)


def test_rabi_smooth_continuation_resonance():
    # smooth branch follows the eigenvalue curve through the crossing
    model = Model.of(CosineDrive(1.0, 1.0), 0.0)
    t = 3 * math.pi / 4
    assert rabi_frequency(model, t) == pytest.approx(math.cos(t))
    ts = np.linspace(0.0, 3.0, 601)
    tracked = _tracked_eigenvalue(model, ts)
    got = rabi_frequency(model, ts)
    assert np.max(np.abs(got - tracked)) < 1e-10


def test_rabi_positive_root_is_abs():
    model = Model.of(CosineDrive(1.0, 1.0), 0.0, branch=POSITIVE)
    ts = np.linspace(0.0, 8.0, 200)
    assert np.all(rabi_frequency(model, ts) >= 0)


def test_radicand_ordering():
    for wt in (-2.0, -0.3, 0.0, 0.7, 4.0):
        ts = np.linspace(0, 12, 500)
        for branch in (SMOOTH, POSITIVE):
            wr = rabi_frequency(Model.of(CosineDrive(1.3, 1.1), wt, branch=branch), ts)
            assert np.all(np.abs(wr) >= abs(wt) - 1e-15)


# ------------------------------------------------------------ mixing angle

def test_mixing_no_coupling():
    model = Model.of(ConstantDrive(0.0), 1.0)
    assert mixing_angle(model, 0.0) == pytest.approx((1.0, 0.0))


def test_mixing_resonant_symmetric():
    c, s = mixing_angle(Model.of(ConstantDrive(1.0), 0.0, branch=POSITIVE), 0.0)
    assert (c, s) == pytest.approx((1 / math.sqrt(2), 1 / math.sqrt(2)))


def test_mixing_345_against_eigenvector_oracle():
    c, s = mixing_angle(Model.of(ConstantDrive(4.0), 3.0), 0.0)
    assert (c, s) == pytest.approx((8 / math.sqrt(80), 4 / math.sqrt(80)))
    # independent oracle: eigendecomposition of [[-wt, J-iG], [J+iG, wt]],
    # matched up to phase
    m = np.array([[-3.0, 4.0], [4.0, 3.0]], dtype=complex)
    vals, vecs = np.linalg.eigh(m)
    v = vecs[:, 0]  # eigenvalue -5 pairs with the (cos, sin) magnitudes
    assert np.allclose(np.abs(v), [c, s], atol=1e-12)


def test_mixing_eigenvector_oracle_with_connection():
    # independent oracle: eigendecomposition of [[-wt, J-iG], [J+iG, wt]],
    # matched up to phase, on a time grid; for wt < 0 the angle is near
    # pi/2 wherever the coupling is weak, where a form with wt + |omega_r|
    # in it cancels
    omega, ts = 1.3, np.linspace(0.0, 10.0, 101)
    cases = [("constant", 0.9, 1.2, 0.7)] + [
        ("cosine", j0, 0.0, wt) for wt in (-3.0, -1.0, -0.5) for j0 in (1.0, 1e-3, 1e-6)]
    for kind, j0, gamma0, wt in cases:
        model = Model.of(config_drive(kind, j0, omega, gamma0), wt)
        c, s = mixing_angle(model, ts)
        j, g, _, _ = bare_pair(kind, j0, omega, ts, gamma0)
        for i in range(len(ts)):
            m = np.array([[-wt, j[i] - 1j * g[i]], [j[i] + 1j * g[i], wt]])
            v = np.linalg.eigh(m)[1][:, 0]
            assert np.max(np.abs(np.abs(v) - [c[i], s[i]])) <= 1e-15, (kind, j0, wt, ts[i])


def test_mixing_degenerate_raises():
    # the zero matrix is diagonalised by any angle: the mixing angle takes
    # theta = 0, but there is no dressed state to prepare the oracle in
    model = Model.of(ConstantDrive(0.0), 0.0)
    assert mixing_angle(model, 0.0) == (1.0, 0.0)
    with pytest.raises(ValidationError, match="^initial_state 'dressed'"):
        initial_state_for_psi_frame(model)


def test_unit_circle_many():
    rng = np.random.default_rng(7)
    for _ in range(50):
        wt = rng.uniform(-3, 3)
        j0 = rng.uniform(0.05, 4)
        model = Model.of(CosineDrive(j0, 1.3), wt)
        t = rng.uniform(0, 10)
        c, s = mixing_angle(model, t)
        assert abs(c * c + s * s - 1.0) < 1e-12


# -------------------------------------------------------------- connection

def test_connection_zero_constant():
    ts = np.linspace(0, 25, 1500)
    dth = connection_dtheta(Model.of(ConstantDrive(1.0, 0.6), 0.4), ts)
    assert np.max(np.abs(dth)) <= 1e-12


def test_connection_zero_rwa_pair():
    # the reduced form on the written-out rotating pair vanishes to
    # round-off; on its envelope, the constant j0, it vanishes exactly
    ts = np.linspace(0, 25, 1500)
    wt = 0.6
    j, g, dj, dg = bare_pair("rwa", 0.8, 1.3, ts)
    bare = wt * (j * dj + g * dg) / (np.hypot(j, g) * 2.0 * (wt * wt + j * j + g * g))
    assert np.max(np.abs(bare)) <= 1e-12
    model = ScenarioConfig(drive="rwa", e2=2 * wt + 1.3, j0=0.8, omega=1.3).model()
    assert np.all(connection_dtheta(model, ts) == 0.0)


def test_connection_zero_resonant_cosine():
    ts = np.linspace(0, 25, 1500)
    dth = connection_dtheta(Model.of(CosineDrive(1.0, 1.0), 0.0), ts)
    assert np.max(np.abs(dth)) <= 1e-12


def test_connection_matches_finite_difference_of_theta():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    t, h = 0.3, 1e-3
    fd = (theta_of_t(model, t - 2 * h) - 8 * theta_of_t(model, t - h)
          + 8 * theta_of_t(model, t + h) - theta_of_t(model, t + 2 * h))
    fd = fd / (12 * h)
    got = float(connection_dtheta(model, t))
    assert abs(got - fd) <= 1e-7


def test_connection_bracket_form_equivalent():
    model = Model.of(CosineDrive(1.4, 2.0), 0.8)
    ts = np.linspace(0.05, 1.4, 40)  # stays inside the first lobe
    a = connection_dtheta(model, ts)
    b = _dtheta_bracket_form(model, ts)
    assert np.max(np.abs(a - b)) < 1e-12


def test_connection_finite_at_coupling_zero():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    t0 = math.pi / 2  # exact coupling zero
    val = float(connection_dtheta(model, t0))
    assert math.isfinite(val)
    # one-sided limit: wt * |dq/dt| / (2 wr^2) with wr = |wt|
    expected = 0.5 * 1.0 / (2 * 0.25)
    assert abs(val) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- identities

def test_identities_constant_exact_zero():
    model = Model.of(ConstantDrive(1.0, 0.6), 0.4)
    r1, r2, r3 = identity_residuals(model, np.array([0.5, 2.0]))
    assert np.all(r1 == 0.0)
    assert np.all(r2 == 0.0)
    assert np.all(r3[np.isfinite(r3)] == 0.0)


def test_identities_rwa_r1():
    # the rotating pair's envelope is constant: every residual is exactly 0
    ts = np.linspace(0.1, 9.0, 300)
    model = ScenarioConfig(drive="rwa", e2=2 * 0.6 + 1.3, j0=0.8, omega=1.3).model()
    r1, r2, r3 = identity_residuals(model, ts)
    assert np.all(r1 == 0.0)
    assert np.all(r2 == 0.0)
    assert np.all(r3[np.isfinite(r3)] == 0.0)


def test_identities_cosine_dense():
    model = Model.of(CosineDrive(1.3, 2.1), 0.7)
    ts = np.linspace(0.02, 10.0, 1000)
    zeros = coupling_zeros(model.drive, 11.0)
    dist = np.min(np.abs(ts[:, None] - np.asarray(zeros)[None, :]), axis=1)
    near = dist <= 5e-3
    assert np.array_equal(near_coupling_zero(model, ts), near)
    r1, r2, r3 = identity_residuals(model, ts)
    # r2 and r3 differentiate the envelope |J|: NaN next to its kinks
    assert np.all(np.isnan(r2[near])) and np.all(np.isnan(r3[near]))
    r1, r2, r3 = r1[~near], r2[~near], r3[~near]
    assert np.max(np.abs(r1)) <= 1e-8
    assert np.max(np.abs(r2)) <= 1e-8
    assert np.nanmax(np.abs(r3)) <= 1e-8


@pytest.mark.parametrize("branch", [SMOOTH, POSITIVE])
def test_identities_r1_smooth_at_resonant_coupling_zeros(branch):
    # at omega_tilde = 0 the Rabi root |omega_r| = |f| has a kink at every
    # coupling zero; r1 differentiates omega_r^2 = f^2 instead, so it stays
    # at round-off on every row, the zeros themselves included
    model = Model.of(CosineDrive(0.9, 1.0), 0.0, branch=branch)
    zeros = np.asarray(coupling_zeros(model.drive, 12.0))
    ts = np.sort(np.concatenate([np.linspace(0.0, 12.0, 12001), zeros,
                                 zeros - 2e-3, zeros + 3e-3]))
    r1, _, _ = identity_residuals(model, ts)
    assert len(zeros) == 4
    assert np.all(np.isfinite(r1))
    assert np.max(np.abs(r1)) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(omega=st.floats(0.05, 20.0), ts=st.lists(st.floats(0.0, 60.0), max_size=200))
def test_near_coupling_zero_matches_dense(omega, ts):
    # the mask against the distance to every zero of an explicit list, on
    # rows that are not a rounding away from the edge at 5 FD_STEP
    model = Model.of(CosineDrive(0.9, omega), 0.2)
    zeros = np.array(coupling_zeros(model.drive, 61.0))
    reach = 5.0 * FD_STEP
    for grid in (np.array(ts), np.arange(0.0, 60.0, 1e-3), zeros,
                 np.concatenate([zeros - 0.99 * reach, zeros + 1.01 * reach])):
        dist = functools.reduce(np.minimum, (np.abs(grid - z) for z in zeros))
        clear = np.abs(dist - reach) > 1e-12
        assert np.array_equal(near_coupling_zero(model, grid)[clear], (dist <= reach)[clear])


# ----------------------------------------------------------------- current

def test_current_examples():
    assert transition_current(1.0, 0.0) == 0.0
    assert transition_current(1 / math.sqrt(2), 1 / math.sqrt(2)) == 0.0
    assert transition_current(1 / math.sqrt(2), 1j / math.sqrt(2)) == pytest.approx(-0.5)


@given(st.floats(-math.pi, math.pi),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_current_global_phase_invariance(phi, c1, c2):
    ph = complex(math.cos(phi), math.sin(phi))
    before = transition_current(c1, c2)
    after = transition_current(ph * c1, ph * c2)
    assert abs(before - after) <= 1e-14 * max(1.0, abs(c1) * abs(c2))

