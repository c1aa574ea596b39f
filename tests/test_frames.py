"""Model-core: detuning, Rabi root, mixing angle, connection, identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedatom import (AtomConfig, BranchMode, ConstantDrive, CosineDrive,
                         RwaPairDrive, Tolerances, connection_dtheta, detuning,
                         identity_residuals, mixing_angle, rabi_frequency,
                         transition_current)
from dressedatom.errors import DegenerateFrameError
from dressedatom.frames import _dtheta_bracket_form, theta_of_t

SMOOTH = BranchMode.SMOOTH_CONTINUATION
POSITIVE = BranchMode.POSITIVE_ROOT


def cfg_wt(wt, j0=1.0, omega=1.0):
    return AtomConfig.from_detuning(wt, j0, omega_drive=omega)


# ------------------------------------------------------------------ config

def test_atom_config_invariants():
    with pytest.raises(Exception, match="omega_drive"):
        AtomConfig(omega_drive=0.0)
    with pytest.raises(Exception, match="j0"):
        AtomConfig(j0=-0.5)
    with pytest.raises(Exception, match="hbar"):
        AtomConfig(hbar=0.0)
    # recoil-shifted level may have any sign
    AtomConfig(e1=0.0, e2=0.1, omega_drive=5.0)


def test_tolerances_validation():
    with pytest.raises(Exception):
        Tolerances(quad_tol=-1.0).validate()
    Tolerances().validate()


# ---------------------------------------------------------------- detuning

def test_detuning_resonance():
    assert detuning(AtomConfig(e1=0, e2=2, omega_drive=2, j0=1)) == 0.0


def test_detuning_positive():
    assert detuning(AtomConfig(e1=0, e2=3, omega_drive=2, j0=1)) == 0.5


def test_detuning_degenerate_levels():
    assert detuning(AtomConfig(e1=1, e2=1, omega_drive=2, j0=1)) == -1.0


def test_detuning_hbar_conversion():
    a = AtomConfig(e1=0, e2=6, omega_drive=2, j0=1, hbar=2.0)
    assert detuning(a) == pytest.approx((6 / 2 - 2) / 2)


# ---------------------------------------------------------- rabi frequency

def test_rabi_single_term():
    cfg = cfg_wt(0.0, j0=1.0)
    drv = ConstantDrive(1.0)
    assert rabi_frequency(cfg, drv, 0.0, POSITIVE) == pytest.approx(1.0)


def test_rabi_345():
    cfg = cfg_wt(3.0, j0=4.0)
    drv = ConstantDrive(4.0)
    assert rabi_frequency(cfg, drv, 0.0, POSITIVE) == pytest.approx(5.0)


def _tracked_eigenvalue(cfg, drv, ts):
    """Independent oracle: follow one eigenvalue curve of the instantaneous
    traceless matrix through the degeneracy by eigenvector continuity."""
    wt = detuning(cfg)
    prev_vec = None
    curve = []
    for t in ts:
        j = float(drv.j(t))
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
    cfg = cfg_wt(0.0, j0=1.0, omega=1.0)
    drv = CosineDrive(1.0, 1.0)
    t = 3 * math.pi / 4
    assert rabi_frequency(cfg, drv, t, SMOOTH) == pytest.approx(math.cos(t))
    ts = np.linspace(0.0, 3.0, 601)
    tracked = _tracked_eigenvalue(cfg, drv, ts)
    got = rabi_frequency(cfg, drv, ts, SMOOTH)
    assert np.max(np.abs(got - tracked)) < 1e-10


def test_rabi_positive_root_is_abs():
    cfg = cfg_wt(0.0, j0=1.0, omega=1.0)
    drv = CosineDrive(1.0, 1.0)
    ts = np.linspace(0.0, 8.0, 200)
    assert np.all(rabi_frequency(cfg, drv, ts, POSITIVE) >= 0)


def test_radicand_ordering():
    for wt in (-2.0, -0.3, 0.0, 0.7, 4.0):
        cfg = cfg_wt(wt, j0=1.3, omega=1.1)
        drv = CosineDrive(1.3, 1.1)
        ts = np.linspace(0, 12, 500)
        for branch in (SMOOTH, POSITIVE):
            wr = rabi_frequency(cfg, drv, ts, branch)
            assert np.all(np.abs(wr) >= abs(wt) - 1e-15)


# ------------------------------------------------------------ mixing angle

def test_mixing_no_coupling():
    cfg = cfg_wt(1.0, j0=0.0)
    assert mixing_angle(cfg, ConstantDrive(0.0), 0.0) == pytest.approx((1.0, 0.0))


def test_mixing_resonant_symmetric():
    cfg = cfg_wt(0.0, j0=1.0)
    c, s = mixing_angle(cfg, ConstantDrive(1.0), 0.0, POSITIVE)
    assert (c, s) == pytest.approx((1 / math.sqrt(2), 1 / math.sqrt(2)))


def test_mixing_345_against_eigenvector_oracle():
    cfg = cfg_wt(3.0, j0=4.0)
    drv = ConstantDrive(4.0)
    c, s = mixing_angle(cfg, drv, 0.0)
    assert (c, s) == pytest.approx((8 / math.sqrt(80), 4 / math.sqrt(80)))
    # independent oracle: eigendecomposition of [[-wt, J-iG], [J+iG, wt]],
    # matched up to phase
    m = np.array([[-3.0, 4.0], [4.0, 3.0]], dtype=complex)
    vals, vecs = np.linalg.eigh(m)
    v = vecs[:, 0]  # eigenvalue -5 pairs with the (cos, sin) magnitudes
    assert np.allclose(np.abs(v), [c, s], atol=1e-12)


def test_mixing_eigenvector_oracle_with_connection():
    cfg = cfg_wt(0.7, j0=0.0)
    drv = ConstantDrive(0.9, 1.2)
    c, s = mixing_angle(cfg, drv, 0.5)
    wt = detuning(cfg)
    j, g = 0.9, 1.2
    m = np.array([[-wt, j - 1j * g], [j + 1j * g, wt]])
    vals, vecs = np.linalg.eigh(m)
    v = vecs[:, 0]
    assert np.allclose(np.abs(v), [c, s], atol=1e-12)


def test_mixing_degenerate_raises():
    cfg = cfg_wt(0.0, j0=0.0)
    with pytest.raises(DegenerateFrameError):
        mixing_angle(cfg, ConstantDrive(0.0), 0.0)


def test_unit_circle_many():
    rng = np.random.default_rng(7)
    for _ in range(50):
        wt = rng.uniform(-3, 3)
        j0 = rng.uniform(0.05, 4)
        cfg = cfg_wt(wt, j0=j0, omega=1.3)
        drv = CosineDrive(j0, 1.3)
        t = rng.uniform(0, 10)
        try:
            c, s = mixing_angle(cfg, drv, t)
        except DegenerateFrameError:
            continue
        assert abs(c * c + s * s - 1.0) < 1e-12


# -------------------------------------------------------------- connection

def test_connection_zero_constant():
    cfg = cfg_wt(0.4, j0=1.0)
    ts = np.linspace(0, 25, 1500)
    dth = connection_dtheta(cfg, ConstantDrive(1.0, 0.6), ts)
    assert np.max(np.abs(dth)) <= 1e-12


def test_connection_zero_rwa_pair():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.3)
    ts = np.linspace(0, 25, 1500)
    dth = connection_dtheta(cfg, RwaPairDrive(0.8, 1.3), ts)
    assert np.max(np.abs(dth)) <= 1e-12


def test_connection_zero_resonant_cosine():
    cfg = cfg_wt(0.0, j0=1.0)
    ts = np.linspace(0, 25, 1500)
    dth = connection_dtheta(cfg, CosineDrive(1.0, 1.0), ts)
    assert np.max(np.abs(dth)) <= 1e-12


def test_connection_matches_finite_difference_of_theta():
    cfg = cfg_wt(0.5, j0=1.0, omega=1.0)
    drv = CosineDrive(1.0, 1.0)
    t, h = 0.3, 1e-3
    fd = (theta_of_t(cfg, drv, t - 2 * h) - 8 * theta_of_t(cfg, drv, t - h)
          + 8 * theta_of_t(cfg, drv, t + h) - theta_of_t(cfg, drv, t + 2 * h))
    fd = fd / (12 * h)
    got = float(connection_dtheta(cfg, drv, t))
    assert abs(got - fd) <= 1e-7


def test_connection_bracket_form_equivalent():
    cfg = cfg_wt(0.8, j0=1.4, omega=2.0)
    drv = CosineDrive(1.4, 2.0)
    ts = np.linspace(0.05, 1.4, 40)  # stays inside the first lobe
    a = connection_dtheta(cfg, drv, ts)
    b = _dtheta_bracket_form(cfg, drv, ts)
    assert np.max(np.abs(a - b)) < 1e-12


def test_connection_finite_at_coupling_zero():
    cfg = cfg_wt(0.5, j0=1.0, omega=1.0)
    drv = CosineDrive(1.0, 1.0)
    t0 = math.pi / 2  # exact coupling zero
    val = float(connection_dtheta(cfg, drv, t0))
    assert math.isfinite(val)
    # one-sided limit: wt * |dq/dt| / (2 wr^2) with wr = |wt|
    expected = 0.5 * 1.0 / (2 * 0.25)
    assert abs(val) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------- identities

def test_identities_constant_exact_zero():
    cfg = cfg_wt(0.4, j0=1.0)
    r1, r2, r3 = identity_residuals(cfg, ConstantDrive(1.0, 0.6), np.array([0.5, 2.0]))
    assert np.all(r1 == 0.0)
    assert np.all(r2 == 0.0)
    assert np.all(r3[np.isfinite(r3)] == 0.0)


def test_identities_rwa_r1():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.3)
    ts = np.linspace(0.1, 9.0, 300)
    r1, _, _ = identity_residuals(cfg, RwaPairDrive(0.8, 1.3), ts)
    assert np.max(np.abs(r1)) <= 1e-12


def test_identities_cosine_dense():
    cfg = cfg_wt(0.7, j0=1.3, omega=2.1)
    drv = CosineDrive(1.3, 2.1)
    ts = np.linspace(0.02, 10.0, 1000)
    zeros = drv.coupling_zero_times(0.0, 11.0)
    dist = np.min(np.abs(ts[:, None] - np.asarray(zeros)[None, :]), axis=1)
    ts = ts[dist > 5e-3]
    r1, r2, r3 = identity_residuals(cfg, drv, ts)
    assert np.max(np.abs(r1)) <= 1e-8
    assert np.max(np.abs(r2)) <= 1e-8
    assert np.nanmax(np.abs(r3)) <= 1e-8


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

