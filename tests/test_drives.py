"""Drive signals: invariants of each kind, and the connection-frame envelope
against the bare coupling pair (J, Gamma) it stands for."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedatom import ConstantDrive, CosineDrive, ScenarioConfig, parse_config
from dressedatom.errors import ValidationError


def bare_pair(kind, j0, omega, t, gamma0=0.0):
    """(J, Gamma, J', Gamma') of each configured drive, written out.

    cosine    J = j0 cos(omega t), Gamma = 0
    rwa       J + i Gamma = j0 e^{i omega t}
    constant  J = j0, Gamma = gamma0
    """
    t = np.asarray(t, dtype=float)
    c, s = np.cos(omega * t), np.sin(omega * t)
    zero = np.zeros_like(t)
    if kind == "cosine":
        return j0 * c, zero, -j0 * omega * s, zero
    if kind == "rwa":
        return j0 * c, j0 * s, -j0 * omega * s, j0 * omega * c
    return zero + j0, zero + gamma0, zero, zero


def config_drive(kind, j0, omega, gamma0=0.0):
    """The drive the config surface builds for one kind."""
    return ScenarioConfig(drive=kind, j0=j0, omega=omega, gamma0=gamma0).model().drive


def test_cosine_values():
    d = CosineDrive(j0=2.0, omega=3.0)
    ts = np.linspace(0, 5, 50)
    assert np.allclose(d.frame_coupling(ts), 2.0 * np.cos(3.0 * ts))
    assert np.allclose(d.frame_coupling_rate(ts), -6.0 * np.sin(3.0 * ts))
    assert d.coupling_scale() == 2.0


def coupling_zeros(drive, t):
    """The isolated coupling zeros in (0, t], listed: (k + 1/2) pi / omega
    for a cosine drive with j0 > 0, none otherwise."""
    if not isinstance(drive, CosineDrive) or drive.j0 == 0.0:
        return []
    k = np.arange(math.floor(drive.omega * t / math.pi - 0.5) + 1)
    return list((k + 0.5) * math.pi / drive.omega)


@pytest.mark.parametrize("omega", [0.3, 2.0, 7.7])
def test_coupling_zero_count_matches_sign_changes(omega):
    # the count of zeros in (0, t] is the count of the sign changes of
    # cos(omega t) on a dense grid up to t (no zero falls on a grid point)
    d = CosineDrive(j0=1.0, omega=omega)
    ts = np.linspace(0.0, 20.0, 400_001)
    flips = np.concatenate([[0], np.cumsum(np.diff(np.cos(omega * ts) > 0))])
    assert np.array_equal(d.coupling_zero_count(ts), flips)
    assert flips[-1] == round(omega * 20.0 / math.pi)
    zeros = coupling_zeros(d, 20.0)
    assert len(zeros) == flips[-1]
    assert np.all(np.abs(d.frame_coupling(zeros)) <= 4.0 * np.spacing(omega * 20.0))


def test_coupling_zero_count_edges():
    # none at t = 0 (scalar in, scalar out); none for j0 = 0, where the
    # envelope vanishes identically, nor for the constant envelope
    ts = np.linspace(0.0, 50.0, 101)
    assert CosineDrive(1.0, 2.0).coupling_zero_count(0.0) == 0.0
    assert np.shape(CosineDrive(1.0, 2.0).coupling_zero_count(0.0)) == ()
    for d in (CosineDrive(0.0, 2.0), ConstantDrive(0.5, 0.3), ConstantDrive(0.0)):
        assert np.array_equal(d.coupling_zero_count(ts), np.zeros_like(ts))
        assert d.coupling_zero_count(0.0) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["cosine", "rwa", "constant"]),
       j0=st.floats(0.0, 3.0), omega=st.floats(0.1, 5.0),
       gamma0=st.floats(-2.0, 2.0), t=st.floats(0.0, 50.0))
def test_envelope_is_gauge_invariant(kind, j0, omega, gamma0, t):
    # the envelope keeps what the gauge keeps: |f| = |J + i Gamma| and
    # f f' = J J' + Gamma Gamma'
    gamma0 = gamma0 if kind == "constant" else 0.0
    drive = config_drive(kind, j0, omega, gamma0)
    j, g, dj, dg = (float(x) for x in bare_pair(kind, j0, omega, t, gamma0))
    f, df = float(drive.frame_coupling(t)), float(drive.frame_coupling_rate(t))
    assert abs(abs(f) - math.hypot(j, g)) <= 1e-15 * math.hypot(j, g)
    assert abs(f * df - (j * dj + g * dg)) <= 1e-15 * (abs(j * dj) + abs(g * dg))


@given(st.floats(0, 50))
@settings(max_examples=80, deadline=None)
def test_rwa_pair_constant_modulus(t):
    # the rotating pair j0 e^{i omega t} is the constant envelope j0 of its
    # connection frame; omega stays on the model
    model = ScenarioConfig(drive="rwa", j0=0.8, omega=1.3).model()
    assert model.drive == ConstantDrive(0.8)
    assert model.omega == 1.3
    assert float(model.drive.frame_coupling(t)) == 0.8
    j, g, _, _ = bare_pair("rwa", 0.8, 1.3, t)
    assert float(j) ** 2 + float(g) ** 2 == pytest.approx(0.8 ** 2, abs=1e-15)


def test_rwa_pair_derivatives():
    # the written-out pair differentiates right, and its modulus is
    # stationary: J J' + Gamma Gamma' vanishes, as the envelope rate does
    ts = np.linspace(0, 7, 40)
    h = 1e-4
    j, g, dj, dg = bare_pair("rwa", 1.1, 0.9, ts)
    jp, gp, _, _ = bare_pair("rwa", 1.1, 0.9, ts + h)
    jm, gm, _, _ = bare_pair("rwa", 1.1, 0.9, ts - h)
    assert np.allclose(dj, (jp - jm) / (2 * h), atol=1e-8)
    assert np.allclose(dg, (gp - gm) / (2 * h), atol=1e-8)
    assert np.max(np.abs(j * dj + g * dg)) <= 1e-15
    assert np.all(config_drive("rwa", 1.1, 0.9).frame_coupling_rate(ts) == 0.0)


def test_constant_drive():
    d = ConstantDrive(j0=0.5, gamma0=0.3)
    assert d.frame_coupling(0.0) == pytest.approx(math.hypot(0.5, 0.3))
    assert float(d.frame_coupling_rate(1.0)) == 0.0
    assert d.coupling_scale() == math.hypot(0.5, 0.3)
    assert np.array_equal(d.coupling_zero_count(np.array([0.0, 10.0])), [0.0, 0.0])


def test_negative_amplitude_rejected():
    with pytest.raises(ValidationError):
        CosineDrive(j0=-1.0, omega=1.0)
    with pytest.raises(ValidationError):
        CosineDrive(j0=1.0, omega=0.0)


def test_constant_drive_rejects_negative_amplitude():
    # a negative j0 must not turn silently into the envelope |j0|
    with pytest.raises(ValidationError, match="j0"):
        ConstantDrive(-1.0)
    with pytest.raises(ValidationError, match="j0"):
        ConstantDrive(-0.1, gamma0=0.5)
    for kind in ("rwa", "constant"):
        with pytest.raises(ValidationError, match="j0"):
            parse_config(f'{{"drive": "{kind}", "j0": -1}}')


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["cosine", "rwa", "constant"]),
       j0=st.floats(0.0, 3.0), omega=st.floats(0.1, 5.0),
       gamma0=st.floats(-2.0, 2.0), t0=st.floats(0.0, 1e4),
       h=st.floats(1e-6, 0.1), n=st.integers(1, 8193))
def test_coupling_grid_matches_frame_coupling(kind, j0, omega, gamma0, t0, h, n):
    # the table the oracle takes its couplings from is f itself: each entry
    # a product of at most log2(n) phasors, off by a few ulps of omega t
    # (scaled by j0); the constant envelope exactly
    gamma0 = gamma0 if kind == "constant" else 0.0
    drive = config_drive(kind, j0, omega, gamma0)
    t = t0 + np.arange(n) * h
    grid = drive.frame_coupling_grid(h, n)
    got, want = grid(t0), drive.frame_coupling(t)
    assert got.shape == (n,)
    if kind == "cosine":
        tol = 4.0 * j0 * (np.spacing(omega * t) + np.finfo(float).eps)
        assert np.all(np.abs(got - want) <= tol)
    else:
        assert np.array_equal(got, want)
