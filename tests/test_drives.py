"""Drive signals: invariants of each kind."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedatom import ConstantDrive, CosineDrive, RwaPairDrive
from dressedatom.errors import ValidationError


def test_cosine_values():
    d = CosineDrive(j0=2.0, omega=3.0)
    ts = np.linspace(0, 5, 50)
    assert np.allclose(d.j(ts), 2.0 * np.cos(3.0 * ts))
    assert np.allclose(d.dj(ts), -6.0 * np.sin(3.0 * ts))
    assert np.all(d.gamma(ts) == 0.0)


def test_cosine_zero_times():
    d = CosineDrive(j0=1.0, omega=2.0)
    zeros = d.coupling_zero_times(0.0, 4.0)
    expected = [(k + 0.5) * math.pi / 2.0 for k in range(3)]
    assert np.allclose(zeros, expected)
    assert np.allclose(np.abs(d.j(zeros)), 0.0, atol=1e-15)


@given(st.floats(0, 50))
@settings(max_examples=80, deadline=None)
def test_rwa_pair_constant_modulus(t):
    d = RwaPairDrive(j0=0.8, omega=1.3)
    q2 = float(d.j(t)) ** 2 + float(d.gamma(t)) ** 2
    assert q2 == pytest.approx(0.8 ** 2, abs=1e-15)


def test_rwa_pair_derivatives():
    d = RwaPairDrive(j0=1.1, omega=0.9)
    ts = np.linspace(0, 7, 40)
    assert np.allclose(d.dj(ts), -1.1 * 0.9 * np.sin(0.9 * ts))
    assert np.allclose(d.dgamma(ts), 1.1 * 0.9 * np.cos(0.9 * ts))


def test_constant_drive():
    d = ConstantDrive(j0=0.5, gamma0=0.3)
    assert d.frame_coupling(0.0) == pytest.approx(math.hypot(0.5, 0.3))
    assert float(d.dj(1.0)) == 0.0
    assert len(d.coupling_zero_times(0, 10)) == 0


def test_negative_amplitude_rejected():
    with pytest.raises(ValidationError):
        CosineDrive(j0=-1.0, omega=1.0)
    with pytest.raises(ValidationError):
        RwaPairDrive(j0=-0.1, omega=1.0)

