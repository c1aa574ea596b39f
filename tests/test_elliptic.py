"""E(phi, k) as closedform.phase_series evaluates it on the positive root,
against quadrature of the defining integral and the integral's own
identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dressedatom import BranchMode, CosineDrive, Model, phase_series


def ellip_e(phi, k):
    # with wt = sqrt(1 - k^2), j0 = k and W = 1 the prefactor is 1 and the
    # modulus is k, so Re Z(t = phi) on the positive root is E(phi, k) itself
    wt = math.sqrt(1.0 - k * k)
    model = Model.of(CosineDrive(j0=k, omega=1.0), wt, branch=BranchMode.POSITIVE_ROOT)
    return float(phase_series(model, np.array([float(phi)]))[0].real)


def e_quadrature(phi, k):
    # full_output silences the roundoff-limited warning; the value is still
    # far more accurate than any bound asserted against it
    return quad(lambda u: math.sqrt(1.0 - (k * math.sin(u)) ** 2), 0.0, phi,
                limit=400, epsabs=1e-14, epsrel=1e-14, full_output=1)[0]


def test_e_zero_modulus_is_identity():
    for phi in (0.3, 1.0, 2.5):
        assert ellip_e(phi, 0.0) == pytest.approx(phi, abs=1e-14)


def test_e_complete_unit_modulus():
    assert ellip_e(math.pi / 2, 1.0) == 1.0


def test_e_quadrature_point():
    assert abs(ellip_e(1.0, 0.6) - e_quadrature(1.0, 0.6)) <= 1e-11


def test_e_unit_modulus_is_sine_in_first_quadrant():
    for phi in (0.2, 0.7, 1.2):
        assert ellip_e(phi, 1.0) == pytest.approx(math.sin(phi), abs=1e-12)


def test_e_oddness():
    # the integrand is even about pi/2, so E(phi) - E(pi/2) is odd about it;
    # phi = pi/2 +- 0.9 lie in two different sections of the reduction
    for k in (0.2, 0.8):
        quarter = ellip_e(math.pi / 2, k)
        assert ellip_e(math.pi / 2 + 0.9, k) - quarter == pytest.approx(
            quarter - ellip_e(math.pi / 2 - 0.9, k), rel=1e-14)


@pytest.mark.parametrize("k", [0.0, 0.3, 0.9])
def test_e_additivity(k):
    twoe = 2.0 * ellip_e(math.pi / 2, k)
    for phi in np.linspace(0.0, math.pi, 17):
        assert abs(ellip_e(phi + math.pi, k) - ellip_e(phi, k) - twoe) <= 1e-12


@given(st.floats(0.0, math.pi), st.floats(0.0, 0.999))
@settings(max_examples=100, deadline=None)
def test_e_oracle_equivalence(phi, k):
    assert abs(ellip_e(phi, k) - e_quadrature(phi, k)) <= 1e-10


@given(st.floats(0.01, 3.0), st.floats(0.01, 3.1), st.floats(0.0, 0.99))
@settings(max_examples=60, deadline=None)
def test_e_monotone_in_phi(phi1, dphi, k):
    assert ellip_e(phi1 + dphi, k) > ellip_e(phi1, k)


def test_unbounded_amplitude_reduction():
    # many periods out, the reduction must stay accurate
    k, phi = 0.7, 37.5
    assert abs(ellip_e(phi, k) - e_quadrature(phi, k)) <= 1e-9
