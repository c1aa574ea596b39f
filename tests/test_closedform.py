"""Closed-form phase integral, dressed solution, elliptic phase, limits."""

import cmath
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipeinc

from dressedatom import (BranchMode, ConstantDrive, CosineDrive, Model,
                         ScenarioConfig, psi0_gamma_zero_integrand)
from dressedatom.closedform import DEG_EPS, dressed_series, phase_series
from dressedatom.config import RAD_EPS
from dressedatom.errors import DomainError
from dressedatom.frames import connection_dtheta, rabi_frequency
from dressedatom.scenario import dominant_frequency, parse_config, run_scenario
from test_drives import coupling_zeros

SMOOTH = BranchMode.SMOOTH_CONTINUATION
POSITIVE = BranchMode.POSITIVE_ROOT


def phase_at(model, t):
    """Z(t) as a complex: phase_series on a one-point grid."""
    return complex(phase_series(model, np.array([float(t)]))[0])


def dressed_at(model, t):
    """The dressed state at one time: dressed_series on a one-point grid."""
    out = dressed_series(model, np.array([float(t)]))
    return SimpleNamespace(**{k: getattr(out, k)[0] for k in
                              ("phase", "psi0", "psi1", "p0_raw", "p1_raw", "p0_norm")})


def connection_phase_quadrature(model, t):
    """int_0^t dtheta/dt dt' by quadrature: the reference for the shortcut
    theta(t) - theta(0).

    The connection jumps at every coupling zero (sign of the envelope
    derivative), so those are always break points.
    """
    zeros = coupling_zeros(model.drive, t)
    return quad(lambda s: float(connection_dtheta(model, s)), 0.0, t,
                points=zeros or None, limit=400, epsabs=1e-13, epsrel=1e-13)[0]


def riemann_phase(model, t, n=10_000_000):
    """Brute-force midpoint-rule oracle for both parts of Z(t).

    Cells are aligned to the coupling zeros, where the connection integrand
    has a jump (the |J| kink); a cell straddling the jump would cost ~dt/2
    of spurious error on the imaginary part.
    """
    edges = [0.0] + [float(z) for z in coupling_zeros(model.drive, t)] + [t]
    re = im = 0.0
    chunk = 1_000_000
    for a, b in zip(edges[:-1], edges[1:]):
        seg = b - a
        m_total = max(1, int(round(n * seg / t)))
        dt = seg / m_total
        done = 0
        while done < m_total:
            m = min(chunk, m_total - done)
            ts = a + (done + np.arange(m) + 0.5) * dt
            re += float(np.sum(rabi_frequency(model, ts))) * dt
            im += float(np.sum(connection_dtheta(model, ts))) * dt
            done += m
    return complex(re, im)


# ------------------------------------------------------------ phase integral

def test_phase_rwa_345():
    z = phase_at(Model.of(ConstantDrive(0.8), 0.6), 2.0)
    assert z.real == pytest.approx(2.0, abs=1e-12)
    assert z.imag == pytest.approx(0.0, abs=1e-14)


def test_phase_resonant_cosine_antiderivative():
    model = Model.of(CosineDrive(1.3, 0.9), 0.0)
    for t in (0.5, 2.0, 5.5, 9.0):
        z = phase_at(model, t)
        assert z.real == pytest.approx((1.3 / 0.9) * math.sin(0.9 * t), abs=1e-10)
        assert z.imag == pytest.approx(0.0, abs=1e-12)


def test_phase_against_dense_riemann_oracle():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    z = phase_at(model, 3.0)
    ref = riemann_phase(model, 3.0)
    assert abs(z.real - ref.real) <= 1e-8
    assert abs(z.imag - ref.imag) <= 1e-8


@pytest.mark.parametrize("wt", [0.5, 1.7, -0.4])
def test_imaginary_shortcut_matches_quadrature(wt):
    model = Model.of(CosineDrive(1.0, 1.0), wt)
    for t in (0.7, 2.0, 4.9):
        z = phase_at(model, t)
        ref = connection_phase_quadrature(model, t)
        assert abs(z.imag - ref) <= 1e-9


def test_phase_series_matches_pointwise():
    model = Model.of(CosineDrive(1.2, 1.4), 0.8)
    ts = np.linspace(0.0, 6.0, 25)
    zs = phase_series(model, ts)
    for i in (3, 11, 24):
        z = phase_at(model, ts[i])
        assert abs(zs[i] - z) <= 1e-9


@pytest.mark.parametrize("start,n", [(1.3, 25), (0.0, 1500)])
def test_phase_series_offset_and_multi_block_grids(start, n):
    # every point is evaluated on its own: a grid not starting at 0 and a
    # long grid give the pointwise values
    model = Model.of(CosineDrive(1.2, 1.4), 0.8)
    ts = np.linspace(start, 6.0, n)
    zs = phase_series(model, ts)
    for i in (0, 3, n // 2, n - 1):
        z = phase_at(model, ts[i])
        assert abs(zs[i] - z) <= 1e-9


def test_phase_nonfinite_integrand_raises():
    # the model rejects a NaN coupling before the phase sees it
    from dressedatom.errors import ValidationError
    with pytest.raises(ValidationError):
        Model.of(CosineDrive(math.nan, 1.0), 0.5)


def test_phase_series_rejects_bad_grid():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    with pytest.raises(DomainError):
        phase_series(model, np.array([-1.0, 1.0]))
    # any order is a grid: each point is independent of the others
    ts = np.array([0.0, 2.0, 1.0])
    assert np.array_equal(phase_series(model, ts)[::-1], phase_series(model, ts[::-1]))


# Exactness over random parameters; derandomized so the suite is repeatable.
_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
_J0 = st.floats(0.05, 2.0)
_OMEGA = st.floats(0.3, 3.0)
_T = st.floats(0.0, 20.0)
_N = st.integers(2, 40)


@given(wt=st.floats(-2.0, 2.0), j0=_J0, omega=_OMEGA, t=_T, n=_N)
@_PROPERTY
def test_positive_branch_cosine_is_elliptic(wt, j0, omega, t, n):
    ts = np.linspace(0.0, t, n)
    z = phase_series(Model.of(CosineDrive(j0, omega), wt, branch=POSITIVE), ts)
    amp = math.hypot(wt, j0)
    ref = (amp / omega) * ellipeinc(omega * ts, (j0 / amp) ** 2)
    assert np.max(np.abs(z.real - ref)) <= 1e-9


@given(j0=_J0, omega=_OMEGA, t=_T, n=_N)
@_PROPERTY
def test_resonant_cosine_population_is_exact(j0, omega, t, n):
    ts = np.linspace(0.0, t, n)
    out = dressed_series(Model.of(CosineDrive(j0, omega), 0.0), ts)
    ref = np.sin((j0 / omega) * np.sin(omega * ts)) ** 2
    assert np.max(np.abs(out.p0_raw - ref)) <= 1e-9


@given(wt=st.floats(-2.0, 2.0), j0=st.floats(0.0, 2.0), omega=_OMEGA, t=_T, n=_N)
@_PROPERTY
def test_rotating_pair_phase_is_linear(wt, j0, omega, t, n):
    ts = np.linspace(0.0, t, n)
    model = ScenarioConfig(drive="rwa", e2=2.0 * wt + omega, j0=j0, omega=omega).model()
    z = phase_series(model, ts)
    assert np.max(np.abs(z.real - math.hypot(wt, j0) * ts)) <= 1e-9


_WT = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)


@given(wt=_WT, omega=_OMEGA, t=st.floats(0.0, 1000.0), n=_N)
@_PROPERTY
def test_zero_coupling_cosine_phase_is_bare(wt, omega, t, n):
    # without coupling the dressed frame is the bare frame: Re Z = |wt| t
    # to the last bit, and the mixing angle never moves
    ts = np.linspace(0.0, t, n)
    z = phase_series(Model.of(CosineDrive(0.0, omega), wt), ts)
    assert np.array_equal(z.real, abs(wt) * ts)
    assert np.array_equal(z.imag, np.zeros_like(ts))


@given(wt=_WT, rel=st.floats(1e-12, 1e-2), omega=_OMEGA, t=st.floats(0.0, 1000.0), n=_N)
@_PROPERTY
def test_weak_coupling_phase_meets_the_bare_phase(wt, rel, omega, t, n):
    # continuity at the j0 = 0 seam.  For 0 < j0 < |wt| the radicand never
    # vanishes and Re Z = int_0^t sqrt(wt^2 + j0^2 cos^2) exceeds |wt| t by
    # at least 0 and at most j0^2 t / (2 |wt|), as sqrt(a^2 + x) - a lies in
    # [0, x / (2a)].  With u the unit round-off 2^-52, the computed
    # Re Z = (A/W) (E(r, m) + 2n E(m)) carries ~2.3 u of relative error from
    # each elliptic value (the 5e-16 of _ellipe), 1 u each from
    # r = W t - n pi, the sum, A = hypot, A/W and the product, and |wt| t one
    # more: about 8.3 u of |wt| t, so the margin is 16 u.
    j0 = rel * abs(wt)
    ts = np.linspace(0.0, t, n)
    gap = phase_series(Model.of(CosineDrive(j0, omega), wt), ts).real - abs(wt) * ts
    margin = 16.0 * np.finfo(float).eps * abs(wt) * ts
    assert np.all(gap >= -margin)
    assert np.all(gap <= j0 * j0 * ts / (2.0 * abs(wt)) + margin)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_phase_series_across_zeros_near_rad_eps(factor):
    # detuning just below (pinned, smooth branch flips) or just above
    # (unpinned: a kink of width ~wt at every zero) the radicand threshold
    j0, omega = 0.1, 1.0
    wt = factor * math.sqrt(RAD_EPS) * j0
    drv = CosineDrive(j0, omega)
    ts = np.arange(0.0, 4.0 * math.pi, 0.0031)  # straddles four zeros
    amp = math.hypot(wt, j0)
    pos = phase_series(Model.of(drv, wt, branch=POSITIVE), ts).real
    smooth = phase_series(Model.of(drv, wt), ts).real
    ref = (amp / omega) * ellipeinc(omega * ts, (j0 / amp) ** 2)
    assert np.max(np.abs(pos - ref)) <= 1e-9
    if factor > 1.0:
        assert np.array_equal(smooth, pos)
    else:
        assert np.max(np.abs(smooth - (j0 / omega) * np.sin(omega * ts))) <= 1e-9


# ----------------------------------------------------------- dressed solution

def test_boundary_condition_every_drive():
    drvs = [CosineDrive(1.0, 1.0), ConstantDrive(0.7), ConstantDrive(0.5, 0.2)]
    for wt in (0.0, 0.6):
        for drv in drvs:
            sol = dressed_at(Model.of(drv, wt), 0.0)
            assert sol.psi0 == 0.0
            assert sol.psi1 == 1.0


def test_rwa_quarter_period():
    sol = dressed_at(Model.of(ConstantDrive(1.0), 0.0), math.pi / 2)
    assert abs(sol.psi0) == pytest.approx(1.0, abs=1e-12)
    assert abs(sol.psi1) <= 1e-12


def test_rwa_reduction_no_error_growth():
    ts = np.linspace(0.0, 60.0, 301)
    out = dressed_series(Model.of(ConstantDrive(0.8), 0.6), ts)
    # the envelope is the constant j0, so the angle never moves
    assert np.all(out.phase.imag == 0.0)
    assert np.max(np.abs(out.p0_raw - np.sin(1.0 * ts) ** 2)) <= 1e-10


def test_p0_matches_riemann_oracle():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    sol = dressed_at(model, 2.0)
    zref = riemann_phase(model, 2.0, n=2_000_000)
    assert abs(sol.p0_raw - abs(cmath.sin(zref)) ** 2) <= 1e-7


def test_dressed_pair_consistency():
    sol = dressed_at(Model.of(CosineDrive(1.1, 1.2), 0.7), 2.3)
    z = sol.phase
    psi_plus, psi_minus = cmath.exp(-1j * z), cmath.exp(1j * z)
    assert sol.psi0 == pytest.approx((psi_plus - psi_minus) / 2j, rel=1e-14)
    assert sol.psi1 == pytest.approx((psi_plus + psi_minus) / 2, rel=1e-14)
    assert sol.p0_raw == pytest.approx(abs(sol.psi0) ** 2, rel=1e-14)
    assert sol.p1_raw == pytest.approx(abs(sol.psi1) ** 2, rel=1e-14)
    assert sol.p0_norm == pytest.approx(sol.p0_raw / (sol.p0_raw + sol.p1_raw))


def test_pythagorean_closure():
    rng = np.random.default_rng(11)
    for _ in range(25):
        wt = rng.uniform(-1.5, 1.5)
        j0 = rng.uniform(0.2, 2.0)
        sol = dressed_at(Model.of(CosineDrive(j0, 1.1), wt), rng.uniform(0.1, 8))
        lhs = abs(sol.psi0) ** 2 + abs(sol.psi1) ** 2
        assert abs(lhs - math.cosh(2.0 * sol.phase.imag)) <= 1e-12
        assert lhs >= 1.0 - 1e-12
        assert 0.0 <= sol.p0_norm <= 1.0


# ------------------------------------------------- literal printed integrand

def test_literal_integrand_resonance():
    model = Model.of(CosineDrive(1.2, 1.0), 0.0)
    for t in (0.4, 2.8):
        val = psi0_gamma_zero_integrand(model, t)
        assert val.imag == 0.0
        assert val.real == pytest.approx(1.2 * abs(math.cos(t)), rel=1e-12)


def test_literal_integrand_at_coupling_zero():
    # cos(W t) = 0 with nonzero detuning: real part |wt|, imaginary part
    # -+ j0 W / (2 wt) evaluated literally
    wt, j0, omega = 0.8, 1.1, 1.0
    model = Model.of(CosineDrive(j0, omega), wt)
    t = math.pi / 2
    val = psi0_gamma_zero_integrand(model, t)
    assert val.real == pytest.approx(abs(wt), rel=1e-9)
    assert val.imag == pytest.approx(-j0 * omega * math.sin(omega * t) / (2 * wt),
                                     rel=1e-9)


def test_literal_integrand_imag_matches_connection():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    val = psi0_gamma_zero_integrand(model, 0.3)
    dth = float(connection_dtheta(model, 0.3))
    assert abs(val.imag - dth) <= 1e-9
    # where the cosine is negative the literal form loses the envelope sign
    t2 = 2.0
    val2 = psi0_gamma_zero_integrand(model, t2)
    dth2 = float(connection_dtheta(model, t2))
    assert abs(val2.imag + dth2) <= 1e-9


def test_literal_integrand_wrong_drive():
    with pytest.raises(DomainError):
        psi0_gamma_zero_integrand(Model.of(ConstantDrive(1.0), 0.5), 0.3)


def test_literal_integrand_degenerate_at_radicand_zero():
    # NaN where |omega_r| <= 1e-9 (here ~6e-17), and where |omega_r| is
    # above 1e-9 but below eq. 24's floor (here ~1e-7 < 1e-6, at
    # omega = pi/2 + 1e-13)
    for model, t in ((Model.of(CosineDrive(1.0, 1.0), 0.0), math.pi / 2),
                     (Model.of(CosineDrive(1e6, 1.5707963267949966), 0.0), 1.0)):
        val = psi0_gamma_zero_integrand(model, t)
        assert isinstance(val, complex)
        assert math.isnan(val.real) and math.isnan(val.imag)


def _literal_integrand_loop(model, ts):
    """psi0_gamma_zero_integrand one time at a time with the math module:
    the reference for its array form, NaN where the radicand vanishes."""
    wt, drive = model.omega_tilde, model.drive
    scale = max(drive.coupling_scale(), abs(wt), 1.0)
    out = []
    for t in ts:
        j = drive.j0 * math.cos(drive.omega * t)
        wr = math.hypot(wt, j)
        if wr <= 1e-9 or wr < DEG_EPS * scale:
            out.append(complex(math.nan, math.nan))
            continue
        denom = wt + (wr - wt if wt < 0 else j * j / (wt + wr))
        imag = -wt * (drive.j0 * drive.omega * math.sin(drive.omega * t)) / (2.0 * wr * denom)
        out.append(complex(wr, imag))
    return out


def _assert_same_parts(a, b, rtol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.array_equal(a == 0.0, b == 0.0)
    assert np.array_equal(np.signbit(a[a == 0.0]), np.signbit(b[b == 0.0]))
    fin = np.isfinite(a)
    assert np.all(np.abs(a[fin] - b[fin]) <= rtol * np.maximum(np.abs(b[fin]), 1.0))


@_PROPERTY
@given(wt=st.floats(-1.5, 1.5), j0=st.floats(0.1, 1.5), omega=st.floats(0.5, 2.0),
       ts=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=60))
@example(wt=0.0, j0=1.2, omega=1.0, ts=[0.0, 0.4, 2.8, 4.0, 7.0])
def test_literal_integrand_array_matches_scalar(wt, j0, omega, ts):
    model = Model.of(CosineDrive(j0, omega), wt)
    ts = np.array(ts)
    wr = np.hypot(wt, j0 * np.cos(omega * ts))
    assume(np.all(wr > 1e-6))
    arr = psi0_gamma_zero_integrand(model, ts)
    one = [psi0_gamma_zero_integrand(model, float(t)) for t in ts]
    assert all(isinstance(v, complex) for v in one)
    ref = _literal_integrand_loop(model, ts)
    for part in ("real", "imag"):
        _assert_same_parts(getattr(arr, part), [getattr(v, part) for v in one], 1e-15)
        _assert_same_parts(getattr(arr, part), [getattr(v, part) for v in ref], 1e-15)


def test_literal_integrand_array_nan_at_radicand_zero():
    # every radicand zero of the array is a NaN row; the rows between them
    # are the scalar values
    model = Model.of(CosineDrive(1.0, 1.0), 0.0)
    ts = np.array([0.3, math.pi / 2, 1.5 * math.pi, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        arr = psi0_gamma_zero_integrand(model, ts)
    assert np.array_equal(np.isnan(arr.real), [False, True, True, False])
    assert np.array_equal(np.isnan(arr.imag), np.isnan(arr.real))
    assert arr[0] == psi0_gamma_zero_integrand(model, 0.3)
    assert arr[3] == psi0_gamma_zero_integrand(model, 2.0)


def test_literal_integrand_degenerate_where_denominator_rounds_to_zero():
    # wt < 0 and cos(W t) ~ 6e-17: wt + |omega_r| rounds to 0 with j != 0,
    # so the printed j^2/(wt + |omega_r|) must be taken as |omega_r| - wt
    model = Model.of(CosineDrive(0.9, math.pi / 2), -0.3)
    dth = float(connection_dtheta(model, 1.0))
    assert dth == pytest.approx(0.3 * 0.9 * (math.pi / 2) / (2 * 0.3 ** 2), rel=1e-12)
    for val in (psi0_gamma_zero_integrand(model, 1.0),
                psi0_gamma_zero_integrand(model, np.array([0.5, 1.0]))[1]):
        assert math.isfinite(val.imag)
        # the literal form matches the connection up to the envelope sign
        assert abs(val.imag) == pytest.approx(abs(dth), rel=1e-12)


@pytest.mark.parametrize("wt, omega", [(0.0, math.pi / 2), (0.4, 1.1), (0.05, 0.9)])
def test_identities_eq24_columns_match_row_loop(wt, omega):
    # omega = pi/2 puts coupling zeros on grid points t = 1, 3: NaN rows there
    cfg = parse_config(json.dumps({
        "drive": "cosine", "omega_tilde": wt, "j0": 0.9, "omega": omega,
        "t_end": 4.0, "dt": 1e-3, "output_stride": 5, "outputs": "identities"}))
    series, _ = run_scenario(cfg)
    ident = series["identities"]
    model = cfg.model()
    ts = ident.t
    ref = np.array(_literal_integrand_loop(model, ts))
    gap = np.abs(ref.imag - connection_dtheta(model, ts))
    _assert_same_parts(ident.column("re_eq24"), ref.real, 1e-15)
    _assert_same_parts(ident.column("im_eq24"), ref.imag, 1e-15)
    _assert_same_parts(ident.column("im_eq24_gap"), gap, 1e-15)
    if wt == 0.0:
        im = ident.column("im_eq24")
        assert np.isnan(im).sum() == 2
        assert np.any(np.signbit(im[im == 0.0])) and not np.all(np.signbit(im[im == 0.0]))


# ------------------------------------------------------------ elliptic phase

def _elliptic_model(wt, j0, omega=1.0):
    return Model.of(CosineDrive(j0, omega), wt, branch=POSITIVE)


def elliptic_phase(model, t):
    """Re Z(t) on the positive root: the elliptic phase (A/W) E(W t, m)."""
    return phase_at(model, t).real


def test_elliptic_phase_resonance_first_quadrant():
    model = _elliptic_model(0.0, 1.4)
    for t in (0.2, 0.8, 1.4):
        assert elliptic_phase(model, t) == pytest.approx(1.4 * math.sin(t), abs=1e-12)


def test_elliptic_phase_zero_coupling():
    assert elliptic_phase(_elliptic_model(0.7, 0.0), 3.0) == pytest.approx(
        0.7 * 3.0, rel=1e-12)


def test_elliptic_phase_resonance_multi_quadrant():
    # unit modulus across many quadrants: E(W t, 1) folds through 2E(1) = 2
    model = _elliptic_model(0.0, 1.3)
    for t in (2.0, 7.0, 11.5):
        ref = quad(lambda s: abs(1.3 * math.cos(s)), 0, t,
                   points=coupling_zeros(model.drive, t), limit=300)[0]
        assert elliptic_phase(model, t) == pytest.approx(ref, abs=1e-12)


def test_elliptic_phase_quadrature():
    wt, j0, omega = 0.5, 1.0, 1.0
    model = _elliptic_model(wt, j0, omega)
    ref = quad(lambda s: math.hypot(wt, j0 * math.cos(omega * s)), 0, 2.0,
               points=coupling_zeros(model.drive, 2.0), limit=200,
               epsabs=1e-13)[0]
    assert abs(elliptic_phase(model, 2.0) - ref) <= 1e-9


def test_elliptic_equivalence_with_positive_root_phase():
    for wt in (0.3, 1.2):
        for j0 in (0.5, 2.0):
            model = _elliptic_model(wt, j0, 1.3)
            amp = math.hypot(wt, j0)
            for t in (0.9, 3.3, 6.1):
                ref = (amp / 1.3) * ellipeinc(1.3 * t, (j0 / amp) ** 2)
                assert abs(elliptic_phase(model, t) - ref) <= 1e-9


def _elliptic_reference(model, ts):
    """Re Z from scipy's E: (A/W) E(W t, m), or (A/W) (-1)^n E(W t - n pi, m)
    on the smooth branch at a crossing."""
    drive = model.drive
    amp = math.hypot(model.omega_tilde, drive.j0)
    m = (drive.j0 / amp) ** 2
    phi = drive.omega * np.asarray(ts)
    if model.crossing and model.branch is SMOOTH:
        n = np.rint(phi / math.pi)
        return (amp / drive.omega) * (-1.0) ** n * ellipeinc(phi - n * math.pi, m)
    return (amp / drive.omega) * ellipeinc(phi, m)


@given(m=st.floats(0.0, 1.0), amp=st.floats(0.1, 10.0), omega=_OMEGA,
       phis=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=50),
       branch=st.sampled_from([SMOOTH, POSITIVE]))
@_PROPERTY
@example(m=0.0, amp=1.0, omega=1.0, phis=[0.0, 1.0, 200.0], branch=SMOOTH)
@example(m=1.0, amp=0.9, omega=1.3, phis=[math.pi / 2, 5.0, 199.0], branch=SMOOTH)
@example(m=1.0, amp=0.9, omega=1.3, phis=[math.pi / 2, 5.0, 199.0], branch=POSITIVE)
@example(m=1.0 - 1e-13, amp=2.0, omega=0.7, phis=[1.6, 4.7, 150.0], branch=SMOOTH)
@example(m=1.0 - 2.0 ** -52, amp=2.0, omega=0.7, phis=[4.7, 150.0], branch=POSITIVE)
def test_phase_series_matches_scipy_elliptic(m, amp, omega, phis, branch):
    # relative to max(|Re Z|, A/W): on the smooth branch at a crossing Re Z
    # passes through zero in every section
    model = Model.of(CosineDrive(amp * math.sqrt(m), omega),
                     amp * math.sqrt(1.0 - m), branch=branch)
    ts = np.array(phis) / omega
    ref = _elliptic_reference(model, ts)
    scale = np.maximum(np.abs(ref), math.hypot(model.omega_tilde, model.drive.j0) / omega)
    assert np.all(np.abs(phase_series(model, ts).real - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("wt, branch", [(0.0, SMOOTH), (0.0, POSITIVE), (1e-7, SMOOTH),
                                        (0.37, SMOOTH), (-0.8, POSITIVE)])
def test_phase_continuous_across_sections(wt, branch):
    # Re Z is pieced together from sections |W t - n pi| <= pi/2; across each
    # boundary it may move by no more than max|omega_r| times the offset
    j0, omega, d = 0.9, 1.3, 1e-7
    model = Model.of(CosineDrive(j0, omega), wt, branch=branch)
    bounds = (np.arange(8) + 0.5) * math.pi / omega
    z = phase_series(model, np.concatenate([bounds - d, bounds, bounds + d])).real
    below, at, above = z.reshape(3, -1)
    step = math.hypot(wt, j0) * d * (1.0 + 1e-6) + 1e-13
    assert np.all(np.abs(at - below) <= step)
    assert np.all(np.abs(above - at) <= step)
    # (1e-7 is a crossing: (-1)^n sections with m < 1)
    ref = _elliptic_reference(model, bounds)
    assert np.max(np.abs(at - ref)) <= 1e-13


# ---------------------------------------------------------------- limit forms

class RegimeMismatch(ValueError):
    """An asymptotic form asked for outside its validity window."""


def limit_form(model, regime, t):
    """Asymptotic |psi0| for the cosine drive: resonance keeps the drive's
    own modulation, while far off resonance the level spacing washes it out
    to |sin(wt * t)|."""
    wt, j0, w = model.omega_tilde, model.drive.j0, model.drive.omega
    if regime == "resonant":
        if abs(wt) > 0.01 * j0:
            raise RegimeMismatch(f"|detuning|={abs(wt)} exceeds 0.01*j0={0.01 * j0}")
        return abs(math.sin((j0 / w) * math.sin(w * t)))
    if abs(wt) < 100.0 * j0:
        raise RegimeMismatch(f"|detuning|={abs(wt)} below 100*j0={100.0 * j0}")
    return abs(math.sin(wt * t))


def test_limit_resonant_zero_at_full_period():
    got = limit_form(Model.of(CosineDrive(1.0, 1.0), 0.0), "resonant", math.pi)
    assert got == pytest.approx(0.0, abs=1e-15)  # sin(pi) at machine precision


def test_limit_far_detuned_quarter_period():
    got = limit_form(Model.of(CosineDrive(0.1, 1.0), 50.0), "far_detuned", math.pi / 100)
    assert got == pytest.approx(1.0)


def test_limit_resonant_against_full_solution():
    model = Model.of(CosineDrive(1.0, 1.0), 0.001)
    lf = limit_form(model, "resonant", 1.2)
    assert abs(lf ** 2 - dressed_at(model, 1.2).p0_raw) <= 1e-4


def test_limit_regime_mismatch():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5)
    with pytest.raises(RegimeMismatch):
        limit_form(model, "resonant", 1.0)
    with pytest.raises(RegimeMismatch):
        limit_form(model, "far_detuned", 1.0)


# -------------------------------------------------------------- periodicity

def test_abs_rabi_fft_peak_at_twice_drive():
    model = Model.of(CosineDrive(1.0, 1.0), 0.5, branch=POSITIVE)
    n = 2048
    span = 8 * math.pi  # exactly 8 periods of |omega_r|
    ts = np.linspace(0.0, span, n, endpoint=False)
    wr = np.abs(rabi_frequency(model, ts))
    assert dominant_frequency(ts, wr) == pytest.approx(2.0, abs=1e-9)
