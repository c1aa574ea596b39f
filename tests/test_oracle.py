"""Direct integrator: Hamiltonian surfaces, propagation, comparisons."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dressedatom import (AtomConfig, BranchMode, ConstantDrive, CosineDrive,
                         RwaPairDrive, StateVector, compare,
                         current_dynamics_check, detuning, hamiltonian,
                         initial_state_for_psi_frame, propagate)
from dressedatom.closedform import dressed_series
from dressedatom.errors import GridMismatch, StepTooLarge, ValidationError
from dressedatom.oracle import (_CHUNK, MAX_STEPS, ComparisonReport, _rk4_run,
                                bare_state, enforced_step_bound, step_count)
from dressedatom.series import TimeSeries

SMOOTH = BranchMode.SMOOTH_CONTINUATION


def cfg_wt(wt, j0=1.0, omega=1.0):
    return AtomConfig.from_detuning(wt, j0, omega_drive=omega)


# -------------------------------------------------------------- hamiltonian

def test_hamiltonian_no_coupling():
    cfg = AtomConfig(e1=0.3, e2=2.5, omega_drive=1.2, j0=0.0)
    h = hamiltonian(cfg, ConstantDrive(0.0), 0.7)
    assert np.allclose(h, np.diag([0.3, 2.5 - 1.2]))


def test_hamiltonian_rwa_offdiagonal_rotates():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.3)
    drv = RwaPairDrive(0.8, 1.3)
    for t in (0.0, 0.4, 2.7):
        h = hamiltonian(cfg, drv, t)
        assert h[0, 1] == pytest.approx(0.8 * np.exp(1j * 1.3 * t))
        assert abs(h[0, 1]) == pytest.approx(0.8)
        assert np.allclose(h, h.conj().T)  # hermitian by construction


def test_hamiltonian_cosine_zero_of_drive():
    cfg = cfg_wt(0.2, j0=1.0, omega=2.0)
    h = hamiltonian(cfg, CosineDrive(1.0, 2.0), math.pi / 4)
    assert h[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert h[0, 1].imag == 0.0


def test_frame_hamiltonian_constant_for_pair():
    # H_frame = offset + [[wt, q], [q, -wt]]: for the pair drive the frame
    # coupling q is the constant amplitude, so the whole matrix is constant
    cfg = cfg_wt(0.6, j0=0.8, omega=1.3)
    drv = RwaPairDrive(0.8, 1.3)
    q = drv.frame_coupling(np.array([0.0, 0.4, 2.1, 17.3]))
    assert np.all(q == 0.8)
    assert detuning(cfg) == pytest.approx(0.6)


# ------------------------------------------------------------ initial state

def test_initial_state_identity_rotation():
    cfg = cfg_wt(1.0, j0=0.0)
    c0 = initial_state_for_psi_frame(cfg, ConstantDrive(0.0, 0.0))
    assert c0.c1 == pytest.approx(1 / math.sqrt(2))
    assert c0.c2 == pytest.approx(1 / math.sqrt(2))


def test_initial_state_resonant_cosine():
    cfg = cfg_wt(0.0, j0=1.0)
    c0 = initial_state_for_psi_frame(cfg, CosineDrive(1.0, 1.0))
    assert c0.c1 == pytest.approx(0.0, abs=1e-15)
    assert c0.c2 == pytest.approx(1.0)


def test_initial_state_345_unit_norm():
    cfg = cfg_wt(3.0, j0=4.0)
    c0 = initial_state_for_psi_frame(cfg, CosineDrive(4.0, 1.0))
    assert abs(c0.norm - 1.0) <= 1e-14


# -------------------------------------------------------------- propagation

def test_propagate_stationary_state():
    cfg = cfg_wt(0.8, j0=0.0)
    drv = ConstantDrive(0.0)
    res = propagate(cfg, drv, bare_state(1), 10.0, 0.002, SMOOTH, output_stride=20)
    assert np.max(np.abs(np.abs(res.c1) - 1.0)) <= 1e-12
    assert np.max(np.abs(res.current)) == 0.0


def test_propagate_step_bound_enforced():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.0)
    drv = RwaPairDrive(0.8, 1.0)
    bound = enforced_step_bound(cfg, drv)
    with pytest.raises(StepTooLarge):
        propagate(cfg, drv, bare_state(1), 5.0, 2.0 * bound, SMOOTH)


def test_propagate_rwa_matches_jaynes_cummings():
    # the pair Hamiltonian is exactly solvable; the dressed projection must
    # reproduce |sin(omega_r t)|/sqrt(2) over many periods
    cfg = cfg_wt(0.6, j0=0.8, omega=1.0)
    drv = RwaPairDrive(0.8, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    dt = enforced_step_bound(cfg, drv) / 2
    res = propagate(cfg, drv, c0, 20 * math.pi, dt, SMOOTH, output_stride=10)
    target = np.abs(np.sin(1.0 * res.times)) / math.sqrt(2)
    assert np.max(np.abs(np.abs(res.psi0_oracle) - target)) <= 1e-6
    assert res.step_report.norm_drift <= 1e-8
    assert res.step_report.norm_ok


def test_rwa_frame_stability():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.0)
    drv = RwaPairDrive(0.8, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    dt = enforced_step_bound(cfg, drv) / 2
    res = propagate(cfg, drv, c0, 20 * math.pi, dt, SMOOTH, output_stride=10)
    for a in (res.dressed_a_plus, res.dressed_a_minus):
        assert np.max(np.abs(a)) - np.min(np.abs(a)) <= 1e-6


def test_propagate_gauge_covariance():
    cfg = cfg_wt(0.5, j0=1.0)
    drv = CosineDrive(1.0, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    phase = complex(math.cos(0.9), math.sin(0.9))
    c0p = StateVector(phase * c0.c1, phase * c0.c2)
    dt = enforced_step_bound(cfg, drv) / 2
    a = propagate(cfg, drv, c0, 6.0, dt, SMOOTH, output_stride=25)
    b = propagate(cfg, drv, c0p, 6.0, dt, SMOOTH, output_stride=25)
    assert np.max(np.abs(np.abs(a.psi0_oracle) ** 2
                         - np.abs(b.psi0_oracle) ** 2)) <= 1e-13
    assert np.max(np.abs(a.current - b.current)) <= 1e-13


def test_richardson_reflects_step_halving():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.0)
    drv = RwaPairDrive(0.8, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    bound = enforced_step_bound(cfg, drv)
    r1 = propagate(cfg, drv, c0, 10.0, bound / 2, SMOOTH, output_stride=50)
    r2 = propagate(cfg, drv, c0, 10.0, bound / 4, SMOOTH, output_stride=100)
    ratio = r1.step_report.richardson_error / r2.step_report.richardson_error
    assert 2 ** 3.5 <= ratio <= 2 ** 4.5


def test_resonance_equivalence_to_closed_form():
    cfg = cfg_wt(0.0, j0=1.0, omega=1.0)
    drv = CosineDrive(1.0, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    dt = enforced_step_bound(cfg, drv) / 2
    res = propagate(cfg, drv, c0, 4 * math.pi, dt, SMOOTH, output_stride=10)
    closed = dressed_series(cfg, drv, res.times, SMOOTH)
    assert np.max(np.abs(closed["p0_raw"]
                         - 2.0 * np.abs(res.psi0_oracle) ** 2)) <= 1e-6


# ------------------------------------------------------- chunked RK4 scan

def _rk4_loop(cfg, drive, c0, n_steps, dt, keep_every):
    """The scalar RK4 loop the chunked scan replaced: the reference."""
    c = cfg.to_natural()
    wt = detuning(c)
    off = 0.5 * (c.e1 + c.e2) - 0.5 * c.omega_drive
    d1 = off + wt
    d2 = off - wt
    grid = np.arange(2 * n_steps + 1) * (0.5 * dt)
    q = np.asarray(drive.frame_coupling(grid), dtype=float)

    def deriv(qv, a, b):
        return -1j * (d1 * a + qv * b), -1j * (qv * a + d2 * b)

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
            kept.append((a, b))
    return kept, drift, (a, b)


# edge cases: one step, keep_every beyond n_steps, just below, at and above
# one chunk, keep_every not dividing n_steps, several chunks
@example(wt=0.4, j0=1.2, omega=1.3, n_steps=1, keep_every=1, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, n_steps=1, keep_every=5, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, n_steps=_CHUNK - 1, keep_every=10, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, n_steps=_CHUNK, keep_every=_CHUNK, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, n_steps=_CHUNK + 1, keep_every=1, drive="cosine")
@example(wt=0.4, j0=1.2, omega=1.3, n_steps=3 * _CHUNK + 17, keep_every=7, drive="cosine")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(wt=st.floats(-2.0, 2.0), j0=st.floats(0.0, 2.0),
       omega=st.floats(0.2, 3.0), n_steps=st.integers(1, 3 * _CHUNK + 100),
       keep_every=st.integers(1, 400), drive=st.sampled_from(["cosine", "rwa"]))
def test_rk4_scan_matches_loop(wt, j0, omega, n_steps, keep_every, drive):
    cfg = cfg_wt(wt, j0=j0, omega=omega)
    drv = CosineDrive(j0, omega) if drive == "cosine" else RwaPairDrive(j0, omega)
    dt = enforced_step_bound(cfg, drv) / 2
    c0 = np.array([0.6, 0.8j])
    kept, drift, final = _rk4_loop(cfg, drv, c0, n_steps, dt, keep_every)
    if n_steps % keep_every:
        kept.append(final)  # the last row is always the final state
    ref = np.array(kept)
    c1, c2, scan_drift = _rk4_run(cfg, drv, c0, n_steps, dt, keep_every)
    assert len(c1) == len(c2) == len(ref)
    assert np.max(np.abs(c1 - ref[:, 0])) <= 1e-12
    assert np.max(np.abs(c2 - ref[:, 1])) <= 1e-12
    assert abs(scan_drift - drift) <= 1e-12


def test_rk4_scan_memory_does_not_grow_with_steps():
    # the scan holds one chunk of step matrices and the kept rows, never
    # arrays over the whole grid (the scalar loop peaked at 18 MiB here)
    cfg = cfg_wt(0.4, j0=1.2, omega=1.3)
    drv = CosineDrive(1.2, 1.3)
    n_steps = 400_000
    tracemalloc.start()
    try:
        _rk4_run(cfg, drv, np.array([1.0, 0.0]), n_steps, 1e-3, n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_step_count_ceiling():
    assert step_count(10.0, 0.001) == 10_000
    assert step_count(1e-9, 1.0) == 1
    assert step_count(MAX_STEPS * 1e-3, 1e-3) == MAX_STEPS
    for t_end, dt in ((1e300, 1e-3), ((MAX_STEPS + 1) * 1e-3, 1e-3), (1.0, 1e-310)):
        with pytest.raises(ValidationError, match="ceiling"):
            step_count(t_end, dt)


# ------------------------------------------------------------------ compare

def _series(ts, p0):
    return TimeSeries(["t", "p0"], np.column_stack([ts, p0]))


def test_compare_identical_series():
    ts = np.linspace(0, 5, 64)
    p0 = np.sin(ts) ** 2
    rep = compare(_series(ts, p0), _series(ts, p0))
    assert rep == ComparisonReport(0.0, 0.0, 0.0)


def test_compare_constant_offset():
    ts = np.linspace(0, 5, 64)
    p0 = np.sin(ts) ** 2
    rep = compare(_series(ts, p0), _series(ts, p0 + 1e-3))
    assert rep.max_abs == pytest.approx(1e-3)
    assert rep.rms == pytest.approx(1e-3)


def test_compare_grid_mismatch():
    ts = np.linspace(0, 5, 64)
    with pytest.raises(GridMismatch):
        compare(_series(ts, ts), _series(ts + 0.1, ts))


def test_compare_rwa_closed_vs_oracle():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.0)
    drv = RwaPairDrive(0.8, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    dt = enforced_step_bound(cfg, drv) / 2
    res = propagate(cfg, drv, c0, 20 * math.pi, dt, SMOOTH, output_stride=10)
    closed = dressed_series(cfg, drv, res.times, SMOOTH)
    rep = compare(_series(res.times, closed["p0_raw"]),
                  _series(res.times, 2.0 * np.abs(res.psi0_oracle) ** 2))
    assert rep.max_abs <= 1e-6


def test_compare_phase_slip_needs_psi_columns():
    ts = np.linspace(0, 5, 64)
    psi = np.exp(1j * ts)
    full = TimeSeries(["t", "p0", "re_psi0", "im_psi0"],
                      np.column_stack([ts, np.abs(psi) ** 2, psi.real, psi.imag]))
    rep = compare(full, full)
    assert rep.phase_slip == 0.0


# ---------------------------------------------------------- current dynamics

def test_resonant_population_transfer_law():
    # starting from the psi1 preparation (0, 1), the initially-empty bare
    # component fills as sin^2((j0/W) sin(W t)) -- forced by commutation
    cfg = cfg_wt(0.0, j0=1.0, omega=1.0)
    drv = CosineDrive(1.0, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    assert abs(c0.c1) <= 1e-15 and abs(c0.c2) == pytest.approx(1.0)
    dt = enforced_step_bound(cfg, drv) / 2
    res = propagate(cfg, drv, c0, 10 * 2 * math.pi, dt, SMOOTH, output_stride=10)
    beta = np.sin(res.times)
    assert np.max(np.abs(np.abs(res.c1) ** 2 - np.sin(beta) ** 2)) <= 1e-6


def test_current_insufficient_span():
    from dressedatom.errors import InsufficientSpan
    cfg = cfg_wt(0.3, j0=0.4)
    drv = ConstantDrive(0.4)
    c0 = initial_state_for_psi_frame(cfg, drv)
    res = propagate(cfg, drv, c0, 2.0, 0.001, SMOOTH, output_stride=2)
    with pytest.raises(InsufficientSpan):
        current_dynamics_check(res, cfg, drv)


def test_current_no_oscillation():
    cfg = cfg_wt(0.8, j0=0.0)
    drv = ConstantDrive(0.0)
    res = propagate(cfg, drv, bare_state(1), 40.0, 0.002, SMOOTH, output_stride=20)
    rep = current_dynamics_check(res, cfg, drv)
    assert rep.status == "NoOscillation"


def test_current_fit_rwa():
    cfg = cfg_wt(0.6, j0=0.8, omega=1.3)
    drv = RwaPairDrive(0.8, 1.3)
    c0 = initial_state_for_psi_frame(cfg, drv)
    dt = enforced_step_bound(cfg, drv) / 2
    res = propagate(cfg, drv, c0, 20 * math.pi, dt, SMOOTH, output_stride=5)
    rep = current_dynamics_check(res, cfg, drv)
    assert abs(rep.correlation) >= 0.999
    assert rep.n_periods >= 5


def test_current_fit_resonant_cosine():
    cfg = cfg_wt(0.0, j0=1.0, omega=1.0)
    drv = CosineDrive(1.0, 1.0)
    c0 = initial_state_for_psi_frame(cfg, drv)
    dt = enforced_step_bound(cfg, drv) / 2
    res = propagate(cfg, drv, c0, 10 * 2 * math.pi, dt, SMOOTH, output_stride=5)
    rep = current_dynamics_check(res, cfg, drv)
    assert abs(rep.correlation) >= 0.99
