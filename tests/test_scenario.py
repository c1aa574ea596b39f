"""Config surface, scenario runs, sweeps, CSV determinism."""

import gc
import io
import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedatom import ScenarioConfig, parse_config, run_scenario, sweep
from dressedatom.scenario import config_doc
from dressedatom.errors import (DressedAtomError, ParseError, UnknownAxis,
                               ValidationError)

ALL_OUTPUTS = "frame,closed,oracle,compare,identities,current"


# ------------------------------------------------------------------ parsing

def test_parse_rwa_example():
    cfg = parse_config('{"drive":"rwa","j0":1.0,"omega":1.0,"e1":0.0,'
                       '"e2":2.0,"t_end":10.0,"dt":0.001}')
    assert cfg.drive == "rwa"
    # detuning follows its definition ((e2-e1) - omega)/2
    assert cfg.model().omega_tilde == pytest.approx(0.5)


def test_parse_empty_takes_defaults():
    cfg = parse_config("{}")
    assert cfg == ScenarioConfig()


def test_parse_rejects_negative_amplitude():
    with pytest.raises(ValidationError, match="j0"):
        parse_config('{"drive":"cosine","j0":-1}')


def test_parse_rejects_unknown_key():
    with pytest.raises(ParseError, match="unknown config key"):
        parse_config('{"j_zero": 1.0}')


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError, match="line"):
        parse_config('{"drive": cosine}')


# a value of the wrong JSON type for every key: a number for a string key,
# a string or true for a number, 1.5 or true for the integer output_stride
_WRONG_JSON = {"str": [1.0], "float": ["1.0", True], "int": [1.5, True]}


@pytest.mark.parametrize("key, value", [
    (key, value)
    for key, kind in [(f.name, f.type) for f in fields(ScenarioConfig)] + [("omega_tilde", "float")]
    for value in _WRONG_JSON[kind]])
def test_parse_rejects_wrong_json_type(key, value):
    with pytest.raises(ParseError) as exc:
        parse_config(json.dumps({key: value}))
    assert key in str(exc.value)


def test_parse_omega_tilde_convenience():
    cfg = parse_config('{"omega_tilde": 0.25, "omega": 2.0}')
    assert cfg.model().omega_tilde == pytest.approx(0.25)
    with pytest.raises(ParseError, match="not both"):
        parse_config('{"omega_tilde": 0.25, "e2": 3.0}')


def test_roundtrip_default():
    cfg = ScenarioConfig()
    assert parse_config(json.dumps(config_doc(cfg))) == cfg


@given(st.floats(-2, 2), st.floats(0, 3), st.floats(0.1, 4),
       st.sampled_from(["cosine", "rwa", "constant"]))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(e2, j0, omega, drive):
    cfg = ScenarioConfig(drive=drive, e2=e2, j0=j0, omega=omega, t_end=3.0)
    cfg.validate()
    assert parse_config(json.dumps(config_doc(cfg))) == cfg


# ------------------------------------------------------------------- running

def test_run_rwa_scenario_compare():
    cfg = parse_config(json.dumps({
        "drive": "rwa", "omega_tilde": 0.6, "j0": 0.8, "omega": 1.0,
        "t_end": 30.0, "dt": 0.005, "output_stride": 10,
        "outputs": "closed,oracle,compare",
    }))
    series, report = run_scenario(cfg)
    assert report["compare"]["MaxAbs"] <= 1e-6
    assert set(series) == {"closed", "oracle", "compare"}
    assert series["compare"].columns == ["t", "closed_p0", "oracle_p0", "abs_diff"]
    assert series["oracle"].columns == ["t", "re_c1", "im_c1", "re_c2",
                                        "im_c2", "norm", "p0_oracle", "current"]
    assert series["closed"].columns == ["t", "re_Z", "im_Z", "p0_raw", "p0_norm"]
    assert report["norm_ok"]
    # both projections are on the closed form's scale: nothing is rescaled
    convention = report["population_convention"]
    assert "both" in convention and "psi_bar=1" in convention
    assert "rescaled" not in convention
    # on the default grid the slip read -2 pi when the closed and oracle
    # phases were unwrapped one by one; it is their difference that counts
    _, report = run_scenario(parse_config('{"drive": "rwa", "omega_tilde": 0.6, "j0": 0.8}'))
    assert report["compare"]["MaxAbs"] <= 1e-6
    assert abs(report["compare"]["PhaseSlip"]) <= 1e-9


def test_run_identities_output():
    cfg = parse_config(json.dumps({
        "drive": "cosine", "omega_tilde": 0.7, "j0": 1.3, "omega": 2.1,
        "t_end": 10.0, "dt": 0.002, "output_stride": 5,
        "outputs": "identities",
    }))
    series, report = run_scenario(cfg)
    maxima = report["identities_max"]
    assert maxima["r1"] <= 1e-8
    assert maxima["r2"] <= 1e-8
    assert maxima["r3"] <= 1e-8
    cols = series["identities"].columns
    assert cols[:4] == ["t", "r1", "r2", "r3"]
    assert "im_eq24_gap" in cols


def test_identities_memory_does_not_grow_with_zeros():
    # 200,001 rows against ~64 coupling zeros: a rows x zeros distance
    # matrix alone would be ~100 MiB
    cfg = replace(ScenarioConfig(), t_end=200.0, dt=1e-3, output_stride=1,
                  outputs="identities")
    tracemalloc.start()
    try:
        run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


def test_memory_does_not_grow_with_coupling_zeros():
    # two rows over ~3e6 coupling zeros: the branch sign and the kink mask
    # count the zeros at each row's time, they never list them
    cfg = parse_config(json.dumps({"t_end": 1e7, "dt": 1, "output_stride": 100000000,
                                   "omega_tilde": 0, "outputs": "frame,identities,closed"}))
    tracemalloc.start()
    try:
        series, _ = run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series["frame"].t.tolist() == [0.0, 1e7]
    assert peak < 2 ** 20


def test_run_zero_span_emits_headers_only():
    cfg = replace(ScenarioConfig(), t_end=0.0, outputs="frame,closed")
    series, report = run_scenario(cfg)
    assert report.get("empty")
    for ts in series.values():
        assert ts.data.shape[0] == 0
        assert ts.to_csv().count("\n") == 1  # header line only


def test_two_row_current_slope_is_the_gradient():
    # t_end = 0.01 at stride 10 is one group of ten steps: the run keeps
    # t = 0 and t_end, and the slope is their difference quotient, which is
    # np.gradient on two rows
    series, _ = run_scenario(parse_config(json.dumps(
        {"t_end": 0.01, "output_stride": 10, "outputs": "oracle,current"})))
    cur = series["current"]
    t, current, dcur = cur.arrays
    assert len(t) == 2 and current[1] != current[0]
    slope = (current[1] - current[0]) / (t[1] - t[0])
    assert np.array_equal(dcur, np.gradient(current, t))
    assert np.all(dcur == slope)


def _fstring_csv(ts) -> str:
    """One f-string per value: the reference the array formatter must match."""
    rows = [",".join(f"{v:.17g}" for v in row) for row in ts.data]
    return "\n".join([",".join(ts.columns)] + rows) + "\n"


def test_run_deterministic_csv():
    cfg = parse_config(json.dumps({
        "drive": "cosine", "omega_tilde": 0.5, "j0": 1.0, "omega": 1.0,
        "t_end": 5.0, "dt": 0.005, "outputs": "frame,closed,oracle,compare",
    }))
    a, _ = run_scenario(cfg)
    b, _ = run_scenario(cfg)
    for kind in a:
        assert a[kind].to_csv() == b[kind].to_csv()
    # the value mix of real runs (the t grid, norms near 1, the NaN rows of
    # identities) against the per-value reference, for every output
    docs = [{"drive": "cosine", "omega_tilde": 0.0, "j0": 0.9},
            {"drive": "cosine", "omega_tilde": 0.4, "j0": 1.1, "omega": 0.9},
            {"drive": "rwa", "omega_tilde": 0.6, "j0": 0.8},
            {"drive": "constant", "omega_tilde": 0.3, "j0": 0.7, "gamma0": 0.2},
            {"drive": "cosine", "omega_tilde": 0.2, "j0": 1.0, "branch": "positive",
             "initial_state": "bare1"},
            {"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "e1": -40},
            {"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 1.0,
             "output_stride": 1}]
    for doc in docs:
        cfg = parse_config(json.dumps({"t_end": 3.0, "outputs": ALL_OUTPUTS, **doc}))
        series, _ = run_scenario(cfg)
        assert len(series) == 6
        for kind, ts in series.items():
            assert ts.to_csv() == _fstring_csv(ts), (doc, kind)


# the washout sweep's point: cosine j0 0.1, dt 1.5e-3, stride 2, t_end 4 pi
_WASHOUT_DOC = {"drive": "cosine", "omega_tilde": 0.02, "j0": 0.1, "omega": 1.0,
                "t_end": 12.566370614359172, "dt": 0.0015, "output_stride": 2}


def test_compare_only_run_derives_only_what_compare_reads(monkeypatch):
    # the closed form and the oracle derive their arrays on first read, so
    # a compare-only run never takes cos Z, the mean-level phase, c1, c2,
    # the norm, the current or the oracle's psi1; and a stage runs only when
    # a column reads it, so the report times only the stages that ran
    from dressedatom import closedform, oracle
    made = []

    def keep(fn):
        def spy(*args, **kwargs):
            made.append(fn(*args, **kwargs))
            return made[-1]
        return spy

    monkeypatch.setattr(closedform, "dressed_series", keep(closedform.dressed_series))
    monkeypatch.setattr(oracle, "propagate", keep(oracle.propagate))
    _, report = run_scenario(parse_config(json.dumps({**_WASHOUT_DOC, "outputs": "compare"})))
    closed, prop = made
    assert set(vars(closed)) == {"t", "phase", "psi0", "p0_raw"}
    assert "psi0_oracle" in vars(prop)
    for name in ("_mean_phase", "c1", "c2", "norm", "current", "dcurrent_dt",
                 "psi1_oracle"):
        assert name not in vars(prop)
    assert set(report["timing_s"]) == {"closed", "oracle", "compare", "total"}
    _, report = run_scenario(parse_config(json.dumps({**_WASHOUT_DOC,
                                                      "outputs": "identities"})))
    assert len(made) == 2
    assert set(report["timing_s"]) == {"identities", "total"}


def test_run_leaves_no_reference_cycle():
    # a run's arrays are freed with its outputs: nothing run_scenario builds
    # refers back to itself, which would hold the arrays until the cyclic
    # collector runs and raise the memory peak of a sweep
    cfg = parse_config(json.dumps({"t_end": 3.0, "outputs": ALL_OUTPUTS}))
    run_scenario(cfg)
    gc.collect()
    gc.disable()
    try:
        run_scenario(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compare_table_does_not_depend_on_the_other_outputs():
    for doc in (_WASHOUT_DOC, {"drive": "rwa", "omega_tilde": 0.6, "j0": 0.8, "t_end": 3.0},
                {"drive": "cosine", "omega_tilde": -0.4, "j0": 1.0, "e1": -40,
                 "t_end": 3.0, "output_stride": 1}):
        alone, rep_alone = run_scenario(parse_config(json.dumps({**doc, "outputs": "compare"})))
        every, rep_every = run_scenario(parse_config(json.dumps({**doc, "outputs": ALL_OUTPUTS})))
        assert alone["compare"].to_csv() == every["compare"].to_csv()
        assert rep_alone["compare"] == rep_every["compare"]


def test_csv_17_digit_roundtrip():
    cfg = replace(ScenarioConfig(), t_end=2.0, dt=0.01, outputs="closed")
    series, _ = run_scenario(cfg)
    text = series["closed"].to_csv()
    header, body = text.split("\n", 1)
    assert header.split(",") == series["closed"].columns
    back = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    assert np.array_equal(back, series["closed"].data)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(wt=st.floats(-1.0, 1.0), j0=st.floats(0.0, 1.5), omega=st.floats(0.3, 3.0))
def test_rwa_is_the_constant_envelope(wt, j0, omega):
    # in its connection frame the rotating pair j0 e^{i omega t} is the
    # constant coupling j0: "rwa" and "constant" (gamma0 = 0) are one run
    def outcome(kind):
        doc = {"drive": kind, "omega_tilde": wt, "j0": j0, "omega": omega,
               "t_end": 2.0, "dt": 0.002, "outputs": ALL_OUTPUTS}
        try:
            series, report = run_scenario(parse_config(json.dumps(doc)))
        except DressedAtomError as exc:  # wt = j0 = 0 has no mixing angle
            return repr(exc)
        assert sorted(series) == sorted(ALL_OUTPUTS.split(","))
        del report["timing_s"]  # the one entry that differs between runs
        return ({k: ts.to_csv() for k, ts in series.items()},
                json.dumps(report, sort_keys=True))

    assert outcome("rwa") == outcome("constant")


# largest change over 60 random configs: 1.7e-15 on frame, closed, oracle
# and compare, 4.3e-14 on current (d current/dt divides by dt) and 4.6e-11
# on identities (finite-difference residuals)
_HBAR_TOL = {"frame": 1e-13, "closed": 1e-13, "oracle": 1e-13, "compare": 1e-13,
             "current": 5e-13, "identities": 5e-10}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(hbar=st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x),
       drive=st.sampled_from(["cosine", "rwa", "constant"]),
       wt=st.floats(-1.0, 1.0), j0=st.floats(0.1, 1.5), e1=st.floats(-2.0, 2.0))
def test_hbar_rescaling(hbar, drive, wt, j0, e1):
    # hbar converts energies to angular frequencies at the boundary: scaling
    # e1, e2, j0 and gamma0 by hbar, with Omega and the times unchanged,
    # describes the same atom, up to the rounding of that division
    base = ScenarioConfig(drive=drive, e1=e1, e2=e1 + 2.0 * wt + 1.0, j0=j0,
                          gamma0=0.3 if drive == "constant" else 0.0, t_end=3.0,
                          outputs=",".join(_HBAR_TOL))
    scaled = replace(base, hbar=hbar, e1=hbar * base.e1, e2=hbar * base.e2,
                     j0=hbar * base.j0, gamma0=hbar * base.gamma0)
    a, rep_a = run_scenario(base)
    b, rep_b = run_scenario(scaled)
    for kind, tol in _HBAR_TOL.items():
        x, y = a[kind].data, b[kind].data
        assert np.array_equal(np.isnan(x), np.isnan(y))
        assert np.nanmax(np.abs(x - y)) <= tol, kind
    assert rep_a["norm_ok"] and rep_b["norm_ok"]


def test_frame_output_columns():
    cfg = replace(ScenarioConfig(), t_end=2.0, dt=0.01, outputs="frame")
    series, _ = run_scenario(cfg)
    assert series["frame"].columns == ["t", "omega_r", "cos_theta",
                                       "sin_theta", "dtheta_dt"]


# -------------------------------------------------------------------- sweeps

def test_sweep_singleton_resonance():
    base = parse_config(json.dumps({
        "drive": "cosine", "j0": 1.0, "omega": 1.0,
        "t_end": 12.0, "dt": 0.005, "outputs": "compare",
    }))
    table, reports = sweep(base, "omega_tilde", [0.0])
    assert table.data.shape[0] == 1
    assert table.columns[0] == "omega_tilde"
    # at resonance closed form and oracle coincide
    assert table.column("max_abs")[0] <= 1e-6


def test_sweep_zero_coupling():
    base = parse_config(json.dumps({
        "drive": "cosine", "omega_tilde": 0.8, "omega": 1.0,
        "t_end": 12.0, "dt": 0.005, "outputs": "compare",
    }))
    table, _ = sweep(base, "j0", [0.0])
    # |psi0| = |sin(wt t)|: population peaks at 1 (up to grid resolution)
    # and oscillates at 2*wt
    assert table.column("peak_closed_p0")[0] == pytest.approx(1.0, abs=1e-3)
    assert table.column("dominant_freq")[0] == pytest.approx(2 * 0.8, rel=0.1)


def test_sweep_washout_transition():
    # dominant |psi0|^2 frequency moves from drive-modulated (2*Omega at
    # exact resonance) to detuning-dominated (2*omega_tilde, washed out)
    base = parse_config(json.dumps({
        "drive": "cosine", "j0": 0.1, "omega": 1.0,
        "t_end": 12.566370614359172, "dt": 0.00078, "outputs": "compare",
        "output_stride": 2,
    }))
    table, _ = sweep(base, "omega_tilde", [0.0, 20.0])
    freqs = table.column("dominant_freq")
    assert freqs[1] > freqs[0]
    assert freqs[0] == pytest.approx(2.0, rel=0.15)     # 2*Omega
    assert freqs[1] == pytest.approx(40.0, rel=0.05)    # 2*omega_tilde


def test_sweep_runs_only_the_compare_kind(monkeypatch):
    # a sweep row reads only the compare series and the report, so each
    # point adds compare to the base outputs and nothing else
    from dressedatom import scenario
    seen = []
    real = scenario.run_scenario
    monkeypatch.setattr(scenario, "run_scenario",
                        lambda cfg: seen.append(cfg.outputs) or real(cfg))
    base = ScenarioConfig(t_end=1.0, outputs="closed")
    sweep(base, "j0", [0.5, 1.0])
    assert seen == ["closed,compare", "closed,compare"]
    sweep(replace(base, outputs="identities"), "j0", [0.5])
    assert seen[-1] == "compare,identities"


def test_sweep_unknown_axis():
    with pytest.raises(UnknownAxis):
        sweep(ScenarioConfig(), "coupling", [1.0])


# ------------------------------------------------------- odd configurations

def test_run_negative_detuning():
    cfg = parse_config(json.dumps({
        "drive": "cosine", "omega_tilde": -0.4, "j0": 1.0, "omega": 1.0,
        "t_end": 8.0, "dt": 0.005, "outputs": "frame,closed,oracle,compare",
    }))
    series, report = run_scenario(cfg)
    assert report["detuning"] == pytest.approx(-0.4)
    assert report["norm_ok"]
    # frame stays finite through the angle's pi/2 pinches at coupling zeros
    for col in ("omega_r", "cos_theta", "sin_theta", "dtheta_dt"):
        assert np.all(np.isfinite(series["frame"].column(col)))


def test_run_positive_branch():
    cfg = parse_config(json.dumps({
        "drive": "cosine", "omega_tilde": 0.0, "j0": 1.0, "omega": 1.0,
        "branch": "positive", "t_end": 8.0, "dt": 0.005,
        "outputs": "closed,oracle,compare",
    }))
    series, report = run_scenario(cfg)
    # positive root accumulates int |cos|: monotone non-decreasing phase
    re_z = series["closed"].column("re_Z")
    assert np.all(np.diff(re_z) >= -1e-12)
    assert np.isfinite(report["compare"]["MaxAbs"])


def test_run_hbar_conversion_matches_natural_units():
    natural = parse_config(json.dumps({
        "drive": "rwa", "omega_tilde": 0.6, "j0": 0.8, "omega": 1.0,
        "t_end": 10.0, "dt": 0.005, "outputs": "closed",
    }))
    # same physics quoted with hbar = 2: energies double
    scaled = parse_config(json.dumps({
        "drive": "rwa", "e1": 0.0, "e2": 2 * (2 * 0.6 + 1.0), "j0": 1.6,
        "omega": 1.0, "hbar": 2.0, "t_end": 10.0, "dt": 0.005,
        "outputs": "closed",
    }))
    a, _ = run_scenario(natural)
    b, _ = run_scenario(scaled)
    assert np.allclose(a["closed"].column("p0_raw"),
                       b["closed"].column("p0_raw"), atol=1e-12)
