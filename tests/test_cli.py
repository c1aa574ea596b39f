"""Command-line surface: subcommands, files, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dressedatom
from dressedatom.cli import build_parser, main
from dressedatom.oracle import _CHUNK, step_count
from dressedatom.scenario import _SWEEPABLE, OUTPUT_KINDS


@pytest.fixture
def rwa_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "drive": "rwa", "omega_tilde": 0.6, "j0": 0.8, "omega": 1.0,
        "t_end": 20.0, "dt": 0.005, "output_stride": 10,
        "outputs": "closed,oracle,compare",
    }))
    return path


def test_run_writes_outputs(rwa_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(rwa_config), "--out", str(out)]) == 0
    for name in ("closed.csv", "oracle.csv", "compare.csv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["compare"]["MaxAbs"] <= 1e-6
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == "t,closed_p0,oracle_p0,abs_diff"


@pytest.mark.parametrize("n", [1, 3, 2 * _CHUNK + 1])
def test_report_says_what_produced_it(n, tmp_path):
    # the package version, the step the oracle took and the steps of its
    # main run and of the Richardson partner (two half steps for one step,
    # ceil(n/2) otherwise); two runs differ only in timing_s
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9,
                               "dt": 1e-3, "t_end": n * 1e-3, "outputs": "oracle"}))
    reports = []
    for out in ("a", "b"):
        assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == 0
        reports.append(json.loads((tmp_path / out / "report.json").read_text()))
    report = reports[0]
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    version = re.search(r'^version = "(.*)"$', pyproject, re.M).group(1)
    diag = report["diagnostics"]
    assert diag["version"] == dressedatom.__version__ == version
    t_end, dt = report["config"]["t_end"], report["config"]["dt"]
    assert diag["rk4_steps"] == step_count(t_end, dt) == n
    assert diag["partner_steps"] == (2 if n == 1 else -(-n // 2))
    assert diag["dt"] == t_end / diag["rk4_steps"]
    timings = [rep.pop("timing_s") for rep in reports]
    assert reports[0] == reports[1]
    for timing in timings:
        assert set(timing) == {"oracle", "total", "csv"}
        assert all(math.isfinite(v) and v >= 0.0 for v in timing.values())


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state(rwa_config, tmp_path, capsys):
    # one parser serves every call in a process: a usage error, a sweep and
    # identities in between leave a repeated run's bytes unchanged
    first, again = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(rwa_config), "--out", str(first)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", str(rwa_config)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: dressedatom run")
    assert main(["sweep", str(rwa_config), "--axis", "omega_tilde", "--values", "0.6",
                 "--out", str(tmp_path / "s")]) == 0
    assert main(["identities", str(rwa_config)]) == 0
    assert main(["run", str(rwa_config), "--out", str(again)]) == 0
    names = sorted(p.name for p in first.glob("*.csv"))
    assert names == ["closed.csv", "compare.csv", "oracle.csv"]
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"drive": "cosine", "j0": -1}')
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    bad.write_text('{"no_such_key": 1}')
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert main(["run", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("text", [
    '{"j0": NaN}',
    '{"t_end": NaN}',
    '{"t_end": Infinity}',
    '{"omega_tilde": -Infinity}',
    '{"omega_tilde": 0.5, "e1": NaN}',
    '{"gamma0": NaN}',
    '{"dt": 1' + '0' * 400 + '}',
], ids=["j0-nan", "t_end-nan", "t_end-inf", "omega_tilde-neginf", "e1-nan",
        "gamma0-nan", "dt-int-beyond-float"])
def test_non_finite_number_is_a_parse_error(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [
    {"t_end": 1e300, "outputs": "closed"},
    {"t_end": 10000.001, "dt": 0.001, "outputs": "oracle"},
], ids=["t_end-1e300", "just-above-ceiling"])
def test_step_count_ceiling_is_a_validation_error(doc, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ceiling" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [
    {"j0": 1e200, "outputs": "frame", "t_end": 1},
    {"omega_tilde": 1e200, "j0": 1, "outputs": "frame", "t_end": 1},
    {"j0": 1e155, "outputs": "closed", "t_end": 1},
    {"e1": 1.7e308, "e2": -1.7e308},
], ids=["coupling-squared", "detuning-squared", "radicand-sum", "level-difference"])
def test_overflowing_model_is_a_validation_error(doc, tmp_path, capsys):
    # each value parses, but a derived one overflows the float range: the
    # model rejects it before any array is computed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "o").exists()


def test_missed_norm_tolerance_warns(rwa_config, tmp_path, capsys):
    # dt just under the step bound 2 pi/200 and a long span: the drift
    # (4.2e-8) exceeds the fixed tolerance 1e-8
    doc = json.loads(rwa_config.read_text())
    rwa_config.write_text(json.dumps(dict(doc, dt=0.0314, t_end=200.0)))
    out = tmp_path / "out"
    assert main(["run", str(rwa_config), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["norm_ok"] is False
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: norm drift")


def test_shifted_mean_level_keeps_norm(tmp_path, capsys):
    # e1 = 40 shifts both levels; the oracle applies that phase exactly,
    # so the norm holds and nothing is printed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9,
                               "t_end": 10, "outputs": "oracle", "e1": 40}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["norm_ok"] is True
    assert capsys.readouterr().err == ""


def test_removed_quad_tol_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"quad_tol": 1e-10}')
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: unknown config key 'quad_tol'\n"


@pytest.mark.parametrize("key", ["deg_eps", "rad_eps", "norm_tol", "fd_step"])
def test_numerical_policy_is_not_a_config_key(key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1e-9}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"


@pytest.mark.parametrize("outputs, code", [("closed,oracle,compare", 1),
                                           ("oracle", 1), ("frame,closed", 0)])
def test_degenerate_dressed_preparation(outputs, code, tmp_path, capsys):
    # with omega_tilde = j0 = 0 the dressed frame, and with it the dressed
    # preparation of the oracle, is undefined: an input error, not a
    # numerical one; runs that prepare no state are fine
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drive": "rwa", "omega_tilde": 0, "j0": 0,
                               "outputs": outputs}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: initial_state 'dressed'") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()
    else:
        assert err == ""
    # diag(omega_tilde, -omega_tilde) with omega_tilde < 0 is not degenerate:
    # its dressed frame has theta = pi/2, and every run of it succeeds
    cfg.write_text(json.dumps({"drive": "rwa", "omega_tilde": -0.5, "j0": 0,
                               "outputs": outputs}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "detuned")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "detuned" / "report.json").read_text())
    if "compare" in outputs:
        assert report["compare"]["MaxAbs"] <= 1e-12


def test_numerical_error_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    # dt far above the enforced resolution bound
    cfg.write_text(json.dumps({
        "drive": "rwa", "omega_tilde": 0.6, "j0": 0.8, "t_end": 5.0,
        "dt": 1.0, "outputs": "oracle",
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_identities_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "drive": "cosine", "omega_tilde": 0.7, "j0": 1.3, "omega": 2.1,
        "t_end": 8.0, "dt": 0.002,
    }))
    assert main(["identities", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r1"] <= 1e-8 and out["r2"] <= 1e-8


@pytest.mark.parametrize("doc", [
    {"drive": "cosine", "omega_tilde": -0.3, "j0": 0.9, "omega": math.pi / 2,
     "t_end": 2, "outputs": "identities"},
    {"omega_tilde": -0.3, "j0": 0, "t_end": 2, "outputs": "identities"},
], ids=["grid-point-on-coupling-zero", "zero-coupling"])
def test_identities_at_negative_detuning(doc, tmp_path, capsys):
    # wt + |omega_r| is 0 on a coupling zero when wt < 0: the literal eq24
    # columns stay finite there, and N^2 = 0 rows of r2/r3 warn nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = (out / "identities.csv").read_text()
    header = text.splitlines()[0].split(",")
    data = np.loadtxt(out / "identities.csv", delimiter=",", skiprows=1, ndmin=2)
    for name in ("re_eq24", "im_eq24", "im_eq24_gap"):
        assert np.all(np.isfinite(data[:, header.index(name)])), name


@pytest.mark.parametrize("command", ["run", "identities"])
def test_span_of_astronomical_zero_count(command, tmp_path, capsys):
    # t_end = 1e308 spans ~1e308 coupling zeros: counted per row, not listed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_end": 1e308, "dt": 1e301, "output_stride": 100000000,
                               "omega_tilde": 0, "outputs": "frame,identities"}))
    argv = [command, str(cfg)] + (["--out", str(tmp_path / "o")] if command == "run" else [])
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "identities"])
def test_eq24_rows_below_the_degeneracy_floor_are_nan(command, tmp_path, capsys):
    # omega is pi/2 + 1e-13, so at t = 1 the coupling j0 cos(omega) is
    # about -1e-7: above 1e-9 but below the model's deg_floor (1e-12 j0 =
    # 1e-6), where the literal eq24 form is undefined; the run still
    # succeeds, with NaN rows there
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega_tilde": 0, "j0": 1e6, "omega": 1.5707963267949966,
                               "t_end": 1, "dt": 1, "output_stride": 1,
                               "outputs": "identities"}))
    out = tmp_path / "o"
    argv = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    if command == "run":
        header = (out / "identities.csv").read_text().splitlines()[0].split(",")
        data = np.loadtxt(out / "identities.csv", delimiter=",", skiprows=1, ndmin=2)
        assert data[:, 0].tolist() == [0.0, 1.0]
        for name in ("re_eq24", "im_eq24", "im_eq24_gap"):
            col = data[:, header.index(name)]
            assert np.isfinite(col[0]) and np.isnan(col[1]), name


def test_package_and_cli_import_no_scipy(tmp_path):
    # no command needs scipy; a fresh interpreter shows what importing the
    # package and the CLI, running the closed form on every path of the
    # phase, and running the acceptance suite loads
    docs = [{"omega_tilde": 0.0, "branch": "smooth"},
            {"omega_tilde": 0.0, "branch": "positive"},
            {"omega_tilde": 0.4}]
    for i, doc in enumerate(docs):
        (tmp_path / f"{i}.json").write_text(json.dumps(dict(
            doc, drive="cosine", j0=0.9, t_end=4.0, outputs="closed,compare")))
    code = ("import sys, dressedatom, dressedatom.cli\n"
            f"for i in range({len(docs)}):\n"
            f"    assert dressedatom.cli.main(['run', '{tmp_path}/%d.json' % i,\n"
            f"                                 '--out', '{tmp_path}/o%d' % i]) == 0\n"
            "assert dressedatom.cli.main(['accept']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(dressedatom.__file__).parents[1]))
    # a numpy warning inside the gate fails it
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_file_io_names_its_encoding(tmp_path):
    # the config is read as UTF-8 and every output written with a named
    # encoding, so no read or write falls back to the locale's encoding
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_end": 0.5, "outputs": "closed,oracle,compare"}),
                   encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(dressedatom.__file__).parents[1]))
    flags = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "dressedatom.cli"]
    for argv in (["run", str(cfg), "--out", str(tmp_path / "run")],
                 ["sweep", str(cfg), "--axis", "j0", "--values", "0.5,1",
                  "--out", str(tmp_path / "sweep")]):
        proc = subprocess.run(flags + argv, env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_config_that_is_not_utf8_is_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"drive": "\xff"}')
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


def test_sweep_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "drive": "cosine", "j0": 1.0, "omega": 1.0, "t_end": 6.0,
        "dt": 0.005, "outputs": "compare",
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--axis", "omega_tilde",
                 "--values", "0.0,0.5", "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    assert capsys.readouterr().out == text
    lines = text.splitlines()
    assert lines[0].startswith("omega_tilde,")
    assert len(lines) == 3


@pytest.mark.parametrize("axis, values", [("j0", "0.5,nan"), ("dt", "nan"),
                                          ("t_end", "1,inf"), ("e1", "0,-1e999")])
def test_sweep_values_must_be_finite(axis, values, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["sweep", str(cfg), "--axis", axis, "--values", values,
                 "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --values must be finite") and err.count("\n") == 1
    assert not (tmp_path / "s").exists()


def test_sweep_over_an_empty_span(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    out = tmp_path / "s"
    assert main(["sweep", str(cfg), "--axis", "t_end", "--values", "0,1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 6) and np.all(rows[0] == 0.0)
    reports = json.loads((out / "sweep_report.json").read_text())
    assert reports[0]["empty"] and reports[0]["compare"]["MaxAbs"] == 0.0


def test_sweep_reports_a_failed_point(tmp_path, capsys):
    # dt = 0.5 exceeds the step bound: that point fails with one stderr
    # line and NaN metrics, and the other two still run
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_end": 2}')
    out = tmp_path / "s"
    assert main(["sweep", str(cfg), "--axis", "dt", "--values", "0.001,0.5,0.002",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("sweep point dt=0.5 failed: StepTooLarge")
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 6) and list(rows[:, 0]) == [0.001, 0.5, 0.002]
    assert np.all(np.isnan(rows[1, 1:])) and np.all(np.isfinite(rows[[0, 2]]))
    reports = json.loads((out / "sweep_report.json").read_text())
    assert [r["status"] for r in reports] == ["ok", "StepTooLarge", "ok"]
    assert "status" not in (out / "sweep.csv").read_text()


def test_sweep_with_no_successful_point_fails(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_end": 2}')
    assert main(["sweep", str(cfg), "--axis", "dt", "--values", "0.5,0.6",
                 "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: dt=5.000e-01") and err.count("\n") == 1
    assert not (tmp_path / "s").exists()


def test_identities_over_an_empty_span(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_end": 0}')
    assert main(["identities", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"r1": 0.0, "r2": 0.0, "r3": 0.0}


def test_sweep_unknown_axis_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["sweep", str(cfg), "--axis", "nope", "--values", "1",
                 "--out", str(tmp_path / "s")]) == 1


@pytest.mark.parametrize("outputs", ["", " , "])
def test_run_rejects_outputs_naming_no_kind(outputs, tmp_path, capsys):
    # an outputs list with no kind is one error line; the directory is left
    # as it was, CSVs of an earlier run included
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_end": 0.5, "outputs": outputs}))
    out = tmp_path / "o"
    out.mkdir()
    (out / "closed.csv").write_text("t\n")
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == ["closed.csv"]
    # sweep and identities choose their own kinds, so the base config is fine
    assert main(["identities", str(cfg)]) == 0
    assert main(["sweep", str(cfg), "--axis", "j0", "--values", "0.5",
                 "--out", str(tmp_path / "s")]) == 0


def test_accept_subcommand(capsys):
    assert main(["accept"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 11
    with pytest.raises(SystemExit) as exc:  # the gate has one setup
        main(["accept", "--fast"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run"],
    ["sweep", "--axis", "omega_tilde", "--values", "0.0,0.5"],
])
def test_unwritable_out_is_one_line_error(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drive": "cosine", "j0": 1.0, "t_end": 1.0,
                               "dt": 0.01, "outputs": "compare"}))
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    for out in (taken, taken / "sub"):
        assert main([argv[0], str(cfg), *argv[1:], "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write outputs to {out}: ")
    assert taken.read_text() == "a file, not a directory"


def test_failed_csv_write_is_one_line_error(tmp_path, capsys, monkeypatch):
    # oracle.csv is a directory: frame.csv and closed.csv are open when its
    # open fails, and both must be closed on the way out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drive": "cosine", "j0": 1.0, "t_end": 1.0, "dt": 0.01,
                               "outputs": "frame,closed,oracle,current"}))
    out = tmp_path / "out"
    (out / "oracle.csv").mkdir(parents=True)
    opened = []
    path_open = Path.open
    monkeypatch.setattr(Path, "open",
                        lambda self, *a, **k: opened.append(path_open(self, *a, **k)) or opened[-1])
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write outputs to {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [Path(f.name).name for f in opened][1:] == ["frame.csv", "closed.csv"]
    assert all(f.closed for f in opened)


def test_run_removes_stale_csvs(tmp_path):
    # a second run into the same directory leaves only what its report
    # lists: the earlier frame.csv goes, a file that is no output stays
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drive": "cosine", "omega_tilde": 0.2, "j0": 1.0,
                               "t_end": 1.0, "dt": 0.01, "outputs": "frame,closed"}))
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["closed.csv", "frame.csv",
                                                      "report.json"]
    cfg.write_text(json.dumps({"drive": "cosine", "omega_tilde": 0.5, "j0": 1.0,
                               "t_end": 1.0, "dt": 0.01, "outputs": "closed"}))
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["closed.csv", "report.json"]
    assert json.loads((out / "report.json").read_text())["config"]["outputs"] == "closed"
    (out / "notes.txt").write_text("kept")
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["closed.csv", "notes.txt",
                                                      "report.json"]


@pytest.mark.parametrize("argv", [
    ["run", "{cfg}", "--out", "{tmp}/run"],
    ["sweep", "{cfg}", "--axis", "j0", "--values", "0.5,1", "--out", "{tmp}/sweep"],
    ["identities", "{cfg}"],
], ids=["run", "sweep", "identities"])
def test_closed_stdout_exits_1_without_traceback(argv, tmp_path):
    # `dressedatom ... | head`: the reader is gone before anything is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_end": 1.0, "outputs": "closed,identities"}))
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(dressedatom.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dressedatom.cli"] + argv, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_output_stride_beyond_int64(tmp_path, capsys):
    # a stride of n_steps or more keeps the first and the last state
    doc = {"t_end": 0.5, "outputs": ",".join(OUTPUT_KINDS)}
    for name, stride in (("huge", 10 ** 23), ("n_steps", 500)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(doc, output_stride=stride)))
        assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 0
        assert capsys.readouterr().err == "", name
    for kind in OUTPUT_KINDS:
        huge, n_steps = (tmp_path / d / f"{kind}.csv" for d in ("huge", "n_steps"))
        assert huge.read_bytes() == n_steps.read_bytes(), kind


# --------------------------------------------------------- the config space

# the columns that may hold NaN at exit 0: r2 and r3 where a stencil reaches
# a coupling zero or a quotient is ill-conditioned, and the literal eq24
# integrand where |omega_r| vanishes
_NAN_COLUMNS = {"r2", "r3", "re_eq24", "im_eq24", "im_eq24_gap"}


@st.composite
def _cases(draw):
    """A config that sets every key, and a one- or two-value sweep of it.

    The physics is drawn in natural units and converted by hbar.  dt is a
    fraction of the step bound, some above it, and a run takes at most 2e4
    steps; no sweep value raises the step count.
    """
    hbar = 10.0 ** draw(st.floats(-3.0, 3.0))
    drive = draw(st.sampled_from(["cosine", "rwa", "constant"]))
    wt = draw(st.sampled_from([0.0, 1e-7]) | st.floats(-5.0, 5.0))
    j0 = draw(st.just(0.0) | st.floats(0.0, 5.0))
    gamma0 = draw(st.floats(0.0, 2.0)) if drive == "constant" else 0.0
    omega = draw(st.floats(0.1, 10.0))
    e1 = draw(st.floats(-50.0, 50.0))
    bound = 2.0 * math.pi / max(omega, math.hypot(wt, j0, gamma0)) / 200.0
    dt = bound * draw(st.floats(0.05, 1.2))
    steps = draw(st.just(0) | st.floats(0.0, math.log10(2e4)).map(
        lambda x: round(10.0 ** x)))
    doc = {"drive": drive, "e1": e1 * hbar, "omega": omega, "j0": j0 * hbar,
           "gamma0": gamma0 * hbar, "hbar": hbar,
           "branch": draw(st.sampled_from(["smooth", "positive"])),
           "initial_state": draw(st.sampled_from(["dressed", "bare1", "bare2"])),
           "t_end": steps * dt, "dt": dt,
           "output_stride": draw(st.sampled_from([1, 7]) | st.integers(1, 5000)),
           "outputs": ",".join(draw(st.lists(st.sampled_from(OUTPUT_KINDS),
                                             min_size=1, unique=True)))}
    e2 = doc["e1"] + hbar * (2.0 * wt + omega)
    if draw(st.booleans()):
        doc["omega_tilde"] = wt
    else:
        doc["e2"] = e2
    axis = draw(st.sampled_from(_SWEEPABLE))
    n = draw(st.integers(1, 2))

    def factors(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    if axis == "t_end":
        values = [doc["t_end"] * f for f in factors(st.sampled_from([0.0, 0.5, 1.0]))]
    elif axis == "dt":
        values = [dt * f for f in factors(st.floats(1.0, 1.5))]
    elif axis == "omega_tilde":
        values = factors(st.floats(-5.0, 5.0))
    else:
        base = e2 if axis == "e2" else doc[axis]
        values = [base * f for f in factors(st.floats(0.0, 2.0))]
    return doc, axis, values


def _call(argv):
    """main() in-process with warnings as errors: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert code in (1, 2) and err.getvalue().count("\n") == 1, err.getvalue()
    return code, out.getvalue()


def _csv_columns(path: Path) -> dict:
    lines = path.read_text().splitlines()
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2) \
        if len(lines) > 1 else np.empty((0, len(lines[0].split(","))))
    return dict(zip(lines[0].split(","), data.T))


@example(case=({}, "t_end", [0.0, 1.0]))
@example(case=({"t_end": 0}, "j0", [1.0]))
@example(case=({}, "dt", [0.001, 0.5, 0.002]))  # the middle point fails
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_config_space(case):
    # exit 0 means finite output; any other exit is 1 or 2 with one line
    doc, axis, values = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if _call(["run", str(cfg), "--out", f"{tmp}/run"])[0] == 0:
            for path in Path(f"{tmp}/run").glob("*.csv"):
                for name, col in _csv_columns(path).items():
                    assert name in _NAN_COLUMNS or np.all(np.isfinite(col)), \
                        (path.name, name)
        code, out = _call(["identities", str(cfg)])
        if code == 0:
            assert all(map(math.isfinite, json.loads(out).values()))
        code, _ = _call(["sweep", str(cfg), "--axis", axis,
                         "--values=" + ",".join(map(repr, values)),
                         "--out", f"{tmp}/sweep"])
        if code == 0:
            # a point that failed keeps its axis value and NaN metrics, and
            # its report says why
            table = _csv_columns(Path(f"{tmp}/sweep/sweep.csv"))
            reports = json.loads(Path(f"{tmp}/sweep/sweep_report.json").read_text())
            ok = np.array([rep["status"] == "ok" for rep in reports])
            assert ok.any() and list(table[axis]) == values
            for name, col in table.items():
                assert np.all(np.isfinite(col[ok])), name
                assert name == axis or np.all(np.isnan(col[~ok])), name
