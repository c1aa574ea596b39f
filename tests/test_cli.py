"""Command-line surface: subcommands, files, exit codes, determinism."""

import json

import pytest

from dressedatom.cli import main


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


def test_run_deterministic_bytes(rwa_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(rwa_config), "--out", str(out1)]) == 0
    assert main(["run", str(rwa_config), "--out", str(out2)]) == 0
    for name in ("closed.csv", "oracle.csv", "compare.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
    '{"quad_tol": NaN}',
    '{"dt": 1' + '0' * 400 + '}',
], ids=["j0-nan", "t_end-nan", "t_end-inf", "omega_tilde-neginf", "e1-nan",
        "quad_tol-nan", "dt-int-beyond-float"])
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


def test_missed_norm_tolerance_warns(rwa_config, tmp_path, capsys):
    doc = json.loads(rwa_config.read_text())
    rwa_config.write_text(json.dumps(dict(doc, norm_tol=1e-15)))
    out = tmp_path / "out"
    assert main(["run", str(rwa_config), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["norm_ok"] is False
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: norm drift")


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


def test_sweep_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "drive": "cosine", "j0": 1.0, "omega": 1.0, "t_end": 6.0,
        "dt": 0.005, "outputs": "compare",
    }))
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--axis", "omega_tilde",
                 "--values", "0.0,0.5", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("omega_tilde,")
    assert len(lines) == 3


def test_sweep_unknown_axis_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert main(["sweep", str(cfg), "--axis", "nope", "--values", "1",
                 "--out", str(tmp_path / "s")]) == 1


def test_accept_fast_smoke(capsys):
    assert main(["accept", "--fast"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 11
