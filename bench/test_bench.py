"""Tests of the benchmark itself (not collected by the package's suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import dressedatom  # noqa: E402
import dressedatom.cli  # noqa: E402
import dressedatom.scenario  # noqa: E402

WORKLOADS = ["washout", "oracle_long", "report_all"]


def tiny(name, tmp_path, seed=3):
    wl = workloads.generate(name, seed, tmp_path / name, tiny=True)
    workloads.prepare(wl)
    return wl


def test_generator_is_seeded():
    a = workloads.generate("report_all", 5, Path("unused"))
    b = workloads.generate("report_all", 5, Path("unused"))
    c = workloads.generate("report_all", 6, Path("unused"))
    assert a.config_texts() == b.config_texts() != c.config_texts()
    for cfg in a.configs:
        dressedatom.scenario.parse_config(json.dumps(cfg))


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_has_no_failures(name, tmp_path):
    run = bench.Run(tiny(name, tmp_path), dressedatom)
    run.one_pass()
    run.one_pass()
    assert run.attempted == 2 * run.wl.ops_per_pass
    assert run.failed == 0, run.messages


def test_timed_passes_are_bracketed_by_the_reference(tmp_path):
    run = bench.Run(tiny("washout", tmp_path), dressedatom)
    samples = run.passes_for(0.0)
    assert len(samples) == bench.MIN_PASSES
    for wall, cpu, ref_wall, ref_cpu in samples:
        assert wall > 0 and cpu > 0 and ref_wall > 0 and ref_cpu > 0
    assert run.failed == 0, run.messages


def _rewrite_column(path: Path, column: str, delta: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    data[:, header.index(column)] += delta
    body = "\n".join(",".join(f"{v:.17g}" for v in row) for row in data)
    path.write_text(lines[0] + "\n" + body + "\n")


@pytest.mark.parametrize("kind,column", [("closed", "p0_raw"), ("closed", "re_Z"),
                                         ("closed", "im_Z"), ("oracle", "p0_oracle")])
def test_perturbed_output_counts_a_failure(kind, column, tmp_path):
    wl = tiny("report_all", tmp_path)
    results = workloads.run_pass(wl, dressedatom)
    per_op, _ = workloads.check_pass(wl, results)
    assert not any(per_op)
    _rewrite_column(wl.workdir / "out1" / f"{kind}.csv", column, 1e-4)
    per_op, _ = workloads.check_pass(wl, results)
    assert per_op[1] and not per_op[0]


@pytest.mark.parametrize("key,change", [("status", lambda v: "InsufficientSpan"),
                                        ("status", lambda v: "NoOscillation"),
                                        ("correlation", lambda v: v + 1e-3),
                                        ("amplitude", lambda v: v * 1.01),
                                        ("n_periods", lambda v: v + 0.01)])
def test_wrong_current_fit_counts_a_failure(key, change, tmp_path):
    wl = workloads.generate("oracle_long", 3, tmp_path / "ol")  # full size: 5+ periods
    workloads.prepare(wl)
    results = workloads.run_pass(wl, dressedatom)
    assert workloads.check_pass(wl, results)[0] == [[]]
    path = wl.workdir / "out0" / "report.json"
    report = json.loads(path.read_text())
    fit = report["current_fit"]
    assert fit["status"] == "ok"
    fit[key] = change(fit[key])
    path.write_text(json.dumps(report))
    assert workloads.check_pass(wl, results)[0][0]


def test_completed_fit_below_the_span_fails():
    p = checks.resolve({"drive": "cosine", "omega_tilde": 0.3, "j0": 0.8})  # t_end 10
    t = checks.output_grid(p)
    fit = {"status": "ok", "correlation": 0.5, "amplitude": 0.1, "n_periods": 3.0}
    assert checks.check_current_fit(p, fit, t, np.sin(t))
    assert not checks.check_current_fit(p, {"status": "InsufficientSpan"}, t, np.sin(t))


def test_perturbed_phase_fails_the_closed_check():
    p = checks.resolve({"drive": "cosine", "omega_tilde": 0.3, "j0": 0.8})
    t = checks.output_grid(p)
    z = checks.phase_reference(p, t)
    assert checks.check_closed(p, t, z.real, z.imag, checks.p0_of(z)) == []
    bumped = z.real + 1e-6 * np.sin(t)
    assert checks.check_closed(p, t, bumped, z.imag, checks.p0_of(z))


def test_perturbed_sweep_table_fails(tmp_path):
    wl = tiny("washout", tmp_path)
    [(csv_text, reports)] = workloads.run_pass(wl, dressedatom)
    lines = csv_text.splitlines()
    row = lines[1].split(",")
    row[3] = repr(float(row[3]) + 1e-4)  # peak_closed_p0 of the resonant row
    bad = "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"
    per_op, _ = workloads.check_pass(wl, [(bad, reports)])
    assert per_op[0] and not any(per_op[1:])


def test_changed_bytes_count_as_failures(tmp_path):
    run = bench.Run(tiny("oracle_long", tmp_path), dressedatom)
    run.one_pass()
    run.digests = [{k: "0" * 64 for k in d} for d in run.digests]
    run.one_pass()
    assert run.failed == 1 and "differ" in run.messages[0]


def test_traced_passes_report_every_layer(tmp_path):
    for name in WORKLOADS:
        run = bench.Run(tiny(name, tmp_path), dressedatom)
        _, _, tracer, per_pass = bench.traced_passes(run, 0.0)
        assert tracer.absent == [] and run.failed == 0
        metrics = bench.layer_metrics(per_pass)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"] for m in spec["per_layer"]} - {"setup.import_s",
                                                             "trace.overhead_s"}
        assert wanted == set(metrics)
        if name == "oracle_long":
            assert metrics["closedform.quad_calls"][0] == 0
            # t_end / dt steps, then twice as many at dt / 2 for Richardson
            assert metrics["oracle.rk4_steps"][0] == 3 * 4000
        else:
            assert metrics["closedform.quad_calls"][0] > 0
    # uninstalled: the package's functions are the originals again
    assert not hasattr(dressedatom.scenario.run_scenario, "__wrapped__")


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "COUNTERS", [("closedform", "no_such_fn", None, False)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["closedform.no_such_fn"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "washout",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
