"""Seeded workload generator and the passes that drive the package.

A workload is a list of config documents drawn from ``--seed`` plus one
pass function.  Passes call only public entry points (``scenario.sweep``
and ``cli.main``); the package sees nothing but the generated config JSON.

    washout      scenario.sweep over omega_tilde with the washout script's
                 base config (cosine, j0 = 0.1, W = 1, dt = 1.5e-3, stride
                 2, outputs compare) at t_end = 4 pi; exact resonance plus
                 one log-uniform detuning from each half of [1e-3, 10] * j0
                 (stratified, so every seed costs about the same).
                 Quadrature-bound: closedform dominates.
    oracle_long  one cli ``run``, outputs oracle,current, cosine drive,
                 omega_tilde in [0.2, 2], j0 in [0.5, 1.5], dt = 1e-3,
                 t_end = 64.  RK4-bound; closedform is never called.
    report_all   five cli ``run`` calls with all six outputs at default
                 size (t_end 10, dt 1e-3): resonant cosine, detuned cosine,
                 rwa, constant, and cosine with branch=positive and
                 initial_state=bare1.  Many short calls; the only workload
                 that reaches frame, identities and current.  The ranges
                 keep mean |omega_r| < pi/2, so every current fit spans
                 fewer than 5 periods and ends as InsufficientSpan (a
                 documented report entry) on every seed: the code path, and
                 with it the memory touched, does not depend on the seed.
                 oracle_long spans 11-45 periods, so its fit completes and
                 is checked against a reference fit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ALL_OUTPUTS = "frame,closed,oracle,compare,identities,current"
WASHOUT_J0 = 0.1


@dataclass
class Workload:
    name: str
    configs: list[dict]             # what the package receives, as JSON
    ops_per_pass: int
    workdir: Path
    refs: list = field(default_factory=list)

    def config_texts(self) -> list[str]:
        return [json.dumps(c, sort_keys=True) for c in self.configs]


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def generate(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Draw the workload's configs from the seed.  ``tiny`` shortens every
    run (for the benchmark's own tests); the parameter ranges stay."""
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    if name == "washout":
        base = {"drive": "cosine", "j0": WASHOUT_J0, "omega": 1.0,
                "t_end": (1.0 if tiny else 4.0) * math.pi, "dt": 0.0015,
                "output_stride": 2, "outputs": "compare", "omega_tilde": 0.0}
        lo, hi = math.log10(1e-3), math.log10(10.0)
        edges = np.linspace(lo, hi, 3)
        detunings = [WASHOUT_J0 * 10 ** _u(rng, a, b)
                     for a, b in zip(edges[:-1], edges[1:])]
        values = [0.0] + (detunings[-1:] if tiny else detunings)
        configs = [base] + [dict(base, omega_tilde=v) for v in values]
        wl = Workload(name, configs, len(values), workdir)
    elif name == "oracle_long":
        cfg = {"drive": "cosine", "omega_tilde": _u(rng, 0.2, 2.0),
               "j0": _u(rng, 0.5, 1.5), "omega": 1.0, "dt": 1e-3,
               "t_end": 4.0 if tiny else 64.0, "outputs": "oracle,current"}
        wl = Workload(name, [cfg], 1, workdir)
    elif name == "report_all":
        t_end = {"t_end": 2.0} if tiny else {}

        def common(**kw):
            return {"outputs": ALL_OUTPUTS, "j0": _u(rng, 0.5, 1.2),
                    "omega": _u(rng, 0.8, 1.25), **t_end, **kw}

        configs = [
            common(drive="cosine", omega_tilde=0.0),
            common(drive="cosine", omega_tilde=_u(rng, 0.2, 1.0)),
            common(drive="rwa", omega_tilde=_u(rng, 0.1, 0.8)),
            common(drive="constant", omega_tilde=_u(rng, 0.1, 0.8),
                   gamma0=_u(rng, 0.1, 0.4)),
            common(drive="cosine", omega_tilde=_u(rng, 0.05, 0.5),
                   branch="positive", initial_state="bare1"),
        ]
        wl = Workload(name, configs, len(configs), workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for c in wl.configs:
        p = checks.resolve(c)
        if p["dt"] > checks.step_bound(p):
            raise ValueError(f"generated dt violates the step bound: {c}")
    return wl


def write_configs(wl: Workload) -> None:
    wl.workdir.mkdir(parents=True, exist_ok=True)
    for i, text in enumerate(wl.config_texts()):
        (wl.workdir / f"cfg{i}.json").write_text(text)


def prepare(wl: Workload) -> None:
    """Untimed set-up: write config files and compute every reference."""
    write_configs(wl)
    if wl.name == "washout":
        for c in wl.configs[1:]:
            p = checks.resolve(c)
            t = checks.output_grid(p)
            closed_p0 = checks.p0_of(checks.phase_reference(p, t))
            oracle_p0 = checks.oracle_reference(p, t)["p0"]
            diff = closed_p0 - oracle_p0
            wl.refs.append({"omega_tilde": p["omega_tilde"],
                            "max_abs": float(np.max(np.abs(diff))),
                            "rms": float(np.sqrt(np.mean(diff ** 2))),
                            "peak_closed_p0": float(np.max(closed_p0)),
                            "peak_oracle_p0": float(np.max(oracle_p0))})
    else:
        for c in wl.configs:
            p = checks.resolve(c)
            wl.refs.append(checks.oracle_reference(p, checks.output_grid(p)))


def _outdir(wl: Workload, i: int) -> Path:
    return wl.workdir / f"out{i}"


def clear_outputs(wl: Workload) -> None:
    for i in range(wl.ops_per_pass):
        shutil.rmtree(_outdir(wl, i), ignore_errors=True)


def run_pass(wl: Workload, pkg) -> list:
    """One closed-loop pass: one call at a time, each waited for.

    Returns one raw result per operation; an exception is kept as the result
    so the pass always completes.  ``pkg`` is the imported dressedatom.
    """
    sink = io.StringIO()
    results = []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if wl.name == "washout":
            try:
                base = pkg.scenario.parse_config(wl.config_texts()[0])
                values = [c["omega_tilde"] for c in wl.configs[1:]]
                table, reports = pkg.scenario.sweep(base, "omega_tilde", values)
                results.append((table.to_csv(), reports))
            except Exception as exc:  # a failed pass is counted, not fatal
                results.append(exc)
        else:
            for i in range(wl.ops_per_pass):
                argv = ["run", str(wl.workdir / f"cfg{i}.json"),
                        "--out", str(_outdir(wl, i))]
                try:
                    results.append(pkg.cli.main(argv))
                except Exception as exc:  # counted as a failed operation
                    results.append(exc)
    return results


def _read_csv(path: Path) -> tuple[str, dict]:
    """(sha256 of the bytes, columns by header name)."""
    text = path.read_bytes()
    header = text.split(b"\n", 1)[0].decode().split(",")
    data = np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1, ndmin=2)
    return hashlib.sha256(text).hexdigest(), {h: data[:, k] for k, h in enumerate(header)}


def _check_run_output(p: dict, outdir: Path, ref: dict) -> tuple[list[str], dict]:
    read = {k: _read_csv(outdir / f"{k}.csv") for k in p["outputs"].split(",")}
    digests = {k: d for k, (d, _) in read.items()}
    csv = {k: cols for k, (_, cols) in read.items()}
    report = json.loads((outdir / "report.json").read_text())
    fails = checks.check_report(report)
    for k, cols in csv.items():
        fails += checks.check_grid(p, cols["t"])
        if k != "identities":  # the only output with documented NaN rows
            fails += checks.finite(f"{k} values", np.column_stack(list(cols.values())))
    if "closed" in csv:
        c = csv["closed"]
        fails += checks.check_closed(p, c["t"], c["re_Z"], c["im_Z"], c["p0_raw"],
                                     c["p0_norm"])
    if "oracle" in csv:
        o = csv["oracle"]
        fails += checks.check_oracle(p, o["t"], o["re_c1"] + 1j * o["im_c1"],
                                     o["re_c2"] + 1j * o["im_c2"], o["norm"],
                                     o["p0_oracle"], o["current"], ref)
    if "compare" in csv:
        m = csv["compare"]
        # the same populations as closed/oracle, along other rounding paths
        fails += checks.close("compare closed_p0", m["closed_p0"],
                              csv["closed"]["p0_raw"], 1e-12)
        fails += checks.close("compare oracle_p0", m["oracle_p0"],
                              csv["oracle"]["p0_oracle"], 1e-12)
        fails += checks.close("compare abs_diff", m["abs_diff"],
                              np.abs(m["closed_p0"] - m["oracle_p0"]), 1e-15)
    if "frame" in csv:
        fails += checks.check_frame(p, csv["frame"])
    if "identities" in csv:
        fails += checks.check_identities(p, csv["identities"])
    if "current" in csv:
        cur = csv["current"]
        fails += checks.close("current column", cur["current"], ref["current"],
                              checks.ORACLE_TOL)
        fails += checks.close("current dcurrent_dt", cur["dcurrent_dt"],
                              np.gradient(cur["current"], cur["t"]), 1e-9)
        fails += checks.check_current_fit(p, report.get("current_fit"), cur["t"],
                                          ref["current"])
    return fails, digests


def _check_washout(wl: Workload, result) -> tuple[list[list[str]], dict]:
    csv_text, reports = result
    rows = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
    header = csv_text.split("\n", 1)[0].split(",")
    per_op = []
    for i, ref in enumerate(wl.refs):
        if i >= len(rows):
            per_op.append(["sweep table is missing this row"])
            continue
        row = dict(zip(header, rows[i]))
        fails = checks.finite("sweep row", rows[i])
        fails += checks.close("omega_tilde", row["omega_tilde"], ref["omega_tilde"], 0.0)
        for key in ("max_abs", "rms", "peak_closed_p0", "peak_oracle_p0"):
            fails += checks.close(key, row[key], ref[key], checks.ORACLE_TOL)
        fails += checks.check_report(reports[i])
        per_op.append(fails)
    return per_op, {"sweep": hashlib.sha256(csv_text.encode()).hexdigest()}


def check_pass(wl: Workload, results: list) -> tuple[list[list[str]], list[dict]]:
    """Failure messages per operation, and the CSV digests per operation."""
    if wl.name == "washout":
        res = results[0]
        if isinstance(res, Exception):
            msg = f"sweep raised {type(res).__name__}: {res}"
            return [[msg]] * wl.ops_per_pass, [{}] * wl.ops_per_pass
        per_op, digest = _check_washout(wl, res)
        return per_op, [digest] * wl.ops_per_pass
    per_op, digests = [], []
    for i, res in enumerate(results):
        p = checks.resolve(wl.configs[i])
        if isinstance(res, Exception) or res != 0:
            per_op.append([f"cli.main returned {res!r}"])
            digests.append({})
            continue
        try:
            fails, digest = _check_run_output(p, _outdir(wl, i), wl.refs[i])
        except (OSError, ValueError, KeyError) as exc:
            fails, digest = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
        per_op.append(fails)
        digests.append(digest)
    return per_op, digests
