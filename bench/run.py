#!/usr/bin/env python3
"""dressedatom benchmark.

Run from the repository root:

    python3 bench/run.py --workload washout --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): washout, oracle_long, report_all.  Load is one
closed-loop caller in one process: one pass at a time, each operation
waited for, no threads.  The package is imported from ./src, exactly as
``PYTHONPATH=src`` would; the run refuses to start without it.

A run computes its references, times set-up in fresh interpreters, makes
one warm-up pass, then:

  --trace 0  one untimed pass in a fresh interpreter (peak_mem_mb), then
             timed passes for --seconds, each between two brackets of the
             reference kernel (reference.py): wall_norm_s and cpu_norm_s
             are pass medians normalised to the host's speed, setup_s the
             median launch.

  --trace 1  passes without and with the tracer installed, in turn, for
             --seconds; prints the per-layer metrics (medians over traced
             passes) and writes the spans to .bench_out/.

On a shared 2-core host, neighbours slow every pass by up to 1.9x in phases
that often outlast a run, and CPU time slows with wall time.  Raw pass
medians therefore move by 12-33% (quartile spread) from run to run.  The
end-to-end pass metrics divide each pass by the mean time of the reference
brackets just before and after it, and scale by reference.NOMINAL_S:

    wall_norm_s = median_i(wall_i / ref_wall_i) * NOMINAL_S

(cpu_norm_s likewise with CPU times).  That is the pass time on a host
where one bracket takes NOMINAL_S; a slow phase that falls on a pass and
its brackets cancels.  The raw wall_s and cpu_s are in the summary line,
which gives the minimum, both quartiles, the median and the sample count of
every timing.

Every pass is checked against references the benchmark computes itself
(checks.py).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a summary
with quartiles, sample counts, failed_frac and run metadata.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 5
MIN_PASSES = 3

# A fresh interpreter imports the package and parses the workload's
# configs, as every CLI invocation does before any work.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import dressedatom
t1 = time.perf_counter()
for text in json.load(sys.stdin):
    dressedatom.parse_config(text)
print(json.dumps({"import_s": t1 - t0}))
"""


MEMORY_CHILD = """
import json, os, resource, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], "src"]
import dressedatom, dressedatom.cli, dressedatom.scenario
import workloads
name, seed, workdir = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
warm = workloads.generate(name, seed, workdir / "tiny", tiny=True)
full = workloads.generate(name, seed, workdir / "full")
for wl in (warm, full):
    workloads.write_configs(wl)
workloads.run_pass(warm, dressedatom)
with open("/proc/self/statm") as f:
    before_kb = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024
results = workloads.run_pass(full, dressedatom)
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
errors = sum(isinstance(r, Exception) or (isinstance(r, int) and r != 0) for r in results)
print(json.dumps({"peak_kb": peak_kb - before_kb, "errors": errors}))
"""


def cpu_now() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def quartiles(xs: list[float]) -> dict:
    if len(xs) >= 2:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    return {"min": min(xs), "q1": q1, "median": statistics.median(xs), "q3": q3,
            "n": len(xs)}


class Run:
    """One benchmark run: counts operations and failures across all passes."""

    def __init__(self, wl: workloads.Workload, pkg):
        self.wl = wl
        self.pkg = pkg
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests = None   # CSV digests of the first pass
        self.passes = 0

    def record(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def one_pass(self) -> tuple[float, float]:
        """Run, time and check one pass; returns (wall_s, cpu_s)."""
        workloads.clear_outputs(self.wl)
        gc.collect()
        c0, w0 = cpu_now(), time.perf_counter()
        results = workloads.run_pass(self.wl, self.pkg)
        wall, cpu = time.perf_counter() - w0, cpu_now() - c0
        per_op, digests = workloads.check_pass(self.wl, results)
        if self.digests is None:
            self.digests = digests
        for i, (fails, digest) in enumerate(zip(per_op, digests)):
            if digest != self.digests[i]:
                fails = fails + ["CSV bytes differ from the first pass"]
            self.record(not fails, f"pass {self.passes} op {i}: {'; '.join(fails)}")
        self.passes += 1
        return wall, cpu

    def passes_for(self, seconds: float) -> list[tuple]:
        """Passes until ``seconds`` have gone and at least MIN_PASSES ran,
        with a reference bracket before the first and after every pass.
        Returns per pass (wall_s, cpu_s, ref_wall_s, ref_cpu_s), the
        reference times being the mean of the brackets on either side."""
        samples, start = [], time.perf_counter()
        before = reference.bracket()
        while len(samples) < MIN_PASSES or time.perf_counter() - start < seconds:
            wall, cpu = self.one_pass()
            after = reference.bracket()
            samples.append((wall, cpu, (before[0] + after[0]) / 2,
                            (before[1] + after[1]) / 2))
            before = after
        return samples

    def setup_launches(self) -> tuple[list[float], list[float]]:
        """Wall time of a fresh interpreter that imports and parses, and the
        import time it reports, over several launches."""
        env = dict(os.environ, PYTHONPATH="src")
        texts = json.dumps(self.wl.config_texts())
        walls, imports = [], []
        for _ in range(SETUP_LAUNCHES):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], input=texts,
                                  capture_output=True, text=True, cwd=ROOT, env=env,
                                  timeout=120)
            wall = time.perf_counter() - t0
            ok = proc.returncode == 0
            self.record(ok, f"set-up launch exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if ok:
                walls.append(wall)
                imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
        return walls, imports


def peak_memory_mb(run: Run, seed: int) -> float:
    """Peak resident-set growth of one full pass in a fresh interpreter.

    The child first makes a pass of the tiny variant of the same workload,
    so code paged in on first use is not counted as the pass's memory.
    (tracemalloc would give the Python-heap peak instead, but slows these
    allocation-heavy passes 10-20x.)
    """
    workdir = run.wl.workdir / "memory"
    proc = subprocess.run([sys.executable, "-c", MEMORY_CHILD, str(HERE), run.wl.name,
                           str(seed), str(workdir)], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"), timeout=170)
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = {"errors": -1}
    run.record(proc.returncode == 0 and out["errors"] == 0,
               f"memory pass: exit {proc.returncode}, {out}, {proc.stderr.strip()[-300:]}")
    return out.get("peak_kb", 0) / 1024


def layer_metrics(per_pass: list[dict]) -> dict:
    """Per-layer values: medians over traced passes of each pass's totals."""
    def med(key):
        return statistics.median(p.get(key, 0.0) for p in per_pass)

    out = {}
    for span, metric in [("closedform.dressed_series", "closedform.dressed_series_s"),
                         ("frames.frame_series", "frames.frame_series_s"),
                         ("frames.identity_residuals", "frames.identity_residuals_s"),
                         ("oracle.propagate", "oracle.propagate_s"),
                         ("oracle.compare", "oracle.compare_s"),
                         ("oracle.current_fit", "oracle.current_fit_s"),
                         ("scenario.run_scenario", "scenario.run_scenario_s"),
                         ("series.to_csv", "series.to_csv_s")]:
        out[metric] = (med(f"total:{span}"), "s")
    out["scenario.self_s"] = (med("self:scenario.run_scenario"), "s")
    out["scenario.sweep_self_s"] = (med("self:scenario.sweep"), "s")
    out["cli.self_s"] = (med("self:cli.main"), "s")
    for name in ("closedform.quad_calls", "closedform.quad_neval",
                 "closedform.integrand_evals", "closedform.points",
                 "drives.zero_scans", "oracle.rk4_steps",
                 "series.csv_rows", "series.csv_bytes"):
        out[name] = (med(name), "count")
    points, evals = out["closedform.points"][0], out["closedform.integrand_evals"][0]
    out["closedform.evals_per_point"] = (evals / points if points else 0.0, "evals/point")
    steps = out["oracle.rk4_steps"][0]
    out["oracle.ns_per_step"] = (out["oracle.propagate_s"][0] * 1e9 / steps if steps else 0.0,
                                 "ns")
    for name in ("oracle.norm_drift_max", "oracle.richardson_err_max"):
        out[name] = (max(p.get(name, 0.0) for p in per_pass), "abs")
    return out


def traced_passes(run: Run, seconds: float) -> tuple[list[float], list[float],
                                                     tracing.Tracer, list[dict]]:
    """Untraced and traced passes in turn for ``seconds``, so that the host's
    slow phases fall on both alike.  Returns the untraced and traced wall
    times, the tracer, and per traced pass the span totals, self times and
    counters keyed as layer_metrics expects."""
    tracer = tracing.Tracer()
    plain, traced, traced_ids = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(run.one_pass()[0])
        tracer.install()
        try:
            traced_ids.append(run.passes)
            tracer.begin_pass(run.passes)
            traced.append(run.one_pass()[0])
        finally:
            tracer.uninstall()
    per_pass = []
    for pid in traced_ids:
        times = tracer.pass_times(pid)
        row = {f"total:{k}": v for k, v in times["total"].items()}
        row.update({f"self:{k}": v for k, v in times["self"].items()})
        row.update(tracer.pass_counts[pid])
        per_pass.append(row)
    return plain, traced, tracer, per_pass


def metadata(args, pkg) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((SRC / "dressedatom").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
            "package_version": getattr(pkg, "__version__", None),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["washout", "oracle_long", "report_all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dressedatom" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dressedatom'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dressedatom
    import dressedatom.cli
    import dressedatom.scenario
    if Path(dressedatom.__file__).resolve().parent != (SRC / "dressedatom").resolve():
        print(f"error: imported dressedatom from {dressedatom.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.generate(args.workload, args.seed, workdir)
    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    try:
        workloads.prepare(wl)
        phase("references")
        run = Run(wl, dressedatom)
        setup_walls, imports = run.setup_launches()
        phase("setup_launches")
        run.one_pass()  # warm-up: lazy imports, caches, first-touch pages
        reference.bracket()
        phase("warm_up")
        summary = {"meta": metadata(args, dressedatom), "phase_s": phases}
        if args.trace == 0:
            mem = peak_memory_mb(run, args.seed)
            phase("memory_pass")
            samples = run.passes_for(args.seconds)
            walls, cpus, ref_walls, ref_cpus = (list(col) for col in zip(*samples))
            wall_norm = [w / r * reference.NOMINAL_S for w, r in zip(walls, ref_walls)]
            cpu_norm = [c / r * reference.NOMINAL_S for c, r in zip(cpus, ref_cpus)]
            metrics = {"setup_s": (statistics.median(setup_walls) if setup_walls else 0.0, "s"),
                       "wall_norm_s": (statistics.median(wall_norm), "s"),
                       "cpu_norm_s": (statistics.median(cpu_norm), "s"),
                       "peak_mem_mb": (mem, "MiB")}
            summary["timings"] = {"setup_s": quartiles(setup_walls or [0.0]),
                                  "wall_norm_s": quartiles(wall_norm),
                                  "cpu_norm_s": quartiles(cpu_norm),
                                  "wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
                                  "ref_wall_s": quartiles(ref_walls)}
        else:
            plain, traced, tracer, per_pass = traced_passes(run, args.seconds)
            metrics = layer_metrics(per_pass)
            metrics["setup.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
            # each traced pass against the untraced pass just before it
            metrics["trace.overhead_s"] = (
                statistics.median(t - u for u, t in zip(plain, traced)), "s")
            summary["timings"] = {"untraced_wall_s": quartiles(plain),
                                  "traced_wall_s": quartiles(traced),
                                  "setup.import_s": quartiles(imports or [0.0])}
            summary["absent_hooks"] = tracer.absent
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"meta": summary["meta"],
                                              "spans": tracer.spans}) + "\n")
            summary["trace_file"] = str(trace_file.relative_to(ROOT))
        phase("measured_passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary["failed_frac"] = {"value": run.failed / run.attempted, "unit": "ratio"}
    summary["failures"] = run.messages
    summary["passes"] = run.passes
    print(json.dumps({"summary": summary}, default=float))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
