"""The byte contract: two processes with different hash seeds run every
config and sweep below through ``cli.main`` and must write the same bytes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dressedatom

ALL = "frame,closed,oracle,compare,identities,current"
BASE = {"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 3.0}
FLAT = {"omega_tilde": 0.6, "j0": 0.8, "omega": 1.3, "t_end": 3.0}
LONG = {"drive": "cosine", "j0": 0.9, "t_end": 12}

# configs that write all six outputs
SIX = {
    "determinism": BASE,
    # e1 = -40 shifts both levels, which the oracle carries as an exact phase
    "shifted": dict(BASE, e1=-40),
    # hbar = 2 with its energies doubled, which the model divides out
    "hbar2": {"drive": "cosine", "e1": 0.0, "e2": 3.2, "j0": 1.8, "hbar": 2, "t_end": 3.0},
    # the rwa drive is the constant envelope j0 of its connection frame, so
    # its CSVs must be the bytes of the constant config
    "rwa": dict(FLAT, drive="rwa"),
    "constant": dict(FLAT, drive="constant"),
    # three coupling zeros on each branch, so the closed-form phase runs
    # through several sections (the smooth branch flips its sign in each),
    # and coupling zeros sit on the r1 stencil
    "resonant_smooth": dict(LONG, omega_tilde=0, branch="smooth"),
    "resonant_positive": dict(LONG, omega_tilde=0, branch="positive"),
    # below resonance the mixing angle lies in (pi/4, pi/2] and reaches
    # pi/2 at the coupling zeros
    "negative": dict(LONG, omega_tilde=-0.7, omega=0.6),
    # every state (a plain scan), every 7th (groups that do not divide a
    # chunk) and only the last (one group, t_end/dt = 3000 steps)
    **{f"stride{g}": dict(BASE, output_stride=g) for g in (1, 7, 5000)},
    # one oracle step (its Richardson partner is two half steps) and an odd
    # count (a partner of two steps)
    "one_step": {"t_end": 0.0005},
    "three_steps": {"t_end": 0.003},
    # 40,000 steps in 10 chunks of 4,096, so the oracle takes couplings far
    # from t = 0 off its phasor table; groups of 10 and of 7 do not divide a
    # chunk, so most chunks start inside a group and take its earlier
    # product in, and groups of 5,000 straddle chunk edges
    **{f"long{g}": dict(BASE, t_end=40, output_stride=g) for g in (10, 7, 5000)},
    # every 2nd of 20,000 steps: 10,001 kept rows, which the oracle scans in
    # three blocks of 4,096, the last one partial
    "scan_blocks": dict(BASE, t_end=20, output_stride=2),
}
CONFIGS = {name: dict(doc, outputs=ALL) for name, doc in SIX.items()} | {
    # the writer formats a block of a run's distinct columns at once: the
    # shape of a long oracle run, two tables sharing t and current over
    # about 4,000 rows in several blocks ...
    "oracle_current": dict(BASE, t_end=12, output_stride=3, outputs="oracle,current"),
    # ... and one table with nothing shared
    "closed_only": dict(BASE, outputs="closed"),
    # a washout sweep point that asks for compare alone, so the closed form
    # and the oracle derive only what compare reads
    "compare_only": {"drive": "cosine", "omega_tilde": 0.02, "j0": 0.1, "dt": 0.0015,
                     "output_stride": 2, "t_end": 12.566370614359172, "outputs": "compare"},
}
# the sweeps write their one table through TimeSeries.to_csv; the first
# sweep's base asks for all six outputs, the second's for compare alone
SWEEPS = {"sweep": ("determinism", "0.1,0.3,0.7"),
          "sweep_compare": ("compare_only", "0,0.001,0.3")}

CHILD = """
import json, sys
from dressedatom.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The output directories of two processes, hash seeds 1 and 2; each call
    must exit 0, and each process must leave stderr empty."""
    configs, jobs = tmp_path_factory.mktemp("configs"), []
    for name, doc in CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(doc))
        jobs.append(["run", str(configs / f"{name}.json"), "--out", name])
    for name, (base, values) in SWEEPS.items():
        jobs.append(["sweep", str(configs / f"{base}.json"), "--axis", "omega_tilde",
                     "--values", values, "--out", name])
    path = str(Path(dressedatom.__file__).parents[1])
    dirs = [tmp_path_factory.mktemp(f"seed{seed}") for seed in (1, 2)]
    procs = [subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(jobs)], cwd=d,
                              env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
             for seed, d in zip((1, 2), dirs)]
    for proc in procs:
        assert (proc.communicate()[1], proc.returncode) == ("", 0)
    return dirs


def _csvs(d: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(d.glob("*.csv"))}


def test_csv_bytes_are_identical_across_processes(runs):
    # one CSV per output kind of a run, sweep.csv for a sweep
    first, second = runs
    want = {name: len(doc["outputs"].split(",")) for name, doc in CONFIGS.items()}
    for name, n in (want | dict.fromkeys(SWEEPS, 1)).items():
        csvs = _csvs(first / name)
        assert len(csvs) == n, name
        assert csvs == _csvs(second / name), name
    assert _csvs(first / "rwa") == _csvs(first / "constant")


def test_every_field_is_its_own_17g(runs):
    # the two runs' bytes are equal (above), so one run's fields stand for both
    bad = [(f.name, field) for f in sorted(runs[0].glob("*/*.csv"))
           for line in f.read_text().splitlines()[1:] for field in line.split(",")
           if "%.17g" % float(field) != field]
    assert bad == []


def _reports(d: Path) -> list:
    """The reports a run or a sweep wrote: one, or one per sweep point."""
    doc = json.loads(next(d.glob("*report.json")).read_text())
    return doc if isinstance(doc, list) else [doc]


def test_reports_agree_and_hold_their_bounds(runs):
    # timing_s is the one entry that differs between runs
    for name in [*CONFIGS, *SWEEPS]:
        first, second = (_reports(d / name) for d in runs)
        for r in first + second:
            seconds = list(r.pop("timing_s").values())
            assert seconds and all(math.isfinite(v) and v >= 0.0 for v in seconds), name
            if "config" in r:
                c = r["config"]
                oracle = {"oracle", "compare", "current"} & set(c["outputs"].split(","))
                want = max(1, round(c["t_end"] / c["dt"])) if oracle else None
                assert r["diagnostics"].get("rk4_steps") == want, name
            if name in SIX:
                assert r["richardson_error"] <= 1e-8, name
                assert r["identities_max"]["r1"] <= 1e-10, name
        assert first == second, name
