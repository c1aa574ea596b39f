"""The experiment scripts under scripts/ run against the library API and
write what they claim: each runs in its own process into a temporary
directory."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import dressedatom

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, out: Path) -> list[list[str]]:
    """Run one script into ``out``; return the rows of the one CSV it writes."""
    path = str(Path(dressedatom.__file__).parents[1])
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), str(out)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (csv_file,) = out.glob("*.csv")
    with csv_file.open(newline="") as f:
        return list(csv.reader(f))


def test_washout_sweep(tmp_path):
    header, *rows = _run("washout_sweep.py", tmp_path)
    assert header == ["omega_tilde", "max_abs", "rms", "peak_closed_p0",
                      "peak_oracle_p0", "dominant_freq"]
    assert len(rows) == 17  # resonance and 16 detunings
    wt = [float(r[0]) for r in rows]
    freq = [float(r[5]) for r in rows]
    # one FFT bin is 2 pi over the record, which is t_end = 8 pi to within
    # one output step of 0.003
    bin_width = 2.0 * math.pi / (8.0 * math.pi - 0.003)
    assert wt[0] == 0.0
    assert abs(freq[0] - 2.0) <= bin_width  # 2 Omega at resonance
    # off resonance the dominant frequency rises toward 2 omega_tilde
    assert all(a <= b for a, b in zip(freq[1:], freq[2:]))
    assert abs(freq[-1] - 2.0 * wt[-1]) <= bin_width


def test_offresonance_gap(tmp_path):
    header, *rows = _run("offresonance_gap.py", tmp_path)
    assert header == ["omega_tilde", "max_abs", "rms"]
    assert len(rows) == 8
    # exact at resonance
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) < 1e-8
