#!/usr/bin/env python3
"""Sweep the detuning across six decades and watch the washout.

Reproduces the regime transition: at exact resonance the population
spectrum is drive-modulated (dominant frequency 2*Omega); far off resonance
the level spacing is washed out and the dominant frequency tracks
2*omega_tilde.  Writes sweep.csv and prints the summary table.

Usage: python scripts/washout_sweep.py [outdir]
"""

import json
import sys
from pathlib import Path

import numpy as np

from dressedatom import parse_config, sweep

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("washout_out")

J0 = 0.1
OMEGA = 1.0

# dt must satisfy the resolution bound at the largest detuning swept
base = parse_config(json.dumps({
    "drive": "cosine", "j0": J0, "omega": OMEGA,
    "t_end": 8 * np.pi, "dt": 0.0015, "output_stride": 2,
    "outputs": "compare",
}))

# exact resonance, then log-spaced detunings up to the washed-out regime
values = [0.0] + list(J0 * np.logspace(-3, 2, 16))

table, reports = sweep(base, "omega_tilde", values)

OUT.mkdir(parents=True, exist_ok=True)
(OUT / "sweep.csv").write_text(table.to_csv(), encoding="utf-8")

print(f"{'omega_tilde':>12} {'dominant_freq':>14} {'peak_p0':>10} {'MaxAbs':>10}")
for row in table.data:
    print(f"{row[0]:12.5g} {row[5]:14.5g} {row[3]:10.4f} {row[1]:10.3e}")
print(f"\nwrote {OUT / 'sweep.csv'}")
print("dominant frequency should rise monotonically toward 2*omega_tilde "
      f"= {2 * values[-1]:.4g} at the far-detuned end")
