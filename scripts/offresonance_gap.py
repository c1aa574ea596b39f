#!/usr/bin/env python3
"""Measure how far the closed-form solution drifts from the integrated truth.

The dressed closed form treats the connection as an integrating factor; for
the rotating-pair drive that step is exact, and at resonance the cosine
drive commutes with itself, but off resonance nothing guarantees it.  This
experiment quantifies the gap as a function of detuning and run length.

Usage: python scripts/offresonance_gap.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from dressedatom import (CosineDrive, Model, dressed_series,
                         initial_state_for_psi_frame, propagate)
from dressedatom.oracle import enforced_step_bound

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("offres_out")
OUT.mkdir(parents=True, exist_ok=True)

J0, OMEGA = 1.0, 1.0
T_END = 20.0

rows = []
for wt in (0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
    model = Model.of(CosineDrive(J0, OMEGA), wt)
    dt = enforced_step_bound(model) / 2
    res = propagate(model, initial_state_for_psi_frame(model), T_END, dt,
                    output_stride=10)
    closed = dressed_series(model, res.times)
    p0_oracle = 2.0 * np.abs(res.psi0_oracle) ** 2
    gap = np.abs(closed.p0_raw - p0_oracle)
    rows.append((wt, float(np.max(gap)), float(np.sqrt(np.mean(gap ** 2)))))

lines = ["omega_tilde,max_abs,rms"]
lines += [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in rows]
(OUT / "gap.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

print(f"{'omega_tilde':>12} {'MaxAbs':>12} {'Rms':>12}")
for wt, mx, rms in rows:
    print(f"{wt:12.3g} {mx:12.4e} {rms:12.4e}")
print(f"\nwrote {OUT / 'gap.csv'}")
print("exact at resonance, order-one as soon as the crossing opens (the"
      " positive-root phase replaces int cos by int |cos|), then slowly"
      " shrinking once the detuning dominates and the connection is small")
