#!/usr/bin/env bash
# the CSV bytes must not depend on the process: two separate runs of
# one config, every output kind, compared file by file; the second
# config shifts both levels (e1 = -40), which the oracle carries as an
# exact phase; the hbar config is the first with hbar = 2 and its
# energies doubled, which the model divides out; the stride configs
# keep every state (a plain scan), every 7th (groups that do not divide
# a chunk) and only the last (one group, t_end/dt = 3000 steps); every
# run must leave stderr empty. The rwa drive is the constant envelope
# j0 of its connection frame, so its six CSVs must be the bytes of the
# constant config with the same omega_tilde, j0 and omega. The two
# resonant configs cross three coupling zeros on each branch, so the
# closed-form phase runs through several sections (the smooth branch
# flips its sign in each). The one_step and three_steps configs run the
# oracle for one step (its Richardson partner is two half steps) and
# for an odd count (a partner of two steps). The long configs run
# 40,000 steps (10 chunks), so the oracle takes couplings far from t = 0
# off its phasor table; 7 does not divide the 4,096-step chunk, so
# every chunk stops short of it and the next starts at a new offset.
# The oracle scans its kept rows in blocks of 4,096: scan_blocks keeps
# every 2nd of 20,000 steps, 10,001 rows over three blocks, the last
# one partial.
# Every report must carry a finite Richardson estimate and an r1
# identity at round-off; the resonant configs put coupling zeros on the
# r1 stencil. The writer formats a block of a run's distinct columns at
# once: oracle_current is the shape of a long oracle run (two tables
# sharing t and current, about 4,000 rows over several blocks),
# closed_only is one table with nothing shared, and the sweeps write their
# one table through TimeSeries.to_csv. compare_only is a point of the
# washout sweep (cosine, j0 0.1, dt 1.5e-3, stride 2, t_end 4 pi): a run
# that asks for compare alone, so the closed form and the oracle derive
# only what compare reads; the second sweep runs that config as its base,
# where the first sweep's base asks for all six outputs
#
# usage: bash .github/csv_bytes.sh <scratch dir>   (CI passes $RUNNER_TEMP)
set -euo pipefail
TMP=$1

echo '{"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 3.0,
       "outputs": "frame,closed,oracle,compare,identities,current"}' \
  > "$TMP/determinism.json"
echo '{"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 3.0, "e1": -40,
       "outputs": "frame,closed,oracle,compare,identities,current"}' \
  > "$TMP/shifted.json"
echo '{"drive": "cosine", "e1": 0.0, "e2": 3.2, "j0": 1.8, "hbar": 2, "t_end": 3.0,
       "outputs": "frame,closed,oracle,compare,identities,current"}' \
  > "$TMP/hbar2.json"
for drive in rwa constant; do
  echo '{"drive": "'"$drive"'", "omega_tilde": 0.6, "j0": 0.8, "omega": 1.3,
         "t_end": 3.0, "outputs": "frame,closed,oracle,compare,identities,current"}' \
    > "$TMP/$drive.json"
done
for branch in smooth positive; do
  echo '{"drive": "cosine", "omega_tilde": 0, "j0": 0.9, "t_end": 12,
         "branch": "'"$branch"'",
         "outputs": "frame,closed,oracle,compare,identities,current"}' \
    > "$TMP/resonant_$branch.json"
done
for stride in 1 7 5000; do
  echo '{"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 3.0,
         "output_stride": '"$stride"',
         "outputs": "frame,closed,oracle,compare,identities,current"}' \
    > "$TMP/stride$stride.json"
done
for stride in 10 7; do
  echo '{"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 40,
         "output_stride": '"$stride"',
         "outputs": "frame,closed,oracle,compare,identities,current"}' \
    > "$TMP/long$stride.json"
done
echo '{"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 20,
       "output_stride": 2, "outputs": "frame,closed,oracle,compare,identities,current"}' \
  > "$TMP/scan_blocks.json"
echo '{"t_end": 0.0005, "outputs": "frame,closed,oracle,compare,identities,current"}' \
  > "$TMP/one_step.json"
echo '{"t_end": 0.003, "outputs": "frame,closed,oracle,compare,identities,current"}' \
  > "$TMP/three_steps.json"
echo '{"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 12,
       "output_stride": 3, "outputs": "oracle,current"}' > "$TMP/oracle_current.json"
echo '{"drive": "cosine", "omega_tilde": 0.3, "j0": 0.9, "t_end": 3.0,
       "outputs": "closed"}' > "$TMP/closed_only.json"
echo '{"drive": "cosine", "omega_tilde": 0.02, "j0": 0.1, "dt": 0.0015,
       "output_stride": 2, "t_end": 12.566370614359172, "outputs": "compare"}' \
  > "$TMP/compare_only.json"
six="determinism shifted hbar2 stride1 stride7 stride5000 rwa constant
     resonant_smooth resonant_positive one_step three_steps long10 long7 scan_blocks"
for name in $six oracle_current closed_only compare_only; do
  for run in 1 2; do
    dressedatom run "$TMP/$name.json" --out "$TMP/$name$run" \
      2> "$TMP/$name$run.err"
    test ! -s "$TMP/$name$run.err"
  done
  case $name in oracle_current) want=2 ;; closed_only|compare_only) want=1 ;; *) want=6 ;; esac
  test "$(ls "$TMP/${name}1"/*.csv | wc -l)" -eq "$want"
  for f in "$TMP/${name}1"/*.csv; do
    cmp "$f" "$TMP/${name}2/$(basename "$f")"
  done
done
for run in 1 2; do
  dressedatom sweep "$TMP/determinism.json" --axis omega_tilde --values 0.1,0.3,0.7 \
    --out "$TMP/sweep$run" > /dev/null 2> "$TMP/sweep$run.err"
  test ! -s "$TMP/sweep$run.err"
  dressedatom sweep "$TMP/compare_only.json" --axis omega_tilde --values 0,0.001,0.3 \
    --out "$TMP/sweep_compare$run" > /dev/null 2> "$TMP/sweep_compare$run.err"
  test ! -s "$TMP/sweep_compare$run.err"
done
cmp "$TMP/sweep1/sweep.csv" "$TMP/sweep2/sweep.csv"
cmp "$TMP/sweep_compare1/sweep.csv" "$TMP/sweep_compare2/sweep.csv"
for f in "$TMP/rwa1"/*.csv; do
  cmp "$f" "$TMP/constant1/$(basename "$f")"
done
# the bytes must also be the spec: every field is its own %.17g
python - "$TMP" "$six" "oracle_current closed_only compare_only sweep sweep_compare" <<'EOF'
import json, math, pathlib, sys
tmp, six, others = pathlib.Path(sys.argv[1]), sys.argv[2].split(), sys.argv[3].split()
runs = lambda names: [tmp / f"{name}{run}" for name in names for run in (1, 2)]
bad = [(str(f), field)
       for d in runs(six + others) for f in sorted(d.glob("*.csv"))
       for line in f.read_text().splitlines()[1:] for field in line.split(",")
       if "%.17g" % float(field) != field]
print(f"{len(bad)} fields differ from their %.17g", bad[:10])
reports = [(d, json.loads((d / "report.json").read_text())) for d in runs(six)]
off = [(d, r["richardson_error"], r["identities_max"]["r1"]) for d, r in reports
       if not (math.isfinite(r["richardson_error"]) and r["richardson_error"] <= 1e-8
               and r["identities_max"]["r1"] <= 1e-10)]
print(f"{len(off)} reports miss richardson_error <= 1e-8 or r1 <= 1e-10", off)
sys.exit(1 if bad or off else 0)
EOF
