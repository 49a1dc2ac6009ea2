#!/usr/bin/env bash
# Regenerates every experiment artifact recorded in EXPERIMENTS.md.
# Usage: scripts/regen-experiments.sh [output-dir]
#
# Hardened against stale output: `set -euo pipefail` aborts on the first
# failing step (including a failure on the left side of a `| tee`), all
# artifacts are generated into a temporary staging directory, and the
# staging directory is moved into place only after every generator
# succeeded. A failed run therefore leaves any previous artifacts exactly
# as they were instead of silently mixing fresh and stale tables.
set -Eeuo pipefail # -E so the ERR trap fires inside run_step
out="${1:-experiments-out}"
stage="$(mktemp -d "${TMPDIR:-/tmp}/regen-experiments.XXXXXX")"

current_step="(startup)"
on_err() {
    echo "regen-experiments: FAILED during: $current_step" >&2
    echo "regen-experiments: $out/ left untouched (partial output discarded: $stage)" >&2
}
trap on_err ERR
trap 'rm -rf "$stage"' EXIT

run_step() {
    current_step="$1"
    local artifact="$2"
    shift 2
    echo "== $current_step =="
    cargo run -q -p session-bench --bin "$@" | tee "$stage/$artifact"
}

run_step "Table 1"                                  table1.md               table1
run_step "FIG-A: semi-synchronous crossover"        crossover.md            sweeps -- crossover
run_step "FIG-B: sporadic interpolation"            sporadic_sweep.md       sweeps -- sporadic_sweep
run_step "FIG-C: periodic vs semi-synchronous"      periodic_vs_semisync.md sweeps -- periodic_vs_semisync
run_step "Lemma 4.4: contamination growth"          contamination_growth.md sweeps -- contamination_growth
run_step "EXT-DIAM: point-to-point diameter factor" diameter_sweep.md       sweeps -- diameter_sweep
run_step "REAL: real-clock runs vs upper bounds"    realclock.md            realclock

current_step="moving artifacts into place"
mkdir -p "$out"
for f in "$stage"/*.md; do
    mv "$f" "$out/$(basename "$f")"
done

echo
echo "Artifacts written to $out/"
