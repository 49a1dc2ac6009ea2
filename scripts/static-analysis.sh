#!/usr/bin/env bash
# The workspace's static-analysis gate, run by CI and locally before
# merging:
#
#   1. rustfmt          -- formatting is canonical
#   2. clippy           -- the workspace lint policy, warnings are errors
#   2b. rustdoc         -- no broken intra-doc links (a removed or renamed
#      item must not leave a stale [`link`] behind); the vendored stubs
#      are excluded, their own docs are not this workspace's to fix
#   3-5. session-wslint -- the workspace's own static analyzer
#      (crates/wslint, DESIGN.md §17): WS001 wall-clock discipline,
#      WS002 unbounded channels, WS003 lock-order cycles, WS004
#      panic-path audit, and the three registry gates this script used
#      to approximate with awk/grep -- WS005 (every LintCode variant
#      mapped to a stable SAxxx code and paper-§-referenced), WS006
#      (every SAxxx code has saXXX_positive_* / saXXX_negative_* tests),
#      WS007 (METRIC_NAMES ↔ DESIGN.md §15 ↔ emitted serve.* strings,
#      exact-match: the old `serve\.[a-z_]+` grep silently truncated
#      digit-bearing names)
#   6. analyzer (release tests) -- including the #[ignore]d large
#      explorations, the reduction differentials and the symbolic
#      zone/explicit differentials that are too slow under the debug
#      profile
#   7. session-cli analyze -- the ten paper algorithms must explore clean
#      (with and without the reduction layers), and the three naive
#      witnesses must be flagged with their exact codes and make the run
#      exit non-zero
#   8. session-cli analyze symbolic=on -- the ten paper algorithms must
#      also verify through the zone-graph engine with zero findings, and
#      the witnesses must be flagged by the symbolic engine too (each
#      deny line present twice: explicit + symbolic)
#
# Usage: scripts/static-analysis.sh
#
# `set -euo pipefail` + the ERR trap make every failure loud: the script
# stops at the first failing step and names it, instead of continuing and
# reporting a stale "OK".
set -Eeuo pipefail
cd "$(dirname "$0")/.."

current_step="(startup)"
trap 'echo "static-analysis: FAILED during: $current_step" >&2' ERR

current_step="rustfmt"
echo "== rustfmt =="
cargo fmt --all -- --check

current_step="clippy"
echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

current_step="rustdoc (intra-doc links)"
echo "== rustdoc: intra-doc links must resolve, reach public items and not repeat themselves =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links \
    -D rustdoc::redundant_explicit_links" cargo doc --no-deps --document-private-items \
    --workspace --exclude criterion --exclude loom --exclude proptest --exclude rand \
    --exclude rustc-hash

current_step="session-wslint (workspace disciplines + registry gates)"
echo "== session-wslint: WS001-WS007 over the workspace sources =="
# Replaces the old awk/grep registry gates (steps 3-5) with exact
# token-level checks; the report's stats line proves the registries
# were actually scanned (nonzero variant/metric counts).
cargo run -q --release -p session-wslint

current_step="analyzer release tests"
echo "== analyzer test suite (release, including large explorations) =="
cargo test -p session-analyzer --release -- --include-ignored

current_step="building session-cli"
echo "== building session-cli =="
cargo build -q --release --bin session-cli

current_step="analyze (paper algorithms must be clean)"
echo "== analyze: the ten paper algorithms must be clean =="
./target/release/session-cli analyze \
    SyncSm PeriodicSm SemiSyncSm SporadicSm AsyncSm \
    SyncMp PeriodicMp SemiSyncMp SporadicMp AsyncMp \
    | tee /tmp/analyze-clean.md
grep -q "No findings." /tmp/analyze-clean.md

current_step="analyze reduce=all (same verdict, fewer states)"
echo "== analyze reduce=all: the reductions must agree =="
./target/release/session-cli analyze \
    SyncSm PeriodicSm SemiSyncSm SporadicSm AsyncSm \
    SyncMp PeriodicMp SemiSyncMp SporadicMp AsyncMp \
    reduce=all \
    | tee /tmp/analyze-reduced.md
grep -q "No findings." /tmp/analyze-reduced.md

current_step="analyze --all (witnesses must be flagged)"
echo "== analyze --all: the witnesses must be flagged and fail the run =="
# The full run must exit 1 (deny findings present) -- invert the check.
if ./target/release/session-cli analyze --all > /tmp/analyze-all.md; then
    echo "ERROR: analyze --all exited 0, the naive witnesses were not flagged" >&2
    exit 1
fi
grep -q "SA001 session-deficit | deny | NaivePeriodicSm" /tmp/analyze-all.md
grep -q "SA001 session-deficit | deny | NaiveSemiSyncSm" /tmp/analyze-all.md
grep -q "SA003 stale-evidence | deny | NaiveSporadicMp" /tmp/analyze-all.md

current_step="analyze symbolic=on (paper algorithms must verify symbolically)"
echo "== analyze symbolic=on: the ten paper algorithms must be clean =="
./target/release/session-cli analyze \
    SyncSm PeriodicSm SemiSyncSm SporadicSm AsyncSm \
    SyncMp PeriodicMp SemiSyncMp SporadicMp AsyncMp \
    symbolic=on \
    | tee /tmp/analyze-symbolic.md
grep -q "No findings." /tmp/analyze-symbolic.md
# The zone-graph engine actually ran: one "(symbolic)" summary per target.
[ "$(grep -c "(symbolic)" /tmp/analyze-symbolic.md)" -eq 10 ]

current_step="analyze --all symbolic=on (witnesses flagged symbolically)"
echo "== analyze --all symbolic=on: witnesses flagged by both engines =="
if ./target/release/session-cli analyze --all symbolic=on > /tmp/analyze-all-symbolic.md; then
    echo "ERROR: analyze --all symbolic=on exited 0, the witnesses were not flagged" >&2
    exit 1
fi
# Each witness deny line appears at least twice: once from the explicit
# explorer, once re-derived by the symbolic zone walk.
[ "$(grep -c "SA001 session-deficit | deny | NaivePeriodicSm" /tmp/analyze-all-symbolic.md)" -ge 2 ]
[ "$(grep -c "SA001 session-deficit | deny | NaiveSemiSyncSm" /tmp/analyze-all-symbolic.md)" -ge 2 ]
[ "$(grep -c "SA003 stale-evidence | deny | NaiveSporadicMp" /tmp/analyze-all-symbolic.md)" -ge 2 ]
# A truncated symbolic summary counts the paths its budget cut. (A bare
# `! grep` would not trip `set -e`.)
if grep -q "depth budget hit 0×" /tmp/analyze-all-symbolic.md; then
    echo "ERROR: a truncated summary reports zero depth-budget hits" >&2
    exit 1
fi

echo "static analysis: OK"
