//! The benchmark harness: everything needed to regenerate the paper's
//! evaluation artifacts.
//!
//! * [`measure`] — one measurement function per Table 1 row (upper bounds:
//!   worst-case-oriented schedules, measured simulated running time vs the
//!   closed-form bound; lower bounds: the executable adversary experiments
//!   from `session-adversary`).
//! * [`sweeps`] — the derived figures: the semi-synchronous strategy
//!   crossover (FIG-A), the sporadic `d1 → d2` interpolation (FIG-B) and
//!   the periodic-vs-semi-synchronous dominance comparison (FIG-C).
//! * [`format`](mod@format) — markdown rendering shared by the `table1`
//!   and `sweeps` binaries (`sweeps <name>` runs one derived sweep:
//!   `crossover`, `sporadic_sweep`, `periodic_vs_semisync`,
//!   `contamination_growth` or `diameter_sweep`); their outputs are
//!   recorded in `EXPERIMENTS.md`.
//! * [`json_report`] — the `--json` mode of every binary: the generic
//!   section-table serializer plus the rich `BENCH_table1.json` schema
//!   (numeric bounds, ratios, wall-clock, engine counters).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod json_report;
pub mod measure;
pub mod sweeps;
