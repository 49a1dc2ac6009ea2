//! Exhaustive small-scope model checker and lint layer for the
//! session-problem reproduction.
//!
//! For each algorithm of the paper (and for a set of naive cheating
//! witnesses), the checker enumerates the **complete reachable state
//! space** under **all admissible schedules** at a small scope — few
//! processes, few sessions, a finite menu of step gaps and message delays
//! derived from the timing parameters — and checks:
//!
//! * the session guarantee (`SA001`): every quiescent execution contains
//!   at least `s` sessions;
//! * the `b`-bound (`SA002`): no shared variable is ever accessed by more
//!   than `b` distinct processes;
//! * claim soundness (`SA003`): no process ever claims more sessions than
//!   actually happened;
//! * admissibility and model fidelity (`SA004`): counterexample traces
//!   satisfy the timing model, idle states stay idle, and replays through
//!   the real engines agree with the checker's machines;
//! * termination (`SA005`): every admissible schedule quiesces.
//!
//! Recorded executions (simulator or real-clock JSONL traces) get a
//! second, causality-level analysis in [`hb`]: vector clocks built from
//! message and shared-variable edges detect session groupings that
//! contradict happens-before (`SA007`), session boundaries not dominated
//! by all port clocks (`SA008`), and runs driven by a strictly stronger
//! timing model than claimed (`SA009`).
//!
//! The explicit engine is complemented by a **symbolic timing verifier**:
//! [`dbm`] implements difference-bound matrices over exact rational
//! durations, and [`zones`] walks a zone graph pairing the machines'
//! discrete control states with a DBM over per-event clocks — all
//! schedules with the same event order collapse into one node. It proves
//! menu entries dead under the model window (`SA010`), extracts the
//! worst-case session-close time as a symbolic expression in
//! `c1,c2,d1,d2` and compares it against the paper's Table 1 row
//! (`SA011`), and cross-checks its reachable control states against the
//! explicit explorer's (`SA012`).
//!
//! Architecture: [`machine`] mirrors the engines as cloneable state
//! machines with an enumerated branch menu (immutable components interned
//! behind `Arc`, so forking a branch is cheap); [`explore`] runs a
//! memoized depth-first search over those branches, optionally through
//! the [`por`] ample-set selector and the [`symmetry`] state
//! canonicalization, and [`partition`] scales that search across worker
//! threads through a shared claim table, with verdicts and counters
//! bit-identical to the serial path; [`dbm`] and [`zones`] form the
//! symbolic engine; [`replay`] walks each counterexample path once for
//! its message, session count and trace, self-checks it (through the
//! real `SmEngine` for shared memory) and renders it as a timeline;
//! [`targets`] names the thirteen analysis targets; [`hb`] analyzes
//! recorded traces; [`diag`] defines the stable lint codes and report
//! formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbm;
pub mod diag;
pub mod explore;
pub mod feasibility;
pub mod hb;
pub mod machine;
pub mod partition;
pub mod por;
pub mod profile;
pub mod replay;
pub mod scope;
pub mod symmetry;
pub mod targets;
mod walk;
pub mod zones;

pub use diag::{Diagnostic, LintCode, LintConfig, Report, Severity, TargetSummary};
pub use explore::{ExploreOpts, ReductionStats};
pub use feasibility::{check_timing, require_feasible, TimingParams};
pub use hb::{analyze_trace_jsonl, HbAnalysis};
pub use profile::{ExploreProfile, FlightOpts, WorkerProfile};
pub use scope::Scope;
pub use targets::{
    periodic_mp_space_with_delays, scoped_target_space, target_names, target_space, TargetSpace,
    TARGET_NAMES,
};
pub use zones::ZoneWalk;
