//! Satellite check for the `paper-verbatim` feature of `A(sp)`: the
//! pseudocode as printed in §6 (no `temp_buf` clear in the condition-1
//! branch) certifies sessions from stale freshness evidence, and the
//! analyzer's exhaustive exploration finds it as `SA003`, while the
//! corrected implementation explores the *same scope* clean.
//!
//! The scope is the erratum's natural habitat: `d1 = d2` gives `u = 0`
//! and `B = 1`, so condition 2 arms after a single silent step and the
//! stale-evidence window opens as early as possible. Three processes are
//! the minimum: with only two, every step of the *other* process closes a
//! greedy session, so inflated claims can never outrun the real count.
//! The gap menu pairs `c1` with a long pause and is explored as one fixed
//! gap per process, so the cheating process can run fast (gap `c1`,
//! collecting stale evidence and then its own fresh broadcast) while the
//! other two stall real sessions for longer than the whole cheat takes.

use session_analyzer::explore::{explore_with_opts, AnyMachine};
use session_analyzer::machine::{GapMode, MpAlgo, MpMachine};
use session_analyzer::{ExploreOpts, LintCode};
use session_core::algorithms::SporadicMpPort;
use session_types::{Dur, ProcessId, Time};

const N: usize = 3;
const S: u64 = 3;
const MAX_DEPTH: usize = 96;

/// Builds the exploration roots for `N` copies of `port`: every process
/// first steps at `t = c1` and keeps a fixed per-process gap, either
/// `c1` (fast) or `6·c1` (stalling); the single admissible delay is
/// `d1 = d2`. The scope is the gap assignments with at most one fast
/// process — with two or more fast processes same-instant event
/// interleavings explode without adding stall room — and by symmetry the
/// fast process is fixed to `p0`, leaving `[c1, 6c1, 6c1]` and
/// `[6c1, 6c1, 6c1]`.
fn roots(make_port: impl Fn(usize) -> SporadicMpPort) -> Vec<AnyMachine> {
    let algos: Vec<MpAlgo> = (0..N).map(|i| MpAlgo::Sporadic(make_port(i))).collect();
    let fast = Dur::from_int(1);
    let slow = Dur::from_int(6);
    let delays = vec![Dur::from_int(2)];
    let first_steps = vec![Time::ZERO + Dur::from_int(1); N];
    [vec![fast, slow, slow], vec![slow, slow, slow]]
        .into_iter()
        .map(|assignment| {
            AnyMachine::Mp(MpMachine::new(
                algos.clone(),
                GapMode::FixedPerProcess(assignment),
                delays.clone(),
                first_steps.clone(),
            ))
        })
        .collect()
}

/// `u = 0` (so `B = 1`): `c1 = 1`, `d1 = d2 = 2`.
fn corrected(i: usize) -> SporadicMpPort {
    SporadicMpPort::new(
        ProcessId::new(i),
        S,
        N,
        Dur::from_int(1),
        Dur::from_int(2),
        Dur::from_int(2),
    )
    .expect("valid sporadic parameters")
}

fn verbatim(i: usize) -> SporadicMpPort {
    SporadicMpPort::paper_verbatim(
        ProcessId::new(i),
        S,
        N,
        Dur::from_int(1),
        Dur::from_int(2),
        Dur::from_int(2),
    )
    .expect("valid sporadic parameters")
}

#[test]
fn paper_verbatim_sporadic_mp_certifies_stale_sessions() {
    let exploration = explore_with_opts(&roots(verbatim), N, S, MAX_DEPTH, ExploreOpts::default());
    let codes: Vec<LintCode> = exploration.violations.iter().map(|v| v.code).collect();
    assert!(
        codes.contains(&LintCode::StaleEvidence),
        "the verbatim pseudocode must be caught claiming a phantom session, \
         found {codes:?} over {} states",
        exploration.states
    );
}

#[test]
fn corrected_sporadic_mp_is_clean_at_the_same_scope() {
    let exploration = explore_with_opts(&roots(corrected), N, S, MAX_DEPTH, ExploreOpts::default());
    assert!(
        exploration.violations.is_empty(),
        "the corrected algorithm must explore clean at the erratum's scope, found: {:?}",
        exploration
            .violations
            .iter()
            .map(|v| format!("{} {}", v.code, v.counterexample.message))
            .collect::<Vec<_>>()
    );
    assert!(exploration.states > 0);
}
