//! The thirteen named analysis targets: the paper's ten algorithms (five
//! timing models × two substrates) plus the three naive cheating
//! witnesses from `session-adversary`.
//!
//! Each target fixes a small scope — system size, required sessions, and
//! finite menus of admissible step gaps and message delays derived from
//! the timing parameters — and a set of exploration roots (one per
//! first-step assignment, and for the periodic model one per period
//! assignment). [`TargetSpace::analyze`] explores the complete reachable
//! state space of every root, reconstructs a rendered counterexample for
//! each violation found, and self-checks the counterexample against the
//! reference admissibility checker, the reference session counter and (for
//! shared memory) a replay through the real engine;
//! [`TargetSpace::analyze_symbolic`] runs the zone-graph engine over the
//! same space.
//!
//! Menu choices follow the lower-bound adversaries of the paper: each menu
//! contains the fastest admissible gap and a much slower one (for the
//! sporadic model a pause long enough to outlive the waiting constant
//! `B`), and the delay menus contain the extremes `d1` and `d2`. For the
//! models with no upper bound on gaps (sporadic, asynchronous) the slow
//! menu entry plays the role of a bounded-unfairness window: exhaustive at
//! this scope, representative beyond it.
//!
//! [`target_space`] builds a target at the registry's default dimensions
//! and [`scoped_target_space`] at a different `(n, s)`; both engines then
//! analyze the one built space, so their verdicts describe the same
//! scope.

use session_adversary::naive::{
    naive_periodic_sm_port, naive_semisync_sm_port, naive_sporadic_mp_port,
};
use session_core::algorithms::{
    AsyncMpPort, AsyncSmPort, PeriodicMpPort, PeriodicSmPort, SemiSyncMpPort, SemiSyncSmPort,
    SporadicMpPort, SyncMpPort, SyncSmPort,
};
use session_obs::Recorder;
use session_smm::TreeSpec;
use session_types::{Dur, KnownBounds, ProcessId, SessionSpec, Time, TimingModel, VarId};

use crate::diag::{Diagnostic, LintCode, Report, TargetSummary};
use crate::explore::{explicit_control_reach, explore_flight, rewalk, AnyMachine, ExploreOpts};
use crate::machine::{assignments, sm_system_algos, GapMode, MpAlgo, MpMachine, SmAlgo, SmMachine};
use crate::profile::{ExploreProfile, FlightOpts};
use crate::replay;
use crate::scope::Scope;
use crate::zones::{bound_finding, coverage_finding, dead_branch_findings, zone_walk_timed};

/// Maximum timeline lines rendered into a diagnostic.
const RENDER_LINES: usize = 60;

/// The names of all analysis targets, in report order: the ten algorithms
/// of the paper first, then the three naive witnesses.
pub const TARGET_NAMES: [&str; 13] = [
    "SyncSm",
    "PeriodicSm",
    "SemiSyncSm",
    "SporadicSm",
    "AsyncSm",
    "SyncMp",
    "PeriodicMp",
    "SemiSyncMp",
    "SporadicMp",
    "AsyncMp",
    "NaivePeriodicSm",
    "NaiveSemiSyncSm",
    "NaiveSporadicMp",
];

/// The names of all analysis targets.
pub fn target_names() -> &'static [&'static str] {
    &TARGET_NAMES
}

/// A target ready to explore: its name, its scope, the timing bounds
/// counterexample traces must satisfy, and the exploration roots (one per
/// first-step or period assignment). Both engines analyze the built
/// space, so the explicit and the symbolic verdicts describe one scope.
#[derive(Debug)]
pub struct TargetSpace {
    /// The registry name every report row and finding is filed under.
    pub name: &'static str,
    /// The explored scope: dimensions, menus and the depth budget.
    pub scope: Scope,
    /// The timing bounds every counterexample trace must satisfy.
    pub bounds: KnownBounds,
    /// The exploration roots.
    pub roots: Vec<AnyMachine>,
}

impl TargetSpace {
    /// The explicit pipeline: explores this space under `opts` (see
    /// [`explore_flight`] for what reaches `recorder` and `flight`),
    /// reconstructs and self-checks a counterexample for every violation,
    /// and returns the report with the exploration's summary row. The
    /// second return is the exploration's [`ExploreProfile`] (target name
    /// filled in) when `flight.profile` asked for one; the report is
    /// bit-identical with or without the flight recorder (asserted by the
    /// invariance test in `tests/full_pipeline.rs`).
    pub fn analyze(
        &self,
        opts: ExploreOpts,
        recorder: &mut dyn Recorder,
        flight: &FlightOpts,
    ) -> (Report, Option<ExploreProfile>) {
        let (exploration, mut profile) = explore_flight(
            &self.roots,
            self.scope.n,
            self.scope.s,
            self.scope.max_depth,
            opts,
            recorder,
            flight,
        );
        if let Some(profile) = &mut profile {
            profile.target = self.name.to_string();
        }
        let mut report = Report::default();
        report.targets.push(TargetSummary {
            name: self.name.to_string(),
            states: exploration.states,
            pruned: exploration.stats.pruned,
            memo_hits: exploration.stats.memo_hits,
            truncated: exploration.truncated,
            depth_hits: exploration.depth_hits,
        });
        for violation in &exploration.violations {
            let root = &self.roots[violation.root];
            let counterexample = replay::replay(root, &violation.path);
            // The explorer's count is only the full-trace count at a quiescent
            // leaf; mid-path violations skip the counter cross-check.
            let expected = (violation.code == LintCode::SessionDeficit)
                .then(|| rewalk(root, self.scope.n, self.scope.s, &violation.path).2);
            let problems = replay::self_check(root, &counterexample, &self.bounds, expected);
            let repro = replay::repro_string(violation.root, &violation.path);
            report.findings.push(Diagnostic {
                code: violation.code,
                target: self.name.to_string(),
                message: violation.message.clone(),
                scope: self.scope.describe(),
                repro: repro.clone(),
                counterexample: replay::render(&counterexample, RENDER_LINES),
            });
            // A failed self-check means the checker's model drifted from the
            // system itself: report it loudly rather than trusting the finding.
            for problem in problems {
                report.findings.push(Diagnostic {
                    code: LintCode::InadmissibleStep,
                    target: self.name.to_string(),
                    message: format!("counterexample self-check failed: {problem}"),
                    scope: self.scope.describe(),
                    repro: repro.clone(),
                    counterexample: String::new(),
                });
            }
        }
        (report, profile)
    }

    /// The scope the zone walker runs at. Almost every target uses the
    /// explicit explorer's depth budget, so an untruncated walk certifies
    /// the same horizon. The exception is the naive sporadic witness: it
    /// streams messages without ever going idle, and the zone graph over
    /// the accumulating in-flight clocks grows far faster than the
    /// explicit space — a clamped budget still reaches its `SA003`
    /// violation (that is what a witness is for) and the truncation is
    /// reported, which also correctly disables the SA011/SA012 clean
    /// verdicts for it.
    pub fn symbolic_scope(&self) -> Scope {
        let mut scope = self.scope.clone();
        if self.name == "NaiveSporadicMp" {
            scope.max_depth = scope.max_depth.min(16);
        }
        scope
    }

    /// The symbolic pipeline over this space at [`Self::symbolic_scope`]:
    /// the `SA010` dead-branch scan, the zone walk (which re-derives the
    /// discrete codes), the `SA011` comparison against the target's
    /// Table 1 bound and the `SA012` explicit/symbolic reachability
    /// cross-check, reported under `"{name} (symbolic)"`.
    ///
    /// An enabled `recorder` receives the zone walker's `zones.*`
    /// counters (zone states, explicit mirror states, DBM guard-zone
    /// closures, worst-close memo hits) and — because it switches the
    /// walk into its timed mode — the per-closure `zones.dbm_close_us`
    /// histogram. Symbolic findings carry no repro or rendered
    /// counterexample: the zone graph collapses all schedules with one
    /// event order, so there is no single timed trace to replay.
    pub fn analyze_symbolic(&self, recorder: &mut dyn Recorder) -> Report {
        let scope = self.symbolic_scope();
        let mut findings = dead_branch_findings(&scope, &self.bounds);
        let walk = zone_walk_timed(&self.roots, &scope, &self.bounds, recorder.is_enabled());
        findings.extend(walk.findings);
        findings.extend(bound_finding(
            walk.worst_close,
            table1_bound(self.name, &scope, &self.bounds),
        ));
        // The mirror walk runs on the full menus, not on the explicit
        // explorer's (possibly reduced, possibly parallel) walk: reductions
        // must not be able to mask a divergence.
        let explicit = explicit_control_reach(&self.roots, &scope);
        if !walk.truncated && !explicit.truncated {
            findings.extend(coverage_finding(&walk.controls, &explicit.controls));
        }
        findings.sort_by_key(|(code, _)| *code);
        if recorder.is_enabled() {
            recorder.counter("zones.zone_states", walk.zone_states);
            recorder.counter("zones.explicit_states", explicit.states);
            recorder.counter("zones.dbm_closures", walk.dbm_closures);
            recorder.counter("zones.worst_close_memo_hits", walk.worst_close_memo_hits);
            recorder.merge_histogram("zones.dbm_close_us", &walk.dbm_close);
        }
        let mut report = Report::default();
        report.targets.push(TargetSummary {
            name: format!("{} (symbolic)", self.name),
            states: walk.zone_states,
            pruned: 0,
            memo_hits: walk.worst_close_memo_hits,
            truncated: walk.truncated || explicit.truncated,
            depth_hits: walk.depth_hits,
        });
        let scope_desc = format!("{} engine=symbolic", scope.describe());
        for (code, message) in findings {
            report.findings.push(Diagnostic {
                code,
                target: self.name.to_string(),
                message,
                scope: scope_desc.clone(),
                repro: String::new(),
                counterexample: String::new(),
            });
        }
        report
    }
}

fn dur(value: i64) -> Dur {
    Dur::from_int(value.into())
}

/// Shared-memory roots, one per assignment of first step times from the
/// gap menu (every later step re-picks its gap from the same menu).
fn sm_per_step_roots(ports: Vec<SmAlgo>, n: usize, b: usize, gaps: &[Dur]) -> Vec<AnyMachine> {
    let (algos, num_vars) = sm_system_algos(ports, n, b);
    let k = algos.len();
    assignments(gaps, k)
        .into_iter()
        .map(|firsts| {
            AnyMachine::Sm(SmMachine::new(
                algos.clone(),
                num_vars,
                b,
                n,
                GapMode::PerStep(gaps.to_vec()),
                firsts.into_iter().map(|g| Time::ZERO + g).collect(),
            ))
        })
        .collect()
}

/// Shared-memory roots for the periodic model, one per assignment of a
/// fixed period to every process (the period is also the first step time).
fn sm_periodic_roots(ports: Vec<SmAlgo>, n: usize, b: usize, periods: &[Dur]) -> Vec<AnyMachine> {
    let (algos, num_vars) = sm_system_algos(ports, n, b);
    let k = algos.len();
    assignments(periods, k)
        .into_iter()
        .map(|assigned| {
            let firsts = assigned.iter().map(|&p| Time::ZERO + p).collect();
            AnyMachine::Sm(SmMachine::new(
                algos.clone(),
                num_vars,
                b,
                n,
                GapMode::FixedPerProcess(assigned),
                firsts,
            ))
        })
        .collect()
}

/// Message-passing roots, one per assignment of first step times from
/// `firsts` (usually the gap menu itself; the sporadic targets use a
/// separate first-step menu because the stale-evidence schedules need a
/// first step that is neither the fastest gap nor the pause).
fn mp_per_step_roots(
    algos: Vec<MpAlgo>,
    firsts: &[Dur],
    gaps: &[Dur],
    delays: &[Dur],
) -> Vec<AnyMachine> {
    let k = algos.len();
    assignments(firsts, k)
        .into_iter()
        .map(|firsts| {
            AnyMachine::Mp(MpMachine::new(
                algos.clone(),
                GapMode::PerStep(gaps.to_vec()),
                delays.to_vec(),
                firsts.into_iter().map(|g| Time::ZERO + g).collect(),
            ))
        })
        .collect()
}

/// Message-passing roots for the periodic model, one per period
/// assignment.
fn mp_periodic_roots(algos: Vec<MpAlgo>, periods: &[Dur], delays: &[Dur]) -> Vec<AnyMachine> {
    let k = algos.len();
    assignments(periods, k)
        .into_iter()
        .map(|assigned| {
            let firsts = assigned.iter().map(|&p| Time::ZERO + p).collect();
            AnyMachine::Mp(MpMachine::new(
                algos.clone(),
                GapMode::FixedPerProcess(assigned),
                delays.to_vec(),
                firsts,
            ))
        })
        .collect()
}

fn scope(
    n: usize,
    s: u64,
    b: usize,
    model: TimingModel,
    gaps: &[Dur],
    delays: &[Dur],
    max_depth: usize,
) -> Scope {
    Scope {
        n,
        s,
        b,
        model,
        gaps: gaps.to_vec(),
        delays: delays.to_vec(),
        max_depth,
    }
}

/// The registry's default dimensions `(n, s)` for the named target.
fn default_dims(name: &str) -> Option<(usize, u64)> {
    match name {
        "SyncSm" | "SyncMp" => Some((4, 3)),
        "NaiveSporadicMp" => Some((2, 3)),
        "PeriodicSm" | "SemiSyncSm" | "SporadicSm" | "AsyncSm" | "PeriodicMp" | "SemiSyncMp"
        | "SporadicMp" | "AsyncMp" | "NaivePeriodicSm" | "NaiveSemiSyncSm" => Some((2, 2)),
        _ => None,
    }
}

/// Depth budgets scale with the dimensions: `base` is the hand-tuned
/// budget at the registry's default `(n, s)`, and rebuilding the target
/// at another scope rescales it proportionally (events per quiescent run
/// grow like `n·s` for every target here), floored so tiny scopes still
/// get room to quiesce.
fn scaled_depth(base: usize, n: usize, s: u64, defaults: (usize, u64)) -> usize {
    let (dn, ds) = defaults;
    let s = usize::try_from(s).expect("tiny scope");
    let ds = usize::try_from(ds).expect("tiny scope");
    ((base * n * s) / (dn * ds)).max(12)
}

/// Builds the named target at dimensions `(n, s)`, or `None` for an
/// unknown name. All other scope constants (the `b`-bound, the timing
/// parameters and the derived gap/delay menus) are per-target fixtures.
#[allow(clippy::too_many_lines)]
fn build_target_at(name: &str, n: usize, s: u64) -> Option<TargetSpace> {
    let name = *TARGET_NAMES.iter().find(|known| **known == name)?;
    let expect_bounds = "scope constants are valid bounds";
    let expect_algo = "scope constants are valid algorithm parameters";
    let defaults = default_dims(name)?;
    let depth = |base: usize| scaled_depth(base, n, s, defaults);
    match name {
        // A(syn), shared memory: s silent steps each; gap forced to c2.
        "SyncSm" => {
            let b = 2;
            let gaps = [dur(1)];
            let ports = (0..n)
                .map(|i| SmAlgo::Sync(SyncSmPort::new(VarId::new(i), s)))
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, b, TimingModel::Synchronous, &gaps, &[], depth(40)),
                bounds: KnownBounds::synchronous(dur(1), dur(1)).expect(expect_bounds),
                roots: sm_per_step_roots(ports, n, b, &gaps),
            })
        }
        // A(p), shared memory: announce step counts over the tree; each
        // process runs at one of the candidate periods.
        "PeriodicSm" => {
            let b = 2;
            let periods = [dur(1), dur(2)];
            let ports = (0..n)
                .map(|i| {
                    SmAlgo::Periodic(PeriodicSmPort::new(ProcessId::new(i), VarId::new(i), s, n))
                })
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, b, TimingModel::Periodic, &periods, &[], depth(160)),
                bounds: KnownBounds::periodic(dur(1)).expect(expect_bounds),
                roots: sm_periodic_roots(ports, n, b, &periods),
            })
        }
        // A(ss), shared memory: at c1=1, c2=3 the step-counting arm wins
        // (block 4 <= the tree flood bound); gaps range over {c1, c2}.
        "SemiSyncSm" => {
            let b = 2;
            let (c1, c2) = (dur(1), dur(3));
            let gaps = [c1, c2];
            let comm_rounds = TreeSpec::build(n, b).flood_rounds_bound();
            let ports = (0..n)
                .map(|i| {
                    SmAlgo::SemiSync(
                        SemiSyncSmPort::new(
                            ProcessId::new(i),
                            VarId::new(i),
                            s,
                            n,
                            c1,
                            c2,
                            comm_rounds,
                        )
                        .expect(expect_algo),
                    )
                })
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(
                    n,
                    s,
                    b,
                    TimingModel::SemiSynchronous,
                    &gaps,
                    &[],
                    depth(100),
                ),
                bounds: KnownBounds::semi_synchronous(c1, c2, dur(1)).expect(expect_bounds),
                roots: sm_per_step_roots(ports, n, b, &gaps),
            })
        }
        // Sporadic shared memory runs the wave protocol A(a) (only c1 is
        // known); the slow gap is the bounded-unfairness window.
        "SporadicSm" => {
            let b = 2;
            let gaps = [dur(1), dur(3)];
            let ports = (0..n)
                .map(|i| SmAlgo::Async(AsyncSmPort::new(ProcessId::new(i), VarId::new(i), s, n)))
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, b, TimingModel::Sporadic, &gaps, &[], depth(160)),
                bounds: KnownBounds::sporadic(dur(1), Dur::ZERO, dur(1)).expect(expect_bounds),
                roots: sm_per_step_roots(ports, n, b, &gaps),
            })
        }
        // A(a), shared memory: the wave protocol with nothing known.
        "AsyncSm" => {
            let b = 2;
            let gaps = [dur(1), dur(3)];
            let ports = (0..n)
                .map(|i| SmAlgo::Async(AsyncSmPort::new(ProcessId::new(i), VarId::new(i), s, n)))
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, b, TimingModel::Asynchronous, &gaps, &[], depth(160)),
                bounds: KnownBounds::asynchronous(),
                roots: sm_per_step_roots(ports, n, b, &gaps),
            })
        }
        // A(syn), message passing: silent; gap and delay both forced.
        "SyncMp" => {
            let gaps = [dur(1)];
            let delays = [dur(1)];
            let algos = (0..n).map(|_| MpAlgo::Sync(SyncMpPort::new(s))).collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, 0, TimingModel::Synchronous, &gaps, &delays, depth(40)),
                bounds: KnownBounds::synchronous(dur(1), dur(1)).expect(expect_bounds),
                roots: mp_per_step_roots(algos, &gaps, &gaps, &delays),
            })
        }
        // A(p), message passing: broadcast the (s-1)-th step.
        "PeriodicMp" => {
            let periods = [dur(1), dur(2)];
            let delays = [Dur::ZERO, dur(1)];
            let algos = (0..n)
                .map(|_| MpAlgo::Periodic(PeriodicMpPort::new(s, n)))
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(
                    n,
                    s,
                    0,
                    TimingModel::Periodic,
                    &periods,
                    &delays,
                    depth(120),
                ),
                bounds: KnownBounds::periodic(dur(1)).expect(expect_bounds),
                roots: mp_periodic_roots(algos, &periods, &delays),
            })
        }
        // A(ss), message passing: at c1=1, c2=2, d2=1 the communicating
        // arm wins (c2·block = 6 > d2 + c2 = 3).
        "SemiSyncMp" => {
            let (c1, c2, d2) = (dur(1), dur(2), dur(1));
            let gaps = [c1, c2];
            let delays = [Dur::ZERO, d2];
            let algos = (0..n)
                .map(|_| {
                    MpAlgo::SemiSync(SemiSyncMpPort::new(s, n, c1, c2, d2).expect(expect_algo))
                })
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(
                    n,
                    s,
                    0,
                    TimingModel::SemiSynchronous,
                    &gaps,
                    &delays,
                    depth(120),
                ),
                bounds: KnownBounds::semi_synchronous(c1, c2, d2).expect(expect_bounds),
                roots: mp_per_step_roots(algos, &gaps, &gaps, &delays),
            })
        }
        // A(sp): freshness evidence with B = floor(u/c1) + 1 = 2; the slow
        // gap (3 > d2 + c1) lets one process outwait the other's in-flight
        // evidence, which is exactly what conditions 1/2 must survive.
        "SporadicMp" => {
            let (c1, d1, d2) = (dur(1), Dur::ZERO, dur(1));
            let firsts = [c1, dur(2)];
            let gaps = [c1, dur(3)];
            let delays = [d1, d2];
            let algos = (0..n)
                .map(|i| {
                    MpAlgo::Sporadic(
                        SporadicMpPort::new(ProcessId::new(i), s, n, c1, d1, d2)
                            .expect(expect_algo),
                    )
                })
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, 0, TimingModel::Sporadic, &gaps, &delays, depth(80)),
                bounds: KnownBounds::sporadic(c1, d1, d2).expect(expect_bounds),
                roots: mp_per_step_roots(algos, &firsts, &gaps, &delays),
            })
        }
        // A(a), message passing: the wave protocol with nothing known.
        "AsyncMp" => {
            let gaps = [dur(1), dur(3)];
            let delays = [Dur::ZERO, dur(2)];
            let algos = (0..n)
                .map(|_| MpAlgo::Async(AsyncMpPort::new(s, n)))
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(
                    n,
                    s,
                    0,
                    TimingModel::Asynchronous,
                    &gaps,
                    &delays,
                    depth(120),
                ),
                bounds: KnownBounds::asynchronous(),
                roots: mp_per_step_roots(algos, &gaps, &gaps, &delays),
            })
        }
        // Witness: s silent steps under the periodic model, ignoring that
        // other processes may run at a different period → SA001.
        "NaivePeriodicSm" => {
            let b = 2;
            let periods = [dur(1), dur(2)];
            let ports = (0..n)
                .map(|i| SmAlgo::Naive(naive_periodic_sm_port(VarId::new(i), s)))
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, b, TimingModel::Periodic, &periods, &[], depth(160)),
                bounds: KnownBounds::periodic(dur(1)).expect(expect_bounds),
                roots: sm_periodic_roots(ports, n, b, &periods),
            })
        }
        // Witness: step counting with a halved block constant: at c1=1,
        // c2=3 the cheat needs 3 steps where 5 are required → SA001. (At
        // c2=2 the halved block happens to still suffice for n=2 — the
        // borderline the analyzer itself surfaced.)
        "NaiveSemiSyncSm" => {
            let b = 2;
            let (c1, c2) = (dur(1), dur(3));
            let gaps = [c1, c2];
            let ports = (0..n)
                .map(|i| {
                    SmAlgo::CheatStepCounting(
                        naive_semisync_sm_port(VarId::new(i), s, c1, c2).expect(expect_algo),
                    )
                })
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(
                    n,
                    s,
                    b,
                    TimingModel::SemiSynchronous,
                    &gaps,
                    &[],
                    depth(100),
                ),
                bounds: KnownBounds::semi_synchronous(c1, c2, dur(1)).expect(expect_bounds),
                roots: sm_per_step_roots(ports, n, b, &gaps),
            })
        }
        // Witness: A(sp) with the waiting constant overridden to B = 0,
        // certifying sessions from stale evidence → SA003.
        "NaiveSporadicMp" => {
            let (c1, d1, d2) = (dur(1), Dur::ZERO, dur(2));
            let firsts = [c1, dur(2)];
            let gaps = [c1, dur(3)];
            // A single-delay menu keeps the space tractable; the staleness
            // schedule only needs a delivery ordered after the claiming
            // step at the same instant, not a delay spread.
            let delays = [d2];
            let algos = (0..n)
                .map(|i| MpAlgo::Sporadic(naive_sporadic_mp_port(ProcessId::new(i), s, n)))
                .collect();
            Some(TargetSpace {
                name,
                scope: scope(n, s, 0, TimingModel::Sporadic, &gaps, &delays, depth(60)),
                bounds: KnownBounds::sporadic(c1, d1, d2).expect(expect_bounds),
                roots: mp_per_step_roots(algos, &firsts, &gaps, &delays),
            })
        }
        _ => None,
    }
}

/// The named target's scope, bounds and roots at the registry's default
/// dimensions, without analyzing it. `None` for an unknown name.
pub fn target_space(name: &str) -> Option<TargetSpace> {
    let (n, s) = default_dims(name)?;
    build_target_at(name, n, s)
}

/// The named target rebuilt at dimensions `(n, s)` — same algorithms,
/// same timing menus, proportionally rescaled depth budget. `None` for an
/// unknown name. The differential harness uses this to compare reduced
/// and unreduced explorations across scopes.
pub fn scoped_target_space(name: &str, n: usize, s: u64) -> Option<TargetSpace> {
    build_target_at(name, n, s)
}

/// The periodic message-passing target at dimensions `(n, s)` with a
/// caller-chosen delay menu (the period menu stays the registry fixture
/// `[1, 2]`). The symbolic bench widens the delay menu through this:
/// the explicit explorer enumerates one remaining-delay value per menu
/// entry for every in-flight message, so its state count grows with the
/// menu's size, while the zone walker only records the menu's hull
/// `[d1, d2]` as a DBM bound and is insensitive to how finely the
/// window is sampled — that widening gap is exactly what the bench
/// measures.
pub fn periodic_mp_space_with_delays(n: usize, s: u64, delays: &[Dur]) -> TargetSpace {
    let periods = [dur(1), dur(2)];
    let d2 = delays
        .iter()
        .copied()
        .max()
        .unwrap_or(Dur::ZERO)
        .max(dur(1));
    let algos = (0..n)
        .map(|_| MpAlgo::Periodic(PeriodicMpPort::new(s, n)))
        .collect();
    TargetSpace {
        name: "PeriodicMp",
        scope: scope(
            n,
            s,
            0,
            TimingModel::Periodic,
            &periods,
            delays,
            scaled_depth(120, n, s, (2, 2)),
        ),
        bounds: KnownBounds::periodic(d2).expect("a positive delay bound is valid"),
        roots: mp_periodic_roots(algos, &periods, delays),
    }
}

/// The paper's Table 1 closing-time bound for the named target, as an
/// exact value plus the formula it instantiates, or `None` for targets
/// whose Table 1 row is not a real-time bound at this scope: the
/// asynchronous rows (round-counted, not timed), sporadic shared memory
/// (runs the asynchronous wave protocol), and the naive witnesses (which
/// have no bound to honor — they are supposed to be flagged).
///
/// `c_max` is the largest period/gap in the scope's menu: at a finite
/// menu scope it plays the role of the model's `c2`/period upper bound.
pub fn table1_bound(name: &str, scope: &Scope, bounds: &KnownBounds) -> Option<(Dur, String)> {
    let expect_c2 = "timed models know c2";
    let expect_d2 = "message-passing timed models know d2";
    let c_max = scope.gaps.iter().copied().max()?;
    match name {
        "SyncSm" | "SyncMp" => {
            let c2 = bounds.c2().expect(expect_c2);
            Some((
                session_core::bounds::sync_time(scope.s, c2),
                "c2*s".to_string(),
            ))
        }
        "PeriodicSm" => {
            let spec = SessionSpec::new(scope.s, scope.n, scope.b).expect("scope is a valid spec");
            let rounds = TreeSpec::build(scope.n, scope.b).flood_rounds_bound();
            Some((
                session_core::bounds::periodic_sm_upper(&spec, c_max, rounds),
                format!("c_max*s + c_max*R (R = {rounds} flood rounds)"),
            ))
        }
        "PeriodicMp" => {
            let d2 = bounds.d2().expect(expect_d2);
            Some((
                session_core::bounds::periodic_mp_upper(scope.s, c_max, d2),
                "c_max*s + d2".to_string(),
            ))
        }
        "SemiSyncSm" => {
            let c1 = bounds.c1().expect("semi-synchronous model knows c1");
            let c2 = bounds.c2().expect(expect_c2);
            let rounds = TreeSpec::build(scope.n, scope.b).flood_rounds_bound();
            Some((
                session_core::bounds::semisync_sm_upper(scope.s, c1, c2, rounds),
                format!("min(floor(c2/c1)+1, R)*c2*(s-1) + c2 (R = {rounds})"),
            ))
        }
        "SemiSyncMp" => {
            let c1 = bounds.c1().expect("semi-synchronous model knows c1");
            let c2 = bounds.c2().expect(expect_c2);
            let d2 = bounds.d2().expect(expect_d2);
            Some((
                session_core::bounds::semisync_mp_upper(scope.s, c1, c2, d2),
                "min(c2*(floor(c2/c1)+1), d2+c2)*(s-1) + c2".to_string(),
            ))
        }
        "SporadicMp" => {
            let c1 = bounds.c1().expect("sporadic model knows c1");
            let d1 = bounds.d1().expect("sporadic model knows d1");
            let d2 = bounds.d2().expect(expect_d2);
            Some((
                session_core::bounds::sporadic_mp_upper(scope.s, c1, d1, d2, c_max),
                "min(gamma*(floor(u/c1)+3)+u, d2+gamma)*(s-1) + gamma (u = d2-d1, gamma = slowest menu gap)"
                    .to_string(),
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds() {
        for name in TARGET_NAMES {
            assert!(target_space(name).is_some(), "{name} must build");
        }
        assert!(target_space("NoSuchTarget").is_none());
        assert!(scoped_target_space("NoSuchTarget", 2, 2).is_none());
    }

    #[test]
    fn root_counts_stay_small() {
        for name in TARGET_NAMES {
            let built = target_space(name).expect("known name");
            assert!(
                (1..=8).contains(&built.roots.len()),
                "{name} has {} roots",
                built.roots.len()
            );
        }
    }

    #[test]
    fn scoped_spaces_rescale_dimensions_and_depth() {
        let default = target_space("SyncMp").expect("known name");
        assert_eq!((default.scope.n, default.scope.s), (4, 3));
        let scoped = scoped_target_space("SyncMp", 3, 3).expect("known name");
        assert_eq!((scoped.scope.n, scoped.scope.s), (3, 3));
        assert_eq!(scoped.roots.len(), 1, "single-gap menu has one root");
        assert!(
            scoped.scope.max_depth < default.scope.max_depth,
            "smaller scope gets a proportionally smaller budget"
        );
        assert!(scoped.scope.max_depth >= 12, "budget floor holds");
    }

    #[test]
    fn sync_sm_is_clean() {
        let (report, _) = target_space("SyncSm").expect("known name").analyze(
            ExploreOpts::default(),
            &mut session_obs::NullRecorder,
            &FlightOpts::default(),
        );
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
        assert!(report.targets[0].states > 0, "must have explored states");
    }
}
