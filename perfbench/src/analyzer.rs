//! The checker on `PeriodicMp` at n = 3, s = 3: the `explore-owned`
//! workload, and a traced run that also covers the serial explorer and
//! the zone walk.

use std::hash::{Hash, Hasher};

use rustc_hash::{FxHashMap, FxHashSet, FxHasher};
use session_analyzer::explore::{
    check_step, explore_flight, explore_with_opts, AnyMachine, SessionCounter,
};
use session_analyzer::zones::{zone_walk, zone_walk_timed};
use session_analyzer::{scoped_target_space, ExploreOpts, FlightOpts, ReductionStats, TargetSpace};
use session_obs::NullRecorder;

use crate::measure::{median, now, percentile, process_cpu_ns};
use crate::trace::{Layer, Tracer};
use crate::{Metric, Outcome};

const TARGET: &str = "PeriodicMp";
const N: usize = 3;
const S: u64 = 3;

/// Known answers, pinned from the checker as it stands. A run that
/// disagrees counts as a failed operation.
pub const EXPLORE_STATES: u64 = 325_431;
/// `reduce=all` state count, identical at threads 1 and 2.
pub const OWNED_STATES: u64 = 95_894;
/// Zone-graph nodes of the symbolic walk.
pub const ZONE_STATES: u64 = 109_201;
/// Distinct discrete control states the zone walk reaches.
pub const ZONE_CONTROLS: usize = 102_733;

/// Worker threads of the `explore-owned` workload.
const OWNED_THREADS: usize = 2;

/// Target-space constructions per timed batch, and batches per block.
const SETUP_PER_BATCH: usize = 100;
const SETUP_BATCHES: usize = 10;

/// Analyses run back to back in one run, at least.
const MIN_REPS: usize = 3;

/// Which checker engine an analysis drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Serial explicit exploration, no reductions.
    Explore,
    /// POR + symmetry, ownership-partitioned over two workers.
    Owned,
    /// The zone/DBM walk.
    Symbolic,
}

fn owned_opts(threads: usize) -> ExploreOpts {
    ExploreOpts {
        threads,
        ..ExploreOpts::reduced()
    }
}

fn build_space() -> TargetSpace {
    scoped_target_space(TARGET, N, S).expect("PeriodicMp is a registered target")
}

/// Builds the target space in timed batches, appending the seconds per
/// construction of each batch to `samples`. One construction takes a few
/// microseconds, so a single timing would sit near the timer's
/// resolution.
fn setup(samples: &mut Vec<f64>) -> TargetSpace {
    for _ in 0..SETUP_BATCHES {
        let start = now();
        for _ in 0..SETUP_PER_BATCH {
            std::hint::black_box(build_space());
        }
        samples.push(start.elapsed().as_secs_f64() / SETUP_PER_BATCH as f64);
    }
    build_space()
}

/// What one analysis reported.
struct Answer {
    /// Work units: states, or zones for the symbolic walk.
    units: u64,
    /// Whether the verdict and counts match the known answer.
    ok: bool,
    /// The explorer's reduction counters (zero for the symbolic walk).
    stats: ReductionStats,
}

fn analyze(engine: Engine, space: &TargetSpace) -> Answer {
    let depth = space.scope.max_depth;
    let explore = |opts: ExploreOpts, known: u64| {
        let run = explore_with_opts(&space.roots, N, S, depth, opts);
        Answer {
            units: run.states,
            ok: run.states == known && run.violations.is_empty() && !run.truncated,
            stats: run.stats,
        }
    };
    match engine {
        Engine::Explore => explore(ExploreOpts::default(), EXPLORE_STATES),
        Engine::Owned => explore(owned_opts(OWNED_THREADS), OWNED_STATES),
        Engine::Symbolic => {
            let walk = zone_walk(&space.roots, &space.scope, &space.bounds);
            Answer {
                units: walk.zone_states,
                ok: walk.zone_states == ZONE_STATES
                    && walk.controls.len() == ZONE_CONTROLS
                    && walk.findings.is_empty()
                    && !walk.truncated,
                stats: ReductionStats::default(),
            }
        }
    }
}

/// 1 (and a line on stderr) when `answer` is wrong, else 0.
fn failures(engine: Engine, answer: &Answer) -> u64 {
    if answer.ok {
        0
    } else {
        eprintln!(
            "WRONG ANSWER: {engine:?} reported {} units or unexpected findings",
            answer.units
        );
        1
    }
}

/// The untraced run: analyses back to back, at least [`MIN_REPS`] of
/// them, and more while the next one is expected to end within `seconds`.
/// The target space is rebuilt in timed batches before every analysis
/// and after the last, so `setup_s` samples the whole run, not one moment
/// of it.
pub fn run(engine: Engine, seconds: u64) -> Outcome {
    let mut setups = Vec::new();
    let space = setup(&mut setups);
    let budget = seconds as f64;
    let start = now();
    let mut walls = Vec::new();
    let mut cpu_per_unit = Vec::new();
    let mut failed = 0;
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() + median(&walls) <= budget {
        if !walls.is_empty() {
            setup(&mut setups);
        }
        let cpu0 = process_cpu_ns();
        let t0 = now();
        let answer = analyze(engine, &space);
        let wall = t0.elapsed().as_secs_f64();
        let cpu_us = (process_cpu_ns() - cpu0) as f64 / 1e3;
        failed += failures(engine, &answer);
        walls.push(wall);
        cpu_per_unit.push(cpu_us / answer.units.max(1) as f64);
    }
    setup(&mut setups);
    let setup_s = median(&setups);
    eprintln!(
        "{engine:?}: {} analyses, walls {:?}",
        walls.len(),
        walls.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>()
    );
    Outcome {
        attempted: walls.len() as u64,
        failed,
        metrics: vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("wall_s", "s", median(&walls)),
            Metric::new("cpu_us_per_unit", "us", median(&cpu_per_unit)),
            Metric::new("latency_p50_ms", "ms", median(&walls) * 1e3),
            Metric::new("latency_p99_ms", "ms", percentile(&walls, 99.0) * 1e3),
        ],
    }
}

/// The checker's traced run: for each engine, the untraced call, then the
/// same work with its layers timed from outside. The serial explorer and
/// the zone walk have no end-to-end workload of their own (their walls
/// drift too far on a shared host), so their layers are measured here.
pub fn trace(tracer: &mut Tracer, timer_floor_ns: f64) -> Outcome {
    let (space, _) = tracer.span("setup: target space", || setup(&mut Vec::new()));
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut overhead_s = 0.0;
    for engine in [Engine::Owned, Engine::Explore, Engine::Symbolic] {
        tracer.enter(&format!("{engine:?}"));
        let (part, overhead) = match engine {
            Engine::Owned => trace_owned(&space, tracer),
            Engine::Explore => trace_explore(&space, tracer, timer_floor_ns),
            Engine::Symbolic => trace_symbolic(&space, tracer),
        };
        tracer.exit();
        overhead_s += overhead;
        outcome.attempted += part.attempted;
        outcome.failed += part.failed;
        outcome.metrics.extend(part.metrics);
    }
    outcome
        .metrics
        .push(Metric::new("trace.overhead_s", "s", overhead_s));
    outcome
}

/// Times one untraced analysis inside a span; returns the answer, wall
/// seconds and CPU seconds.
fn untraced(engine: Engine, space: &TargetSpace, tracer: &mut Tracer) -> (Answer, f64, f64) {
    let cpu0 = process_cpu_ns();
    let (answer, wall) = tracer.span("engine (untraced)", || analyze(engine, space));
    let cpu = (process_cpu_ns() - cpu0) as f64 / 1e9;
    (answer, wall, cpu)
}

fn trace_explore(space: &TargetSpace, tracer: &mut Tracer, floor: f64) -> (Outcome, f64) {
    let (answer, wall0, _) = untraced(Engine::Explore, space, tracer);
    let mut failed = failures(Engine::Explore, &answer);
    let engine_memo_hits = answer.stats.memo_hits;
    let (walk, wall1) = tracer.span("walk (traced)", || {
        let mut walk = Walk {
            max_depth: space.scope.max_depth,
            ..Walk::default()
        };
        for root in &space.roots {
            let counter = SessionCounter::new(N, S);
            walk.dfs(root.clone(), &counter, 0);
        }
        walk
    });
    if walk.states != EXPLORE_STATES || walk.memo_hits != engine_memo_hits {
        eprintln!(
            "WALK MISMATCH: traced walk visited {} states with {} memo hits, explorer {} / {}",
            walk.states, walk.memo_hits, EXPLORE_STATES, engine_memo_hits
        );
        failed += 1;
    }
    let states = walk.states.max(1) as f64;
    let edges = walk.edges.max(1) as f64;
    let net = |layer: &Layer| layer.net_ns(floor);
    let layer_total: f64 = [
        &walk.quiescent,
        &walk.hash,
        &walk.menu,
        &walk.clone,
        &walk.apply,
        &walk.observe,
        &walk.check,
    ]
    .into_iter()
    .map(net)
    .sum();
    let metrics = vec![
        Metric::new("machine.menu_ns_per_state", "ns", net(&walk.menu) / states),
        Metric::new("machine.clone_ns_per_edge", "ns", net(&walk.clone) / edges),
        Metric::new("machine.apply_ns_per_edge", "ns", net(&walk.apply) / edges),
        Metric::new("machine.hash_ns_per_state", "ns", net(&walk.hash) / states),
        Metric::new(
            "machine.quiescent_ns_per_state",
            "ns",
            net(&walk.quiescent) / states,
        ),
        Metric::new("machine.edges_per_state", "count", edges / states),
        Metric::new("explore.wall_s", "s", wall0),
        Metric::new("explore.states", "count", walk.states as f64),
        Metric::new("explore.memo_hits", "count", engine_memo_hits as f64),
        Metric::new(
            "explore.check_step_ns_per_edge",
            "ns",
            net(&walk.check) / edges,
        ),
        Metric::new(
            "explore.observe_ns_per_port_step",
            "ns",
            walk.observe.mean_ns(floor),
        ),
        Metric::new(
            "explore.self_ns_per_state",
            "ns",
            (wall0 * 1e9 - layer_total) / states,
        ),
    ];
    for (name, layer) in [
        ("machine.is_quiescent", walk.quiescent),
        ("machine.state_hash", walk.hash),
        ("machine.choice_count", walk.menu),
        ("machine.clone", walk.clone),
        ("machine.apply", walk.apply),
        ("explore.observe", walk.observe),
        ("explore.check_step", walk.check),
    ] {
        tracer.add_layer(name, layer);
    }
    let outcome = Outcome {
        attempted: 2,
        failed,
        metrics,
    };
    (outcome, wall1 - wall0)
}

fn trace_owned(space: &TargetSpace, tracer: &mut Tracer) -> (Outcome, f64) {
    let depth = space.scope.max_depth;
    let (answer, wall0, cpu0) = untraced(Engine::Owned, space, tracer);
    let mut failed = failures(Engine::Owned, &answer);
    let (serial, serial_wall) = tracer.span("engine threads=1 (untraced)", || {
        explore_with_opts(&space.roots, N, S, depth, owned_opts(1))
    });
    if serial.states != OWNED_STATES {
        eprintln!(
            "WRONG ANSWER: serial reduce=all visited {} states",
            serial.states
        );
        failed += 1;
    }
    let ((flown, profile), wall1) = tracer.span("engine threads=2 (profiled)", || {
        explore_flight(
            &space.roots,
            N,
            S,
            depth,
            owned_opts(OWNED_THREADS),
            &mut NullRecorder,
            &FlightOpts::profiled(),
        )
    });
    let profile = profile.expect("a profiled flight yields a profile");
    if flown.states != OWNED_STATES || profile.fallback {
        eprintln!(
            "WRONG ANSWER: profiled flight visited {} states, fallback={}",
            flown.states, profile.fallback
        );
        failed += 1;
    }
    let busy_ns: u64 = profile.workers.iter().map(|w| w.busy_ns).sum();
    let idle_ns: u64 = profile.workers.iter().map(|w| w.idle_ns).sum();
    let ms = |ns: u64| ns as f64 / 1e6;
    let metrics = vec![
        Metric::new("reduce.pruned", "count", answer.stats.pruned as f64),
        Metric::new("reduce.memo_hits", "count", answer.stats.memo_hits as f64),
        Metric::new(
            "reduce.states_ratio",
            "ratio",
            answer.units as f64 / EXPLORE_STATES as f64,
        ),
        Metric::new("partition.route_send", "count", profile.route_send as f64),
        Metric::new("partition.local_msgs", "count", profile.local_msgs as f64),
        Metric::new(
            "partition.queue_full_spins",
            "count",
            profile.queue_full_spins as f64,
        ),
        Metric::new(
            "partition.owner_local_ratio",
            "ratio",
            profile.owner_local_ratio(),
        ),
        Metric::new("partition.rounds", "count", profile.rounds as f64),
        Metric::new("partition.phase_a_ms", "ms", ms(profile.phase_a_ns)),
        Metric::new("partition.replay_ms", "ms", ms(profile.replay_ns)),
        Metric::new("partition.phase_b_ms", "ms", ms(profile.phase_b_ns)),
        Metric::new("partition.busy_ms", "ms", ms(busy_ns)),
        Metric::new("partition.idle_ms", "ms", ms(idle_ns)),
        Metric::new("partition.cpu_ms", "ms", cpu0 * 1e3),
        Metric::new("partition.vs_serial", "ratio", wall0 / serial_wall),
    ];
    let outcome = Outcome {
        attempted: 3,
        failed,
        metrics,
    };
    (outcome, wall1 - wall0)
}

fn trace_symbolic(space: &TargetSpace, tracer: &mut Tracer) -> (Outcome, f64) {
    let (answer, wall0, _) = untraced(Engine::Symbolic, space, tracer);
    let mut failed = failures(Engine::Symbolic, &answer);
    let (walk, wall1) = tracer.span("zone walk (timed)", || {
        zone_walk_timed(&space.roots, &space.scope, &space.bounds, true)
    });
    if walk.zone_states != ZONE_STATES || walk.controls.len() != ZONE_CONTROLS {
        eprintln!(
            "WRONG ANSWER: timed zone walk gave {} zones, {} controls",
            walk.zone_states,
            walk.controls.len()
        );
        failed += 1;
    }
    // The walk records each guard-zone construction in microseconds.
    let close_ms = walk.dbm_close.sum() / 1e3;
    let metrics = vec![
        Metric::new("zones.wall_s", "s", wall0),
        Metric::new("zones.zone_states", "count", walk.zone_states as f64),
        Metric::new("zones.dbm_closures", "count", walk.dbm_closures as f64),
        Metric::new(
            "zones.closures_per_zone",
            "ratio",
            walk.dbm_closures as f64 / walk.zone_states.max(1) as f64,
        ),
        Metric::new("zones.dbm_close_ms", "ms", close_ms),
        Metric::new(
            "zones.worst_close_memo_hits",
            "count",
            walk.worst_close_memo_hits as f64,
        ),
        Metric::new("zones.self_ms", "ms", wall1 * 1e3 - close_ms),
    ];
    let outcome = Outcome {
        attempted: 2,
        failed,
        metrics,
    };
    (outcome, wall1 - wall0)
}

/// A benchmark-side mirror of the explorer's serial DFS over the public
/// `AnyMachine` API (the same leaf, lasso, budget-memo and
/// prune-below-violation rules as `zones::explicit_control_reach`), with
/// every call into the machine and the step checks timed.
#[derive(Default)]
struct Walk {
    max_depth: usize,
    memo: FxHashMap<u64, usize>,
    on_path: FxHashSet<u64>,
    states: u64,
    edges: u64,
    memo_hits: u64,
    quiescent: Layer,
    hash: Layer,
    menu: Layer,
    clone: Layer,
    apply: Layer,
    observe: Layer,
    check: Layer,
}

impl Walk {
    /// Returns `false` when the depth budget cut something below.
    fn dfs(&mut self, machine: AnyMachine, counter: &SessionCounter, depth: usize) -> bool {
        if self.quiescent.time(|| machine.is_quiescent()) {
            return true;
        }
        let state_hash = self.hash.time(|| machine.state_hash());
        let mut hasher = FxHasher::default();
        state_hash.hash(&mut hasher);
        counter.hash(&mut hasher);
        let key = hasher.finish();
        if self.on_path.contains(&key) {
            return true;
        }
        let remaining = self.max_depth.saturating_sub(depth);
        if let Some(&budget) = self.memo.get(&key) {
            if budget >= remaining {
                self.memo_hits += 1;
                return budget == usize::MAX;
            }
        }
        if depth >= self.max_depth {
            return false;
        }
        self.states += 1;
        self.on_path.insert(key);
        let mut complete = true;
        let choices = self.menu.time(|| machine.choice_count());
        for choice in 0..choices {
            self.edges += 1;
            let mut next = self.clone.time(|| machine.clone());
            let info = self.apply.time(|| next.apply(choice, None));
            let observed;
            let next_counter = if info.port.is_some() {
                let mut cloned = counter.clone();
                self.observe.time(|| cloned.observe(&info));
                observed = cloned;
                &observed
            } else {
                counter
            };
            let violation = self
                .check
                .time(|| check_step(&info, &next, next_counter).is_some());
            if violation {
                continue;
            }
            complete &= self.dfs(next, next_counter, depth + 1);
        }
        self.on_path.remove(&key);
        let budget = if complete { usize::MAX } else { remaining };
        let entry = self.memo.entry(key).or_insert(budget);
        *entry = (*entry).max(budget);
        complete
    }
}
