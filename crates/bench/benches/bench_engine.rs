//! Raw engine throughput: simulated steps per second for both substrates,
//! independent of any algorithm's semantics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use session_analyzer::explore::{explore_flight, explore_with_opts};
use session_analyzer::{scoped_target_space, ExploreOpts, FlightOpts};
use session_mpm::{Envelope, MpEngine, MpProcess};
use session_obs::NullRecorder;
use session_sim::{ConstantDelay, FixedPeriods, RunLimits};
use session_smm::{SmEngine, SmProcess};
use session_types::{Dur, PortId, ProcessId, VarId};
use std::time::Duration;

/// A minimal SM process: bumps a counter variable forever.
#[derive(Debug, Hash)]
struct Spinner(VarId);

impl SmProcess<u64> for Spinner {
    fn target(&self) -> VarId {
        self.0
    }
    fn step(&mut self, value: &u64) -> u64 {
        value + 1
    }
    fn is_idle(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

fn sm_steps(num_processes: usize, steps: u64) {
    let processes: Vec<Box<dyn SmProcess<u64>>> = (0..num_processes)
        .map(|i| Box::new(Spinner(VarId::new(i))) as Box<_>)
        .collect();
    let mut engine = SmEngine::new(vec![0u64; num_processes], processes, 2, vec![]).unwrap();
    let mut sched = FixedPeriods::uniform(num_processes, Dur::from_int(1)).unwrap();
    let outcome = engine
        .run(&mut sched, RunLimits::default().with_max_steps(steps))
        .unwrap();
    assert_eq!(outcome.steps, steps);
}

/// A minimal MP process: broadcasts every step, never idles.
#[derive(Debug, Hash)]
struct Chatter;

impl MpProcess<u8> for Chatter {
    fn step(&mut self, _inbox: Vec<Envelope<u8>>) -> Option<u8> {
        Some(0)
    }
    fn is_idle(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

fn mp_steps(num_processes: usize, steps: u64) {
    let processes: Vec<Box<dyn MpProcess<u8>>> = (0..num_processes)
        .map(|_| Box::new(Chatter) as Box<_>)
        .collect();
    let ports = (0..num_processes)
        .map(|i| (ProcessId::new(i), PortId::new(i)))
        .collect();
    let mut engine = MpEngine::new(processes, ports).unwrap();
    let mut sched = FixedPeriods::uniform(num_processes, Dur::from_int(1)).unwrap();
    let mut delays = ConstantDelay::new(Dur::from_int(2)).unwrap();
    let outcome = engine
        .run(
            &mut sched,
            &mut delays,
            RunLimits::default().with_max_steps(steps),
        )
        .unwrap();
    assert_eq!(outcome.steps, steps);
}

/// The SM spinner run through the recorded entry point with the null
/// recorder — measures the cost of the instrumentation seams themselves.
fn sm_steps_null_recorded(num_processes: usize, steps: u64) {
    let processes: Vec<Box<dyn SmProcess<u64>>> = (0..num_processes)
        .map(|i| Box::new(Spinner(VarId::new(i))) as Box<_>)
        .collect();
    let mut engine = SmEngine::new(vec![0u64; num_processes], processes, 2, vec![]).unwrap();
    let mut sched = FixedPeriods::uniform(num_processes, Dur::from_int(1)).unwrap();
    let outcome = engine
        .run_recorded(
            &mut sched,
            RunLimits::default().with_max_steps(steps),
            &mut NullRecorder,
        )
        .unwrap();
    assert_eq!(outcome.steps, steps);
}

/// The MP chatter run through the recorded entry point with the null
/// recorder.
fn mp_steps_null_recorded(num_processes: usize, steps: u64) {
    let processes: Vec<Box<dyn MpProcess<u8>>> = (0..num_processes)
        .map(|_| Box::new(Chatter) as Box<_>)
        .collect();
    let ports = (0..num_processes)
        .map(|i| (ProcessId::new(i), PortId::new(i)))
        .collect();
    let mut engine = MpEngine::new(processes, ports).unwrap();
    let mut sched = FixedPeriods::uniform(num_processes, Dur::from_int(1)).unwrap();
    let mut delays = ConstantDelay::new(Dur::from_int(2)).unwrap();
    let outcome = engine
        .run_recorded(
            &mut sched,
            &mut delays,
            RunLimits::default().with_max_steps(steps),
            &mut NullRecorder,
        )
        .unwrap();
    assert_eq!(outcome.steps, steps);
}

fn bench_sm_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/sm-steps");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(20);
    const STEPS: u64 = 10_000;
    group.throughput(Throughput::Elements(STEPS));
    for n in [2usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| sm_steps(n, STEPS));
        });
    }
    group.finish();
}

fn bench_mp_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/mp-steps");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(20);
    const STEPS: u64 = 2_000;
    group.throughput(Throughput::Elements(STEPS));
    for n in [2usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| mp_steps(n, STEPS));
        });
    }
    group.finish();
}

/// `run` vs `run_recorded(NullRecorder)` at the same step budget: the
/// acceptance bar is no measurable overhead (within noise).
fn bench_recorder_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/null-recorder-overhead");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(20);
    const SM_STEPS: u64 = 10_000;
    const MP_STEPS: u64 = 2_000;
    const N: usize = 16;
    group.bench_function("sm/plain", |b| b.iter(|| sm_steps(N, SM_STEPS)));
    group.bench_function("sm/null-recorder", |b| {
        b.iter(|| sm_steps_null_recorded(N, SM_STEPS));
    });
    group.bench_function("mp/plain", |b| b.iter(|| mp_steps(N, MP_STEPS)));
    group.bench_function("mp/null-recorder", |b| {
        b.iter(|| mp_steps_null_recorded(N, MP_STEPS));
    });
    group.finish();
}

/// The explorer with the flight recorder absent vs present: `plain` is
/// the classic entry point, `flight-off` goes through [`explore_flight`]
/// with every hook disabled (the configuration `session-cli analyze`
/// always uses without `profile=`), `flight-on` pays for the full
/// per-worker profile. The DESIGN.md §15 zero-overhead claim is the
/// `plain` vs `flight-off` pair; `flight-on` quantifies the opt-in cost.
fn bench_flight_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore/flight-overhead");
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1600));
    group.sample_size(10);
    let space = scoped_target_space("PeriodicMp", 2, 2).expect("PeriodicMp is registered");
    let opts = ExploreOpts::reduced();
    group.bench_function("plain", |b| {
        b.iter(|| explore_with_opts(&space.roots, 2, 2, space.scope.max_depth, opts));
    });
    group.bench_function("flight-off", |b| {
        b.iter(|| {
            explore_flight(
                &space.roots,
                2,
                2,
                space.scope.max_depth,
                opts,
                &mut NullRecorder,
                &FlightOpts::default(),
            )
        });
    });
    group.bench_function("flight-on", |b| {
        b.iter(|| {
            explore_flight(
                &space.roots,
                2,
                2,
                space.scope.max_depth,
                opts,
                &mut NullRecorder,
                &FlightOpts::profiled(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sm_throughput,
    bench_mp_throughput,
    bench_recorder_overhead,
    bench_flight_overhead
);
criterion_main!(benches);
