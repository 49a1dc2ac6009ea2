//! The real-clock runtime: one OS thread per process.
//!
//! Each thread owns its algorithm state machine ([`session_mpm::MpProcess`]),
//! its transport endpoint, a [`crate::Pacer`] and a seeded RNG. Per
//! iteration it advances the nominal clock, sleeps to the matching
//! wall-clock instant, drains the endpoint, consumes every packet whose
//! nominal delivery time has arrived, takes one algorithm step through the
//! same [`session_mpm::step_process`] the simulator engine uses, and
//! broadcasts any produced message with a nominal delay drawn from the
//! model's `[d1, d2]` window. Quiescence is detected through a shared idle
//! board; a step-count and wall-clock watchdog aborts runs that fail to
//! quiesce.
//!
//! Threads record their telemetry through a
//! [`session_obs::SharedRecorder`]; the merged per-run counters are
//! forwarded to the caller's [`Recorder`] after the threads join.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use session_core::system::build_mp_processes;
use session_core::SessionMsg;
use session_mpm::{step_process, Envelope, MpProcess};
use session_obs::{InMemoryRecorder, MetricsSnapshot, Recorder, SharedRecorder};
use session_sim::{seeded_rng, Trace};
use session_types::{Dur, ProcessId, Result, Time};

use crate::config::RealConfig;
use crate::merge::merge_trace;
use crate::pacer::{rule_for_process, Pacer};
use crate::transport::{ChanTransport, Endpoint, Packet, Transport, TransportKind};
use crate::udp::UdpTransport;
use session_pacing::{sample, GapRule};

/// One recorded algorithm step of one process, at its nominal time.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// Nominal step time.
    pub time: Time,
    /// Messages consumed from the delivery buffer at this step.
    pub received: usize,
    /// Whether the step broadcast a message.
    pub broadcast: bool,
    /// Whether the process was idle after the step.
    pub idle_after: bool,
}

/// One recorded point-to-point copy of a broadcast.
#[derive(Clone, Copy, Debug)]
pub struct SendRecord {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
    /// Nominal send time.
    pub sent_at: Time,
    /// Nominal delivery time.
    pub deliver_at: Time,
}

/// Everything one process thread observed, in step order.
#[derive(Debug, Default)]
pub struct ProcessLog {
    /// The process's steps.
    pub steps: Vec<StepRecord>,
    /// Every copy it sent.
    pub sends: Vec<SendRecord>,
    /// Packets whose physical arrival missed their nominal delivery time
    /// (consumed at a later step than an ideal network would allow).
    pub late_packets: u64,
}

/// The result of one real-clock run.
#[derive(Debug)]
pub struct RealRunOutcome {
    /// The reconstructed global trace, at nominal times — the object the
    /// conformance harness verifies.
    pub trace: Trace,
    /// `true` if every process quiesced before a watchdog fired.
    pub terminated: bool,
    /// Total algorithm steps across all processes.
    pub steps: u64,
    /// Total late packets across all processes.
    pub late_packets: u64,
    /// Physical duration of the run.
    pub wall_clock: Duration,
    /// The run's telemetry (counters, gauges, the pacer-lag histogram).
    pub metrics: MetricsSnapshot,
}

/// Builds a [`RealRunOutcome`] from per-process logs collected by an
/// external executor (the serve shards record the same `ProcessLog`
/// shape for sampled sessions and feed them back through this seam so
/// `verify_conformance` applies unchanged).
///
/// The returned outcome carries an empty metrics snapshot — external
/// executors report telemetry through their own recorders.
pub fn outcome_from_logs(
    n: usize,
    logs: &[ProcessLog],
    terminated: bool,
    wall_clock: Duration,
) -> RealRunOutcome {
    RealRunOutcome {
        trace: merge_trace(n, logs),
        terminated,
        steps: logs.iter().map(|l| l.steps.len() as u64).sum(),
        late_packets: logs.iter().map(|l| l.late_packets).sum(),
        wall_clock,
        metrics: InMemoryRecorder::new().into_snapshot(),
    }
}

struct Board {
    idle: Vec<AtomicBool>,
    stop: AtomicBool,
    failed: AtomicBool,
}

impl Board {
    fn new(n: usize) -> Board {
        Board {
            idle: (0..n).map(|_| AtomicBool::new(false)).collect(),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }

    fn all_idle(&self) -> bool {
        self.idle.iter().all(|b| b.load(Ordering::SeqCst))
    }
}

/// Runs `config` on real clocks and returns the reconstructed outcome.
///
/// Counters, gauges, and histograms recorded by the process threads are
/// forwarded into `recorder` after the run (histograms through
/// [`Recorder::merge_histogram`], so the pacer-lag distribution shows up
/// in a `session-cli stats` unified snapshot alongside the engine and
/// analyzer metrics).
///
/// # Errors
///
/// Returns [`session_types::Error::InvalidParams`] for an invalid or
/// infeasible configuration, and propagates transport setup and send
/// failures.
///
/// # Panics
///
/// Re-raises any panic of a process thread.
pub fn run_real(config: &RealConfig, recorder: &mut dyn Recorder) -> Result<RealRunOutcome> {
    config.validate()?;
    let bounds = config.bounds()?;
    let n = config.spec.n();
    let processes = build_mp_processes(&config.spec, &bounds)?;
    let endpoints = match config.transport {
        TransportKind::Chan => ChanTransport::new().endpoints(n)?,
        TransportKind::Udp => UdpTransport::new().endpoints(n)?,
    };
    let mut setup_rng = seeded_rng(config.seed);
    let rules: Vec<GapRule> = (0..n)
        .map(|i| rule_for_process(config, &bounds, i, &mut setup_rng))
        .collect();
    let delay_window = config.delay_window(&bounds);

    let board = Board::new(n);
    let shared = SharedRecorder::new(InMemoryRecorder::new());
    let start = Instant::now();
    // Every pacer shares one origin slightly in the future, so thread
    // spawn latency cannot make the very first steps late.
    let origin = start + Duration::from_millis(5);

    let logs: Vec<ProcessLog> = {
        let board = &board;
        std::thread::scope(|scope| {
            let handles: Vec<_> = processes
                .into_iter()
                .zip(endpoints)
                .zip(rules)
                .enumerate()
                .map(|(index, ((process, endpoint), rule))| {
                    let pacer = Pacer::new(rule, config.unit, origin);
                    let shared = shared.clone();
                    let worker = Worker {
                        index,
                        n,
                        process,
                        endpoint,
                        pacer,
                        seed: config.seed
                            ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
                        delay_window,
                        max_steps: config.max_steps_per_process,
                        deadline: config.deadline,
                        start,
                        board,
                        recorder: shared,
                    };
                    scope.spawn(move || worker.run())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect::<Result<Vec<ProcessLog>>>()
        })?
    };

    let wall_clock = start.elapsed();
    let trace = merge_trace(n, &logs);
    let steps: u64 = logs.iter().map(|l| l.steps.len() as u64).sum();
    let broadcasts: u64 = logs
        .iter()
        .map(|l| l.steps.iter().filter(|s| s.broadcast).count() as u64)
        .sum();
    let packets_sent: u64 = logs.iter().map(|l| l.sends.len() as u64).sum();
    let packets_consumed: u64 = logs
        .iter()
        .map(|l| l.steps.iter().map(|s| s.received as u64).sum::<u64>())
        .sum();
    let late_packets: u64 = logs.iter().map(|l| l.late_packets).sum();

    let mut backend = shared.into_inner();
    backend.counter("net.steps", steps);
    backend.counter("net.broadcasts", broadcasts);
    backend.counter("net.packets_sent", packets_sent);
    backend.counter("net.packets_consumed", packets_consumed);
    backend.counter("net.late_packets", late_packets);
    backend.gauge("net.wall_clock_ms", wall_clock.as_secs_f64() * 1e3);
    if let Some(end) = trace.end_time() {
        backend.gauge("net.logical_end_time", end.to_f64());
    }
    let metrics = backend.into_snapshot();
    for (name, value) in metrics.counters() {
        recorder.counter(name, value);
    }
    for (name, value) in metrics.gauges() {
        recorder.gauge(name, value);
    }
    for (name, hist) in metrics.histograms() {
        recorder.merge_histogram(name, hist);
    }

    Ok(RealRunOutcome {
        trace,
        terminated: !board.failed.load(Ordering::SeqCst),
        steps,
        late_packets,
        wall_clock,
        metrics,
    })
}

struct Worker<'a> {
    index: usize,
    n: usize,
    process: Box<dyn MpProcess<SessionMsg>>,
    endpoint: Box<dyn Endpoint>,
    pacer: Pacer,
    seed: u64,
    delay_window: (Dur, Dur),
    max_steps: u64,
    deadline: Duration,
    start: Instant,
    board: &'a Board,
    recorder: SharedRecorder<InMemoryRecorder>,
}

impl Worker<'_> {
    fn run(mut self) -> Result<ProcessLog> {
        let me = ProcessId::new(self.index);
        let mut rng = seeded_rng(self.seed);
        let mut log = ProcessLog::default();
        let mut pending: Vec<Packet> = Vec::new();
        let mut prev_time = Time::ZERO;
        loop {
            let t = self.pacer.next_time(&mut rng);
            let lag = self.pacer.sleep_until(t);
            self.recorder.observe("net.pacer_lag_ms", lag);
            if self.board.stop.load(Ordering::SeqCst) {
                break;
            }
            pending.extend(self.endpoint.drain());
            // Consume every packet whose nominal delivery time has
            // arrived, in (deliver_at, sender) order — the simulator's
            // FIFO tie-break.
            let mut inbox_packets: Vec<Packet> = Vec::new();
            pending.retain(|p| {
                if p.deliver_at <= t {
                    inbox_packets.push(*p);
                    false
                } else {
                    true
                }
            });
            inbox_packets.sort_by_key(|p| (p.deliver_at, p.from.index()));
            log.late_packets += inbox_packets
                .iter()
                .filter(|p| p.deliver_at < prev_time)
                .count() as u64;
            let inbox: Vec<Envelope<SessionMsg>> = inbox_packets
                .iter()
                .map(|p| Envelope::new(p.from, SessionMsg::new(p.value)))
                .collect();
            let result = step_process(self.process.as_mut(), inbox);
            log.steps.push(StepRecord {
                time: t,
                received: result.received,
                broadcast: result.broadcast.is_some(),
                idle_after: result.idle_after,
            });
            if let Some(payload) = result.broadcast {
                for q in 0..self.n {
                    let delay = sample(&mut rng, self.delay_window.0, self.delay_window.1);
                    let packet = Packet {
                        from: me,
                        value: payload.value,
                        sent_at: t,
                        deliver_at: t + delay,
                    };
                    self.endpoint.send(ProcessId::new(q), &packet)?;
                    log.sends.push(SendRecord {
                        from: me,
                        to: ProcessId::new(q),
                        sent_at: t,
                        deliver_at: t + delay,
                    });
                }
            }
            self.board.idle[self.index].store(result.idle_after, Ordering::SeqCst);
            if result.idle_after && self.board.all_idle() {
                self.board.stop.store(true, Ordering::SeqCst);
                break;
            }
            if log.steps.len() as u64 >= self.max_steps || self.start.elapsed() >= self.deadline {
                self.board.failed.store(true, Ordering::SeqCst);
                self.board.stop.store(true, Ordering::SeqCst);
                break;
            }
            prev_time = t;
        }
        Ok(log)
    }
}
