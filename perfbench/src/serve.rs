//! The `serve` workload: an in-process service and one TCP client
//! driving an open loop of periodic (s = 2, n = 2) sessions.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use session_serve::session::FireOutcome;
use session_serve::{
    ClientFrame, ConformanceVerdict, PeerHandle, ServeClient, ServeConfig, Server, ServerFrame,
    SessionInstance, TimeWheel,
};
use session_types::{SessionSpec, TimingModel};

use crate::measure::{median, now, percentile, process_cpu_ns};
use crate::trace::{Layer, Tracer};
use crate::{Metric, Outcome};

/// Opens per second the generator schedules, whatever the service does.
const RATE: f64 = 15_000.0;
const S: u32 = 2;
const N: u32 = 2;
/// Real microseconds per nominal unit: a session closes 8 units (0.8 ms)
/// after it opens.
const UNIT_US: u32 = 100;
/// Service start-ups timed before the load (the last one serves it) and
/// after it, so `setup_s` samples both ends of the run.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;
/// How long after the last due Open the generator waits for stragglers.
const GRACE: Duration = Duration::from_secs(10);
/// Sessions whose frames and seeds the traced run replays layer by layer.
const LAYER_SESSIONS: usize = 50_000;
/// The service samples one admitted session in this many for conformance.
const SAMPLE_EVERY: u64 = 64;
/// Ring slots and tick of the shard's time wheel (`ServeConfig` default).
const WHEEL_SLOTS: usize = 4096;
const TICK_US: u64 = 1000;

fn config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        sample_every: SAMPLE_EVERY,
        tick_us: TICK_US,
        ..ServeConfig::default()
    }
}

/// Sessions per run: fixed by the run length, never by how fast the
/// service is, so peak memory compares like with like.
fn session_count(seconds: u64) -> u64 {
    (RATE * seconds as f64) as u64
}

fn session_seed(seed: u64, req: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ req
}

/// Start → connect → `Hello`, timed.
fn start_and_greet() -> (Server, ServeClient, f64) {
    let start = now();
    let server = Server::start(config()).expect("start the service on loopback");
    let mut client = ServeClient::connect(server.addr()).expect("connect to the service");
    client
        .hello(0, Duration::from_secs(10))
        .expect("the service answers Hello");
    (server, client, start.elapsed().as_secs_f64())
}

/// Times `times` service start-ups, shutting each down again.
fn time_setups(times: usize, samples: &mut Vec<f64>) {
    for _ in 0..times {
        let (server, client, secs) = start_and_greet();
        samples.push(secs);
        drop(client);
        server.shutdown();
    }
}

/// Times [`SETUPS_BEFORE`] start-ups and keeps the last one running.
fn setup(samples: &mut Vec<f64>) -> (Server, ServeClient) {
    time_setups(SETUPS_BEFORE - 1, samples);
    let (server, client, secs) = start_and_greet();
    samples.push(secs);
    (server, client)
}

/// What one open-loop phase saw.
struct Load {
    sessions: u64,
    failed: u64,
    /// Due time of each Open to receipt of its `Closed`, in ms, grouped
    /// by the second in which the Open was due.
    latency_ms: Vec<Vec<f64>>,
    /// How late the generator wrote each Open, in ms.
    late_ms: Vec<f64>,
    /// First due Open to last `Closed`.
    wall_s: f64,
    cpu_s: f64,
    /// The phase's own frames, kept for the wire layer when tracing.
    sent: Vec<ClientFrame>,
    received: Vec<ServerFrame>,
}

/// Writes `count` Opens on a fixed schedule (request `first + i` is due
/// `i / RATE` seconds after the start) and reads frames between sends.
fn open_loop(client: &mut ServeClient, first: u64, count: u64, seed: u64, keep: usize) -> Load {
    let period_ns = 1e9 / RATE;
    let due_ns = |i: u64| (i as f64 * period_ns) as u64;
    let mut load = Load {
        sessions: count,
        failed: 0,
        latency_ms: vec![Vec::new(); (count as f64 / RATE).ceil() as usize],
        late_ms: Vec::with_capacity(count as usize),
        wall_s: 0.0,
        cpu_s: 0.0,
        sent: Vec::new(),
        received: Vec::new(),
    };
    let mut session_req: HashMap<u64, u64> = HashMap::new();
    let mut next = 0u64;
    let mut done = 0u64;
    let mut last_close_ns = 0u64;
    let deadline_ns = due_ns(count) + GRACE.as_nanos() as u64;
    let cpu0 = process_cpu_ns();
    let start = now();
    let elapsed_ns = |start: Instant| start.elapsed().as_nanos() as u64;
    while done < count {
        let el = elapsed_ns(start);
        if el > deadline_ns {
            break;
        }
        if next < count && due_ns(next) <= el {
            while next < count && due_ns(next) <= el {
                let frame = ClientFrame::Open {
                    req: first + next,
                    model: TimingModel::Periodic,
                    s: S,
                    n: N,
                    unit_us: UNIT_US,
                    seed: session_seed(seed, first + next),
                };
                client.send(&frame).expect("write Open");
                if load.sent.len() < keep {
                    load.sent.push(frame);
                }
                load.late_ms.push((el - due_ns(next)) as f64 / 1e6);
                next += 1;
            }
            client.flush().expect("flush Opens");
        }
        let wait_ns = if next < count {
            due_ns(next).saturating_sub(elapsed_ns(start))
        } else {
            50_000_000
        };
        let Some(frame) = client.recv_timeout(Duration::from_nanos(wait_ns)) else {
            continue;
        };
        let at_ns = elapsed_ns(start);
        for frame in std::iter::once(frame).chain(client.drain()) {
            if load.received.len() < 2 * keep {
                load.received.push(frame);
            }
            match frame {
                ServerFrame::Opened { req, session } => {
                    session_req.insert(session, req - first);
                }
                ServerFrame::Closed {
                    session,
                    sessions,
                    conformance,
                    ..
                } => {
                    done += 1;
                    last_close_ns = at_ns;
                    let bad_verdict = matches!(
                        conformance,
                        ConformanceVerdict::Fail | ConformanceVerdict::Watchdog
                    );
                    match session_req.remove(&session) {
                        Some(i) if !bad_verdict && sessions >= S => {
                            let second = (due_ns(i) / 1_000_000_000) as usize;
                            load.latency_ms[second].push((at_ns - due_ns(i)) as f64 / 1e6);
                        }
                        _ => load.failed += 1,
                    }
                }
                ServerFrame::Reject { .. } => {
                    done += 1;
                    load.failed += 1;
                }
                _ => {}
            }
        }
    }
    load.failed += count - done;
    load.wall_s = last_close_ns as f64 / 1e9;
    load.cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    load
}

/// Percentile `p` of session latency: taken within each second of the
/// run, then the median over seconds, so one stalled second of a shared
/// host does not decide the run's figure.
fn latency(load: &Load, p: f64) -> f64 {
    let per_second: Vec<f64> = load
        .latency_ms
        .iter()
        .filter(|second| !second.is_empty())
        .map(|second| percentile(second, p))
        .collect();
    if per_second.is_empty() {
        // Every session failed; report the grace period as the latency.
        return GRACE.as_secs_f64() * 1e3;
    }
    median(&per_second)
}

/// Warns on stderr when the generator fell behind its schedule by more
/// than one wheel tick at the 99th percentile.
fn flag_lateness(load: &Load) -> f64 {
    let late_p99 = percentile(&load.late_ms, 99.0);
    if late_p99 > TICK_US as f64 / 1e3 {
        eprintln!("GENERATOR LATE: p99 {late_p99:.3} ms behind schedule");
    }
    late_p99
}

/// The untraced run: one open loop of `RATE × seconds` sessions.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut setups = Vec::new();
    let (server, mut client) = setup(&mut setups);
    let count = session_count(seconds);
    let load = open_loop(&mut client, 0, count, seed, 0);
    drop(client);
    server.shutdown();
    time_setups(SETUPS_AFTER, &mut setups);
    let late_p99 = flag_lateness(&load);
    eprintln!(
        "serve: {} sessions, {} failed, generator p99 late {late_p99:.3} ms",
        load.sessions, load.failed
    );
    Outcome {
        attempted: load.sessions,
        failed: load.failed,
        metrics: vec![
            Metric::new("setup_s", "s", median(&setups)),
            Metric::new("wall_s", "s", load.wall_s),
            Metric::new(
                "cpu_us_per_unit",
                "us",
                load.cpu_s * 1e6 / load.sessions as f64,
            ),
            Metric::new("latency_p50_ms", "ms", latency(&load, 50.0)),
            Metric::new("latency_p99_ms", "ms", latency(&load, 99.0)),
        ],
    }
}

/// The traced run: half the sessions untraced, half with their frames
/// kept, then the wire, session and wheel layers replayed on this
/// workload's own frames, specs and seeds.
pub fn trace(seed: u64, seconds: u64, tracer: &mut Tracer, floor: f64) -> Outcome {
    let ((server, mut client), _) =
        tracer.span("setup: start, connect, Hello", || setup(&mut Vec::new()));
    let half = session_count(seconds) / 2;
    let (plain, wall0) = tracer.span("open loop (untraced)", || {
        open_loop(&mut client, 0, half, seed, 0)
    });
    let (kept, wall1) = tracer.span("open loop (frames kept)", || {
        open_loop(&mut client, half, half, seed, LAYER_SESSIONS)
    });
    drop(client);
    let (report, _) = tracer.span("shutdown", || server.shutdown());
    let late_p99 = flag_lateness(&plain).max(flag_lateness(&kept));

    let (wire, _) = tracer.span("layer: wire", || wire_layer(&kept));
    let (session, _) = tracer.span("layer: session", || {
        session_layer(seed, half, kept.sent.len())
    });
    let (wheel, _) = tracer.span("layer: wheel", || wheel_layer(&session.schedules));

    let sessions = session.sessions as f64;
    let cpu_us_per_session = plain.cpu_s * 1e6 / plain.sessions as f64;
    // Each session crosses the wire as Open, Opened and Closed: three
    // encodes and three decodes between client and service.
    let wire_us = 3.0 * (wire.encode.mean_ns(floor) + wire.decode.mean_ns(floor)) / 1e3;
    let session_us =
        (session.new.net_ns(floor) + session.fire.net_ns(floor) + session.verify.net_ns(floor))
            / sessions
            / 1e3;
    let wheel_us = (wheel.schedule.net_ns(floor) + wheel.advance.net_ns(floor)) / sessions / 1e3;
    let lag = report.metrics.histogram("serve.close_lag_ms");
    let lag_q = |q: f64| lag.and_then(|h| h.quantile(q)).unwrap_or(0.0);
    let counter = |name: &str| report.metrics.counter(name) as f64;
    let metrics = vec![
        Metric::new("wire.encode_ns", "ns", wire.encode.mean_ns(floor)),
        Metric::new("wire.decode_ns", "ns", wire.decode.mean_ns(floor)),
        Metric::new("session.new_us", "us", session.new.mean_ns(floor) / 1e3),
        Metric::new(
            "session.fire_us_per_session",
            "us",
            session.fire.net_ns(floor) / sessions / 1e3,
        ),
        Metric::new(
            "session.fires_per_session",
            "count",
            session.fire.calls() as f64 / sessions,
        ),
        Metric::new(
            "session.verify_us_per_sample",
            "us",
            session.verify.mean_ns(floor) / 1e3,
        ),
        Metric::new("wheel.schedule_ns", "ns", wheel.schedule.mean_ns(floor)),
        Metric::new("wheel.advance_ns", "ns", wheel.advance.mean_ns(floor)),
        Metric::new(
            "serve.frames_dropped",
            "count",
            counter("serve.frames_dropped"),
        ),
        Metric::new(
            "serve.sessions_shed",
            "count",
            counter("serve.sessions_shed"),
        ),
        Metric::new(
            "serve.opens_queue_full",
            "count",
            counter("serve.opens_queue_full"),
        ),
        Metric::new(
            "serve.conformance_samples",
            "count",
            counter("serve.conformance_samples"),
        ),
        Metric::new("serve.close_lag_p50_ms", "ms", lag_q(0.5)),
        Metric::new("serve.close_lag_p99_ms", "ms", lag_q(0.99)),
        Metric::new(
            "serve.residual_us_per_session",
            "us",
            cpu_us_per_session - session_us - wire_us - wheel_us,
        ),
        Metric::new("client.late_ms", "ms", late_p99),
        Metric::new("trace.overhead_s", "s", wall1 - wall0),
    ];
    for (name, layer) in [
        ("wire.encode", wire.encode),
        ("wire.decode", wire.decode),
        ("session.new", session.new),
        ("session.fire", session.fire),
        ("session.verify", session.verify),
        ("wheel.schedule", wheel.schedule),
        ("wheel.advance", wheel.advance),
    ] {
        tracer.add_layer(name, layer);
    }
    Outcome {
        attempted: plain.sessions + kept.sessions,
        failed: plain.failed + kept.failed,
        metrics,
    }
}

struct WireLayer {
    encode: Layer,
    decode: Layer,
}

/// Encodes, then decodes, every kept frame. A frame takes tens of
/// nanoseconds, about what one timer read costs, so each pass is timed
/// as one batch.
fn wire_layer(load: &Load) -> WireLayer {
    let mut layer = WireLayer {
        encode: Layer::default(),
        decode: Layer::default(),
    };
    let client_bytes: Vec<Vec<u8>> = layer.encode.time_batch(load.sent.len() as u64, || {
        load.sent.iter().map(ClientFrame::encode).collect()
    });
    let server_bytes: Vec<Vec<u8>> = layer.encode.time_batch(load.received.len() as u64, || {
        load.received.iter().map(ServerFrame::encode).collect()
    });
    let client_back: Vec<_> = layer.decode.time_batch(client_bytes.len() as u64, || {
        client_bytes
            .iter()
            .map(|b| ClientFrame::decode(b))
            .collect()
    });
    let server_back: Vec<_> = layer.decode.time_batch(server_bytes.len() as u64, || {
        server_bytes
            .iter()
            .map(|b| ServerFrame::decode(b))
            .collect()
    });
    for (back, frame) in client_back.iter().zip(&load.sent) {
        assert_eq!(back.as_ref(), Ok(frame), "client frame round-trips");
    }
    for (back, frame) in server_back.iter().zip(&load.received) {
        assert_eq!(back.as_ref(), Ok(frame), "server frame round-trips");
    }
    layer
}

struct SessionLayer {
    sessions: u64,
    new: Layer,
    fire: Layer,
    verify: Layer,
    /// `(scheduled_at_us, due_us)` of every step the sessions asked for,
    /// on the open loop's clock.
    schedules: Vec<(u64, u64)>,
}

/// Drives `count` sessions of the traced phase outside the service, with
/// the specs and seeds the open loop sent, firing each session's steps in
/// due order as a shard would.
fn session_layer(seed: u64, first: u64, count: usize) -> SessionLayer {
    let addr: SocketAddr = "127.0.0.1:9".parse().expect("literal socket address");
    let (peer, _egress) = PeerHandle::new(addr, 64, None);
    let spec = SessionSpec::new(u64::from(S), N as usize, N as usize).expect("valid spec");
    let period_us = 1e6 / RATE;
    let mut layer = SessionLayer {
        sessions: count as u64,
        new: Layer::default(),
        fire: Layer::default(),
        verify: Layer::default(),
        schedules: Vec::new(),
    };
    for k in 0..count as u64 {
        let req = first + k;
        let open_us = (k as f64 * period_us) as u64;
        let mut session = layer.new.time(|| {
            SessionInstance::new(
                k << 8,
                req,
                peer.clone(),
                TimingModel::Periodic,
                spec,
                UNIT_US,
                session_seed(seed, req),
                ServeConfig::default().max_steps_per_session,
                k % SAMPLE_EVERY == 0,
                now(),
            )
            .expect("the service admits this spec")
        });
        let mut queue: Vec<(u64, u32)> = session
            .initial_schedule()
            .into_iter()
            .map(|(p, at)| (at, p))
            .collect();
        for &(at, _) in &queue {
            layer.schedules.push((open_us, open_us + at));
        }
        loop {
            queue.sort_unstable();
            let (at, index) = queue.remove(0);
            match layer.fire.time(|| session.fire(index as usize)) {
                FireOutcome::Reschedule(next) => {
                    layer.schedules.push((open_us + at, open_us + next));
                    queue.push((next, index));
                }
                FireOutcome::ProcIdle => {}
                FireOutcome::Closed => break,
                other => panic!("session {req} ended with {other:?}"),
            }
        }
        if session.sampled() {
            let verdict = layer.verify.time(|| session.verify(Duration::ZERO)).0;
            assert_eq!(verdict, ConformanceVerdict::Pass, "session {req} conforms");
        }
    }
    layer
}

struct WheelLayer {
    schedule: Layer,
    advance: Layer,
}

/// Feeds a shard-sized time wheel the sessions' due times in the order
/// they were asked for, advancing it once per tick as the shard loop
/// does. Each tick's schedules are timed as one batch.
fn wheel_layer(schedules: &[(u64, u64)]) -> WheelLayer {
    let mut order: Vec<(u64, u64)> = schedules.to_vec();
    order.sort_unstable();
    let mut layer = WheelLayer {
        schedule: Layer::default(),
        advance: Layer::default(),
    };
    let mut wheel: TimeWheel<u64> = TimeWheel::new(WHEEL_SLOTS, TICK_US);
    let mut due = Vec::new();
    let mut fired = 0usize;
    let mut next = 0;
    let mut now_us = 0;
    while fired < order.len() {
        let end = next + order[next..].partition_point(|&(at, _)| at <= now_us);
        layer.schedule.time_batch((end - next) as u64, || {
            for (item, &(_, due_us)) in (next..end).zip(&order[next..end]) {
                wheel.schedule(due_us, item as u64);
            }
        });
        next = end;
        due.clear();
        layer.advance.time(|| wheel.advance(now_us, &mut due));
        fired += due.len();
        now_us += TICK_US;
    }
    layer
}
