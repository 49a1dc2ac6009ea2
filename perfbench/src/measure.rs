//! Measurement primitives: the wall clock, process CPU time, peak
//! resident memory, order statistics, and the fixed-work host reference.

use std::time::Instant;

/// The benchmark's only wall-clock read; every timing goes through it.
pub fn now() -> Instant {
    // wslint: allow(ws001): the benchmark measures wall time by design
    Instant::now()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, including
/// threads that have already exited, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is one
    // Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).expect("CPU seconds are non-negative") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("CPU nanoseconds are non-negative")
}

/// The process's peak resident set (`VmHWM`) in MiB. It covers the whole
/// life of the process, which is why every run is a fresh process.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        f64::midpoint(sorted[mid - 1], sorted[mid])
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times a fixed amount of integer work that touches nothing of the
/// program under test, five times, and returns the median in
/// milliseconds. Two sets of runs whose reference differs ran on hosts
/// (or host moments) of different speed.
pub fn host_reference_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..20_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Hardware threads the host offers this process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}
