//! Allocation budget of the serial explorer on the bench headline space.
//!
//! A counting global allocator tallies the heap allocations the calling
//! thread makes while `PeriodicMp` (3, 3) is explored with every
//! reduction on and one thread. The count is a property of the code, not
//! of the host: it catches a regression in how cheaply a state is forked
//! and keyed (a new per-state `Vec`, a lost `Arc` share) that wall-clock
//! benchmarks on a noisy machine would hide.
//!
//! Run with `--nocapture` to see the measured rate:
//! `cargo test --release -p session-analyzer --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use session_analyzer::explore::explore_with_opts;
use session_analyzer::{scoped_target_space, ExploreOpts};

/// The system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made by
    /// this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations per expanded state the walk may make. The
/// measured rate is 9.77; the ceiling leaves room for small changes but
/// not for one more allocation per state.
const CEILING_PER_STATE: f64 = 10.5;

/// `threads = 1` keeps the whole walk on this thread, so the
/// thread-local count sees every allocation it makes and nothing else.
#[test]
fn periodic_mp_reduced_walk_stays_inside_its_allocation_budget() {
    let space = scoped_target_space("PeriodicMp", 3, 3).expect("PeriodicMp is registered");
    let opts = ExploreOpts {
        threads: 1,
        ..ExploreOpts::reduced()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let run = explore_with_opts(&space.roots, 3, 3, space.scope.max_depth, opts);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(run.states, 95_894, "the walk explores the pinned space");
    let per_state = allocations as f64 / run.states as f64;
    println!(
        "PeriodicMp (3,3) reduce=all threads=1: {allocations} allocations over {} states = {per_state:.2} per state",
        run.states
    );
    assert!(
        per_state <= CEILING_PER_STATE,
        "{per_state:.2} allocations per state, over the ceiling of {CEILING_PER_STATE}"
    );
}
