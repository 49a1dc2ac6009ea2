//! Collision audit for the checker's 64-bit state keys.
//!
//! The explorer's memo, the parallel explorer's claim table and the zone
//! walker's control set all identify a state by a bare `u64`: a process
//! fingerprint is a structural Fx hash of the process, and the keys hash
//! those fingerprints together with the rest of the state. A collision
//! would silently merge two distinct states, so this audit walks every
//! state each target can reach, keeps a full
//! canonical encoding of the state under every key it computes — the
//! `Debug` rendering of each process, the sorted inboxes, the canonical
//! pending events, the periods and the session counter — and asserts that
//! no two distinct encodings share:
//!
//! * a [`state_key`] (the memo and claim key),
//! * a control hash ([`AnyMachine::control_hash`], the zone walker's
//!   currency), whose encoding leaves out times and the counter.
//!
//! Encodings are interned component by component, so storing one per key
//! costs a few words. The sporadic targets and the 325,431-state
//! `PeriodicMp` (3, 3) space take minutes in a debug build; they run under
//! `--release` (`cargo test --release -p session-analyzer --test
//! hash_audit -- --include-ignored`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use session_analyzer::explore::{check_step, state_key, AnyMachine, SessionCounter};
use session_analyzer::{scoped_target_space, target_space, TargetSpace};

/// Targets whose audit runs in every build.
const FAST_TARGETS: [&str; 11] = [
    "SyncSm",
    "PeriodicSm",
    "SemiSyncSm",
    "SporadicSm",
    "AsyncSm",
    "SyncMp",
    "PeriodicMp",
    "SemiSyncMp",
    "AsyncMp",
    "NaivePeriodicSm",
    "NaiveSemiSyncSm",
];

/// Targets too large to audit in a debug build.
const SLOW_TARGETS: [&str; 2] = ["SporadicMp", "NaiveSporadicMp"];

/// Maps each distinct rendered component to a small id, so an encoding
/// is stored as a short id list.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
}

impl Interner {
    fn encode(&mut self, parts: Vec<String>) -> Vec<u32> {
        parts
            .into_iter()
            .map(|part| {
                let next = u32::try_from(self.ids.len()).expect("fewer than 2^32 components");
                *self.ids.entry(part).or_insert(next)
            })
            .collect()
    }
}

/// One key's audit table: each key with the encoding first seen under it.
struct Table {
    name: &'static str,
    seen: HashMap<u64, Box<[u32]>>,
}

impl Table {
    fn new(name: &'static str) -> Table {
        Table {
            name,
            seen: HashMap::new(),
        }
    }

    /// Records `encoding` under `key`. Panics when a different encoding
    /// already holds the key; returns whether the key is new.
    fn record(&mut self, target: &str, key: u64, encoding: Vec<u32>) -> bool {
        match self.seen.entry(key) {
            Entry::Occupied(entry) => {
                assert!(
                    **entry.get() == *encoding,
                    "{target}: two distinct states share {} {key:#018x}",
                    self.name
                );
                false
            }
            Entry::Vacant(entry) => {
                entry.insert(encoding.into_boxed_slice());
                true
            }
        }
    }
}

/// The machine's full encoding, with relative times when `timed`.
fn machine_encoding(machine: &AnyMachine, timed: bool) -> Vec<String> {
    match machine {
        AnyMachine::Sm(m) => m.canonical_encoding(timed),
        AnyMachine::Mp(m) => m.canonical_encoding(timed),
    }
}

/// The state's full encoding as the state key sees it: machine state
/// with relative times, plus the counter.
fn state_encoding(
    interner: &mut Interner,
    machine: &AnyMachine,
    counter: &SessionCounter,
) -> Vec<u32> {
    let mut parts = machine_encoding(machine, true);
    parts.push(format!("{counter:?}"));
    interner.encode(parts)
}

/// The discrete control state's encoding: no times, no counter.
fn control_encoding(interner: &mut Interner, machine: &AnyMachine) -> Vec<u32> {
    interner.encode(machine_encoding(machine, false))
}

/// What one audit walked.
#[derive(Debug)]
struct Audited {
    states: usize,
    controls: usize,
}

/// Walks every reachable state of `space` depth first, with the
/// explorer's leaf and pruning rules: quiescent states are leaves and
/// carry no key, and an edge that fires a step lint is not followed.
/// Every registered scope is explored without a depth cut, so this is the
/// explorer's whole space.
fn audit(target: &str, space: &TargetSpace) -> Audited {
    let (n, s) = (space.scope.n, space.scope.s);
    let mut interner = Interner::default();
    let mut states = Table::new("a state key");
    let mut controls = Table::new("a control hash");
    let mut stack: Vec<(AnyMachine, SessionCounter)> = space
        .roots
        .iter()
        .map(|root| (root.clone(), SessionCounter::new(n, s)))
        .collect();
    while let Some((machine, counter)) = stack.pop() {
        if machine.is_quiescent() {
            continue;
        }
        let encoding = state_encoding(&mut interner, &machine, &counter);
        if !states.record(target, state_key(&machine, &counter), encoding) {
            continue;
        }
        let encoding = control_encoding(&mut interner, &machine);
        controls.record(target, machine.control_hash(), encoding);
        for choice in 0..machine.choice_count() {
            let mut child = machine.clone();
            let info = child.apply(choice, None);
            let mut child_counter = counter.clone();
            child_counter.observe(&info);
            if check_step(&info, &child, &child_counter).is_none() {
                stack.push((child, child_counter));
            }
        }
    }
    Audited {
        states: states.seen.len(),
        controls: controls.seen.len(),
    }
}

fn audit_registered(names: &[&str]) {
    for name in names {
        let space = target_space(name).unwrap_or_else(|| panic!("{name} is registered"));
        let audited = audit(name, &space);
        assert!(audited.states > 0, "{name}: nothing audited");
        assert!(audited.controls > 0, "{name}: no control states audited");
    }
}

#[test]
fn fast_targets_have_no_key_collisions() {
    audit_registered(&FAST_TARGETS);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "minutes in debug; runs under --release")]
fn sporadic_targets_have_no_key_collisions() {
    audit_registered(&SLOW_TARGETS);
}

/// The bench headline space: every one of its 325,431 explored states
/// (the serial explorer's count, which this walk must reproduce) keyed
/// without a collision.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes in debug; runs under --release")]
fn periodic_mp_at_n3_s3_has_no_key_collisions() {
    let space = scoped_target_space("PeriodicMp", 3, 3).expect("paper target is registered");
    let audited = audit("PeriodicMp (3, 3)", &space);
    assert_eq!(audited.states, 325_431);
}
