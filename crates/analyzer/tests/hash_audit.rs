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
//! * a [`route_key`] (the plain memo and claim key),
//! * a symmetry key ([`canonical_key`], on targets symmetry accepts),
//!   whose encoding is the least over the state's symmetry orbit,
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

use session_analyzer::explore::{check_step, route_key, AnyMachine, SessionCounter};
use session_analyzer::symmetry::canonical_key;
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

/// All permutations of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut sigma = rest.clone();
            sigma.insert(at, n - 1);
            out.push(sigma);
        }
    }
    out
}

/// The state's full encoding as the route key sees it: machine state with
/// relative times, plus the counter.
fn route_encoding(
    interner: &mut Interner,
    machine: &AnyMachine,
    counter: &SessionCounter,
) -> Vec<u32> {
    let mut parts = match machine {
        AnyMachine::Sm(m) => m.canonical_encoding(true),
        AnyMachine::Mp(m) => {
            let identity: Vec<usize> = (0..m.num_processes()).collect();
            m.canonical_encoding(&identity, true)
        }
    };
    parts.push(format!("{counter:?}"));
    interner.encode(parts)
}

/// The least encoding over the state's symmetry orbit: equal exactly for
/// states that are process renamings of each other.
fn orbit_encoding(
    interner: &mut Interner,
    machine: &AnyMachine,
    counter: &SessionCounter,
    group: &[Vec<usize>],
) -> Vec<u32> {
    let AnyMachine::Mp(m) = machine else {
        unreachable!("symmetry only canonicalizes message-passing states");
    };
    group
        .iter()
        .map(|sigma| {
            let mut parts = m.canonical_encoding(sigma, true);
            parts.push(format!("{:?}", counter.renamed(sigma)));
            interner.encode(parts)
        })
        .min()
        .expect("the group holds the identity")
}

/// The discrete control state's encoding: no times, no counter.
fn control_encoding(interner: &mut Interner, machine: &AnyMachine) -> Vec<u32> {
    let parts = match machine {
        AnyMachine::Sm(m) => m.canonical_encoding(false),
        AnyMachine::Mp(m) => {
            let identity: Vec<usize> = (0..m.num_processes()).collect();
            m.canonical_encoding(&identity, false)
        }
    };
    interner.encode(parts)
}

/// What one audit walked.
#[derive(Debug)]
struct Audited {
    states: usize,
    symmetry_keys: usize,
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
    let mut routes = Table::new("a route key");
    let mut orbits = Table::new("a symmetry key");
    let mut controls = Table::new("a control hash");
    let group = permutations(n);
    let mut stack: Vec<(AnyMachine, SessionCounter)> = space
        .roots
        .iter()
        .map(|root| (root.clone(), SessionCounter::new(n, s)))
        .collect();
    while let Some((machine, counter)) = stack.pop() {
        if machine.is_quiescent() {
            continue;
        }
        let encoding = route_encoding(&mut interner, &machine, &counter);
        if !routes.record(target, route_key(&machine, &counter), encoding) {
            continue;
        }
        if let Some(key) = canonical_key(&machine, &counter) {
            let encoding = orbit_encoding(&mut interner, &machine, &counter, &group);
            orbits.record(target, key, encoding);
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
        states: routes.seen.len(),
        symmetry_keys: orbits.seen.len(),
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
    assert_eq!(audited.symmetry_keys, 0, "PeriodicMp carries process ids");
}

/// The symmetry table is exercised: `SyncMp` is symmetric, and its orbit
/// encodings merge exactly the mirror states its symmetry keys merge.
#[test]
fn symmetric_targets_audit_their_symmetry_keys() {
    let space = target_space("SyncMp").expect("registered");
    let audited = audit("SyncMp", &space);
    assert!(audited.symmetry_keys > 0);
    assert!(audited.symmetry_keys < audited.states);
}
