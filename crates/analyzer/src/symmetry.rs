//! Symmetry reduction: canonicalize global states of identity-free
//! message-passing targets under port-process permutation before the memo
//! lookup.
//!
//! In an MP system every process runs an identity-independent rule set:
//! the scheduler draws gaps from one shared menu, broadcasts fan out to
//! all `n` processes uniformly, and port `p` is process `p`. When no
//! hosted algorithm stores process identities in its local state
//! ([`crate::machine::MpAlgo::id_free`] — checked per target), renaming
//! the processes by any permutation `σ` maps reachable states to
//! reachable states and admissible continuations to admissible
//! continuations, with the session counter's covered/idle sets renamed
//! alongside. Two states in the same orbit therefore have identical
//! verdicts, and the memo can store one representative per orbit.
//!
//! The canonical form is the minimum, over all `n!` permutations, of the
//! joint hash of the permuted machine state
//! ([`crate::machine::MpMachine::hash_permuted`] — fingerprints, inbox
//! multisets with renamed senders, canonically ordered pending events,
//! per-process periods) and the permuted counter state
//! ([`crate::explore::SessionCounter::hash_permuted`] — renamed covered
//! ports and idle processes). Minimizing over the whole group is `O(n!)`
//! per state, which is the right trade at the checker's scopes (`n ≤ 4`);
//! the selector refuses scopes past [`MAX_PERMUTED`].
//!
//! Algorithms that remember *who* they heard from (`A(p)`, `A(sp)`,
//! `A(a)`) are excluded wholesale: their stored ids live inside opaque
//! fingerprints that a permutation cannot rewrite, so two genuinely
//! different states (same multiset of local states, ids pointing at
//! different peers) could otherwise collapse into one orbit.
//! Shared-memory targets are excluded too — the tree network's
//! variable wiring breaks the port-permutation automorphism.

use std::hash::Hasher;
use std::sync::OnceLock;

use rustc_hash::FxHasher;

use crate::explore::{AnyMachine, SessionCounter};

/// The largest process count canonicalized (8! hashes per state would
/// cost more than the states it saves at this checker's scopes).
pub(crate) const MAX_PERMUTED: usize = 5;

/// The canonical (orbit-minimal) memo key of the state, or `None` when the
/// target is not symmetric (shared memory, identity-carrying algorithms,
/// or a scope past [`MAX_PERMUTED`]) and the caller must fall back to the
/// plain key.
pub fn canonical_key(machine: &AnyMachine, counter: &SessionCounter) -> Option<u64> {
    let AnyMachine::Mp(m) = machine else {
        return None;
    };
    let n = m.num_processes();
    if n <= 1 || n > MAX_PERMUTED || !m.symmetric() {
        return None;
    }
    let mut best = u64::MAX;
    for sigma in group(n) {
        let mut hasher = FxHasher::default();
        m.hash_permuted(sigma, &mut hasher);
        counter.hash_permuted(sigma, &mut hasher);
        best = best.min(hasher.finish());
    }
    Some(best)
}

/// The cached permutation group for `n` processes. `canonical_key` runs
/// once per *state*, so regenerating the `n!` vectors there dominated the
/// reduction's own cost; the group per scope is computed exactly once per
/// process (and shared lock-free across exploration threads).
fn group(n: usize) -> &'static [Vec<usize>] {
    static GROUPS: [OnceLock<Vec<Vec<usize>>>; MAX_PERMUTED + 1] =
        [const { OnceLock::new() }; MAX_PERMUTED + 1];
    debug_assert!(n <= MAX_PERMUTED);
    GROUPS[n].get_or_init(|| permutations(n))
}

/// All permutations of `0..n`, identity first (plain recursive
/// generation; `n ≤ MAX_PERMUTED` keeps this tiny).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    let mut used = vec![false; n];
    fn go(
        n: usize,
        depth: usize,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if depth == n {
            out.push(current.clone());
            return;
        }
        for v in 0..n {
            if !used[v] {
                used[v] = true;
                current[depth] = v;
                go(n, depth + 1, current, used, out);
                used[v] = false;
            }
        }
    }
    go(n, 0, &mut current, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{GapMode, MpAlgo, MpMachine};
    use session_core::algorithms::SyncMpPort;
    use session_types::{Dur, Time};

    fn sync_mp(n: usize, s: u64, first_steps: Vec<Time>) -> MpMachine {
        let algos: Vec<MpAlgo> = (0..n).map(|_| MpAlgo::Sync(SyncMpPort::new(s))).collect();
        MpMachine::new(
            algos,
            GapMode::PerStep(vec![Dur::from_int(1), Dur::from_int(2)]),
            vec![Dur::from_int(1)],
            first_steps,
        )
    }

    #[test]
    fn permutations_enumerate_the_group() {
        let perms = permutations(3);
        assert_eq!(perms.len(), 6);
        assert_eq!(perms[0], vec![0, 1, 2]);
        let distinct: std::collections::BTreeSet<Vec<usize>> = perms.into_iter().collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn mirror_states_share_a_canonical_key() {
        let one = Dur::from_int(1);
        let two = Dur::from_int(2);
        // p0 due at 1, p1 due at 2 — and the mirror image.
        let a = sync_mp(2, 3, vec![Time::ZERO + one, Time::ZERO + two]);
        let b = sync_mp(2, 3, vec![Time::ZERO + two, Time::ZERO + one]);
        let counter = SessionCounter::new(2, 3);
        let ka = canonical_key(&AnyMachine::Mp(a), &counter).expect("sync MP is symmetric");
        let kb = canonical_key(&AnyMachine::Mp(b), &counter).expect("sync MP is symmetric");
        assert_eq!(ka, kb);
    }

    #[test]
    fn asymmetric_counters_keep_mirror_states_apart() {
        use session_types::{PortId, ProcessId};
        let one = Dur::from_int(1);
        let two = Dur::from_int(2);
        let a = sync_mp(2, 3, vec![Time::ZERO + one, Time::ZERO + two]);
        let b = sync_mp(2, 3, vec![Time::ZERO + two, Time::ZERO + one]);
        // Counter has port 0 covered: the mirror machine state with the
        // *same* counter is a genuinely different joint state.
        let mut covered0 = SessionCounter::new(2, 3);
        covered0.observe(&crate::machine::StepInfo {
            time: Time::ZERO,
            process: ProcessId::new(0),
            port: Some(PortId::new(0)),
            was_idle: false,
            idle_after: false,
            is_process_step: true,
            b_violation: None,
        });
        let ka = canonical_key(&AnyMachine::Mp(a), &covered0).expect("symmetric");
        let kb = canonical_key(&AnyMachine::Mp(b), &covered0).expect("symmetric");
        assert_ne!(
            ka, kb,
            "covering port 0 breaks the mirror symmetry of the joint state"
        );
    }

    #[test]
    fn identity_carrying_algorithms_are_refused() {
        use session_core::algorithms::PeriodicMpPort;
        let algos: Vec<MpAlgo> = (0..2)
            .map(|_| MpAlgo::Periodic(PeriodicMpPort::new(3, 2)))
            .collect();
        let m = MpMachine::new(
            algos,
            GapMode::FixedPerProcess(vec![Dur::from_int(1), Dur::from_int(2)]),
            vec![Dur::from_int(1)],
            vec![Time::ZERO + Dur::from_int(1); 2],
        );
        assert_eq!(
            canonical_key(&AnyMachine::Mp(m), &SessionCounter::new(2, 3)),
            None
        );
    }
}
