//! The sporadic message-passing algorithm `A(sp)` (§6).

use std::collections::{BTreeMap, BTreeSet};

use session_mpm::{Envelope, MpProcess};
use session_types::{Dur, Error, ProcessId, Result};

use crate::msg::SessionMsg;

/// The paper's `A(sp)`, implemented from the §6 pseudocode.
///
/// The key inference (§6): if a message arrives at time `t` it was sent no
/// earlier than `t − d2`, and every message received after `t + (d2 − d1)`
/// was sent *after* it. A process therefore alternates two ways of learning
/// that a new session happened:
///
/// * **Condition 1**: it holds `m(j, session)` from every process `j` —
///   everyone has directly confirmed the current session count;
/// * **Condition 2**: more than `B = ⌊u/c1⌋ + 1` own steps have passed
///   since the last session update (hence more than `u = d2 − d1` real
///   time, because steps are at least `c1` apart), and since then a fresh
///   message from every process has arrived — those messages are provably
///   newer than the previous session.
///
/// Every step broadcasts `m(i, session)`. After setting `session` to
/// `s − 1` the process enters an idle state.
///
/// Running time (Theorem 6.1):
/// `min{(⌊u/c1⌋ + 3) · γ + u, d2 + γ} · (s − 1) + γ`.
#[derive(Clone, Debug, Hash)]
pub struct SporadicMpPort {
    id: ProcessId,
    s: u64,
    n: usize,
    big_b: u64,
    count: u64,
    session: u64,
    steps: u64,
    /// `msg_buf`, organized as value → senders seen with that value.
    msg_buf: BTreeMap<u64, BTreeSet<ProcessId>>,
    /// `temp_buf`: senders heard from while `count > B`.
    temp_buf: BTreeSet<ProcessId>,
    /// When true, reproduces the paper's pseudocode verbatim: the
    /// condition-1 branch does *not* clear `temp_buf` (the erratum below).
    /// Only `paper_verbatim` sets this.
    verbatim: bool,
}

impl SporadicMpPort {
    /// Creates port process `id` for the `(s, n)`-session problem under
    /// the sporadic constants `c1` and `[d1, d2]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `c1 <= 0`, `d1 < 0` or
    /// `d1 > d2`.
    pub fn new(
        id: ProcessId,
        s: u64,
        n: usize,
        c1: Dur,
        d1: Dur,
        d2: Dur,
    ) -> Result<SporadicMpPort> {
        if !c1.is_positive() {
            return Err(Error::invalid_params("A(sp) requires c1 > 0"));
        }
        if d1.is_negative() || d1 > d2 {
            return Err(Error::invalid_params("A(sp) requires 0 <= d1 <= d2"));
        }
        let u = d2 - d1;
        let big_b = u.div_floor(c1) as u64 + 1;
        Ok(SporadicMpPort {
            id,
            s,
            n,
            big_b,
            count: 0,
            session: 0,
            steps: 0,
            msg_buf: BTreeMap::new(),
            temp_buf: BTreeSet::new(),
            verbatim: false,
        })
    }

    /// Creates `A(sp)` exactly as printed in the paper's §6 pseudocode,
    /// i.e. *without* the condition-1 `temp_buf` clear that [`new`]
    /// applies (see the erratum comment in `step`). Stale freshness
    /// evidence can then certify sessions that never happened; the
    /// analyzer flags this as `SA003 stale-evidence`.
    ///
    /// # Errors
    ///
    /// Same parameter validation as [`new`].
    ///
    /// [`new`]: SporadicMpPort::new
    #[cfg(feature = "paper-verbatim")]
    pub fn paper_verbatim(
        id: ProcessId,
        s: u64,
        n: usize,
        c1: Dur,
        d1: Dur,
        d2: Dur,
    ) -> Result<SporadicMpPort> {
        let mut port = SporadicMpPort::new(id, s, n, c1, d1, d2)?;
        port.verbatim = true;
        Ok(port)
    }

    /// This process's identifier (the `i` of `m(i, V)`).
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Creates `A(sp)` with an explicitly overridden waiting constant `B`
    /// instead of the correct `⌊u/c1⌋ + 1`.
    ///
    /// This exists for the lower-bound experiments: with `B` too small the
    /// process trusts condition 2 before `u = d2 − d1` time has provably
    /// elapsed, and an adversarial delay assignment makes it certify
    /// sessions that never happened. **Never use this to solve the actual
    /// problem.**
    pub fn with_wait_override(id: ProcessId, s: u64, n: usize, big_b: u64) -> SporadicMpPort {
        SporadicMpPort {
            id,
            s,
            n,
            big_b,
            count: 0,
            session: 0,
            steps: 0,
            msg_buf: BTreeMap::new(),
            temp_buf: BTreeSet::new(),
            verbatim: false,
        }
    }

    /// The waiting constant `B = ⌊u/c1⌋ + 1`.
    pub fn big_b(&self) -> u64 {
        self.big_b
    }

    /// The current session knowledge (`session` in the pseudocode).
    pub fn session(&self) -> u64 {
        self.session
    }

    fn all_senders(&self, set: &BTreeSet<ProcessId>) -> bool {
        (0..self.n).all(|j| set.contains(&ProcessId::new(j)))
    }

    fn condition1(&self) -> bool {
        self.msg_buf
            .get(&self.session)
            .is_some_and(|senders| self.all_senders(senders))
    }
}

impl MpProcess<SessionMsg> for SporadicMpPort {
    fn step(&mut self, inbox: Vec<Envelope<SessionMsg>>) -> Option<SessionMsg> {
        if self.is_idle() {
            return None;
        }
        self.steps += 1;
        // read buf_i; msg_buf := msg_buf ∪ M
        for env in &inbox {
            self.msg_buf
                .entry(env.payload.value)
                .or_default()
                .insert(env.from);
        }
        if self.condition1() {
            self.count = 0;
            self.session += 1;
            // ERRATUM (found by property testing, documented in DESIGN.md):
            // the paper's pseudocode clears temp_buf only in the
            // condition-2 branch. Without clearing it here too, evidence
            // received *before* this session update survives into the next
            // condition-2 check, which can then certify a session that
            // never happened (reproduced by the regression test below).
            // Lemma 6.3's proof assumes temp_buf only holds messages
            // received since the last update, which is what this line
            // restores. (`paper_verbatim` disables the fix to reproduce
            // the original behavior.)
            if !self.verbatim {
                self.temp_buf.clear();
            }
        } else if self.count > self.big_b {
            // temp_buf := temp_buf ∪ M
            for env in &inbox {
                self.temp_buf.insert(env.from);
            }
            if self.all_senders(&self.temp_buf) {
                self.count = 0;
                self.session += 1;
                self.temp_buf.clear();
            }
        }
        let out = SessionMsg::new(self.session);
        self.count += 1;
        Some(out)
    }

    fn is_idle(&self) -> bool {
        // The while loop exits once session reaches s - 1; the step that
        // performed the final increment already broadcast m(i, s - 1).
        self.steps >= 1 && self.session >= self.s.saturating_sub(1)
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(j: usize, value: u64) -> Envelope<SessionMsg> {
        Envelope::new(ProcessId::new(j), SessionMsg::new(value))
    }

    fn port(s: u64, n: usize, c1: i128, d1: i128, d2: i128) -> SporadicMpPort {
        SporadicMpPort::new(
            ProcessId::new(0),
            s,
            n,
            Dur::from_int(c1),
            Dur::from_int(d1),
            Dur::from_int(d2),
        )
        .unwrap()
    }

    #[test]
    fn big_b_is_floor_u_over_c1_plus_1() {
        assert_eq!(port(3, 2, 2, 1, 10).big_b(), 5); // u = 9, floor(9/2)+1
        assert_eq!(port(3, 2, 1, 5, 5).big_b(), 1); // u = 0
    }

    #[test]
    fn validation() {
        assert!(
            SporadicMpPort::new(ProcessId::new(0), 2, 2, Dur::ZERO, Dur::ZERO, Dur::ONE).is_err()
        );
        assert!(SporadicMpPort::new(
            ProcessId::new(0),
            2,
            2,
            Dur::ONE,
            Dur::from_int(2),
            Dur::ONE
        )
        .is_err());
    }

    #[test]
    fn every_nonidle_step_broadcasts_current_session() {
        let mut p = port(3, 2, 1, 0, 4);
        assert_eq!(p.step(vec![]), Some(SessionMsg::new(0)));
        assert_eq!(p.step(vec![]), Some(SessionMsg::new(0)));
    }

    #[test]
    fn condition1_advances_session() {
        let mut p = port(4, 2, 1, 0, 4);
        let _ = p.step(vec![msg(0, 0)]);
        assert_eq!(p.session(), 0, "missing m(1, 0)");
        let out = p.step(vec![msg(1, 0)]);
        assert_eq!(p.session(), 1);
        assert_eq!(out, Some(SessionMsg::new(1)), "broadcasts the new value");
    }

    #[test]
    fn condition2_needs_the_wait_and_fresh_messages_from_all() {
        // u = 4, c1 = 1 => B = 5. Condition 2 requires count > 5.
        let mut p = port(3, 2, 1, 0, 4);
        // Feed only m(1, 7): wrong value for condition 1 (session = 0),
        // but a fresh sender for condition 2 once the wait elapses.
        for _ in 0..6 {
            let _ = p.step(vec![]);
        }
        // count is now 6 > B: temp_buf starts collecting.
        let _ = p.step(vec![msg(1, 7)]);
        assert_eq!(p.session(), 0, "still missing a fresh message from p0");
        let _ = p.step(vec![msg(0, 7)]);
        assert_eq!(p.session(), 1, "fresh messages from all => new session");
    }

    #[test]
    fn temp_buf_ignores_messages_before_the_wait() {
        let mut p = port(3, 2, 1, 0, 4); // B = 5
                                         // Early messages (count <= B) do not enter temp_buf.
        let _ = p.step(vec![msg(1, 7)]);
        let _ = p.step(vec![msg(0, 7)]);
        for _ in 0..5 {
            let _ = p.step(vec![]);
        }
        assert_eq!(
            p.session(),
            0,
            "messages received before count > B must not satisfy condition 2"
        );
    }

    #[test]
    fn idles_at_session_s_minus_1_after_broadcasting_it() {
        let mut p = port(2, 1, 1, 0, 2);
        // n = 1: own broadcast will satisfy condition 1 once delivered.
        let out = p.step(vec![msg(0, 0)]);
        assert_eq!(p.session(), 1);
        assert_eq!(out, Some(SessionMsg::new(1)), "final value is broadcast");
        assert!(p.is_idle());
        assert_eq!(p.step(vec![]), None, "idle steps are silent");
    }

    #[test]
    fn s_equals_one_takes_one_step_then_idles() {
        let mut p = port(1, 3, 1, 0, 4);
        assert!(!p.is_idle());
        let out = p.step(vec![]);
        assert_eq!(out, Some(SessionMsg::new(0)));
        assert!(p.is_idle());
    }

    /// Regression test for the pseudocode erratum: stale `temp_buf`
    /// entries gathered before a condition-1 session update must not count
    /// toward a later condition-2 update.
    ///
    /// Scenario (distilled from a property-test counterexample with
    /// `d1 = d2 = 0`, `B = 1`): the process accumulates fresh-looking
    /// messages from `p1` while waiting, then condition 1 fires; without
    /// clearing `temp_buf`, two steps later a *single* message from `p0`
    /// would complete the stale set and certify a phantom session.
    #[test]
    fn condition1_clears_stale_freshness_evidence() {
        let mut p = port(5, 2, 1, 5, 5); // u = 0 => B = 1
                                         // Build up temp_buf while count > B (condition 1 blocked: no
                                         // m(0, 0) yet).
        let _ = p.step(vec![]);
        let _ = p.step(vec![]);
        let _ = p.step(vec![msg(1, 7)]); // count > B: p1 enters temp_buf
        assert_eq!(p.session(), 0);
        // Condition 1 fires now.
        let _ = p.step(vec![msg(0, 0), msg(1, 0)]);
        assert_eq!(p.session(), 1);
        // Two silent steps bring count > B again; a lone fresh message
        // from p0 must NOT complete the (stale) set {p0, p1}.
        let _ = p.step(vec![]);
        let _ = p.step(vec![]);
        let _ = p.step(vec![msg(0, 7)]);
        assert_eq!(
            p.session(),
            1,
            "stale p1 evidence from before the update must not certify a session"
        );
        // Genuinely fresh messages from both processes do.
        let _ = p.step(vec![msg(1, 7)]);
        assert_eq!(p.session(), 2);
    }

    #[test]
    fn count_resets_on_session_update() {
        let mut p = port(5, 1, 1, 0, 3); // B = 4
                                         // n = 1: every step with own message advances via condition 1.
        let _ = p.step(vec![msg(0, 0)]);
        assert_eq!(p.session(), 1);
        // count was reset; condition 2 can't fire for a while.
        for _ in 0..3 {
            let _ = p.step(vec![]);
        }
        assert_eq!(p.session(), 1);
    }
}
