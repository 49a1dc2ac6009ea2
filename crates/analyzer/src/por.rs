//! Partial-order reduction: a static independence relation over the step
//! alphabet driving an ample-set selector for the explorer.
//!
//! # The independence relation
//!
//! Two events co-enabled at the same instant are *independent* when firing
//! them in either order reaches the same joint (machine × session-counter)
//! state and neither order can fire a step-level lint the other cannot.
//! Because every machine fires events in global time order, only
//! same-instant events are ever co-enabled — timing-boundary steps never
//! commute across a round edge, and the selector never has to reason
//! about them. Concretely:
//!
//! * **Shared memory**: steps of distinct processes commute unless they
//!   touch the same b-bounded variable (the variable's value, its
//!   accessor set and the `SA002` trigger are all per-variable; `due`
//!   updates are per-process).
//! * **Message passing**: a delivery to `q` commutes with every event
//!   except `q`'s own step (inboxes are consumed as commutative joins, so
//!   deliveries to the same process commute with each other); steps of
//!   distinct processes commute unless a zero-delay broadcast of one can
//!   enqueue a same-instant delivery to the other.
//! * **Session counter**: non-port events are invisible to the counter.
//!   Port steps commute *as counter updates* whenever no session can
//!   close at the current instant — coverage inserts are then pure set
//!   unions. When a close is possible, the order of a closing step and a
//!   redundant re-cover changes which session window the re-cover lands
//!   in, so port steps are treated as dependent and the state is fully
//!   expanded.
//!
//! # The ample set
//!
//! [`select_ample`] returns the flat-choice range of a single event all of
//! whose co-enabled peers are independent of it (a *persistent* singleton
//! — one event together with every gap/delay parameterization of it).
//! Machines that maintain a session *claim* (`A(sp)`) never get a step
//! singleton: the `SA003` trigger compares the claim against the counter
//! at every edge, and postponing foreign port steps across a claiming
//! step could move the comparison past the violating window.
//!
//! The explorer adds the cycle proviso: if an ample successor closes a
//! cycle on the DFS stack, the remaining choices are expanded after all —
//! otherwise the pruned events could be postponed around that loop
//! forever. Together (C0/C1 via the singleton's independence, C3 via the
//! proviso) every maximal run of the full graph is Mazurkiewicz-equivalent
//! to an explored one, which is why the differential harness sees
//! identical verdicts with the reduction on and off.

use std::ops::Range;

use crate::explore::{AnyMachine, SessionCounter};
use crate::machine::{EligibleKind, Menu, MpMachine, SmMachine};

/// Picks an ample singleton for the state, as a contiguous range of the
/// flat choice menu (one event with all its gap/delay sub-choices), or
/// `None` when the state must be fully expanded. `menu` is the state's own
/// menu ([`AnyMachine::build_menu`]).
pub(crate) fn select_ample(
    machine: &AnyMachine,
    menu: &Menu,
    counter: &SessionCounter,
) -> Option<Range<usize>> {
    match machine {
        AnyMachine::Sm(m) => select_sm(m, menu, counter),
        AnyMachine::Mp(m) => select_mp(m, menu, counter),
    }
}

/// Whether firing the current instant's visible port steps could close a
/// session: the covered set plus every eligible still-covering port can
/// reach `n`. Conservative in the safe direction (over-approximates).
fn close_possible(counter: &SessionCounter, visible_ports: impl Iterator<Item = usize>) -> bool {
    let fresh = visible_ports
        .filter(|&port| !counter.covers(port))
        .collect::<std::collections::BTreeSet<usize>>();
    fresh.len() >= counter.ports_missing()
}

/// The stepping process of a menu event (every shared-memory event is a
/// step).
fn stepper(kind: EligibleKind) -> Option<usize> {
    match kind {
        EligibleKind::Step { process, .. } => Some(process),
        EligibleKind::Deliver { .. } => None,
    }
}

fn select_sm(m: &SmMachine, menu: &Menu, counter: &SessionCounter) -> Option<Range<usize>> {
    let events = menu.events();
    if events.len() <= 1 {
        return None;
    }
    let eligible: Vec<usize> = events.iter().filter_map(|e| stepper(e.kind)).collect();
    debug_assert_eq!(eligible.len(), events.len());
    let targets: Vec<usize> = eligible.iter().map(|&p| m.current_target(p)).collect();
    let n_ports = m.n_ports();
    // Port tag exactly as `apply` computes it; visible to the counter only
    // while the counter has not marked the process idle.
    let is_visible_port = |pos: usize| {
        let p = eligible[pos];
        let var = targets[pos];
        var < n_ports && p == var && !counter.is_idle(p)
    };
    let closing = close_possible(
        counter,
        (0..eligible.len())
            .filter(|&pos| is_visible_port(pos))
            .map(|pos| targets[pos]),
    );
    for pos in 0..eligible.len() {
        let var = targets[pos];
        // Machine independence: no co-enabled step touches the same
        // variable.
        if targets
            .iter()
            .enumerate()
            .any(|(other, &v)| other != pos && v == var)
        {
            continue;
        }
        // Counter independence: a visible port step is only ample while no
        // session can close at this instant.
        if is_visible_port(pos) && closing {
            continue;
        }
        return Some(menu.range(pos));
    }
    None
}

fn select_mp(m: &MpMachine, menu: &Menu, counter: &SessionCounter) -> Option<Range<usize>> {
    let events = menu.events();
    if events.len() <= 1 {
        return None;
    }
    // A delivery is independent of everything except the recipient's own
    // step (and deliveries change neither claims nor the counter).
    for (i, event) in events.iter().enumerate() {
        let EligibleKind::Deliver { to } = event.kind else {
            continue;
        };
        let recipient_steps = events.iter().any(|e| stepper(e.kind) == Some(to));
        if !recipient_steps {
            return Some(menu.range(i));
        }
    }
    // Step singletons are off the table for claim-tracking machines: the
    // SA003 edge check is order-sensitive in exactly the way the counter
    // commutation argument does not cover.
    if m.claimed_sessions_max().is_some() {
        return None;
    }
    let zero_delay = m.has_zero_delay();
    let closing = close_possible(
        counter,
        events
            .iter()
            .filter_map(|e| stepper(e.kind))
            .filter(|&process| !counter.is_idle(process)),
    );
    for (i, event) in events.iter().enumerate() {
        let Some(process) = stepper(event.kind) else {
            continue;
        };
        // An eligible delivery to this process is dependent on its step.
        if events
            .iter()
            .any(|e| matches!(e.kind, EligibleKind::Deliver { to } if to == process))
        {
            continue;
        }
        // With a zero delay in the menu, a co-enabled broadcasting step
        // could enqueue a same-instant delivery to this process —
        // conservatively require exclusivity.
        if zero_delay
            && events.iter().enumerate().any(|(other, e)| {
                other != i
                    && matches!(
                        e.kind,
                        EligibleKind::Step {
                            broadcasts: true,
                            ..
                        }
                    )
            })
        {
            continue;
        }
        // Every MP step is a port step (port p ↔ process p); visible port
        // steps are only ample while no session can close right now.
        if !counter.is_idle(process) && closing {
            continue;
        }
        return Some(menu.range(i));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{sm_system_algos, GapMode, MpAlgo, SmAlgo};
    use session_core::algorithms::{SyncMpPort, SyncSmPort};
    use session_types::{Dur, Time, VarId};

    fn sync_sm(n: usize, s: u64) -> SmMachine {
        let ports: Vec<SmAlgo> = (0..n)
            .map(|i| SmAlgo::Sync(SyncSmPort::new(VarId::new(i), s)))
            .collect();
        let (algos, num_vars) = sm_system_algos(ports, n, 2);
        let k = algos.len();
        let gap = Dur::from_int(1);
        SmMachine::new(
            algos,
            num_vars,
            2,
            n,
            GapMode::PerStep(vec![gap]),
            vec![Time::ZERO + gap; k],
        )
    }

    fn sync_mp(n: usize, s: u64) -> MpMachine {
        let algos: Vec<MpAlgo> = (0..n).map(|_| MpAlgo::Sync(SyncMpPort::new(s))).collect();
        MpMachine::new(
            algos,
            GapMode::PerStep(vec![Dur::from_int(1)]),
            vec![Dur::from_int(1)],
            vec![Time::ZERO + Dur::from_int(1); n],
        )
    }

    #[test]
    fn sm_lockstep_ports_are_not_reduced_when_a_close_is_possible() {
        // All n ports plus relays due together, fresh counter: firing all
        // port steps closes a session, and every port variable is also a
        // relay's read target or distinct — the selector must at least
        // refuse port singletons. (A relay whose target collides with
        // nothing may still be ample.)
        let machine = sync_sm(2, 2);
        let counter = SessionCounter::new(2, 2);
        let mut menu = Menu::default();
        machine.build_menu(&mut menu);
        if let Some(range) = select_sm(&machine, &menu, &counter) {
            let pos = (0..menu.events().len())
                .position(|i| menu.range(i) == range)
                .expect("the ample range is one event's block");
            let p = stepper(menu.events()[pos].kind).expect("shared memory only steps");
            assert!(p >= 2, "only a relay may be ample here, got process {p}");
        }
    }

    #[test]
    fn mp_lockstep_steps_are_dependent_through_the_counter() {
        // n silent processes all due at once, 0 of n ports covered: any
        // step order can close a session, so no singleton is ample.
        let machine = sync_mp(3, 2);
        let counter = SessionCounter::new(3, 2);
        let mut menu = Menu::default();
        machine.build_menu(&mut menu);
        assert_eq!(select_mp(&machine, &menu, &counter), None);
    }

    #[test]
    fn mp_single_eligible_event_needs_no_reduction() {
        let machine = sync_mp(1, 2);
        let counter = SessionCounter::new(1, 2);
        let mut menu = Menu::default();
        machine.build_menu(&mut menu);
        assert_eq!(select_mp(&machine, &menu, &counter), None);
    }
}
