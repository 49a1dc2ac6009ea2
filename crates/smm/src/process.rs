//! The shared-memory process abstraction.

use std::fmt;

use session_types::VarId;

/// A process of the shared-memory model (§2.1.1).
///
/// Each step atomically reads and writes exactly one shared variable. The
/// engine drives the protocol as: ask [`target`](SmProcess::target) which
/// variable the next step accesses, then call [`step`](SmProcess::step) with
/// the variable's current value and store the returned value back.
///
/// Processes have **no clock**: the trait deliberately does not expose the
/// current time. Everything an algorithm may use is its own state, the value
/// it reads, and the model constants it was constructed with — exactly the
/// information the paper grants (§2.2).
///
/// Once [`is_idle`](SmProcess::is_idle) returns `true` it must remain `true`
/// forever (idle states are closed under steps, §2.3); the engine keeps
/// scheduling idle processes (every process takes infinitely many steps in
/// the formal model) until the run's termination condition is met, so an
/// idle process's `step` is typically the identity on the variable.
pub trait SmProcess<V>: fmt::Debug {
    /// The variable the next step will access.
    fn target(&self) -> VarId;

    /// Executes one atomic step: observes `value` (the target variable's
    /// current contents) and returns the value to write back.
    fn step(&mut self, value: &V) -> V;

    /// Returns `true` if the process is in an idle state.
    fn is_idle(&self) -> bool;

    /// A hash of the process's internal state, used by the lower-bound
    /// machinery to check that reordered computations reach the same global
    /// state (Claim 5.2), and by the analyzer's state keys. Implementors
    /// hash their state structurally: `session_types::fingerprint_of(self)`
    /// over a `#[derive(Hash)]` state.
    fn fingerprint(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_types::fingerprint_of;

    #[derive(Debug, Hash)]
    struct Toggler {
        var: VarId,
        on: bool,
    }

    impl SmProcess<bool> for Toggler {
        fn target(&self) -> VarId {
            self.var
        }

        fn step(&mut self, value: &bool) -> bool {
            self.on = !self.on;
            !*value
        }

        fn is_idle(&self) -> bool {
            false
        }

        fn fingerprint(&self) -> u64 {
            fingerprint_of(self)
        }
    }

    #[test]
    fn fingerprint_tracks_state_changes() {
        let mut t = Toggler {
            var: VarId::new(0),
            on: false,
        };
        let before = t.fingerprint();
        let _ = t.step(&false);
        let after = t.fingerprint();
        assert_ne!(before, after);
        // Equal states fingerprint equally, whatever path reached them.
        let fresh_on = Toggler {
            var: VarId::new(0),
            on: true,
        };
        assert_eq!(after, fresh_on.fingerprint());
        // The variable the process targets is state too.
        let elsewhere = Toggler {
            var: VarId::new(1),
            on: true,
        };
        assert_ne!(after, elsewhere.fingerprint());
        let _ = t.step(&true);
        assert_eq!(t.fingerprint(), before);
    }

    #[test]
    fn trait_objects_are_usable() {
        let mut boxed: Box<dyn SmProcess<bool>> = Box::new(Toggler {
            var: VarId::new(3),
            on: false,
        });
        assert_eq!(boxed.target(), VarId::new(3));
        assert!(!boxed.step(&true));
        assert!(!boxed.is_idle());
        // Debug supertrait works through the trait object.
        assert!(format!("{boxed:?}").contains("Toggler"));
    }
}
