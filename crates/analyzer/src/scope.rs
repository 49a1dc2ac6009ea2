//! Small-scope definitions: system size, timing menus and exploration
//! budgets.
//!
//! Small-scope model checking replaces the continuum of admissible timed
//! executions with a finite menu of step gaps and message delays, chosen so
//! that every menu element is admissible under the target's
//! [`KnownBounds`](session_types::KnownBounds) and the menus still contain the adversarial extremes the
//! lower-bound proofs use (slowest-allowed process, widest delay spread).
//! Exploring *all* interleavings over those menus is then exhaustive for
//! the chosen scope.

use session_types::{Dur, TimingModel};

/// One analysis scope: the system size and the finite timing menus.
#[derive(Clone, Debug)]
pub struct Scope {
    /// Number of ports (= number of port processes).
    pub n: usize,
    /// Required sessions.
    pub s: u64,
    /// Shared-variable fan-in bound (shared-memory targets only).
    pub b: usize,
    /// The timing model the menus were derived from.
    pub model: TimingModel,
    /// Admissible step gaps a process may choose at each step. For the
    /// periodic model these are the *candidate periods*: each process picks
    /// one per run and sticks to it.
    pub gaps: Vec<Dur>,
    /// Admissible per-recipient message delays (message-passing targets
    /// only; empty for shared memory).
    pub delays: Vec<Dur>,
    /// Exploration stops along any path after this many events; correct
    /// algorithms must quiesce strictly sooner on every path, so hitting
    /// the budget is reported as `SA005`.
    pub max_depth: usize,
}

impl Scope {
    /// Renders the scope as a single diagnostic line, so every finding is
    /// reproducible from its report alone.
    pub fn describe(&self) -> String {
        let gaps: Vec<String> = self.gaps.iter().map(|d| format!("{d}")).collect();
        let delays: Vec<String> = self.delays.iter().map(|d| format!("{d}")).collect();
        format!(
            "model={:?} n={} s={} b={} gaps=[{}] delays=[{}] max_depth={}",
            self.model,
            self.n,
            self.s,
            self.b,
            gaps.join(","),
            delays.join(","),
            self.max_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_is_deterministic_and_complete() {
        let scope = Scope {
            n: 2,
            s: 2,
            b: 2,
            model: TimingModel::Sporadic,
            gaps: vec![Dur::from_int(1), Dur::from_int(7)],
            delays: vec![Dur::ZERO, Dur::from_int(2)],
            max_depth: 40,
        };
        let line = scope.describe();
        assert!(line.contains("model=Sporadic"));
        assert!(line.contains("n=2 s=2 b=2"));
        assert!(line.contains("gaps=[1,7]"));
        assert!(line.contains("delays=[0,2]"));
        assert!(line.contains("max_depth=40"));
        assert_eq!(line, scope.describe());
    }
}
