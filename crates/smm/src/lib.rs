//! Shared-memory substrate for the reproduction of *"The Impact of Time on
//! the Session Problem"* (Rhee & Welch, PODC 1992).
//!
//! This crate implements the paper's shared-memory model (§2.1.1):
//!
//! * processes communicate **only** through shared variables;
//! * each step atomically reads and writes a *single* variable
//!   (read-modify-write, no bound on variable size);
//! * at most `b` distinct processes may ever access one variable — enforced
//!   dynamically by [`SharedMemory`], which reports a
//!   [`session_types::Error::BBoundViolation`] on the first offending access;
//! * broadcasting therefore requires relaying values through a **tree
//!   network** of processes and variables (§3), implemented by
//!   [`TreeSpec`]/[`RelayProcess`] over the [`Knowledge`] join-semilattice,
//!   with `O(log_b n)`-depth propagation.
//!
//! Algorithms implement [`SmProcess`]; the [`SmEngine`] executes them under a
//! [`session_sim::StepSchedule`], producing a [`session_sim::Trace`] that the
//! verifiers in `session-core` count sessions and check admissibility on.
//!
//! # Examples
//!
//! A two-process system sharing a counter variable:
//!
//! ```
//! use session_sim::{FixedPeriods, RunLimits};
//! use session_smm::{SmEngine, SmProcess};
//! use session_types::{Dur, ProcessId, VarId};
//!
//! #[derive(Debug, Hash)]
//! struct Incrementer {
//!     var: VarId,
//!     steps_left: u32,
//! }
//!
//! impl SmProcess<u64> for Incrementer {
//!     fn target(&self) -> VarId {
//!         self.var
//!     }
//!     fn step(&mut self, value: &u64) -> u64 {
//!         self.steps_left = self.steps_left.saturating_sub(1);
//!         value + 1
//!     }
//!     fn is_idle(&self) -> bool {
//!         self.steps_left == 0
//!     }
//!
//!     fn fingerprint(&self) -> u64 {
//!         session_types::fingerprint_of(self)
//!     }
//! }
//!
//! # fn main() -> Result<(), session_types::Error> {
//! let procs: Vec<Box<dyn SmProcess<u64>>> = vec![
//!     Box::new(Incrementer { var: VarId::new(0), steps_left: 3 }),
//!     Box::new(Incrementer { var: VarId::new(0), steps_left: 2 }),
//! ];
//! let mut engine = SmEngine::new(vec![0u64], procs, 2, Vec::new())?;
//! // Terminate when *all* processes are idle (no ports registered).
//! let mut sched = FixedPeriods::uniform(2, Dur::from_int(1))?;
//! let outcome = engine.run(&mut sched, session_sim::RunLimits::default())?;
//! assert!(outcome.terminated);
//! assert_eq!(engine.memory().value(VarId::new(0)), &5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod lattice;
mod memory;
mod process;
mod tree;

pub use engine::{GlobalState, PortBinding, SmEngine};
pub use lattice::{JoinSemiLattice, Knowledge};
pub use memory::SharedMemory;
pub use process::SmProcess;
pub use tree::{RelayProcess, TreeSpec};
