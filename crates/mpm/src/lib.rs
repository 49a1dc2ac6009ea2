//! Message-passing substrate for the reproduction of *"The Impact of Time on
//! the Session Problem"* (Rhee & Welch, PODC 1992).
//!
//! This crate implements the paper's message-passing model (§2.1.2):
//!
//! * the process set is `P = R ∪ {N}`: regular processes plus the network;
//! * a step of a regular process `p` receives the entire contents of its
//!   delivery buffer `buf_p` and, based solely on those messages and its
//!   state, updates its state and (optionally) **broadcasts** a message to
//!   all regular processes — the formal model broadcasts at every step; a
//!   `None` return here is the practical equivalent of broadcasting a
//!   message nobody inspects;
//! * a step of the network `N` delivers one `(m, q)` pair from `net` into
//!   `buf_q`; the engine realizes each such step as a delivery event whose
//!   time is chosen by a [`session_sim::DelayPolicy`] — an equivalent
//!   formulation of the paper's explicit network process;
//! * a message's *delay* is the time from the sending step to the delivery
//!   step, excluding the time it then waits in the buffer (§2.1.2); the
//!   [`session_sim::Trace`] records both timestamps so admissibility
//!   checkers can verify `[d1, d2]` exactly.
//!
//! In this model every step of a port process involves its buffer, so every
//! step of a port process is a **port step** (§2.3).
//!
//! # Examples
//!
//! ```
//! use session_mpm::{Envelope, MpEngine, MpProcess};
//! use session_sim::{ConstantDelay, FixedPeriods, RunLimits};
//! use session_types::{Dur, PortId, ProcessId};
//!
//! /// Broadcasts once, then idles after hearing from everyone.
//! #[derive(Debug, Hash)]
//! struct HelloAll {
//!     heard: usize,
//!     n: usize,
//!     sent: bool,
//! }
//!
//! impl MpProcess<&'static str> for HelloAll {
//!     fn step(&mut self, inbox: Vec<Envelope<&'static str>>) -> Option<&'static str> {
//!         self.heard += inbox.len();
//!         if !self.sent {
//!             self.sent = true;
//!             Some("hello")
//!         } else {
//!             None
//!         }
//!     }
//!     fn is_idle(&self) -> bool {
//!         self.heard >= self.n
//!     }
//!
//!     fn fingerprint(&self) -> u64 {
//!         session_types::fingerprint_of(self)
//!     }
//! }
//!
//! # fn main() -> Result<(), session_types::Error> {
//! let n = 3;
//! let procs: Vec<Box<dyn MpProcess<&'static str>>> = (0..n)
//!     .map(|_| Box::new(HelloAll { heard: 0, n, sent: false }) as Box<_>)
//!     .collect();
//! let ports = (0..n).map(|i| (ProcessId::new(i), PortId::new(i))).collect();
//! let mut engine = MpEngine::new(procs, ports)?;
//! let mut sched = FixedPeriods::uniform(n, Dur::from_int(1))?;
//! let mut delays = ConstantDelay::new(Dur::from_int(2))?;
//! let outcome = engine.run(&mut sched, &mut delays, RunLimits::default())?;
//! assert!(outcome.terminated);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod process;

pub use engine::MpEngine;
pub use process::{step_process, Envelope, MpProcess, StepResult};
