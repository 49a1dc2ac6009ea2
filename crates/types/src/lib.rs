//! Core vocabulary types for the reproduction of *"The Impact of Time on the
//! Session Problem"* (Rhee & Welch, PODC 1992).
//!
//! This crate defines the shared building blocks used by every other crate in
//! the workspace:
//!
//! * [`Ratio`] — exact `i128` rational arithmetic, so that simulated real time
//!   is never subject to floating-point error. The lower-bound adversaries in
//!   the paper retime steps by factors such as `2c1/K` and `u/4`; with exact
//!   rationals the reconstructed computations can be admissibility-checked
//!   with equality, not tolerance.
//! * [`Time`] and [`Dur`] — newtypes over [`Ratio`] for instants and
//!   durations of simulated real time.
//! * Identifier newtypes: [`ProcessId`], [`VarId`], [`PortId`], [`MsgId`].
//! * [`TimingModel`], [`CommModel`], [`KnownBounds`], [`SessionSpec`] — the
//!   paper's model taxonomy (§2.2) and problem statement (§2.3).
//! * [`Error`] — the workspace error type.
//! * [`fingerprint_of`] — the structural state fingerprint every process
//!   type states its `fingerprint` with.
//!
//! # Examples
//!
//! ```
//! use session_types::{Dur, KnownBounds, SessionSpec, Time, TimingModel};
//!
//! # fn main() -> Result<(), session_types::Error> {
//! // A semi-synchronous model with step time in c1..c2 = 1..6, delay <= 20.
//! let bounds = KnownBounds::semi_synchronous(Dur::from_int(1), Dur::from_int(6),
//!                                            Dur::from_int(20))?;
//! assert_eq!(bounds.model(), TimingModel::SemiSynchronous);
//!
//! // The (s, n)-session problem with s = 4 sessions over n = 8 ports,
//! // b = 3 processes allowed per shared variable.
//! let spec = SessionSpec::new(4, 8, 3)?;
//! assert_eq!(spec.s(), 4);
//!
//! let t = Time::ZERO + Dur::from_int(5);
//! assert_eq!(t, Time::from_int(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fingerprint;
mod ids;
mod params;
mod ratio;
mod time;

pub use error::{Error, Result};
pub use fingerprint::fingerprint_of;
pub use ids::{MsgId, PortId, ProcessId, VarId};
pub use params::{CommModel, KnownBounds, SessionSpec, TimingModel};
pub use ratio::Ratio;
pub use time::{Dur, Time};
