//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate that stands in for the paper's physical
//! testbed (Gifford, *Weighted Voting for Replicated Data*, SOSP 1979).
//! Every experiment in the repository runs on virtual time: events are
//! executed in `(timestamp, sequence-number)` order, randomness comes from
//! explicitly seeded generators, and therefore every run is reproducible
//! bit-for-bit from its seed.
//!
//! The kernel is deliberately small and policy-free:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`Sim`] — the engine: a world value `W` plus a [`Scheduler`] of
//!   events to run against it at future instants. An event is a function
//!   and one word of argument; a closure scheduled instead waits in a
//!   [`Slab`] inside the scheduler.
//! * [`slab::Slab`] — values parked under small integer keys, so that an
//!   event's word can name one.
//! * [`rng::DetRng`] — seeded, forkable random streams.
//! * [`dist::LatencyModel`] — the delay distributions used to model links
//!   and storage devices.
//! * [`stats`] — exact sample sets for reporting.
//! * [`failure`] — crash/recovery schedules for availability experiments.
//! * [`trace`] — deterministic per-operation spans stamped from sim time,
//!   and the per-node [`Recorder`] that keeps them and the decisions.
//! * [`audit`] — quorum-decision audit records: why each plan was chosen.
//! * [`json`] — the minimal integer-only JSON used by every artifact.
//!
//! # Examples
//!
//! ```
//! use wv_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0u64);
//! sim.scheduler().after(SimDuration::from_millis(5), |world, sched| {
//!     *world += 1;
//!     sched.after(SimDuration::from_millis(10), |world, _| *world += 10);
//! });
//! sim.run();
//! assert_eq!(sim.world, 11);
//! assert_eq!(sim.now().as_millis(), 15);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod dist;
pub mod failure;
pub mod json;
pub mod rng;
pub mod sched;
pub mod slab;
pub mod stats;
pub mod time;
pub mod trace;

pub use audit::{AuditRecord, DecisionKind, SiteInput};
pub use dist::LatencyModel;
pub use failure::{FailureSchedule, OutageWindow};
pub use rng::{derive_seed, DetRng};
pub use sched::{Call, Scheduler, Sim, Ticket};
pub use slab::Slab;
pub use stats::SampleSet;
pub use time::{SimDuration, SimTime};
pub use trace::{Recorder, SpanId, SpanKind, SpanOutcome, SpanRecord};
