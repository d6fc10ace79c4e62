//! Chaos campaign engine for the weighted-voting stack.
//!
//! Five pieces, layered:
//!
//! * [`schedule`] — a fault-schedule DSL: seeded, sorted timelines of
//!   operations, reconfigurations and the harness's own
//!   [`wv_core::Fault`]s, serialisable to a replay artifact.
//! * [`exec`] — replays a schedule against a simulated cluster and
//!   collects the evidence (operation log, final reads, replica states,
//!   and a tally of the nodes' own counters).
//! * [`oracle`] — the history oracle: the consistency invariants
//!   weighted voting promises, checked over that evidence and returned
//!   as structured [`oracle::Violation`]s.
//! * [`campaign`] + [`mod@shrink`] — fan thousands of seeds over the
//!   deterministic parallel trial runner, then delta-debug any failure
//!   down to a minimal reproducer.
//! * [`experiments`] — the registry of every report under `results/`
//!   (this crate's E9 and E14 and `wv-bench`'s twelve) behind the one
//!   `wv-exp` regenerator.
//!
//! Everything is deterministic: a campaign report is bit-identical at
//! any worker count, and a shrunk artifact replays its violation
//! forever.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod e14;
pub mod exec;
pub mod experiments;
pub mod oracle;
pub mod report;
pub mod schedule;
pub mod shrink;

// The artifact JSON implementation moved into `wv_sim` so the analysis
// and bench layers can parse replay artifacts without depending on the
// chaos engine; re-export it so `wv_chaos::json` paths keep working.
pub use wv_sim::json;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, Coverage};
pub use exec::{run_schedule, run_schedule_instrumented, TrialRun};
pub use oracle::{check_convergence, check_log, check_trial, Violation};
pub use schedule::{generate, ClusterSpec, EventKind, FaultEvent, Schedule};
pub use shrink::{shrink, ShrinkResult};
