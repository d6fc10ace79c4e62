//! Closed-form models for weighted voting.
//!
//! Every number in the paper's example table is computable without running
//! the simulator: operation latencies from the per-representative access
//! costs and the quorum structure, blocking probabilities from
//! per-representative availability, exactly, over every up/down pattern.
//! This crate provides those models plus an optimal-vote-assignment
//! search. The experiment binaries print analytic and simulated columns
//! side by side; agreement between two independent routes to the same
//! number is the repository's substitute for the authors' testbed
//! measurements.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod availability;
pub mod cost;
pub mod critpath;
pub mod latency;
pub mod model;
pub mod optimal;

pub use availability::quorum_availability;
pub use cost::{
    inquiry_messages, read_messages_bounds, read_messages_sequential, train_messages_per_write,
    write_messages,
};
pub use critpath::{extract, OpPath, PathSegment, Profile};
pub use latency::{read_latency_optimistic, read_latency_verified, write_latency};
pub use model::SystemModel;
pub use optimal::{search_optimal, OptimalChoice, ReadMetric, Workload};
