//! Baseline replica-control schemes the paper positions itself against.
//!
//! Three classical schemes, implemented as event-driven protocol nodes on
//! the same simulated network as weighted voting, so the comparison
//! experiments (E6) measure protocol differences rather than harness
//! differences:
//!
//! * **Read-one / write-all** (à la SDD-1): reads touch any single
//!   replica; writes must install at *every* replica. Maximum read
//!   availability and performance, but a single crashed site blocks all
//!   writes.
//! * **Primary copy** (à la distributed INGRES): one distinguished replica
//!   orders all writes and serves strong reads; backups receive
//!   asynchronous propagation and may serve stale local reads if allowed.
//!   Loss of the primary blocks everything until it returns.
//! * **Majority consensus** (Thomas 1979): timestamped values; reads and
//!   writes each gather a majority, with the highest timestamp winning.
//!   The special case of weighted voting with equal votes and
//!   `r = w = ⌈(N+1)/2⌉`.
//!
//! Weighted voting subsumes all three as vote/quorum corner cases; these
//! standalone implementations exist so the E6 experiment can compare
//! *native* protocol behaviour (e.g. ROWA's blind write-all without a
//! version inquiry) instead of emulating them through the suite machinery.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod harness;
pub mod msg;
pub mod server;

pub use client::{BaselineClient, BaselineOp, Scheme};
pub use harness::BaselineHarness;
pub use msg::BMsg;
pub use server::BaselineServer;
