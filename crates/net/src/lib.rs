//! Message-passing transports for replicated-data protocols.
//!
//! This crate stands in for the paper's physical network (Gifford's testbed
//! spanned machines on one local network plus servers across an
//! internetwork). It provides:
//!
//! * [`SiteId`] and [`NetConfig`] — sites, per-link latency models, drop
//!   probabilities, and [`Partition`]s.
//! * [`Fault`] — the one vocabulary of network and liveness faults: a
//!   site's crash or recovery, a partition or its heal, and the loss,
//!   delay and duplication dials.
//! * [`Node`] / [`NodeCtx`] — the event-driven protocol-node abstraction:
//!   a node reacts to messages and timers and emits sends, new timers and
//!   cancels of timers it no longer needs.
//!   Protocol code written against this trait runs unchanged on both
//!   transports.
//! * [`sim_net`] — the deterministic transport: nodes live in a
//!   [`sim_net::Cluster`] driven by a `wv_sim::Sim`, with virtual-time
//!   latencies, and every [`Fault`] applied at an instant by
//!   [`sim_net::Cluster::apply_at`]. Every experiment table is
//!   regenerated on this transport.
//! * [`thread_net`] — the wall-clock transport: one OS thread per node,
//!   each waiting on its own inbox, a heap of messages ordered by the
//!   instant their (scaled-down) link latency lets them arrive. `wv_core`'s
//!   harness builder runs a cluster on it to show the protocols are not
//!   simulator artifacts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod node;
pub mod runner;
pub mod sim_net;
pub mod site;
pub mod thread_net;
mod timers;

pub use config::{Fault, NetConfig, Partition};
pub use node::{Node, NodeCtx};
pub use runner::NodeRunner;
pub use site::{Envelope, SiteId};
