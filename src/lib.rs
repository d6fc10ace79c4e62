//! Weighted voting for replicated data — a full reproduction of Gifford's
//! SOSP 1979 system in Rust.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] (`wv-core`) — file suites, vote assignments, quorums,
//!   version numbers, weak representatives, online reconfiguration, and
//!   the [`core::harness::Harness`] that runs it all on a deterministic
//!   simulated cluster.
//! * [`sim`] (`wv-sim`) — the discrete-event kernel.
//! * [`net`] (`wv-net`) — simulated and thread transports.
//! * [`storage`] (`wv-storage`) — write-ahead-logged containers.
//! * [`txn`] (`wv-txn`) — the commit-lock table and the two-phase commit
//!   vote.
//! * [`analysis`] (`wv-analysis`) — closed-form latency and availability
//!   models, and the optimal-vote-assignment search.
//! * [`chaos`] (`wv-chaos`) — the chaos campaign engine: seeded fault
//!   schedules, the history oracle, parallel seed campaigns, and the
//!   delta-debugging failure shrinker.
//!
//! # Examples
//!
//! ```
//! use weighted_voting::prelude::*;
//!
//! let mut cluster = HarnessBuilder::new()
//!     .seed(1)
//!     .site(SiteSpec::server(1))
//!     .site(SiteSpec::server(1))
//!     .site(SiteSpec::server(1))
//!     .client()
//!     .quorum(QuorumSpec::majority(3))
//!     .build()
//!     .expect("legal configuration");
//! let suite = cluster.suite_id();
//! cluster.write(suite, b"hello".to_vec()).expect("write");
//! let read = cluster.read(suite).expect("read");
//! assert_eq!(&read.value[..], b"hello");
//! ```
//!
//! The runnable binaries in `examples/` walk through the paper's
//! scenarios; `wv-exp` (in `crates/chaos`) regenerates every table and
//! figure (see `DESIGN.md` and `EXPERIMENTS.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use wv_analysis as analysis;
pub use wv_chaos as chaos;
pub use wv_core as core;
pub use wv_net as net;
pub use wv_sim as sim;
pub use wv_storage as storage;
pub use wv_txn as txn;

/// The names most programs need.
pub mod prelude {
    pub use wv_core::client::{ClientOptions, QuorumPolicy};
    pub use wv_core::harness::{Done, Harness, HarnessBuilder, Op, SiteSpec};
    pub use wv_core::quorum::QuorumSpec;
    pub use wv_core::votes::VoteAssignment;
    pub use wv_core::{OpError, OpKind};
    pub use wv_net::{Fault, NetConfig, Partition, SiteId};
    pub use wv_sim::{DetRng, LatencyModel, SimDuration, SimTime};
    pub use wv_storage::{ObjectId, Version};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_round_trip() {
        let mut h = HarnessBuilder::new()
            .seed(9)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::majority(3))
            .build()
            .expect("legal");
        let suite = h.suite_id();
        let w = h.write(suite, b"facade".to_vec()).expect("write");
        assert_eq!(w.version, Version(1));
        assert_eq!(&h.read(suite).expect("read").value[..], b"facade");
    }
}
