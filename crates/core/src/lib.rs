//! Weighted voting for replicated data — Gifford, SOSP 1979.
//!
//! A *file suite* is a logical object realised as a set of
//! *representatives* (copies), each assigned a number of **votes**. The
//! suite carries a read quorum `r` and a write quorum `w` with
//! `r + w > N` (N = total votes), so every read quorum intersects every
//! write quorum. Every representative stores a **version number**; the
//! current contents are those with the highest version number in any read
//! quorum. Zero-vote *weak representatives* serve as caches: they never
//! count toward quorums but can satisfy reads at local latency once
//! validated.
//!
//! Crate layout:
//!
//! * [`votes`] — vote assignments over sites.
//! * [`quorum`] — quorum specifications, legality, and quorum-set math.
//! * [`suite`] — the replicated suite configuration (the paper's "prefix").
//! * [`msg`] — the wire protocol between clients and suite servers.
//! * [`server`] — the representative server: container + locks + voting.
//!   Two private modules hold its extensions' rules: `repair`, the
//!   anti-entropy daemon and the quarantine it heals, and `sync`, the
//!   responses waiting for the durable sync of their records.
//! * [`client`] — the client-side protocol: one state machine for reads,
//!   writes, transactions and reconfigurations. Which sites an operation
//!   uses it asks of `planner`, a private module holding what is known
//!   about sites (costs, health, silence, load, the plan cache, the policy),
//!   and of `local`, a private module holding what it knows about the
//!   copies on its own site (the attached cache tier, the own-site hint).
//!   Three more private modules hold what is each one rule's own: `commit`,
//!   the decision log and the commit rounds behind a decided write,
//!   `reconfig`, the plan of a reconfiguration's prepare, and `window`, the
//!   pipeline window's slots and the submissions waiting for one.
//! * [`node`] — the combined node type hosting servers and clients.
//! * [`harness`] — a synchronous facade over a simulated cluster; the API
//!   the examples and experiments drive. Its builder is the one way to
//!   build a cluster: [`HarnessBuilder::build`] puts it on the simulator,
//!   and [`HarnessBuilder::build_on_threads`] on real threads, a
//!   [`thread_harness::ThreadHarness`].
//! * [`error`] — operation outcomes.
//!
//! A private module, `stats`, adds the nodes' counters up: the client's
//! and the server's stats structs are `AddAssign` and `Sum`. Another,
//! `site_map`, holds what a coordinator heard from each participant of
//! an attempt, in a vec kept in site order.
//!
//! # Examples
//!
//! ```
//! use wv_core::harness::{HarnessBuilder, SiteSpec};
//! use wv_core::quorum::QuorumSpec;
//!
//! // Three representatives with one vote each, r = 2, w = 2.
//! let mut h = HarnessBuilder::new()
//!     .seed(7)
//!     .site(SiteSpec::server(1))
//!     .site(SiteSpec::server(1))
//!     .site(SiteSpec::server(1))
//!     .client()
//!     .quorum(QuorumSpec::new(2, 2))
//!     .build()
//!     .expect("valid configuration");
//!
//! let suite = h.suite_id();
//! h.write(suite, b"hello".to_vec()).expect("write succeeds");
//! let read = h.read(suite).expect("read succeeds");
//! assert_eq!(&read.value[..], b"hello");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod commit;
pub mod error;
pub mod harness;
mod local;
pub mod msg;
pub mod node;
mod planner;
pub mod quorum;
mod reconfig;
mod repair;
pub mod server;
mod site_map;
mod stats;
pub mod suite;
mod sync;
pub mod thread_harness;
pub mod votes;
mod window;

pub use error::{OpError, OpKind};
pub use harness::{Fault, Harness, HarnessBuilder, SiteSpec};
pub use quorum::QuorumSpec;
pub use suite::SuiteConfig;
pub use thread_harness::ThreadHarness;
pub use votes::VoteAssignment;
pub use wv_storage::{ObjectId, Version};
