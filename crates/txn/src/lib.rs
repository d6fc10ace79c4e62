//! Transaction substrate: locking and the two-phase commit vote.
//!
//! Gifford's weighted voting runs *inside* transactions supplied by the
//! underlying file system (Violet). This crate supplies that machinery:
//!
//! * [`lock`] — a strict two-phase lock manager with the three modes the
//!   paper's system used: `Shared` for readers, `IntendWrite` for writers
//!   during the transaction body (compatible with readers, conflicting
//!   with other writers), and `Exclusive` taken at commit point. Deadlocks
//!   are handled by wait-die (with a no-wait variant for the ablation
//!   bench).
//! * [`shard`] — a suite-sharded wrapper around the lock manager: one
//!   table per suite so disjoint suites never contend, with the flat
//!   table's grant order preserved exactly.
//! * [`twopc`] — the vote a two-phase commit participant answers a
//!   prepare with; the client in `wv-core` is the coordinator.

#![warn(missing_docs)]

pub mod lock;
pub mod shard;
pub mod twopc;

pub use lock::{DeadlockPolicy, LockManager, LockMode, LockReply, TxToken};
pub use shard::{shard_key, ShardedLockManager};
pub use twopc::Vote;
