//! Transaction substrate: the commit-lock table and the commit vote.
//!
//! Gifford's weighted voting runs *inside* transactions supplied by the
//! underlying file system (Violet). What a representative needs of them
//! is small, and this crate is all of it:
//!
//! * [`lock`] — the commit-lock table every suite server runs: one
//!   exclusive lock per object, held to the decision, with an age-ordered
//!   line of waiters behind it. Readers take no lock.
//! * [`twopc`] — the vote a two-phase commit participant answers a
//!   prepare with; the client in `wv-core` is the coordinator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lock;
pub mod twopc;

pub use lock::{DeadlockPolicy, LockMode, LockReply, LockTable, TxToken};
pub use twopc::Vote;

/// [`LockTable`] under the name the frozen `benchmark/` imports. Locks are
/// per object, so there was never anything to shard.
pub type ShardedLockManager = LockTable;
