//! Stable storage substrate — the stand-in for Violet's stable file system.
//!
//! Gifford's weighted-voting algorithm assumes representatives live in
//! *containers* that provide atomic, durable updates of `(version number,
//! contents)` pairs, plus enough transaction support that a write can
//! install the new version at several containers atomically. This crate
//! provides exactly that contract:
//!
//! * [`ObjectId`] / [`Version`] / [`VersionedValue`] — the unit of storage:
//!   a value tagged with the paper's version number.
//! * [`Wal`] — a write-ahead log with an explicit durability horizon, so
//!   tests can crash a container at any record boundary and observe
//!   recovery.
//! * [`Container`] — a recoverable object store with local transactions
//!   (begin / stage / commit / abort) and participant-side two-phase commit
//!   (prepare / resolve), built by replaying the log.
//! * [`IdHashMap`] / [`IdHashSet`] — the hash map and set for keys the
//!   cluster generates itself (object ids and the request/transaction ids
//!   built above them).
//!
//! Everything is in-memory by design: the experiments need *crash
//! semantics*, not persistence across OS processes, and an in-memory log
//! makes failure injection exact and deterministic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod container;
pub mod error;
pub mod faults;
pub mod frame;
pub mod hash;
pub mod object;
pub mod wal;

pub use container::{Container, RecoveryOutcome, TxId, TxPhase};
pub use error::StorageError;
pub use faults::DiskFaults;
pub use hash::{IdHashMap, IdHashSet};
pub use object::{ObjectId, Version, VersionedValue};
pub use wal::{Record, ScanReport, Wal};
