//! An empty crate, kept only so the benchmark's lock file stays as it is.
//!
//! This crate once held a second protocol stack — read-one/write-all,
//! primary copy and Thomas' majority consensus, each with its own client,
//! server and messages — for experiment E6 to compare against. E6 now runs
//! every one of those schemes as a vote assignment on `wv-core`, so the
//! stack is gone. `wv-bench` still names this crate as a dependency,
//! because dropping that edge rewrites `benchmark/Cargo.lock`; ROADMAP
//! item 4 (the next change to the benchmark) deletes the crate and the
//! edge together.

#![forbid(unsafe_code)]
