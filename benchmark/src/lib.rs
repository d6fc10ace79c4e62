//! `wvbench`: the weighted-voting repository's benchmark.
//!
//! Five workloads, each run untraced for the end-to-end metrics and
//! traced for the per-layer ledger; see `README.md` in this directory for
//! the metric glossary, the workloads and how they were calibrated.

pub mod check;
pub mod cluster;
pub mod compare;
pub mod drive;
pub mod gen;
pub mod json;
pub mod kernels;
pub mod phases;
pub mod reference;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod threads;
