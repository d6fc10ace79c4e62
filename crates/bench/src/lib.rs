//! Experiment regenerators for the paper's evaluation.
//!
//! One module per experiment (see `DESIGN.md` §4 for the index); each
//! exposes `run` producing the markdown report committed under
//! `results/`. Reports put the paper's number, the closed-form
//! prediction, and the simulated measurement side by side. The registry
//! of experiments, and the `wv-exp` binary that regenerates them, live
//! in `wv_chaos::experiments` (E9 and E14 are built on the chaos engine,
//! which depends on this crate).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e13;
pub mod e15;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod inspect;
pub mod mc;
pub mod runner;
pub mod table;
pub mod topo;
pub mod tracefmt;
