//! Experiment regenerators for the paper's evaluation.
//!
//! One module per experiment (see `DESIGN.md` §4 for the index); each
//! exposes `run` producing the markdown report committed under
//! `results/`. Reports put the paper's number, the closed-form
//! prediction, and the simulated measurement side by side. The registry
//! of experiments, and the `wv-exp` binary that regenerates them, live
//! in `wv_chaos::experiments` (E9 and E14 are built on the chaos engine,
//! which depends on this crate).
//!
//! Every run plays a [`drive::Plan`] through [`drive`], the one driver
//! (the chaos executor's too), and [`oracle`] judges what it completed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drive;
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
pub mod oracle;
pub mod runner;
pub mod table;
pub mod topo;
pub mod tracefmt;

use wv_sim::DetRng;

/// Draws a zipfian suite index in `0..n`: popularity ∝ 1/(rank + 1), so
/// rank 0 is the hot suite. E13 and E15 draw their skewed workloads here.
pub fn zipf_suite(rng: &mut DetRng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut x = rng.f64() * total;
    for k in 0..n {
        x -= 1.0 / (k + 1) as f64;
        if x <= 0.0 {
            return k;
        }
    }
    n - 1
}
