//! E5 — availability under site failures.
//!
//! Blocking probability as a function of per-site availability `p`, for
//! the paper's three example configurations plus five-site majority, by
//! two routes:
//!
//! 1. the closed form (`SystemModel::{read,write}_blocking`), and
//! 2. the protocol itself, run once on every crash set of the voting
//!    sites ([`protocol_blocking`]), each set's outcome weighted by the
//!    probability `p^up (1 − p)^down` that exactly its sites are down.
//!
//! Both are exact, so they agree to rounding; the report says whether
//! they do.

use wv_analysis::SystemModel;
use wv_core::harness::Harness;
use wv_core::quorum::{QuorumSpec, Subsets};
use wv_core::votes::VoteAssignment;
use wv_net::Fault;

use crate::table::{prob, Table};
use crate::topo;

const PS: [f64; 5] = [0.5, 0.7, 0.9, 0.95, 0.99];

/// How far a protocol cell may sit from the analytic one: rounding only.
const TOLERANCE: f64 = 1e-9;

/// The protocol's outcome on every crash set of a cluster's voting sites.
#[derive(Clone, Debug)]
pub struct CrashSets {
    subsets: Subsets,
    /// Whether the read and the write blocked, indexed by the mask of the
    /// sites left up.
    blocked: Vec<(bool, bool)>,
}

impl CrashSets {
    /// `(P(read blocked), P(write blocked))` when site `s` is up
    /// independently with probability `up[s]`.
    pub fn blocking(&self, up: &[f64]) -> (f64, f64) {
        let (mut read, mut write) = (0.0, 0.0);
        for (mask, &(read_blocked, write_blocked)) in self.blocked.iter().enumerate() {
            let p = self.subsets.probability(mask as u32, up);
            read += if read_blocked { p } else { 0.0 };
            write += if write_blocked { p } else { 0.0 };
        }
        (read, write)
    }
}

/// Runs the protocol once on every crash set of `assignment`'s voting
/// sites: a fresh cluster from `build`, primed with one committed write
/// while everything is up, has the set crashed and then tries one write
/// and one read. Retries against a crashed quorum are deterministically
/// futile, so the default retry budget does not change whether an
/// operation counts as blocked — it only stretches virtual time, which
/// is free. An outcome does not depend on any availability; weighting
/// comes after ([`CrashSets::blocking`]).
pub fn protocol_blocking(assignment: &VoteAssignment, build: impl Fn() -> Harness) -> CrashSets {
    let subsets = Subsets::of(assignment);
    let blocked = subsets
        .iter()
        .map(|(up, _)| {
            let mut h = build();
            let suite = h.suite_id();
            h.write(suite, b"primed".to_vec()).expect("prime write");
            for site in subsets.members(!up) {
                h.inject(Fault::Crash(site));
            }
            let write_blocked = h.write(suite, b"probe".to_vec()).is_err();
            (h.read(suite).is_err(), write_blocked)
        })
        .collect();
    CrashSets { subsets, blocked }
}

/// The protocol on every crash set of the paper's example `example`.
/// E1 weights the same outcomes at `p` = 0.99.
pub fn example_crash_sets(example: u32) -> CrashSets {
    let build = match example {
        1 => topo::example_1,
        2 => topo::example_2,
        3 => topo::example_3,
        _ => panic!("unknown example {example}"),
    };
    protocol_blocking(&model_for(example, 1.0).assignment, || {
        build(7).build().expect("the paper's examples are legal")
    })
}

fn model_for(example: u32, p: f64) -> SystemModel {
    match example {
        1 => SystemModel::paper_example_1(p),
        2 => SystemModel::paper_example_2(p),
        3 => SystemModel::paper_example_3(p),
        _ => panic!("unknown example {example}"),
    }
}

/// Builds the E5 report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("## E5 — Blocking probability vs per-site availability\n\n");
    out.push_str(
        "The protocol columns run the protocol once on every crash set of \
         the voting sites — prime a write, crash the set, try one write \
         and one read — and weight each set's outcome by the probability \
         `p^up (1 − p)^down` that exactly its sites are down.\n\n",
    );
    let mut cells = 0;
    let mut agree = true;
    for example in 1..=3u32 {
        let sets = example_crash_sets(example);
        let mut t = Table::new(
            format!("Example {example}"),
            &[
                "p(site up)",
                "analytic P(read blk)",
                "protocol P(read blk)",
                "analytic P(write blk)",
                "protocol P(write blk)",
            ],
        );
        for p in PS {
            let m = model_for(example, p);
            let (pr, pw) = sets.blocking(&m.up);
            let (ar, aw) = (m.read_blocking(), m.write_blocking());
            cells += 2;
            agree &= (pr - ar).abs() <= TOLERANCE && (pw - aw).abs() <= TOLERANCE;
            t.row(&[format!("{p:.2}"), prob(ar), prob(pr), prob(aw), prob(pw)]);
        }
        out.push_str(&t.to_markdown());
    }
    out.push_str(&format!(
        "Protocol and analytic columns agree to within {TOLERANCE:.0e} in \
         all {cells} cells: **{}**\n\n",
        if agree { "yes" } else { "NO" }
    ));
    // Majority over five sites, analytic only (a reference curve).
    let mut t = Table::new(
        "Majority over five equal votes (reference)",
        &["p(site up)", "P(op blocked)"],
    );
    for p in PS {
        let m = SystemModel::with_uniform_up(
            VoteAssignment::equal(5),
            QuorumSpec::majority(5),
            vec![100.0; 5],
            p,
        );
        t.row(&[format!("{p:.2}"), prob(m.read_blocking())]);
    }
    out.push_str(&t.to_markdown());
    out.push_str(
        "Shape check: Example 3's read availability dominates everything \
         (any single surviving site serves reads) while its write \
         availability is the worst (write-all); Example 1 ties reads and \
         writes to one site; majority sits between.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2;

    /// Every blocking cell of E1, E2 and E5, the protocol over every
    /// crash set, is the analytic value. E1 weights E5's example outcomes
    /// at p = 0.99, one of E5's columns.
    #[test]
    fn every_blocking_cell_of_e1_e2_and_e5_is_the_model_exactly() {
        let check = |what: String, sets: &CrashSets, m: &SystemModel| {
            let (pr, pw) = sets.blocking(&m.up);
            assert!(
                (pr - m.read_blocking()).abs() <= TOLERANCE,
                "{what}: protocol read {pr} vs analytic {}",
                m.read_blocking()
            );
            assert!(
                (pw - m.write_blocking()).abs() <= TOLERANCE,
                "{what}: protocol write {pw} vs analytic {}",
                m.write_blocking()
            );
        };
        for example in 1..=3 {
            let sets = example_crash_sets(example);
            for p in PS {
                check(
                    format!("example {example}, p {p}"),
                    &sets,
                    &model_for(example, p),
                );
            }
        }
        for r in 1..=5 {
            check(format!("E2, r = {r}"), &e2::crash_sets(r), &e2::model(r));
        }
    }

    #[test]
    fn example_3_reads_beat_example_1_reads_at_every_p() {
        for p in [0.5, 0.7, 0.9, 0.99] {
            let e1 = model_for(1, p);
            let e3 = model_for(3, p);
            assert!(e3.read_blocking() < e1.read_blocking());
            // And the reverse for writes.
            assert!(e3.write_blocking() > e1.write_blocking());
        }
    }

    #[test]
    fn report_covers_every_p() {
        let report = run();
        assert!(report.contains("in all 30 cells: **yes**"));
        for p in ["0.50", "0.70", "0.90", "0.95", "0.99"] {
            assert!(report.contains(p), "missing p = {p}");
        }
    }
}
