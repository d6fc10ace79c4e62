//! Optimal vote-assignment search — the paper's thesis made executable.
//!
//! Gifford's central claim is that one algorithm, parameterised by votes
//! and quorums, spans the whole spectrum from read-one/write-all to
//! primary-site. This module makes the claim quantitative: given per-site
//! costs, availabilities, and a workload read fraction, enumerate every
//! vote assignment (up to a vote cap) and every minimal-intersection
//! quorum pair, and return the configuration with the lowest expected
//! operation latency subject to an availability floor.

use wv_core::quorum::QuorumSpec;
use wv_core::votes::VoteAssignment;
use wv_net::SiteId;

use crate::latency::{read_latency_optimistic, read_latency_verified, write_latency};
use crate::model::SystemModel;

/// Which read-latency figure the search optimises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReadMetric {
    /// The verified read: content fetch overlapped with (and bounded
    /// below by) the version-number quorum. The safe default.
    #[default]
    Verified,
    /// The cache-valid read: the fetch alone, as the paper's table
    /// reports for read-mostly suites. Valuing this lets the search
    /// discover weak-representative (zero-vote cache) placements.
    CacheValid,
}

/// Workload description for the search.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Fraction of operations that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Reject configurations whose read or write availability falls below
    /// this floor (set 0.0 to disable).
    pub min_availability: f64,
    /// Which read-latency figure to optimise.
    pub read_metric: ReadMetric,
}

impl Workload {
    /// A workload with the default (verified) read metric and no floor.
    pub fn reads(read_fraction: f64) -> Self {
        Workload {
            read_fraction,
            min_availability: 0.0,
            read_metric: ReadMetric::Verified,
        }
    }
}

/// The search result.
#[derive(Clone, Debug)]
pub struct OptimalChoice {
    /// Winning vote assignment.
    pub assignment: VoteAssignment,
    /// Winning quorum sizes.
    pub quorum: QuorumSpec,
    /// Expected per-operation latency (ms) under the workload.
    pub expected_latency: f64,
    /// Read availability of the winner.
    pub read_availability: f64,
    /// Write availability of the winner.
    pub write_availability: f64,
}

/// Expected per-operation latency of a model under a workload.
pub fn expected_latency(model: &SystemModel, workload: &Workload) -> f64 {
    let f = workload.read_fraction.clamp(0.0, 1.0);
    let read = match workload.read_metric {
        ReadMetric::Verified => read_latency_verified(model),
        ReadMetric::CacheValid => read_latency_optimistic(model),
    };
    f * read + (1.0 - f) * write_latency(model)
}

/// Enumerates vote vectors with entries in `0..=max_votes` over `sites`
/// sites, skipping the all-zero vector.
fn vote_vectors(sites: usize, max_votes: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let base = max_votes as u64 + 1;
    let combos = base.pow(sites as u32);
    for code in 0..combos {
        let mut c = code;
        let mut v = Vec::with_capacity(sites);
        for _ in 0..sites {
            v.push((c % base) as u32);
            c /= base;
        }
        if v.iter().sum::<u32>() > 0 {
            out.push(v);
        }
    }
    out
}

/// Exhaustive search over assignments and minimal-intersection quorums.
///
/// Only quorum pairs with `r + w = N + 1` are considered: for any fixed
/// assignment, increasing `r + w` beyond the minimum can never reduce
/// either quorum's cost and can never raise availability, so the optimum
/// always lies on the minimal-intersection line.
///
/// # Panics
///
/// Panics if `costs` and `up` don't cover `sites`, or the search space is
/// unreasonably large (`sites * max_votes` capped to keep enumeration
/// tractable).
pub fn search_optimal(
    sites: usize,
    max_votes: u32,
    costs: &[f64],
    up: &[f64],
    workload: &Workload,
) -> Option<OptimalChoice> {
    assert!(costs.len() >= sites && up.len() >= sites, "per-site inputs");
    assert!(
        (max_votes as usize + 1).pow(sites as u32) <= 1_000_000,
        "search space too large"
    );
    let mut best: Option<OptimalChoice> = None;
    for votes in vote_vectors(sites, max_votes) {
        let assignment =
            VoteAssignment::new(votes.iter().enumerate().map(|(i, v)| (SiteId::from(i), *v)));
        let total = assignment.total();
        for r in 1..=total {
            let w = total + 1 - r;
            let quorum = QuorumSpec::new(r, w);
            if quorum.validate(&assignment).is_err() {
                continue;
            }
            let model = SystemModel::new(assignment.clone(), quorum, costs.to_vec(), up.to_vec());
            let read_availability = model.read_availability();
            let write_availability = model.write_availability();
            if read_availability < workload.min_availability
                || write_availability < workload.min_availability
            {
                continue;
            }
            let latency = expected_latency(&model, workload);
            let better = match &best {
                None => true,
                Some(b) => latency < b.expected_latency - 1e-12,
            };
            if better {
                best = Some(OptimalChoice {
                    assignment: assignment.clone(),
                    quorum,
                    expected_latency: latency,
                    read_availability,
                    write_availability,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_workload(f: f64) -> Workload {
        Workload::reads(f)
    }

    #[test]
    fn read_only_workload_prefers_read_one() {
        // Three equal sites, all cheap; a pure-read workload should pick
        // r = 1 (any assignment achieving it works).
        let best = search_optimal(
            3,
            1,
            &[100.0, 100.0, 100.0],
            &[0.99; 3],
            &uniform_workload(1.0),
        )
        .expect("found");
        assert_eq!(best.quorum.read, 1);
        assert!((best.expected_latency - 100.0).abs() < 1e-9);
    }

    #[test]
    fn write_only_workload_prefers_write_one() {
        let best = search_optimal(
            3,
            1,
            &[100.0, 100.0, 100.0],
            &[0.99; 3],
            &uniform_workload(0.0),
        )
        .expect("found");
        assert_eq!(best.quorum.write, 1);
    }

    #[test]
    fn single_cheap_site_attracts_all_votes() {
        // Site 0 is far cheaper; the optimum concentrates decisions there
        // (a primary-site flavoured assignment: expected latency 10).
        let best = search_optimal(
            3,
            2,
            &[10.0, 500.0, 500.0],
            &[0.99; 3],
            &uniform_workload(0.5),
        )
        .expect("found");
        assert!((best.expected_latency - 10.0).abs() < 1e-9);
        // Both quorums must be satisfiable by site 0 alone.
        let v0 = best.assignment.votes_of(SiteId(0));
        assert!(v0 >= best.quorum.read && v0 >= best.quorum.write);
    }

    #[test]
    fn availability_floor_forces_replication() {
        // With a strict floor, the all-votes-on-one-site optimum is
        // rejected: one site at p = 0.9 cannot deliver 0.97, but a
        // majority of three (availability 0.972) can.
        let best = search_optimal(
            3,
            2,
            &[10.0, 500.0, 500.0],
            &[0.9; 3],
            &Workload {
                read_fraction: 0.5,
                min_availability: 0.97,
                read_metric: ReadMetric::Verified,
            },
        )
        .expect("found");
        assert!(best.read_availability >= 0.97);
        assert!(best.write_availability >= 0.97);
        // The winner must involve more than one voting site.
        assert!(best.assignment.strong_sites().len() > 1);
    }

    #[test]
    fn impossible_floor_returns_none() {
        let best = search_optimal(
            2,
            1,
            &[10.0, 10.0],
            &[0.5, 0.5],
            &Workload {
                read_fraction: 0.5,
                min_availability: 0.999,
                read_metric: ReadMetric::Verified,
            },
        );
        assert!(best.is_none());
    }

    #[test]
    fn expected_latency_blends_read_and_write() {
        let m = SystemModel::paper_example_2(0.99);
        let all_read = expected_latency(&m, &uniform_workload(1.0));
        let all_write = expected_latency(&m, &uniform_workload(0.0));
        let half = expected_latency(&m, &uniform_workload(0.5));
        assert!((all_read - 75.0).abs() < 1e-9);
        assert!((all_write - 100.0).abs() < 1e-9);
        assert!((half - 87.5).abs() < 1e-9);
    }

    #[test]
    fn vote_vector_enumeration_counts() {
        // 2 sites, votes 0..=2 -> 9 vectors minus the zero vector.
        assert_eq!(vote_vectors(2, 2).len(), 8);
        assert_eq!(vote_vectors(1, 3).len(), 3);
    }
}
