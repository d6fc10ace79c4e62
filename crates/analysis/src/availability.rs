//! Blocking probability: can a quorum be assembled from the up sites?
//!
//! Exact: the probabilities of every up/down pattern of the strong sites
//! (weak representatives never matter) whose votes reach the threshold are
//! summed, walking [`Subsets`]. The experiments run the protocol itself on
//! the same walk and weight its outcomes the same way.

use wv_core::quorum::Subsets;
use wv_core::votes::VoteAssignment;

use crate::model::SystemModel;

/// Exact probability that the up sites carry at least `needed` votes,
/// with site `s` up independently with probability `up[s]`.
pub fn quorum_availability(assignment: &VoteAssignment, needed: u32, up: &[f64]) -> f64 {
    let subsets = Subsets::of(assignment);
    let mut total = 0.0;
    for (mask, votes) in subsets.iter() {
        if votes >= needed {
            total += subsets.probability(mask, up);
        }
    }
    total
}

impl SystemModel {
    /// Probability a read finds a read quorum among the up sites.
    pub fn read_availability(&self) -> f64 {
        quorum_availability(&self.assignment, self.quorum.read, &self.up)
    }

    /// Probability a write finds a write quorum among the up sites and,
    /// where write quorums need not intersect, a read quorum too: the
    /// writer must first learn the current version from one.
    pub fn write_availability(&self) -> f64 {
        let q = self.quorum;
        let needed = if q.writes_intersect(&self.assignment) {
            q.write
        } else {
            q.read.max(q.write)
        };
        quorum_availability(&self.assignment, needed, &self.up)
    }

    /// Probability a read blocks.
    pub fn read_blocking(&self) -> f64 {
        1.0 - self.read_availability()
    }

    /// Probability a write blocks.
    pub fn write_blocking(&self) -> f64 {
        1.0 - self.write_availability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_core::quorum::QuorumSpec;
    use wv_net::SiteId;
    use wv_sim::DetRng;

    const EPS: f64 = 1e-12;

    #[test]
    fn paper_example_1_blocking() {
        let m = SystemModel::paper_example_1(0.99);
        // Single voting site: both read and write block iff it is down.
        assert!((m.read_blocking() - 0.01).abs() < EPS);
        assert!((m.write_blocking() - 0.01).abs() < EPS);
    }

    #[test]
    fn paper_example_2_blocking() {
        let m = SystemModel::paper_example_2(0.99);
        // Read (2 votes): site 0 alone, or sites 1 and 2 together.
        // Blocked: s0 down AND (s1 down OR s2 down):
        //   0.01 * (1 - 0.99^2) = 0.000199.
        assert!((m.read_blocking() - 0.000199).abs() < EPS);
        // Write (3 votes): s0 and at least one of s1, s2.
        // Blocked: s0 down OR (s1 and s2 down):
        //   0.01 + 0.99 * 0.0001 = 0.010099.
        assert!((m.write_blocking() - 0.010099).abs() < EPS);
    }

    #[test]
    fn paper_example_3_blocking() {
        let m = SystemModel::paper_example_3(0.99);
        // Read (1 vote): blocked only if all three are down.
        assert!((m.read_blocking() - 1e-6).abs() < EPS);
        // Write (3 votes): blocked unless all three are up.
        assert!((m.write_blocking() - (1.0 - 0.99f64.powi(3))).abs() < EPS);
    }

    #[test]
    fn weak_representatives_do_not_affect_availability() {
        let with_weak = VoteAssignment::new([
            (SiteId(0), 1),
            (SiteId(1), 1),
            (SiteId(2), 0),
            (SiteId(3), 0),
        ]);
        let without = VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1)]);
        let up = vec![0.9, 0.8, 0.0, 0.0];
        assert!(
            (quorum_availability(&with_weak, 2, &up) - quorum_availability(&without, 2, &up)).abs()
                < EPS
        );
    }

    #[test]
    fn certain_sites_give_certain_quorums() {
        let a = VoteAssignment::equal(3);
        assert!((quorum_availability(&a, 2, &[1.0; 3]) - 1.0).abs() < EPS);
        assert!(quorum_availability(&a, 1, &[0.0; 3]).abs() < EPS);
    }

    #[test]
    fn heterogeneous_availability() {
        // Two sites: votes 1 each, quorum 1. Available unless both down.
        let a = VoteAssignment::equal(2);
        let up = [0.9, 0.5];
        let expect = 1.0 - 0.1 * 0.5;
        assert!((quorum_availability(&a, 1, &up) - expect).abs() < EPS);
    }

    #[test]
    fn where_write_quorums_need_not_intersect_a_write_is_as_fragile_as_a_read() {
        // <1,1,1,1,1> with r = 4, w = 2: the writer must first find a
        // read quorum, so two live sites are not enough to write.
        let m = SystemModel::with_uniform_up(
            VoteAssignment::equal(5),
            QuorumSpec::new(4, 2),
            vec![100.0; 5],
            0.9,
        );
        assert!(!m.quorum.writes_intersect(&m.assignment));
        assert_eq!(m.write_blocking().to_bits(), m.read_blocking().to_bits());
        assert!((m.write_blocking() - 0.08146).abs() < 1e-9);
    }

    #[test]
    fn majority_five_sites_known_value() {
        // 5 equal votes, majority 3, p = 0.9 each:
        // availability = sum_{k>=3} C(5,k) 0.9^k 0.1^(5-k) = 0.99144.
        let a = VoteAssignment::equal(5);
        let q = QuorumSpec::majority(5);
        let avail = quorum_availability(&a, q.read, &[0.9; 5]);
        assert!((avail - 0.99144).abs() < 1e-9);
    }

    mod props {
        //! Randomized invariant checks over seeded cases (offline stand-in
        //! for the old proptest strategies; every seed reproduces exactly).

        use super::*;

        /// Availability is monotone: lowering the threshold can only
        /// help, and raising per-site availability can only help.
        #[test]
        fn monotonicity() {
            for seed in 0..256u64 {
                let mut rng = DetRng::new(0xa5a1 ^ seed);
                let n = 1 + rng.below(5) as usize;
                let votes: Vec<u32> = (0..n).map(|_| rng.below(4) as u32).collect();
                if votes.iter().sum::<u32>() == 0 {
                    continue;
                }
                let p = rng.f64();
                let needed = 1 + rng.below(5) as u32;
                let a = VoteAssignment::new(
                    votes.iter().enumerate().map(|(i, v)| (SiteId::from(i), *v)),
                );
                let lo = quorum_availability(&a, needed + 1, &vec![p; n]);
                let hi = quorum_availability(&a, needed, &vec![p; n]);
                assert!(lo <= hi + 1e-12, "seed {seed}");
                let better = quorum_availability(&a, needed, &vec![(p + 1.0) / 2.0; n]);
                assert!(hi <= better + 1e-12, "seed {seed}");
            }
        }
    }
}
