//! Quorum specifications and quorum-set mathematics.
//!
//! Legality is the paper's rule: `r + w > N` (every read quorum intersects
//! every write quorum in at least one strong representative) and
//! `1 <= r, w <= N`. Write–write serialisation comes from the transaction
//! system — a writer reads the current version number under lock inside
//! the same transaction that installs the new version, and `r + w > N`
//! puts that read in conflict with every concurrent writer's install set.

use wv_net::SiteId;

use crate::votes::VoteAssignment;

/// Read and write quorum sizes, in votes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QuorumSpec {
    /// Votes required to read.
    pub read: u32,
    /// Votes required to write.
    pub write: u32,
}

/// Why a quorum specification is illegal for an assignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuorumError {
    /// `r + w <= N`: a read quorum and a write quorum could miss each
    /// other, letting a stale copy pose as current.
    NoIntersection {
        /// Total votes.
        total: u32,
    },
    /// A quorum of zero votes, or larger than the total, can never be
    /// meaningful.
    OutOfRange {
        /// Total votes.
        total: u32,
    },
}

impl std::fmt::Display for QuorumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumError::NoIntersection { total } => {
                write!(f, "r + w must exceed total votes N = {total}")
            }
            QuorumError::OutOfRange { total } => {
                write!(f, "quorums must lie in 1..={total}")
            }
        }
    }
}

impl std::error::Error for QuorumError {}

impl QuorumSpec {
    /// Builds a spec; legality is checked against an assignment with
    /// [`QuorumSpec::validate`].
    pub const fn new(read: u32, write: u32) -> Self {
        QuorumSpec { read, write }
    }

    /// Majority quorums for `total` votes: `r = w = floor(N/2) + 1`.
    pub const fn majority(total: u32) -> Self {
        let m = total / 2 + 1;
        QuorumSpec { read: m, write: m }
    }

    /// Checks legality against `assignment`.
    pub fn validate(&self, assignment: &VoteAssignment) -> Result<(), QuorumError> {
        let total = assignment.total();
        if self.read == 0 || self.write == 0 || self.read > total || self.write > total {
            return Err(QuorumError::OutOfRange { total });
        }
        if self.read + self.write <= total {
            return Err(QuorumError::NoIntersection { total });
        }
        Ok(())
    }

    /// Whether every two write quorums share a vote under `assignment`:
    /// `2w > N`. Where they do, a writer need not ask a read quorum for
    /// the current version; the write quorum it installs at knows it.
    pub fn writes_intersect(&self, assignment: &VoteAssignment) -> bool {
        2 * self.write > assignment.total()
    }
}

/// Every subset of an assignment's strong sites, with the votes it holds.
///
/// Bit `i` of a mask names the `i`-th site of
/// [`VoteAssignment::strong_sites`]. Read as the sites that are up, the
/// `2^n` masks are every crash set an availability question can meet
/// (weak representatives never matter). Exponential in `n`, so meant for
/// the small configurations of the experiments (the paper's examples have
/// 1–5 voting sites); visiting a subset allocates nothing.
#[derive(Clone, Debug)]
pub struct Subsets {
    sites: Vec<SiteId>,
    votes: Vec<u32>,
}

impl Subsets {
    /// The strong sites of `assignment`, ready to walk.
    pub fn of(assignment: &VoteAssignment) -> Self {
        let sites = assignment.strong_sites();
        let n = sites.len();
        assert!(
            n <= 20,
            "the subset walk is exponential; {n} sites is too many"
        );
        let votes = sites.iter().map(|s| assignment.votes_of(*s)).collect();
        Subsets { sites, votes }
    }

    /// Every mask, in increasing order from the empty set, with the votes
    /// its sites hold.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..1u32 << self.sites.len())
            .map(|mask| (mask, self.bits(mask).map(|i| self.votes[i]).sum()))
    }

    /// The sites of `mask`, in site order; bits past the last site are
    /// ignored, so `!up` names the sites down.
    pub fn members(&self, mask: u32) -> impl Iterator<Item = SiteId> + '_ {
        self.bits(mask).map(|i| self.sites[i])
    }

    /// The probability that the sites up are exactly those of `mask`,
    /// site `s` being up independently with probability `up[s]`:
    /// `p^up (1 − p)^down` when every site's `p` is the same.
    pub fn probability(&self, mask: u32, up: &[f64]) -> f64 {
        let mut p = 1.0;
        for (i, site) in self.sites.iter().enumerate() {
            let pu = up[site.index()];
            p *= if mask & 1 << i != 0 { pu } else { 1.0 - pu };
        }
        p
    }

    fn bits(&self, mask: u32) -> impl Iterator<Item = usize> {
        (0..self.sites.len()).filter(move |i| mask & 1 << i != 0)
    }
}

/// Enumerates the *minimal* site sets whose votes reach `needed`: the
/// [`Subsets`] every one of whose members is load-bearing, removing it
/// dropping the set below the threshold.
pub fn minimal_quorums(assignment: &VoteAssignment, needed: u32) -> Vec<Vec<SiteId>> {
    let subsets = Subsets::of(assignment);
    let mut result: Vec<Vec<SiteId>> = subsets
        .iter()
        .filter(|&(mask, votes)| {
            votes >= needed
                && subsets
                    .bits(mask)
                    .all(|i| votes - subsets.votes[i] < needed)
        })
        .map(|(mask, _)| subsets.members(mask).collect())
        .collect();
    result.sort();
    result
}

/// The cheapest site set reaching `needed` votes, where each site's cost is
/// given by `cost`; ties break toward fewer sites, then lexicographic.
///
/// "Cheapest" means minimal *maximum* cost over the set: quorum operations
/// proceed in parallel, so the set's latency is its slowest member. Returns
/// `None` if all strong sites together fall short (e.g. too many crashed
/// sites excluded by the caller).
pub fn cheapest_quorum(
    assignment: &VoteAssignment,
    needed: u32,
    candidates: &[SiteId],
    cost: impl Fn(SiteId) -> f64,
) -> Option<Vec<SiteId>> {
    // Sort candidate strong sites by cost; greedily take prefixes. Because
    // the metric is max-cost, the optimal set is always a prefix of the
    // cost order restricted to sites that contribute votes: adding a
    // cheaper site never raises the max.
    let mut strong: Vec<SiteId> = candidates
        .iter()
        .copied()
        .filter(|s| assignment.votes_of(*s) > 0)
        .collect();
    strong.sort_by(|a, b| {
        cost(*a)
            .partial_cmp(&cost(*b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    cheapest_quorum_presorted(assignment, needed, &strong)
}

/// [`cheapest_quorum`] for candidates already in cost order.
///
/// Callers that memoize the cost-sorted site order (the client's quorum-plan
/// cache) filter it down to the live candidates — an order-preserving filter
/// of a sorted list is still sorted — and skip the per-decision sort here.
/// Given candidates in the same `(cost, site id)` order `cheapest_quorum`
/// would produce, the result is identical.
pub fn cheapest_quorum_presorted(
    assignment: &VoteAssignment,
    needed: u32,
    sorted_candidates: &[SiteId],
) -> Option<Vec<SiteId>> {
    Some(quorum_of_prefix(assignment, needed, sorted_candidates)?.collect())
}

/// [`cheapest_quorum_presorted`]'s members, in candidate order, without a
/// list to hold them: the shortest prefix of the candidates that reaches
/// `needed`, less its redundant members.
pub(crate) fn quorum_of_prefix<'a>(
    assignment: &'a VoteAssignment,
    needed: u32,
    sorted_candidates: &'a [SiteId],
) -> Option<impl Iterator<Item = SiteId> + 'a> {
    let mut votes = 0;
    let end = sorted_candidates.iter().position(|s| {
        votes += assignment.votes_of(*s);
        votes >= needed
    })?;
    let prefix = sorted_candidates[..=end].iter().copied();
    Some(without_redundant(assignment, needed, votes, prefix))
}

/// `members`, holding `votes` between them, less each member whose
/// removal keeps the rest at or above `needed` — zero-vote sites, and with
/// prefix-greedy sites made redundant by later cheaper picks (possible
/// with unequal votes). One forward pass with a running total.
fn without_redundant<'a>(
    assignment: &'a VoteAssignment,
    needed: u32,
    mut votes: u32,
    members: impl Iterator<Item = SiteId> + 'a,
) -> impl Iterator<Item = SiteId> + 'a {
    members.filter(move |s| {
        let held = assignment.votes_of(*s);
        let redundant = votes - held >= needed;
        votes -= if redundant { held } else { 0 };
        !redundant
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u16) -> SiteId {
        SiteId(n)
    }

    #[test]
    fn validation_accepts_paper_examples() {
        // Example 1: <1,0,0>, r=1, w=1.
        let e1 = VoteAssignment::new([(s(0), 1), (s(1), 0), (s(2), 0)]);
        QuorumSpec::new(1, 1).validate(&e1).expect("example 1");
        // Example 2: <2,1,1>, r=2, w=3.
        let e2 = VoteAssignment::new([(s(0), 2), (s(1), 1), (s(2), 1)]);
        QuorumSpec::new(2, 3).validate(&e2).expect("example 2");
        // Example 3: <1,1,1>, r=1, w=3.
        let e3 = VoteAssignment::equal(3);
        QuorumSpec::new(1, 3).validate(&e3).expect("example 3");
    }

    #[test]
    fn validation_rejects_non_intersecting() {
        let a = VoteAssignment::equal(4);
        assert_eq!(
            QuorumSpec::new(2, 2).validate(&a),
            Err(QuorumError::NoIntersection { total: 4 })
        );
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let a = VoteAssignment::equal(3);
        assert!(matches!(
            QuorumSpec::new(0, 3).validate(&a),
            Err(QuorumError::OutOfRange { .. })
        ));
        assert!(matches!(
            QuorumSpec::new(4, 1).validate(&a),
            Err(QuorumError::OutOfRange { .. })
        ));
        assert!(matches!(
            QuorumSpec::new(1, 0).validate(&a),
            Err(QuorumError::OutOfRange { .. })
        ));
    }

    #[test]
    fn canned_specs() {
        assert_eq!(QuorumSpec::majority(5), QuorumSpec::new(3, 3));
        assert_eq!(QuorumSpec::majority(4), QuorumSpec::new(3, 3));
        let a = VoteAssignment::equal(7);
        QuorumSpec::majority(7)
            .validate(&a)
            .expect("majority legal");
    }

    #[test]
    fn minimal_quorum_enumeration() {
        let a = VoteAssignment::new([(s(0), 2), (s(1), 1), (s(2), 1)]);
        // Read quorum 2: {0} alone, or {1,2}.
        assert_eq!(minimal_quorums(&a, 2), vec![vec![s(0)], vec![s(1), s(2)]]);
        // Write quorum 3: {0,1}, {0,2}.
        assert_eq!(
            minimal_quorums(&a, 3),
            vec![vec![s(0), s(1)], vec![s(0), s(2)]]
        );
    }

    #[test]
    fn minimal_quorums_ignore_weak_sites() {
        let a = VoteAssignment::new([(s(0), 1), (s(1), 0), (s(2), 0)]);
        assert_eq!(minimal_quorums(&a, 1), vec![vec![s(0)]]);
    }

    #[test]
    fn the_walk_visits_every_subset_of_the_strong_sites_once() {
        // <2,0,1,1>: the weak site 1 is in no mask; bit 1 is site 2.
        let a = VoteAssignment::new([(s(0), 2), (s(1), 0), (s(2), 1), (s(3), 1)]);
        let walk = Subsets::of(&a);
        let votes: Vec<(u32, u32)> = walk.iter().collect();
        let expect = [0, 2, 1, 3, 1, 3, 2, 4];
        assert_eq!(
            votes,
            expect
                .iter()
                .enumerate()
                .map(|(m, v)| (m as u32, *v))
                .collect::<Vec<_>>()
        );
        assert_eq!(walk.members(0b110).collect::<Vec<_>>(), vec![s(2), s(3)]);
        // The up-set probabilities cover the whole space exactly once.
        let up = [0.9, 0.0, 0.7, 0.4];
        let total: f64 = walk.iter().map(|(m, _)| walk.probability(m, &up)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((walk.probability(0b011, &up) - 0.9 * 0.7 * 0.6).abs() < 1e-12);
    }

    #[test]
    fn cheapest_quorum_minimises_max_cost() {
        let a = VoteAssignment::equal(3);
        let cost = |site: SiteId| [75.0, 100.0, 750.0][site.index()];
        let q = cheapest_quorum(&a, 2, &a.strong_sites(), cost).expect("exists");
        assert_eq!(q, vec![s(0), s(1)]);
        let q = cheapest_quorum(&a, 3, &a.strong_sites(), cost).expect("exists");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn cheapest_quorum_prunes_redundant_members() {
        // Costs make the 1-vote sites cheaper than the 2-vote site; after
        // greedily adding s0, the cheap singletons are redundant.
        let a = VoteAssignment::new([(s(0), 2), (s(1), 1), (s(2), 1)]);
        let cost = |site: SiteId| [50.0, 10.0, 20.0][site.index()];
        let q = cheapest_quorum(&a, 2, &a.strong_sites(), cost).expect("exists");
        // s1 + s2 reach 2 votes at max cost 20 < 50.
        assert_eq!(q, vec![s(1), s(2)]);
    }

    #[test]
    fn cheapest_quorum_respects_candidate_filter() {
        let a = VoteAssignment::equal(3);
        let cost = |_: SiteId| 1.0;
        // Only sites 1 and 2 are reachable; a 3-vote quorum is impossible.
        assert!(cheapest_quorum(&a, 3, &[s(1), s(2)], cost).is_none());
        let q = cheapest_quorum(&a, 2, &[s(1), s(2)], cost).expect("exists");
        assert_eq!(q, vec![s(1), s(2)]);
    }

    mod props {
        //! Randomized invariant checks over seeded cases (offline stand-in
        //! for the old proptest strategies; every seed reproduces exactly).

        use super::*;
        use wv_sim::DetRng;

        /// A random assignment of 1..7 sites with 0..4 votes each, at least
        /// one vote total.
        fn random_assignment(rng: &mut DetRng) -> VoteAssignment {
            loop {
                let n = 1 + rng.below(6) as usize;
                let votes: Vec<u32> = (0..n).map(|_| rng.below(4) as u32).collect();
                if votes.iter().sum::<u32>() > 0 {
                    return VoteAssignment::new(
                        votes
                            .into_iter()
                            .enumerate()
                            .map(|(i, v)| (SiteId::from(i), v)),
                    );
                }
            }
        }

        /// The paper's core safety argument: for any legal (r, w), any
        /// read quorum and any write quorum share a strong site.
        #[test]
        fn read_and_write_quorums_always_intersect() {
            for seed in 0..128u64 {
                let mut rng = DetRng::new(0x1a7e ^ seed);
                let a = random_assignment(&mut rng);
                let r_off = rng.below(3) as u32;
                let w_off = rng.below(3) as u32;
                let total = a.total();
                // Build a legal spec: r + w = N + 1 + slack, clamped.
                let r = (1 + r_off).min(total);
                let w = (total + 1 - r + w_off).min(total);
                let spec = QuorumSpec::new(r, w);
                if spec.validate(&a).is_err() {
                    continue;
                }
                let reads = minimal_quorums(&a, spec.read);
                let writes = minimal_quorums(&a, spec.write);
                for rq in &reads {
                    for wq in &writes {
                        let intersect = rq.iter().any(|s| wq.contains(s));
                        assert!(
                            intersect,
                            "read quorum {rq:?} misses write quorum {wq:?} \
                             under {spec:?} with assignment {a:?}"
                        );
                    }
                }
            }
        }

        /// An illegal spec (r + w <= N) really does admit disjoint
        /// quorums whenever both sides can be formed from disjoint
        /// vote pools — the converse of the safety property.
        #[test]
        fn non_intersecting_specs_are_rejected() {
            for seed in 0..256u64 {
                let mut rng = DetRng::new(0x2e1ec7 ^ seed);
                let a = random_assignment(&mut rng);
                let r = 1 + rng.below(5) as u32;
                let w = 1 + rng.below(5) as u32;
                let spec = QuorumSpec::new(r, w);
                let total = a.total();
                match spec.validate(&a) {
                    Ok(()) => {
                        assert!(r + w > total && r <= total && w <= total, "seed {seed}")
                    }
                    Err(QuorumError::NoIntersection { .. }) => {
                        assert!(r + w <= total, "seed {seed}")
                    }
                    Err(QuorumError::OutOfRange { .. }) => {
                        assert!(r == 0 || w == 0 || r > total || w > total, "seed {seed}")
                    }
                }
            }
        }

        /// Cheapest quorum always returns a genuine quorum, and never
        /// one that a strictly cheaper prefix could replace.
        #[test]
        fn cheapest_quorum_is_a_quorum() {
            for seed in 0..256u64 {
                let mut rng = DetRng::new(0xc057 ^ seed);
                let a = random_assignment(&mut rng);
                let costs: Vec<f64> = (0..7).map(|_| 1.0 + 99.0 * rng.f64()).collect();
                let total = a.total();
                let needed = 1 + total / 2;
                let cost = |s: SiteId| costs[s.index() % costs.len()];
                if let Some(q) = cheapest_quorum(&a, needed, &a.strong_sites(), cost) {
                    assert!(a.votes_in(&q) >= needed, "seed {seed}");
                    // Minimality: no member is redundant.
                    for drop in &q {
                        let rest: Vec<SiteId> = q.iter().copied().filter(|s| s != drop).collect();
                        assert!(a.votes_in(&rest) < needed, "seed {seed}");
                    }
                }
            }
        }

        /// The pruning rule stated directly: a member goes when the
        /// rest of the set, re-summed from scratch, still reaches the
        /// threshold. `without_redundant` must agree while only keeping a
        /// running total.
        fn prune_by_resumming(a: &VoteAssignment, needed: u32, set: &mut Vec<SiteId>) {
            let mut i = 0;
            while i < set.len() {
                let mut without = set.clone();
                without.remove(i);
                if a.votes_in(&without) >= needed {
                    set.remove(i);
                } else {
                    i += 1;
                }
            }
        }

        #[test]
        fn pruning_by_running_total_matches_resumming() {
            for seed in 0..512u64 {
                let mut rng = DetRng::new(0x9a11e ^ seed);
                // Unequal votes, zero-vote sites included.
                let a = random_assignment(&mut rng);
                // A random subset of the hosting sites in a random order,
                // below, at and above every threshold.
                let mut set: Vec<SiteId> = a
                    .all_sites()
                    .into_iter()
                    .filter(|_| rng.chance(0.7))
                    .collect();
                for i in (1..set.len()).rev() {
                    set.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for needed in 1..=a.total() {
                    let mut expect = set.clone();
                    prune_by_resumming(&a, needed, &mut expect);
                    let kept = without_redundant(&a, needed, a.votes_in(&set), set.iter().copied());
                    let got: Vec<SiteId> = kept.collect();
                    assert_eq!(got, expect, "seed {seed}, needed {needed}, set {set:?}");
                }
            }
        }

        #[test]
        fn presorted_matches_cheapest_quorum() {
            // The plan-cache fast path must agree with the sorting path on
            // every candidate subset, for every threshold.
            for seed in 0..256u64 {
                let mut rng = DetRng::new(0x9e50 ^ seed);
                let a = random_assignment(&mut rng);
                let costs: Vec<f64> = (0..7).map(|_| 1.0 + 99.0 * rng.f64()).collect();
                let cost = |s: SiteId| costs[s.index() % costs.len()];
                // A random candidate subset, then its cost-sorted order.
                let candidates: Vec<SiteId> = a
                    .all_sites()
                    .into_iter()
                    .filter(|_| rng.chance(0.8))
                    .collect();
                let mut sorted = candidates.clone();
                sorted.sort_by(|a, b| {
                    cost(*a)
                        .partial_cmp(&cost(*b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(b))
                });
                for needed in 1..=a.total() {
                    assert_eq!(
                        cheapest_quorum(&a, needed, &candidates, cost),
                        cheapest_quorum_presorted(&a, needed, &sorted),
                        "seed {seed}, needed {needed}"
                    );
                }
            }
        }
    }
}
