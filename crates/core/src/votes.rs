//! Vote assignments: how many votes each representative holds.
//!
//! The vote assignment is the paper's central tuning knob. Placing all
//! votes on one site gives a primary-site scheme; equal votes with
//! `r = 1, w = N` is read-one/write-all; equal votes with majority quorums
//! is majority voting; zero-vote entries are weak representatives (caches).

use wv_net::SiteId;

/// Votes per representative, indexed by hosting site.
///
/// A site appears at most once. Sites with zero votes are *weak
/// representatives*: they hold data and answer reads but never count
/// toward any quorum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteAssignment {
    entries: Vec<(SiteId, u32)>,
}

impl VoteAssignment {
    /// Builds an assignment from `(site, votes)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a site repeats or the total number of votes is zero —
    /// both are configuration bugs, not runtime conditions.
    pub fn new(entries: impl IntoIterator<Item = (SiteId, u32)>) -> Self {
        let entries: Vec<(SiteId, u32)> = entries.into_iter().collect();
        for (i, (site, _)) in entries.iter().enumerate() {
            assert!(
                entries[..i].iter().all(|(earlier, _)| earlier != site),
                "site {site} listed twice"
            );
        }
        let total: u32 = entries.iter().map(|(_, v)| *v).sum();
        assert!(total > 0, "a suite needs at least one vote");
        VoteAssignment { entries }
    }

    /// Equal single votes on sites `0..n` — the classic symmetric setup.
    pub fn equal(n: usize) -> Self {
        VoteAssignment::new(SiteId::all(n).map(|s| (s, 1)))
    }

    /// Total votes `N`.
    pub fn total(&self) -> u32 {
        self.entries.iter().map(|(_, v)| *v).sum()
    }

    /// Votes held by `site` (0 if the site hosts nothing or a weak
    /// representative).
    pub fn votes_of(&self, site: SiteId) -> u32 {
        self.entries
            .iter()
            .find(|(s, _)| *s == site)
            .map_or(0, |(_, v)| *v)
    }

    /// True if `site` hosts a representative (strong or weak).
    pub fn hosts(&self, site: SiteId) -> bool {
        self.entries.iter().any(|(s, _)| *s == site)
    }

    /// True if `site` hosts a weak (zero-vote) representative.
    pub fn is_weak(&self, site: SiteId) -> bool {
        self.entries.iter().any(|(s, v)| *s == site && *v == 0)
    }

    /// All `(site, votes)` entries, in declaration order.
    pub fn entries(&self) -> &[(SiteId, u32)] {
        &self.entries
    }

    /// Sites holding at least one vote.
    pub fn strong_sites(&self) -> Vec<SiteId> {
        self.entries
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Sites hosting weak representatives.
    pub fn weak_sites(&self) -> Vec<SiteId> {
        self.entries
            .iter()
            .filter(|(_, v)| *v == 0)
            .map(|(s, _)| *s)
            .collect()
    }

    /// All hosting sites (strong and weak).
    pub fn all_sites(&self) -> Vec<SiteId> {
        self.entries.iter().map(|(s, _)| *s).collect()
    }

    /// Sum of votes over `sites` (each site counted once even if repeated;
    /// sites hosting nothing count zero).
    ///
    /// Walks the assignment, not `sites`, so repeats need no set to filter
    /// them: an entry's votes are added once if its site occurs at all.
    pub fn votes_in<'a, I>(&self, sites: I) -> u32
    where
        I: IntoIterator<Item = &'a SiteId>,
        I::IntoIter: Clone,
    {
        let sites = sites.into_iter();
        self.entries
            .iter()
            .filter(|(site, _)| sites.clone().any(|s| s == site))
            .map(|(_, votes)| *votes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u16) -> SiteId {
        SiteId(n)
    }

    #[test]
    fn totals_and_lookup() {
        let a = VoteAssignment::new([(s(0), 2), (s(1), 1), (s(2), 1), (s(3), 0)]);
        assert_eq!(a.total(), 4);
        assert_eq!(a.votes_of(s(0)), 2);
        assert_eq!(a.votes_of(s(3)), 0);
        assert_eq!(a.votes_of(s(9)), 0);
        assert!(a.hosts(s(3)));
        assert!(!a.hosts(s(9)));
        assert!(a.is_weak(s(3)));
        assert!(!a.is_weak(s(0)));
        assert!(!a.is_weak(s(9)));
    }

    #[test]
    fn strong_and_weak_partitions() {
        let a = VoteAssignment::new([(s(0), 1), (s(1), 0), (s(2), 3)]);
        assert_eq!(a.strong_sites(), vec![s(0), s(2)]);
        assert_eq!(a.weak_sites(), vec![s(1)]);
        assert_eq!(a.all_sites(), vec![s(0), s(1), s(2)]);
    }

    #[test]
    fn equal_assignment() {
        let a = VoteAssignment::equal(5);
        assert_eq!(a.total(), 5);
        assert!(SiteId::all(5).all(|site| a.votes_of(site) == 1));
    }

    #[test]
    fn votes_in_counts_each_site_once() {
        let a = VoteAssignment::new([(s(0), 2), (s(1), 1)]);
        let sites = [s(0), s(0), s(1), s(7)];
        assert_eq!(a.votes_in(&sites), 3);
        assert_eq!(a.votes_in(&[]), 0);
    }

    #[test]
    fn votes_in_handles_assignments_wider_than_a_machine_word() {
        // 100 entries: votes 1, 2, 3, 1, 2, 3, ... with every tenth weak.
        let a = VoteAssignment::new((0..100u16).map(|i| {
            let votes = if i % 10 == 9 { 0 } else { u32::from(i % 3) + 1 };
            (s(i), votes)
        }));
        let all: Vec<SiteId> = (0..100).map(s).collect();
        assert_eq!(a.votes_in(&all), a.total());
        // Duplicates, unknown sites and members past index 64, in no order.
        let sites = [s(99), s(70), s(500), s(3), s(70), s(64), s(3), s(65535)];
        let expected = a.votes_of(s(99)) + a.votes_of(s(70)) + a.votes_of(s(3)) + a.votes_of(s(64));
        assert_eq!(a.votes_of(s(99)), 0, "weak entries count nothing");
        assert_eq!(a.votes_in(&sites), expected);
        // Any iterator of site references works, not only slices.
        let set: std::collections::BTreeSet<SiteId> = sites.into_iter().collect();
        assert_eq!(a.votes_in(&set), expected);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_site_rejected() {
        let _ = VoteAssignment::new([(s(0), 1), (s(0), 2)]);
    }

    #[test]
    #[should_panic(expected = "at least one vote")]
    fn all_weak_rejected() {
        let _ = VoteAssignment::new([(s(0), 0), (s(1), 0)]);
    }
}
