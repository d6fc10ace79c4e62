//! Changing a suite's votes online.
//!
//! In the paper a reconfiguration is a transaction like any other: it reads
//! the suite, installs the new configuration under the *old* one's write
//! quorum, and re-installs the current contents where the new one's write
//! quorums will look for them. It runs the client's state machine
//! ([`crate::client`]); what is its own is here — the change, the sites that
//! answered, the plan of its prepare — and sends nothing, arms no timer.

use bytes::Bytes;
use wv_net::SiteId;
use wv_sim::DetRng;
use wv_storage::{ObjectId, Version};

use crate::client::{add_to_batches, OpSuccess, PreparePlan};
use crate::msg::PrepareWrite;
use crate::planner::Planner;
use crate::quorum::{QuorumError, QuorumSpec};
use crate::suite::{config_object, data_object, SuiteConfig};
use crate::votes::VoteAssignment;

/// A reconfiguration's share of an operation: the requested change, and the
/// sites that answered its inquiry — the pool both write quorums come from.
#[derive(Clone, Debug)]
pub(crate) struct Reconfig {
    pub(crate) change: (VoteAssignment, QuorumSpec),
    responders: Vec<SiteId>,
    /// The generation the responders were counted under.
    generation: u64,
}

/// Why a reconfiguration has no prepare to send.
#[derive(Debug, PartialEq)]
pub(crate) enum NoPlan {
    /// The change is not a legal configuration.
    Illegal(QuorumError),
    /// The configuration planned against is not the one the responders
    /// were counted under — the client adopted a newer one meanwhile — or
    /// they hold no write quorum of it: the operation starts over.
    Stale,
    /// The responders cannot form a write quorum of the new configuration:
    /// installing it would strand the data.
    Unavailable,
}

impl Reconfig {
    /// A change to `assignment` and `quorum`, with nobody asked yet.
    pub(crate) fn new(assignment: VoteAssignment, quorum: QuorumSpec) -> Self {
        Reconfig {
            change: (assignment, quorum),
            responders: Vec::new(),
            generation: 0,
        }
    }

    /// The inquiry's answers so far came from `sites`, counted under
    /// `generation`. The transaction also
    /// brings stale members of the *new* write quorum current (the paper's
    /// rule for adding votes), so the responders must be able to form that
    /// quorum too: returns whether they can, and if so keeps them.
    pub(crate) fn responded<'a, I>(&mut self, sites: I, generation: u64) -> bool
    where
        I: Iterator<Item = &'a SiteId> + Clone,
    {
        let (assignment, quorum) = &self.change;
        if assignment.votes_in(sites.clone()) < quorum.write {
            return false;
        }
        self.responders = sites.copied().collect();
        self.generation = generation;
        true
    }

    /// Plans the prepare that moves `old` to the change, given the contents
    /// the fetch found `current`: the new configuration goes to a write
    /// quorum of the *old* configuration, and the contents are re-published
    /// one version up to that quorum plus the *new* configuration's cheapest
    /// write quorum — one atomic batch per participant, so after commit
    /// every new-config read quorum is guaranteed a current representative,
    /// and the version bump makes the whole transaction conflict with (and
    /// so serialise against) any concurrent data write.
    pub(crate) fn plan(
        &self,
        old: &SuiteConfig,
        (current, value): (Version, Bytes),
        planner: &Planner,
        rng: &mut DetRng,
    ) -> Result<PreparePlan, NoPlan> {
        let (assignment, quorum) = self.change.clone();
        let new = old.evolve(assignment, quorum).map_err(NoPlan::Illegal)?;
        if old.generation != self.generation {
            return Err(NoPlan::Stale);
        }
        // The old configuration's write quorum for the config object, the
        // new one's for the data copies.
        let quorums = planner.reconfig_quorums(&self.responders, [old, &new], rng);
        let [Some(config_quorum), data_quorum] = quorums else {
            return Err(NoPlan::Stale);
        };
        let data_quorum = data_quorum.ok_or(NoPlan::Unavailable)?;
        let suite = old.suite;
        let install = |object: ObjectId, version: Version, value: Bytes| PrepareWrite {
            suite,
            object,
            version,
            value,
            generation: old.generation,
            span: 1,
        };
        let generation = Version(new.generation);
        let config = install(config_object(suite), generation, Bytes::from(new.encode()));
        let mut batches = Vec::new();
        add_to_batches(&mut batches, &config_quorum, &config);
        // Re-publish the contents one version up, through the old write
        // quorum *and* the new one. The bump is what serialises the
        // reconfiguration against concurrent data writes: any such write
        // shares a representative with the config quorum (old write
        // quorums intersect), and whichever transaction loses the lock or
        // the version race there retries against the winner's state. The
        // old inquiry's per-site versions no longer matter — every
        // participant gets the copy, and the server-side staleness check
        // admits it everywhere because the version is fresh.
        let bump = current.next();
        let data = install(data_object(suite), bump, value);
        let data_only = data_quorum.iter().filter(|s| !config_quorum.contains(s));
        let sites: Vec<SiteId> = config_quorum.iter().chain(data_only).copied().collect();
        add_to_batches(&mut batches, &sites, &data);
        // Send order is site order.
        batches.sort_by_key(|(site, _)| *site);
        // The operation reports the configuration generation it installed,
        // and via `multi` the data version its bump consumed, so history
        // checkers can account for it.
        let on_commit = OpSuccess {
            version: generation,
            value: None,
            multi: vec![(suite, bump)],
        };
        Ok(PreparePlan {
            batches,
            rebase: false,
            unprobed: Vec::new(),
            on_commit: (on_commit, Some(Box::new(new))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientOptions;

    const SUITE: ObjectId = ObjectId(1);

    /// Three one-vote sites, `r = w = 2`, at generation 1.
    fn old() -> SuiteConfig {
        let votes = VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]);
        SuiteConfig::new(SUITE, votes, QuorumSpec::new(2, 2)).expect("legal")
    }

    /// Site 0 demoted to zero votes and site 3 promoted to one.
    fn demote_0_promote_3() -> Reconfig {
        let votes = [
            (SiteId(0), 0),
            (SiteId(1), 1),
            (SiteId(2), 1),
            (SiteId(3), 1),
        ];
        Reconfig::new(VoteAssignment::new(votes), QuorumSpec::new(2, 2))
    }

    fn plan(r: &Reconfig) -> Result<PreparePlan, NoPlan> {
        // Site 3 is the cheapest, then 0, 1, 2.
        let planner = Planner::new(
            SiteId(9),
            vec![10.0, 20.0, 30.0, 5.0],
            &ClientOptions::default(),
        );
        let contents = (Version(4), Bytes::from_static(b"x"));
        r.plan(&old(), contents, &planner, &mut DetRng::new(1))
    }

    #[test]
    fn the_plan_installs_the_config_under_the_old_quorum_and_the_contents_under_both() {
        let mut r = demote_0_promote_3();
        assert!(r.responded([SiteId(0), SiteId(1), SiteId(2), SiteId(3)].iter(), 1));
        let plan = plan(&r).expect("planned");
        let install = |object, version: u64, value: &[u8]| PrepareWrite {
            suite: SUITE,
            object,
            version: Version(version),
            value: Bytes::copy_from_slice(value),
            generation: 1,
            span: 1,
        };
        let new = old().evolve(r.change.0.clone(), r.change.1).expect("legal");
        let config = install(config_object(SUITE), 2, &new.encode());
        let data = install(data_object(SUITE), 5, b"x");
        // The old write quorum is {0, 1}, the new one {3, 1}: the config
        // object goes to the first at the old generation, the bumped
        // contents to both, one batch per site in site order.
        let both = vec![config.clone(), data.clone()];
        let expected = vec![
            (SiteId(0), both.clone()),
            (SiteId(1), both),
            (SiteId(3), vec![data]),
        ];
        assert_eq!(plan.batches, expected);
        assert!(!plan.rebase && plan.unprobed.is_empty());
        let (success, adopt) = plan.on_commit;
        assert_eq!(
            (success.version, success.multi),
            (Version(2), vec![(SUITE, Version(5))])
        );
        assert_eq!(adopt.map(|c| *c), Some(new));
    }

    #[test]
    fn no_plan_without_a_legal_change_both_quorums_or_the_generation_counted_under() {
        let mut r = demote_0_promote_3();
        // Sites 0 and 1 hold a write quorum of the old configuration but
        // only one vote of the new one.
        assert!(!r.responded([SiteId(0), SiteId(1)].iter(), 1));
        (r.responders, r.generation) = (vec![SiteId(0), SiteId(1)], 1);
        assert_eq!(plan(&r).err(), Some(NoPlan::Unavailable));
        r.responders = vec![SiteId(1), SiteId(3)];
        assert_eq!(plan(&r).err(), Some(NoPlan::Stale));
        let illegal = Reconfig::new(VoteAssignment::equal(4), QuorumSpec::new(1, 1));
        assert!(matches!(plan(&illegal), Err(NoPlan::Illegal(_))));
        // Both quorums are there, but counted under another generation
        // than the one planned against.
        assert!(r.responded([SiteId(1), SiteId(2), SiteId(3)].iter(), 2));
        assert_eq!(plan(&r).err(), Some(NoPlan::Stale));
    }
}
