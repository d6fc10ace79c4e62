//! Anti-entropy repair, and the quarantine it heals (DESIGN.md §10, §14).
//!
//! [`Repair`] says which `RepairPull`s a tick or a recovery sends, and
//! keeps the ledger of a quarantined replica — one whose recovery found
//! interior WAL corruption: it refuses every request and seeds no peer
//! until it has absorbed a full pull from every peer of every hosted
//! suite. The server tells it events and asks it questions; every send,
//! timer, container access and recorder call stays in
//! [`crate::server::SuiteServer`].

use std::collections::{BTreeMap, BTreeSet};

use wv_net::SiteId;
use wv_sim::trace::SpanId;
use wv_sim::SimDuration;
use wv_storage::ObjectId;

/// A `RepairPull` to send: the suite, the peer, and whether it is `full`.
pub(crate) type Pull = (ObjectId, SiteId, bool);

/// The repair daemon's schedule and the quarantine's ledger.
#[derive(Debug, Default)]
pub(crate) struct Repair {
    /// Probe interval; `None` (the default) disables the daemon.
    interval: Option<SimDuration>,
    /// Round-robin position over peers for periodic probes.
    cursor: usize,
    quarantined: bool,
    /// Per hosted suite, the peers a quarantined replica has yet to absorb
    /// an answer from; draining the map heals the quarantine.
    pending: BTreeMap<ObjectId, BTreeSet<SiteId>>,
    /// Open quarantine span, when tracing.
    span: Option<SpanId>,
}

impl Repair {
    pub(crate) fn enable(&mut self, interval: SimDuration) {
        self.interval = Some(interval);
    }

    /// Disables the daemon; an armed tick dies when it fires.
    pub(crate) fn stop(&mut self) {
        self.interval = None;
    }

    /// The delay between ticks; `None` while the daemon is disabled.
    pub(crate) fn interval(&self) -> Option<SimDuration> {
        self.interval
    }

    /// A tick fires: its re-arm delay and pulls, given each hosted suite
    /// with its peers; `None` while the daemon is disabled. Each suite
    /// pulls from its next peer in round-robin order — or, quarantined,
    /// every peer not yet absorbed, in full.
    pub(crate) fn tick(
        &mut self,
        hosted: &[(ObjectId, Vec<SiteId>)],
    ) -> Option<(SimDuration, Vec<Pull>)> {
        let interval = self.interval?;
        if self.quarantined {
            let pending = self.pending.iter();
            let pulls = pending.flat_map(|(&s, peers)| peers.iter().map(move |&p| (s, p, true)));
            return Some((interval, pulls.collect()));
        }
        let mut pulls = Vec::with_capacity(hosted.len());
        for (suite, peers) in hosted.iter().filter(|(_, peers)| !peers.is_empty()) {
            pulls.push((*suite, peers[self.cursor % peers.len()], false));
            self.cursor = self.cursor.wrapping_add(1);
        }
        Some((interval, pulls))
    }

    /// The pulls a recovery sends while the daemon is enabled: every peer
    /// of every hosted suite, so catching up takes one round trip.
    pub(crate) fn recovery(&self, hosted: &[(ObjectId, Vec<SiteId>)]) -> Vec<Pull> {
        if self.interval.is_none() {
            return Vec::new();
        }
        let full = self.quarantined;
        let all = hosted.iter();
        all.flat_map(|(s, peers)| peers.iter().map(move |&p| (*s, p, full)))
            .collect()
    }

    /// Whether the replica refuses every request: it is quarantined.
    pub(crate) fn refuses(&self) -> bool {
        self.quarantined
    }

    /// Whether a pull is answered. A quarantined replica seeds no peer. A
    /// `full` pull is answered even when nothing is `newer` — the answer
    /// is the puller's evidence it absorbed this peer — but not while an
    /// undecided prepared write on the suite is `in_doubt` here: the
    /// quarantined puller may have applied its commit before losing its
    /// log, and healing from a committed state that misses it would let
    /// one version number commit twice. The puller asks again next tick.
    pub(crate) fn answers(&self, full: bool, newer: bool, in_doubt: bool) -> bool {
        !self.quarantined && if full { !in_doubt } else { newer }
    }

    /// A recovery found interior corruption: the ledger is rebuilt from
    /// scratch, since the damage is new. Returns whether this starts a
    /// quarantine, whose span `open` opens.
    pub(crate) fn quarantine(
        &mut self,
        hosted: &[(ObjectId, Vec<SiteId>)],
        open: impl FnOnce() -> Option<SpanId>,
    ) -> bool {
        let starts = !self.quarantined;
        if starts {
            self.quarantined = true;
            self.span = open();
        }
        self.pending.clear();
        for (suite, peers) in hosted {
            self.owe(*suite, peers);
        }
        starts
    }

    /// A newer configuration of `suite` was installed: answers from its
    /// old peers may come from sites that no longer represent it, and the
    /// new ones have not been absorbed, so its entry starts over.
    pub(crate) fn rebase(&mut self, suite: ObjectId, peers: &[SiteId]) {
        if self.quarantined && self.pending.contains_key(&suite) {
            self.owe(suite, peers);
        }
    }

    /// `suite`'s ledger entry is `peers`; a suite with none owes nothing.
    fn owe(&mut self, suite: ObjectId, peers: &[SiteId]) {
        if peers.is_empty() {
            self.pending.remove(&suite);
        } else {
            self.pending.insert(suite, peers.iter().copied().collect());
        }
    }

    /// `peer`'s state for `suite` was absorbed. `Some(span)` — the
    /// quarantine's, to end — when that heals it: any acknowledged version
    /// had an intact holder among all those peers (the chaos layer injects
    /// at most one corruption per schedule and r + w > N).
    pub(crate) fn confirm(&mut self, suite: ObjectId, peer: SiteId) -> Option<Option<SpanId>> {
        if !self.quarantined {
            return None;
        }
        if let Some(pending) = self.pending.get_mut(&suite) {
            pending.remove(&peer);
            if pending.is_empty() {
                self.pending.remove(&suite);
            }
        }
        if !self.pending.is_empty() {
            return None;
        }
        self.quarantined = false;
        Some(self.span.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjectId = ObjectId(1);
    const B: ObjectId = ObjectId(2);

    fn sites(ids: &[u16]) -> Vec<SiteId> {
        ids.iter().map(|&i| SiteId(i)).collect()
    }

    fn enabled() -> Repair {
        let mut r = Repair::default();
        r.enable(SimDuration::from_millis(500));
        r
    }

    /// The pulls of a tick.
    fn tick(r: &mut Repair, hosted: &[(ObjectId, Vec<SiteId>)]) -> Vec<Pull> {
        r.tick(hosted).expect("enabled").1
    }

    /// Quarantined over suites A and B, each with peers 1 and 2.
    fn quarantined() -> Repair {
        let mut r = enabled();
        let hosted = [(A, sites(&[1, 2])), (B, sites(&[1, 2]))];
        assert!(r.quarantine(&hosted, || None));
        r
    }

    #[test]
    fn the_quarantine_heals_only_after_every_peer_of_every_suite_is_absorbed() {
        let mut r = quarantined();
        for (suite, peer) in [(A, 1), (A, 2), (B, 2)] {
            assert_eq!(r.confirm(suite, SiteId(peer)), None);
            assert!(r.refuses(), "{suite:?} from {peer} is not the last");
        }
        assert_eq!(r.confirm(B, SiteId(1)), Some(None));
        assert!(!r.refuses());
        assert_eq!(r.confirm(B, SiteId(1)), None, "healed once");
    }

    #[test]
    fn a_newer_configuration_rebases_the_ledger_onto_its_peers() {
        let mut r = quarantined();
        assert_eq!(r.confirm(A, SiteId(1)), None);
        // A now lives at 2 and 3: 1's answer no longer counts, 3 is owed.
        r.rebase(A, &sites(&[2, 3]));
        assert_eq!(r.confirm(A, SiteId(2)), None);
        r.rebase(B, &[]);
        assert_eq!(
            tick(&mut r, &[]),
            [(A, SiteId(3), true)],
            "B owes nothing now"
        );
        assert_eq!(r.confirm(A, SiteId(3)), Some(None));
        // Healthy, a new configuration leaves no ledger behind.
        r.rebase(A, &sites(&[1]));
        assert_eq!(tick(&mut r, &[(A, sites(&[1]))]), [(A, SiteId(1), false)]);
    }

    #[test]
    fn a_quarantined_tick_pulls_in_full_from_the_pending_peers_only() {
        let mut r = quarantined();
        r.confirm(A, SiteId(1));
        r.confirm(B, SiteId(2));
        let hosted = [(A, sites(&[1, 2])), (B, sites(&[1, 2]))];
        let pulls = [(A, SiteId(2), true), (B, SiteId(1), true)];
        assert_eq!(tick(&mut r, &hosted), pulls);
        // A recovery under quarantine asks every peer, in full.
        assert_eq!(r.recovery(&hosted).len(), 4);
        assert!(r.recovery(&hosted).iter().all(|&(_, _, full)| full));
    }

    #[test]
    fn the_cursor_advances_once_per_suite_per_tick() {
        let mut r = enabled();
        let hosted = [
            (A, sites(&[1, 2])),
            (ObjectId(3), vec![]),
            (B, sites(&[1, 2])),
        ];
        for _ in 0..2 {
            let pulls = [(A, SiteId(1), false), (B, SiteId(2), false)];
            assert_eq!(tick(&mut r, &hosted), pulls);
        }
    }
}
