//! The work behind a decided write: the client's decision log, and the
//! commit rounds that finish behind the report — and the prepare batches
//! that lead to a decision.
//!
//! Once every participant has voted yes, the decision — the version every
//! object commits at — is logged and flushed before any `Commit` leaves:
//! that record is the commit point. What is left is a commit tail, which
//! hands each participant the decision, resends it to whoever has not
//! acked, and retires it once all have. A participant in doubt probes the
//! coordinator: an unretired decision answers commit, anything else
//! presumed abort. The state machine in [`crate::client`] tells
//! [`CommitTails`] what happened and asks it what to answer; nothing here
//! sends a message or arms a timer. Its two options are read once, in
//! [`CommitTails::new`].

use bytes::Bytes;
use wv_net::SiteId;
use wv_storage::{Container, IdHashMap, IdHashSet, ObjectId, Version};

use crate::client::{ClientOptions, Outcome};
use crate::msg::{Msg, PrepareWrite, ReqId, Shared};
use crate::server::CHECKPOINT_RECORDS;
use crate::site_map::{Few, SiteMap, Sites};

/// Each participant's prepare batch, in send order, as one slice shared
/// by the participants whose batches were built alike
/// ([`add_to_batches`]).
pub(crate) type Batches = Few<(SiteId, Batch)>;

/// One participant's prepare batch.
type Batch = Shared<PrepareWrite>;

/// Adds `install` to the prepare batch of each of `sites`, opening one for
/// a site that has none yet. The sites that open one share one slice, and
/// so do sites whose batches grow from one they shared: a one-suite write
/// sends every participant the same prepare.
pub(crate) fn add_to_batches(batches: &mut Batches, sites: &[SiteId], install: &PrepareWrite) {
    let mut opened: Option<Batch> = None;
    // The batch last grown, before and after.
    let mut grown: Option<(Batch, Batch)> = None;
    for &site in sites {
        let Some((_, batch)) = batches.iter_mut().find(|(s, _)| *s == site) else {
            let opened = opened.get_or_insert_with(|| Shared::from([install.clone()]));
            batches.push((site, Shared::clone(opened)));
            continue;
        };
        *batch = match &grown {
            Some((from, to)) if from.same(batch) => Shared::clone(to),
            _ => {
                let to: Batch = batch.iter().cloned().chain([install.clone()]).collect();
                grown = Some((Shared::clone(batch), Shared::clone(&to)));
                to
            }
        };
    }
}

/// The commit round of a decided operation: acks, resends, retirement, the
/// push to weak representatives and the report still owed work on it, for
/// every kind of operation. A client crash drops it with the operations.
#[derive(Debug)]
pub(crate) struct CommitTail {
    pub(crate) suite: ObjectId,
    participants: Sites,
    acked: SiteMap<()>,
    resends: u32,
    /// The decided version of every object, as logged: the slice every
    /// participant's `Commit` shares.
    versions: Shared<(ObjectId, Version)>,
    /// What the operation reports, and the configuration it adopts, when
    /// the tail ends; `None` for one already reported at the decision.
    pub(crate) then: Option<Outcome>,
    /// The written version and value, for the weak representatives once
    /// every participant has acked ([`ClientOptions::push_weak_on_write`]).
    pub(crate) push: Option<(Version, Bytes)>,
}

impl CommitTail {
    /// The `Commit` that hands a participant the decision on `req`.
    fn commit(&self, req: ReqId) -> Msg {
        Msg::Commit {
            suite: self.suite,
            req,
            versions: Shared::clone(&self.versions),
        }
    }
}

/// The open commit tails, the decision log behind them, and what
/// `ClientOptions` fixed about both.
pub(crate) struct CommitTails {
    /// Commit rounds still collecting acks, by the decided request id.
    tails: IdHashMap<ReqId, CommitTail>,
    /// Durable commit-decision log (presumed abort for anything absent):
    /// per decided request id one object holding the decided
    /// `(object, version)` pairs, 16 bytes each, forgotten at compaction
    /// once the decision is retired.
    decisions: Container,
    /// Commit decisions some participant may still ask about: logged but
    /// not yet acked by every participant. A full set of acks retires the
    /// entry — nobody can be in doubt any more, so presumed abort is the
    /// truthful answer from then on. After a recovery it holds whatever
    /// the compacted log retained.
    unretired: IdHashSet<ReqId>,
    /// Commit resend rounds before a tail stops resending.
    resend_limit: u32,
    /// Whether a plain write's value is pushed to the weak representatives.
    push_weak: bool,
}

impl CommitTails {
    pub(crate) fn new(options: &ClientOptions) -> Self {
        CommitTails {
            tails: IdHashMap::default(),
            decisions: Container::new(),
            unretired: IdHashSet::default(),
            resend_limit: options.commit_resend_limit,
            push_weak: options.push_weak_on_write,
        }
    }

    /// The durable commit-decision log, read-only.
    pub(crate) fn log(&self) -> &Container {
        &self.decisions
    }

    /// Decides `req`: logs the `versions` every object commits at, then
    /// opens the tail that tells `participants`. `then` is what the tail
    /// reports when it ends; `written` is a plain write's version and
    /// value, kept for the weak representatives if the options push them.
    /// Returns the `Commit` each participant is handed — only once the
    /// decision is durable.
    pub(crate) fn decide(
        &mut self,
        req: ReqId,
        suite: ObjectId,
        participants: Sites,
        versions: &[(ObjectId, Version)],
        then: Option<Outcome>,
        written: Option<(Version, &Bytes)>,
    ) -> impl Iterator<Item = (SiteId, Msg)> + '_ {
        self.log_commit_decision(req, versions);
        let push = written.filter(|_| self.push_weak);
        let tail = CommitTail {
            suite,
            participants,
            acked: SiteMap::default(),
            resends: 0,
            versions: Shared::from(versions),
            then,
            push: push.map(|(version, value)| (version, value.clone())),
        };
        let tail = &*self.tails.entry(req).or_insert(tail);
        (tail.participants.iter()).map(move |&site| (site, tail.commit(req)))
    }

    /// `from` acked the commit of `req`: `None` if that counts for nothing
    /// — no tail is open, or `from` is none of its participants — and
    /// otherwise whether every participant has now acked. A duplicate ack
    /// counts once.
    pub(crate) fn ack(&mut self, req: ReqId, from: SiteId) -> Option<bool> {
        let tail = (self.tails.get_mut(&req)).filter(|t| t.participants.contains(&from))?;
        tail.acked.insert(from, ());
        Some(tail.acked.len() == tail.participants.len())
    }

    /// A commit round of `req` went unanswered: the participants yet to
    /// ack, and the `Commit` to send them again — none once the tail has
    /// used up its resends, and should end. Its decision then stays
    /// unretired: the participants it could not reach resolve through their
    /// own decision probes, as they would after a client crash.
    pub(crate) fn timed_out(&mut self, req: ReqId) -> Option<(Vec<SiteId>, Option<Msg>)> {
        let tail = self.tails.get_mut(&req)?;
        let unacked = |s: &&SiteId| !tail.acked.contains_key(s);
        let missing = tail.participants.iter().filter(unacked).copied().collect();
        let again = tail.resends < self.resend_limit;
        if again {
            tail.resends += 1;
        }
        Some((missing, again.then(|| tail.commit(req))))
    }

    /// Ends `req`'s tail and hands it back. `acked` says every participant
    /// has applied the commit durably: none can be in doubt about `req`
    /// again, so the decision is retired. Otherwise it stays answerable,
    /// and nothing is pushed to the weak representatives.
    pub(crate) fn end(&mut self, req: ReqId, acked: bool) -> Option<CommitTail> {
        let mut tail = self.tails.remove(&req)?;
        if acked {
            self.unretired.remove(&req);
        } else {
            tail.push = None;
        }
        Some(tail)
    }

    /// The answer the log gives a probe about `req`: commit, at the
    /// versions logged, while the decision is unretired; `None` otherwise.
    pub(crate) fn logged(&self, suite: ObjectId, req: ReqId) -> Option<Msg> {
        if !self.unretired.contains(&req) {
            return None;
        }
        let logged = self.decisions.read(ObjectId(req.0));
        let record = logged.expect("decision log is up").value;
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        let versions = record
            .chunks_exact(16)
            .map(|c| (ObjectId(word(&c[..8])), Version(word(&c[8..]))))
            .collect();
        Some(Msg::Commit {
            suite,
            req,
            versions,
        })
    }

    /// Whether `site` is a participant of `req`'s open tail.
    pub(crate) fn counts_on(&self, req: ReqId, site: SiteId) -> bool {
        (self.tails.get(&req)).is_some_and(|tail| tail.participants.contains(&site))
    }

    /// Logs and flushes the commit decision for `req` — the version every
    /// object commits at — then compacts the log once it reaches the
    /// servers' checkpoint threshold. Compaction forgets every retired
    /// decision but the newest: that one carries the request-counter
    /// high-water mark [`Self::recover`] reads.
    fn log_commit_decision(&mut self, req: ReqId, versions: &[(ObjectId, Version)]) {
        // Built in place for up to four objects, and copied once.
        let mut record: Few<u8, 64> = Few::default();
        for (object, version) in versions {
            record.extend(object.0.to_le_bytes());
            record.extend(version.0.to_le_bytes());
        }
        let tx = self.decisions.begin().expect("decision log is up");
        let record = Bytes::copy_from_slice(&record);
        self.decisions
            .stage_put(tx, ObjectId(req.0), Version(1), record)
            .expect("stage decision");
        self.decisions.commit(tx).expect("commit decision");
        self.unretired.insert(req);
        if self.decisions.wal().len() >= CHECKPOINT_RECORDS {
            let newest = self.decisions.objects().max();
            let unretired = &self.unretired;
            self.decisions
                .checkpoint_retaining(|o| Some(o) == newest || unretired.contains(&ReqId(o.0)))
                .expect("decision log is up");
        }
    }

    /// A crash: the tails are lost with the operations; the log survives.
    pub(crate) fn crash(&mut self) {
        self.tails.clear();
        self.unretired.clear();
        self.decisions.crash();
    }

    /// Recovery: reloads the log. Returns the lowest request counter the
    /// log does not prove used — request ids must stay unique across a
    /// crash, and the log's largest counter bounds what was used.
    pub(crate) fn recover(&mut self) -> u64 {
        self.decisions.recover();
        // Which of the retained decisions were acked is volatile knowledge:
        // all of them answer commit again, which is still the truth.
        self.unretired = self.decisions.objects().map(|o| ReqId(o.0)).collect();
        let used = self.unretired.iter().map(|r| r.counter() + 1);
        used.max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: ObjectId = ObjectId(1);

    fn req(counter: u64) -> ReqId {
        ReqId::new(counter, SiteId(9))
    }

    /// What decision `n` commits: two objects, so a record is 32 bytes.
    fn versions(n: u64) -> Shared<(ObjectId, Version)> {
        Shared::from([(SUITE, Version(n)), (ObjectId(2), Version(n + 1))])
    }

    /// Decides `n` over sites 0 and 1; returns the commits handed out.
    fn decide(t: &mut CommitTails, n: u64) -> Vec<(SiteId, Msg)> {
        let value = Bytes::from_static(b"v");
        let participants = [SiteId(0), SiteId(1)].into_iter().collect();
        let written = Some((Version(n), &value));
        t.decide(req(n), SUITE, participants, &versions(n), None, written)
            .collect()
    }

    /// The versions the log answers a probe about `n` with.
    fn answer(t: &CommitTails, n: u64) -> Option<Shared<(ObjectId, Version)>> {
        t.logged(SUITE, req(n)).map(|m| match m {
            Msg::Commit { versions, .. } => versions,
            other => panic!("{other:?}"),
        })
    }

    #[test]
    fn batches_hold_what_per_site_vecs_held_and_sites_built_alike_share_one_slice() {
        let install = |n: u64| PrepareWrite {
            suite: ObjectId(n),
            object: ObjectId(n),
            version: Version(n),
            value: Bytes::new(),
            generation: 1,
            span: 1,
        };
        // Overlapping quorums, against a vec per site as batches were.
        let quorums: [&[u16]; 3] = [&[0, 1, 2], &[1, 2, 3], &[0, 3]];
        let (mut batches, mut per_site) = (Batches::default(), Vec::<(SiteId, Vec<_>)>::new());
        for (n, quorum) in (0..).zip(quorums) {
            let sites: Vec<SiteId> = quorum.iter().map(|&s| SiteId(s)).collect();
            add_to_batches(&mut batches, &sites, &install(n));
            for &site in &sites {
                match per_site.iter_mut().find(|(s, _)| *s == site) {
                    Some((_, batch)) => batch.push(install(n)),
                    None => per_site.push((site, vec![install(n)])),
                }
            }
        }
        let built: Vec<(SiteId, Vec<PrepareWrite>)> =
            batches.iter().map(|(s, b)| (*s, b.to_vec())).collect();
        assert_eq!(built, per_site);
        // Sites 1 and 2 grew from one slice into one slice.
        let [_, one, two, _] = &batches[..] else {
            panic!("four sites: {batches:?}");
        };
        assert!(one.1.same(&two.1));
        assert!(!batches[0].1.same(&one.1));
    }

    #[test]
    fn a_tail_resends_up_to_its_limit_and_no_further() {
        let mut t = CommitTails::new(&ClientOptions::default());
        decide(&mut t, 1);
        assert_eq!(t.ack(req(1), SiteId(0)), Some(false));
        let commit = Msg::Commit {
            suite: SUITE,
            req: req(1),
            versions: versions(1),
        };
        for _ in 0..ClientOptions::default().commit_resend_limit {
            let resend = t.timed_out(req(1));
            assert_eq!(resend, Some((vec![SiteId(1)], Some(commit.clone()))));
        }
        assert_eq!(t.timed_out(req(1)), Some((vec![SiteId(1)], None)));
        // The tail out of resends ends unacked: nothing is pushed, and the
        // decision stays answerable for site 1's own probes.
        let ended = t.end(req(1), false).expect("open");
        assert_eq!(ended.push, None);
        assert_eq!(answer(&t, 1), Some(versions(1)));
        assert_eq!(t.timed_out(req(1)), None);
    }

    #[test]
    fn a_strangers_or_a_duplicate_ack_never_ends_a_tail() {
        let mut t = CommitTails::new(&ClientOptions {
            push_weak_on_write: true,
            ..ClientOptions::default()
        });
        decide(&mut t, 1);
        assert_eq!(t.ack(req(1), SiteId(2)), None, "not a participant");
        assert_eq!(t.ack(req(2), SiteId(0)), None, "no such tail");
        assert_eq!(t.ack(req(1), SiteId(0)), Some(false));
        assert_eq!(t.ack(req(1), SiteId(0)), Some(false), "a duplicate");
        assert!(t.counts_on(req(1), SiteId(1)) && !t.counts_on(req(1), SiteId(2)));
        assert_eq!(t.ack(req(1), SiteId(1)), Some(true));
        // The last ack retires the decision and releases the push.
        let ended = t.end(req(1), true).expect("open");
        assert_eq!(ended.push, Some((Version(1), Bytes::from_static(b"v"))));
        assert_eq!(answer(&t, 1), None, "presumed abort");
        assert!(!t.counts_on(req(1), SiteId(1)));
    }

    #[test]
    fn the_decision_is_durable_before_any_commit_is_handed_out() {
        let mut t = CommitTails::new(&ClientOptions::default());
        let handed = decide(&mut t, 7);
        let commit = |site: u16| {
            let versions = versions(7);
            (
                SiteId(site),
                Msg::Commit {
                    suite: SUITE,
                    req: req(7),
                    versions,
                },
            )
        };
        assert_eq!(handed, [commit(0), commit(1)]);
        // 16 bytes per object, in the order decided.
        let record = t.log().read(ObjectId(req(7).0)).expect("up").value;
        assert_eq!(record.len(), 32);
        assert_eq!(record[..8], 1u64.to_le_bytes());
        // A crash before any ack loses the tail, not the decision.
        t.crash();
        assert_eq!(t.recover(), 8);
        assert_eq!(answer(&t, 7), Some(versions(7)));
    }

    #[test]
    fn a_probe_is_answered_from_the_log_across_a_crash_and_a_compaction() {
        let mut t = CommitTails::new(&ClientOptions::default());
        decide(&mut t, 1);
        t.ack(req(1), SiteId(0)); // site 1 never acks
        let last = 1 + CHECKPOINT_RECORDS as u64;
        for n in 2..=last {
            decide(&mut t, n);
            t.ack(req(n), SiteId(0));
            t.ack(req(n), SiteId(1));
            t.end(req(n), true);
        }
        assert!(t.log().wal().len() < CHECKPOINT_RECORDS, "compacted");
        assert_eq!(answer(&t, 1), Some(versions(1)));
        assert_eq!(answer(&t, 2), None, "retired");
        t.crash();
        assert_eq!(t.recover(), last + 1, "the newest decision is kept");
        assert_eq!(answer(&t, 1), Some(versions(1)));
    }
}
