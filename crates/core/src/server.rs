//! The suite server: a representative's container, locks, and voting.
//!
//! One [`SuiteServer`] runs per hosting site (strong or weak). It serves
//! version inquiries and content reads from committed state, participates
//! in client-coordinated two-phase commit for writes (taking each object's
//! commit lock in turn, assigning the new version under it, voting, then
//! installing or discarding), applies fire-and-forget weak-representative
//! updates monotonically, and resolves in-doubt transactions after a crash
//! by asking the coordinator.
//!
//! # The commit-lock line
//!
//! Every prepare collects its commit locks in object order. A lock that
//! is taken makes the prepare stand in that object's *line*, ordered by
//! `(lock_ts, req)`; a release hands the lock to the oldest waiter.
//! Holder and line are one entry of the site's [`LockTable`]. An
//! older prepare never waits behind a younger one for long: a younger
//! holder still collecting locks here is aborted on the spot, one that
//! is already staged gets a [`Msg::Busy`] give-way notice for its
//! coordinator, which aborts if the prepare is itself in line elsewhere.
//! Reads and readers' inquiries that meet a commit lock are held and
//! answered from committed state the instant the lock is released, before
//! the next holder is granted. DESIGN.md §7.2 has the deadlock argument.

use std::collections::VecDeque;

use bytes::Bytes;
use wv_net::{Node, NodeCtx, SiteId};
use wv_sim::trace::{Recorder, SpanId, SpanKind, SpanOutcome, SpanRecord};
use wv_sim::{SimDuration, SimTime};
use wv_storage::{Container, DiskFaults, IdHashMap, ObjectId, TxId, Version};
use wv_txn::lock::{DeadlockPolicy, LockMode, LockReply, LockTable, TxToken};
use wv_txn::Vote;

use crate::msg::{Msg, PrepareWrite, RefuseReason, ReqId, Shared};
use crate::repair::{Pull, Repair, HOSTED_IN_PLACE};
use crate::site_map::{Few, Sites};
use crate::suite::{config_object, data_object, suite_of_config_object, SuiteConfig};
use crate::sync::{Deferred, SyncQueue, Then};

/// The anti-entropy tick's timer token. Pending-write probe timers use raw
/// request ids, whose counters stay below bit 48, and client timers live
/// behind bit 63 ([`crate::client::CLIENT_TIMER_TAG`]), so bit 62 is free
/// for the repair daemon.
pub const REPAIR_TIMER_TAG: u64 = 1 << 62;

/// The group-commit sync's timer token (see
/// [`SuiteServer::set_group_commit`]); bit 61 keeps it disjoint from the
/// repair tick (bit 62), client timers (bit 63), and raw request ids.
pub const WAL_SYNC_TIMER_TAG: u64 = 1 << 61;

/// WAL records at which a log is compacted, keeping recovery time
/// proportional to live state: a server's container and a client's
/// decision log alike.
pub(crate) const CHECKPOINT_RECORDS: usize = 512;

/// How long a prepared transaction waits before probing its coordinator
/// for the decision, and between probes.
const RESOLVE_AFTER: SimDuration = SimDuration::from_secs(5);

/// Server-side counters for the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Version inquiries answered.
    pub inquiries: u64,
    /// Content reads served: `ReadReq`s answered, and inquiries whose
    /// answer carried the contents too.
    pub reads: u64,
    /// Reads and readers' inquiries that met a commit lock (each was held
    /// and answered when the lock was released).
    pub busy: u64,
    /// Prepares received.
    pub prepares: u64,
    /// No votes sent.
    pub votes_no: u64,
    /// Writes committed.
    pub commits: u64,
    /// Writes aborted.
    pub aborts: u64,
    /// Requests rejected for stale configuration generation.
    pub stale_config: u64,
    /// Weak-representative updates applied (not counting stale ones).
    pub weak_updates: u64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Log compactions performed.
    pub checkpoints: u64,
    /// Anti-entropy pulls sent (on recovery and on periodic probes).
    pub repair_probes: u64,
    /// Anti-entropy answers served to stale peers.
    pub repair_serves: u64,
    /// Newer committed state installed from a peer's repair answer.
    pub repairs_completed: u64,
    /// Group-commit syncs performed (one durable write each).
    pub wal_batches: u64,
    /// Deferred records (votes + commit applies) that rode those syncs.
    pub wal_batched_records: u64,
    /// Distinct suites represented across those syncs (sum of per-batch
    /// distinct-suite counts): exceeds `wal_batches` exactly when one
    /// flush absorbed concurrent writes to several suites.
    pub wal_batch_suites: u64,
    /// Torn WAL tails truncated during recovery scans (normal crash wear;
    /// only un-acknowledged volatile records are lost).
    pub torn_truncations: u64,
    /// Durable records lost to detected interior WAL corruption.
    pub corrupt_records_detected: u64,
    /// Recoveries that entered quarantine over interior corruption.
    pub quarantines: u64,
    /// Quarantines healed by absorbing a full state pull from every peer.
    pub requarantine_repairs: u64,
    /// Requests refused over transient disk trouble (I/O errors, stalls).
    pub disk_refusals: u64,
    /// Tripwire: corrupted bytes accepted by a recovery scan. Stays zero
    /// unless injected damage collides with CRC-32.
    pub poison_escapes: u64,
    /// Tripwire: responses served while quarantined. Stays zero.
    pub served_while_quarantined: u64,
}

/// A prepare that holds all its commit locks and is staged in the
/// container: promised (or about to be, behind the sync of its record).
#[derive(Clone, Debug)]
struct PendingWrite {
    tx: TxId,
    token: TxToken,
    /// The objects staged, each at the version the vote reports: the
    /// slice every yes vote on it shares.
    staged: Shared<(ObjectId, Version)>,
    suite: ObjectId,
}

/// A prepare still collecting its commit locks.
#[derive(Clone, Debug)]
struct Collecting {
    from: SiteId,
    token: TxToken,
    /// In object order: `writes[..held]` are locked, and the prepare
    /// stands in the line of `writes[held]`'s object.
    writes: Shared<PrepareWrite>,
    rebase: bool,
    held: usize,
    /// Open lock-wait span, from the first line joined, when tracing.
    span: Option<SpanId>,
}

impl Collecting {
    fn suite(&self) -> ObjectId {
        self.writes.first().map_or(ObjectId(0), |pw| pw.suite)
    }
}

/// A read or reader's inquiry that met a commit lock.
#[derive(Clone, Copy, Debug)]
struct HeldRead {
    from: SiteId,
    suite: ObjectId,
    req: ReqId,
    /// `ReadReq` (contents wanted) rather than `VersionReq`.
    contents: bool,
    /// A `VersionReq`'s [`Msg::VersionReq::contents_from`]: judged when the
    /// inquiry is answered, which for one held here is at the release.
    contents_from: Option<Version>,
}

/// A representative server node.
pub struct SuiteServer {
    site: SiteId,
    container: Container,
    /// The commit locks, each with the line of prepares waiting for it.
    locks: LockTable,
    configs: IdHashMap<ObjectId, SuiteConfig>,
    pending: IdHashMap<ReqId, PendingWrite>,
    collecting: IdHashMap<ReqId, Collecting>,
    /// The reads held behind commit locks, each with its locked object,
    /// in arrival order: answered from committed state when that lock is
    /// released, before the oldest prepare in line is granted.
    held_reads: Vec<(ObjectId, HeldRead)>,
    /// The anti-entropy daemon and the quarantine it heals.
    repair: Repair,
    /// The responses waiting for the durable sync of their records.
    sync: SyncQueue,
    /// Counters.
    pub stats: ServerStats,
    /// Span recording, off by default (see [`Recorder`]).
    recorder: Recorder,
    /// Injected sync stall: prepares refuse with [`RefuseReason::Disk`]
    /// until this deadline passes. Committed state is intact, so reads
    /// and inquiries keep serving.
    stall_until: Option<SimTime>,
    /// The construction-time suite assignments — the deployment manifest.
    /// A recovery that finds a hosted suite's configuration object gone
    /// (interior corruption can truncate the entire log) falls back to
    /// this so the replica still knows which peers to rebuild from; the
    /// possibly-stale geometry is only ever used under quarantine, and
    /// the healing full pulls replace it with the peers' current one.
    seed_configs: Vec<SuiteConfig>,
}

impl SuiteServer {
    /// Creates a server at `site` hosting representatives for `configs`.
    ///
    /// Each suite's configuration is committed into the container (the
    /// replicated prefix) at a version equal to its generation; data
    /// objects start at [`Version::INITIAL`] with empty contents.
    /// `policy` goes to the lock table: under [`DeadlockPolicy::NoWait`]
    /// it turns away a prepare that meets a taken lock, which votes No at
    /// once instead of joining the line (the E8 ablation).
    pub fn new(site: SiteId, configs: Vec<SuiteConfig>, policy: DeadlockPolicy) -> Self {
        let mut container = Container::new();
        let mut map = IdHashMap::default();
        let seed_configs = configs.clone();
        for cfg in configs {
            let tx = container.begin().expect("fresh container");
            container
                .stage_put(
                    tx,
                    config_object(cfg.suite),
                    Version(cfg.generation),
                    cfg.encode(),
                )
                .expect("stage config");
            container.commit(tx).expect("commit config");
            map.insert(cfg.suite, cfg);
        }
        SuiteServer {
            site,
            container,
            locks: LockTable::new(policy),
            configs: map,
            pending: IdHashMap::default(),
            collecting: IdHashMap::default(),
            held_reads: Vec::new(),
            repair: Repair::default(),
            sync: SyncQueue::default(),
            stats: ServerStats::default(),
            recorder: Recorder::new(site.0),
            stall_until: None,
            seed_configs,
        }
    }

    /// Turns on span recording. Idempotent; spans accumulate until drained
    /// with [`Self::take_trace`].
    pub fn enable_tracing(&mut self) {
        self.recorder.enable();
    }

    /// Drains the recorded spans (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<SpanRecord> {
        self.recorder.take().0
    }

    /// Enables the background anti-entropy daemon with the given probe
    /// interval. Ticks start once [`Self::start_anti_entropy`] runs (the
    /// harness arms it at construction; recovery re-arms it).
    pub fn set_anti_entropy(&mut self, interval: SimDuration) {
        assert!(interval > SimDuration::ZERO, "interval must be positive");
        self.repair.enable(interval);
    }

    /// Disables the repair daemon; any armed tick dies quietly when it
    /// fires. Harnesses call this before draining the event queue, since a
    /// perpetual gossip timer would otherwise never let the system quiesce.
    pub fn stop_anti_entropy(&mut self) {
        self.repair.stop();
    }

    /// Enables group commit: one flush, `latency` after the first record
    /// queues, covers every prepare and commit record appended meanwhile.
    /// With or without it a vote or ack leaves only once its record is
    /// durable.
    pub fn set_group_commit(&mut self, latency: SimDuration) {
        assert!(latency > SimDuration::ZERO, "sync latency must be positive");
        self.sync.set_window(latency);
    }

    /// Arms the periodic repair timer, cancelling any tick armed before,
    /// so it is safe to call again. A no-op while the daemon is disabled.
    pub fn start_anti_entropy(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        if let Some(interval) = self.repair.interval() {
            ctx.cancel_timer(REPAIR_TIMER_TAG);
            ctx.set_timer(interval, REPAIR_TIMER_TAG);
        }
    }

    /// Seeds this server's disk-damage placement stream (see
    /// [`wv_storage::DiskFaults`]). The harness derives one seed per site
    /// from the master seed so campaigns stay bit-identical.
    pub fn set_disk_fault_seed(&mut self, seed: u64) {
        self.container.disk_faults().seed(seed);
    }

    /// The container's disk-fault injector: torn writes and bit flips
    /// applied at the next crash, and I/O errors on new transactions.
    pub fn disk_faults(&mut self) -> &mut DiskFaults {
        self.container.disk_faults()
    }

    /// Injected sync stall: prepares refuse with [`RefuseReason::Disk`]
    /// until `d` past `now`. Overlapping stalls keep the later deadline.
    pub fn disk_stall(&mut self, d: SimDuration, now: SimTime) {
        self.stall_until = self.stall_until.max(Some(now + d));
    }

    /// Whether this replica is quarantined (votes surrendered pending a
    /// full anti-entropy repair).
    pub fn is_quarantined(&self) -> bool {
        self.repair.refuses()
    }

    /// Tripwire for the chaos oracle: every serving send site calls this.
    /// A quarantined replica must have refused long before reaching one.
    fn note_serving(&mut self) {
        if self.repair.refuses() {
            self.stats.served_while_quarantined += 1;
        }
    }

    /// Hosted suites in deterministic order, each with its peers.
    fn hosted(&self) -> Few<(ObjectId, Sites), HOSTED_IN_PLACE> {
        let mut suites: Few<ObjectId, HOSTED_IN_PLACE> = self.configs.keys().copied().collect();
        suites.sort_unstable();
        suites.iter().map(|&s| (s, self.peers_of(s))).collect()
    }

    /// The other representatives of `suite`, strong and weak alike.
    fn peers_of(&self, suite: ObjectId) -> Sites {
        let entries = self.configs.get(&suite).map(|cfg| cfg.assignment.entries());
        let sites = entries.into_iter().flatten().map(|(site, _)| *site);
        sites.filter(|&s| s != self.site).collect()
    }

    /// Sends one anti-entropy pull, announcing the version already held.
    fn pull(&mut self, (suite, peer, full): Pull, ctx: &mut NodeCtx<'_, Msg>) {
        self.stats.repair_probes += 1;
        let have = self.data_version(suite);
        let kind = SpanKind::RepairPull;
        (self.recorder).event(kind, suite.0, 0, Some(peer.0), have.0, ctx.now());
        ctx.send(peer, Msg::RepairPull { suite, have, full });
    }

    /// Compacts the log once it reaches the threshold. Every path that
    /// appends to the container ends here, so the log is bounded by live
    /// state whichever mix of traffic a representative sees — a weak one
    /// only ever sees refreshes, a contended one mostly aborts.
    fn maybe_checkpoint(&mut self) {
        if self.container.wal().len() >= CHECKPOINT_RECORDS {
            self.container.checkpoint().expect("server container is up");
            self.stats.checkpoints += 1;
        }
    }

    /// Installs `(version, value)` at `object` as one local transaction:
    /// state handed over by a peer or pushed at a weak representative, not
    /// voted on, so only if strictly newer and not under a commit lock.
    /// `None` when it is not newer; else whether it went in (a lock, or an
    /// injected I/O error keeping it off the log, keeps it out).
    fn install(&mut self, object: ObjectId, version: Version, value: Bytes) -> Option<bool> {
        let committed = self.container.read_version(object);
        if version <= committed.unwrap_or(Version::INITIAL) {
            return None;
        }
        if self.locks.holder(object).is_some() {
            return Some(false);
        }
        let Ok(tx) = self.container.begin() else {
            return Some(false);
        };
        self.container
            .stage_put(tx, object, version, value)
            .expect("stage into fresh tx");
        self.container.commit(tx).expect("commit local install");
        self.maybe_checkpoint();
        Some(true)
    }

    /// This server's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The committed version of a suite's data at this representative.
    pub fn data_version(&self, suite: ObjectId) -> Version {
        self.container
            .read_version(data_object(suite))
            .unwrap_or(Version::INITIAL)
    }

    /// The committed contents of a suite's data at this representative.
    pub fn data_value(&self, suite: ObjectId) -> Bytes {
        self.container
            .read(data_object(suite))
            .map(|vv| vv.value)
            .unwrap_or_default()
    }

    /// The configuration this server currently holds for `suite`.
    pub fn config(&self, suite: ObjectId) -> Option<&SuiteConfig> {
        self.configs.get(&suite)
    }

    /// Number of unresolved prepared writes (for tests).
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// Direct access to the container (tests and benches).
    pub fn container(&self) -> &Container {
        &self.container
    }

    fn generation_of(&self, suite: ObjectId) -> u64 {
        self.configs.get(&suite).map_or(0, |c| c.generation)
    }

    /// Whether `writes` were built against a configuration this server
    /// has since superseded. If so, tells `to` the generation it holds now
    /// for the first such entry.
    fn superseded(
        &mut self,
        to: SiteId,
        req: ReqId,
        writes: &[PrepareWrite],
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> bool {
        let Some((suite, generation)) = writes.iter().find_map(|pw| {
            let mine = self.generation_of(pw.suite);
            (pw.generation < mine).then_some((pw.suite, mine))
        }) else {
            return false;
        };
        self.stats.stale_config += 1;
        let stale = Msg::StaleConfig {
            suite,
            req,
            generation,
        };
        ctx.send(to, stale);
        true
    }

    /// Tells `to` this site will not serve `req`, and why.
    fn refuse(
        &mut self,
        to: SiteId,
        suite: ObjectId,
        req: ReqId,
        reason: RefuseReason,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        if reason == RefuseReason::Disk {
            self.stats.disk_refusals += 1;
        }
        ctx.send(to, Msg::Refused { suite, req, reason });
    }

    fn vote_no(&mut self, to: SiteId, suite: ObjectId, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        self.stats.votes_no += 1;
        ctx.send(
            to,
            Msg::PrepareVote {
                suite,
                req,
                vote: Vote::No,
                staged: Shared::default(),
            },
        );
    }

    fn vote_yes(&mut self, to: SiteId, suite: ObjectId, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        let staged = self
            .pending
            .get(&req)
            .map_or_else(Shared::default, |p| Shared::clone(&p.staged));
        self.note_serving();
        ctx.send(
            to,
            Msg::PrepareVote {
                suite,
                req,
                vote: Vote::Yes,
                staged,
            },
        );
    }

    /// Takes `req`'s commit locks in object order until it meets one that
    /// is held — `req` then stands in that object's line — or holds them
    /// all and is staged and voted on. Returns the objects whose locks
    /// this step released, for [`Self::hand_off`].
    fn collect(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) -> Vec<ObjectId> {
        loop {
            let Some(c) = self.collecting.get_mut(&req) else {
                return Vec::new();
            };
            let Some(object) = c.writes.get(c.held).map(|pw| pw.object) else {
                break;
            };
            // A lock released but not yet handed off (its line is still
            // being served) is not free: the table keeps it for the
            // oldest in line.
            match self.locks.lock(c.token, object, LockMode::Exclusive) {
                LockReply::Granted => c.held += 1,
                LockReply::Queued => return self.wait_in_line(req, object, ctx),
                // The no-wait ablation: never stand in line.
                LockReply::Aborted => return self.drop_collecting(req, true, ctx),
            }
        }
        let c = self.collecting.remove(&req).expect("present above");
        self.recorder.end(c.span, SpanOutcome::Ok, ctx.now());
        self.finish_prepare(c, ctx)
    }

    /// `req` stands in `object`'s line: tell the coordinator, and if
    /// `req` is older than the lock's holder make the younger give way.
    fn wait_in_line(
        &mut self,
        req: ReqId,
        object: ObjectId,
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> Vec<ObjectId> {
        let c = self.collecting.get_mut(&req).expect("caller holds it");
        let (from, token, suite) = (c.from, c.token, c.suite());
        if c.span.is_none() {
            let kind = SpanKind::LockWait;
            c.span = (self.recorder).start(kind, suite.0, req.0, Some(from.0), 0, ctx.now());
        }
        ctx.send(
            from,
            Msg::Busy {
                suite,
                req,
                give_way: false,
            },
        );
        let Some(holder) = self.locks.holder(object).filter(|h| token < *h) else {
            return Vec::new();
        };
        // Older waits for younger: the one edge a deadlock needs. A
        // holder still collecting here is waiting for another lock at
        // this very site and gives way on the spot; a staged one has
        // every lock it wants here, so only its coordinator knows whether
        // it waits anywhere else.
        let younger = ReqId(holder.id);
        if self.collecting.contains_key(&younger) {
            return self.drop_collecting(younger, true, ctx);
        }
        if let Some(p) = self.pending.get(&younger) {
            ctx.send(
                younger.coordinator(),
                Msg::Busy {
                    suite: p.suite,
                    req: younger,
                    give_way: true,
                },
            );
        }
        Vec::new()
    }

    /// Forgets a prepare that is still collecting: it leaves the line it
    /// stands in and gives back exactly the locks it holds — the reads
    /// held behind the lock it was waiting for belong to that lock's
    /// real holder. `vote_no` tells its coordinator so.
    fn drop_collecting(
        &mut self,
        req: ReqId,
        vote_no: bool,
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> Vec<ObjectId> {
        let Some(c) = self.collecting.remove(&req) else {
            return Vec::new();
        };
        if let Some(pw) = c.writes.get(c.held) {
            self.locks.leave(c.token, pw.object);
        }
        self.recorder.end(c.span, SpanOutcome::Conflict, ctx.now());
        if vote_no {
            self.vote_no(c.from, c.suite(), req, ctx);
        }
        self.locks.release_all(c.token)
    }

    /// Completes a prepare that holds all its locks: re-check what may
    /// have changed while it waited, assign the versions, stage every
    /// entry into one atomic transaction, promise, vote. A prepare that
    /// cannot be staged gives its locks back (returned for
    /// [`Self::hand_off`]).
    fn finish_prepare(&mut self, c: Collecting, ctx: &mut NodeCtx<'_, Msg>) -> Vec<ObjectId> {
        let (suite, req) = (c.suite(), ReqId(c.token.id));
        let unlock = |s: &mut Self| s.locks.release_all(c.token);
        // The generation is checked again now that the locks are held,
        // not only when the prepare arrived: a write that waited behind a
        // reconfiguration was planned on the superseded geometry, and
        // re-basing its version would hide exactly the conflict the
        // reconfiguration's version bump exists to raise.
        if self.superseded(c.from, req, &c.writes, ctx) {
            return unlock(self);
        }
        // The version is assigned under the lock. A blind install takes
        // the first free ones at or above the floor its client carried —
        // as many as its train has members, ending at the one staged — so
        // it is never stale; a reconfiguration's versions are exact, and
        // one a concurrent writer already installed votes no — voting yes
        // would let the coordinator regress it.
        let mut staged: Few<(ObjectId, Version), 4> = Few::default();
        for pw in c.writes.iter() {
            let committed = self
                .container
                .read_version(pw.object)
                .unwrap_or(Version::INITIAL);
            if c.rebase {
                let free = committed.0 + u64::from(pw.span);
                staged.push((pw.object, pw.version.max(Version(free))));
            } else if pw.version <= committed {
                self.vote_no(c.from, suite, req, ctx);
                return unlock(self);
            } else {
                staged.push((pw.object, pw.version));
            }
        }
        // One slice, which the vote shares.
        let staged = Shared::from(&staged[..]);
        let Ok(tx) = self.container.begin() else {
            // An injected I/O error kept the prepare record off the log.
            // Nothing was promised; release the locks and tell the
            // coordinator the disk (not the data) said no.
            self.refuse(c.from, suite, req, RefuseReason::Disk, ctx);
            return unlock(self);
        };
        for (pw, (_, version)) in c.writes.iter().zip(staged.iter()) {
            self.container
                .stage_put(tx, pw.object, *version, pw.value.clone())
                .expect("stage into fresh tx");
        }
        self.container
            .prepare_with_note_unflushed(tx, req.0)
            .expect("prepare fresh tx");
        let (kind, version) = (SpanKind::WalWrite, staged.first().map_or(0, |(_, v)| v.0));
        (self.recorder).event(kind, suite.0, req.0, Some(c.from.0), version, ctx.now());
        self.pending.insert(
            req,
            PendingWrite {
                tx,
                token: c.token,
                staged,
                suite,
            },
        );
        // The prepare record is still volatile; the yes vote (and the
        // decision-probe timer that guards it) waits for the sync.
        let to = c.from;
        self.defer(Deferred::Vote { to, suite, req }, ctx);
        Vec::new()
    }

    /// The commit locks of `freed` were just released: answer the reads
    /// held behind each from committed state — at this instant no decided
    /// write is hidden — and only then hand the lock to the oldest
    /// prepare in line, which goes on collecting. Whatever that releases
    /// in turn is handed off the same way.
    fn hand_off(&mut self, freed: Vec<ObjectId>, ctx: &mut NodeCtx<'_, Msg>) {
        let mut freed = VecDeque::from(freed);
        while let Some(object) = freed.pop_front() {
            while let Some(i) = self.held_reads.iter().position(|(o, _)| *o == object) {
                let (_, read) = self.held_reads.remove(i);
                self.answer_read(read, ctx);
            }
            let Some(next) = self.locks.hand_off(object) else {
                continue;
            };
            let req = ReqId(next.id);
            self.collecting
                .get_mut(&req)
                .expect("a prepare in line is collecting")
                .held += 1;
            let more = self.collect(req, ctx);
            freed.extend(&more);
            self.locks.recycle(more);
        }
        self.locks.recycle(freed.into());
    }

    /// Holds `read` behind the commit lock on its suite's data, if there
    /// is one; [`Self::hand_off`] answers it at the release.
    fn hold_if_locked(&mut self, read: HeldRead) -> bool {
        let object = data_object(read.suite);
        let locked = self.locks.holder(object).is_some();
        if locked {
            self.stats.busy += 1;
            self.held_reads.push((object, read));
        }
        locked
    }

    /// Answers a version inquiry or content read from committed state. An
    /// inquiry's answer carries the contents too when it named a threshold
    /// and the committed version reaches it.
    fn answer_read(&mut self, r: HeldRead, ctx: &mut NodeCtx<'_, Msg>) {
        let HeldRead {
            from,
            suite,
            req,
            contents,
            contents_from,
        } = r;
        self.note_serving();
        let msg = if contents {
            self.stats.reads += 1;
            let vv = self
                .container
                .read(data_object(suite))
                .expect("server container is up");
            Msg::ReadResp {
                suite,
                req,
                version: vv.version,
                value: vv.value,
            }
        } else {
            self.stats.inquiries += 1;
            let version = self.data_version(suite);
            let newer = contents_from.filter(|threshold| version >= *threshold);
            self.stats.reads += u64::from(newer.is_some());
            Msg::VersionResp {
                suite,
                req,
                version,
                generation: self.generation_of(suite),
                value: newer.map(|_| self.data_value(suite)),
            }
        };
        ctx.send(from, msg);
    }

    /// Queues a response behind the durable sync of its record: run now
    /// with no group-commit window, else on the window's timer.
    fn defer(&mut self, d: Deferred, ctx: &mut NodeCtx<'_, Msg>) {
        match self.sync.defer(d) {
            Then::Sync(batch) => self.run_sync(batch, ctx),
            Then::Arm(window) => ctx.set_timer(window, WAL_SYNC_TIMER_TAG),
            Then::Ride => {}
        }
    }

    /// One durable sync: a single WAL flush covers every record appended
    /// so far — prepares staged and commit decisions applied alike — and
    /// only then do the queued responses leave, in arrival order.
    fn run_sync(&mut self, mut batch: Vec<Deferred>, ctx: &mut NodeCtx<'_, Msg>) {
        self.container.flush().expect("server container is up");
        let mut applied = false;
        for d in batch.drain(..) {
            match d {
                Deferred::Vote { to, suite, req } => {
                    // Probe the coordinator if the decision takes too long.
                    ctx.set_timer(RESOLVE_AFTER, req.0);
                    self.vote_yes(to, suite, req, ctx);
                }
                Deferred::Ack { to, suite, req } => {
                    applied = true;
                    // The commit is durable: the vote's probe has nothing
                    // left to ask. (Not sooner — a crash before this flush
                    // puts the prepare back in doubt, probe and all.)
                    ctx.cancel_timer(req.0);
                    ack(to, suite, req, true, ctx);
                }
            }
        }
        // Nothing above queues anything.
        self.sync.restore(batch);
        // Only a finished transaction gives compaction anything to drop.
        if applied {
            self.maybe_checkpoint();
        }
    }

    /// Releases a staged prepare's commit locks and hands them off.
    fn unlock(&mut self, p: &PendingWrite, ctx: &mut NodeCtx<'_, Msg>) {
        let freed = self.locks.release_all(p.token);
        self.hand_off(freed, ctx);
    }

    /// Applies a commit decision to `req`'s staging, leaving the commit
    /// record for the sync that carries the ack, and returns the prepare
    /// for the caller to unlock; `None` when nothing is pending (a
    /// duplicate).
    ///
    /// `versions` is what the coordinator decided each object commits at:
    /// a lower staging is re-stamped first. A named version this site has
    /// *already committed* marks a replay — the network duplicated the
    /// prepare, it arrived after its write had finished here, was staged
    /// again one version up and is now answered from an unretired
    /// decision — and the staging is dropped, or old contents would
    /// reappear under a new version.
    fn install_decision(
        &mut self,
        req: ReqId,
        versions: &[(ObjectId, Version)],
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> Option<PendingWrite> {
        let p = self.pending.remove(&req)?;
        let named = |object: ObjectId| versions.iter().find(|(o, _)| *o == object).map(|(_, v)| *v);
        let replay = p.staged.iter().any(|(object, _)| {
            let committed = self.container.read_version(*object);
            named(*object).is_some_and(|v| v <= committed.unwrap_or(Version::INITIAL))
        });
        if replay {
            self.container.abort(p.tx).expect("abort prepared tx");
        } else {
            for (object, staged) in p.staged.iter() {
                if let Some(version) = named(*object).filter(|v| v != staged) {
                    self.container
                        .restamp(p.tx, *object, version)
                        .expect("restamp prepared tx");
                }
            }
            self.container
                .commit_unflushed(p.tx)
                .expect("commit prepared tx");
            for (object, _) in p.staged.iter() {
                if let Some(suite) = suite_of_config_object(*object) {
                    self.reload_config(suite);
                }
            }
            self.stats.commits += 1;
        }
        let applied = u64::from(!replay);
        (self.recorder).event(SpanKind::Apply, p.suite.0, req.0, None, applied, ctx.now());
        Some(p)
    }

    fn apply_abort(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        self.sync.purge(req);
        if let Some(p) = self.pending.remove(&req) {
            // The abort record is flushed here, so the probe is done.
            self.container.abort(p.tx).expect("abort prepared tx");
            ctx.cancel_timer(req.0);
            self.maybe_checkpoint();
            (self.recorder).event(SpanKind::Apply, p.suite.0, req.0, None, 0, ctx.now());
            self.stats.aborts += 1;
            self.unlock(&p, ctx);
        } else if self.collecting.contains_key(&req) {
            // Abort of a prepare still in line.
            self.stats.aborts += 1;
            let freed = self.drop_collecting(req, false, ctx);
            self.hand_off(freed, ctx);
        }
    }

    /// Installs a peer-supplied configuration object when strictly newer,
    /// and re-bases the quarantine ledger on the new peer set. A
    /// reconfiguration holding the object decides what supersedes it
    /// anyway; after an injected I/O error the next probe round retries.
    fn absorb_repair_config(&mut self, suite: ObjectId, version: Version, bytes: Bytes) {
        let Some(cfg) = SuiteConfig::decode(&bytes) else {
            return;
        };
        if self.install(config_object(suite), version, bytes) == Some(true) {
            self.configs.insert(suite, cfg);
            self.repair.rebase(suite, &self.peers_of(suite));
        }
    }

    fn reload_config(&mut self, suite: ObjectId) {
        if let Ok(vv) = self.container.read(config_object(suite)) {
            if let Some(cfg) = SuiteConfig::decode(&vv.value) {
                self.configs.insert(suite, cfg);
            }
        }
    }

    /// Handles one protocol message. Exposed so composite nodes can
    /// delegate.
    pub fn handle(&mut self, from: SiteId, msg: Msg, ctx: &mut NodeCtx<'_, Msg>) {
        match msg {
            Msg::VersionReq {
                suite,
                req,
                floor,
                contents_from,
            } => {
                let read = HeldRead {
                    from,
                    suite,
                    req,
                    contents: false,
                    contents_from,
                };
                self.serve_read(read, floor, ctx);
            }
            Msg::ReadReq { suite, req } => {
                let read = HeldRead {
                    from,
                    suite,
                    req,
                    contents: true,
                    contents_from: None,
                };
                self.serve_read(read, false, ctx);
            }
            Msg::ConfigReq { suite, req } => {
                if let Some(cfg) = self.configs.get(&suite) {
                    ctx.send(
                        from,
                        Msg::ConfigResp {
                            suite,
                            req,
                            config: cfg.clone(),
                        },
                    );
                }
            }
            Msg::UpdateWeak {
                suite,
                version,
                value,
            } => self.on_update_weak(suite, version, value),
            Msg::Prepare {
                req,
                writes,
                lock_ts,
                rebase,
            } => self.on_prepare(from, req, writes, lock_ts, rebase, ctx),
            Msg::Commit {
                suite,
                req,
                versions,
            } => self.on_commit(from, suite, req, versions, ctx),
            Msg::Abort { suite, req } => {
                self.apply_abort(req, ctx);
                ack(from, suite, req, false, ctx);
            }
            // Repair traffic about a suite this site does not host, and
            // client-bound messages a composite node may mis-route here, are
            // ignored.
            Msg::RepairPull { suite, have, full } if self.configs.contains_key(&suite) => {
                self.on_repair_pull(from, suite, have, full, ctx);
            }
            Msg::RepairState {
                suite,
                version,
                value,
                config,
            } if self.configs.contains_key(&suite) => {
                self.on_repair_state(from, suite, version, value, config, ctx);
            }
            _ => {}
        }
    }

    /// Serves a version inquiry (`floor` marks a writer's) or a content
    /// read: refused under quarantine, held behind a commit lock, or
    /// answered from committed state.
    fn serve_read(&mut self, read: HeldRead, floor: bool, ctx: &mut NodeCtx<'_, Msg>) {
        if self.repair.refuses() {
            let HeldRead {
                from, suite, req, ..
            } = read;
            self.refuse(from, suite, req, RefuseReason::Quarantined, ctx);
            return;
        }
        // An exclusive holder has a superseding version staged; answering a
        // reader with the committed one would let it assemble a quorum that
        // misses a decided write. Across a reconfiguration that is fatal: the
        // re-publication may be in doubt at exactly the representative
        // bridging the old and new quorum geometries. In the paper, obtaining
        // a version number and setting the read lock are one step; here the
        // reader waits for the release. A writer's inquiry only wants a floor
        // for the version it will be assigned under that same lock, and is
        // answered at once.
        if floor || !self.hold_if_locked(read) {
            self.answer_read(read, ctx);
        }
    }

    /// A fire-and-forget refresh pushed at a weak representative. An
    /// injected I/O error drops it; a later push retries.
    fn on_update_weak(&mut self, suite: ObjectId, version: Version, value: Bytes) {
        if self.install(data_object(suite), version, value) == Some(true) {
            self.stats.weak_updates += 1;
        }
    }

    /// Phase one of a commit: answer a prepare this site already knows
    /// from where it stands, else check it and start collecting its locks.
    fn on_prepare(
        &mut self,
        from: SiteId,
        req: ReqId,
        mut writes: Shared<PrepareWrite>,
        lock_ts: u64,
        rebase: bool,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        self.stats.prepares += 1;
        let suite = writes.first().map(|pw| pw.suite).unwrap_or(ObjectId(0));
        if self.repair.refuses() {
            self.refuse(from, suite, req, RefuseReason::Quarantined, ctx);
            return;
        }
        // A prepare this site already knows — the coordinator
        // re-asking, or a network duplicate — is answered from
        // where it stands and never staged or queued twice.
        if let Some(p) = self.pending.get(&req) {
            let suite = p.suite;
            // A vote still behind the sync leaves with the flush.
            if !self.sync.holds(req) {
                self.vote_yes(from, suite, req, ctx);
            }
            return;
        }
        if self.collecting.contains_key(&req) {
            // It stands where it stood, but the notices sent then
            // may have been lost: say it all again.
            let freed = self.collect(req, ctx);
            self.hand_off(freed, ctx);
            return;
        }
        // A re-ask about a prepare this site no longer knows: it
        // crashed since, and the line died with it.
        if writes.is_empty() {
            self.vote_no(from, suite, req, ctx);
            return;
        }
        // An injected sync stall holds the WAL device: the prepare
        // record could not become durable in time, so refuse up
        // front rather than promise on a stuck disk. Reads keep
        // serving — committed state is intact.
        if self.stall_until.is_some_and(|t| ctx.now() < t) {
            self.refuse(from, suite, req, RefuseReason::Disk, ctx);
            return;
        }
        // Configuration staleness check per entry, before waiting
        // for anything (and again once the locks are held).
        if self.superseded(from, req, &writes, ctx) {
            return;
        }
        // One global acquisition order within the site.
        if !writes.is_sorted_by_key(|pw| pw.object) {
            writes.make_mut().sort_by_key(|pw| pw.object);
        }
        self.collecting.insert(
            req,
            Collecting {
                from,
                token: TxToken::new(lock_ts, req.0),
                writes,
                rebase,
                held: 0,
                span: None,
            },
        );
        let freed = self.collect(req, ctx);
        self.hand_off(freed, ctx);
    }

    /// The coordinator decided commit: apply and release now, ack once the
    /// commit record is durable.
    ///
    /// The commit locks are handed on *at apply*: the decision is final
    /// whatever happens to this site, so the reads held behind the lock
    /// and the next prepare in line need not wait out the flush. What
    /// they see is not yet durable here, and that is safe because the ack
    /// is: until it leaves the coordinator keeps the decision, a crash in
    /// between recovers this site with its durable prepare record — in
    /// doubt, the lock re-taken before it serves anything — and its probe
    /// is answered `Commit` again. A prepare granted off this release
    /// stages above the applied version and rides the same flush.
    fn on_commit(
        &mut self,
        from: SiteId,
        suite: ObjectId,
        req: ReqId,
        versions: Shared<(ObjectId, Version)>,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        if let Some(p) = self.install_decision(req, &versions, ctx) {
            self.unlock(&p, ctx);
        }
        // Idempotent ack either way: a duplicate commit means the decision
        // was commit — but the first one's record may still be volatile.
        let to = from;
        self.defer(Deferred::Ack { to, suite, req }, ctx);
    }

    /// An anti-entropy pull: answer a stale or rebuilding peer with
    /// committed state.
    fn on_repair_pull(
        &mut self,
        from: SiteId,
        suite: ObjectId,
        have: Version,
        full: bool,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let version = self.data_version(suite);
        let in_doubt = self.pending.values().any(|p| p.suite == suite);
        if !self.repair.answers(full, version > have, in_doubt) {
            return;
        }
        self.stats.repair_serves += 1;
        // A full pull rebuilds a replica that may have lost everything,
        // geometry included: ship the committed configuration object
        // alongside the data so the puller rejoins under the current
        // quorum assignment rather than whatever generation its seed
        // manifest remembers.
        let config = if full {
            self.container
                .read(config_object(suite))
                .ok()
                .map(|vv| (vv.version, vv.value))
        } else {
            None
        };
        ctx.send(
            from,
            Msg::RepairState {
                suite,
                version,
                value: self.data_value(suite),
                config,
            },
        );
    }

    /// A peer's answer to a repair pull: absorb what is strictly newer.
    fn on_repair_state(
        &mut self,
        from: SiteId,
        suite: ObjectId,
        version: Version,
        value: Bytes,
        config: Option<(Version, Bytes)>,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        // Absorb the peer's configuration first: if this replica rejoined on
        // its seed manifest after losing the log, the data below must be
        // judged under the current geometry, and the quarantine ledger must
        // drain against the current peer set, not the manifest's.
        if let Some((cfg_version, cfg_bytes)) = config {
            self.absorb_repair_config(suite, cfg_version, cfg_bytes);
        }
        // The sender only ships committed state, so repair can neither
        // resurrect an undecided write nor regress a version.
        match self.install(data_object(suite), version, value) {
            // Already at or past the peer's state.
            None => {}
            // An in-doubt transaction holds the object, or an injected I/O
            // error kept it off the log: the peer stays on the pending
            // list, and the next probe round pulls again.
            Some(false) => return,
            Some(true) => {
                self.stats.repairs_completed += 1;
                let kind = SpanKind::RepairInstall;
                (self.recorder).event(kind, suite.0, 0, Some(from.0), version.0, ctx.now());
            }
        }
        if let Some(span) = self.repair.confirm(suite, from) {
            self.stats.requarantine_repairs += 1;
            self.recorder.end(span, SpanOutcome::Ok, ctx.now());
            // Healed: a fresh gossip epoch resumes normal probing.
            self.start_anti_entropy(ctx);
        }
    }

    /// Timer callback: an anti-entropy tick, a group-commit sync, or a
    /// probe of the coordinator about an unresolved prepared write. A crash
    /// takes the site's timers with it: none that fires predates one.
    pub fn handle_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, Msg>) {
        match token {
            REPAIR_TIMER_TAG => {
                let hosted = self.hosted();
                if let Some((interval, pulls)) = self.repair.tick(&hosted) {
                    for &pull in &pulls {
                        self.pull(pull, ctx);
                    }
                    ctx.set_timer(interval, token);
                }
            }
            WAL_SYNC_TIMER_TAG => {
                if let Some(batch) = self.sync.fire(&mut self.stats) {
                    // A batch can span suites; the flush itself is suite 0
                    // (not scoped), with the absorbed-suite count in the
                    // server stats.
                    let records = batch.len() as u64;
                    (self.recorder).event(SpanKind::WalBatch, 0, 0, None, records, ctx.now());
                    self.run_sync(batch, ctx);
                }
            }
            _ => {
                let req = ReqId(token);
                if let Some(p) = self.pending.get(&req) {
                    probe(p.suite, req, ctx);
                }
            }
        }
    }

    /// Crash: volatile state is lost; the container keeps its durable log.
    pub fn handle_crash(&mut self) {
        self.container.crash();
        self.locks.clear();
        self.pending.clear();
        // The lines die with the site: held reads go unanswered, and a
        // waiting prepare's coordinator finds out when it re-asks.
        // Lock-wait spans stay open in the record; an open span at a
        // crashed site is itself evidence.
        self.collecting.clear();
        self.held_reads.clear();
        self.configs.clear();
        self.sync.crash();
        // A stalled device does not survive the restart.
        self.stall_until = None;
    }

    /// Recovery: replay the log, restore configurations, re-lock in-doubt
    /// transactions, and ask coordinators for their decisions.
    pub fn handle_recover(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        let outcome = self.container.recover();
        self.stats.recoveries += 1;
        self.stats.torn_truncations += u64::from(outcome.torn_tail);
        self.stats.corrupt_records_detected += outcome.lost_records;
        self.stats.poison_escapes += u64::from(outcome.poison_escaped);
        let replayed = outcome.replayed_records;
        (self.recorder).event(SpanKind::DiskRecovery, 0, 0, None, replayed, ctx.now());
        // Restore configuration cache from committed config objects.
        let config_suites: Vec<ObjectId> = self
            .container
            .objects()
            .filter_map(suite_of_config_object)
            .collect();
        for suite in config_suites {
            self.reload_config(suite);
        }
        // A hosted suite whose configuration object did not survive the
        // scan (corruption can truncate the log back past the bootstrap
        // records) falls back to the deployment manifest: without *some*
        // geometry the replica would not even know which peers to rebuild
        // from, and the quarantine below could never drain. The seed is
        // volatile state only — the healing full pulls install the peers'
        // current configuration durably, superseding it.
        for cfg in &self.seed_configs {
            self.configs.entry(cfg.suite).or_insert_with(|| cfg.clone());
        }
        // Interior corruption, unlike a torn tail, may have lost
        // acknowledged records. With no repair daemon the quarantine never
        // heals: the replica is as good as dead, the safe default.
        let hosted = self.hosted();
        if outcome.corrupt_interior {
            let (recorder, now, suites) = (&mut self.recorder, ctx.now(), hosted.len() as u64);
            let open = || recorder.start(SpanKind::Quarantine, 0, 0, None, suites, now);
            if self.repair.quarantine(&hosted, open) {
                self.stats.quarantines += 1;
            }
        }
        // Re-arm in-doubt transactions: take back their locks and ask the
        // coordinators how things ended.
        for (tx, note) in self.container.in_doubt_notes() {
            let req = ReqId(note);
            let token = TxToken::new(req.0, req.0);
            let staged = self.container.staged(tx);
            let Some(&(object, _)) = staged.first() else {
                continue;
            };
            for (obj, _) in &staged {
                // The lock table is empty at this point; grants are
                // unconditional.
                let reply = self.locks.lock(token, *obj, LockMode::Exclusive);
                debug_assert_eq!(reply, LockReply::Granted);
            }
            let suite = suite_of_config_object(object).unwrap_or(object);
            self.pending.insert(
                req,
                PendingWrite {
                    tx,
                    token,
                    staged: staged.into(),
                    suite,
                },
            );
            probe(suite, req, ctx);
        }
        // Catch up at once, without waiting for a client write, then
        // resume periodic gossip.
        for pull in self.repair.recovery(&hosted) {
            self.pull(pull, ctx);
        }
        self.start_anti_entropy(ctx);
    }
}

/// Acks the decision on `req` to its coordinator `to`, once it is durable.
fn ack(to: SiteId, suite: ObjectId, req: ReqId, committed: bool, ctx: &mut NodeCtx<'_, Msg>) {
    ctx.send(
        to,
        Msg::Ack {
            suite,
            req,
            committed,
        },
    );
}

/// Asks `req`'s coordinator how it ended, and arms the probe that asks
/// again if the answer is slow to come.
fn probe(suite: ObjectId, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
    ctx.send(req.coordinator(), Msg::DecisionReq { suite, req });
    ctx.set_timer(RESOLVE_AFTER, req.0);
}

impl Node for SuiteServer {
    type Msg = Msg;

    fn on_message(&mut self, from: SiteId, msg: Msg, ctx: &mut NodeCtx<'_, Msg>) {
        self.handle(from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, Msg>) {
        self.handle_timer(token, ctx);
    }

    fn on_crash(&mut self) {
        self.handle_crash();
    }

    fn on_recover(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        self.handle_recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::QuorumSpec;
    use crate::votes::VoteAssignment;
    use wv_sim::{DetRng, SimTime};

    fn test_config() -> SuiteConfig {
        SuiteConfig::new(
            ObjectId(1),
            VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
            QuorumSpec::new(2, 2),
        )
        .expect("legal")
    }

    fn server() -> SuiteServer {
        SuiteServer::new(SiteId(0), vec![test_config()], DeadlockPolicy::WaitDie)
    }

    fn ctx_pair(rng: &mut DetRng) -> NodeCtx<'_, Msg> {
        NodeCtx::new(SimTime::ZERO, SiteId(0), rng)
    }

    fn sent(ctx: &mut NodeCtx<'_, Msg>) -> Vec<(SiteId, Msg)> {
        ctx.take_effects()
            .into_iter()
            .filter_map(|e| match e {
                wv_net::node::Effect::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    const CLIENT: SiteId = SiteId(9);
    const SUITE: ObjectId = ObjectId(1);

    fn req(n: u64) -> ReqId {
        ReqId::new(n, CLIENT)
    }

    fn prepare_msg(r: ReqId, version: u64, value: &'static [u8]) -> Msg {
        Msg::Prepare {
            req: r,
            writes: vec![PrepareWrite {
                suite: SUITE,
                object: data_object(SUITE),
                version: Version(version),
                value: Bytes::from_static(value),
                generation: 1,
                span: 1,
            }]
            .into(),
            lock_ts: r.0,
            rebase: true,
        }
    }

    /// Delivers `msg` from the client and returns what the server sent.
    fn deliver(s: &mut SuiteServer, rng: &mut DetRng, msg: Msg) -> Vec<(SiteId, Msg)> {
        let mut ctx = ctx_pair(rng);
        s.handle(CLIENT, msg, &mut ctx);
        sent(&mut ctx)
    }

    /// The decision for `r`: the suite's data commits at `version`.
    fn commit_msg(r: ReqId, version: u64) -> Msg {
        Msg::Commit {
            suite: SUITE,
            req: r,
            versions: vec![(data_object(SUITE), Version(version))].into(),
        }
    }

    fn abort_msg(r: ReqId) -> Msg {
        Msg::Abort {
            suite: SUITE,
            req: r,
        }
    }

    /// The yes votes in `out`, as `(request, version staged for the data)`.
    fn yes_votes(out: &[(SiteId, Msg)]) -> Vec<(ReqId, u64)> {
        out.iter()
            .filter_map(|(_, m)| match m {
                Msg::PrepareVote {
                    req,
                    vote: Vote::Yes,
                    staged,
                    ..
                } => Some((*req, staged[0].1 .0)),
                _ => None,
            })
            .collect()
    }

    /// The `Busy` notices in `out`, as `(request, give_way)`.
    fn notices(out: &[(SiteId, Msg)]) -> Vec<(ReqId, bool)> {
        out.iter()
            .filter_map(|(_, m)| match m {
                Msg::Busy { req, give_way, .. } => Some((*req, *give_way)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn version_inquiry_answers_initial_state() {
        let mut s = server();
        let mut rng = DetRng::new(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::VersionReq {
                suite: SUITE,
                req: req(1),
                floor: false,
                contents_from: None,
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0].1,
            Msg::VersionResp { version, generation, .. }
                if *version == Version(0) && *generation == 1
        ));
        assert_eq!(s.stats.inquiries, 1);
    }

    #[test]
    fn prepare_commit_installs_new_version() {
        let mut s = server();
        let mut rng = DetRng::new(2);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"new"), &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::PrepareVote {
                vote: Vote::Yes,
                ..
            }
        ));
        // Not yet visible.
        assert_eq!(s.data_version(SUITE), Version(0));
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Commit {
                suite: SUITE,
                req: r,
                versions: Shared::default(),
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: true,
                ..
            }
        ));
        assert_eq!(s.data_version(SUITE), Version(1));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"new"));
        assert_eq!(s.pending_writes(), 0);
    }

    #[test]
    fn blind_installs_take_their_version_under_the_lock_and_exact_ones_can_be_stale() {
        let mut s = server();
        let mut rng = DetRng::new(3);
        let (r1, r2, r3) = (req(1), req(2), req(3));
        deliver(&mut s, &mut rng, prepare_msg(r1, 1, b"a"));
        deliver(&mut s, &mut rng, commit_msg(r1, 1));
        // A second writer whose inquiry still saw version 0 carries the
        // floor 1: it is staged one above what is committed, not refused.
        let out = deliver(&mut s, &mut rng, prepare_msg(r2, 1, b"b"));
        assert_eq!(yes_votes(&out), vec![(r2, 2)]);
        // A floor above the committed version is kept.
        deliver(&mut s, &mut rng, abort_msg(r2));
        let out = deliver(&mut s, &mut rng, prepare_msg(r2, 7, b"b"));
        assert_eq!(yes_votes(&out), vec![(r2, 7)]);
        deliver(&mut s, &mut rng, abort_msg(r2));
        // A reconfiguration re-publishes what it read: its version is
        // exact, and one somebody already installed votes no.
        let Msg::Prepare {
            writes, lock_ts, ..
        } = prepare_msg(r3, 1, b"c")
        else {
            unreachable!()
        };
        let exact = Msg::Prepare {
            req: r3,
            writes,
            lock_ts,
            rebase: false,
        };
        let out = deliver(&mut s, &mut rng, exact);
        assert!(matches!(&out[0].1, Msg::PrepareVote { vote: Vote::No, .. }));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"a"));
        assert_eq!(s.stats.votes_no, 1);
    }

    #[test]
    fn a_lagging_participants_vote_reports_its_version_and_its_commit_installs_the_named_one() {
        let mut s = server();
        let mut rng = DetRng::new(4);
        let r = req(1);
        let out = deliver(&mut s, &mut rng, prepare_msg(r, 1, b"late"));
        assert_eq!(yes_votes(&out), vec![(r, 1)]);
        // Another participant staged 3; the decision names it.
        let flushes = s.container.wal().flushes();
        deliver(&mut s, &mut rng, commit_msg(r, 3));
        assert_eq!(s.data_version(SUITE), Version(3));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"late"));
        assert_eq!(
            s.container.wal().flushes(),
            flushes + 1,
            "the re-stamp rides the commit"
        );
        // The re-stamped version is what the log replays.
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        assert_eq!(s.data_version(SUITE), Version(3));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"late"));
    }

    #[test]
    fn a_duplicate_prepare_after_its_write_finished_is_dropped_by_the_named_version() {
        let mut s = server();
        let mut rng = DetRng::new(5);
        let r = req(1);
        deliver(&mut s, &mut rng, prepare_msg(r, 1, b"once"));
        deliver(&mut s, &mut rng, commit_msg(r, 1));
        deliver(&mut s, &mut rng, prepare_msg(req(2), 2, b"twice"));
        deliver(&mut s, &mut rng, commit_msg(req(2), 2));
        // The network delivers a duplicate of the first prepare now. The
        // site no longer knows the request, so it is staged again, one
        // above what is committed.
        let out = deliver(&mut s, &mut rng, prepare_msg(r, 1, b"once"));
        assert_eq!(yes_votes(&out), vec![(r, 3)]);
        // Its decision is still unretired at the coordinator and answers
        // the probe with what was decided: version 1, long committed
        // here. Installing the staging would bring "once" back as
        // version 3.
        let commits = s.stats.commits;
        let out = deliver(&mut s, &mut rng, commit_msg(r, 1));
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: true,
                ..
            }
        ));
        assert_eq!(s.data_version(SUITE), Version(2));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"twice"));
        assert_eq!(s.pending_writes(), 0);
        assert_eq!(s.stats.commits, commits);
        // The lock is free again.
        let out = deliver(&mut s, &mut rng, prepare_msg(req(3), 1, b"next"));
        assert_eq!(yes_votes(&out), vec![(req(3), 3)]);
    }

    #[test]
    fn the_line_hands_the_lock_to_the_oldest_waiter_at_every_site() {
        // Two representatives, one holder, three waiters that reach the
        // two sites in different orders: both lines must hand the lock
        // off in the same order — oldest first — or the waiters would
        // end up holding one site each.
        let mut rng = DetRng::new(6);
        let holder = req(2);
        for arrivals in [[9, 5, 7], [7, 9, 5]] {
            let mut s = server();
            let out = deliver(&mut s, &mut rng, prepare_msg(holder, 1, b"h"));
            assert_eq!(yes_votes(&out), vec![(holder, 1)]);
            for n in arrivals {
                // The holder is older than every waiter: each is told it
                // stands in line, nobody is asked to give way.
                let out = deliver(&mut s, &mut rng, prepare_msg(req(n), 1, b"w"));
                assert_eq!(notices(&out), vec![(req(n), false)]);
                assert_eq!(out.len(), 1);
            }
            let mut order = Vec::new();
            let mut committing = (holder, 1);
            for _ in 0..3 {
                let out = deliver(&mut s, &mut rng, commit_msg(committing.0, committing.1));
                let granted = yes_votes(&out);
                assert_eq!(granted.len(), 1, "one release, one grant: {out:?}");
                committing = granted[0];
                order.push(committing);
            }
            assert_eq!(order, vec![(req(5), 2), (req(7), 3), (req(9), 4)]);
        }
    }

    #[test]
    fn an_older_prepare_makes_a_younger_holder_give_way() {
        let cfg2 = SuiteConfig::new(
            ObjectId(2),
            VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
            QuorumSpec::new(2, 2),
        )
        .expect("legal");
        let configs = vec![test_config(), cfg2];
        let mut s = SuiteServer::new(SiteId(0), configs, DeadlockPolicy::WaitDie);
        let mut rng = DetRng::new(7);
        let write = |suite: u64| PrepareWrite {
            suite: ObjectId(suite),
            object: data_object(ObjectId(suite)),
            version: Version(1),
            value: Bytes::from_static(b"v"),
            generation: 1,
            span: 1,
        };
        let prepare = |r: ReqId, suites: &[u64]| Msg::Prepare {
            req: r,
            writes: suites.iter().map(|&su| write(su)).collect(),
            lock_ts: r.counter(),
            rebase: true,
        };
        // Suite 2 is held by an old transaction; a young one takes suite
        // 1 and stands in suite 2's line: it is still collecting.
        let (old, young, older) = (req(2), req(5), req(1));
        deliver(&mut s, &mut rng, prepare(old, &[2]));
        let out = deliver(&mut s, &mut rng, prepare(young, &[2, 1]));
        assert_eq!(notices(&out), vec![(young, false)]);
        // An older prepare wants suite 1. Waiting behind a holder that is
        // itself waiting at this very site could deadlock, so the young
        // one is aborted on the spot with a no vote and the lock goes to
        // the older one at once.
        let out = deliver(&mut s, &mut rng, prepare(older, &[1]));
        assert!(out.iter().any(|(_, m)| matches!(
            m,
            Msg::PrepareVote { req, vote: Vote::No, .. } if *req == young
        )));
        assert_eq!(yes_votes(&out), vec![(older, 1)]);
        // The young prepare left suite 2's line too: releasing suite 2
        // grants nothing.
        let out = deliver(
            &mut s,
            &mut rng,
            Msg::Abort {
                suite: ObjectId(2),
                req: old,
            },
        );
        assert!(yes_votes(&out).is_empty());
        assert_eq!(s.pending_writes(), 1);
        // A holder that has everything it wants here is staged, and only
        // its coordinator knows whether it waits anywhere else: it gets a
        // notice and stays prepared.
        let oldest = ReqId::new(0, CLIENT);
        let out = deliver(&mut s, &mut rng, prepare(oldest, &[1]));
        assert_eq!(notices(&out), vec![(oldest, false), (older, true)]);
        assert_eq!(s.pending_writes(), 1);
        assert!(yes_votes(&out).is_empty());
        // A younger arrival asks nothing of the holder.
        let out = deliver(&mut s, &mut rng, prepare(req(8), &[1]));
        assert_eq!(notices(&out), vec![(req(8), false)]);
    }

    #[test]
    fn a_lock_freed_but_awaited_goes_to_the_oldest_in_line_not_to_whoever_asks_first() {
        let suite2 = ObjectId(2);
        let mut cfg2 = test_config();
        cfg2.suite = suite2;
        let mut s = SuiteServer::new(
            SiteId(0),
            vec![test_config(), cfg2],
            DeadlockPolicy::WaitDie,
        );
        let mut rng = DetRng::new(17);
        let prepare = |r: ReqId, suites: &[ObjectId]| Msg::Prepare {
            req: r,
            writes: suites
                .iter()
                .map(|&suite| PrepareWrite {
                    suite,
                    object: data_object(suite),
                    version: Version(1),
                    value: Bytes::from_static(b"v"),
                    generation: 1,
                    span: 1,
                })
                .collect(),
            lock_ts: r.counter(),
            rebase: true,
        };
        // One transaction holds both suites. A young prepare wants both
        // and stands in suite 1's line; an older one wants suite 2 only.
        let (holder, young, older) = (req(1), req(5), req(3));
        let out = deliver(&mut s, &mut rng, prepare(holder, &[SUITE, suite2]));
        assert_eq!(yes_votes(&out), vec![(holder, 1)]);
        let out = deliver(&mut s, &mut rng, prepare(young, &[SUITE, suite2]));
        assert_eq!(notices(&out), vec![(young, false)]);
        let out = deliver(&mut s, &mut rng, prepare(older, &[suite2]));
        assert_eq!(notices(&out), vec![(older, false)]);
        // The commit frees both locks at once. Suite 1 is handed off
        // first and the young prepare goes on to ask for suite 2 before
        // that one is: it is free, but owed to the older prepare in its
        // line, so the young one stands behind it.
        let out = deliver(
            &mut s,
            &mut rng,
            Msg::Commit {
                suite: SUITE,
                req: holder,
                versions: vec![
                    (data_object(SUITE), Version(1)),
                    (data_object(suite2), Version(1)),
                ]
                .into(),
            },
        );
        assert_eq!(notices(&out), vec![(young, false)]);
        assert_eq!(yes_votes(&out), vec![(older, 2)]);
        // Only the older prepare's commit lets the young one have it.
        let out = deliver(
            &mut s,
            &mut rng,
            Msg::Commit {
                suite: suite2,
                req: older,
                versions: vec![(data_object(suite2), Version(2))].into(),
            },
        );
        assert_eq!(yes_votes(&out), vec![(young, 2)]);
        assert_eq!(s.pending_writes(), 1);
    }

    #[test]
    fn no_wait_votes_no_instead_of_joining_a_line() {
        let mut s = SuiteServer::new(SiteId(0), vec![test_config()], DeadlockPolicy::NoWait);
        let mut rng = DetRng::new(8);
        deliver(&mut s, &mut rng, prepare_msg(req(5), 1, b"held"));
        for n in [1, 9] {
            let out = deliver(&mut s, &mut rng, prepare_msg(req(n), 1, b"w"));
            assert!(matches!(&out[0].1, Msg::PrepareVote { vote: Vote::No, .. }));
            assert_eq!(out.len(), 1);
        }
        let out = deliver(&mut s, &mut rng, commit_msg(req(5), 1));
        assert!(yes_votes(&out).is_empty(), "nobody waited");
    }

    fn read_msg(n: u64) -> Msg {
        Msg::ReadReq {
            suite: SUITE,
            req: req(n),
        }
    }

    fn inquiry_msg(n: u64, floor: bool) -> Msg {
        Msg::VersionReq {
            suite: SUITE,
            req: req(n),
            floor,
            contents_from: None,
        }
    }

    #[test]
    fn held_reads_are_answered_at_the_release_before_the_next_grant() {
        let mut s = server();
        let mut rng = DetRng::new(9);
        deliver(&mut s, &mut rng, prepare_msg(req(1), 1, b"x"));
        // A read and a reader's inquiry meet the commit lock: the
        // committed version is about to be superseded, and serving it
        // would let a reader build a quorum that misses the staged write
        // (fatal across a reconfiguration, where quorum geometry changes
        // underneath it). They are held, not turned away.
        assert!(deliver(&mut s, &mut rng, read_msg(10)).is_empty());
        assert!(deliver(&mut s, &mut rng, inquiry_msg(11, false)).is_empty());
        assert_eq!(s.stats.busy, 2);
        // A writer's inquiry only wants a floor and is answered at once.
        let out = deliver(&mut s, &mut rng, inquiry_msg(12, true));
        assert!(matches!(
            &out[0].1,
            Msg::VersionResp { version, .. } if *version == Version(0)
        ));
        assert_eq!(s.stats.busy, 2);
        deliver(&mut s, &mut rng, prepare_msg(req(2), 1, b"y"));
        // The release answers both from the just-committed state, and
        // only then grants the lock to the prepare in line.
        let out = deliver(&mut s, &mut rng, commit_msg(req(1), 1));
        assert!(matches!(
            &out[0].1,
            Msg::ReadResp { req: r, version, .. } if *r == req(10) && *version == Version(1)
        ));
        assert!(matches!(
            &out[1].1,
            Msg::VersionResp { req: r, version, .. } if *r == req(11) && *version == Version(1)
        ));
        assert_eq!(yes_votes(&out[2..]), vec![(req(2), 2)]);
        assert_eq!((s.stats.reads, s.stats.inquiries), (1, 2));
        // The next holder hides the next write the same way; an abort
        // releases the reads with what was committed before.
        assert!(deliver(&mut s, &mut rng, read_msg(13)).is_empty());
        let out = deliver(&mut s, &mut rng, abort_msg(req(2)));
        assert!(matches!(
            &out[0].1,
            Msg::ReadResp { req: r, version, .. } if *r == req(13) && *version == Version(1)
        ));
        assert!(matches!(
            &deliver(&mut s, &mut rng, read_msg(14))[0].1,
            Msg::ReadResp { .. }
        ));
    }

    #[test]
    fn a_release_answers_the_reads_held_behind_its_own_lock_only() {
        let other = ObjectId(2);
        let cfg = |suite| SuiteConfig::new(suite, test_config().assignment, QuorumSpec::new(2, 2));
        let configs = vec![test_config(), cfg(other).expect("legal")];
        let mut s = SuiteServer::new(SiteId(0), configs, DeadlockPolicy::WaitDie);
        let mut rng = DetRng::new(12);
        let prepare = |n, suite| Msg::Prepare {
            req: req(n),
            writes: Shared::from([PrepareWrite {
                suite,
                object: data_object(suite),
                version: Version(1),
                value: Bytes::from_static(b"x"),
                generation: 1,
                span: 1,
            }]),
            lock_ts: req(n).0,
            rebase: true,
        };
        let read = |n, suite| Msg::ReadReq { suite, req: req(n) };
        deliver(&mut s, &mut rng, prepare(1, SUITE));
        deliver(&mut s, &mut rng, prepare(2, other));
        // One read held behind each lock, in turn.
        for n in [10, 12] {
            assert!(deliver(&mut s, &mut rng, read(n, SUITE)).is_empty());
            assert!(deliver(&mut s, &mut rng, read(n + 1, other)).is_empty());
        }
        let commit = |n, suite| Msg::Commit {
            suite,
            req: req(n),
            versions: Shared::from([(data_object(suite), Version(1))]),
        };
        let answered = |out: &[(SiteId, Msg)]| -> Vec<u64> {
            let reads = out.iter().filter_map(|(_, m)| match m {
                Msg::ReadResp { req, .. } => Some(req.counter()),
                _ => None,
            });
            reads.collect()
        };
        // Each release answers its own suite's reads, in arrival order.
        assert_eq!(
            answered(&deliver(&mut s, &mut rng, commit(2, other))),
            [11, 13]
        );
        assert_eq!(
            answered(&deliver(&mut s, &mut rng, commit(1, SUITE))),
            [10, 12]
        );
    }

    fn conditional_inquiry(n: u64, from: u64) -> Msg {
        Msg::VersionReq {
            suite: SUITE,
            req: req(n),
            floor: false,
            contents_from: Some(Version(from)),
        }
    }

    /// The version and, if any, the contents of the one answer in `out`.
    fn version_answer(out: &[(SiteId, Msg)]) -> (u64, Option<&[u8]>) {
        match out {
            [(_, Msg::VersionResp { version, value, .. })] => (version.0, value.as_deref()),
            other => panic!("not one version answer: {other:?}"),
        }
    }

    #[test]
    fn an_inquiry_gets_the_contents_too_from_the_version_it_names() {
        let mut s = server();
        let mut rng = DetRng::new(31);
        install(&mut s, 3, b"three");
        // The reader holds v3 already (asks from v4): a bare version answer.
        let out = deliver(&mut s, &mut rng, conditional_inquiry(10, 4));
        assert_eq!(version_answer(&out), (3, None));
        // It holds v2, or nothing at all: the contents come along.
        let out = deliver(&mut s, &mut rng, conditional_inquiry(11, 3));
        assert_eq!(version_answer(&out), (3, Some(&b"three"[..])));
        let out = deliver(&mut s, &mut rng, conditional_inquiry(12, 0));
        assert_eq!(version_answer(&out), (3, Some(&b"three"[..])));
        // Nobody who did not ask is sent any.
        let out = deliver(&mut s, &mut rng, inquiry_msg(13, false));
        assert_eq!(version_answer(&out), (3, None));
        assert_eq!((s.stats.reads, s.stats.inquiries), (2, 4));
    }

    #[test]
    fn a_conditional_inquiry_held_behind_a_commit_lock_is_judged_at_the_release() {
        // The reader holds v0 and asks from v1 while v1 is staged here. On
        // arrival the committed version is still 0 — below the threshold,
        // and about to be superseded: the inquiry is held like any
        // reader's, and both the version and whether the contents go with
        // it are read when the lock is released.
        let mut s = server();
        let mut rng = DetRng::new(32);
        deliver(&mut s, &mut rng, prepare_msg(req(1), 1, b"decided"));
        assert!(deliver(&mut s, &mut rng, conditional_inquiry(10, 1)).is_empty());
        let out = deliver(&mut s, &mut rng, commit_msg(req(1), 1));
        assert_eq!(version_answer(&out[..1]), (1, Some(&b"decided"[..])));
        // An abort releases it with what was committed before: still
        // nothing the reader lacks.
        deliver(&mut s, &mut rng, prepare_msg(req(2), 2, b"dropped"));
        assert!(deliver(&mut s, &mut rng, conditional_inquiry(11, 2)).is_empty());
        let out = deliver(&mut s, &mut rng, abort_msg(req(2)));
        assert_eq!(version_answer(&out[..1]), (1, None));
    }

    #[test]
    fn a_prepare_aborted_in_line_releases_only_what_it_held() {
        let mut s = server();
        let mut rng = DetRng::new(10);
        deliver(&mut s, &mut rng, prepare_msg(req(1), 1, b"x"));
        assert!(deliver(&mut s, &mut rng, read_msg(10)).is_empty());
        deliver(&mut s, &mut rng, prepare_msg(req(2), 1, b"y"));
        // The waiter gives up. It held nothing: the read stays held
        // behind the real holder, whose write may be decided already.
        let out = deliver(&mut s, &mut rng, abort_msg(req(2)));
        assert_eq!(out.len(), 1, "the ack and nothing else: {out:?}");
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: false,
                ..
            }
        ));
        assert_eq!(s.stats.aborts, 1);
        let out = deliver(&mut s, &mut rng, commit_msg(req(1), 1));
        assert!(matches!(
            &out[0].1,
            Msg::ReadResp { version, .. } if *version == Version(1)
        ));
        assert!(
            yes_votes(&out).is_empty(),
            "the aborted prepare left the line"
        );
    }

    #[test]
    fn the_generation_is_checked_again_when_the_lock_is_granted() {
        let mut s = server();
        let cfg2 = s
            .config(SUITE)
            .expect("configured")
            .evolve(
                VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
                QuorumSpec::new(1, 3),
            )
            .expect("legal");
        let mut rng = DetRng::new(11);
        // A reconfiguration holds the suite: the new configuration plus
        // the contents re-published one version up.
        let reconf = req(1);
        let republish = |object: ObjectId, version: u64, value: Bytes| PrepareWrite {
            suite: SUITE,
            object,
            version: Version(version),
            value,
            generation: 1,
            span: 1,
        };
        let msg = Msg::Prepare {
            req: reconf,
            writes: vec![
                republish(
                    config_object(SUITE),
                    cfg2.generation,
                    Bytes::from(cfg2.encode()),
                ),
                republish(data_object(SUITE), 1, Bytes::new()),
            ]
            .into(),
            lock_ts: reconf.counter(),
            rebase: false,
        };
        assert!(!yes_votes(&deliver(&mut s, &mut rng, msg)).is_empty());
        // A write planned on generation 1 arrives while that is still the
        // generation in force, and waits.
        let out = deliver(&mut s, &mut rng, prepare_msg(req(2), 1, b"old geometry"));
        assert_eq!(notices(&out), vec![(req(2), false)]);
        // The reconfiguration commits. The waiting write would re-base
        // above its bump and commit at a write quorum of the superseded
        // geometry; the check at the grant sends it back for the new one.
        let out = deliver(
            &mut s,
            &mut rng,
            Msg::Commit {
                suite: SUITE,
                req: reconf,
                versions: vec![
                    (data_object(SUITE), Version(1)),
                    (config_object(SUITE), Version(2)),
                ]
                .into(),
            },
        );
        assert!(out.iter().any(|(_, m)| matches!(
            m,
            Msg::StaleConfig { req: r, generation: 2, .. } if *r == req(2)
        )));
        assert!(yes_votes(&out).is_empty());
        assert_eq!((s.stats.stale_config, s.pending_writes()), (1, 0));
        // It gave the lock back.
        let mut fresh = prepare_msg(req(3), 1, b"new geometry");
        if let Msg::Prepare { writes, .. } = &mut fresh {
            writes.make_mut()[0].generation = 2;
        }
        assert_eq!(
            yes_votes(&deliver(&mut s, &mut rng, fresh)),
            vec![(req(3), 2)]
        );
    }

    /// What the coordinator sends when it re-asks about `r`.
    fn reask_msg(r: ReqId) -> Msg {
        Msg::Prepare {
            req: r,
            writes: Shared::default(),
            lock_ts: r.0,
            rebase: true,
        }
    }

    #[test]
    fn a_reask_is_answered_from_where_the_prepare_stands_and_a_crash_drops_the_lines() {
        let mut s = server();
        let mut rng = DetRng::new(12);
        deliver(&mut s, &mut rng, prepare_msg(req(1), 1, b"held"));
        deliver(&mut s, &mut rng, prepare_msg(req(2), 1, b"waits"));
        assert!(deliver(&mut s, &mut rng, read_msg(10)).is_empty());
        // Staged: the vote again. In line: still in line, and not twice.
        assert_eq!(
            yes_votes(&deliver(&mut s, &mut rng, reask_msg(req(1)))),
            vec![(req(1), 1)]
        );
        assert_eq!(
            notices(&deliver(&mut s, &mut rng, reask_msg(req(2)))),
            vec![(req(2), false)]
        );
        assert_eq!(s.stats.prepares, 4);
        // The site crashes. The promise survives; the line, and the read
        // held behind the lock, do not.
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        let _ = sent(&mut ctx);
        assert_eq!(
            yes_votes(&deliver(&mut s, &mut rng, reask_msg(req(1)))),
            vec![(req(1), 1)]
        );
        let out = deliver(&mut s, &mut rng, reask_msg(req(2)));
        assert!(matches!(&out[0].1, Msg::PrepareVote { vote: Vote::No, .. }));
        let out = deliver(&mut s, &mut rng, commit_msg(req(1), 1));
        assert_eq!(out.len(), 1, "nothing was waiting any more: {out:?}");
    }

    #[test]
    fn the_lock_wait_span_covers_the_time_in_line() {
        let mut s = server();
        s.enable_tracing();
        let mut rng = DetRng::new(13);
        deliver(&mut s, &mut rng, prepare_msg(req(1), 1, b"x"));
        deliver(&mut s, &mut rng, prepare_msg(req(2), 1, b"y"));
        deliver(&mut s, &mut rng, prepare_msg(req(3), 1, b"z"));
        let mut ctx = ctx_at(SimTime::from_millis(40), &mut rng);
        s.handle(CLIENT, commit_msg(req(1), 1), &mut ctx);
        let mut ctx = ctx_at(SimTime::from_millis(50), &mut rng);
        s.handle(CLIENT, abort_msg(req(3)), &mut ctx);
        let waits: Vec<(u64, Option<u64>, SpanOutcome)> = s
            .take_trace()
            .iter()
            .filter(|sp| sp.kind == SpanKind::LockWait)
            .map(|sp| (sp.op, sp.duration_us(), sp.outcome))
            .collect();
        assert_eq!(
            waits,
            vec![
                (req(2).0, Some(40_000), SpanOutcome::Ok),
                (req(3).0, Some(50_000), SpanOutcome::Conflict),
            ]
        );
    }

    #[test]
    fn older_writer_resumes_with_yes_after_abort() {
        let mut s = server();
        let mut rng = DetRng::new(7);
        let younger = req(5);
        let older = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(younger, 1, b"young"), &mut ctx);
        let _ = sent(&mut ctx);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(older, 1, b"old"), &mut ctx);
        let _ = sent(&mut ctx);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Abort {
                suite: SUITE,
                req: younger,
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(out.iter().any(|(_, m)| matches!(
            m,
            Msg::PrepareVote { vote: Vote::Yes, req, .. } if *req == older
        )));
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Commit {
                suite: SUITE,
                req: older,
                versions: Shared::default(),
            },
            &mut ctx,
        );
        let _ = sent(&mut ctx);
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"old"));
    }

    #[test]
    fn weak_update_is_monotonic() {
        let mut s = server();
        let mut rng = DetRng::new(8);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::UpdateWeak {
                suite: SUITE,
                version: Version(3),
                value: Bytes::from_static(b"v3"),
            },
            &mut ctx,
        );
        assert_eq!(s.data_version(SUITE), Version(3));
        // A stale update must not regress.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::UpdateWeak {
                suite: SUITE,
                version: Version(2),
                value: Bytes::from_static(b"v2"),
            },
            &mut ctx,
        );
        assert_eq!(s.data_version(SUITE), Version(3));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"v3"));
        assert_eq!(s.stats.weak_updates, 1);
    }

    #[test]
    fn stale_generation_prepare_is_rejected() {
        let mut s = server();
        // Install generation 2 directly.
        let cfg2 = s
            .config(SUITE)
            .expect("configured")
            .evolve(
                VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
                QuorumSpec::new(1, 3),
            )
            .expect("legal");
        let mut rng = DetRng::new(9);
        let r0 = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Prepare {
                req: r0,
                writes: vec![PrepareWrite {
                    suite: SUITE,
                    object: config_object(SUITE),
                    version: Version(cfg2.generation),
                    value: Bytes::from(cfg2.encode()),
                    generation: 1,
                    span: 1,
                }]
                .into(),
                lock_ts: r0.0,
                rebase: false,
            },
            &mut ctx,
        );
        let _ = sent(&mut ctx);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Commit {
                suite: SUITE,
                req: r0,
                versions: Shared::default(),
            },
            &mut ctx,
        );
        let _ = sent(&mut ctx);
        assert_eq!(s.config(SUITE).expect("cfg").generation, 2);
        // A write still claiming generation 1 is now rejected.
        let r1 = req(2);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r1, 1, b"late"), &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(&out[0].1, Msg::StaleConfig { generation: 2, .. }));
        assert_eq!(s.stats.stale_config, 1);
    }

    #[test]
    fn config_req_returns_current_config() {
        let mut s = server();
        let mut rng = DetRng::new(10);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::ConfigReq {
                suite: SUITE,
                req: req(1),
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::ConfigResp { config, .. } if config.generation == 1
        ));
    }

    #[test]
    fn crash_during_prepare_recovers_in_doubt_and_probes_coordinator() {
        let mut s = server();
        let mut rng = DetRng::new(11);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"promise"), &mut ctx);
        let _ = sent(&mut ctx);
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        let out = sent(&mut ctx);
        // The server asks the coordinator (CLIENT, from the req id).
        assert!(matches!(&out[0].1, Msg::DecisionReq { req: rr, .. } if *rr == r));
        assert_eq!(out[0].0, CLIENT);
        assert_eq!(s.pending_writes(), 1);
        // Config cache was rebuilt from the container.
        assert_eq!(s.config(SUITE).expect("cfg").generation, 1);
        // The coordinator answers commit; the write lands.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Commit {
                suite: SUITE,
                req: r,
                versions: Shared::default(),
            },
            &mut ctx,
        );
        let _ = sent(&mut ctx);
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"promise"));
    }

    #[test]
    fn crash_before_prepare_loses_staged_write() {
        let mut s = server();
        let mut rng = DetRng::new(12);
        // Simulate an active (unprepared) transaction by crashing right
        // after the initial config commit: nothing in doubt.
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        assert!(sent(&mut ctx).is_empty());
        assert_eq!(s.pending_writes(), 0);
        assert_eq!(s.data_version(SUITE), Version(0));
    }

    #[test]
    fn duplicate_prepare_revotes_yes() {
        let mut s = server();
        let mut rng = DetRng::new(13);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"x"), &mut ctx);
        let _ = sent(&mut ctx);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"x"), &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::PrepareVote {
                vote: Vote::Yes,
                ..
            }
        ));
        assert_eq!(s.pending_writes(), 1, "no duplicate pending entry");
    }

    #[test]
    fn abort_of_unknown_req_still_acks() {
        let mut s = server();
        let mut rng = DetRng::new(14);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Abort {
                suite: SUITE,
                req: req(42),
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: false,
                ..
            }
        ));
    }

    #[test]
    fn abort_of_an_already_committed_req_keeps_the_version_and_acks() {
        // What a retired decision's presumed-abort answer meets at a
        // participant that applied the commit long ago: nothing to undo.
        let mut s = server();
        let mut rng = DetRng::new(15);
        let r = req(1);
        for msg in [
            prepare_msg(r, 1, b"kept"),
            Msg::Commit {
                suite: SUITE,
                req: r,
                versions: Shared::default(),
            },
        ] {
            let mut ctx = ctx_pair(&mut rng);
            s.handle(CLIENT, msg, &mut ctx);
        }
        let aborts = s.stats.aborts;
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Abort {
                suite: SUITE,
                req: r,
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: false,
                ..
            }
        ));
        assert_eq!(s.stats.aborts, aborts, "nothing was aborted");
        assert_eq!(s.data_version(SUITE), Version(1));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"kept"));
    }

    /// The log never outgrows one checkpoint interval plus the longest
    /// single append (begin, put, prepare, outcome).
    fn assert_log_bounded(s: &SuiteServer) {
        let records = s.container().wal().len();
        assert!(
            records < CHECKPOINT_RECORDS + 4,
            "log unbounded: {records} records"
        );
    }

    #[test]
    fn log_stays_bounded_when_every_prepare_aborts() {
        let mut s = server();
        let mut rng = DetRng::new(22);
        let mut after_n = None;
        for i in 1..=4 * CHECKPOINT_RECORDS as u64 {
            let r = req(i);
            for msg in [
                prepare_msg(r, 1, b"doomed"),
                Msg::Abort {
                    suite: SUITE,
                    req: r,
                },
            ] {
                let mut ctx = ctx_pair(&mut rng);
                s.handle(CLIENT, msg, &mut ctx);
            }
            assert_log_bounded(&s);
            if i == CHECKPOINT_RECORDS as u64 {
                after_n = Some((s.container().wal().image_bytes(), s.container().len()));
            }
        }
        // Every prepare writes the same bytes, so N and 4N rounds land on
        // the same point of the compaction cycle.
        let after_4n = (s.container().wal().image_bytes(), s.container().len());
        assert_eq!(Some(after_4n), after_n);
        assert!(s.stats.checkpoints >= 4, "{}", s.stats.checkpoints);
        assert_eq!(s.data_version(SUITE), Version(0));
        assert_eq!(s.pending_writes(), 0);
    }

    #[test]
    fn log_stays_bounded_under_weak_refreshes_alone() {
        // A weak representative sees no prepares at all — only pushes.
        let mut s = server();
        let mut rng = DetRng::new(23);
        for i in 1..=4 * CHECKPOINT_RECORDS as u64 {
            let mut ctx = ctx_pair(&mut rng);
            s.handle(
                CLIENT,
                Msg::UpdateWeak {
                    suite: SUITE,
                    version: Version(i),
                    value: Bytes::from_static(b"refreshed"),
                },
                &mut ctx,
            );
            assert_log_bounded(&s);
        }
        assert_eq!(s.stats.weak_updates, 4 * CHECKPOINT_RECORDS as u64);
        assert_eq!(
            s.data_version(SUITE),
            Version(4 * CHECKPOINT_RECORDS as u64)
        );
    }

    #[test]
    fn log_stays_bounded_under_sustained_writes() {
        let mut s = server();
        let mut rng = DetRng::new(21);
        let writes = 2 * CHECKPOINT_RECORDS as u64;
        for i in 1..=writes {
            let r = req(i);
            let mut ctx = ctx_pair(&mut rng);
            s.handle(
                CLIENT,
                Msg::Prepare {
                    req: r,
                    writes: vec![PrepareWrite {
                        suite: SUITE,
                        object: data_object(SUITE),
                        version: Version(i),
                        value: Bytes::from(format!("v{i}")),
                        generation: 1,
                        span: 1,
                    }]
                    .into(),
                    lock_ts: r.0,
                    rebase: true,
                },
                &mut ctx,
            );
            let _ = sent(&mut ctx);
            let mut ctx = ctx_pair(&mut rng);
            s.handle(
                CLIENT,
                Msg::Commit {
                    suite: SUITE,
                    req: r,
                    versions: Shared::default(),
                },
                &mut ctx,
            );
            let _ = sent(&mut ctx);
        }
        assert!(
            s.stats.checkpoints >= 2,
            "compactions ran: {}",
            s.stats.checkpoints
        );
        assert_log_bounded(&s);
        // Data still correct after a crash + recovery from the compact log.
        assert_eq!(s.data_version(SUITE), Version(writes));
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        assert_eq!(s.data_version(SUITE), Version(writes));
        assert_eq!(s.data_value(SUITE), Bytes::from(format!("v{writes}")));
    }

    #[test]
    fn decision_probe_timer_repeats_until_resolved() {
        let mut s = server();
        let mut rng = DetRng::new(15);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"x"), &mut ctx);
        let _ = sent(&mut ctx);
        let mut ctx = ctx_pair(&mut rng);
        s.handle_timer(r.0, &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(&out[0].1, Msg::DecisionReq { .. }));
        // After resolution the timer goes quiet.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Commit {
                suite: SUITE,
                req: r,
                versions: Shared::default(),
            },
            &mut ctx,
        );
        let _ = sent(&mut ctx);
        let mut ctx = ctx_pair(&mut rng);
        s.handle_timer(r.0, &mut ctx);
        assert!(sent(&mut ctx).is_empty());
    }

    /// Installs `version`/`value` as committed state (simulating past
    /// writes this representative participated in).
    fn install(s: &mut SuiteServer, version: u64, value: &'static [u8]) {
        let tx = s.container.begin().expect("up");
        s.container
            .stage_put(
                tx,
                data_object(SUITE),
                Version(version),
                Bytes::from_static(value),
            )
            .expect("stage");
        s.container.commit(tx).expect("commit");
    }

    #[test]
    fn repair_pull_answers_only_stale_peers() {
        let mut s = server();
        install(&mut s, 3, b"v3");
        let mut rng = DetRng::new(30);
        // A peer already at v3 gets silence.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            SiteId(1),
            Msg::RepairPull {
                suite: SUITE,
                have: Version(3),
                full: false,
            },
            &mut ctx,
        );
        assert!(sent(&mut ctx).is_empty());
        // A stale peer gets the committed state.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            SiteId(1),
            Msg::RepairPull {
                suite: SUITE,
                have: Version(1),
                full: false,
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(1));
        assert!(matches!(
            &out[0].1,
            Msg::RepairState { version, value, .. }
                if *version == Version(3) && value == &Bytes::from_static(b"v3")
        ));
        assert_eq!(s.stats.repair_serves, 1);
    }

    #[test]
    fn repair_state_installs_monotonically() {
        let mut s = server();
        install(&mut s, 2, b"v2");
        let mut rng = DetRng::new(31);
        // Newer state installs.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            SiteId(1),
            Msg::RepairState {
                suite: SUITE,
                version: Version(5),
                value: Bytes::from_static(b"v5"),
                config: None,
            },
            &mut ctx,
        );
        assert_eq!(s.data_version(SUITE), Version(5));
        assert_eq!(s.stats.repairs_completed, 1);
        // Older or equal state never regresses the copy.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            SiteId(2),
            Msg::RepairState {
                suite: SUITE,
                version: Version(4),
                value: Bytes::from_static(b"v4"),
                config: None,
            },
            &mut ctx,
        );
        assert_eq!(s.data_version(SUITE), Version(5));
        assert_eq!(s.data_value(SUITE), Bytes::from_static(b"v5"));
        assert_eq!(s.stats.repairs_completed, 1);
    }

    #[test]
    fn repair_state_defers_to_an_inflight_commit_lock() {
        let mut s = server();
        let mut rng = DetRng::new(32);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"staged"), &mut ctx);
        let _ = sent(&mut ctx);
        // While the prepare holds the commit lock, repair stands aside
        // (the next gossip round will retry).
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            SiteId(1),
            Msg::RepairState {
                suite: SUITE,
                version: Version(7),
                value: Bytes::from_static(b"v7"),
                config: None,
            },
            &mut ctx,
        );
        assert_eq!(s.data_version(SUITE), Version(0));
        assert_eq!(s.stats.repairs_completed, 0);
    }

    #[test]
    fn repair_timer_probes_round_robin_and_rearms() {
        let mut s = server();
        s.set_anti_entropy(SimDuration::from_millis(200));
        let mut rng = DetRng::new(33);
        let mut ctx = ctx_pair(&mut rng);
        s.start_anti_entropy(&mut ctx);
        let _ = ctx.take_effects();
        let token = REPAIR_TIMER_TAG;
        let mut targets = Vec::new();
        for _ in 0..4 {
            let mut ctx = ctx_pair(&mut rng);
            s.handle_timer(token, &mut ctx);
            let out = sent(&mut ctx);
            assert_eq!(out.len(), 1, "one pull per hosted suite per tick");
            assert!(matches!(&out[0].1, Msg::RepairPull { .. }));
            targets.push(out[0].0);
        }
        // Site 0 hosts the suite with peers {1, 2}: ticks alternate.
        assert_eq!(
            targets,
            vec![SiteId(1), SiteId(2), SiteId(1), SiteId(2)],
            "round-robin over peers"
        );
        assert_eq!(s.stats.repair_probes, 4);
    }

    #[test]
    fn recovery_pulls_from_all_peers_and_rearms_the_tick_in_place_of_any_other() {
        use wv_net::node::Effect;
        let mut s = server();
        s.set_anti_entropy(SimDuration::from_millis(200));
        let mut rng = DetRng::new(34);
        let mut ctx = ctx_pair(&mut rng);
        s.start_anti_entropy(&mut ctx);
        let _ = ctx.take_effects();
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        let effects = ctx.take_effects();
        let pulls: Vec<SiteId> = (effects.iter())
            .filter_map(|e| match e {
                Effect::Send {
                    to,
                    msg: Msg::RepairPull { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(pulls, vec![SiteId(1), SiteId(2)], "fan-out to all peers");
        // One tick chain: the transport drops a crashed site's timers, and
        // re-arming cancels whatever tick is still pending.
        let tick = |e: &&Effect<Msg>| match e {
            Effect::Cancel { token } | Effect::Timer { token, .. } => *token == REPAIR_TIMER_TAG,
            _ => false,
        };
        let ticks: Vec<_> = effects.iter().filter(tick).collect();
        assert!(matches!(
            ticks[..],
            [Effect::Cancel { .. }, Effect::Timer { .. }]
        ));
    }

    #[test]
    fn stop_anti_entropy_silences_future_ticks() {
        let mut s = server();
        s.set_anti_entropy(SimDuration::from_millis(200));
        let mut rng = DetRng::new(35);
        let mut ctx = ctx_pair(&mut rng);
        s.start_anti_entropy(&mut ctx);
        let _ = ctx.take_effects();
        s.stop_anti_entropy();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_timer(REPAIR_TIMER_TAG, &mut ctx);
        assert!(sent(&mut ctx).is_empty());
    }

    fn gc_server() -> SuiteServer {
        let mut s = server();
        s.set_group_commit(SimDuration::from_millis(5));
        s
    }

    /// Fires the group-commit sync timer.
    fn fire_sync(s: &mut SuiteServer, rng: &mut DetRng) -> Vec<(SiteId, Msg)> {
        let mut ctx = ctx_pair(rng);
        s.handle_timer(WAL_SYNC_TIMER_TAG, &mut ctx);
        sent(&mut ctx)
    }

    #[test]
    fn group_commit_defers_vote_and_ack_until_sync() {
        let mut s = gc_server();
        let base = s.container.wal().flushes();
        let mut rng = DetRng::new(40);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"new"), &mut ctx);
        assert!(sent(&mut ctx).is_empty(), "vote waits for the sync");
        assert_eq!(s.container.wal().flushes(), base, "record still volatile");
        let out = fire_sync(&mut s, &mut rng);
        assert!(matches!(
            &out[0].1,
            Msg::PrepareVote {
                vote: Vote::Yes,
                ..
            }
        ));
        assert_eq!(s.container.wal().flushes(), base + 1);
        // The commit decision is applied on arrival; only its ack waits
        // for the record to be durable.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Commit {
                suite: SUITE,
                req: r,
                versions: Shared::default(),
            },
            &mut ctx,
        );
        assert!(sent(&mut ctx).is_empty(), "ack waits for the sync");
        assert_eq!(s.data_version(SUITE), Version(1), "apply does not");
        assert_eq!(s.container.wal().flushes(), base + 1, "still volatile");
        let out = fire_sync(&mut s, &mut rng);
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: true,
                ..
            }
        ));
        assert_eq!(s.container.wal().flushes(), base + 2);
        assert_eq!(s.stats.wal_batches, 2);
        assert_eq!(s.stats.wal_batched_records, 2);
        // Two single-suite batches: one distinct suite each.
        assert_eq!(s.stats.wal_batch_suites, 2);
        assert_eq!(s.stats.commits, 1);
    }

    #[test]
    fn batched_prepares_ride_one_flush() {
        // Two suites so the prepares do not contend on one data object.
        let cfg2 = SuiteConfig::new(
            ObjectId(2),
            VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
            QuorumSpec::new(2, 2),
        )
        .expect("legal");
        let mut s = SuiteServer::new(
            SiteId(0),
            vec![test_config(), cfg2],
            DeadlockPolicy::WaitDie,
        );
        s.set_group_commit(SimDuration::from_millis(5));
        let base = s.container.wal().flushes();
        let mut rng = DetRng::new(41);
        for (n, suite) in [(1, ObjectId(1)), (2, ObjectId(2))] {
            let r = req(n);
            let mut ctx = ctx_pair(&mut rng);
            s.handle(
                CLIENT,
                Msg::Prepare {
                    req: r,
                    writes: vec![PrepareWrite {
                        suite,
                        object: data_object(suite),
                        version: Version(1),
                        value: Bytes::from_static(b"v"),
                        generation: 1,
                        span: 1,
                    }]
                    .into(),
                    lock_ts: r.0,
                    rebase: true,
                },
                &mut ctx,
            );
            assert!(sent(&mut ctx).is_empty());
        }
        let out = fire_sync(&mut s, &mut rng);
        assert_eq!(out.len(), 2, "both votes leave together");
        assert!(out.iter().all(|(_, m)| matches!(
            m,
            Msg::PrepareVote {
                vote: Vote::Yes,
                ..
            }
        )));
        assert_eq!(s.container.wal().flushes(), base + 1, "one durable write");
        assert_eq!(s.stats.wal_batches, 1);
        assert_eq!(s.stats.wal_batched_records, 2);
        // The single flush absorbed writes to two distinct suites.
        assert_eq!(s.stats.wal_batch_suites, 2);
    }

    #[test]
    fn held_reads_are_answered_at_apply_and_a_crash_before_the_flush_takes_nothing_back() {
        let mut s = gc_server();
        let mut rng = DetRng::new(42);
        let r = req(1);
        deliver(&mut s, &mut rng, prepare_msg(r, 1, b"x"));
        let _ = fire_sync(&mut s, &mut rng);
        assert!(deliver(&mut s, &mut rng, read_msg(2)).is_empty(), "held");
        // The decision is final whatever happens to this site, so the
        // commit lock is handed on when it is applied: the held read is
        // answered now, from state the flush has yet to make durable.
        let flushes = s.container.wal().flushes();
        let out = deliver(&mut s, &mut rng, commit_msg(r, 1));
        assert_eq!(out.len(), 1, "the ack waits for the flush: {out:?}");
        assert!(matches!(
            &out[0].1,
            Msg::ReadResp { version, .. } if *version == Version(1)
        ));
        assert_eq!(s.container.wal().flushes(), flushes);
        // A crash before the flush loses the commit record, not the
        // prepare's: the site recovers in doubt and takes the lock back
        // before it serves anything, so nobody is shown version 0 again.
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(&out[0], (CLIENT, Msg::DecisionReq { req, .. }) if *req == r));
        assert_eq!((s.pending_writes(), s.data_version(SUITE)), (1, Version(0)));
        assert!(deliver(&mut s, &mut rng, read_msg(3)).is_empty(), "held");
        // No ack left, so the coordinator still has the decision, and its
        // answer puts back what the first reader saw.
        let out = deliver(&mut s, &mut rng, commit_msg(r, 1));
        assert!(matches!(
            &out[0].1,
            Msg::ReadResp { version, .. } if *version == Version(1)
        ));
        let out = fire_sync(&mut s, &mut rng);
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: true,
                ..
            }
        ));
    }

    #[test]
    fn abort_purges_deferred_vote() {
        let mut s = gc_server();
        let mut rng = DetRng::new(43);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"x"), &mut ctx);
        let _ = sent(&mut ctx);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::Abort {
                suite: SUITE,
                req: r,
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::Ack {
                committed: false,
                ..
            }
        ));
        assert_eq!(s.pending_writes(), 0);
        // The sync fires on an emptied queue: no late yes vote escapes.
        let out = fire_sync(&mut s, &mut rng);
        assert!(out.is_empty());
        assert_eq!(s.stats.wal_batches, 0, "empty batches are not counted");
    }

    #[test]
    fn crash_during_sync_window_loses_nothing_promised() {
        let mut s = gc_server();
        let mut rng = DetRng::new(44);
        let base = s.container.wal().flushes();
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"x"), &mut ctx);
        assert!(sent(&mut ctx).is_empty(), "nothing was promised");
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        let _ = sent(&mut ctx);
        // The volatile prepare record died with the crash: nothing is in
        // doubt, and no sync is armed to flush anything.
        assert_eq!(s.pending_writes(), 0);
        assert!(fire_sync(&mut s, &mut rng).is_empty());
        assert_eq!(s.container.wal().flushes(), base);
        assert_eq!(s.data_version(SUITE), Version(0));
        // The server is fully live: the next record arms a sync of its own.
        let r2 = req(2);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r2, 1, b"y"), &mut ctx);
        assert!(sent(&mut ctx).is_empty());
        let out = fire_sync(&mut s, &mut rng);
        assert!(matches!(
            &out[0].1,
            Msg::PrepareVote {
                vote: Vote::Yes,
                ..
            }
        ));
    }

    #[test]
    fn a_commit_applied_but_not_yet_durable_keeps_its_probe() {
        use wv_net::node::Effect;
        let cancels = |effects: &[Effect<Msg>], r: ReqId| {
            let of = |e: &Effect<Msg>| matches!(e, Effect::Cancel { token } if *token == r.0);
            effects.iter().any(of)
        };
        let mut s = gc_server();
        let mut rng = DetRng::new(45);
        let r = req(1);
        deliver(&mut s, &mut rng, prepare_msg(r, 1, b"x"));
        // The yes vote leaves with the sync, and arms its decision probe.
        let sync = WAL_SYNC_TIMER_TAG;
        let mut ctx = ctx_pair(&mut rng);
        s.handle_timer(sync, &mut ctx);
        let armed = |e: &Effect<Msg>| matches!(e, Effect::Timer { token, .. } if *token == r.0);
        assert!(ctx.take_effects().iter().any(armed));
        // The commit is applied at once; its record waits for the next
        // sync, and the probe stays armed.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, commit_msg(r, 1), &mut ctx);
        assert!(!cancels(&ctx.take_effects(), r));
        assert_eq!(s.data_version(SUITE), Version(1));
        // A crash before that sync puts the prepare back in doubt, and the
        // probe armed with the vote still has its question to ask.
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        assert_eq!(s.pending_writes(), 1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle_timer(r.0, &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(out[..], [(CLIENT, Msg::DecisionReq { req, .. })] if req == r));
        // Once the commit is durable, the probe is done.
        deliver(&mut s, &mut rng, commit_msg(r, 1));
        let mut ctx = ctx_pair(&mut rng);
        s.handle_timer(WAL_SYNC_TIMER_TAG, &mut ctx);
        assert!(cancels(&ctx.take_effects(), r));
    }

    // ---- disk faults and quarantine ----

    fn ctx_at(now: SimTime, rng: &mut DetRng) -> NodeCtx<'_, Msg> {
        NodeCtx::new(now, SiteId(0), rng)
    }

    /// Builds a server with committed history, arms one bit flip with the
    /// given seed, and crash-recovers it. Returns the server.
    fn corrupted_server(seed: u64) -> SuiteServer {
        let mut s = server();
        s.set_anti_entropy(SimDuration::from_secs(1));
        for v in 1..=5 {
            install(&mut s, v, b"payload");
        }
        s.set_disk_fault_seed(seed);
        s.disk_faults().arm_bit_flip();
        s.handle_crash();
        let mut rng = DetRng::new(seed);
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        s
    }

    /// A seed whose bit flip lands in a data record, so the config object
    /// survives and the quarantine can heal through data pulls.
    fn quarantined_server() -> SuiteServer {
        for seed in 0..64 {
            let s = corrupted_server(seed);
            if s.is_quarantined() && s.config(SUITE).is_some() {
                return s;
            }
        }
        panic!("no seed in 0..64 corrupted a data record past the config");
    }

    #[test]
    fn interior_corruption_quarantines_and_refuses_everything() {
        let mut s = quarantined_server();
        assert_eq!(s.stats.quarantines, 1);
        assert!(s.stats.corrupt_records_detected > 0);
        assert_eq!(s.stats.poison_escapes, 0);
        let mut rng = DetRng::new(50);
        for msg in [
            Msg::VersionReq {
                suite: SUITE,
                req: req(1),
                floor: false,
                contents_from: None,
            },
            Msg::ReadReq {
                suite: SUITE,
                req: req(2),
            },
            prepare_msg(req(3), 9, b"w"),
        ] {
            let mut ctx = ctx_pair(&mut rng);
            s.handle(CLIENT, msg, &mut ctx);
            let out = sent(&mut ctx);
            assert_eq!(out.len(), 1);
            assert!(
                matches!(
                    &out[0].1,
                    Msg::Refused {
                        reason: RefuseReason::Quarantined,
                        ..
                    }
                ),
                "quarantined server must refuse, got {:?}",
                out[0].1
            );
        }
        assert_eq!(s.stats.served_while_quarantined, 0);
    }

    #[test]
    fn quarantined_recovery_pulls_full_state_from_every_peer() {
        for seed in 0..64 {
            let mut s = server();
            s.set_anti_entropy(SimDuration::from_secs(1));
            for v in 1..=5 {
                install(&mut s, v, b"payload");
            }
            s.set_disk_fault_seed(seed);
            s.disk_faults().arm_bit_flip();
            s.handle_crash();
            let mut rng = DetRng::new(seed);
            let mut ctx = ctx_pair(&mut rng);
            s.handle_recover(&mut ctx);
            if !(s.is_quarantined() && s.config(SUITE).is_some()) {
                continue;
            }
            let pulls: Vec<_> = sent(&mut ctx)
                .into_iter()
                .filter(|(_, m)| matches!(m, Msg::RepairPull { full: true, .. }))
                .collect();
            assert_eq!(pulls.len(), 2, "one full pull per peer");
            return;
        }
        panic!("no seed in 0..64 produced a healable quarantine");
    }

    #[test]
    fn quarantine_heals_only_after_every_peer_confirms() {
        let mut s = quarantined_server();
        let mut rng = DetRng::new(51);
        let state = |v: u64| Msg::RepairState {
            suite: SUITE,
            version: Version(v),
            value: Bytes::from_static(b"repair"),
            config: None,
        };
        // First peer's answer installs but does not heal.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(SiteId(1), state(9), &mut ctx);
        let _ = sent(&mut ctx);
        assert!(s.is_quarantined(), "one of two peers is not enough");
        assert_eq!(s.data_version(SUITE), Version(9));
        // A quarantined replica never seeds peers, even when asked.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            SiteId(2),
            Msg::RepairPull {
                suite: SUITE,
                have: Version(0),
                full: false,
            },
            &mut ctx,
        );
        assert!(sent(&mut ctx).is_empty(), "suspect state must not spread");
        // The second peer holds nothing newer; its answer still counts —
        // it proves this replica is at or past that peer's state.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(SiteId(2), state(9), &mut ctx);
        let _ = sent(&mut ctx);
        assert!(!s.is_quarantined(), "full sweep completed");
        assert_eq!(s.stats.requarantine_repairs, 1);
        // Votes are live again.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::VersionReq {
                suite: SUITE,
                req: req(1),
                floor: false,
                contents_from: None,
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(matches!(&out[0].1, Msg::VersionResp { version, .. } if *version == Version(9)));
        assert_eq!(s.stats.served_while_quarantined, 0);
    }

    #[test]
    fn torn_tail_truncates_without_quarantine() {
        let mut s = gc_server();
        s.set_disk_fault_seed(7);
        let mut rng = DetRng::new(52);
        let r = req(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(r, 1, b"volatile"), &mut ctx);
        assert!(sent(&mut ctx).is_empty(), "vote deferred behind the sync");
        s.disk_faults().arm_torn_write();
        s.handle_crash();
        let mut ctx = ctx_pair(&mut rng);
        s.handle_recover(&mut ctx);
        let _ = sent(&mut ctx);
        // A tear only shortens the un-acknowledged volatile tail: normal
        // crash wear, not corruption. The replica keeps its votes.
        assert!(!s.is_quarantined());
        assert_eq!(s.stats.torn_truncations, 1);
        assert_eq!(s.stats.corrupt_records_detected, 0);
        assert_eq!(s.data_version(SUITE), Version(0));
    }

    #[test]
    fn stalled_disk_refuses_prepares_but_keeps_serving_reads() {
        let mut s = server();
        let mut rng = DetRng::new(53);
        install(&mut s, 1, b"v1");
        s.disk_stall(SimDuration::from_secs(5), SimTime::ZERO);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(req(1), 2, b"w"), &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::Refused {
                reason: RefuseReason::Disk,
                ..
            }
        ));
        assert_eq!(s.stats.disk_refusals, 1);
        // Committed state is intact; reads keep flowing.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(
            CLIENT,
            Msg::ReadReq {
                suite: SUITE,
                req: req(2),
            },
            &mut ctx,
        );
        let out = sent(&mut ctx);
        assert!(matches!(&out[0].1, Msg::ReadResp { .. }));
        // Past the deadline the device is healthy again.
        let later = SimTime::ZERO + SimDuration::from_secs(6);
        let mut ctx = ctx_at(later, &mut rng);
        s.handle(CLIENT, prepare_msg(req(3), 2, b"w"), &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::PrepareVote {
                vote: Vote::Yes,
                ..
            }
        ));
    }

    #[test]
    fn io_error_refuses_the_prepare_and_releases_its_locks() {
        let mut s = server();
        let mut rng = DetRng::new(54);
        s.disk_faults().inject_io_errors(1);
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(req(1), 1, b"w"), &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::Refused {
                reason: RefuseReason::Disk,
                ..
            }
        ));
        assert_eq!(s.stats.disk_refusals, 1);
        assert_eq!(s.pending_writes(), 0);
        // The lock was released: a retry (fresh error-free disk) succeeds.
        let mut ctx = ctx_pair(&mut rng);
        s.handle(CLIENT, prepare_msg(req(2), 1, b"w"), &mut ctx);
        let out = sent(&mut ctx);
        assert!(matches!(
            &out[0].1,
            Msg::PrepareVote {
                vote: Vote::Yes,
                ..
            }
        ));
    }

    /// Satellite regression: a torn tail can retroactively persist a
    /// complete-but-unsynced prepare (the vote never left). Recovery
    /// surfaces it as in doubt and the decision probe resolves it.
    #[test]
    fn decision_probe_resolves_in_doubt_surfaced_by_torn_tail() {
        let cfg2 = SuiteConfig::new(
            ObjectId(2),
            VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
            QuorumSpec::new(2, 2),
        )
        .expect("legal");
        let suite2 = ObjectId(2);
        for seed in 0..64u64 {
            let mut s = SuiteServer::new(
                SiteId(0),
                vec![test_config(), cfg2.clone()],
                DeadlockPolicy::WaitDie,
            );
            s.set_group_commit(SimDuration::from_millis(5));
            s.set_disk_fault_seed(seed);
            let mut rng = DetRng::new(seed);
            let r1 = req(1);
            let mut ctx = ctx_pair(&mut rng);
            s.handle(CLIENT, prepare_msg(r1, 1, b"first"), &mut ctx);
            assert!(sent(&mut ctx).is_empty(), "vote rides the sync");
            // A second volatile prepare (other suite) extends the tail so
            // the tear can land beyond the first prepare's frames.
            let r2 = req(2);
            let mut ctx = ctx_pair(&mut rng);
            s.handle(
                CLIENT,
                Msg::Prepare {
                    req: r2,
                    writes: vec![PrepareWrite {
                        suite: suite2,
                        object: data_object(suite2),
                        version: Version(1),
                        value: Bytes::from_static(b"second"),
                        generation: 1,
                        span: 1,
                    }]
                    .into(),
                    lock_ts: r2.0,
                    rebase: true,
                },
                &mut ctx,
            );
            assert!(sent(&mut ctx).is_empty());
            s.disk_faults().arm_torn_write();
            s.handle_crash();
            let mut ctx = ctx_pair(&mut rng);
            s.handle_recover(&mut ctx);
            let out = sent(&mut ctx);
            // Hunt for a tear that kept exactly the first prepare.
            if s.pending_writes() != 1 {
                continue;
            }
            assert!(!s.is_quarantined(), "a tear is wear, not corruption");
            assert_eq!(s.stats.torn_truncations, 1);
            let probes: Vec<_> = out
                .iter()
                .filter(|(to, m)| {
                    *to == CLIENT && matches!(m, Msg::DecisionReq { req, .. } if *req == r1)
                })
                .collect();
            assert_eq!(probes.len(), 1, "one probe for the surfaced tx");
            // The coordinator answers commit; the decision rides the next
            // group-commit sync and the write lands after all.
            let mut ctx = ctx_pair(&mut rng);
            s.handle(
                CLIENT,
                Msg::Commit {
                    suite: SUITE,
                    req: r1,
                    versions: Shared::default(),
                },
                &mut ctx,
            );
            let _ = sent(&mut ctx);
            let _ = fire_sync(&mut s, &mut rng);
            assert_eq!(s.data_value(SUITE), Bytes::from_static(b"first"));
            assert_eq!(s.data_version(suite2), Version(0), "torn tx died");
            return;
        }
        panic!("no seed in 0..64 tore between the two prepares");
    }
}
