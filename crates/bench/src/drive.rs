//! The one driver: a run is a [`Plan`] of operations and faults.
//!
//! Every experiment that runs the protocol, and the chaos executor,
//! writes what happens when as a [`Plan`]. [`apply`] plays it,
//! [`FaultWindows::end`] says when the cluster was not whole, and
//! [`collect`] waits out the planned operations; [`drive`] is the three
//! in a row, and hands the history to the op-log oracle
//! ([`Driven::judge`]) and a report's [`Verdict`]. [`on_threads`] plays
//! the same plan on real threads.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

use wv_core::client::CompletedOp;
use wv_core::{Fault, Harness, Op, ThreadHarness};
use wv_net::{Fault as NetFault, SiteId};
use wv_sim::{SampleSet, SimDuration, SimTime};
use wv_storage::ObjectId;

use crate::oracle::{check_log, check_progress, check_staleness_bound, Violation};

/// How long past a server's recovery its outage still counts as a fault
/// window: the recovered representative is catching up and its in-doubt
/// transactions are being resolved.
pub const RECOVERY_SLACK: SimDuration = SimDuration::from_secs(2);

/// Anti-entropy probe interval of the clusters that run the repair daemon.
pub const REPAIR_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Steps [`collect`] takes before it gives up on missing operations.
const MAX_STEPS: u32 = 100_000;

/// The longest [`on_threads`] waits, in real time, for a client's ops.
const THREAD_WAIT: Duration = Duration::from_secs(5);

enum Step {
    Op(SiteId, Op),
    Fault(Fault),
}

/// When a [`Plan`]'s entry starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Start {
    /// At this instant.
    At(SimTime),
    /// This long after the plan's previous entry: a sequential op is a
    /// blocking call ([`Harness::run`]) written as data.
    After(SimDuration),
}

impl From<SimTime> for Start {
    fn from(at: SimTime) -> Start {
        Start::At(at)
    }
}

/// A run's load: `(start, client, Op)` and `(start, Fault)` entries, the
/// timed ones in time order and the sequential ones after them; entries
/// due at one instant keep the order they were added in. It also keeps
/// every payload its writes and transactions carry, for the oracle's
/// provenance check.
#[derive(Default)]
pub struct Plan {
    entries: Vec<(Start, Step)>,
    ops: usize,
    sent: HashSet<Vec<u8>>,
}

impl Plan {
    /// `client` starts `op` at `start`.
    pub fn op(&mut self, start: impl Into<Start>, client: SiteId, op: Op) {
        self.ops += 1;
        match &op {
            Op::Write(_, v) => self.sent.extend([v.clone()]),
            Op::Transaction(writes) => self.sent.extend(writes.iter().map(|(_, v)| v.clone())),
            Op::Read(_) | Op::Reconfigure(..) => {}
        }
        self.insert(start.into(), Step::Op(client, op));
    }

    /// The harness injects `fault` at `start`.
    pub fn fault(&mut self, start: impl Into<Start>, fault: impl Into<Fault>) {
        self.insert(start.into(), Step::Fault(fault.into()));
    }

    /// Operations planned.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Appends `ops` at `client` as sequential entries: the first at once
    /// after the plan's last entry, each other `pause` after the one
    /// before. A caller's loop of blocking calls, written as data.
    pub fn sequence(
        &mut self,
        client: SiteId,
        pause: SimDuration,
        ops: impl IntoIterator<Item = Op>,
    ) {
        let mut after = SimDuration::ZERO;
        for op in ops {
            self.op(Start::After(after), client, op);
            after = pause;
        }
    }

    /// Starts, all at `at`, each client's workload of `(write, suite
    /// index)` operations; write `i` of client `c` writes
    /// `{tag}-c{c}-{i}`. E11, E13 and E15 replay their workloads so.
    pub fn workloads(
        at: SimTime,
        clients: &[SiteId],
        suites: &[ObjectId],
        workloads: &[Vec<(bool, usize)>],
        tag: &str,
    ) -> Self {
        let mut plan = Plan::default();
        for (ci, (&c, ops)) in clients.iter().zip(workloads).enumerate() {
            for (i, &(write, s)) in ops.iter().enumerate() {
                let op = if write {
                    Op::Write(suites[s], format!("{tag}-c{ci}-{i}").into_bytes())
                } else {
                    Op::Read(suites[s])
                };
                plan.op(at, c, op);
            }
        }
        plan
    }

    /// Panics on a timed entry after a sequential one: it has no place
    /// in time order.
    fn insert(&mut self, start: Start, step: Step) {
        let i = match start {
            Start::At(at) => {
                let sequential = matches!(self.entries.last(), Some((Start::After(_), _)));
                assert!(!sequential, "a timed entry after a sequential one");
                (self.entries).partition_point(|(s, _)| matches!(s, Start::At(t) if *t <= at))
            }
            Start::After(_) => self.entries.len(),
        };
        self.entries.insert(i, (start, step));
    }
}

/// What can be wrong with the cluster, for [`FaultWindows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Trouble {
    Down(SiteId),
    Partition,
    Loss,
    Delay,
    Duplication,
    /// Injected disk trouble still pending, or the quarantine it caused.
    Disk(SiteId),
}

/// The intervals during which some fault was active: a server down
/// (until [`RECOVERY_SLACK`] past its recovery), a partition, a loss,
/// delay or duplication dial off zero, a disk stalled, refusing or
/// quarantined. The oracle's progress invariant judges only operations
/// that ran entirely outside them.
#[derive(Default)]
pub struct FaultWindows {
    open: BTreeMap<Trouble, SimTime>,
    closed: Vec<(SimTime, SimTime)>,
}

impl FaultWindows {
    /// `fault` is active from `at` (or from when it first became so), or
    /// stops mattering at `at`.
    fn set(&mut self, fault: Trouble, active: bool, at: SimTime) {
        if active {
            self.open.entry(fault).or_insert(at);
        } else if let Some(from) = self.open.remove(&fault) {
            self.closed.push((from, at));
        }
    }

    /// Opens or closes the window `fault`, injected at `at`, starts or
    /// ends; armed disk damage is the servers' to report (`probe`).
    fn note(&mut self, fault: &Fault, at: SimTime) {
        let (trouble, active) = match fault {
            Fault::Net(NetFault::Crash(site)) => (Trouble::Down(*site), true),
            Fault::Net(NetFault::Recover(site)) => {
                return self.set(Trouble::Down(*site), false, at + RECOVERY_SLACK);
            }
            Fault::Net(NetFault::Partition(_)) => (Trouble::Partition, true),
            Fault::Net(NetFault::Heal) => (Trouble::Partition, false),
            Fault::Net(NetFault::DropAll(p)) => (Trouble::Loss, *p > 0.0),
            Fault::Net(NetFault::ExtraDelay(d)) => (Trouble::Delay, !d.is_zero()),
            Fault::Net(NetFault::Duplicate(p)) => (Trouble::Duplication, *p > 0.0),
            Fault::DiskStall { d, .. } => return self.closed.push((at, at + *d)),
            Fault::TornWrite(_) | Fault::BitFlip(_) | Fault::IoErrors { .. } => return,
        };
        self.set(trouble, active, at);
    }

    /// Disk trouble is over when the servers say so: injected errors are
    /// consumed by whatever next touches the disk, and a quarantine heals
    /// when the last peer has been pulled from.
    fn probe(&mut self, h: &Harness) {
        for site in SiteId::all(h.cluster().nodes.len()) {
            let troubled = h
                .server_at(site)
                .is_some_and(|sv| sv.is_quarantined() || sv.container().disk_faults_armed());
            self.set(Trouble::Disk(site), troubled, h.now());
        }
    }

    /// Every window, those still open closed now: a down server's and a
    /// disk's [`RECOVERY_SLACK`] later, the rest at once.
    pub fn end(mut self, h: &Harness) -> Vec<(SimTime, SimTime)> {
        self.probe(h);
        let now = h.now();
        for (fault, from) in std::mem::take(&mut self.open) {
            let slack = matches!(fault, Trouble::Down(_) | Trouble::Disk(_));
            self.closed
                .push((from, if slack { now + RECOVERY_SLACK } else { now }));
        }
        self.closed
    }
}

/// Plays `plan` on `h`: for each entry, advances to its instant, or by
/// its pause, then starts its operation or injects its fault at `now`, so
/// an operation due at an instant starts after the deliveries due then.
/// (That is the chaos executor's order: enqueueing every operation up
/// front instead moves E9's counts.) A sequential op runs to completion
/// ([`Harness::run`]) before the next entry. Returns the fault windows,
/// the last still open, and the payloads the plan sent.
pub fn apply(h: &mut Harness, plan: Plan) -> (FaultWindows, HashSet<Vec<u8>>) {
    let mut windows = FaultWindows::default();
    for (start, step) in plan.entries {
        match start {
            Start::At(at) if at > h.now() => h.advance(at.since(h.now())),
            Start::After(pause) if !pause.is_zero() => h.advance(pause),
            _ => {}
        }
        windows.probe(h);
        let now = h.now();
        match (start, step) {
            (Start::At(_), Step::Op(client, op)) => h.enqueue(client, op, now),
            (Start::After(_), Step::Op(client, op)) => {
                let _ = h.run(client, op); // its outcome is in the log
            }
            (_, Step::Fault(fault)) => {
                windows.note(&fault, now);
                h.inject(fault);
            }
        }
    }
    (windows, plan.sent)
}

/// Drains every client's completion log, and while fewer than
/// `expected` operations have completed, advances 50 ms and drains
/// again. (`run_until_quiet` would also run every orphaned timer wake-up
/// — the event a cancelled phase timeout, seconds out, leaves behind —
/// and fling the virtual clock far past any live lease.)
///
/// # Panics
///
/// If operations are still missing after 100,000 steps: one that never
/// completes (its client down when it was due, or crashed with it in
/// flight) is a run that cannot finish.
pub fn collect(h: &mut Harness, expected: usize) -> Vec<CompletedOp> {
    let clients = h.clients().to_vec();
    let mut done = Vec::new();
    for step in 0.. {
        done.extend(clients.iter().flat_map(|&c| h.drain_completed(c)));
        if done.len() >= expected {
            break;
        }
        assert!(
            step < MAX_STEPS,
            "the plan's {expected} operations: {} still missing after {MAX_STEPS} steps",
            expected - done.len()
        );
        h.advance(SimDuration::from_millis(50));
    }
    done
}

/// Of `ops`, those that committed, and how many of them per virtual
/// second from `start` to the last one's completion (0 if none did).
pub fn throughput(ops: &[CompletedOp], start: SimTime) -> (u64, f64) {
    let ok = ops.iter().filter(|o| o.outcome.is_ok());
    let last = ok.clone().fold(start, |t, o| t.max(o.finished));
    let n = ok.count() as u64;
    let secs = last.since(start).as_millis_f64() / 1000.0;
    (n, if secs > 0.0 { n as f64 / secs } else { 0.0 })
}

/// The mean latency of `ops`, in milliseconds (0 if there are none).
pub fn mean_ms<'a>(ops: impl IntoIterator<Item = &'a CompletedOp>) -> f64 {
    let mut latencies = SampleSet::new();
    (ops.into_iter()).for_each(|o| latencies.record(o.latency().as_millis_f64()));
    latencies.mean()
}

/// What a driven plan leaves behind.
#[derive(Clone, Debug, Default)]
pub struct Driven {
    /// Every operation, completed.
    pub ops: Vec<CompletedOp>,
    /// When the cluster was not whole, up to the last entry.
    pub fault_windows: Vec<(SimTime, SimTime)>,
    /// Every payload the plan's writes and transactions carried.
    pub sent: HashSet<Vec<u8>>,
}

impl Driven {
    /// The oracle's verdict: [`check_log`], strict exactly when no fault
    /// window opened, then [`check_progress`] outside the windows.
    pub fn judge(&self) -> Vec<Violation> {
        let strict = self.fault_windows.is_empty();
        let log = check_log(&self.ops, Some(&self.sent), strict);
        [log, check_progress(&self.ops, &self.fault_windows)].concat()
    }

    /// Adds a later run on the same cluster; returns its operations.
    pub fn append(&mut self, later: Driven) -> &[CompletedOp] {
        let from = self.ops.len();
        self.ops.extend(later.ops);
        self.fault_windows.extend(later.fault_windows);
        self.sent.extend(later.sent);
        &self.ops[from..]
    }
}

/// [`apply`], [`FaultWindows::end`] at the last entry, then [`collect`].
pub fn drive(h: &mut Harness, plan: Plan) -> Driven {
    let expected = plan.ops();
    let (windows, sent) = apply(h, plan);
    let fault_windows = windows.end(h);
    Driven {
        ops: collect(h, expected),
        fault_windows,
        sent,
    }
}

/// Plays `plan` on `h`, built on threads with `time_scale`: an entry
/// starts once its instant, scaled, has passed in real time since the
/// call, or its pause, scaled, after the previous entry; a sequential op
/// is awaited. What [`drive`] returns, with no fault windows.
///
/// # Panics
///
/// On a fault entry, which threads cannot inject yet (ROADMAP item 13),
/// or an op that does not end within five seconds of real time.
pub fn on_threads(h: &ThreadHarness, plan: Plan, time_scale: f64) -> Driven {
    let (begun, mut ops) = (Instant::now(), Vec::new());
    let real = |d: SimDuration| Duration::from_secs_f64(d.as_secs_f64() * time_scale);
    for (start, step) in plan.entries {
        let Step::Op(client, op) = step else {
            panic!("a fault entry on real threads (ROADMAP item 13)")
        };
        let due = match start {
            Start::At(at) => begun + real(at.since(SimTime::ZERO)),
            Start::After(pause) => Instant::now() + real(pause),
        };
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        h.enqueue(client, op);
        if let Start::After(_) = start {
            ops.extend(h.await_completed(client, THREAD_WAIT));
        }
    }
    ops.extend(
        h.clients()
            .iter()
            .flat_map(|&c| h.await_completed(c, THREAD_WAIT)),
    );
    Driven {
        ops,
        sent: plan.sent,
        ..Driven::default()
    }
}

/// Writes `{tag}-seed-{id}` to each suite in turn, each write a
/// sequential op: E11, E13 and E15 seed their suites so.
pub fn seed(h: &mut Harness, suites: &[ObjectId], tag: &str) -> Driven {
    let (mut plan, c) = (Plan::default(), h.default_client());
    let write = |s: &ObjectId| Op::Write(*s, format!("{tag}-seed-{}", s.0).into_bytes());
    plan.sequence(c, SimDuration::ZERO, suites.iter().map(write));
    drive(h, plan)
}

/// A report's verdict on its histories, each judged as it is handed in.
#[derive(Debug, Default)]
pub struct Verdict {
    histories: usize,
    ops: usize,
    /// `history: violation`, for every violation found.
    pub found: Vec<String>,
    /// The histories [`Verdict::judge_leased`] held to a lease.
    pub leased: Vec<String>,
}

impl Verdict {
    /// Judges `history` with [`Driven::judge`], `name` saying which it is,
    /// and returns what that found.
    pub fn judge(&mut self, name: impl fmt::Display, history: &Driven) -> Vec<Violation> {
        let found = history.judge();
        self.record(name, history.ops.len(), found.clone());
        found
    }

    /// [`Verdict::judge`], but a read may return a copy as old as `lease`
    /// (invariant 11) instead of the floor (7); returns [`Driven::judge`]'s
    /// verdict all the same.
    pub fn judge_leased(
        &mut self,
        name: String,
        history: &Driven,
        lease: SimDuration,
    ) -> Vec<Violation> {
        let floor = history.judge();
        let mut found = floor.clone();
        found.retain(|v| !matches!(v, Violation::StaleRead { .. }));
        found.extend(check_staleness_bound(&history.ops, lease));
        self.record(&name, history.ops.len(), found);
        self.leased.push(name);
        floor
    }

    /// Counts a history of `ops` operations judged elsewhere, and its `found`.
    pub fn record(&mut self, name: impl fmt::Display, ops: usize, found: Vec<Violation>) {
        self.histories += 1;
        self.ops += ops;
        self.found
            .extend(found.iter().map(|v| format!("{name}: {v}")));
    }

    /// The report's closing line, unless it judged nothing.
    pub fn line(&self) -> Option<String> {
        let (histories, ops, found) = (self.histories, self.ops, self.found.len());
        (histories > 0).then(|| {
            format!("Histories judged: {histories} ({ops} operations); violations: {found}.\n")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_core::harness::{HarnessBuilder, SiteSpec};
    use wv_core::QuorumSpec;
    use wv_net::{NetConfig, Partition};
    use wv_sim::LatencyModel;

    fn cluster(seed: u64) -> Harness {
        HarnessBuilder::new()
            .seed(seed)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .client()
            .quorum(QuorumSpec::majority(3))
            .net(NetConfig::uniform(5, LatencyModel::constant_millis(50)))
            .build()
            .expect("legal cluster")
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn entries_keep_time_order_and_same_instant_entries_their_plan_order() {
        let mut plan = Plan::default();
        plan.op(ms(200), SiteId(3), Op::Read(wv_storage::ObjectId(1)));
        plan.fault(ms(100), NetFault::Crash(SiteId(0)));
        plan.op(ms(100), SiteId(4), Op::Read(wv_storage::ObjectId(1)));
        plan.fault(ms(200), NetFault::Recover(SiteId(0)));
        let order: Vec<(Start, bool)> = (plan.entries.iter())
            .map(|(start, step)| (*start, matches!(step, Step::Op(..))))
            .collect();
        let at = |t| Start::At(ms(t));
        assert_eq!(
            order,
            [
                (at(100), false),
                (at(100), true),
                (at(200), true),
                (at(200), false)
            ]
        );
        assert_eq!(plan.ops(), 2);
    }

    #[test]
    fn a_sequential_entry_starts_its_pause_after_the_entry_before_it() {
        // Each sequential op is a blocking call: the read starts 200 ms
        // after the write completed, the crash at once after the read,
        // and the last read at once after the crash.
        let mut h = cluster(5);
        let suite = h.suite_id();
        let mut plan = Plan::default();
        let (now, later) = (
            Start::After(SimDuration::ZERO),
            Start::After(SimDuration::from_millis(200)),
        );
        plan.op(now, SiteId(3), Op::Write(suite, b"a".to_vec()));
        plan.op(later, SiteId(4), Op::Read(suite));
        plan.fault(now, NetFault::Crash(SiteId(0)));
        plan.op(now, SiteId(3), Op::Read(suite));
        let run = drive(&mut h, plan);
        let mut ops = run.ops.clone();
        ops.sort_by_key(|o| o.started);
        assert_eq!(ops[0].started, ms(0));
        assert_eq!(
            ops[1].started,
            ops[0].finished + SimDuration::from_millis(200)
        );
        assert_eq!(ops[2].started, ops[1].finished);
        assert_eq!(run.fault_windows[0].0, ops[1].finished);
        assert_eq!(run.judge(), []);
    }

    #[test]
    #[should_panic(expected = "a timed entry after a sequential one")]
    fn a_timed_entry_cannot_follow_a_sequential_one() {
        let mut plan = Plan::default();
        plan.op(
            Start::After(SimDuration::ZERO),
            SiteId(3),
            Op::Read(ObjectId(1)),
        );
        plan.op(ms(100), SiteId(3), Op::Read(ObjectId(1)));
    }

    #[test]
    fn same_instant_entries_apply_after_that_instants_deliveries() {
        // This is the rule that keeps E9's trials as they were: an entry
        // applies once the clock has reached its instant, behind whatever
        // the cluster had already scheduled for it. Client 3's write sends
        // its prepares at 0 and they land at 50 ms; the crash of
        // representative 0 due at 50 ms comes after that delivery, so
        // nothing is dropped, and representative 0's yes still counts.
        let mut h = cluster(7);
        let suite = h.suite_id();
        let mut plan = Plan::default();
        plan.op(ms(0), SiteId(3), Op::Write(suite, b"a".to_vec()));
        plan.fault(ms(50), NetFault::Crash(SiteId(0)));
        plan.op(ms(50), SiteId(4), Op::Read(suite));
        let (windows, _) = apply(&mut h, plan);
        assert_eq!(h.net_stats().dropped_down, 0, "the prepare landed first");
        assert_eq!(windows.end(&h), [(ms(50), ms(50) + RECOVERY_SLACK)]);
        let ops = collect(&mut h, 2);
        let write = ops.iter().find(|o| o.req.coordinator() == SiteId(3));
        assert_eq!(write.expect("the write").finished, ms(100));
        assert!(check_log(&ops, None, true).is_empty());
    }

    #[test]
    fn a_crash_and_its_recovery_open_a_window_until_the_slack_past_it() {
        let mut h = cluster(1);
        let mut plan = Plan::default();
        plan.fault(ms(1_000), NetFault::Crash(SiteId(1)));
        plan.fault(ms(3_000), NetFault::Recover(SiteId(1)));
        plan.fault(
            ms(4_000),
            NetFault::Partition(Partition::isolate(5, SiteId(2))),
        );
        plan.fault(ms(6_000), NetFault::Heal);
        let run = drive(&mut h, plan);
        assert!(run.ops.is_empty());
        assert_eq!(
            run.fault_windows,
            [
                (ms(1_000), ms(3_000) + RECOVERY_SLACK),
                (ms(4_000), ms(6_000))
            ]
        );
    }

    #[test]
    fn a_window_still_open_at_the_end_closes_there() {
        // A down site and a disk fault get the recovery slack past the
        // end; a network dial closes at the end itself.
        let mut h = cluster(2);
        let mut plan = Plan::default();
        plan.fault(ms(500), NetFault::DropAll(0.5));
        plan.fault(ms(1_000), NetFault::Crash(SiteId(0)));
        plan.fault(
            ms(1_500),
            Fault::IoErrors {
                site: SiteId(1),
                n: 1,
            },
        );
        plan.fault(ms(2_000), NetFault::Duplicate(0.0));
        let mut windows = drive(&mut h, plan).fault_windows;
        windows.sort();
        let end = ms(2_000);
        assert_eq!(
            windows,
            [
                (ms(500), end),
                (ms(1_000), end + RECOVERY_SLACK),
                (ms(2_000), end + RECOVERY_SLACK),
            ]
        );
    }

    #[test]
    fn a_driven_plan_returns_the_payloads_its_writes_and_transactions_carried() {
        let mut h = HarnessBuilder::new()
            .seed(4)
            .suites([ObjectId(1), ObjectId(2)])
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(1, 1))
            .build()
            .expect("legal cluster");
        let c = h.default_client();
        let mut plan = Plan::default();
        plan.op(ms(0), c, Op::Write(ObjectId(1), b"w".to_vec()));
        plan.op(ms(0), c, Op::Read(ObjectId(1)));
        let both = vec![(ObjectId(1), b"t1".to_vec()), (ObjectId(2), b"t2".to_vec())];
        plan.op(ms(500), c, Op::Transaction(both));
        let run = drive(&mut h, plan);
        let carried = [&b"w"[..], b"t1", b"t2"].map(<[u8]>::to_vec);
        assert_eq!(run.sent, HashSet::from(carried));
        assert_eq!(run.judge(), []);
    }

    #[test]
    fn a_leased_history_is_held_to_its_lease_and_every_other_to_the_floor() {
        use crate::oracle::tests::{read_ok, write_ok};
        // A write acknowledged at 100 ms, then a read at 150 ms that still
        // returns the initial version.
        let (mut history, mut verdict) = (Driven::default(), Verdict::default());
        history.ops = vec![write_ok(1, 0, 100), read_ok(0, b"", 150, 200)];
        let lease = SimDuration::from_millis;
        let floor = verdict.judge_leased("lease 2 s, depth 1".into(), &history, lease(100));
        assert!(verdict.found.is_empty(), "50 ms is inside a 100 ms lease");
        assert_eq!(floor, history.judge(), "returned: the floor's verdict");
        verdict.judge_leased("lease 100 ms, depth 4".into(), &history, lease(10));
        verdict.judge("validated, depth 1", &history);
        let found = [
            "lease 100 ms, depth 4: cache-tier read returned v0, beyond the staleness bound (floor v1)",
            "validated, depth 1: stale read: returned v0 after v1 was acknowledged",
        ];
        assert_eq!(verdict.found, found);
        assert_eq!(
            verdict.leased,
            ["lease 2 s, depth 1", "lease 100 ms, depth 4"]
        );
        let line = "Histories judged: 3 (6 operations); violations: 2.\n";
        assert_eq!(verdict.line().as_deref(), Some(line));
    }

    #[test]
    #[should_panic(expected = "the plan's 1 operations: 1 still missing")]
    fn a_plan_whose_operation_cannot_complete_says_so() {
        // The client is down when its read is due: the read never starts.
        let mut h = cluster(3);
        let suite = h.suite_id();
        let mut plan = Plan::default();
        plan.fault(ms(0), NetFault::Crash(SiteId(3)));
        plan.op(ms(10), SiteId(3), Op::Read(suite));
        drive(&mut h, plan);
    }
}
