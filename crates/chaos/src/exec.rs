//! Replays a [`Schedule`] against a live harness.
//!
//! Execution is a pure function of the schedule: the harness seed is the
//! schedule seed, and its events become a [`wv_bench::drive::Plan`],
//! played by the one driver. The run ends with a quiesce phase (faults
//! cleared, everyone recovered, event queue drained) so the oracle can
//! ask convergence questions. The outcome is a [`TrialRun`] — the merged
//! operation log, final reads, replica states, and the trial's [`Tally`]
//! — which [`crate::oracle`] judges.

use std::collections::{BTreeMap, HashSet};
use std::ops::AddAssign;

use wv_bench::drive::{self, Plan, REPAIR_INTERVAL};
use wv_core::client::{
    ClientOptions, ClientStats, CompletedOp, HealthOptions, RetryCause, WeakRepOptions,
};
use wv_core::harness::{HarnessBuilder, SiteSpec};
use wv_core::server::ServerStats;
use wv_core::{Fault, Harness, Op, OpError, OpKind, QuorumSpec, VoteAssignment};
use wv_net::sim_net::NetStats;
use wv_net::{Fault as NetFault, SiteId};
use wv_sim::{SimDuration, SimTime};
use wv_storage::{ObjectId, Version};

use crate::schedule::{ClusterSpec, EventKind, Schedule};

/// Event cap for the quiesce phase; a run that cannot drain within this
/// budget is reported with `quiesced = false` and skips convergence
/// checks rather than hanging the campaign.
const QUIESCE_CAP: u64 = 5_000_000;

/// How long the quiesce phase lets in-flight retries ride after the last
/// scheduled event before the final reads.
const SETTLE: SimDuration = SimDuration::from_secs(30);

/// What one trial did: the nodes' own counters, summed over the sites,
/// and the counts only the executor knows. A campaign adds these up.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Every client's counters.
    pub client: ClientStats,
    /// Every server's counters.
    pub server: ServerStats,
    /// The transport's counters.
    pub net: NetStats,
    /// Schedule events applied, by [`EventKind::name`].
    pub events: BTreeMap<&'static str, u64>,
    /// Disk faults applied, of any kind: every fault but a [`Fault::Net`].
    pub disk_faults: u64,
    /// Cross-suite transactions started (multi-suite clusters only;
    /// every fifth write tag becomes a two-suite atomic transaction).
    pub cross_suite_txns: u64,
    /// Operations that succeeded.
    pub ops_ok: u64,
    /// Operations that failed for any reason.
    pub ops_failed: u64,
    /// Operations that ran entirely outside every fault window: the ones
    /// the oracle's progress invariant judges.
    pub ops_quiet: u64,
    /// Operations that failed `Unavailable` — a quorum could not be
    /// assembled (the paper's "blocked" outcome) on their last attempt.
    pub quorum_blocked: u64,
}

impl Tally {
    /// Events named `name` applied.
    pub fn event(&self, name: &str) -> u64 {
        self.events.get(name).copied().unwrap_or(0)
    }

    /// Operations reported, committed or not.
    pub fn ops(&self) -> u64 {
        self.ops_ok + self.ops_failed
    }

    /// Attempts retried because their inquiry timed out short of a
    /// quorum: the quorum-blocked outcome, met and survived.
    pub fn attempts_quorum_blocked(&self) -> u64 {
        self.client.retry_causes[RetryCause::TimeoutInquire as usize]
    }
}

impl AddAssign<&Tally> for Tally {
    fn add_assign(&mut self, t: &Tally) {
        self.client += t.client;
        self.server += t.server;
        self.net += t.net;
        for (&name, &n) in &t.events {
            *self.events.entry(name).or_default() += n;
        }
        self.disk_faults += t.disk_faults;
        self.cross_suite_txns += t.cross_suite_txns;
        self.ops_ok += t.ops_ok;
        self.ops_failed += t.ops_failed;
        self.ops_quiet += t.ops_quiet;
        self.quorum_blocked += t.quorum_blocked;
    }
}

/// The executor-side record of one cross-suite transaction: the payload
/// every branch wrote, the suites it spanned, and how it ended. The
/// oracle's atomicity invariant judges these — a definitely-aborted
/// transaction's payload must never surface in any suite.
#[derive(Clone, Debug)]
pub struct TxnOutcome {
    /// The payload bytes every branch of the transaction wrote.
    pub payload: Vec<u8>,
    /// The suites the transaction spanned, in lock-acquisition order.
    pub suites: Vec<ObjectId>,
    /// When the transaction was enqueued, which is when the operation
    /// the client reports for it started.
    pub started: SimTime,
    /// `Ok` with the per-suite committed versions, a definite error, or
    /// `None` when the client never reported the operation: the run did
    /// not quiesce before it was reported.
    pub outcome: Option<Result<Vec<(ObjectId, Version)>, OpError>>,
}

/// One post-quiesce `(version, value)` observation — a client's final
/// read or a replica's durable state; `None` when the read failed or
/// the replica holds nothing.
pub type FinalState = Option<(Version, Vec<u8>)>;

/// Everything a finished trial leaves behind for the oracle.
#[derive(Clone, Debug)]
pub struct TrialRun {
    /// The schedule's seed (identifies the trial).
    pub seed: u64,
    /// All completed operations, across every client, in completion order
    /// per client (clients concatenated in site order).
    pub ops: Vec<CompletedOp>,
    /// Every payload the schedule wrote, for provenance checks.
    pub sent_payloads: HashSet<Vec<u8>>,
    /// The suites the cluster hosted, in id order. Single-suite clusters
    /// list exactly the default suite.
    pub suites: Vec<ObjectId>,
    /// Post-quiesce final reads indexed `[suite][client]`, aligned with
    /// [`TrialRun::suites`]: `(version, value)` on success. Empty when the
    /// run failed to quiesce.
    pub suite_finals: Vec<Vec<FinalState>>,
    /// Post-quiesce replica states indexed `[suite][server]`.
    pub suite_replicas: Vec<Vec<FinalState>>,
    /// Every cross-suite transaction the schedule started, with its
    /// outcome (empty on single-suite clusters).
    pub txns: Vec<TxnOutcome>,
    /// Whether the quiesce phase drained the event queue within budget.
    pub quiesced: bool,
    /// What the trial did, counted by its nodes and by the executor.
    pub tally: Tally,
    /// When the cluster was not whole, up to the schedule's last event
    /// (see [`wv_bench::drive::FaultWindows`]). The oracle's progress
    /// invariant judges only operations that ran entirely outside these
    /// windows.
    pub fault_windows: Vec<(SimTime, SimTime)>,
    /// `Some(bound)` when the cluster ran the client cache tier: the
    /// oracle's staleness-bound invariant lets cache-served reads lag the
    /// committed frontier by at most this much. Validated mode's bound is
    /// zero — exactly as fresh as a classic quorum read.
    pub cache_lease: Option<SimDuration>,
}

/// The payload bytes a [`EventKind::Write`] event produces. Deterministic
/// and unique per `(seed, tag)`, so the oracle can trace any read value
/// back to the write that produced it.
pub fn payload_bytes(seed: u64, tag: u64) -> Vec<u8> {
    format!("chaos-{seed:016x}-{tag}").into_bytes()
}

/// WAL sync latency used by group-commit-enabled chaos and bench
/// clusters: long enough that concurrent prepares genuinely share
/// batches, short against the 100 ms links.
pub const GROUP_COMMIT_LATENCY: SimDuration = SimDuration::from_millis(5);

/// Builds the harness a schedule runs against.
fn build_harness(spec: &ClusterSpec, seed: u64) -> Harness {
    let mut b = HarnessBuilder::new()
        .quorum(QuorumSpec::new(spec.read_quorum, spec.write_quorum))
        .seed(seed);
    if spec.suites > 1 {
        // Shard the keyspace: every suite shares the vote assignment and
        // quorum sizes but keeps its own versions, locks, and WAL records
        // (one WAL per server, interleaved and group-committed across
        // suites). `suites == 1` leaves the builder's default suite in
        // place, so a one-suite spec replays the committed E9 seeds
        // unchanged.
        b = b.suites((1..=spec.suites as u64).map(ObjectId));
    }
    for _ in 0..spec.servers {
        b = b.site(SiteSpec::server(1));
    }
    for _ in 0..spec.clients {
        b = b.client();
    }
    if spec.unchecked_quorums {
        b = b.allow_illegal_quorums();
    }
    if spec.repair {
        b = b.anti_entropy(REPAIR_INTERVAL);
    }
    let mut copts = ClientOptions::default();
    if spec.repair {
        copts.health = Some(HealthOptions::default());
    }
    if spec.cache_tier {
        copts.weak_rep = Some(WeakRepOptions::validated());
    }
    if spec.repair || spec.cache_tier {
        b = b.client_options(copts);
    }
    if spec.group_commit {
        b = b.group_commit(GROUP_COMMIT_LATENCY);
    }
    b.build()
        .expect("chaos harness build only fails on illegal quorums, which are unchecked here")
}

/// Replays `schedule` against a fresh cluster and returns the evidence.
pub fn run_schedule(spec: &ClusterSpec, schedule: &Schedule) -> TrialRun {
    run_schedule_inner(spec, schedule, false).0
}

/// [`run_schedule`] with recording on: also returns the merged operation
/// trace and quorum-decision log — the full evidence bundle for a replay
/// artifact. Recording never touches the protocol (the harness test suite
/// pins this), so the [`TrialRun`] is identical to the unrecorded
/// replay's.
pub fn run_schedule_instrumented(
    spec: &ClusterSpec,
    schedule: &Schedule,
) -> (TrialRun, Vec<wv_sim::SpanRecord>, Vec<wv_sim::AuditRecord>) {
    run_schedule_inner(spec, schedule, true)
}

fn run_schedule_inner(
    spec: &ClusterSpec,
    schedule: &Schedule,
    traced: bool,
) -> (TrialRun, Vec<wv_sim::SpanRecord>, Vec<wv_sim::AuditRecord>) {
    let mut h = build_harness(spec, schedule.seed);
    if traced {
        h.enable_tracing();
    }
    let mut tally = Tally::default();
    let clients = h.clients().to_vec();
    let suites = h.suite_ids().to_vec();

    // Deterministic executor-side routing over fields the schedule
    // already carries: a write lands in the suite its payload tag picks,
    // reads round-robin across suites, and (multi-suite only) every
    // fifth write tag becomes a two-suite atomic transaction. With one
    // suite every rule collapses to "the suite", so a one-suite spec
    // replays the committed E9 seeds unchanged.
    let mut txns: Vec<(SiteId, TxnOutcome)> = Vec::new();
    let mut read_rr = 0usize;
    let mut plan = Plan::default();
    for event in &schedule.events {
        let at = SimTime::from_millis(event.at_ms);
        // Disk faults apply only on the faulty-disk arm; the clean arm
        // replays the identical timeline without them.
        let disk = matches!(&event.kind, EventKind::Fault(f) if !matches!(f, Fault::Net(_)));
        if disk && !spec.disk_faults {
            continue;
        }
        tally.disk_faults += u64::from(disk);
        *tally.events.entry(event.kind.name()).or_default() += 1;
        match &event.kind {
            EventKind::Write { client, payload } => {
                let bytes = payload_bytes(schedule.seed, *payload);
                let c = clients[*client];
                let home = suites[*payload as usize % suites.len()];
                if suites.len() > 1 && *payload % 5 == 0 {
                    // Cross-suite transaction: the home suite plus its
                    // neighbour, both branches carrying the same payload
                    // so the oracle can trace either back to this txn.
                    // Writes sorted by suite id — the deterministic
                    // global lock-acquisition order.
                    tally.cross_suite_txns += 1;
                    let sibling = suites[(*payload as usize + 1) % suites.len()];
                    let span = vec![home.min(sibling), home.max(sibling)];
                    let writes: Vec<(ObjectId, Vec<u8>)> =
                        span.iter().map(|&s| (s, bytes.clone())).collect();
                    let outcome = TxnOutcome {
                        payload: bytes,
                        suites: span,
                        started: at,
                        outcome: None,
                    };
                    txns.push((c, outcome));
                    plan.op(at, c, Op::Transaction(writes));
                } else {
                    plan.op(at, c, Op::Write(home, bytes));
                }
            }
            EventKind::Read { client } => {
                let s = suites[read_rr % suites.len()];
                read_rr += 1;
                plan.op(at, clients[*client], Op::Read(s));
            }
            EventKind::Reconfigure {
                client,
                read_quorum,
                write_quorum,
            } => {
                // Reconfigurations always target the first suite; the
                // sibling suites keep their configs.
                plan.op(
                    at,
                    clients[*client],
                    Op::Reconfigure(
                        suites[0],
                        VoteAssignment::equal(spec.servers),
                        QuorumSpec::new(*read_quorum, *write_quorum),
                    ),
                );
            }
            EventKind::Fault(fault) => plan.fault(at, fault.clone()),
        }
    }
    let planned = plan.ops();
    let (windows, sent_payloads) = drive::apply(&mut h, plan);
    // A disk fault the clean arm leaves out still moves the clock: the
    // run ends where the schedule does.
    if let Some(last) = schedule.events.last() {
        let end = SimTime::from_millis(last.at_ms);
        if end > h.now() {
            h.advance(end.since(h.now()));
        }
    }
    let fault_windows = windows.end(&h);

    // Quiesce: clear every dial, reconnect and revive everyone, let
    // in-flight retries ride, then drain.
    h.inject(NetFault::DropAll(0.0));
    h.inject(NetFault::ExtraDelay(SimDuration::ZERO));
    h.inject(NetFault::Duplicate(0.0));
    h.inject(NetFault::Heal);
    for site in SiteId::all(spec.servers) {
        if h.cluster().is_down(site) {
            h.inject(NetFault::Recover(site));
        }
    }
    // A replica quarantined by interior corruption heals only once the
    // *periodic* probe pulls full state from every peer; give it a few
    // probe rounds on the healed network before silencing the daemon.
    if spec.repair && spec.disk_faults {
        h.advance(SimDuration::from_secs(3));
    }
    // The recovery pulls above are in flight; silence the *periodic*
    // probes, which would otherwise re-arm forever and the queue would
    // never drain.
    h.stop_anti_entropy();
    h.advance(SETTLE);
    let executed = h.run_until_quiet(QUIESCE_CAP);
    let quiesced = executed < QUIESCE_CAP;

    // A run that failed to quiesce is judged as it stands
    // (`Violation::NoQuiesce`): collected without a step further.
    let ops = drive::collect(&mut h, if quiesced { planned } else { 0 });
    // Match each cross-suite transaction to its completed operation (same
    // client, same start instant), clients in site order, so the oracle
    // can judge atomicity without guessing which op was which.
    txns.sort_by_key(|(c, _)| *c);
    let mut taken = vec![false; ops.len()];
    for (c, t) in &mut txns {
        let hit = ops.iter().enumerate().find(|(i, o)| {
            !taken[*i]
                && o.req.coordinator() == *c
                && o.kind == OpKind::Transaction
                && o.started == t.started
        });
        if let Some((i, o)) = hit {
            taken[i] = true;
            t.outcome = Some(o.outcome.clone().map(|ok| ok.multi));
        }
    }
    let txns = txns.into_iter().map(|(_, t)| t).collect();

    // Post-quiesce final reads, per suite then per client (only
    // meaningful if the system drained). Suite-major order keeps a
    // one-suite spec's read sequence — and therefore its RNG draws, and
    // the committed E9 seeds' replays — unchanged.
    let mut suite_finals: Vec<Vec<FinalState>> = Vec::new();
    if quiesced {
        for &s in &suites {
            let mut per_client = Vec::new();
            for &c in &clients {
                let result = h.run(c, Op::Read(s)).ok();
                per_client.push(result.map(|r| (r.version, r.value.to_vec())));
            }
            suite_finals.push(per_client);
        }
    }

    let replica = |site, su| {
        let bytes = h.value_at(site, su).map(|b| b.to_vec()).unwrap_or_default();
        Some((h.version_at(site, su)?, bytes))
    };
    let suite_replicas: Vec<Vec<FinalState>> = suites
        .iter()
        .map(|&su| SiteId::all(spec.servers).map(|s| replica(s, su)).collect())
        .collect();

    tally.client = clients
        .iter()
        .filter_map(|&c| h.client_at(c).map(|c| c.stats))
        .sum();
    tally.server = SiteId::all(spec.servers)
        .filter_map(|s| h.server_at(s).map(|s| s.stats))
        .sum();
    tally.net = h.net_stats();
    for op in &ops {
        tally.ops_quiet += u64::from(crate::oracle::ran_quiet(op, &fault_windows));
        match &op.outcome {
            Ok(_) => tally.ops_ok += 1,
            Err(e) => {
                tally.ops_failed += 1;
                tally.quorum_blocked += u64::from(matches!(e, OpError::Unavailable { .. }));
            }
        }
    }

    let (trace, audit) = h.take_recorded();
    (
        TrialRun {
            seed: schedule.seed,
            ops,
            sent_payloads,
            suites,
            suite_finals,
            suite_replicas,
            txns,
            quiesced,
            tally,
            fault_windows,
            // Validated mode: the bound is zero — a cache serve carries
            // the same quorum evidence as a classic read.
            cache_lease: spec.cache_tier.then_some(SimDuration::ZERO),
        },
        trace,
        audit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{generate, FaultEvent};

    #[test]
    fn replaying_a_schedule_is_deterministic() {
        let spec = ClusterSpec::majority(5, 2);
        let schedule = generate(&spec, 11);
        let a = run_schedule(&spec, &schedule);
        let b = run_schedule(&spec, &schedule);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.suite_finals, b.suite_finals);
        assert_eq!(a.suite_replicas, b.suite_replicas);
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.finished, y.finished);
        }
    }

    #[test]
    fn a_quiet_schedule_of_writes_and_reads_commits() {
        let spec = ClusterSpec::majority(3, 1);
        let schedule = Schedule {
            seed: 5,
            events: vec![
                FaultEvent::new(
                    100,
                    EventKind::Write {
                        client: 0,
                        payload: 1,
                    },
                ),
                FaultEvent::new(2_000, EventKind::Read { client: 0 }),
            ],
        };
        let run = run_schedule(&spec, &schedule);
        assert!(run.quiesced);
        assert_eq!(run.tally.ops_ok, 2);
        assert_eq!(run.tally.ops_failed, 0);
        // The final read sees the single write.
        let (v, value) = run.suite_finals[0][0].clone().expect("final read succeeds");
        assert_eq!(v, Version(1));
        assert_eq!(value, payload_bytes(5, 1));
    }

    #[test]
    fn repair_catches_up_a_crashed_replica_without_resurrecting_data() {
        // One site misses two writes while down; the anti-entropy daemon
        // must bring it back to the committed frontier — and the oracle's
        // repair invariants (provenance, version bound) must hold on the
        // result.
        let spec = ClusterSpec::majority(3, 1).with_repair();
        let schedule = Schedule {
            seed: 21,
            events: vec![
                FaultEvent::new(
                    100,
                    EventKind::Write {
                        client: 0,
                        payload: 1,
                    },
                ),
                FaultEvent::new(1_000, NetFault::Crash(SiteId(2))),
                FaultEvent::new(
                    2_000,
                    EventKind::Write {
                        client: 0,
                        payload: 2,
                    },
                ),
                FaultEvent::new(
                    3_000,
                    EventKind::Write {
                        client: 0,
                        payload: 3,
                    },
                ),
                FaultEvent::new(4_000, NetFault::Recover(SiteId(2))),
                FaultEvent::new(20_000, EventKind::Read { client: 0 }),
            ],
        };
        let run = run_schedule(&spec, &schedule);
        assert!(run.quiesced);
        assert!(
            run.tally.server.repairs_completed >= 1,
            "repair never fired"
        );
        // Every replica converged to the newest committed state.
        for state in run.suite_replicas[0].iter().flatten() {
            assert_eq!(state.0, Version(3));
            assert_eq!(state.1, payload_bytes(21, 3));
        }
        // And the full oracle — including the repair invariants — is clean.
        assert!(crate::oracle::check_trial(&run, false).is_empty());
        // Replays stay deterministic with the daemon running.
        let again = run_schedule(&spec, &schedule);
        assert_eq!(run.suite_replicas, again.suite_replicas);
        assert_eq!(run.tally, again.tally);
    }

    #[test]
    fn group_commit_trials_converge_and_satisfy_the_oracle() {
        // The same generated fault timeline, batched and unbatched. The
        // arms may commit different amounts of work (batching shifts
        // response times, so ops meet the faults differently), but each
        // must quiesce to an internally consistent state, the batched arm
        // must actually sync through the group-commit path, and the full
        // history oracle must stay clean over both.
        let plain = ClusterSpec::majority(3, 1);
        let batched = ClusterSpec::majority(3, 1).with_group_commit();
        let schedule = generate(&plain, 17);
        let a = run_schedule(&plain, &schedule);
        let b = run_schedule(&batched, &schedule);
        assert!(a.quiesced && b.quiesced);
        assert!(
            b.tally.server.wal_batches >= 1,
            "no sync used the batch path"
        );
        assert!(b.tally.server.wal_batched_records >= b.tally.server.wal_batches);
        assert_eq!(a.tally.server.wal_batches, 0, "batching off syncs inline");
        assert!(crate::oracle::check_trial(&a, false).is_empty());
        assert!(crate::oracle::check_trial(&b, false).is_empty());
        // Replays of the batched arm stay deterministic.
        let again = run_schedule(&batched, &schedule);
        assert_eq!(b.suite_replicas, again.suite_replicas);
        assert_eq!(b.tally, again.tally);
    }

    #[test]
    fn cache_tier_trials_converge_and_satisfy_the_oracle() {
        // The same generated fault timeline, cached and uncached. The
        // cached arm carries the zero staleness bound, so `check_trial`
        // also runs invariant 11 over it — cache serves must be exactly
        // as fresh as classic quorum reads, faults and all.
        let plain = ClusterSpec::majority(3, 1);
        let cached = ClusterSpec::majority(3, 1).with_cache_tier();
        let schedule = generate(&plain, 23);
        let a = run_schedule(&plain, &schedule);
        let b = run_schedule(&cached, &schedule);
        assert!(a.quiesced && b.quiesced);
        assert!(a.cache_lease.is_none());
        assert_eq!(b.cache_lease, Some(SimDuration::ZERO));
        assert_eq!(
            a.tally.client.cache_hits + a.tally.client.cache_misses,
            0,
            "uncached arm never touches the tier"
        );
        assert!(crate::oracle::check_trial(&a, false).is_empty());
        assert!(crate::oracle::check_trial(&b, false).is_empty());
        // Replays of the cached arm stay deterministic.
        let again = run_schedule(&cached, &schedule);
        assert_eq!(b.suite_replicas, again.suite_replicas);
        assert_eq!(b.tally, again.tally);
    }

    #[test]
    fn disk_fault_trials_converge_and_satisfy_the_oracle() {
        // The same generated fault timeline with disks faulty and clean.
        // The clean arm replays disk events as no-ops; the faulty arm
        // must inject them, stay poison-free, and still satisfy the
        // oracle — a quarantined replica surrenders its votes instead of
        // serving suspect state.
        let clean = ClusterSpec::majority(5, 2).with_repair();
        let faulty = ClusterSpec::majority(5, 2).with_repair().with_disk_faults();
        let mut injected = false;
        for seed in 0..8u64 {
            let schedule = generate(&clean, seed);
            let a = run_schedule(&clean, &schedule);
            let b = run_schedule(&faulty, &schedule);
            assert_eq!(a.tally.disk_faults, 0, "clean arm never injects");
            assert_eq!(a.tally.server.quarantines, 0);
            injected |= b.tally.disk_faults > 0;
            assert_eq!(
                b.tally.server.poison_escapes, 0,
                "seed {seed}: CRC collision"
            );
            assert_eq!(
                b.tally.server.served_while_quarantined, 0,
                "seed {seed}: a quarantined replica served"
            );
            assert!(
                crate::oracle::check_trial(&b, false).is_empty(),
                "seed {seed}: faulty-disk arm broke an invariant"
            );
            // Replays of the faulty arm stay deterministic.
            let again = run_schedule(&faulty, &schedule);
            assert_eq!(b.suite_replicas, again.suite_replicas);
            assert_eq!(b.tally, again.tally);
        }
        assert!(injected, "no seed in the window drew a disk fault");
    }

    #[test]
    fn a_bit_flip_quarantines_the_replica_and_repair_heals_it() {
        // Hand-crafted: write traffic makes site 2's WAL non-empty, a bit
        // flip corrupts it at the crash, recovery quarantines it, and the
        // anti-entropy daemon heals it with full pulls before quiesce.
        let spec = ClusterSpec::majority(3, 1).with_repair().with_disk_faults();
        let schedule = Schedule {
            seed: 31,
            events: vec![
                FaultEvent::new(
                    100,
                    EventKind::Write {
                        client: 0,
                        payload: 1,
                    },
                ),
                FaultEvent::new(
                    800,
                    EventKind::Write {
                        client: 0,
                        payload: 2,
                    },
                ),
                FaultEvent::new(2_000, Fault::BitFlip(SiteId(2))),
                FaultEvent::new(2_000, NetFault::Crash(SiteId(2))),
                FaultEvent::new(3_000, NetFault::Recover(SiteId(2))),
                FaultEvent::new(20_000, EventKind::Read { client: 0 }),
            ],
        };
        let run = run_schedule(&spec, &schedule);
        assert!(run.quiesced);
        assert_eq!(run.tally.event("bit_flip"), 1);
        assert!(
            run.tally.server.corrupt_records_detected >= 1,
            "the flip landed in a durable frame and recovery must see it"
        );
        assert_eq!(run.tally.server.quarantines, 1);
        assert_eq!(
            run.tally.server.requarantine_repairs, 1,
            "full pulls from both peers must heal the quarantine"
        );
        assert_eq!(run.tally.server.poison_escapes, 0);
        assert_eq!(run.tally.server.served_while_quarantined, 0);
        // Healed means fully caught up: every replica at the frontier.
        for state in run.suite_replicas[0].iter().flatten() {
            assert_eq!(state.0, Version(2));
            assert_eq!(state.1, payload_bytes(31, 2));
        }
        assert!(crate::oracle::check_trial(&run, false).is_empty());
    }

    #[test]
    fn a_torn_write_truncates_the_tail_without_quarantine() {
        // A tear at crash time loses only unsynced suffix records — the
        // replica recovers, truncates, and keeps its votes.
        let spec = ClusterSpec::majority(3, 1).with_disk_faults();
        let schedule = Schedule {
            seed: 12,
            events: vec![
                FaultEvent::new(
                    100,
                    EventKind::Write {
                        client: 0,
                        payload: 1,
                    },
                ),
                FaultEvent::new(900, Fault::TornWrite(SiteId(1))),
                FaultEvent::new(900, NetFault::Crash(SiteId(1))),
                FaultEvent::new(2_000, NetFault::Recover(SiteId(1))),
                FaultEvent::new(10_000, EventKind::Read { client: 0 }),
            ],
        };
        let run = run_schedule(&spec, &schedule);
        assert!(run.quiesced);
        assert_eq!(run.tally.event("torn_write"), 1);
        assert_eq!(
            run.tally.server.quarantines, 0,
            "a torn tail is not corruption"
        );
        assert!(crate::oracle::check_trial(&run, false).is_empty());
    }

    #[test]
    fn multi_suite_trials_shard_traffic_and_satisfy_the_oracle() {
        // The same generated fault timeline, flat and sharded four ways.
        // The suites flag never reaches the schedule generator, so both
        // arms replay identical fault timelines; the sharded arm routes
        // writes by payload tag, round-robins reads, turns every fifth
        // write tag into a cross-suite transaction, and must satisfy the
        // per-suite oracle plus the atomicity invariant.
        let plain = ClusterSpec::majority(5, 2);
        let sharded = ClusterSpec::majority(5, 2).with_suites(4);
        let schedule = generate(&plain, 41);
        let a = run_schedule(&plain, &schedule);
        let b = run_schedule(&sharded, &schedule);
        assert!(a.quiesced && b.quiesced);
        assert_eq!(a.suites.len(), 1);
        assert_eq!(b.suites.len(), 4);
        assert_eq!(a.tally.cross_suite_txns, 0, "flat arm never crosses");
        assert!(a.txns.is_empty());
        assert!(
            b.tally.cross_suite_txns >= 1,
            "payload tags divisible by 5 must become transactions"
        );
        assert_eq!(b.txns.len() as u64, b.tally.cross_suite_txns);
        assert_eq!(b.suite_finals.len(), 4);
        assert_eq!(b.suite_replicas.len(), 4);
        assert!(crate::oracle::check_trial(&a, false).is_empty());
        assert!(
            crate::oracle::check_trial(&b, false).is_empty(),
            "sharded arm broke an invariant: {:?}",
            crate::oracle::check_trial(&b, false)
        );
        // Replays of the sharded arm stay deterministic.
        let again = run_schedule(&sharded, &schedule);
        assert_eq!(b.suite_replicas, again.suite_replicas);
        assert_eq!(b.suite_finals, again.suite_finals);
        assert_eq!(b.tally, again.tally);
    }

    #[test]
    fn crashing_a_quorum_blocks_operations() {
        let spec = ClusterSpec::majority(3, 1);
        let schedule = Schedule {
            seed: 9,
            events: vec![
                FaultEvent::new(10, NetFault::Crash(SiteId(0))),
                FaultEvent::new(20, NetFault::Crash(SiteId(1))),
                FaultEvent::new(
                    100,
                    EventKind::Write {
                        client: 0,
                        payload: 1,
                    },
                ),
                // Recover one site late so the write's retries can land
                // before the quiesce phase revives everyone.
                FaultEvent::new(40_000, NetFault::Recover(SiteId(0))),
                FaultEvent::new(40_100, NetFault::Recover(SiteId(1))),
            ],
        };
        let run = run_schedule(&spec, &schedule);
        assert!(run.quiesced);
        assert!(
            run.tally.quorum_blocked >= 1 || run.tally.ops_ok >= 1,
            "the write either blocked (budget ran out mid-outage) or rode out the outage"
        );
        assert!(run.tally.client.timeouts > 0, "phase timeouts fired");
        assert_eq!(run.tally.event("crash"), 2);
        assert_eq!(run.tally.event("recover"), 2);
    }
}
