//! The op-log oracle: invariant checks over completed-operation logs.
//!
//! These are the consistency conditions weighted voting promises
//! *regardless* of which quorums were reachable. They read only
//! [`CompletedOp`]s, the payloads written and the final states, so chaos
//! trials, the shrinker, the experiments and the tests judge histories
//! with one implementation. Every check returns structured [`Violation`]
//! values: a campaign counts them, a test unwraps them into a panic.
//!
//! # The invariants
//!
//! Versions are per suite, so every version-based check below runs
//! within each suite of the log: a write counts in its own suite, and a
//! committed transaction or reconfiguration in each suite its
//! `OpSuccess::multi` names (a reconfiguration's is the re-publication
//! bump). Over the raw log ([`check_log`]):
//!
//! 1. **Version uniqueness** — two committed writes never share a version.
//! 2. **Real-time version order** — if write X *started* after write Y
//!    *finished*, X's version is higher. In `strict` mode (no message
//!    loss, so acknowledgements are never delayed past a later write) the
//!    stronger completion-order check applies: versions are strictly
//!    increasing in completion order.
//! 3. **Gap-freedom** — committed versions are consecutive from 1, with
//!    at most one missing slot per `Indeterminate` write (an in-doubt
//!    write may have committed without its client learning so).
//! 4. **No phantom reads** — a read never returns a version no write
//!    committed (checked only when no write ended in-doubt).
//! 5. **Value provenance** — a read never returns bytes nobody wrote.
//! 6. **Read agreement** — two reads of the same version see the same
//!    bytes.
//! 7. **Freshness** — a read that starts after a write's acknowledgement
//!    returns that write's version or newer.
//!
//! Over the post-quiesce state ([`check_convergence`]):
//!
//! 8. **Convergence** — after healing and recovering everything, every
//!    client reads one final state at least as new as every acknowledged
//!    write, and replicas holding the same version hold the same bytes.
//! 9. **Repair provenance** — a replica never holds bytes nobody wrote;
//!    anti-entropy repair copies committed state, it does not fabricate
//!    or resurrect data.
//! 10. **Repair version bound** — a replica's version is explicable by
//!     acknowledged plus in-doubt writes; repair never mints versions,
//!     so gap-freedom reasoning survives it.
//!
//! With the client cache tier in lease mode ([`check_staleness_bound`]):
//!
//! 11. **Staleness bound** — every successful read returns a version at
//!     least as new as anything acknowledged `lease` or more before the
//!     read began. A validated cache serve carries quorum evidence, so
//!     its rule is invariant 7 itself.
//!
//! Invariants 12 (no poisoned read) and 13 (cross-suite atomicity) need
//! a whole trial's tripwire counters and transaction records; they are
//! `wv_chaos::oracle`'s.
//!
//! Over the whole log, against the run's fault windows
//! ([`check_progress`]):
//!
//! 14. **Progress** — an operation that started and finished while the
//!     cluster was whole (no server down or freshly recovered, no
//!     partition, no loss, delay or duplication dial, no disk trouble)
//!     finished, and within [`QUIET_ATTEMPTS`] attempts. Contention alone
//!     is not an excuse: contended commits stand in line at the
//!     representatives instead of retrying. A reconfiguration is a
//!     read-modify-write of the whole suite and legitimately restarts on
//!     every write or rival reconfiguration it loses to, so its bound is
//!     the client's whole budget: it must not *fail*.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use wv_core::client::{CompletedOp, OpSuccess};
use wv_core::{OpError, OpKind};
use wv_sim::{SimDuration, SimTime};
use wv_storage::ObjectId;

/// One broken invariant, with enough context to report it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two committed writes carried the same version.
    DuplicateVersion {
        /// The shared version.
        version: u64,
    },
    /// A write that started after another finished committed a version
    /// that is not higher.
    VersionOrderInversion {
        /// Version of the earlier-finishing write.
        earlier: u64,
        /// Version of the later-starting write.
        later: u64,
    },
    /// Committed versions have more holes than in-doubt writes can
    /// explain.
    VersionGap {
        /// How many versions up to the maximum never committed.
        missing: u64,
        /// How many holes the in-doubt writes could account for.
        allowed: u64,
    },
    /// A read returned a version no write committed.
    PhantomRead {
        /// The version the read returned.
        version: u64,
    },
    /// A read returned bytes that no write in the schedule sent.
    ForeignValue {
        /// The version the read returned.
        version: u64,
    },
    /// Two reads of the same version saw different bytes.
    DivergentRead {
        /// The version with conflicting contents.
        version: u64,
    },
    /// A read missed a write acknowledged before the read began.
    StaleRead {
        /// The version the read returned.
        returned: u64,
        /// The newest version acknowledged before the read started.
        floor: u64,
    },
    /// With the cache tier on, a read exceeded the staleness bound: it
    /// missed a write acknowledged at least the lease before it began.
    StaleCachedRead {
        /// The version the read returned.
        returned: u64,
        /// The newest version acknowledged `lease` or more before the
        /// read started.
        floor: u64,
    },
    /// After quiesce, a client's final read missed an acknowledged write.
    MissedAckedWrite {
        /// Which client (0-based).
        client: usize,
        /// The version its final read returned.
        final_version: u64,
        /// The newest acknowledged version.
        max_acked: u64,
    },
    /// After quiesce, clients disagreed on the final state.
    FinalStateDivergence,
    /// After quiesce (everything healed and recovered), a client's final
    /// read still failed.
    PostHealUnavailable {
        /// Which client (0-based).
        client: usize,
    },
    /// Two replicas held the same version with different bytes.
    ReplicaDivergence {
        /// The version with conflicting replica contents.
        version: u64,
    },
    /// After quiesce, a replica held bytes no client ever sent — the
    /// repair path fabricated or resurrected data nobody wrote.
    ReplicaForeignValue {
        /// The replica slot (server index) holding the foreign bytes.
        site: usize,
        /// The version the foreign bytes were stored under.
        version: u64,
    },
    /// After quiesce, a replica sat beyond every version acknowledged or
    /// in-doubt writes could have committed — repair minted a version
    /// instead of copying one.
    ReplicaBeyondCommit {
        /// The replica slot (server index).
        site: usize,
        /// The version the replica reached.
        version: u64,
        /// The largest version explicable by acked + in-doubt writes.
        bound: u64,
    },
    /// A corrupt WAL frame's checksum matched anyway: recovery replayed
    /// poisoned bytes (CRC collision).
    PoisonEscaped {
        /// How many corrupt frames slipped past the checksum.
        count: u64,
    },
    /// A quarantined replica answered a request instead of refusing —
    /// suspect state escaped the quarantine fence.
    QuarantineServed {
        /// How many requests it served.
        count: u64,
    },
    /// A cross-suite transaction reported success but committed no
    /// version in one of its suites — a branch silently vanished.
    CrossSuitePartialCommit {
        /// The suite the committed outcome skipped.
        suite: u64,
    },
    /// A definitely-aborted cross-suite transaction's payload surfaced
    /// in a suite's reads, final state, or replicas — one branch
    /// committed while its sibling aborted.
    CrossSuiteAbortLeak {
        /// The suite where the aborted payload surfaced.
        suite: u64,
    },
    /// The run failed to drain its event queue within the quiesce budget.
    NoQuiesce,
    /// An operation that ran entirely outside every fault window needed
    /// more attempts than [`QUIET_ATTEMPTS`], or failed.
    SlowProgress {
        /// What kind of operation.
        kind: OpKind,
        /// When it started (virtual ms), to find it in a replay.
        started_ms: u64,
        /// The attempts it took.
        attempts: u32,
        /// Whether it failed outright.
        failed: bool,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateVersion { version } => {
                write!(f, "duplicate committed version v{version}")
            }
            Violation::VersionOrderInversion { earlier, later } => write!(
                f,
                "real-time order inverted: v{later} started after v{earlier} finished"
            ),
            Violation::VersionGap { missing, allowed } => write!(
                f,
                "{missing} committed version(s) missing but only {allowed} write(s) in doubt"
            ),
            Violation::PhantomRead { version } => {
                write!(f, "read returned v{version}, which no write committed")
            }
            Violation::ForeignValue { version } => {
                write!(f, "read at v{version} returned bytes nobody wrote")
            }
            Violation::DivergentRead { version } => {
                write!(f, "two reads of v{version} saw different bytes")
            }
            Violation::StaleRead { returned, floor } => write!(
                f,
                "stale read: returned v{returned} after v{floor} was acknowledged"
            ),
            Violation::StaleCachedRead { returned, floor } => write!(
                f,
                "cache-tier read returned v{returned}, beyond the staleness bound (floor v{floor})"
            ),
            Violation::MissedAckedWrite {
                client,
                final_version,
                max_acked,
            } => write!(
                f,
                "client {client}'s final read v{final_version} misses acked write v{max_acked}"
            ),
            Violation::FinalStateDivergence => {
                write!(f, "clients disagree on the final state after quiesce")
            }
            Violation::PostHealUnavailable { client } => write!(
                f,
                "client {client} cannot read after everything healed and recovered"
            ),
            Violation::ReplicaDivergence { version } => {
                write!(f, "replicas diverge at v{version}")
            }
            Violation::ReplicaForeignValue { site, version } => write!(
                f,
                "replica {site} holds bytes nobody wrote at v{version} (repair resurrected data)"
            ),
            Violation::ReplicaBeyondCommit {
                site,
                version,
                bound,
            } => write!(
                f,
                "replica {site} reached v{version}, beyond anything committed or in doubt (v{bound})"
            ),
            Violation::PoisonEscaped { count } => write!(
                f,
                "{count} corrupt WAL frame(s) passed the checksum and replayed"
            ),
            Violation::QuarantineServed { count } => write!(
                f,
                "a quarantined replica served {count} request(s) instead of refusing"
            ),
            Violation::CrossSuitePartialCommit { suite } => write!(
                f,
                "cross-suite transaction committed without a version in suite {suite}"
            ),
            Violation::CrossSuiteAbortLeak { suite } => write!(
                f,
                "aborted cross-suite transaction's payload surfaced in suite {suite}"
            ),
            Violation::NoQuiesce => {
                write!(f, "event queue failed to drain within the quiesce budget")
            }
            Violation::SlowProgress {
                kind,
                started_ms,
                attempts,
                failed,
            } => write!(
                f,
                "no fault active, yet the {kind:?} started at {started_ms} ms {} {attempts} attempt(s)",
                if *failed { "failed after" } else { "needed" }
            ),
        }
    }
}

impl Violation {
    /// A short stable tag for grouping violations in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Violation::DuplicateVersion { .. } => "duplicate_version",
            Violation::VersionOrderInversion { .. } => "version_order_inversion",
            Violation::VersionGap { .. } => "version_gap",
            Violation::PhantomRead { .. } => "phantom_read",
            Violation::ForeignValue { .. } => "foreign_value",
            Violation::DivergentRead { .. } => "divergent_read",
            Violation::StaleRead { .. } => "stale_read",
            Violation::StaleCachedRead { .. } => "stale_cached_read",
            Violation::MissedAckedWrite { .. } => "missed_acked_write",
            Violation::FinalStateDivergence => "final_state_divergence",
            Violation::PostHealUnavailable { .. } => "post_heal_unavailable",
            Violation::ReplicaDivergence { .. } => "replica_divergence",
            Violation::ReplicaForeignValue { .. } => "replica_foreign_value",
            Violation::ReplicaBeyondCommit { .. } => "replica_beyond_commit",
            Violation::PoisonEscaped { .. } => "poison_escaped",
            Violation::QuarantineServed { .. } => "quarantine_served",
            Violation::CrossSuitePartialCommit { .. } => "cross_suite_partial_commit",
            Violation::CrossSuiteAbortLeak { .. } => "cross_suite_abort_leak",
            Violation::NoQuiesce => "no_quiesce",
            Violation::SlowProgress { .. } => "slow_progress",
        }
    }

    /// True for the progress invariant (14): the history is consistent,
    /// the system was just slower than it has any excuse to be.
    pub fn is_progress(&self) -> bool {
        matches!(self, Violation::SlowProgress { .. })
    }
}

/// Attempts an operation may take when no fault is active while it runs.
pub const QUIET_ATTEMPTS: u32 = 4;

/// Whether `op` started and finished outside every fault window — the
/// operations invariant 14 judges.
pub fn ran_quiet(op: &CompletedOp, fault_windows: &[(SimTime, SimTime)]) -> bool {
    fault_windows
        .iter()
        .all(|(from, until)| op.finished < *from || op.started > *until)
}

/// Checks invariant 14 over a completion log: every operation that ran
/// entirely outside `fault_windows` finished within [`QUIET_ATTEMPTS`]
/// attempts (a reconfiguration: finished at all).
pub fn check_progress(ops: &[CompletedOp], fault_windows: &[(SimTime, SimTime)]) -> Vec<Violation> {
    ops.iter()
        .filter(|op| ran_quiet(op, fault_windows))
        .filter(|op| match op.kind {
            OpKind::Reconfigure => op.outcome.is_err(),
            _ => op.outcome.is_err() || op.attempts > QUIET_ATTEMPTS,
        })
        .map(|op| Violation::SlowProgress {
            kind: op.kind,
            started_ms: op.started.as_micros() / 1000,
            attempts: op.attempts,
            failed: op.outcome.is_err(),
        })
        .collect()
}

/// One suite's evidence in a log: the versions committed there, as
/// `(started, finished, version)`, its in-doubt writes, and its reads.
#[derive(Default)]
struct Suite<'a> {
    committed: Vec<(SimTime, SimTime, u64)>,
    in_doubt: u64,
    reads: Vec<(SimTime, &'a OpSuccess)>,
}

/// A log's evidence by suite. Versions are per-suite counters: a write
/// commits one in its own suite, and a transaction or reconfiguration one
/// in each suite its `OpSuccess::multi` names (a reconfiguration's is the
/// re-publication bump that serialises it against concurrent writes). A
/// write or reconfiguration that ended in doubt may have committed a
/// version nobody acknowledged in its suite.
fn by_suite(ops: &[CompletedOp]) -> BTreeMap<ObjectId, Suite<'_>> {
    let mut suites: BTreeMap<ObjectId, Suite<'_>> = BTreeMap::new();
    for o in ops {
        let (started, finished) = (o.started, o.finished);
        let suite = suites.entry(o.suite).or_default();
        match (o.kind, &o.outcome) {
            (OpKind::Write, Ok(okk)) => suite.committed.push((started, finished, okk.version.0)),
            (OpKind::Read, Ok(okk)) => suite.reads.push((started, okk)),
            (OpKind::Write | OpKind::Reconfigure, Err(OpError::Indeterminate)) => {
                suite.in_doubt += 1
            }
            (OpKind::Transaction | OpKind::Reconfigure, Ok(okk)) => {
                for &(s, v) in &okk.multi {
                    let suite = suites.entry(s).or_default();
                    suite.committed.push((started, finished, v.0));
                }
            }
            _ => {}
        }
    }
    suites
}

impl Suite<'_> {
    /// The newest version acknowledged `lag` or more before `started`.
    fn floor(&self, started: SimTime, lag: SimDuration) -> u64 {
        let acked = self.committed.iter().filter(|c| c.1 + lag <= started);
        acked.map(|c| c.2).max().unwrap_or(0)
    }
}

/// Checks invariants 1–7 over a completion log, within each suite it
/// touches.
///
/// `sent` enables the provenance check (5) when the caller tracked every
/// payload written; pass `None` when the log's writes came from elsewhere.
/// `strict` upgrades the real-time order check (2) to completion-order
/// monotonicity — valid only when the network never drops or delays
/// acknowledgements past a later write (no loss bursts, no delay spikes).
pub fn check_log(
    ops: &[CompletedOp],
    sent: Option<&HashSet<Vec<u8>>>,
    strict: bool,
) -> Vec<Violation> {
    let suites = by_suite(ops);
    suites
        .values()
        .flat_map(|s| check_suite(s, sent, strict))
        .collect()
}

/// Invariants 1–7 within one suite.
fn check_suite(suite: &Suite<'_>, sent: Option<&HashSet<Vec<u8>>>, strict: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (committed, in_doubt) = (&suite.committed, suite.in_doubt);

    // 1: version uniqueness.
    let mut versions_seen: HashSet<u64> = HashSet::new();
    for &(_, _, v) in committed {
        if !versions_seen.insert(v) {
            violations.push(Violation::DuplicateVersion { version: v });
        }
    }

    // 2: real-time version order.
    if strict {
        let mut by_finish: Vec<&(SimTime, SimTime, u64)> = committed.iter().collect();
        by_finish.sort_by_key(|e| e.1);
        for pair in by_finish.windows(2) {
            let a = pair[0].2;
            let b = pair[1].2;
            if a >= b {
                violations.push(Violation::VersionOrderInversion {
                    earlier: a,
                    later: b,
                });
            }
        }
    } else {
        // Pairwise: X started after Y finished => vX > vY. Valid even
        // when lost acknowledgements delay a commit's completion record.
        for &(x_started, _, vx) in committed {
            for &(_, y_finished, vy) in committed {
                if x_started > y_finished && vx <= vy {
                    violations.push(Violation::VersionOrderInversion {
                        earlier: vy,
                        later: vx,
                    });
                }
            }
        }
    }

    // 3: gap-freedom, modulo in-doubt writes.
    if let Some(&max) = versions_seen.iter().max() {
        let missing = max - versions_seen.len() as u64;
        if missing > in_doubt {
            violations.push(Violation::VersionGap {
                missing,
                allowed: in_doubt,
            });
        }
    }

    // 4–7: reads.
    let mut seen_at_version: HashMap<u64, Vec<u8>> = HashMap::new();
    for &(started, okk) in &suite.reads {
        let v = okk.version.0;
        // 4: phantom reads — only decidable when nothing is in doubt (an
        // in-doubt write may have committed a version we cannot see).
        if in_doubt == 0 && v != 0 && !versions_seen.contains(&v) {
            violations.push(Violation::PhantomRead { version: v });
        }
        // 5: provenance.
        if let Some(sent) = sent {
            let value = okk.value.as_ref().map(|b| b.to_vec()).unwrap_or_default();
            if !value.is_empty() && !sent.contains(&value) {
                violations.push(Violation::ForeignValue { version: v });
            }
        }
        // 6: read agreement.
        if let Some(bytes) = okk.value.as_ref().map(|b| b.to_vec()) {
            if let Some(prev) = seen_at_version.insert(v, bytes.clone()) {
                if prev != bytes {
                    violations.push(Violation::DivergentRead { version: v });
                }
            }
        }
        // 7: freshness.
        let floor = suite.floor(started, SimDuration::ZERO);
        if v < floor {
            violations.push(Violation::StaleRead { returned: v, floor });
        }
    }

    violations
}

/// Checks invariant 11 with `lease`, the lease's TTL, as the bound,
/// within each suite (a zero bound is invariant 7's floor).
pub fn check_staleness_bound(ops: &[CompletedOp], lease: SimDuration) -> Vec<Violation> {
    let mut violations = Vec::new();
    for suite in by_suite(ops).values() {
        for &(started, okk) in &suite.reads {
            let floor = suite.floor(started, lease);
            if okk.version.0 < floor {
                violations.push(Violation::StaleCachedRead {
                    returned: okk.version.0,
                    floor,
                });
            }
        }
    }
    violations
}

/// Checks invariants 8–10 for `suite` over a completion log and the
/// suite's quiesced final state: `finals` per client, `replicas` per
/// server.
pub fn check_convergence(
    ops: &[CompletedOp],
    suite: ObjectId,
    sent: &HashSet<Vec<u8>>,
    finals: &[Option<(wv_storage::Version, Vec<u8>)>],
    replicas: &[Option<(wv_storage::Version, Vec<u8>)>],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let log = by_suite(ops).remove(&suite).unwrap_or_default();
    let max_acked = log.committed.iter().map(|c| c.2).max().unwrap_or(0);
    for (client, outcome) in finals.iter().enumerate() {
        match outcome {
            Some((v, _)) => {
                if v.0 < max_acked {
                    violations.push(Violation::MissedAckedWrite {
                        client,
                        final_version: v.0,
                        max_acked,
                    });
                }
            }
            None => violations.push(Violation::PostHealUnavailable { client }),
        }
    }
    let states: Vec<&(wv_storage::Version, Vec<u8>)> = finals.iter().flatten().collect();
    if states.windows(2).any(|p| p[0] != p[1]) {
        violations.push(Violation::FinalStateDivergence);
    }
    let mut replica_at: HashMap<u64, &Vec<u8>> = HashMap::new();
    for state in replicas.iter().flatten() {
        let (v, bytes) = state;
        if let Some(prev) = replica_at.insert(v.0, bytes) {
            if prev != bytes {
                violations.push(Violation::ReplicaDivergence { version: v.0 });
            }
        }
    }
    // 9 + 10: repair may only move committed state between replicas. Any
    // bytes a replica holds must have been sent by some client, and its
    // version must be explicable by acked plus in-doubt writes — only an
    // in-doubt write can commit a version the log never acknowledged, so
    // `max_acked + in_doubt` bounds every legitimate replica.
    let bound = max_acked + log.in_doubt;
    for (site, state) in replicas.iter().enumerate() {
        let Some((v, bytes)) = state else { continue };
        if !bytes.is_empty() && !sent.contains(bytes) {
            violations.push(Violation::ReplicaForeignValue { site, version: v.0 });
        }
        if v.0 > bound {
            violations.push(Violation::ReplicaBeyondCommit {
                site,
                version: v.0,
                bound,
            });
        }
    }
    violations
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;
    use wv_core::msg::ReqId;
    use wv_storage::Version;

    pub(crate) fn write_ok(version: u64, started_ms: u64, finished_ms: u64) -> CompletedOp {
        CompletedOp {
            req: ReqId(version),
            kind: OpKind::Write,
            suite: ObjectId(7),
            outcome: Ok(OpSuccess {
                version: Version(version),
                value: None,
                multi: Vec::new(),
            }),
            started: SimTime::from_millis(started_ms),
            finished: SimTime::from_millis(finished_ms),
            attempts: 1,
        }
    }

    fn write_in_doubt(started_ms: u64, finished_ms: u64) -> CompletedOp {
        CompletedOp {
            req: ReqId(999),
            kind: OpKind::Write,
            suite: ObjectId(7),
            outcome: Err(OpError::Indeterminate),
            started: SimTime::from_millis(started_ms),
            finished: SimTime::from_millis(finished_ms),
            attempts: 3,
        }
    }

    pub(crate) fn read_ok(
        version: u64,
        value: &[u8],
        started_ms: u64,
        finished_ms: u64,
    ) -> CompletedOp {
        CompletedOp {
            req: ReqId(10_000 + started_ms),
            kind: OpKind::Read,
            suite: ObjectId(7),
            outcome: Ok(OpSuccess {
                version: Version(version),
                value: Some(Bytes::from(value.to_vec())),
                multi: Vec::new(),
            }),
            started: SimTime::from_millis(started_ms),
            finished: SimTime::from_millis(finished_ms),
            attempts: 1,
        }
    }

    #[test]
    fn a_clean_history_passes() {
        let ops = vec![
            write_ok(1, 0, 100),
            write_ok(2, 150, 250),
            read_ok(2, b"x", 300, 400),
            read_ok(2, b"x", 300, 420),
        ];
        let mut sent = HashSet::new();
        sent.insert(b"x".to_vec());
        assert!(check_log(&ops, Some(&sent), true).is_empty());
    }

    #[test]
    fn duplicate_versions_are_flagged() {
        let ops = vec![write_ok(1, 0, 100), write_ok(1, 150, 250)];
        let v = check_log(&ops, None, false);
        assert!(v.contains(&Violation::DuplicateVersion { version: 1 }));
    }

    /// Suites 1 and 2 each commit v1..v3 on their own, one transaction
    /// installs v4 in both, and each suite is read back at v4; `dup`
    /// turns suite 2's v3 into a second v2.
    fn two_suites(dup: bool) -> Vec<CompletedOp> {
        let in_suite = |s: u64, op: CompletedOp| CompletedOp {
            suite: ObjectId(s),
            ..op
        };
        let mut ops = Vec::new();
        for s in [1, 2] {
            for v in 1..=3 {
                let v = if dup && s == 2 && v == 3 { 2 } else { v };
                let t = v * 100;
                ops.push(in_suite(s, write_ok(v, t, t + 50)));
            }
        }
        let multi = vec![(ObjectId(1), Version(4)), (ObjectId(2), Version(4))];
        ops.push(CompletedOp {
            kind: OpKind::Transaction,
            outcome: Ok(OpSuccess {
                version: Version(4),
                value: None,
                multi,
            }),
            ..in_suite(1, write_ok(4, 400, 450))
        });
        ops.push(in_suite(1, read_ok(4, b"t", 500, 550)));
        ops.push(in_suite(2, read_ok(4, b"t", 500, 550)));
        ops
    }

    #[test]
    fn versions_are_judged_within_their_own_suite() {
        let sent: HashSet<Vec<u8>> = [b"t".to_vec()].into();
        assert_eq!(check_log(&two_suites(false), Some(&sent), true), []);
        assert_eq!(
            check_staleness_bound(&two_suites(false), SimDuration::ZERO),
            []
        );
    }

    #[test]
    fn a_duplicate_in_one_suite_is_flagged_once() {
        let v = check_log(&two_suites(true), None, false);
        let dups: Vec<_> = v
            .iter()
            .filter(|x| matches!(x, Violation::DuplicateVersion { .. }))
            .collect();
        assert_eq!(dups, [&Violation::DuplicateVersion { version: 2 }]);
    }

    #[test]
    fn real_time_order_inversion_is_flagged() {
        // v1 starts (300) strictly after v2 finished (250): inverted.
        let ops = vec![write_ok(2, 150, 250), write_ok(1, 300, 400)];
        let v = check_log(&ops, None, false);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::VersionOrderInversion { .. })));
    }

    #[test]
    fn overlapping_writes_may_commit_out_of_completion_order_when_lossy() {
        // v1's ack was delayed past v2's completion even though both
        // overlap. Legal in lossy mode, flagged in strict mode.
        let ops = vec![write_ok(2, 0, 100), write_ok(1, 10, 500)];
        assert!(check_log(&ops, None, false).is_empty());
        assert!(!check_log(&ops, None, true).is_empty());
    }

    #[test]
    fn version_gaps_are_flagged_unless_explained_by_in_doubt_writes() {
        // v1 and v3 committed, v2 missing, nothing in doubt.
        let ops = vec![write_ok(1, 0, 100), write_ok(3, 150, 250)];
        let v = check_log(&ops, None, false);
        assert!(v.contains(&Violation::VersionGap {
            missing: 1,
            allowed: 0
        }));
        // Same history plus one in-doubt write: the gap is explained.
        let ops = vec![
            write_ok(1, 0, 100),
            write_in_doubt(110, 140),
            write_ok(3, 150, 250),
        ];
        assert!(check_log(&ops, None, false).is_empty());
    }

    #[test]
    fn phantom_reads_are_flagged_only_when_nothing_is_in_doubt() {
        let ops = vec![write_ok(1, 0, 100), read_ok(5, b"", 200, 300)];
        let v = check_log(&ops, None, false);
        assert!(v.contains(&Violation::PhantomRead { version: 5 }));
        let ops = vec![
            write_ok(1, 0, 100),
            write_in_doubt(110, 140),
            read_ok(2, b"", 200, 300),
        ];
        assert!(!check_log(&ops, None, false)
            .iter()
            .any(|x| matches!(x, Violation::PhantomRead { .. })));
    }

    #[test]
    fn stale_reads_and_foreign_values_are_flagged() {
        let mut sent = HashSet::new();
        sent.insert(b"good".to_vec());
        let ops = vec![
            write_ok(1, 0, 100),
            write_ok(2, 120, 220),
            // Started at 300, after v2's ack at 220, but returned v1.
            read_ok(1, b"good", 300, 400),
            // Bytes nobody wrote.
            read_ok(2, b"evil", 500, 600),
        ];
        let v = check_log(&ops, Some(&sent), true);
        assert!(v.contains(&Violation::StaleRead {
            returned: 1,
            floor: 2
        }));
        assert!(v.contains(&Violation::ForeignValue { version: 2 }));
    }

    #[test]
    fn divergent_reads_are_flagged() {
        let mut sent = HashSet::new();
        sent.insert(b"a".to_vec());
        sent.insert(b"b".to_vec());
        let ops = vec![
            write_ok(1, 0, 100),
            read_ok(1, b"a", 200, 300),
            read_ok(1, b"b", 200, 320),
        ];
        let v = check_log(&ops, Some(&sent), true);
        assert!(v.contains(&Violation::DivergentRead { version: 1 }));
    }

    #[test]
    fn the_staleness_bound_tracks_the_lease() {
        // A write acked at 100ms; a read starting at 150ms returns v0.
        let ops = vec![write_ok(1, 0, 100), read_ok(0, b"", 150, 160)];
        // Zero bound (validated mode): flagged — same floor as invariant 7.
        let v = check_staleness_bound(&ops, SimDuration::ZERO);
        assert!(v.contains(&Violation::StaleCachedRead {
            returned: 0,
            floor: 1
        }));
        // A 100ms lease forgives a read inside the bound…
        assert!(check_staleness_bound(&ops, SimDuration::from_millis(100)).is_empty());
        // …but not one starting past acknowledgement + lease.
        let ops = vec![write_ok(1, 0, 100), read_ok(0, b"", 201, 210)];
        let v = check_staleness_bound(&ops, SimDuration::from_millis(100));
        assert_eq!(
            v,
            vec![Violation::StaleCachedRead {
                returned: 0,
                floor: 1
            }]
        );
    }

    #[test]
    fn progress_is_demanded_only_of_operations_that_met_no_fault() {
        let windows = [
            (SimTime::from_millis(1_000), SimTime::from_millis(2_000)),
            (SimTime::from_millis(5_000), SimTime::from_millis(6_000)),
        ];
        let slow = |started_ms: u64, finished_ms: u64| CompletedOp {
            attempts: QUIET_ATTEMPTS + 1,
            ..write_ok(1, started_ms, finished_ms)
        };
        // Touching a window at either end, or spanning one, excuses an op.
        let excused = [
            slow(500, 1_000),
            slow(1_500, 1_600),
            slow(2_000, 3_000),
            slow(900, 6_500),
        ];
        assert!(check_progress(&excused, &windows).is_empty());
        // Between the windows there is no excuse: not for retrying...
        let violation = |attempts: u32, failed: bool| Violation::SlowProgress {
            kind: OpKind::Write,
            started_ms: 2_001,
            attempts,
            failed,
        };
        assert_eq!(
            check_progress(&[slow(2_001, 4_999)], &windows),
            vec![violation(5, false)]
        );
        let at_the_bound = CompletedOp {
            attempts: QUIET_ATTEMPTS,
            ..slow(2_001, 4_999)
        };
        assert!(check_progress(&[at_the_bound], &windows).is_empty());
        // ...and not for failing, however few attempts it took.
        let failed = CompletedOp {
            started: SimTime::from_millis(2_001),
            ..write_in_doubt(2_001, 4_000)
        };
        assert_eq!(
            check_progress(&[failed], &windows),
            vec![violation(3, true)]
        );
        // A reconfiguration restarts on every write it loses to; it only
        // must not fail.
        let reconfigure = |outcome| CompletedOp {
            kind: OpKind::Reconfigure,
            outcome,
            ..slow(2_001, 4_999)
        };
        let won = reconfigure(write_ok(2, 0, 0).outcome);
        let lost = reconfigure(Err(OpError::Conflict));
        assert!(check_progress(&[won], &windows).is_empty());
        assert!(matches!(
            check_progress(&[lost], &windows)[..],
            [Violation::SlowProgress { failed: true, .. }]
        ));
        assert!(violation(5, false).is_progress() && !Violation::NoQuiesce.is_progress());
    }

    /// Invariants 8–10 over a one-suite history whose single client
    /// acked `ops`, read back `final_state`, and left the given
    /// per-server replicas behind.
    fn converged(
        ops: Vec<CompletedOp>,
        sent: &[&[u8]],
        final_state: (u64, &[u8]),
        replicas: Vec<Option<(u64, &[u8])>>,
    ) -> Vec<Violation> {
        let sent: HashSet<Vec<u8>> = sent.iter().map(|b| b.to_vec()).collect();
        let finals = [Some((Version(final_state.0), final_state.1.to_vec()))];
        let replicas: Vec<_> = replicas
            .into_iter()
            .map(|r| r.map(|(v, b)| (Version(v), b.to_vec())))
            .collect();
        check_convergence(&ops, ObjectId(7), &sent, &finals, &replicas)
    }

    #[test]
    fn replicas_holding_unsent_bytes_are_flagged_as_resurrected_data() {
        let v = converged(
            vec![write_ok(1, 0, 100)],
            &[b"a"],
            (1, b"a"),
            vec![Some((1, b"a")), Some((1, b"forged"))],
        );
        assert!(v.contains(&Violation::ReplicaForeignValue {
            site: 1,
            version: 1
        }));
        // Replica 0's bytes were legitimately written: only one flag.
        assert_eq!(
            v.iter()
                .filter(|x| matches!(x, Violation::ReplicaForeignValue { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn replicas_beyond_every_explicable_version_are_flagged() {
        // One acked write and nothing in doubt: no replica may sit past v1.
        let v = converged(
            vec![write_ok(1, 0, 100)],
            &[b"a"],
            (1, b"a"),
            vec![Some((3, b"a")), Some((1, b"a"))],
        );
        assert!(v.contains(&Violation::ReplicaBeyondCommit {
            site: 0,
            version: 3,
            bound: 1
        }));
    }

    #[test]
    fn in_doubt_writes_extend_the_replica_version_bound() {
        // The in-doubt write may have committed v2, so a replica at v2
        // holding its payload is legitimate — repair copying it is fine.
        let v = converged(
            vec![write_ok(1, 0, 100), write_in_doubt(150, 400)],
            &[b"a", b"maybe"],
            (2, b"maybe"),
            vec![Some((2, b"maybe")), Some((2, b"maybe"))],
        );
        assert!(v.is_empty());
    }

    #[test]
    fn empty_and_unwritten_replicas_are_not_resurrections() {
        // A weak or wiped replica at v0 with empty bytes is clean state,
        // not fabricated data.
        let v = converged(
            vec![write_ok(1, 0, 100)],
            &[b"a"],
            (1, b"a"),
            vec![Some((1, b"a")), Some((0, b""))],
        );
        assert!(v.is_empty());
    }

    #[test]
    fn violations_render_human_readable() {
        let v = Violation::StaleRead {
            returned: 3,
            floor: 5,
        };
        assert_eq!(
            v.to_string(),
            "stale read: returned v3 after v5 was acknowledged"
        );
        assert_eq!(v.tag(), "stale_read");
        let v = Violation::ReplicaForeignValue {
            site: 2,
            version: 4,
        };
        assert_eq!(
            v.to_string(),
            "replica 2 holds bytes nobody wrote at v4 (repair resurrected data)"
        );
        assert_eq!(v.tag(), "replica_foreign_value");
        let v = Violation::ReplicaBeyondCommit {
            site: 1,
            version: 9,
            bound: 7,
        };
        assert_eq!(
            v.to_string(),
            "replica 1 reached v9, beyond anything committed or in doubt (v7)"
        );
        assert_eq!(v.tag(), "replica_beyond_commit");
        let v = Violation::PoisonEscaped { count: 1 };
        assert_eq!(
            v.to_string(),
            "1 corrupt WAL frame(s) passed the checksum and replayed"
        );
        assert_eq!(v.tag(), "poison_escaped");
        let v = Violation::QuarantineServed { count: 4 };
        assert_eq!(
            v.to_string(),
            "a quarantined replica served 4 request(s) instead of refusing"
        );
        assert_eq!(v.tag(), "quarantine_served");
        let v = Violation::CrossSuitePartialCommit { suite: 3 };
        assert_eq!(
            v.to_string(),
            "cross-suite transaction committed without a version in suite 3"
        );
        assert_eq!(v.tag(), "cross_suite_partial_commit");
        let v = Violation::CrossSuiteAbortLeak { suite: 2 };
        assert_eq!(
            v.to_string(),
            "aborted cross-suite transaction's payload surfaced in suite 2"
        );
        assert_eq!(v.tag(), "cross_suite_abort_leak");
    }
}
