//! The history oracle: invariant checks over completed-operation logs.
//!
//! These are the consistency conditions weighted voting promises
//! *regardless* of which quorums were reachable — extracted from the
//! integration tests so campaigns, the shrinker, and the test-suite all
//! judge histories with one implementation. Unlike an `assert!`, every
//! check returns structured [`Violation`] values: a campaign can count
//! them, the shrinker can use "still violates" as its predicate, and a
//! test can still unwrap them into a panic.
//!
//! # The invariants
//!
//! Over the raw log ([`check_log`]):
//!
//! 1. **Version uniqueness** — two committed writes never share a version.
//!    Committed reconfigurations consume a data version too (the
//!    re-publication bump, reported via `OpSuccess::multi`) and take part
//!    in every version-based check below.
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
//! With the client cache tier on ([`check_staleness_bound`]):
//!
//! 11. **Staleness bound** — every successful read returns a version at
//!     least as new as anything acknowledged `lease` or more before the
//!     read began. Validated mode runs with a zero bound: a cache serve
//!     carries quorum evidence, so it must be exactly as fresh as a
//!     classic quorum read.
//!
//! Under disk faults ([`check_no_poison`]):
//!
//! 12. **No poisoned read** — corrupt durable state never reaches a
//!     client. Two server-side tripwires enforce it: a corrupt frame
//!     whose checksum still matched (a CRC collision slipping past
//!     recovery), and any request served while quarantined (suspect
//!     state escaping the quarantine fence). Both must stay zero in
//!     every trial; the scan-stop-at-first-bad-frame rule makes the
//!     invariant hold by construction, so a nonzero counter is a bug in
//!     the recovery path itself.
//!
//! Over sharded (multi-suite) trials ([`check_cross_suite`]):
//!
//! 13. **Cross-suite atomicity** — a cross-suite transaction commits in
//!     every suite it wrote or in none: a committed outcome must report
//!     a version for each branch, and a definitely-aborted transaction's
//!     payload must never surface in any suite's reads, final states, or
//!     replicas. In-doubt transactions are exempt (they may have
//!     committed without their client learning so) but count against
//!     each touched suite's version-gap and replica-bound budgets.
//!
//! Over the whole log, against the trial's fault windows
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
//!
//! Multi-suite trials run invariants 1–11 *per suite*: versions are
//! per-suite counters, so the log is partitioned by suite first, with
//! committed cross-suite transactions exploded into one synthetic write
//! per branch (the version each branch installed) and in-doubt ones
//! surfacing as one in-doubt write per touched suite.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use wv_core::client::{CompletedOp, OpSuccess};
use wv_core::msg::ReqId;
use wv_core::{OpError, OpKind};
use wv_sim::{SimDuration, SimTime};
use wv_storage::ObjectId;

use crate::exec::TrialRun;

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

/// Checks invariants 1–7 over a completion log.
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
    let mut violations = Vec::new();

    // Everything that consumes a data version: committed writes, plus
    // committed reconfigurations — a reconfiguration re-publishes the
    // contents one version up to serialise against concurrent writes,
    // and reports the version its bump consumed via `multi`.
    let mut committed: Vec<(SimTime, SimTime, u64)> = Vec::new();
    for o in ops {
        match (o.kind, &o.outcome) {
            (OpKind::Write, Ok(okk)) => {
                committed.push((o.started, o.finished, okk.version.0));
            }
            (OpKind::Reconfigure, Ok(okk)) => {
                for (_, bump) in &okk.multi {
                    committed.push((o.started, o.finished, bump.0));
                }
            }
            _ => {}
        }
    }
    let in_doubt = ops
        .iter()
        .filter(|o| {
            matches!(o.kind, OpKind::Write | OpKind::Reconfigure)
                && matches!(o.outcome, Err(OpError::Indeterminate))
        })
        .count() as u64;

    // 1: version uniqueness.
    let mut versions_seen: HashSet<u64> = HashSet::new();
    let mut committed_at: BTreeMap<u64, SimTime> = BTreeMap::new();
    for &(_, finished, v) in &committed {
        if !versions_seen.insert(v) {
            violations.push(Violation::DuplicateVersion { version: v });
        }
        let fin = committed_at.entry(v).or_insert(finished);
        if finished < *fin {
            *fin = finished;
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
        for &(x_started, _, vx) in &committed {
            for &(_, y_finished, vy) in &committed {
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
    for o in ops.iter().filter(|o| o.kind == OpKind::Read) {
        let Ok(okk) = &o.outcome else { continue };
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
        let floor = committed_at
            .iter()
            .filter(|(_, fin)| **fin <= o.started)
            .map(|(ver, _)| *ver)
            .max()
            .unwrap_or(0);
        if v < floor {
            violations.push(Violation::StaleRead { returned: v, floor });
        }
    }

    violations
}

/// Checks invariant 11, the cache tier's staleness bound: every
/// successful read returns a version at least as new as anything
/// acknowledged `lease` or more before the read began.
///
/// With `lease == 0` this floor coincides with invariant 7's, so a
/// validated-mode arm asserts that serving from the attached weak
/// representative is exactly as fresh as a classic quorum read; a lease
/// arm relaxes the floor by precisely its configured TTL and nothing more.
pub fn check_staleness_bound(ops: &[CompletedOp], lease: SimDuration) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Earliest acknowledgement per committed version, as in `check_log`.
    let mut committed_at: BTreeMap<u64, SimTime> = BTreeMap::new();
    for o in ops {
        let acked: Vec<u64> = match (o.kind, &o.outcome) {
            (OpKind::Write, Ok(okk)) => vec![okk.version.0],
            (OpKind::Reconfigure, Ok(okk)) => okk.multi.iter().map(|(_, v)| v.0).collect(),
            _ => Vec::new(),
        };
        for v in acked {
            let fin = committed_at.entry(v).or_insert(o.finished);
            if o.finished < *fin {
                *fin = o.finished;
            }
        }
    }
    for o in ops.iter().filter(|o| o.kind == OpKind::Read) {
        let Ok(okk) = &o.outcome else { continue };
        let floor = committed_at
            .iter()
            .filter(|(_, fin)| **fin + lease <= o.started)
            .map(|(v, _)| *v)
            .max()
            .unwrap_or(0);
        if okk.version.0 < floor {
            violations.push(Violation::StaleCachedRead {
                returned: okk.version.0,
                floor,
            });
        }
    }
    violations
}

/// Checks invariants 8–10 over one suite's completion log and quiesced
/// final state: `finals` per client, `replicas` per server.
pub fn check_convergence(
    ops: &[CompletedOp],
    sent: &HashSet<Vec<u8>>,
    finals: &[Option<(wv_storage::Version, Vec<u8>)>],
    replicas: &[Option<(wv_storage::Version, Vec<u8>)>],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let max_acked = ops
        .iter()
        .filter_map(|o| match (o.kind, &o.outcome) {
            (OpKind::Write, Ok(okk)) => Some(okk.version.0),
            // A committed reconfiguration consumed the data version its
            // re-publication bump reports via `multi`.
            (OpKind::Reconfigure, Ok(okk)) => okk.multi.iter().map(|(_, v)| v.0).max(),
            _ => None,
        })
        .max()
        .unwrap_or(0);
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
    let in_doubt = ops
        .iter()
        .filter(|o| {
            matches!(o.kind, OpKind::Write | OpKind::Reconfigure)
                && matches!(o.outcome, Err(OpError::Indeterminate))
        })
        .count() as u64;
    let bound = max_acked + in_doubt;
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

/// One suite's completion log: plain operations filtered by suite,
/// committed cross-suite transactions exploded into synthetic per-suite
/// writes (each branch at the version it installed), and in-doubt
/// transactions surfaced as one synthetic in-doubt write per touched
/// suite (any branch may have committed without the client learning so).
/// Definitely-aborted transactions consume no version anywhere and are
/// dropped; invariant 13 separately proves their payloads never surface.
fn suite_log(run: &TrialRun, suite: ObjectId) -> Vec<CompletedOp> {
    let mut out: Vec<CompletedOp> = Vec::new();
    for o in &run.ops {
        if o.kind == OpKind::Transaction {
            if let Ok(okk) = &o.outcome {
                if let Some(&(_, v)) = okk.multi.iter().find(|(s, _)| *s == suite) {
                    let mut w = o.clone();
                    w.kind = OpKind::Write;
                    w.suite = suite;
                    w.outcome = Ok(OpSuccess {
                        version: v,
                        value: None,
                        multi: Vec::new(),
                    });
                    out.push(w);
                }
            }
        } else if o.suite == suite {
            out.push(o.clone());
        }
    }
    for t in &run.txns {
        let in_doubt = matches!(t.outcome, Some(Err(OpError::Indeterminate)) | None);
        if in_doubt && t.suites.contains(&suite) {
            out.push(CompletedOp {
                req: ReqId(0),
                kind: OpKind::Write,
                suite,
                outcome: Err(OpError::Indeterminate),
                started: t.started,
                finished: t.finished,
                attempts: 1,
            });
        }
    }
    out
}

/// Checks invariant 13, cross-suite atomicity: a committed transaction
/// reports a version for every suite it wrote, and a definitely-aborted
/// transaction's payload never surfaces in any suite's reads, final
/// states, or replicas.
pub fn check_cross_suite(run: &TrialRun) -> Vec<Violation> {
    let mut violations = Vec::new();
    for t in &run.txns {
        match &t.outcome {
            Some(Ok(multi)) => {
                let committed: HashSet<u64> = multi.iter().map(|(s, _)| s.0).collect();
                for s in &t.suites {
                    if !committed.contains(&s.0) {
                        violations.push(Violation::CrossSuitePartialCommit { suite: s.0 });
                    }
                }
            }
            // An in-doubt (or never-reported) transaction may have gone
            // either way; the per-suite logs already budget for it.
            Some(Err(OpError::Indeterminate)) | None => {}
            Some(Err(_)) => {
                // Definitely aborted: payload tags are unique per
                // schedule, so this payload appearing anywhere means a
                // branch committed while its sibling aborted.
                for (idx, suite) in run.suites.iter().enumerate() {
                    let in_reads = run.ops.iter().any(|o| {
                        o.kind == OpKind::Read
                            && o.suite == *suite
                            && matches!(
                                &o.outcome,
                                Ok(okk) if okk.value.as_deref() == Some(t.payload.as_slice())
                            )
                    });
                    let in_finals = run
                        .suite_finals
                        .get(idx)
                        .is_some_and(|f| f.iter().flatten().any(|(_, b)| *b == t.payload));
                    let in_replicas = run
                        .suite_replicas
                        .get(idx)
                        .is_some_and(|r| r.iter().flatten().any(|(_, b)| *b == t.payload));
                    if in_reads || in_finals || in_replicas {
                        violations.push(Violation::CrossSuiteAbortLeak { suite: suite.0 });
                    }
                }
            }
        }
    }
    violations
}

/// Checks invariant 12, "no poisoned read", from the trial's server-side
/// tripwire counters. Cheap and unconditional: both counters are zero by
/// construction on clean disks, so running it everywhere costs nothing
/// and catches a recovery-path regression wherever it surfaces.
pub fn check_no_poison(run: &TrialRun) -> Vec<Violation> {
    let mut violations = Vec::new();
    if run.tally.server.poison_escapes > 0 {
        violations.push(Violation::PoisonEscaped {
            count: run.tally.server.poison_escapes,
        });
    }
    if run.tally.server.served_while_quarantined > 0 {
        violations.push(Violation::QuarantineServed {
            count: run.tally.server.served_while_quarantined,
        });
    }
    violations
}

/// Runs every applicable check over a finished trial.
///
/// The evidence is partitioned by suite — versions are per-suite
/// counters — and invariants 1–11 judge each partition; a one-suite
/// trial's partition is its whole log. The tripwires (12), cross-suite
/// atomicity (13) and progress (14) judge the whole trial, and the
/// convergence checks come last, per suite.
///
/// A run that failed to quiesce yields [`Violation::NoQuiesce`] instead
/// of the convergence checks (there is no settled final state to judge).
pub fn check_trial(run: &TrialRun, strict: bool) -> Vec<Violation> {
    let (mut violations, mut converged) = (Vec::new(), Vec::new());
    for (idx, &suite) in run.suites.iter().enumerate() {
        let log = suite_log(run, suite);
        violations.extend(check_log(&log, Some(&run.sent_payloads), strict));
        if let Some(lease) = run.cache_lease {
            violations.extend(check_staleness_bound(&log, lease));
        }
        if run.quiesced {
            converged.extend(check_convergence(
                &log,
                &run.sent_payloads,
                &run.suite_finals[idx],
                &run.suite_replicas[idx],
            ));
        }
    }
    violations.extend(check_no_poison(run));
    violations.extend(check_cross_suite(run));
    violations.extend(check_progress(&run.ops, &run.fault_windows));
    if run.quiesced {
        violations.extend(converged);
    } else {
        violations.push(Violation::NoQuiesce);
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wv_core::client::OpSuccess;
    use wv_core::msg::ReqId;
    use wv_storage::{ObjectId, Version};

    fn write_ok(version: u64, started_ms: u64, finished_ms: u64) -> CompletedOp {
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

    fn read_ok(version: u64, value: &[u8], started_ms: u64, finished_ms: u64) -> CompletedOp {
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

    /// A quiesced run whose single client acked the given ops, read back
    /// `final_state`, and left the given per-server replicas behind.
    fn quiet_run(
        ops: Vec<CompletedOp>,
        sent: &[&[u8]],
        final_state: (u64, &[u8]),
        replicas: Vec<Option<(u64, &[u8])>>,
    ) -> crate::exec::TrialRun {
        let finals = vec![Some((Version(final_state.0), final_state.1.to_vec()))];
        let replicas: Vec<Option<(Version, Vec<u8>)>> = replicas
            .into_iter()
            .map(|r| r.map(|(v, b)| (Version(v), b.to_vec())))
            .collect();
        crate::exec::TrialRun {
            seed: 1,
            ops,
            sent_payloads: sent.iter().map(|b| b.to_vec()).collect(),
            suites: vec![ObjectId(7)],
            suite_finals: vec![finals],
            suite_replicas: vec![replicas],
            txns: Vec::new(),
            quiesced: true,
            tally: Default::default(),
            fault_windows: Vec::new(),
            cache_lease: None,
        }
    }

    /// Invariants 8–10 over a one-suite run's final state.
    fn converged(run: &crate::exec::TrialRun) -> Vec<Violation> {
        let (finals, replicas) = (&run.suite_finals[0], &run.suite_replicas[0]);
        check_convergence(&run.ops, &run.sent_payloads, finals, replicas)
    }

    #[test]
    fn replicas_holding_unsent_bytes_are_flagged_as_resurrected_data() {
        let run = quiet_run(
            vec![write_ok(1, 0, 100)],
            &[b"a"],
            (1, b"a"),
            vec![Some((1, b"a")), Some((1, b"forged"))],
        );
        let v = converged(&run);
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
        let run = quiet_run(
            vec![write_ok(1, 0, 100)],
            &[b"a"],
            (1, b"a"),
            vec![Some((3, b"a")), Some((1, b"a"))],
        );
        let v = converged(&run);
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
        let run = quiet_run(
            vec![write_ok(1, 0, 100), write_in_doubt(150, 400)],
            &[b"a", b"maybe"],
            (2, b"maybe"),
            vec![Some((2, b"maybe")), Some((2, b"maybe"))],
        );
        assert!(converged(&run).is_empty());
    }

    #[test]
    fn empty_and_unwritten_replicas_are_not_resurrections() {
        // A weak or wiped replica at v0 with empty bytes is clean state,
        // not fabricated data.
        let run = quiet_run(
            vec![write_ok(1, 0, 100)],
            &[b"a"],
            (1, b"a"),
            vec![Some((1, b"a")), Some((0, b""))],
        );
        assert!(converged(&run).is_empty());
    }

    #[test]
    fn tripwire_counters_become_poison_violations() {
        let mut run = quiet_run(vec![write_ok(1, 0, 100)], &[b"a"], (1, b"a"), vec![]);
        assert!(check_no_poison(&run).is_empty());
        run.tally.server.poison_escapes = 2;
        run.tally.server.served_while_quarantined = 3;
        let v = check_no_poison(&run);
        assert!(v.contains(&Violation::PoisonEscaped { count: 2 }));
        assert!(v.contains(&Violation::QuarantineServed { count: 3 }));
        // And check_trial surfaces them alongside everything else.
        assert!(check_trial(&run, false).contains(&Violation::PoisonEscaped { count: 2 }));
    }

    fn write_ok_in(suite: u64, version: u64, started_ms: u64, finished_ms: u64) -> CompletedOp {
        let mut o = write_ok(version, started_ms, finished_ms);
        o.suite = ObjectId(suite);
        o
    }

    fn read_ok_in(
        suite: u64,
        version: u64,
        value: &[u8],
        started_ms: u64,
        finished_ms: u64,
    ) -> CompletedOp {
        let mut o = read_ok(version, value, started_ms, finished_ms);
        o.suite = ObjectId(suite);
        o
    }

    /// A committed cross-suite transaction's completion record: `multi`
    /// lists the `(suite, version)` each branch installed.
    fn txn_op_ok(multi: &[(u64, u64)], started_ms: u64, finished_ms: u64) -> CompletedOp {
        CompletedOp {
            req: ReqId(77),
            kind: OpKind::Transaction,
            suite: ObjectId(multi[0].0),
            outcome: Ok(OpSuccess {
                version: Version(multi[0].1),
                value: None,
                multi: multi
                    .iter()
                    .map(|&(s, v)| (ObjectId(s), Version(v)))
                    .collect(),
            }),
            started: SimTime::from_millis(started_ms),
            finished: SimTime::from_millis(finished_ms),
            attempts: 1,
        }
    }

    /// A quiesced two-suite run (suites 1 and 2, one client, one server).
    fn multi_run(
        ops: Vec<CompletedOp>,
        sent: &[&[u8]],
        txns: Vec<crate::exec::TxnOutcome>,
        suite_finals: Vec<Option<(u64, &[u8])>>,
        suite_replicas: Vec<Option<(u64, &[u8])>>,
    ) -> crate::exec::TrialRun {
        let conv = |v: Vec<Option<(u64, &[u8])>>| -> Vec<Vec<crate::exec::FinalState>> {
            v.into_iter()
                .map(|r| vec![r.map(|(v, b)| (Version(v), b.to_vec()))])
                .collect()
        };
        let suite_finals = conv(suite_finals);
        let suite_replicas = conv(suite_replicas);
        crate::exec::TrialRun {
            seed: 1,
            ops,
            sent_payloads: sent.iter().map(|b| b.to_vec()).collect(),
            suites: vec![ObjectId(1), ObjectId(2)],
            suite_finals,
            suite_replicas,
            txns,
            quiesced: true,
            tally: Default::default(),
            fault_windows: Vec::new(),
            cache_lease: None,
        }
    }

    fn txn(
        payload: &[u8],
        suites: &[u64],
        outcome: Option<Result<Vec<(u64, u64)>, OpError>>,
        started_ms: u64,
        finished_ms: u64,
    ) -> crate::exec::TxnOutcome {
        crate::exec::TxnOutcome {
            payload: payload.to_vec(),
            suites: suites.iter().map(|&s| ObjectId(s)).collect(),
            started: SimTime::from_millis(started_ms),
            finished: SimTime::from_millis(finished_ms),
            outcome: outcome.map(|r| {
                r.map(|multi| {
                    multi
                        .into_iter()
                        .map(|(s, v)| (ObjectId(s), Version(v)))
                        .collect()
                })
            }),
        }
    }

    #[test]
    fn a_clean_multi_suite_trial_passes_every_per_suite_check() {
        // Each suite commits v1 on its own, then one cross-suite txn
        // installs v2 in both; a later read of suite 1 sees it.
        let ops = vec![
            write_ok_in(1, 1, 0, 100),
            write_ok_in(2, 1, 0, 100),
            txn_op_ok(&[(1, 2), (2, 2)], 200, 300),
            read_ok_in(1, 2, b"t", 400, 500),
        ];
        let run = multi_run(
            ops,
            &[b"a", b"b", b"t"],
            vec![txn(b"t", &[1, 2], Some(Ok(vec![(1, 2), (2, 2)])), 200, 300)],
            vec![Some((2, b"t")), Some((2, b"t"))],
            vec![Some((2, b"t")), Some((2, b"t"))],
        );
        assert_eq!(check_trial(&run, true), Vec::new());
    }

    #[test]
    fn a_partial_cross_suite_commit_is_flagged() {
        // The txn claims success but reports no version for suite 2.
        let run = multi_run(
            vec![txn_op_ok(&[(1, 1)], 0, 100)],
            &[b"t"],
            vec![txn(b"t", &[1, 2], Some(Ok(vec![(1, 1)])), 0, 100)],
            vec![Some((1, b"t")), None],
            vec![Some((1, b"t")), None],
        );
        let v = check_cross_suite(&run);
        assert!(v.contains(&Violation::CrossSuitePartialCommit { suite: 2 }));
    }

    #[test]
    fn an_aborted_txn_payload_surfacing_in_a_sibling_suite_is_flagged() {
        // The txn definitely aborted, yet suite 2's replica holds its
        // payload: one branch committed while the other rolled back.
        let run = multi_run(
            vec![write_ok_in(2, 1, 0, 100)],
            &[b"b", b"t"],
            vec![txn(b"t", &[1, 2], Some(Err(OpError::Conflict)), 200, 300)],
            vec![None, Some((1, b"b"))],
            vec![None, Some((1, b"t"))],
        );
        let v = check_trial(&run, false);
        assert!(v.contains(&Violation::CrossSuiteAbortLeak { suite: 2 }));
        // Suite 1 stayed clean of the payload: exactly one leak flag.
        assert_eq!(
            v.iter()
                .filter(|x| matches!(x, Violation::CrossSuiteAbortLeak { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn an_in_doubt_cross_suite_txn_explains_a_version_gap_in_each_touched_suite() {
        // Both suites committed v1 and v3 with v2 missing; the in-doubt
        // txn spanning both may have installed each v2.
        let ops = vec![
            write_ok_in(1, 1, 0, 100),
            write_ok_in(2, 1, 0, 100),
            write_ok_in(1, 3, 400, 500),
            write_ok_in(2, 3, 400, 500),
        ];
        let run = multi_run(
            ops,
            &[b"a", b"b", b"c", b"d", b"t"],
            vec![txn(
                b"t",
                &[1, 2],
                Some(Err(OpError::Indeterminate)),
                200,
                300,
            )],
            vec![Some((3, b"c")), Some((3, b"d"))],
            vec![Some((3, b"c")), Some((3, b"d"))],
        );
        assert_eq!(check_trial(&run, true), Vec::new());
        // Without the in-doubt txn the same history has two gaps.
        let mut bare = run.clone();
        bare.txns.clear();
        let v = check_trial(&bare, true);
        assert_eq!(
            v.iter()
                .filter(|x| matches!(x, Violation::VersionGap { .. }))
                .count(),
            2
        );
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
