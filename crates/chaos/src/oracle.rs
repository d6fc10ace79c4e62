//! The history oracle over a whole chaos trial.
//!
//! The op-log checks (invariants 1–11 and 14) read only completed
//! operations, payloads and final states: they are [`wv_bench::oracle`]'s,
//! below every driver, and re-exported here. This module adds the two
//! that need a whole [`TrialRun`] — 12, no poisoned read
//! ([`check_no_poison`]), and 13, cross-suite atomicity
//! ([`check_cross_suite`]) — and [`check_trial`], which runs every check.

use std::borrow::Cow;
use std::collections::HashSet;

use wv_core::client::CompletedOp;
use wv_core::msg::ReqId;
use wv_core::{OpError, OpKind};

pub use wv_bench::oracle::{
    check_convergence, check_log, check_progress, check_staleness_bound, ran_quiet, Violation,
    QUIET_ATTEMPTS,
};

use crate::exec::{FinalState, TrialRun};

/// The trial's log, plus an in-doubt write in each suite of a cross-suite
/// transaction the client never reported: any branch may have committed.
/// (A reported one is in the log; a definitely-aborted one consumed no
/// version, and invariant 13 proves its payload never surfaces.) An
/// unreported transaction has no finish, so the stand-in starts and
/// finishes at its enqueue instant.
fn with_unreported_txns(run: &TrialRun) -> Cow<'_, [CompletedOp]> {
    let mut log = Cow::Borrowed(run.ops.as_slice());
    for t in run.txns.iter().filter(|t| t.outcome.is_none()) {
        log.to_mut()
            .extend(t.suites.iter().map(|&suite| CompletedOp {
                req: ReqId(0),
                kind: OpKind::Write,
                suite,
                outcome: Err(OpError::Indeterminate),
                started: t.started,
                finished: t.started,
                attempts: 1,
            }));
    }
    log
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
            // A never-reported transaction may have gone either way; the
            // log's in-doubt budget already counts it.
            None => {}
            Some(Err(_)) => {
                // Definitely aborted: payload tags are unique per
                // schedule, so this payload appearing anywhere means a
                // branch committed while its sibling aborted.
                let holds = |states: &[Vec<FinalState>], i: usize| {
                    let mut held = states.get(i).into_iter().flatten().flatten();
                    held.any(|(_, b)| *b == t.payload)
                };
                for (i, suite) in run.suites.iter().enumerate() {
                    let read = |o: &CompletedOp| {
                        let value = o.outcome.as_ref().ok().and_then(|ok| ok.value.as_deref());
                        o.kind == OpKind::Read && o.suite == *suite && value == Some(&t.payload[..])
                    };
                    let finals = holds(&run.suite_finals, i);
                    if run.ops.iter().any(read) || finals || holds(&run.suite_replicas, i) {
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

/// Runs every applicable check over a finished trial: invariants 1–11
/// over its log (judged within each suite), the tripwires (12),
/// cross-suite atomicity (13) and progress (14), then convergence, per
/// suite.
///
/// A run that failed to quiesce yields [`Violation::NoQuiesce`] instead
/// of the convergence checks (there is no settled final state to judge).
pub fn check_trial(run: &TrialRun, strict: bool) -> Vec<Violation> {
    let log = with_unreported_txns(run);
    let mut violations = check_log(&log, Some(&run.sent_payloads), strict);
    if let Some(lease) = run.cache_lease {
        violations.extend(check_staleness_bound(&log, lease));
    }
    violations.extend(check_no_poison(run));
    violations.extend(check_cross_suite(run));
    violations.extend(check_progress(&run.ops, &run.fault_windows));
    if !run.quiesced {
        violations.push(Violation::NoQuiesce);
        return violations;
    }
    for (idx, &suite) in run.suites.iter().enumerate() {
        violations.extend(check_convergence(
            &log,
            suite,
            &run.sent_payloads,
            &run.suite_finals[idx],
            &run.suite_replicas[idx],
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wv_core::client::OpSuccess;
    use wv_sim::SimTime;
    use wv_storage::{ObjectId, Version};

    fn write_ok_in(suite: u64, version: u64, started_ms: u64, finished_ms: u64) -> CompletedOp {
        CompletedOp {
            req: ReqId(version),
            kind: OpKind::Write,
            suite: ObjectId(suite),
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

    fn read_ok_in(
        suite: u64,
        version: u64,
        value: &[u8],
        started_ms: u64,
        finished_ms: u64,
    ) -> CompletedOp {
        CompletedOp {
            req: ReqId(10_000 + started_ms),
            kind: OpKind::Read,
            suite: ObjectId(suite),
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
    ) -> crate::exec::TxnOutcome {
        crate::exec::TxnOutcome {
            payload: payload.to_vec(),
            suites: suites.iter().map(|&s| ObjectId(s)).collect(),
            started: SimTime::from_millis(started_ms),
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
            vec![txn(b"t", &[1, 2], Some(Ok(vec![(1, 2), (2, 2)])), 200)],
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
            vec![txn(b"t", &[1, 2], Some(Ok(vec![(1, 1)])), 0)],
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
            vec![txn(b"t", &[1, 2], Some(Err(OpError::Conflict)), 200)],
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
            vec![txn(b"t", &[1, 2], None, 200)],
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
    fn tripwire_counters_become_poison_violations() {
        let mut run = multi_run(
            vec![write_ok_in(1, 1, 0, 100)],
            &[b"a"],
            Vec::new(),
            vec![Some((1, b"a")), Some((0, b""))],
            vec![Some((1, b"a")), Some((0, b""))],
        );
        assert!(check_no_poison(&run).is_empty());
        run.tally.server.poison_escapes = 2;
        run.tally.server.served_while_quarantined = 3;
        let v = check_no_poison(&run);
        assert!(v.contains(&Violation::PoisonEscaped { count: 2 }));
        assert!(v.contains(&Violation::QuarantineServed { count: 3 }));
        // And check_trial surfaces them alongside everything else.
        assert!(check_trial(&run, false).contains(&Violation::PoisonEscaped { count: 2 }));
    }
}
