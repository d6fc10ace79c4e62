//! E9 — the chaos campaign report.
//!
//! Seven campaigns back to back:
//!
//! 1. **Shipped protocol** — a majority-quorum cluster under the full
//!    fault repertoire for `trials` seeds. Expected verdict: zero
//!    violations, with the coverage table proving the faults actually
//!    fired.
//! 2. **Self-healing arm** — the same trials (identical fault
//!    timelines; the repair flag never reaches the schedule generator)
//!    with anti-entropy repair and health-tracked clients on. Expected
//!    verdict: still zero violations, including the repair-specific
//!    invariants (provenance, version bounds), with the activity table
//!    proving repair actually ran.
//! 3. **Group-commit arm** — the same trials with batched WAL syncs;
//!    still zero violations over the batched durability path.
//! 4. **Cache-tier arm** — the same trials with a validated-mode weak
//!    representative attached to every client. The oracle adds the
//!    staleness-bound invariant (every cache-served read returns a
//!    version at least as new as the floor its lease permits; validated
//!    mode means a zero-length lease, i.e. exact freshness); expected
//!    verdict: still zero violations, with the activity table proving
//!    reads actually came from cache.
//! 5. **Faulty-disk arm** — the same trials with the schedule's disk
//!    faults injected (torn writes at crash, one bit flip per schedule,
//!    transient I/O errors, sync stalls) and self-healing on. The oracle
//!    adds the no-poisoned-read invariant: corrupt durable state must
//!    never reach a client, replicas that detect interior corruption
//!    quarantine themselves (votes surrendered) until anti-entropy pulls
//!    full state from every peer. Expected verdict: zero violations,
//!    with the activity table proving damage was injected and detected.
//! 6. **Multi-suite arm** — the same trials with the keyspace sharded
//!    across four suites: writes route by payload tag, reads round-robin,
//!    and every fifth write tag becomes a cross-suite atomic transaction.
//!    The oracle runs its log and convergence invariants per suite and
//!    adds cross-suite atomicity (no suite commits while a sibling
//!    aborts). Expected verdict: zero violations, with the activity
//!    table proving transactions actually spanned suites.
//! 7. **Deliberately broken protocol** — `r + w = N`, so quorums need
//!    not intersect. The campaign finds a violation, the shrinker
//!    delta-debugs it to a handful of events, and the minimal schedule is
//!    emitted as a replayable JSON artifact.
//!
//! The report is a pure function of the seeds: regenerating it at any
//! worker count produces identical bytes.

use wv_bench::table::Table;

use crate::campaign::{run_campaign, trial_schedule, CampaignConfig, CampaignReport, TrialFailure};
use crate::exec::run_schedule_instrumented;
use crate::experiments::Report;
use crate::oracle::{check_trial, QUIET_ATTEMPTS};
use crate::schedule::{ClusterSpec, EventKind, Schedule, ScheduleParams};
use crate::shrink::{shrink, DEFAULT_BUDGET};

/// Trials per healthy arm in the committed report.
pub const TRIALS: usize = 1200;
/// Master seed for the healthy campaign.
pub const HEALTHY_SEED: u64 = 0xE9;
/// Master seed for the broken-quorum campaign.
pub const BROKEN_SEED: u64 = 0xBAD;
/// Trials for the broken-quorum campaign (it only needs one failure).
pub const BROKEN_TRIALS: usize = 64;

fn describe_event(e: &EventKind) -> String {
    match e {
        EventKind::Write { client, payload } => {
            format!("client {client} writes payload #{payload}")
        }
        EventKind::Read { client } => format!("client {client} reads"),
        EventKind::Crash { site } => format!("server {site} crashes"),
        EventKind::Recover { site } => format!("server {site} recovers"),
        EventKind::Partition { group_a } => format!("partition: {group_a:?} vs the rest"),
        EventKind::Heal => "all partitions heal".to_string(),
        EventKind::LossBurst { permille } => {
            if *permille == 0 {
                "loss burst ends".to_string()
            } else {
                format!("loss burst: {}% per link", *permille as f64 / 10.0)
            }
        }
        EventKind::DelaySpike { extra_ms } => {
            if *extra_ms == 0 {
                "delay spike ends".to_string()
            } else {
                format!("delay spike: +{extra_ms} ms per hop")
            }
        }
        EventKind::Duplication { permille } => {
            if *permille == 0 {
                "duplication ends".to_string()
            } else {
                format!("duplication: {}% of deliveries", *permille as f64 / 10.0)
            }
        }
        EventKind::Reconfigure {
            client,
            read_quorum,
            write_quorum,
        } => format!("client {client} reconfigures to r={read_quorum}, w={write_quorum}"),
        EventKind::TornWrite { site } => {
            format!("server {site}'s next crash tears the unsynced WAL tail")
        }
        EventKind::BitFlip { site } => {
            format!("server {site}'s next crash flips a durable WAL bit")
        }
        EventKind::IoError { site, count } => {
            format!("server {site}'s next {count} WAL begin(s) fail with I/O errors")
        }
        EventKind::DiskStall { site, ms } => format!("server {site}'s disk stalls for {ms} ms"),
    }
}

/// The verdict of one healthy arm: trials that broke a safety invariant,
/// trials that broke the progress invariant — its own line, so that a
/// slow system can never hide behind a consistent one or the reverse —
/// and the table of whatever was found.
fn push_verdict(out: &mut String, report: &CampaignReport) {
    let trials_with = |progress: bool| {
        let broke = |f: &&TrialFailure| f.violations.iter().any(|v| v.is_progress() == progress);
        report.failures.iter().filter(broke).count()
    };
    out.push_str(&format!(
        "Invariant violations: **{}**.\n\n",
        trials_with(false)
    ));
    out.push_str(&format!(
        "Progress violations (of the {} operations that met no fault window, those that \
         needed more than {QUIET_ATTEMPTS} attempts or failed): **{}**.\n\n",
        report.coverage.ops_quiet,
        trials_with(true)
    ));
    if !report.clean() {
        let mut t = Table::new("Violations", &["trial seed", "violation"]);
        for f in &report.failures {
            for v in &f.violations {
                t.row(&[format!("0x{:016x}", f.seed), v.to_string()]);
            }
        }
        out.push_str(&t.to_markdown());
        out.push('\n');
    }
}

/// Runs every campaign and renders the report; the artifact is the
/// shrunk reproducer (JSON), present when the broken campaign failed as
/// expected.
pub fn run(trials: usize) -> Report {
    let mut out = String::new();
    out.push_str("## E9 — Chaos campaign: deterministic fault schedules at scale\n\n");

    // Campaign 1: the shipped protocol.
    let healthy = CampaignConfig {
        master_seed: HEALTHY_SEED,
        trials,
        spec: ClusterSpec::majority(5, 2),
        params: ScheduleParams::default(),
    };
    let report = run_campaign(&healthy);
    out.push_str(&format!(
        "### Shipped protocol: {} seeded trials, 5 servers (majority quorums), 2 clients\n\n",
        report.trials
    ));
    push_verdict(&mut out, &report);
    let c = report.coverage;
    let mut t = Table::new(
        "Fault coverage (a green run only counts if the faults actually fired)",
        &["counter", "value"],
    );
    t.row(&[
        "trials with a server crash".into(),
        c.trials_with_crash.to_string(),
    ]);
    t.row(&[
        "trials with a mid-run recovery".into(),
        c.trials_with_recovery.to_string(),
    ]);
    t.row(&[
        "trials with a partition".into(),
        c.trials_with_partition.to_string(),
    ]);
    t.row(&[
        "trials with a link-loss burst".into(),
        c.trials_with_loss.to_string(),
    ]);
    t.row(&[
        "trials with a delay spike".into(),
        c.trials_with_delay.to_string(),
    ]);
    t.row(&[
        "trials with message duplication".into(),
        c.trials_with_duplication.to_string(),
    ]);
    t.row(&[
        "trials with a live reconfiguration".into(),
        c.trials_with_reconfigure.to_string(),
    ]);
    t.row(&[
        "trials with a quorum-blocked attempt".into(),
        c.trials_with_quorum_block.to_string(),
    ]);
    t.row(&["operations attempted".into(), c.ops_total.to_string()]);
    t.row(&["operations committed".into(), c.ops_ok.to_string()]);
    t.row(&[
        "attempts quorum-blocked and retried".into(),
        c.attempts_quorum_blocked.to_string(),
    ]);
    t.row(&[
        "operations quorum-blocked to the end".into(),
        c.quorum_blocked.to_string(),
    ]);
    t.row(&[
        "operations ending in doubt".into(),
        c.indeterminate.to_string(),
    ]);
    t.row(&["phase timeouts".into(), c.timeouts.to_string()]);
    t.row(&["attempt retries".into(), c.retries.to_string()]);
    t.row(&[
        "attempt budgets exhausted".into(),
        c.attempts_exhausted.to_string(),
    ]);
    t.row(&[
        "messages dropped by link loss".into(),
        c.dropped_link.to_string(),
    ]);
    t.row(&["messages duplicated".into(), c.duplicated_msgs.to_string()]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    out.push_str(&format!(
        "Every fault kind exercised: **{}**.\n\n",
        if c.all_fault_kinds_exercised() {
            "yes"
        } else {
            "no"
        }
    ));

    // Campaign 1b: the same trials with the self-healing layer on. The
    // repair flag never reaches the schedule generator, so both arms
    // replay identical fault timelines — any difference is the layer.
    let healing = CampaignConfig {
        spec: ClusterSpec::majority(5, 2).with_repair(),
        ..healthy
    };
    let report = run_campaign(&healing);
    out.push_str(&format!(
        "### Self-healing arm: the same {} trials with anti-entropy repair and health-tracked clients\n\n",
        report.trials
    ));
    push_verdict(&mut out, &report);
    let h = report.coverage;
    let mut t = Table::new(
        "Self-healing activity (oracle also checks repair provenance + version bounds)",
        &["counter", "value"],
    );
    t.row(&[
        "anti-entropy repairs completed".into(),
        h.repairs_completed.to_string(),
    ]);
    t.row(&["suspicions raised".into(), h.suspicions_raised.to_string()]);
    t.row(&[
        "quorum plans rerouted around suspects".into(),
        h.reroutes.to_string(),
    ]);
    t.row(&["hedged fetches fired".into(), h.hedges_fired.to_string()]);
    t.row(&["hedged fetches won".into(), h.hedge_wins.to_string()]);
    t.row(&["phase timeouts".into(), h.timeouts.to_string()]);
    t.row(&["operations committed".into(), h.ops_ok.to_string()]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    out.push_str(&format!(
        "Operations committed, healing off → on: {} → {}. Adaptive timeouts \
         fail fast when a quorum is genuinely unreachable (partitions), so \
         the healing arm trades commits-after-long-waits for latency; the \
         invariants hold either way, and E10 measures the flip side — \
         availability and latency under pure crash/recovery churn.\n\n",
        c.ops_ok, h.ops_ok
    ));

    // Campaign 1c: the same trials again with WAL group commit on. The
    // flag never reaches the schedule generator either, so the fault
    // timelines are identical; the oracle must stay clean over the
    // batched durability path.
    let batched = CampaignConfig {
        spec: ClusterSpec::majority(5, 2).with_group_commit(),
        ..healthy
    };
    let report = run_campaign(&batched);
    out.push_str(&format!(
        "### Group-commit arm: the same {} trials with batched WAL syncs on every server\n\n",
        report.trials
    ));
    push_verdict(&mut out, &report);
    let g = report.coverage;
    let mut t = Table::new(
        "Group-commit activity (votes and acks leave only after their records are durable)",
        &["counter", "value"],
    );
    t.row(&["WAL sync batches".into(), g.wal_batches.to_string()]);
    t.row(&[
        "records made durable by those batches".into(),
        g.wal_batched_records.to_string(),
    ]);
    t.row(&["operations committed".into(), g.ops_ok.to_string()]);
    t.row(&["phase timeouts".into(), g.timeouts.to_string()]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    out.push_str(&format!(
        "Batched syncs covered {} records in {} flushes across the \
         campaign; crash-recovery semantics are unchanged because a \
         response never leaves before its records hit the durable \
         prefix, and a crash mid-window loses only records nobody was \
         promised.\n\n",
        g.wal_batched_records, g.wal_batches
    ));

    // Campaign 1d: the same trials once more with a validated-mode weak
    // representative on every client. The flag never reaches the
    // schedule generator, so the fault timelines are identical; the
    // oracle adds the staleness-bound invariant for this arm (validated
    // mode = zero-length lease, so cache serves must be exactly fresh).
    let cached = CampaignConfig {
        spec: ClusterSpec::majority(5, 2).with_cache_tier(),
        ..healthy
    };
    let report = run_campaign(&cached);
    out.push_str(&format!(
        "### Cache-tier arm: the same {} trials with a validated weak representative on every client\n\n",
        report.trials
    ));
    push_verdict(&mut out, &report);
    let w = report.coverage;
    let mut t = Table::new(
        "Cache-tier activity (oracle also checks the staleness bound on every cache serve)",
        &["counter", "value"],
    );
    t.row(&["cache hits".into(), w.cache_hits.to_string()]);
    t.row(&["cache misses".into(), w.cache_misses.to_string()]);
    t.row(&[
        "piggybacked inquiries".into(),
        w.piggybacked_inquiries.to_string(),
    ]);
    t.row(&["operations committed".into(), w.ops_ok.to_string()]);
    t.row(&["phase timeouts".into(), w.timeouts.to_string()]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    out.push_str(&format!(
        "Of the arm's successful reads, {} were served from the local \
         weak representative after a version-inquiry quorum confirmed \
         currency and {} had the contents moved to them, with a version \
         answer or by a fetch; every cache serve \
         satisfied the staleness bound (validated mode: exactly as fresh \
         as a classic read).\n\n",
        w.cache_hits, w.cache_misses
    ));

    // Campaign 1e: the same trials with the schedule's disk faults
    // actually injected, plus self-healing so quarantined replicas can
    // come back. Every schedule already carries the disk-fault timeline;
    // the arm flag decides whether the executor applies it, so this arm
    // and the four above replay byte-identical schedules.
    let faulty = CampaignConfig {
        spec: ClusterSpec::majority(5, 2).with_repair().with_disk_faults(),
        ..healthy
    };
    let report = run_campaign(&faulty);
    out.push_str(&format!(
        "### Faulty-disk arm: the same {} trials with torn writes, bit flips, I/O errors, and stalls injected\n\n",
        report.trials
    ));
    push_verdict(&mut out, &report);
    let d = report.coverage;
    let mut t = Table::new(
        "Faulty-disk activity (oracle also checks the no-poisoned-read tripwires)",
        &["counter", "value"],
    );
    t.row(&[
        "trials with a disk fault".into(),
        d.trials_with_disk_fault.to_string(),
    ]);
    t.row(&["torn writes injected".into(), d.torn_writes.to_string()]);
    t.row(&["bit flips injected".into(), d.bit_flips.to_string()]);
    t.row(&["I/O errors injected".into(), d.io_errors.to_string()]);
    t.row(&["disk stalls injected".into(), d.disk_stalls.to_string()]);
    t.row(&[
        "torn tails truncated at recovery".into(),
        d.torn_truncations.to_string(),
    ]);
    t.row(&[
        "corrupt records detected".into(),
        d.corrupt_records_detected.to_string(),
    ]);
    t.row(&["replicas quarantined".into(), d.quarantines.to_string()]);
    t.row(&[
        "quarantines healed by full pulls".into(),
        d.requarantine_repairs.to_string(),
    ]);
    t.row(&[
        "poison escapes (tripwire)".into(),
        d.poison_escapes.to_string(),
    ]);
    t.row(&[
        "served while quarantined (tripwire)".into(),
        d.served_while_quarantined.to_string(),
    ]);
    t.row(&["operations committed".into(), d.ops_ok.to_string()]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    out.push_str(&format!(
        "Every detected interior corruption quarantined its replica \
         ({} detected, {} quarantines across the campaign); both \
         no-poisoned-read tripwires stayed at zero, so no corrupt frame \
         survived the checksum scan and no quarantined replica answered \
         a request before anti-entropy rebuilt it from its peers.\n\n",
        d.corrupt_records_detected, d.quarantines
    ));

    // Campaign 1f: the same trials with the keyspace sharded across four
    // suites. The suites flag never reaches the schedule generator, so
    // the fault timelines are identical; the executor routes writes by
    // payload tag, round-robins reads, and turns every fifth write tag
    // into a cross-suite atomic transaction. The oracle judges each
    // suite's history separately and adds the atomicity invariant.
    let sharded = CampaignConfig {
        spec: ClusterSpec::majority(5, 2).with_suites(4),
        ..healthy
    };
    let report = run_campaign(&sharded);
    out.push_str(&format!(
        "### Multi-suite arm: the same {} trials sharded across 4 suites with cross-suite transactions\n\n",
        report.trials
    ));
    push_verdict(&mut out, &report);
    let m = report.coverage;
    let mut t = Table::new(
        "Multi-suite activity (oracle judges every suite separately, plus cross-suite atomicity)",
        &["counter", "value"],
    );
    t.row(&[
        "trials with a cross-suite transaction".into(),
        m.trials_with_cross_suite_txn.to_string(),
    ]);
    t.row(&[
        "cross-suite transactions started".into(),
        m.cross_suite_txns.to_string(),
    ]);
    t.row(&["operations committed".into(), m.ops_ok.to_string()]);
    t.row(&[
        "operations ending in doubt".into(),
        m.indeterminate.to_string(),
    ]);
    t.row(&["phase timeouts".into(), m.timeouts.to_string()]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    out.push_str(&format!(
        "Disjoint suites never contend on a shared lock table, so the \
         sharded arm replays the identical fault timelines with per-suite \
         version counters; {} cross-suite transaction(s) rode the \
         existing two-phase commit with locks acquired in global suite \
         order, and no suite committed a branch whose sibling aborted.\n\n",
        m.cross_suite_txns
    ));

    // Campaign 2: break quorum intersection, find it, shrink it.
    out.push_str(
        "### Broken protocol: r = 2, w = 3 on 5 servers (r + w = N, quorums need not intersect)\n\n",
    );
    let broken = CampaignConfig {
        master_seed: BROKEN_SEED,
        trials: BROKEN_TRIALS,
        spec: ClusterSpec::broken(5, 2, 2),
        params: ScheduleParams {
            reconfigure: false,
            ..ScheduleParams::default()
        },
    };
    let report = run_campaign(&broken);
    out.push_str(&format!(
        "{} of {} trials violated an invariant. ",
        report.failures.len(),
        report.trials
    ));
    let mut artifact = None;
    match report.failures.first() {
        None => out.push_str("No failure to shrink — unexpected for this configuration.\n"),
        Some(first) => {
            let trial = (0..broken.trials as u64)
                .find(|&i| wv_bench::runner::trial_seed(broken.master_seed, i) == first.seed)
                .expect("failure seed maps back to a trial index");
            let schedule = trial_schedule(&broken, trial);
            let shrunk = shrink(&broken.spec, &schedule, DEFAULT_BUDGET)
                .expect("a campaign failure must fail when replayed");
            out.push_str(&format!(
                "First failure (trial seed 0x{:016x}) shrunk from {} events to **{}** in {} replays.\n\n",
                first.seed,
                shrunk.original_events,
                shrunk.schedule.events.len(),
                shrunk.evaluations
            ));
            let mut t = Table::new("Minimal reproducer", &["t (ms)", "event"]);
            for e in &shrunk.schedule.events {
                t.row(&[e.at_ms.to_string(), describe_event(&e.kind)]);
            }
            out.push_str(&t.to_markdown());
            out.push('\n');
            let mut t = Table::new("Violations it reproduces", &["violation"]);
            for v in &shrunk.violations {
                t.row(&[v.to_string()]);
            }
            out.push_str(&t.to_markdown());
            out.push('\n');

            // Prove the artifact replays before shipping it. The replay
            // runs with span recording on: after shrinking, every event
            // left is necessary to reproduce the violation, so the ops in
            // this trace are exactly the ops involved — the trace is the
            // violation's evidence and ships inside the artifact.
            let text = shrunk.schedule.to_json(&broken.spec);
            let (spec2, schedule2) = Schedule::from_json(&text).expect("artifact round-trips");
            let (rerun, trace, audit) = run_schedule_instrumented(&spec2, &schedule2);
            let replayed = check_trial(&rerun, false);
            let span_objs: Vec<String> = wv_sim::trace::to_jsonl(&trace)
                .lines()
                .map(str::to_string)
                .collect();
            let audit_objs: Vec<String> = wv_sim::audit::to_jsonl(&audit)
                .lines()
                .map(str::to_string)
                .collect();
            // The critical-path profile of the reproducer, folded-stack
            // form: which site and phase each microsecond of the
            // violating ops waited on.
            let profile = wv_analysis::critpath::extract(&trace);
            let critpath_objs: Vec<String> = profile
                .folded()
                .lines()
                .map(|l| format!("{:?}", l))
                .collect();
            let mut with_trace = text.trim_end().to_string();
            with_trace.pop(); // drop the closing brace
            with_trace.push_str(&format!(
                ",\"trace\":[{}],\"audit\":[{}],\"critpath\":[{}]}}\n",
                span_objs.join(","),
                audit_objs.join(","),
                critpath_objs.join(","),
            ));
            // The extra keys are ignored by the parser: the artifact must
            // still round-trip.
            assert!(
                Schedule::from_json(&with_trace).is_some(),
                "trace-bearing artifact must stay parseable"
            );
            out.push_str(&format!(
                "Replay artifact: `results/e9_repro.json` ({} bytes); parsing and replaying it reproduces the same {} violation(s): **{}**. The artifact embeds the replay's {}-span operation trace (render with `wv-inspect text`), its {}-decision quorum audit log (render with `wv-inspect explain`), and its {}-frame critical-path profile.\n",
                with_trace.len(),
                shrunk.violations.len(),
                if replayed == shrunk.violations { "yes" } else { "NO" },
                span_objs.len(),
                audit_objs.len(),
                critpath_objs.len(),
            ));

            // Critical-path + explain sections: the analytics view of the
            // reproducer, straight from the same instrumented replay.
            out.push_str("\n### Critical path of the reproducer\n\n```text\n");
            out.push_str(&profile.render_ops());
            out.push_str(&profile.render_blame());
            out.push_str("```\n");
            out.push_str("\n### Quorum decisions of the reproducer\n\n```text\n");
            out.push_str(&wv_bench::inspect::explain_report(&audit, None));
            out.push_str("```\n");
            artifact = Some(("e9_repro.json", with_trace));
        }
    }

    Report {
        markdown: out,
        artifact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_report_is_deterministic_and_finds_the_planted_bug() {
        // Small trial count: this is the smoke version of the full run.
        let a = run(16);
        let b = run(16);
        assert_eq!(a, b);
        let (_, artifact) = a.artifact.expect("broken campaign yields an artifact");
        assert!(a.markdown.contains("Minimal reproducer"));
        // The artifact carries the traced replay of the shrunk schedule
        // and still parses (the replayer ignores the extra key).
        assert!(artifact.contains("\"trace\":["), "artifact embeds trace");
        assert!(artifact.contains("\"kind\":"), "trace has span records");
        assert!(Schedule::from_json(&artifact).is_some());
        // The plain, self-healing, group-commit, cache-tier, faulty-disk,
        // and multi-suite arms all come back clean.
        assert!(a.markdown.contains("### Self-healing arm"));
        assert!(a.markdown.contains("### Group-commit arm"));
        assert!(a.markdown.contains("### Cache-tier arm"));
        assert!(a.markdown.contains("### Faulty-disk arm"));
        assert!(a.markdown.contains("### Multi-suite arm"));
        assert_eq!(
            a.markdown.matches("Invariant violations: **0**").count(),
            6,
            "all six healthy arms must be violation-free"
        );
        assert_eq!(
            a.markdown.matches("attempts or failed): **0**").count(),
            6,
            "and none of them slow where no fault was active"
        );
    }
}
