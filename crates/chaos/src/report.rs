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
//!    representative attached to every client. A cache-served read
//!    carries quorum evidence, so freshness (invariant 7) holds it to the
//!    acknowledged floor exactly; expected verdict: still zero
//!    violations, with the activity table proving reads actually came
//!    from cache.
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
use wv_core::Fault;
use wv_net::{Fault as NetFault, SiteId};

use crate::campaign::{
    run_campaign, trial_schedule, CampaignConfig, CampaignReport, Coverage, TrialFailure,
};
use crate::exec::run_schedule_instrumented;
use crate::experiments::Report;
use crate::oracle::{check_trial, QUIET_ATTEMPTS};
use crate::schedule::{permille, ClusterSpec, EventKind, Schedule};
use crate::shrink::shrink;

/// Trials per healthy arm in the committed report.
pub const TRIALS: usize = 1200;
/// Master seed for the healthy campaign.
pub const HEALTHY_SEED: u64 = 0xE9;
/// Master seed for the broken-quorum campaign.
pub const BROKEN_SEED: u64 = 0xBAD;
/// Trials for the broken-quorum campaign (it only needs one failure).
pub const BROKEN_TRIALS: usize = 64;

fn describe_event(e: &EventKind) -> String {
    let fault = match e {
        EventKind::Write { client, payload } => {
            return format!("client {client} writes payload #{payload}")
        }
        EventKind::Read { client } => return format!("client {client} reads"),
        EventKind::Reconfigure {
            client,
            read_quorum,
            write_quorum,
        } => return format!("client {client} reconfigures to r={read_quorum}, w={write_quorum}"),
        EventKind::Fault(fault) => fault,
    };
    let percent = |p: &f64| permille(*p) as f64 / 10.0;
    match fault {
        Fault::Net(NetFault::Crash(s)) => format!("server {} crashes", s.index()),
        Fault::Net(NetFault::Recover(s)) => format!("server {} recovers", s.index()),
        Fault::Net(NetFault::Partition(p)) => {
            let group_a: Vec<usize> = p.group(0).map(SiteId::index).collect();
            format!("partition: {group_a:?} vs the rest")
        }
        Fault::Net(NetFault::Heal) => "all partitions heal".to_string(),
        Fault::Net(NetFault::DropAll(p)) if *p == 0.0 => "loss burst ends".to_string(),
        Fault::Net(NetFault::DropAll(p)) => format!("loss burst: {}% per link", percent(p)),
        Fault::Net(NetFault::ExtraDelay(d)) if d.is_zero() => "delay spike ends".to_string(),
        Fault::Net(NetFault::ExtraDelay(d)) => {
            format!("delay spike: +{} ms per hop", d.as_millis())
        }
        Fault::Net(NetFault::Duplicate(p)) if *p == 0.0 => "duplication ends".to_string(),
        Fault::Net(NetFault::Duplicate(p)) => format!("duplication: {}% of deliveries", percent(p)),
        Fault::TornWrite(s) => format!(
            "server {}'s next crash tears the unsynced WAL tail",
            s.index()
        ),
        Fault::BitFlip(s) => format!("server {}'s next crash flips a durable WAL bit", s.index()),
        Fault::IoErrors { site, n } => format!(
            "server {}'s next {n} WAL begin(s) fail with I/O errors",
            site.index()
        ),
        Fault::DiskStall { site, d } => format!(
            "server {}'s disk stalls for {} ms",
            site.index(),
            d.as_millis()
        ),
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
        report.coverage.total.ops_quiet,
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

/// One line of an arm's table: the counter's name, and where to read it.
type Row = (&'static str, fn(&Coverage) -> u64);

/// One healthy campaign of the report: the shipped cluster with one
/// feature switched on. No feature flag reaches the schedule generator, so
/// every arm replays the same fault timelines — any difference between two
/// arms is the feature.
pub(crate) struct Arm {
    /// The short name [`arms`] gives it, for messages outside the report.
    name: &'static str,
    /// The section heading; `{}` stands for the trial count.
    heading: &'static str,
    /// Switches the arm's feature on.
    pub(crate) spec: fn(ClusterSpec) -> ClusterSpec,
    /// The activity table — a green run only counts if the feature
    /// actually ran — its title and its rows.
    table: &'static str,
    rows: &'static [Row],
    /// The closing paragraph, from the shipped arm's coverage and its own.
    closing: fn(&Coverage, &Coverage) -> String,
}

impl Arm {
    /// The cluster the arm's campaign runs: 5 servers with majority
    /// quorums and 2 clients, the arm's feature on.
    fn cluster(&self) -> ClusterSpec {
        (self.spec)(ClusterSpec::majority(5, 2))
    }
}

/// Every healthy arm of the report, in its order, as a short name and the
/// cluster it runs — so a trial seed the report names replays in each.
pub fn arms() -> impl Iterator<Item = (&'static str, ClusterSpec)> {
    ARMS.iter().map(|arm| (arm.name, arm.cluster()))
}

/// The six healthy arms, in report order; the first is the shipped
/// protocol itself, which the others are compared with.
pub(crate) static ARMS: [Arm; 6] = [
    Arm {
        name: "shipped",
        heading: "Shipped protocol: {} seeded trials, 5 servers (majority quorums), 2 clients",
        spec: |spec| spec,
        table: "Fault coverage (a green run only counts if the faults actually fired)",
        rows: &[
            ("trials with a server crash", |c| c.trials_with("crash")),
            ("trials with a mid-run recovery", |c| c.trials_with("recover")),
            ("trials with a partition", |c| c.trials_with("partition")),
            ("trials with a link-loss burst", |c| c.trials_with("loss_burst")),
            ("trials with a delay spike", |c| c.trials_with("delay_spike")),
            ("trials with message duplication", |c| c.trials_with("duplication")),
            ("trials with a live reconfiguration", |c| c.trials_with("reconfigure")),
            ("trials with a quorum-blocked attempt", |c| c.trials_with("quorum_block")),
            ("operations attempted", |c| c.total.ops()),
            ("operations committed", |c| c.total.ops_ok),
            ("attempts quorum-blocked and retried", |c| c.total.attempts_quorum_blocked()),
            ("operations quorum-blocked to the end", |c| c.total.quorum_blocked),
            ("phase timeouts", |c| c.total.client.timeouts),
            ("attempt retries", |c| c.total.client.retries),
            ("attempt budgets exhausted", |c| c.total.client.attempts_exhausted),
            ("messages dropped by link loss", |c| c.total.net.dropped_link),
            ("messages duplicated", |c| c.total.net.duplicated),
        ],
        closing: |_, c| {
            let all = c.all_fault_kinds_exercised();
            let all = if all { "yes" } else { "no" };
            format!("Every fault kind exercised: **{all}**.")
        },
    },
    Arm {
        name: "self-healing",
        heading: "Self-healing arm: the same {} trials with anti-entropy repair and health-tracked clients",
        spec: ClusterSpec::with_repair,
        table: "Self-healing activity (oracle also checks repair provenance + version bounds)",
        rows: &[
            ("anti-entropy repairs completed", |h| h.total.server.repairs_completed),
            ("suspicions raised", |h| h.total.client.suspicions_raised),
            ("quorum plans rerouted around suspects", |h| h.total.client.reroutes),
            ("phase timeouts", |h| h.total.client.timeouts),
            ("operations committed", |h| h.total.ops_ok),
        ],
        closing: |c, h| {
            format!(
                "Operations committed, healing off → on: {} → {}. Adaptive timeouts \
                 fail fast when a quorum is genuinely unreachable (partitions), so \
                 the healing arm trades commits-after-long-waits for latency; the \
                 invariants hold either way, and E10 measures the flip side — \
                 availability and latency under pure crash/recovery churn.",
                c.total.ops_ok, h.total.ops_ok
            )
        },
    },
    Arm {
        name: "group-commit",
        heading: "Group-commit arm: the same {} trials with batched WAL syncs on every server",
        spec: ClusterSpec::with_group_commit,
        table: "Group-commit activity (votes and acks leave only after their records are durable)",
        rows: &[
            ("WAL sync batches", |g| g.total.server.wal_batches),
            ("records made durable by those batches", |g| g.total.server.wal_batched_records),
            ("operations committed", |g| g.total.ops_ok),
            ("phase timeouts", |g| g.total.client.timeouts),
        ],
        closing: |_, g| {
            format!(
                "Batched syncs covered {} records in {} flushes across the \
                 campaign; crash-recovery semantics are unchanged because a \
                 response never leaves before its records hit the durable \
                 prefix, and a crash mid-window loses only records nobody was \
                 promised.",
                g.total.server.wal_batched_records, g.total.server.wal_batches
            )
        },
    },
    Arm {
        name: "cache-tier",
        heading: "Cache-tier arm: the same {} trials with a validated weak representative on every client",
        spec: ClusterSpec::with_cache_tier,
        table: "Cache-tier activity (oracle also checks the staleness bound on every cache serve)",
        rows: &[
            ("cache hits", |w| w.total.client.cache_hits),
            ("cache misses", |w| w.total.client.cache_misses),
            ("operations committed", |w| w.total.ops_ok),
            ("phase timeouts", |w| w.total.client.timeouts),
        ],
        closing: |_, w| {
            format!(
                "Of the arm's successful reads, {} were served from the local \
                 weak representative after a version-inquiry quorum confirmed \
                 currency and {} had the contents moved to them, with a version \
                 answer or by a fetch; every cache serve \
                 satisfied the staleness bound (validated mode: exactly as fresh \
                 as a classic read).",
                w.total.client.cache_hits, w.total.client.cache_misses
            )
        },
    },
    // Self-healing too, so that quarantined replicas can come back. Every
    // schedule carries the disk-fault timeline already; the flag decides
    // whether the executor applies it.
    Arm {
        name: "faulty-disk",
        heading: "Faulty-disk arm: the same {} trials with torn writes, bit flips, I/O errors, and stalls injected",
        spec: |spec| spec.with_repair().with_disk_faults(),
        table: "Faulty-disk activity (oracle also checks the no-poisoned-read tripwires)",
        rows: &[
            ("trials with a disk fault", |d| d.trials_with("disk_fault")),
            ("torn writes injected", |d| d.total.event("torn_write")),
            ("bit flips injected", |d| d.total.event("bit_flip")),
            ("I/O errors injected", |d| d.total.event("io_error")),
            ("disk stalls injected", |d| d.total.event("disk_stall")),
            ("torn tails truncated at recovery", |d| d.total.server.torn_truncations),
            ("corrupt records detected", |d| d.total.server.corrupt_records_detected),
            ("replicas quarantined", |d| d.total.server.quarantines),
            ("quarantines healed by full pulls", |d| d.total.server.requarantine_repairs),
            ("poison escapes (tripwire)", |d| d.total.server.poison_escapes),
            ("served while quarantined (tripwire)", |d| d.total.server.served_while_quarantined),
            ("operations committed", |d| d.total.ops_ok),
        ],
        closing: |_, d| {
            format!(
                "Every detected interior corruption quarantined its replica \
                 ({} detected, {} quarantines across the campaign); both \
                 no-poisoned-read tripwires stayed at zero, so no corrupt frame \
                 survived the checksum scan and no quarantined replica answered \
                 a request before anti-entropy rebuilt it from its peers.",
                d.total.server.corrupt_records_detected, d.total.server.quarantines
            )
        },
    },
    Arm {
        name: "multi-suite",
        heading: "Multi-suite arm: the same {} trials sharded across 4 suites with cross-suite transactions",
        spec: |spec| spec.with_suites(4),
        table: "Multi-suite activity (oracle judges every suite separately, plus cross-suite atomicity)",
        rows: &[
            ("trials with a cross-suite transaction", |m| m.trials_with("cross_suite_txn")),
            ("cross-suite transactions started", |m| m.total.cross_suite_txns),
            ("operations committed", |m| m.total.ops_ok),
            ("phase timeouts", |m| m.total.client.timeouts),
        ],
        closing: |_, m| {
            format!(
                "Disjoint suites never contend on a shared lock table, so the \
                 sharded arm replays the identical fault timelines with per-suite \
                 version counters; {} cross-suite transaction(s) rode the \
                 existing two-phase commit with locks acquired in global suite \
                 order, and no suite committed a branch whose sibling aborted.",
                m.total.cross_suite_txns
            )
        },
    },
];

/// Runs every campaign and renders the report; the artifact is the
/// shrunk reproducer (JSON), present when the broken campaign failed as
/// expected.
pub fn run(trials: usize) -> Report {
    let mut out = String::new();
    out.push_str("## E9 — Chaos campaign: deterministic fault schedules at scale\n\n");

    // Campaign 1: the healthy arms.
    let mut shipped = None;
    for arm in &ARMS {
        let report = run_campaign(&CampaignConfig {
            master_seed: HEALTHY_SEED,
            trials,
            spec: arm.cluster(),
        });
        let heading = arm.heading.replace("{}", &report.trials.to_string());
        out.push_str(&format!("### {heading}\n\n"));
        push_verdict(&mut out, &report);
        let mut t = Table::new(arm.table, &["counter", "value"]);
        for (counter, value) in arm.rows {
            t.row(&[counter.to_string(), value(&report.coverage).to_string()]);
        }
        out.push_str(&t.to_markdown());
        let shipped = shipped.get_or_insert_with(|| report.coverage.clone());
        let closing = (arm.closing)(shipped, &report.coverage);
        out.push_str(&format!("\n{closing}\n\n"));
    }

    // Campaign 2: break quorum intersection, find it, shrink it.
    out.push_str(
        "### Broken protocol: r = 2, w = 3 on 5 servers (r + w = N, quorums need not intersect)\n\n",
    );
    let broken = CampaignConfig {
        master_seed: BROKEN_SEED,
        trials: BROKEN_TRIALS,
        spec: ClusterSpec::broken(5, 2, 2),
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
            let shrunk = shrink(&broken.spec, &schedule)
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
            let replayed = check_trial(&rerun);
            let span_objs: Vec<String> = trace.iter().map(|s| s.to_value().to_json()).collect();
            let audit_objs: Vec<String> = audit.iter().map(|r| r.to_value().to_json()).collect();
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
        violations: Vec::new(),
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
