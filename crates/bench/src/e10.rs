//! E10 — self-healing under crash/recovery churn.
//!
//! Two arms over identical failure timelines: a five-site majority
//! cluster whose servers crash and recover under an exponential
//! MTTF/MTTR process, serving a steady read-heavy workload. The *healing
//! off* arm runs the classic client (fixed phase timeouts, cost-ranked
//! quorum plans, no repair). The *healing on* arm enables the
//! self-healing layer: per-site health tracking with adaptive timeouts,
//! suspicion-aware quorum planning, and background anti-entropy repair.
//!
//! The claim under test: healing strictly improves tail (p99) read
//! latency overall, and costs no operation availability in the windows
//! an outage disturbs — from a representative's crash through shortly
//! past its recovery. (Availability used to be the headline: the classic
//! arm lost operations that met a commit lock, were turned away and
//! burned their four attempts on phase timeouts, and routing around
//! suspects saved some of them. Reads are now held at the lock and
//! writes stand in line, in both arms, so what still fails is what no
//! routing can save: a quorum that stays down longer than the whole
//! retry budget.) Both arms of
//! each trial share one failure schedule (derived from the trial seed
//! alone), so the comparison is paired, and trials fan out over
//! [`runner::run_trials`] — the report is bit-identical at any worker
//! count.

use std::ops::AddAssign;

use wv_core::client::{ClientOptions, ClientStats, HealthOptions};
use wv_core::harness::{HarnessBuilder, Op, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_core::server::ServerStats;
use wv_core::OpKind;
use wv_net::{Fault, SiteId};
use wv_sim::trace::SpanKind;
use wv_sim::{derive_seed, DetRng, FailureSchedule, SampleSet, SimDuration, SimTime};

use crate::drive::{drive, Driven, Plan, Verdict, REPAIR_INTERVAL};
use crate::runner;
use crate::table::Table;

/// Voting representatives (one vote each, majority quorums).
const SERVERS: usize = 5;
/// Mean time to failure per site.
const MTTF: SimDuration = SimDuration::from_secs(8);
/// Mean time to repair per site.
const MTTR: SimDuration = SimDuration::from_secs(2);
/// Workload horizon: events are enqueued in `[0, HORIZON)`.
const HORIZON: SimTime = SimTime::from_secs(60);
/// One read every `READ_EVERY`.
const READ_EVERY: SimDuration = SimDuration::from_millis(250);
/// One write every `WRITE_EVERY`.
const WRITE_EVERY: SimDuration = SimDuration::from_secs(2);
/// Per-phase patience both arms share: an interactive-read SLA rather
/// than the durability-tuned library defaults, so an outage that
/// outlives the whole retry budget becomes a *failed* operation instead
/// of a very slow success.
const PHASE_TIMEOUT: SimDuration = SimDuration::from_millis(800);
/// Attempts per operation, both arms.
const MAX_ATTEMPTS: u32 = 4;
/// Trials in the full report.
pub const TRIALS: usize = 24;
/// Seed-derivation label for the per-trial failure schedule.
const FAILURE_LABEL: u64 = 0xE10_FA11;

/// One arm's operations, counters and traced phases: of one trial, or
/// summed over many.
#[derive(Default)]
pub struct ArmSummary {
    /// Operations attempted over the whole run.
    pub ops_total: u64,
    /// Operations that committed.
    pub ops_ok: u64,
    /// Operations attempted in disturbed windows: the driver's fault
    /// windows, from a crash to 2 s past its recovery.
    pub post_total: u64,
    /// ... of which committed.
    pub post_ok: u64,
    /// The client's counters.
    pub client: ClientStats,
    /// Every server's counters, summed.
    pub server: ServerStats,
    /// Latencies (ms) of committed reads.
    read_lat_ms: SampleSet,
    /// Traced phase totals: (summed duration in µs, span count) for
    /// version collection, data movement, and server-side lock waits.
    inquiry_us: (u64, u64),
    fetch_us: (u64, u64),
    lock_wait_us: (u64, u64),
}

impl AddAssign for ArmSummary {
    fn add_assign(&mut self, t: ArmSummary) {
        let add = |a: &mut (u64, u64), b: (u64, u64)| *a = (a.0 + b.0, a.1 + b.1);
        self.ops_total += t.ops_total;
        self.ops_ok += t.ops_ok;
        self.post_total += t.post_total;
        self.post_ok += t.post_ok;
        self.client += t.client;
        self.server += t.server;
        self.read_lat_ms.merge(&t.read_lat_ms);
        add(&mut self.inquiry_us, t.inquiry_us);
        add(&mut self.fetch_us, t.fetch_us);
        add(&mut self.lock_wait_us, t.lock_wait_us);
    }
}

impl ArmSummary {
    /// Committed fraction over the whole run.
    pub fn availability(&self) -> f64 {
        self.ops_ok as f64 / self.ops_total.max(1) as f64
    }

    /// Committed fraction of operations started in a disturbed window.
    pub fn post_recovery_availability(&self) -> f64 {
        self.post_ok as f64 / self.post_total.max(1) as f64
    }

    /// The `q` quantile of committed reads' latency (ms).
    pub fn read_ms(&self, q: f64) -> f64 {
        self.read_lat_ms.clone().try_quantile(q).unwrap_or(0.0)
    }
}

/// Runs one arm of one trial: its summary, and its history.
fn run_arm(seed: u64, healing: bool) -> (ArmSummary, Driven) {
    let mut b = HarnessBuilder::new()
        .quorum(QuorumSpec::new(3, 3))
        .seed(seed);
    for _ in 0..SERVERS {
        b = b.site(SiteSpec::server(1));
    }
    b = b.client();
    // Both arms run the same interactive SLA; only the healing layer
    // (and the repair daemon) differs.
    let mut options = ClientOptions {
        phase_timeout: PHASE_TIMEOUT,
        max_attempts: MAX_ATTEMPTS,
        ..ClientOptions::default()
    };
    if healing {
        options.health = Some(HealthOptions::default());
        b = b.anti_entropy(REPAIR_INTERVAL);
    }
    b = b.client_options(options);
    let mut h = b.build().expect("majority quorums are legal");
    // Trace both arms: the breakdown columns come from the spans, and
    // recording is protocol-neutral (asserted by wv-core's harness test
    // and the bench-level trace determinism suite).
    h.enable_tracing();
    let suite = h.suite_id();
    let client = h.default_client();
    // The failure timeline both arms of a trial share.
    let mut rng = DetRng::new(derive_seed(seed, FAILURE_LABEL));
    let failures = FailureSchedule::mttf_mttr(SERVERS, MTTF, MTTR, HORIZON, &mut rng);
    let mut plan = Plan::default();
    for site in SiteId::all(SERVERS) {
        for w in failures.windows(site.index()) {
            plan.fault(w.from, Fault::Crash(site));
            plan.fault(w.until, Fault::Recover(site));
        }
    }
    // Steady read-heavy workload over the horizon.
    let mut t = SimTime::ZERO + READ_EVERY;
    while t < HORIZON {
        plan.op(t, client, Op::Read(suite));
        t += READ_EVERY;
    }
    let mut t = SimTime::ZERO + SimDuration::from_millis(100);
    let mut k = 0u64;
    while t < HORIZON {
        let payload = format!("e10-{seed:016x}-{k}").into_bytes();
        plan.op(t, client, Op::Write(suite, payload));
        t += WRITE_EVERY;
        k += 1;
    }
    let run = drive(&mut h, plan);
    // Every site is up past the horizon: let the repair daemon catch the
    // last ones up, then stop it so the queue drains and every span the
    // breakdown reads has closed.
    h.advance(SimDuration::from_secs(30));
    h.stop_anti_entropy();
    h.run_until_quiet(5_000_000);

    let mut out = ArmSummary {
        client: h.client_at(client).expect("the client").stats,
        server: SiteId::all(SERVERS)
            .filter_map(|s| h.server_at(s).map(|s| s.stats))
            .sum(),
        ..ArmSummary::default()
    };
    for s in h.take_recorded().0 {
        let Some(d) = s.duration_us() else {
            continue; // still open at quiescence (crashed mid-flight)
        };
        let slot = match s.kind {
            SpanKind::Inquiry => &mut out.inquiry_us,
            SpanKind::Fetch => &mut out.fetch_us,
            SpanKind::LockWait => &mut out.lock_wait_us,
            _ => continue,
        };
        slot.0 += d;
        slot.1 += 1;
    }
    for op in &run.ops {
        out.ops_total += 1;
        let ok = op.outcome.is_ok();
        if ok {
            out.ops_ok += 1;
            if op.kind == OpKind::Read {
                out.read_lat_ms
                    .record(op.finished.since(op.started).as_millis_f64());
            }
        }
        if run
            .fault_windows
            .iter()
            .any(|&(from, until)| from <= op.started && op.started < until)
        {
            out.post_total += 1;
            out.post_ok += u64::from(ok);
        }
    }
    (out, run)
}

/// The mean of a traced phase's `(summed µs, span count)`, in ms.
fn mean_ms((total_us, n): (u64, u64)) -> f64 {
    if n == 0 {
        return 0.0;
    }
    total_us as f64 / n as f64 / 1000.0
}

/// Both arms, aggregated over `trials` paired trials; every arm's
/// history is handed to `verdict`.
pub fn measure(master_seed: u64, trials: usize, verdict: &mut Verdict) -> (ArmSummary, ArmSummary) {
    let results = runner::run_trials(master_seed, trials, |seed| {
        (seed, run_arm(seed, false), run_arm(seed, true))
    });
    let (mut off, mut on) = (ArmSummary::default(), ArmSummary::default());
    for (seed, (a, a_log), (b, b_log)) in results {
        verdict.judge(format_args!("trial {seed:#x}, healing off"), &a_log);
        verdict.judge(format_args!("trial {seed:#x}, healing on"), &b_log);
        off += a;
        on += b;
    }
    (off, on)
}

fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Builds the E10 report with an explicit trial count (the smoke tests
/// use a small one), its histories handed to `verdict`.
pub fn run(trials: usize, verdict: &mut Verdict) -> String {
    let (off, on) = measure(0xE10, trials, verdict);
    let mut out = String::new();
    out.push_str("## E10 — Self-healing under crash/recovery churn\n\n");
    out.push_str(&format!(
        "{trials} paired trials; each runs a 5-site majority cluster for \
         {}s of virtual time under an exponential failure process (MTTF \
         {}s, MTTR {}s per site) and a steady workload (a read every \
         {} ms, a write every {} s). Both arms of a trial replay the \
         *same* failure timeline; only the self-healing layer differs.\n\n",
        HORIZON.since(SimTime::ZERO).as_millis() / 1000,
        MTTF.as_millis() / 1000,
        MTTR.as_millis() / 1000,
        READ_EVERY.as_millis(),
        WRITE_EVERY.as_millis() / 1000,
    ));
    let mut t = Table::new(
        "Availability and read latency",
        &["metric", "healing off", "healing on"],
    );
    t.row(&[
        "operations attempted".into(),
        off.ops_total.to_string(),
        on.ops_total.to_string(),
    ]);
    t.row(&[
        "operations committed".into(),
        off.ops_ok.to_string(),
        on.ops_ok.to_string(),
    ]);
    t.row(&[
        "overall availability".into(),
        pct(off.availability()),
        pct(on.availability()),
    ]);
    t.row(&[
        "ops in disturbed windows (crash → recovery + 2 s)".into(),
        off.post_total.to_string(),
        on.post_total.to_string(),
    ]);
    t.row(&[
        "post-recovery availability (disturbed windows)".into(),
        pct(off.post_recovery_availability()),
        pct(on.post_recovery_availability()),
    ]);
    t.row(&[
        "read latency p50 (ms)".into(),
        format!("{:.1}", off.read_ms(0.50)),
        format!("{:.1}", on.read_ms(0.50)),
    ]);
    t.row(&[
        "read latency p99 (ms)".into(),
        format!("{:.1}", off.read_ms(0.99)),
        format!("{:.1}", on.read_ms(0.99)),
    ]);
    t.row(&[
        "phase timeouts".into(),
        off.client.timeouts.to_string(),
        on.client.timeouts.to_string(),
    ]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    let mut t = Table::new(
        "Traced latency breakdown (mean per span, ms)",
        &["phase", "healing off", "healing on"],
    );
    t.row(&[
        "version collect (inquiry)".into(),
        format!("{:.1}", mean_ms(off.inquiry_us)),
        format!("{:.1}", mean_ms(on.inquiry_us)),
    ]);
    t.row(&[
        "data move (separate content fetch; × how many)".into(),
        format!("{:.1} × {}", mean_ms(off.fetch_us), off.fetch_us.1),
        format!("{:.1} × {}", mean_ms(on.fetch_us), on.fetch_us.1),
    ]);
    t.row(&[
        "lock wait (server-side)".into(),
        format!("{:.3}", mean_ms(off.lock_wait_us)),
        format!("{:.3}", mean_ms(on.lock_wait_us)),
    ]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    let mut t = Table::new(
        "Self-healing activity (healing-on arm)",
        &["counter", "value"],
    );
    t.row(&[
        "anti-entropy repairs completed".into(),
        on.server.repairs_completed.to_string(),
    ]);
    t.row(&[
        "suspicions raised".into(),
        on.client.suspicions_raised.to_string(),
    ]);
    t.row(&[
        "quorum plans rerouted around suspects".into(),
        on.client.reroutes.to_string(),
    ]);
    out.push_str(&t.to_markdown());
    out.push('\n');
    out.push_str(&format!(
        "Post-recovery operation availability (ops started between a crash \
         and 2 s past its recovery), healing off → on: **{} → {}** \
         (no worse: **{}**).\n\n",
        pct(off.post_recovery_availability()),
        pct(on.post_recovery_availability()),
        if on.post_recovery_availability() >= off.post_recovery_availability() {
            "yes"
        } else {
            "NO"
        }
    ));
    let (off_p99, on_p99) = (off.read_ms(0.99), on.read_ms(0.99));
    out.push_str(&format!(
        "Read latency p99, healing off → on: **{off_p99:.1} ms → {on_p99:.1} ms** (strictly better: **{}**).\n",
        if on_p99 < off_p99 {
            "yes"
        } else {
            "NO"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healing_improves_tail_latency_at_no_cost_in_availability() {
        let (off, on) = measure(0xE10, 8, &mut Verdict::default());
        assert!(
            on.post_recovery_availability() >= off.post_recovery_availability(),
            "post-recovery availability: off {} vs on {}",
            off.post_recovery_availability(),
            on.post_recovery_availability()
        );
        let (off_p99, on_p99) = (off.read_ms(0.99), on.read_ms(0.99));
        assert!(
            on_p99 < off_p99,
            "read p99: off {off_p99} ms vs on {on_p99} ms"
        );
        // The improvements must come from the layer actually working.
        assert!(
            on.server.repairs_completed > 0,
            "no anti-entropy repair ran"
        );
        assert!(
            on.client.suspicions_raised > 0,
            "no site was ever suspected"
        );
        assert_eq!(
            off.server.repairs_completed, 0,
            "the off arm must not repair"
        );
    }

    #[test]
    fn the_report_carries_both_verdicts() {
        let report = run(4, &mut Verdict::default());
        assert!(report.contains("Post-recovery operation availability"));
        assert!(report.contains("(no worse: **yes**)"), "{report}");
        assert!(report.contains("(strictly better: **yes**)"), "{report}");
        assert!(!report.contains("**NO**"), "{report}");
    }
}
