//! One workload run, untraced or traced, on the simulator.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use wv_core::client::CompletedOp;
use wv_core::harness::Harness;

use crate::check::{self, Checker};
use crate::cluster::{self, RawSpan};
use crate::drive::{self, Counters, Rig, SimDriver};
use crate::gen::{Gen, Op};
use crate::kernels;
use crate::phases::{self, BatchOut, Churn, Rung, Sample, Saturate};
use crate::reference::Reference;
use crate::spans::SpanLog;
use crate::spec::{self, Spec, Transport};
use crate::stats;
use crate::sys;
use crate::threads;

/// How the saturate phase is sized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Run equal batches for this many seconds of wall time (the share
    /// [`spec::SATURATE_SHARE`] of them), at least [`spec::MIN_BATCHES`].
    Seconds(f64),
    /// Run the workload's fixed `sat_batches`: identical work on every
    /// run, so every count and virtual-time metric repeats exactly.
    Batches,
}

impl Budget {
    /// Whether a closed loop with `samples` batches in after `spent`
    /// seconds has run enough: its fixed count, or `share` of the seconds
    /// and at least `floor` batches (a slow box stops at twice the time).
    pub fn spent(self, samples: usize, spent: f64, fixed: usize, floor: usize, share: f64) -> bool {
        match self {
            Budget::Batches => samples >= fixed,
            Budget::Seconds(s) => {
                let limit = s * share;
                (samples >= floor && spent >= limit) || spent >= 2.0 * limit
            }
        }
    }

    /// How many arrivals the open loop of an untraced run gets, given its
    /// nominal count for ten seconds.
    pub fn arrivals(self, nominal: usize) -> usize {
        match self {
            Budget::Batches => nominal,
            Budget::Seconds(s) => (nominal as f64 * (s / 10.0).max(0.1)) as usize,
        }
    }
}

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Set-ups to time (the median is `setup_s`).
    pub setups: usize,
    /// Divisor applied to every op and iteration count (1 for a full
    /// run; smoke runs and self-tests shrink the work).
    pub div: usize,
    /// Where the traced pass writes `<workload>.spans.jsonl`.
    pub out_dir: std::path::PathBuf,
}

/// What a run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name to value; units and bounds live in [`spec`].
    pub metrics: BTreeMap<String, f64>,
    /// Exact counts behind the metrics (bit-identical per seed on the
    /// simulator), for `compare` and the determinism self-tests.
    pub counts: BTreeMap<String, u64>,
    /// Lines for the human report: spreads, sample counts, the ladder.
    pub notes: Vec<String>,
    /// What failed the correctness gate.
    pub violations: Vec<String>,
}

impl Outcome {
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name.to_string(), value);
    }

    pub(crate) fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    pub(crate) fn close(&mut self, checkers: &[&Checker]) {
        let first = checkers[0];
        self.attempted = first.attempted;
        self.failed = first.failed;
        for c in checkers {
            self.violations
                .extend(c.violations().iter().map(|v| format!("{v:?}")));
        }
        self.correct = self.violations.is_empty();
    }
}

/// Runs `spec` once.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    match (spec.transport, opts.trace) {
        (Transport::Sim, false) => sim_untraced(spec, opts),
        (Transport::Sim, true) => sim_traced(spec, opts),
        (Transport::Thread, false) => threads::untraced(spec, opts),
        (Transport::Thread, true) => threads::traced(spec, opts),
    }
}

/// A built, seeded and warmed simulator cluster with its input stream,
/// its fault timeline and its checker.
struct Warm<D> {
    d: D,
    gen: Gen,
    churn: Option<Churn>,
    checker: Checker,
    /// The warm-up's completions and payloads, until the oracle has
    /// judged them.
    warmup: Option<(Vec<CompletedOp>, HashSet<Vec<u8>>)>,
}

fn warm_up<D: SimDriver>(spec: &Spec, seed: u64, d: D) -> Warm<D> {
    let mut w = Warm {
        d,
        gen: Gen::new(spec, seed),
        churn: drive::failure_schedule(spec, seed).map(Churn::new),
        checker: Checker::new(seed, spec.suites, spec.payload),
        warmup: None,
    };
    w.warmup = Some(phases::seed_and_warm(
        &mut w.d,
        spec,
        &mut w.gen,
        w.churn.as_mut(),
        &mut w.checker,
    ));
    w
}

impl<D: SimDriver> Warm<D> {
    /// Runs `ops` to completion on this cluster (see [`phases::run_batch`]).
    fn batch(&mut self, spec: &Spec, seed: u64, ops: &[Op]) -> BatchOut {
        phases::run_batch(
            &mut self.d,
            spec,
            seed,
            ops,
            self.churn.as_mut(),
            &mut self.checker,
            None,
        )
    }

    /// Runs the repository's quadratic history oracle over the warm-up;
    /// kept out of the timed set-up.
    fn oracle(&mut self, spec: &Spec) -> Vec<String> {
        let (kept, sent) = self.warmup.take().unwrap_or_default();
        check::oracle_check(&kept, spec.suites, &sent)
            .iter()
            .map(|v| format!("oracle: {v:?}"))
            .collect()
    }
}

fn saturate<D: SimDriver>(w: &mut Warm<D>, spec: &Spec, seed: u64, budget: Budget) -> Saturate {
    let mut sat = Saturate::default();
    let mut reference = Reference::new();
    // Each batch is corrected by the mean of the reference's readings
    // just before and just after it.
    let mut before = reference.slowdown();
    let started = Instant::now();
    loop {
        let spent = started.elapsed().as_secs_f64();
        if budget.spent(
            sat.samples.len(),
            spent,
            spec.sat_batches,
            spec::MIN_BATCHES,
            spec::SATURATE_SHARE,
        ) {
            return sat;
        }
        let ops = w.gen.batch(spec.batch_ops);
        let b = w.batch(spec, seed, &ops);
        let after = reference.slowdown();
        sat.add(&b, ops.len(), (before + after) / 2.0);
        before = after;
    }
}

fn offered<D: SimDriver>(
    w: &mut Warm<D>,
    spec: &Spec,
    seed: u64,
    rate: f64,
    arrivals: usize,
) -> Rung {
    let ops = w.gen.arrivals(arrivals, rate);
    let b = w.batch(spec, seed, &ops);
    phases::rung(rate, &ops, &b)
}

fn finish<D: SimDriver>(w: &mut Warm<D>, spec: &Spec) {
    phases::quiesce(&mut w.d, spec, w.churn.as_ref());
    let replicas = phases::replicas(&w.d, spec);
    w.checker.finish(&replicas, spec.quorum());
}

/// Ratio with an empty denominator reading as zero.
pub fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The end-to-end numbers of a closed-loop phase. Wall and CPU time per
/// op are medians over the batches of the reading divided by the
/// reference's slowdown next to it (see [`crate::reference`]).
pub fn saturate_metrics(out: &mut Outcome, sat: &Saturate) {
    let norm = |f: fn(&Sample) -> f64| -> f64 {
        let v: Vec<f64> = sat.samples.iter().map(|s| f(s) / s.slowdown).collect();
        stats::median(&v)
    };
    out.set("wall_us_per_op", norm(Sample::wall_us_per_op));
    out.set("cpu_us_per_op", norm(Sample::cpu_us_per_op));
    // A run too short to reach the floor reads its peak at the end.
    let rss = if sat.rss_mb > 0.0 {
        sat.rss_mb
    } else {
        sys::peak_rss_mb()
    };
    out.set("peak_rss_mb", rss);
    let raw = stats::sorted(
        &sat.samples
            .iter()
            .map(Sample::wall_us_per_op)
            .collect::<Vec<_>>(),
    );
    let slow: Vec<f64> = sat.samples.iter().map(|s| s.slowdown).collect();
    out.notes.push(format!(
        "saturate: {} batches, {} ops committed of {}; raw wall us/op lower decile {:.3}, median {:.3}, p90 {:.3}; reference loop at {:.3}x nominal (median; 1 = not taken)",
        raw.len(),
        sat.ok,
        sat.ops,
        stats::percentile(&raw, 0.10),
        stats::percentile(&raw, 0.50),
        stats::percentile(&raw, 0.90),
        stats::median(&slow),
    ));
}

fn sim_untraced(spec: &Spec, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..opts.setups.max(1) {
        let t0 = Instant::now();
        let built: Harness = cluster::build_harness(spec, opts.seed);
        let warm = warm_up(spec, opts.seed, built);
        setups.push(t0.elapsed().as_secs_f64() / reference.slowdown());
        last = Some(warm);
    }
    let mut w = last.expect("at least one set-up");
    out.violations = w.oracle(spec);
    out.set("setup_s", stats::median(&setups));

    let sat = saturate(&mut w, spec, opts.seed, opts.budget);
    saturate_metrics(&mut out, &sat);
    out.set("tput_ops_per_s", sat.ok as f64 / (sat.virt_us as f64 / 1e6));

    let arrivals = opts
        .budget
        .arrivals(spec.arrivals * spec::LATENCY_RUNG_SCALE);
    let r = offered(
        &mut w,
        spec,
        opts.seed,
        spec.rates[spec::LATENCY_RUNG],
        arrivals,
    );
    out.set("lat_p50_ms", r.p50_ms);
    out.notes.push(format!(
        "offered: {} ops/s, {} arrivals, {} committed; p90 {:.3} ms, p99 {:.3} ms with {} samples beyond it",
        r.rate,
        r.arrivals,
        r.ok,
        r.p90_ms,
        r.p99_ms,
        r.ok / 100
    ));

    finish(&mut w, spec);
    work_counts(&mut out, "saturate", &sat);
    out.count("offered.ok", r.ok);
    out.count("offered.p50_us", (r.p50_ms * 1e3).round() as u64);
    out.count("offered.p90_us", (r.p90_ms * 1e3).round() as u64);
    out.count("offered.p99_us", (r.p99_ms * 1e3).round() as u64);
    out.close(&[&w.checker]);
    out
}

fn work_counts(out: &mut Outcome, phase: &str, sat: &Saturate) {
    out.count(&format!("{phase}.ops"), sat.ops);
    out.count(&format!("{phase}.ok"), sat.ok);
    out.count(&format!("{phase}.attempts"), sat.attempts);
    out.count(&format!("{phase}.events"), sat.events);
    out.count(&format!("{phase}.virt_us"), sat.virt_us);
    for (name, v) in sat.counters.fields() {
        out.count(&format!("{phase}.{name}"), v);
    }
}

/// The exact per-op work counters of a closed-loop phase.
pub fn counter_metrics(out: &mut Outcome, sat: &Saturate) {
    let c: &Counters = &sat.counters;
    let ok = sat.counted_ok;
    out.set("sim.sched.events_per_op", per(sat.events, ok));
    out.set("net.sim_net.msgs_per_op", per(c.delivered, ok));
    out.set("net.sim_net.timers_per_op", per(c.timers_fired, ok));
    out.set("net.sim_net.dropped_per_op", per(c.dropped, ok));
    out.set("core.client.attempts_per_op", per(sat.attempts, ok));
    out.set("core.client.timeouts_per_op", per(c.timeouts, ok));
    out.set("core.client.refused_busy_per_op", per(c.refused_busy, ok));
    out.set("core.server.votes_no_ratio", per(c.votes_no, c.prepares));
    out.set("core.server.aborts_per_op", per(c.aborts, ok));
    out.set("core.server.prepares_per_op", per(c.prepares, ok));
    out.set("core.server.busy_per_read", per(c.busy, c.reads));
    out.set(
        "core.client.plan_cache_hit_ratio",
        per(c.plan_cache_hits, c.plan_cache_hits + c.plan_cache_misses),
    );
    out.set(
        "core.client.weak_hit_ratio",
        per(c.reads_cache_hit, c.reads_cache_hit + c.reads_fetched),
    );
    out.set("core.client.reroutes_per_op", per(c.reroutes, ok));
    out.set("core.server.recoveries", c.recoveries as f64);
    out.set("core.server.repairs_completed", c.repairs_completed as f64);
    out.set("storage.wal.flushes_per_op", per(c.wal_flushes, ok));
    let records_per_flush = if c.wal_batches > 0 {
        per(c.wal_batched_records, c.wal_batches)
    } else {
        // Without group commit every record is flushed on its own.
        f64::from(u8::from(c.wal_flushes > 0))
    };
    out.set("storage.wal.records_per_flush", records_per_flush);
    out.set(
        "storage.container.checkpoints_per_kop",
        per(c.checkpoints * 1000, ok),
    );
}

/// Busy time and call counts of the timed handlers, per committed op.
pub fn handler_metrics<'a>(
    out: &mut Outcome,
    spans: impl Iterator<Item = &'a RawSpan>,
    ok: u64,
) -> (u64, u64) {
    // A span runs from the middle of one clock read to the middle of the
    // next, so each holds about one read that is not the handler's.
    let clock_ns = sys::clock_read_ns();
    let mut busy = [0f64; 2];
    let mut calls = [0u64; 2];
    for s in spans {
        let i = usize::from(s.server);
        busy[i] += (f64::from(s.dur_ns) - clock_ns).max(0.0);
        calls[i] += 1;
    }
    out.set(
        "core.client.busy_us_per_op",
        busy[0] / 1e3 / ok.max(1) as f64,
    );
    out.set("core.client.calls_per_op", per(calls[0], ok));
    out.set(
        "core.server.busy_us_per_op",
        busy[1] / 1e3 / ok.max(1) as f64,
    );
    out.set("core.server.calls_per_op", per(calls[1], ok));
    out.notes.push(format!(
        "one clock read costs {clock_ns:.0} ns; taken off every handler span"
    ));
    (busy[0] as u64, busy[1] as u64)
}

/// Divides every per-layer processor time (the metrics in `us` and `ns`;
/// latencies are in `ms`) by the median of `slowdowns`, the reference
/// loop's readings during the traced run, and reports that median.
pub fn normalise_layer_times(out: &mut Outcome, slowdowns: &[f64]) {
    let factor = stats::median(slowdowns);
    for m in spec::PER_LAYER
        .iter()
        .filter(|m| matches!(m.unit, "us" | "ns"))
    {
        if let Some(v) = out.metrics.get_mut(m.name) {
            *v /= factor;
        }
    }
    out.set("bench.box_slowdown", factor);
}

/// Every per-layer metric starts at 0: a layer the workload does not
/// exercise stays there.
pub fn zero_layers(out: &mut Outcome) {
    for m in spec::PER_LAYER {
        out.set(m.name, 0.0);
    }
}

fn sim_traced(spec: &Spec, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    zero_layers(&mut out);
    let epoch = Instant::now();
    let mut u = warm_up(spec, opts.seed, cluster::build_harness(spec, opts.seed));
    out.violations = u.oracle(spec);
    let mut t = warm_up(spec, opts.seed, Rig::new(spec, opts.seed, epoch));
    t.d.take_spans(); // the traced pass starts after the warm-up

    // The same batches on both clusters, alternating, so machine noise
    // hits both sides alike.
    let mut plain = Saturate::default();
    let mut traced = Saturate::default();
    let mut log = SpanLog::new(epoch);
    let mut reference = Reference::new();
    for i in 0..spec.traced_batches {
        let ops = u.gen.batch(spec.batch_ops);
        let same = t.gen.batch(spec.batch_ops);
        debug_assert_eq!(ops.len(), same.len());
        let bu = u.batch(spec, opts.seed, &ops);
        let bt = t.batch(spec, opts.seed, &same);
        let slowdown = reference.slowdown();
        plain.add(&bu, ops.len(), slowdown);
        traced.add(&bt, ops.len(), slowdown);
        if plain.per_batch[i] != traced.per_batch[i] || bu.ok != bt.ok || bu.attempts != bt.attempts
        {
            out.violations.push(format!(
                "traced batch {i} is not the untraced system: {:?} vs {:?}",
                traced.per_batch[i], plain.per_batch[i]
            ));
        }
        log.batch(bt.t_start, bt.t_run, bt.t_end, t.d.take_spans());
    }

    let ok = traced.ok;
    let (client_ns, server_ns) = handler_metrics(&mut out, log.handler_spans(), ok);
    // The untraced twin of each batch did the same work without paying
    // for the recording, so the transport's share is taken from its wall
    // time: what is left after the handlers and the benchmark's own code.
    let busy_us = (client_ns + server_ns) as f64 / 1e3 / ok.max(1) as f64;
    let plain_us = (plain.wall_ns() - plain.self_ns) as f64 / 1e3 / plain.ok.max(1) as f64;
    let net_self_us = (plain_us - busy_us).max(0.0);
    out.set("net.sim_net.self_us_per_op", net_self_us);
    out.set(
        "bench.self_us_per_op",
        plain.self_ns as f64 / 1e3 / plain.ok.max(1) as f64,
    );
    let ratios: Vec<f64> = plain
        .samples
        .iter()
        .zip(&traced.samples)
        .map(|(p, t)| t.wall_ns as f64 / p.wall_ns as f64)
        .collect();
    out.set("bench.trace_overhead_ratio", stats::median(&ratios));
    counter_metrics(&mut out, &plain);
    work_counts(&mut out, "traced", &plain);

    // The ladder, on the untraced cluster.
    let mut rungs = Vec::new();
    let mut ladder_failed = 0;
    let mut ladder_ops = 0;
    for &rate in spec.rates {
        let r = offered(&mut u, spec, opts.seed, rate, spec.arrivals);
        out.notes.push(format!(
            "rung {:>7.1} ops/s: p50 {:>9.3} ms, p99 {:>9.3} ms, goodput {:>8.2} ops/s, backlog mid {} end {}, failed {}, in SLO: {}",
            r.rate, r.p50_ms, r.p99_ms, r.goodput, r.backlog_mid, r.backlog_end, r.failed,
            r.in_slo(spec.slo_p99_ms)
        ));
        out.count(
            &format!("ladder.{}.p99_us", rungs.len()),
            (r.p99_ms * 1e3).round() as u64,
        );
        out.count(&format!("ladder.{}.ok", rungs.len()), r.ok);
        ladder_failed += r.failed;
        ladder_ops += r.arrivals as u64;
        rungs.push(r);
    }
    out.set("offered.lat_p90_ms", rungs[spec::LATENCY_RUNG].p90_ms);
    out.set("offered.lat_p99_ms", rungs[spec::LATENCY_RUNG].p99_ms);
    let best = rungs.iter().map(|r| r.goodput).fold(0.0, f64::max);
    out.set(
        "offered.max_rate_in_slo",
        rungs
            .iter()
            .filter(|r| r.in_slo(spec.slo_p99_ms))
            .map(|r| r.rate)
            .fold(0.0, f64::max),
    );
    out.set(
        "offered.overload_goodput_ratio",
        rungs
            .last()
            .map_or(0.0, |r| r.goodput / best.max(f64::MIN_POSITIVE)),
    );
    out.set("offered.fail_ratio", per(ladder_failed, ladder_ops));

    let mut slowdowns: Vec<f64> = plain.samples.iter().map(|s| s.slowdown).collect();
    slowdowns.push(reference.slowdown());
    for (name, v) in kernels::run(spec, t.d.mean_pending(), opts.div) {
        out.set(name, v);
    }
    slowdowns.push(reference.slowdown());
    let events_per_op = out.metrics["sim.sched.events_per_op"];
    let msgs_per_op = out.metrics["net.sim_net.msgs_per_op"];
    let predicted_us = (msgs_per_op * out.metrics["net.sim_net.deliver_ns"]
        + (events_per_op - msgs_per_op).max(0.0) * out.metrics["sim.sched.event_ns"])
        / 1e3;
    out.set(
        "net.sim_net.self_vs_kernels_ratio",
        net_self_us / predicted_us.max(f64::MIN_POSITIVE),
    );
    out.notes.push(format!(
        "net.sim_net.self_us_per_op {net_self_us:.3} measured; the isolated kernels predict {predicted_us:.3} (both before the reference's correction)"
    ));
    normalise_layer_times(&mut out, &slowdowns);

    finish(&mut u, spec);
    finish(&mut t, spec);
    match log.write(&opts.out_dir, spec.name) {
        Ok(path) => out
            .notes
            .push(format!("{} spans written to {}", log.len(), path.display())),
        Err(e) => out.violations.push(format!("cannot write spans: {e}")),
    }
    out.close(&[&u.checker, &t.checker]);
    out
}
