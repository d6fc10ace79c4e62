//! The phases of a simulator workload: set-up, closed-loop saturate,
//! open-loop offered rungs. One batch runner serves them all - a
//! closed-loop batch and an open-loop rung differ only in when their ops
//! are due.

use std::collections::HashSet;
use std::time::Instant;

use wv_core::client::CompletedOp;
use wv_net::SiteId;
use wv_sim::{FailureSchedule, SimDuration, SimTime};

use crate::check::{Checker, Ended};
use crate::cluster;
use crate::drive::{Counters, SimDriver};
use crate::gen::{self, Gen, Op};
use crate::spec::{self, Spec};
use crate::stats;
use crate::sys;

/// Virtual time a churn cluster advances between completion checks.
const CHURN_SLICE: SimDuration = SimDuration::from_millis(20);

/// Feeds a churn workload's crash/recovery windows to the scheduler a
/// little ahead of the clock, so the event queue holds only near-term
/// faults (a queue preloaded with the whole timeline would distort the
/// scheduler's cost) and so the cluster can still be drained to quiet.
pub struct Churn {
    schedule: FailureSchedule,
    next: Vec<usize>,
    /// Every crash and recovery instant, sorted.
    edges: Vec<SimTime>,
}

impl Churn {
    pub fn new(schedule: FailureSchedule) -> Churn {
        let mut edges: Vec<SimTime> = (0..schedule.sites())
            .flat_map(|s| schedule.windows(s).iter().flat_map(|w| [w.from, w.until]))
            .collect();
        edges.sort_unstable();
        Churn {
            next: vec![0; schedule.sites()],
            schedule,
            edges,
        }
    }

    /// Schedules every window that opens by `until`.
    fn feed(&mut self, d: &mut impl SimDriver, until: SimTime) {
        let mut due = FailureSchedule::none(self.schedule.sites());
        let mut any = false;
        for site in 0..self.schedule.sites() {
            let windows = self.schedule.windows(site);
            while let Some(w) = windows.get(self.next[site]).filter(|w| w.from <= until) {
                due.add_outage(site, w.from, w.until);
                self.next[site] += 1;
                any = true;
            }
        }
        if any {
            d.apply_failure_schedule(&due);
        }
    }

    /// Crash and recovery events that have fired by `now`.
    fn fired(&self, now: SimTime) -> u64 {
        self.edges.partition_point(|&e| e <= now) as u64
    }

    /// The instant the last fed outage ends.
    fn all_up_at(&self) -> SimTime {
        (0..self.schedule.sites())
            .filter_map(|s| self.schedule.windows(s)[..self.next[s]].last())
            .map(|w| w.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// What one batch (or rung) did.
pub struct BatchOut {
    /// Wall time of the whole batch: enqueue, run, drain.
    pub wall_ns: u64,
    /// The part of it spent in the benchmark's own enqueue and drain code.
    pub self_ns: u64,
    /// Process CPU time over the same region.
    pub cpu_ns: u64,
    /// Wall-clock instants of the batch and of its run phase, for spans.
    pub t_start: Instant,
    pub t_run: (Instant, Instant),
    pub t_end: Instant,
    /// Transport time from the batch's start to its last completion.
    pub virt_us: u64,
    pub events: u64,
    pub ok: u64,
    pub attempts: u64,
    pub counters: Counters,
    /// `(due, finished)` in microseconds from the batch start and whether
    /// the op committed, per completed op.
    pub timeline: Vec<(u64, u64, bool)>,
}

/// Runs `ops` (due times relative to now) to completion and feeds the
/// history to the checker. Payloads are generated before timing starts.
pub fn run_batch<D: SimDriver>(
    d: &mut D,
    spec: &Spec,
    seed: u64,
    ops: &[Op],
    churn: Option<&mut Churn>,
    checker: &mut Checker,
    keep: Option<&mut Vec<CompletedOp>>,
) -> BatchOut {
    let clients = cluster::client_sites(spec);
    let values: Vec<_> = ops
        .iter()
        .map(|op| gen::value_of(seed, op, spec.payload))
        .collect();
    let base = d.now();
    let c0 = d.counters();
    let faults0 = churn.as_ref().map_or(0, |c| c.fired(base));

    let cpu0 = sys::process_cpu_ns();
    let t_start = Instant::now();
    for (op, value) in ops.iter().zip(values) {
        d.submit(op, value, base + SimDuration::from_micros(op.due_us));
    }
    let t_run0 = Instant::now();
    let mut events = match churn {
        None => d.run_until_quiet(),
        Some(churn) => {
            // Anti-entropy never lets a churn cluster go quiet: advance
            // in slices until every op is back.
            loop {
                let until = d.now() + CHURN_SLICE;
                churn.feed(d, until);
                d.advance(CHURN_SLICE);
                let back: usize = clients.iter().map(|&c| d.completed_len(c)).sum();
                if back >= ops.len() {
                    break;
                }
            }
            churn.fired(d.now()) - faults0
        }
    };
    let t_run1 = Instant::now();
    let done: Vec<Vec<CompletedOp>> = clients.iter().map(|&c| d.drain_completed(c)).collect();
    let t_end = Instant::now();
    let cpu_ns = sys::cpu_since(cpu0);

    let counters = d.counters().since(&c0);
    if spec.churn.is_some() {
        // Every event is a submission, a delivery (made or dropped at a
        // down site), a timer, or a fault edge (counted above).
        events += ops.len() as u64
            + counters.delivered
            + counters.dropped
            + counters.timers_fired
            + counters.timers_dropped;
    }
    let mut out = BatchOut {
        wall_ns: (t_end - t_start).as_nanos() as u64,
        self_ns: ((t_run0 - t_start) + (t_end - t_run1)).as_nanos() as u64,
        cpu_ns,
        t_start,
        t_run: (t_run0, t_run1),
        t_end,
        virt_us: 0,
        events,
        ok: 0,
        attempts: 0,
        counters,
        timeline: Vec::with_capacity(ops.len()),
    };
    let recs = link(ops, done, base, &mut out);
    if let Some(keep) = keep {
        keep.extend(recs.iter().filter_map(|(_, e)| match e {
            Ended::Completed { done, .. } => Some(done.clone()),
            Ended::Unfinished => None,
        }));
    }
    checker.ingest(&recs);
    out
}

/// Matches completions to ops: per client, an op's submission instant is
/// unique, and `CompletedOp::started` repeats it exactly.
fn link(
    ops: &[Op],
    done: Vec<Vec<CompletedOp>>,
    base: SimTime,
    out: &mut BatchOut,
) -> Vec<(Op, Ended)> {
    let mut recs = Vec::with_capacity(ops.len());
    for (ci, mut completed) in done.into_iter().enumerate() {
        completed.sort_by_key(|c| c.started);
        let mut completed = completed.into_iter().peekable();
        for op in ops.iter().filter(|o| o.client as usize == ci) {
            let at = base + SimDuration::from_micros(op.due_us);
            match completed.next_if(|c| c.started == at) {
                Some(c) => {
                    let fin = c.finished.since(base).as_micros();
                    out.virt_us = out.virt_us.max(fin);
                    out.attempts += u64::from(c.attempts);
                    out.ok += u64::from(c.outcome.is_ok());
                    out.timeline.push((op.due_us, fin, c.outcome.is_ok()));
                    recs.push((
                        *op,
                        Ended::Completed {
                            done: c,
                            exact: true,
                        },
                    ));
                }
                None => recs.push((*op, Ended::Unfinished)),
            }
        }
        assert!(
            completed.next().is_none(),
            "a completion matched no submitted op"
        );
    }
    recs
}

/// Builds nothing itself: seeds every suite on `d` and runs the warm-up.
/// Returns the warm-up's completions for the history oracle.
pub fn seed_and_warm<D: SimDriver>(
    d: &mut D,
    spec: &Spec,
    gen: &mut Gen,
    mut churn: Option<&mut Churn>,
    checker: &mut Checker,
) -> (Vec<CompletedOp>, HashSet<Vec<u8>>) {
    let seed = gen.seed();
    let mut kept = Vec::new();
    let seeding = gen.seeding();
    let warm = gen.batch(spec.warmup_ops);
    let sent: HashSet<Vec<u8>> = seeding
        .iter()
        .chain(&warm)
        .map(|op| gen::value_of(seed, op, spec.payload))
        .filter(|p| !p.is_empty())
        .collect();
    // One write per suite, one at a time; then the warm-up in batches of
    // the size the timed phases use.
    for op in seeding {
        let churn = churn.as_deref_mut();
        run_batch(d, spec, seed, &[op], churn, checker, Some(&mut kept));
    }
    for ops in warm.chunks(spec.batch_ops) {
        let churn = churn.as_deref_mut();
        run_batch(d, spec, seed, ops, churn, checker, Some(&mut kept));
    }
    (kept, sent)
}

/// One timed closed-loop batch.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Ops the batch committed.
    pub ok: u64,
    /// How many times slower than nominal the reference loop ran around
    /// the batch (1 where no reference was taken).
    pub slowdown: f64,
}

impl Sample {
    pub fn wall_us_per_op(&self) -> f64 {
        self.wall_ns as f64 / 1e3 / self.ok.max(1) as f64
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ok.max(1) as f64
    }
}

/// The samples and totals of a closed-loop phase.
#[derive(Default)]
pub struct Saturate {
    pub samples: Vec<Sample>,
    pub self_ns: u64,
    pub virt_us: u64,
    pub events: u64,
    /// Ops submitted and committed in the sampled batches.
    pub ops: u64,
    pub ok: u64,
    /// Committed ops that `attempts` and `counters` cover (the thread
    /// transport counts its unsampled drain batches too).
    pub counted_ok: u64,
    pub attempts: u64,
    pub counters: Counters,
    /// Peak resident set when the phase had run its floor of batches: a
    /// fixed amount of work, so the reading does not depend on how many
    /// more batches the time budget allowed.
    pub rss_mb: f64,
    /// Per batch: events and counters, for the traced-pass comparison.
    pub per_batch: Vec<(u64, u64, Counters)>,
}

impl Saturate {
    /// Files one sample; reads the peak resident set when `floor` are in.
    pub fn sample(&mut self, s: Sample, ops: u64, floor: usize) {
        self.samples.push(s);
        self.ops += ops;
        self.ok += s.ok;
        if self.samples.len() == floor {
            self.rss_mb = sys::peak_rss_mb();
        }
    }

    /// Files a simulator batch, with the reference's slowdown next to it.
    pub fn add(&mut self, b: &BatchOut, ops: usize, slowdown: f64) {
        let s = Sample {
            wall_ns: b.wall_ns,
            cpu_ns: b.cpu_ns,
            ok: b.ok,
            slowdown,
        };
        self.sample(s, ops as u64, spec::MIN_BATCHES);
        self.self_ns += b.self_ns;
        self.virt_us += b.virt_us;
        self.events += b.events;
        self.counted_ok += b.ok;
        self.attempts += b.attempts;
        self.counters.add(&b.counters);
        self.per_batch.push((b.events, b.virt_us, b.counters));
    }

    pub fn wall_ns(&self) -> u64 {
        self.samples.iter().map(|s| s.wall_ns).sum()
    }
}

/// One rung of the offered-load ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    pub rate: f64,
    pub arrivals: usize,
    pub ok: u64,
    pub failed: u64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// Ops committed inside the arrival window, per second of it.
    pub goodput: f64,
    pub backlog_mid: u64,
    pub backlog_end: u64,
}

impl Rung {
    /// Backlog growth a rung may show and still count as keeping up:
    /// a queue that is merely fluctuating moves by a few ops, one that
    /// grows without bound gains a fixed share of the arrivals.
    fn backlog_slack(&self) -> u64 {
        (self.arrivals as u64 / 50).max(8)
    }

    pub fn in_slo(&self, slo_p99_ms: f64) -> bool {
        self.failed == 0
            && self.p99_ms <= slo_p99_ms
            && self.backlog_end <= self.backlog_mid + self.backlog_slack()
    }
}

/// Summarises a rung from its batch.
pub fn rung(rate: f64, ops: &[Op], b: &BatchOut) -> Rung {
    let window = ops.iter().map(|o| o.due_us).max().unwrap_or(0).max(1);
    let mut lat: Vec<f64> = b
        .timeline
        .iter()
        .filter(|t| t.2)
        .map(|&(due, fin, _)| (fin - due) as f64 / 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let backlog = |t: u64| {
        let due = ops.iter().filter(|o| o.due_us <= t).count() as u64;
        let fin = b.timeline.iter().filter(|x| x.1 <= t).count() as u64;
        due - fin
    };
    let in_window = b.timeline.iter().filter(|x| x.2 && x.1 <= window).count();
    Rung {
        rate,
        arrivals: ops.len(),
        ok: b.ok,
        failed: ops.len() as u64 - b.ok,
        p50_ms: stats::percentile(&lat, 0.50),
        p90_ms: stats::percentile(&lat, 0.90),
        p99_ms: stats::percentile(&lat, 0.99),
        goodput: in_window as f64 / (window as f64 / 1e6),
        backlog_mid: backlog(window / 2),
        backlog_end: backlog(window),
    }
}

/// Lets a churn cluster heal and go quiet, so its replicas can be judged:
/// every fed outage ends, anti-entropy runs a few rounds, then stops.
pub fn quiesce<D: SimDriver>(d: &mut D, spec: &Spec, churn: Option<&Churn>) {
    if let (Some(c), Some(churn)) = (spec.churn, churn) {
        let settle = SimDuration::from_millis(c.anti_entropy_ms * 8);
        let until = churn.all_up_at().max(d.now()) + settle;
        d.advance(until.since(d.now()));
        d.stop_anti_entropy();
        d.run_until_quiet();
    }
}

/// What every voting representative holds, per suite, for the checker.
pub fn replicas<D: SimDriver>(d: &D, spec: &Spec) -> Vec<Vec<(u64, Vec<u8>)>> {
    cluster::suite_ids(spec)
        .into_iter()
        .map(|suite| {
            (0..spec.servers)
                .map(|s| d.replica(SiteId::from(s), suite))
                .collect()
        })
        .collect()
}
