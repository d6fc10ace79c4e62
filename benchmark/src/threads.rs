//! The thread workload: the same nodes as `NodeRunner`s on a `ThreadNet`,
//! real threads and the real clock, driven by one generator thread.
//!
//! Ops go in through `NodeRunner::invoke` closures that call the client's
//! `start_*` and report each op's first request id; completions come back
//! through closures that call `take_completed`. A completion is matched to
//! its op by that request id; an op that retried ends under a fresh id and
//! is matched by elimination, in submission order.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use wv_core::client::CompletedOp;
use wv_core::msg::Msg;
use wv_core::node::SystemNode;
use wv_core::OpKind;
use wv_net::runner::NodeRunner;
use wv_net::thread_net::ThreadNet;
use wv_storage::ObjectId;

use crate::check::{Checker, Ended};
use crate::cluster::{self, Host, RawSpan, Timed};
use crate::drive::{self, Counters};
use crate::gen::{self, Gen, Kind, Op};
use crate::kernels;
use crate::phases::{self, BatchOut, Rung, Sample, Saturate};
use crate::reference::Reference;
use crate::run::{self, Budget, Options, Outcome};
use crate::spans::SpanLog;
use crate::spec::{self, Spec};
use crate::stats;
use crate::sys;

/// Ops per submission closure in the closed loop.
const CHUNK: usize = 256;
/// A closed-loop block is this many batches submitted as one stream; the
/// last one drains the pipeline (an op stalled on a phase timeout holds
/// it open) and is not sampled.
const BLOCK_BATCHES: usize = 8;
/// Share of `--seconds` the closed loop may use; the open loop that
/// follows runs on the real clock and takes the rest.
const SATURATE_SHARE: f64 = 0.4;
/// Real link latencies: the transport neither stretches nor shrinks time.
const TIME_SCALE: f64 = 1.0;
/// How often the open loop collects completions.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Pause between polls that found nothing.
const IDLE_POLL: Duration = Duration::from_micros(100);

type Links = Vec<(u32, u64)>;
/// The `(version, value)` every server holds of one suite.
type Replicas = Vec<(u64, Vec<u8>)>;

/// A running thread cluster and the channels the generator talks over.
pub struct ThreadCluster<N: Host> {
    servers: Vec<NodeRunner<N>>,
    client: NodeRunner<N>,
    net: ThreadNet<Msg>,
    suites: Vec<ObjectId>,
    done: (Sender<Vec<CompletedOp>>, Receiver<Vec<CompletedOp>>),
    links: (Sender<Links>, Receiver<Links>),
    /// The benchmark's clock origin, and the node clock's reading at it.
    epoch: Instant,
    node_clock_at_epoch_us: i64,
}

impl<N: Host> ThreadCluster<N> {
    pub fn start(spec: &Spec, seed: u64, wrap: impl Fn(SystemNode) -> N) -> ThreadCluster<N> {
        assert_eq!(spec.clients, 1, "the thread workload has one client");
        let mut net = ThreadNet::<Msg>::start(cluster::net_config(spec), seed, TIME_SCALE);
        let mut runners: Vec<NodeRunner<N>> = cluster::make_nodes(spec)
            .into_iter()
            .zip(net.endpoints.drain(..))
            .enumerate()
            .map(|(i, (node, ep))| {
                let node_seed = wv_sim::derive_seed(seed, i as u64 + 1);
                NodeRunner::spawn(wrap(node), ep, node_seed, TIME_SCALE)
            })
            .collect();
        let client = runners.pop().expect("client runner");
        let mut c = ThreadCluster {
            servers: runners,
            client,
            net,
            suites: cluster::suite_ids(spec),
            done: mpsc::channel(),
            links: mpsc::channel(),
            epoch: Instant::now(),
            node_clock_at_epoch_us: 0,
        };
        // Line the node clock up with ours: completions are stamped with
        // the endpoint's clock, due times with the generator's.
        let (tx, rx) = mpsc::channel();
        c.client.invoke(move |_, ctx| {
            let _ = tx.send((ctx.now().as_micros(), Instant::now()));
        });
        let (node_us, at) = rx.recv().expect("client thread is alive");
        c.node_clock_at_epoch_us = node_us as i64 - at.duration_since(c.epoch).as_micros() as i64;
        c
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A node-clock stamp on the benchmark's clock.
    fn to_bench_us(&self, node_us: u64) -> u64 {
        (node_us as i64 - self.node_clock_at_epoch_us).max(0) as u64
    }

    /// Hands `ops` (with their batch indices and payloads) to the client
    /// in one closure.
    fn submit(&self, ops: Vec<(u32, Op, Vec<u8>)>) {
        let links = self.links.0.clone();
        let suites = self.suites.clone();
        self.client.invoke(move |node, ctx| {
            let start = Instant::now();
            let c = node.sys_mut().as_client_mut().expect("client site");
            let firsts = ops
                .into_iter()
                .map(|(idx, op, value)| {
                    let suite = suites[op.suite as usize];
                    let req = match op.kind {
                        Kind::Read => c.start_read(suite, ctx),
                        Kind::Write | Kind::Txn => c.start_write(suite, value, ctx),
                    };
                    (idx, req.0)
                })
                .collect();
            node.note_invoke(start);
            let _ = links.send(firsts);
        });
    }

    /// Collects what the client has finished since the last poll.
    fn poll(&self) -> Vec<CompletedOp> {
        let done = self.done.0.clone();
        self.client.invoke(move |node, _| {
            let c = node.sys_mut().as_client_mut().expect("client site");
            let _ = done.send(c.take_completed());
        });
        self.done.1.recv().expect("client thread is alive")
    }

    /// Protocol and transport counters, gathered on the node threads.
    fn counters(&self) -> Counters {
        let (tx, rx) = mpsc::channel();
        for r in self.servers.iter().chain([&self.client]) {
            let tx = tx.clone();
            r.invoke(move |node, _| {
                let _ = tx.send(drive::node_counters([node.sys()].into_iter()));
            });
        }
        drop(tx);
        let mut sum = Counters::default();
        for c in rx {
            sum.add(&c);
        }
        // Of the transport's counters only the messages handed to it are
        // kept: the rest are the simulator's metrics and stay 0 here.
        sum.sent = self.net.handle.stats().sent;
        sum
    }

    /// Runs `ops` to completion. With `open`, each op is submitted when
    /// it falls due (an open loop on the real clock); otherwise ops go in
    /// [`CHUNK`]s as fast as the client takes them (at most two chunks
    /// outstanding). Also returns the generator's lateness per op (open
    /// loop) and a mark each time another `mark_every` ops were back.
    fn run_batch(
        &self,
        spec: &Spec,
        seed: u64,
        ops: &[Op],
        open: bool,
        mark_every: usize,
        checker: &mut Checker,
    ) -> (BatchOut, Vec<f64>, Vec<Mark>) {
        let n = ops.len();
        let mut values: Vec<Vec<u8>> = ops
            .iter()
            .map(|op| gen::value_of(seed, op, spec.payload))
            .collect();
        let mut completed: Vec<CompletedOp> = Vec::with_capacity(n);
        let mut lateness_ms = Vec::new();
        let mut marks = Vec::new();
        let mut ok_back = 0;
        let mut next = 0;

        let cpu0 = sys::process_cpu_ns();
        let t_start = Instant::now();
        let base_us = self.now_us();
        let mut last_poll = t_start;
        while completed.len() < n {
            if open {
                // Everything that has fallen due goes in as one closure;
                // the generator then sleeps - it never spins, the node
                // threads need both cores.
                let now = t_start.elapsed().as_micros() as u64;
                let from = next;
                while next < n && ops[next].due_us <= now {
                    lateness_ms.push((now - ops[next].due_us) as f64 / 1e3);
                    next += 1;
                }
                if next > from {
                    let due = (from..next)
                        .map(|i| (i as u32, ops[i], std::mem::take(&mut values[i])))
                        .collect();
                    self.submit(due);
                }
                let until_poll = POLL_EVERY.saturating_sub(last_poll.elapsed());
                if !until_poll.is_zero() {
                    let until_due = ops
                        .get(next)
                        .map(|o| Duration::from_micros(o.due_us).saturating_sub(t_start.elapsed()));
                    std::thread::sleep(until_due.map_or(until_poll, |d| d.min(until_poll)));
                    continue;
                }
            } else {
                while next < n && next - completed.len() <= CHUNK {
                    let end = (next + CHUNK).min(n);
                    let chunk = (next..end)
                        .map(|i| (i as u32, ops[i], std::mem::take(&mut values[i])))
                        .collect();
                    self.submit(chunk);
                    next = end;
                }
            }
            let got = self.poll();
            last_poll = Instant::now();
            if got.is_empty() && !open {
                std::thread::sleep(IDLE_POLL);
            }
            ok_back += got.iter().filter(|c| c.outcome.is_ok()).count() as u64;
            completed.extend(got);
            if completed.len() >= (marks.len() + 1).saturating_mul(mark_every) {
                marks.push(Mark {
                    at: last_poll,
                    cpu_ns: sys::process_cpu_ns(),
                    back: completed.len(),
                    ok_back,
                });
            }
        }
        let t_end = Instant::now();
        let cpu_ns = sys::cpu_since(cpu0);

        let mut out = BatchOut {
            wall_ns: (t_end - t_start).as_nanos() as u64,
            self_ns: 0,
            cpu_ns,
            t_start,
            t_run: (t_start, t_end),
            t_end,
            virt_us: (t_end - t_start).as_micros() as u64,
            events: 0,
            ok: 0,
            attempts: 0,
            counters: Counters::default(),
            timeline: Vec::with_capacity(n),
        };
        let recs = self.link(ops, completed, base_us, &mut out);
        checker.ingest(&recs);
        (out, lateness_ms, marks)
    }

    /// Matches completions to ops (see the module docs) and fills the
    /// batch's tallies; `base_us` is the batch's start on our clock.
    fn link(
        &self,
        ops: &[Op],
        completed: Vec<CompletedOp>,
        base_us: u64,
        out: &mut BatchOut,
    ) -> Vec<(Op, Ended)> {
        let first_req: HashMap<u64, u32> = self
            .links
            .1
            .try_iter()
            .flatten()
            .map(|(idx, req)| (req, idx))
            .collect();
        let mut ended: Vec<Option<Ended>> = vec![None; ops.len()];
        let mut orphans = Vec::new();
        for done in completed {
            match first_req.get(&done.req.0) {
                Some(&idx) if done.attempts <= 1 => {
                    ended[idx as usize] = Some(Ended::Completed { done, exact: true })
                }
                _ => orphans.push(done),
            }
        }
        // A retried op finishes under a fresh request id: pair it with
        // the oldest unmatched op of its kind on its suite. Such ops are
        // interchangeable but for their payloads, which `exact: false`
        // tells the checker not to trust.
        let mut unmatched: HashMap<(Kind, u64), VecDeque<usize>> = HashMap::new();
        for (i, op) in ops.iter().enumerate().filter(|(i, _)| ended[*i].is_none()) {
            let kind = if op.kind == Kind::Read {
                Kind::Read
            } else {
                Kind::Write
            };
            unmatched
                .entry((kind, self.suites[op.suite as usize].0))
                .or_default()
                .push_back(i);
        }
        orphans.sort_by_key(|d| (d.started, d.req));
        for done in orphans {
            let kind = if done.kind == OpKind::Read {
                Kind::Read
            } else {
                Kind::Write
            };
            let i = unmatched
                .get_mut(&(kind, done.suite.0))
                .and_then(VecDeque::pop_front)
                .expect("a completion matched no submitted op");
            ended[i] = Some(Ended::Completed { done, exact: false });
        }
        let mut recs = Vec::with_capacity(ops.len());
        for (op, e) in ops.iter().zip(ended) {
            let e = e.unwrap_or(Ended::Unfinished);
            if let Ended::Completed { done, .. } = &e {
                let fin = self
                    .to_bench_us(done.finished.as_micros())
                    .saturating_sub(base_us);
                out.attempts += u64::from(done.attempts);
                out.ok += u64::from(done.outcome.is_ok());
                out.timeline.push((op.due_us, fin, done.outcome.is_ok()));
            }
            recs.push((*op, e));
        }
        recs
    }

    /// Stops every thread and returns what the servers hold, per suite,
    /// and every node's spans.
    fn stop(self) -> (Vec<Replicas>, Vec<RawSpan>) {
        let mut nodes: Vec<N> = self.servers.into_iter().map(NodeRunner::stop).collect();
        let replicas = self
            .suites
            .iter()
            .map(|&suite| {
                nodes
                    .iter()
                    .map(|n| {
                        let s = n.sys().as_server().expect("server site");
                        (s.data_version(suite).0, s.data_value(suite).to_vec())
                    })
                    .collect()
            })
            .collect();
        nodes.push(self.client.stop());
        let spans = nodes.iter_mut().flat_map(|n| n.take_spans()).collect();
        drop(self.net);
        (replicas, spans)
    }
}

/// When the closed loop saw another batch's worth of ops back.
struct Mark {
    at: Instant,
    cpu_ns: u64,
    /// Ops back so far, and how many of them committed.
    back: usize,
    ok_back: u64,
}

/// A started, seeded and warmed thread cluster.
struct Warm<N: Host> {
    c: ThreadCluster<N>,
    gen: Gen,
    checker: Checker,
}

fn warm_up<N: Host>(spec: &Spec, seed: u64, wrap: impl Fn(SystemNode) -> N) -> Warm<N> {
    let mut w = Warm {
        c: ThreadCluster::start(spec, seed, wrap),
        gen: Gen::new(spec, seed),
        checker: Checker::new(seed, spec.suites, spec.payload),
    };
    let mut ops = w.gen.seeding();
    ops.extend(w.gen.batch(spec.warmup_ops));
    w.c.run_batch(spec, seed, &ops, false, usize::MAX, &mut w.checker);
    w
}

/// One sampled closed-loop batch: its wall-clock window, for the spans.
struct Window {
    from: Instant,
    to: Instant,
}

impl<N: Host> Warm<N> {
    /// The closed loop: blocks of [`BLOCK_BATCHES`] batches, each block one
    /// uninterrupted stream, until `enough` says stop. A batch's sample is
    /// the time between two marks of `batch_ops` completions.
    fn saturate(
        &mut self,
        spec: &Spec,
        seed: u64,
        enough: impl Fn(usize, Duration) -> bool,
    ) -> (Saturate, Vec<Window>) {
        let mut sat = Saturate::default();
        let mut windows = Vec::new();
        let c0 = self.c.counters();
        let started = Instant::now();
        while !enough(sat.samples.len(), started.elapsed()) {
            let ops = self.gen.batch(spec.batch_ops * BLOCK_BATCHES);
            let cpu0 = sys::process_cpu_ns();
            let (b, _, marks) =
                self.c
                    .run_batch(spec, seed, &ops, false, spec.batch_ops, &mut self.checker);
            let mut from = (b.t_start, cpu0, 0, 0);
            for m in marks.iter().take(BLOCK_BATCHES - 1) {
                let s = Sample {
                    wall_ns: (m.at - from.0).as_nanos() as u64,
                    cpu_ns: m.cpu_ns.saturating_sub(from.1),
                    ok: m.ok_back - from.3,
                    // A single-threaded reference does not track what
                    // neighbours do to five threads on two cores (dividing
                    // by it widened the spread); these readings stay raw.
                    slowdown: 1.0,
                };
                sat.sample(s, (m.back - from.2) as u64, spec::MIN_BATCHES / 2);
                windows.push(Window {
                    from: from.0,
                    to: m.at,
                });
                from = (m.at, m.cpu_ns, m.back, m.ok_back);
            }
            // The counters below cover the drain batches too.
            sat.counted_ok += b.ok;
            sat.attempts += b.attempts;
        }
        sat.counters = self.c.counters().since(&c0);
        (sat, windows)
    }

    fn finish(mut self, spec: &Spec) -> (Checker, Vec<RawSpan>) {
        let (replicas, spans) = self.c.stop();
        self.checker.finish(&replicas, spec.quorum());
        (self.checker, spans)
    }
}

/// The open loop: one rung on the real clock, and the 99th percentile of
/// how late the generator submitted, in milliseconds.
fn offered<N: Host>(w: &mut Warm<N>, spec: &Spec, seed: u64, arrivals: usize) -> (Rung, f64) {
    let rate = spec.rates[0];
    let ops = w.gen.arrivals(arrivals, rate);
    let (b, lateness, _) =
        w.c.run_batch(spec, seed, &ops, true, usize::MAX, &mut w.checker);
    let lateness_p99 = stats::percentile(&stats::sorted(&lateness), 0.99);
    (phases::rung(rate, &ops, &b), lateness_p99)
}

/// The stop rule of the closed loop under `budget`, with `fixed` samples
/// when the run is sized by count.
fn enough(budget: Budget, fixed: usize) -> impl Fn(usize, Duration) -> bool {
    move |samples, spent| {
        budget.spent(
            samples,
            spent.as_secs_f64(),
            fixed,
            spec::MIN_BATCHES / 2,
            SATURATE_SHARE,
        )
    }
}

pub fn untraced(spec: &Spec, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..opts.setups.max(1) {
        // Tear the previous cluster down outside the timed set-up.
        drop(last.take());
        let t0 = Instant::now();
        let warm = warm_up(spec, opts.seed, |n| n);
        setups.push(t0.elapsed().as_secs_f64());
        last = Some(warm);
    }
    let mut w = last.expect("at least one set-up");
    out.set("setup_s", stats::median(&setups));

    let (sat, _) = w.saturate(spec, opts.seed, enough(opts.budget, spec.sat_batches));
    run::saturate_metrics(&mut out, &sat);
    // The real clock is the transport's clock here: throughput is the
    // inverse of the median wall time per op.
    out.set("tput_ops_per_s", 1e6 / out.metrics["wall_us_per_op"]);

    let arrivals = opts.budget.arrivals(spec.arrivals);
    let (o, lateness_p99) = offered(&mut w, spec, opts.seed, arrivals);
    out.set("lat_p50_ms", o.p50_ms);
    out.notes.push(format!(
        "offered: {} ops/s on the real clock, {} arrivals, {} committed; p90 {:.3} ms, p99 {:.3} ms with {} samples beyond it; generator lateness p99 {lateness_p99:.3} ms",
        o.rate, o.arrivals, o.ok, o.p90_ms, o.p99_ms, o.ok / 100
    ));
    out.notes.push(format!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    let (checker, _) = w.finish(spec);
    out.close(&[&checker]);
    out
}

fn median_wall(sat: &Saturate) -> f64 {
    stats::median(
        &sat.samples
            .iter()
            .map(Sample::wall_us_per_op)
            .collect::<Vec<_>>(),
    )
}

pub fn traced(spec: &Spec, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    run::zero_layers(&mut out);
    let fixed = enough(Budget::Batches, spec.traced_batches);

    // The reference loop runs between the phases, when the node threads
    // are idle.
    let mut reference = Reference::new();
    let mut slowdowns = vec![reference.slowdown()];

    // Untraced first: the baseline of the overhead ratio, and the
    // real-time latency numbers.
    let mut u = warm_up(spec, opts.seed, |n| n);
    let (plain, _) = u.saturate(spec, opts.seed, &fixed);
    let (o, lateness_p99) = offered(&mut u, spec, opts.seed, spec.arrivals);
    out.set("offered.lat_p90_ms", o.p90_ms);
    out.set("offered.lat_p99_ms", o.p99_ms);
    out.set("gen.lateness_p99_ms", lateness_p99);
    let in_slo = o.in_slo(spec.slo_p99_ms);
    out.set("offered.max_rate_in_slo", if in_slo { o.rate } else { 0.0 });
    out.set("offered.fail_ratio", run::per(o.failed, o.arrivals as u64));
    let (u_checker, _) = u.finish(spec);
    slowdowns.push(reference.slowdown());

    let epoch = Instant::now();
    let mut t = warm_up(spec, opts.seed, |n| Timed::new(n, epoch));
    let (traced, windows) = t.saturate(spec, opts.seed, &fixed);
    let (t_checker, mut spans) = t.finish(spec);
    slowdowns.push(reference.slowdown());

    // A handler span belongs to the sampled batch it began in.
    spans.sort_by_key(|s| s.start_ns);
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut log = SpanLog::new(epoch);
    for w in &windows {
        let from = spans.partition_point(|s| s.start_ns < ns(w.from));
        let to = spans.partition_point(|s| s.start_ns < ns(w.to));
        log.batch(w.from, (w.from, w.to), w.to, spans[from..to].to_vec());
    }

    let ok = traced.ok;
    let (client_ns, server_ns) = run::handler_metrics(&mut out, log.handler_spans(), ok);
    out.set(
        "net.thread_net.self_cpu_us_per_op",
        traced
            .samples
            .iter()
            .map(|s| s.cpu_ns)
            .sum::<u64>()
            .saturating_sub(client_ns + server_ns) as f64
            / 1e3
            / ok.max(1) as f64,
    );
    out.set(
        "bench.trace_overhead_ratio",
        median_wall(&traced) / median_wall(&plain),
    );
    run::counter_metrics(&mut out, &plain);
    out.notes.push(format!(
        "thread_net: {:.2} messages sent per op, {:.3} attempts per op (they vary from run to run)",
        run::per(plain.counters.sent, plain.counted_ok),
        run::per(plain.attempts, plain.counted_ok)
    ));
    for (name, v) in kernels::run(spec, 0, opts.div) {
        out.set(name, v);
    }
    slowdowns.push(reference.slowdown());
    run::normalise_layer_times(&mut out, &slowdowns);
    match log.write(&opts.out_dir, spec.name) {
        Ok(path) => out
            .notes
            .push(format!("{} spans written to {}", log.len(), path.display())),
        Err(e) => out.violations.push(format!("cannot write spans: {e}")),
    }
    out.close(&[&u_checker, &t_checker]);
    out
}
