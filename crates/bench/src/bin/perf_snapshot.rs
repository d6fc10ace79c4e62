//! Machine-readable performance snapshot.
//!
//! Times a fixed workload — raw simulator event throughput, protocol
//! trials/sec through the parallel runner (sequential vs all-cores), and
//! client operations/sec with the quorum-plan cache — and writes
//! `BENCH_core.json` to the working directory (run it from the repo root).
//! Later PRs regenerate the file on the same machine to track the perf
//! trajectory; the absolute numbers are machine-dependent, the ratios are
//! not. The two headline wall-clock rates (`sim_events_per_sec`, client
//! `ops_per_sec`) are each the **median of 5** runs, so a single noisy
//! run on a shared machine cannot skew the committed baseline.
//!
//! The trial throughput is measured twice over the *same* seeds, pinned to
//! one worker and then to the machine's available parallelism, and the two
//! result vectors are asserted identical — every snapshot doubles as a
//! determinism check. On a single-core runner the two rates coincide; the
//! ≥2× parallel speedup shows up on multi-core hardware.
//!
//! `perf_snapshot --check` is the CI regression guard: it re-measures the
//! two headline medians plus the deterministic cache-tier and multi-suite
//! throughputs and compares them against the committed `BENCH_core.json`,
//! failing only on a >5× drop — coarse enough to ride out runner noise,
//! tight enough to catch an accidental O(n²) or a debug build sneaking
//! into the pipeline. The `retained` section (log sizes the client
//! workload leaves behind) is an exact function of the seed, so there the
//! check is equality: a log that starts growing with the ops served
//! fails it at once.

use std::time::Instant;

use wv_bench::{runner, topo};
use wv_core::client::{ClientOptions, ClientStats};
use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_net::NetConfig;
use wv_sim::{LatencyModel, MetricsRegistry, Scheduler, Sim, SimDuration};

/// A fresh measurement may be this many times slower than the committed
/// baseline before `--check` fails the build.
const MAX_REGRESSION: f64 = 5.0;
/// Runs per headline wall-clock rate; the median is reported.
const MEDIAN_RUNS: usize = 5;
/// Rounds of the fixed client workload the snapshot reports on.
const ROUNDS: usize = 1_000;

/// Per-client op budget for the E15 multi-suite cells the snapshot
/// replays (virtual-time, deterministic). The full E15 budget: at this
/// load the 8-way split's scaling sits well clear of the 4× floor.
const MULTI_SUITE_OPS: usize = 64;

/// Sharding the keyspace into 8 suites must multiply balanced-skew
/// aggregate throughput by at least this factor over one suite. E15
/// measures ≈6× on the same cells; the floor leaves slack so workload
/// retuning doesn't flap the snapshot, while still catching a suite
/// map that quietly stopped sharding the lock tables.
const MIN_SUITE_SCALING: f64 = 4.0;

/// Tracing must not cost more than this factor in client throughput; the
/// real overhead is a few percent (span pushes on an in-memory Vec), the
/// bound is generous because wall-clock rates on shared runners are noisy.
const MAX_TRACE_OVERHEAD: f64 = 3.0;

/// Auditing + telemetry must not cost more than this factor over the
/// traced arm: decisions append to an in-memory Vec and telemetry
/// increments window counters, both strictly cheaper than span
/// recording, so 1.5× already contains plenty of runner noise.
const MAX_AUDIT_OVERHEAD: f64 = 1.5;

/// Chained-event simulator throughput: `CHAINS` self-rescheduling events
/// keep a realistically sized heap busy for `EVENTS` pops.
fn sim_events_per_sec() -> f64 {
    const EVENTS: u64 = 2_000_000;
    const CHAINS: usize = 64;
    fn chain(world: &mut u64, sched: &mut Scheduler<u64>) {
        *world += 1;
        sched.after(SimDuration::from_micros(10), chain);
    }
    let mut sim = Sim::new(0u64);
    for _ in 0..CHAINS {
        sim.scheduler().immediately(chain);
    }
    let t = Instant::now();
    let executed = sim.run_capped(EVENTS);
    executed as f64 / t.elapsed().as_secs_f64()
}

/// One protocol trial: build the paper's Example 1 cluster and drive 25
/// write+read rounds — coarse enough (hundreds of microseconds) that the
/// fan-out's per-thread overhead is noise. Returns data that depends on the
/// whole exchange so the compiler cannot elide any of it.
fn trial(seed: u64) -> (u64, u64) {
    let mut h = topo::example_1(seed);
    let suite = h.suite_id();
    let mut micros = 0u64;
    let mut version = 0u64;
    for i in 0..25 {
        let w = h
            .write(suite, format!("snapshot-{i}").into_bytes())
            .expect("write succeeds");
        h.advance(SimDuration::from_secs(2));
        let r = h.read(suite).expect("read succeeds");
        h.advance(SimDuration::from_secs(2));
        micros += (w.latency + r.latency).as_micros();
        version = r.version.0;
    }
    (version, micros)
}

/// Trials/sec with the runner pinned to `workers` threads.
fn trial_throughput(workers: usize, trials: usize) -> (f64, Vec<(u64, u64)>) {
    std::env::set_var("WV_TRIAL_THREADS", workers.to_string());
    let t = Instant::now();
    let out = runner::run_trials(0xBE7C, trials, trial);
    let rate = trials as f64 / t.elapsed().as_secs_f64();
    std::env::remove_var("WV_TRIAL_THREADS");
    (rate, out)
}

/// One run of the E1 measurement workload.
struct ClientRun {
    ops_per_sec: f64,
    /// Virtual-time latency histograms per op shape.
    latencies: MetricsRegistry,
    /// The cluster as the workload left it: client counters, the trace,
    /// and what every log retained are read off it.
    harness: Harness,
}

/// Client operations/sec and the virtual-time latency histograms over the
/// E1 measurement workload (write / miss-read / hit-read rounds on one
/// live cluster). With `traced` the same workload runs with span
/// recording on. With `audited` the quorum-decision audit log and
/// windowed telemetry ride along too — the fully instrumented arm.
fn client_ops(rounds: usize, traced: bool, audited: bool) -> ClientRun {
    let mut h = topo::example_1(7);
    if traced {
        h.enable_tracing();
    }
    if audited {
        h.enable_audit();
        h.enable_telemetry(wv_sim::TelemetryOptions::default());
    }
    let suite = h.suite_id();
    let mut reg = MetricsRegistry::new();
    let t = Instant::now();
    let mut ops = 0u64;
    for i in 0..rounds {
        let w = h
            .write(suite, format!("round-{i}").into_bytes())
            .expect("write succeeds");
        reg.observe_ms("write_ms", w.latency.as_micros() as f64 / 1000.0);
        h.advance(SimDuration::from_secs(2));
        // First read after a write misses the weak representative; the
        // second hits it.
        let miss = h.read(suite).expect("read succeeds");
        reg.observe_ms("read_miss_ms", miss.latency.as_micros() as f64 / 1000.0);
        h.advance(SimDuration::from_secs(2));
        let hit = h.read(suite).expect("read succeeds");
        reg.observe_ms("read_hit_ms", hit.latency.as_micros() as f64 / 1000.0);
        h.advance(SimDuration::from_secs(2));
        ops += 3;
    }
    ClientRun {
        ops_per_sec: ops as f64 / t.elapsed().as_secs_f64(),
        latencies: reg,
        harness: h,
    }
}

/// What the logs hold once the client workload is over, as `(key, count)`
/// rows of the snapshot's `retained` section: WAL image bytes summed over
/// the voting representatives and over the weak ones, and the client's
/// decision log in records and in objects. Counts, not timings — exact
/// functions of the seed and the round count.
fn retained(h: &Harness) -> [(&'static str, usize); 4] {
    let suite = h.suite_id();
    let (mut strong, mut weak) = (0, 0);
    for (i, node) in h.cluster().nodes.iter().enumerate() {
        let Some(server) = node.as_server() else {
            continue;
        };
        let site = wv_net::SiteId::from(i);
        let is_weak = server
            .config(suite)
            .is_some_and(|cfg| cfg.assignment.is_weak(site));
        let bytes = server.container().wal().image_bytes();
        if is_weak {
            weak += bytes;
        } else {
            strong += bytes;
        }
    }
    let decisions = h.cluster().nodes[h.default_client().index()]
        .as_client()
        .expect("default client exists")
        .decision_log();
    [
        ("server_wal_image_bytes", strong),
        ("weak_rep_wal_image_bytes", weak),
        ("decision_log_records", decisions.wal().len()),
        ("decision_log_objects", decisions.len()),
    ]
}

/// Critical-path extraction throughput over a real trace: spans consumed
/// per wall-clock second by `wv_analysis::critpath::extract`.
fn critpath_spans_per_sec(trace: &[wv_sim::SpanRecord]) -> f64 {
    const ITERS: usize = 20;
    assert!(!trace.is_empty(), "need a trace to profile");
    let t = Instant::now();
    let mut ops = 0usize;
    for _ in 0..ITERS {
        ops += std::hint::black_box(wv_analysis::critpath::extract(trace))
            .ops
            .len();
    }
    let secs = t.elapsed().as_secs_f64();
    assert!(ops > 0, "extraction found no ops");
    (trace.len() * ITERS) as f64 / secs
}

/// One histogram's fixed percentiles as a JSON object (`null` when the
/// series is too small to have a distribution).
fn pct_json(reg: &MetricsRegistry, name: &str) -> String {
    match reg.percentiles(name) {
        Some(p) => format!(
            "{{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3}}}",
            p.p50, p.p90, p.p99, p.p999
        ),
        None => "null".to_string(),
    }
}

/// Retry-path counters under sustained link loss: the same write/read
/// round shape, but every phase can time out, so the snapshot records how
/// often the give-up machinery ran — the counters the chaos campaign
/// aggregates fleet-wide (`timeouts`, `retries`, `attempts_exhausted`).
fn faulted_client(rounds: usize) -> (u64, ClientStats) {
    use wv_core::client::ClientOptions;
    let mut net = NetConfig::uniform(4, LatencyModel::constant_millis(50));
    net.set_drop_all(0.25);
    let mut b = HarnessBuilder::new()
        .seed(0xFA17)
        .quorum(QuorumSpec::majority(3))
        .client_options(ClientOptions {
            phase_timeout: SimDuration::from_millis(800),
            max_attempts: 4,
            ..ClientOptions::default()
        })
        .net(net);
    for _ in 0..3 {
        b = b.site(SiteSpec::server(1));
    }
    let mut h = b.client().build().expect("legal cluster");
    let suite = h.suite_id();
    let mut ok = 0u64;
    for i in 0..rounds {
        if h.write(suite, format!("f{i}").into_bytes()).is_ok() {
            ok += 1;
        }
        h.advance(SimDuration::from_secs(2));
        if h.read(suite).is_ok() {
            ok += 1;
        }
        h.advance(SimDuration::from_secs(2));
    }
    let stats = h
        .client_stats(h.default_client())
        .expect("default client exists");
    (ok, stats)
}

/// Median of [`MEDIAN_RUNS`] samples of a wall-clock rate.
fn median_of_runs(mut sample: impl FnMut() -> f64) -> f64 {
    let mut rates: Vec<f64> = (0..MEDIAN_RUNS).map(|_| sample()).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[rates.len() / 2]
}

/// Closed-loop client throughput in *virtual* time: one example-1 client
/// enqueues `ops` reads at once at window `depth`; returns committed
/// operations per virtual second. Deterministic (no wall clock), so the
/// pipelining speedup it reports is machine-independent.
fn pipelined_ops_per_vsec(depth: usize, ops: usize) -> f64 {
    let mut h = topo::example_1_with_options(
        11,
        ClientOptions {
            pipeline_depth: Some(depth),
            ..ClientOptions::default()
        },
    );
    let suite = h.suite_id();
    h.write(suite, b"throughput-seed".to_vec())
        .expect("seeding write");
    let client = h.default_client();
    let start = h.now();
    for _ in 0..ops {
        h.enqueue_read(client, suite, start);
    }
    h.run_until_quiet(50_000_000);
    let mut ok = 0u64;
    let mut last = start;
    for op in h.drain_completed(client) {
        if op.outcome.is_ok() {
            ok += 1;
            last = last.max(op.finished);
        }
    }
    assert_eq!(ok as usize, ops, "closed-loop reads must all commit");
    ok as f64 / (last.since(start).as_millis_f64() / 1000.0)
}

/// Recovery-scan throughput: commits `RECOVERY_TXS` one-put transactions
/// into a container (three WAL records each), crashes it, and times the
/// checksummed rescan + replay. Wall-clock records/sec; the scan CRCs
/// every frame, so this is the faulty-disk model's hot path — a recovering
/// replica cannot serve (or vote) until it finishes.
fn recovery_scan_records_per_sec() -> f64 {
    use wv_storage::{Container, ObjectId, Version};
    const RECOVERY_TXS: usize = 20_000;
    let mut c = Container::new();
    for i in 0..RECOVERY_TXS {
        let tx = c.begin().expect("healthy disk");
        c.stage_put(
            tx,
            ObjectId(1 + (i as u64 % 16)),
            Version(1 + i as u64),
            format!("recovery-{i}").into_bytes(),
        )
        .expect("healthy disk");
        c.commit(tx).expect("healthy disk");
    }
    c.crash();
    let t = Instant::now();
    let outcome = c.recover();
    let secs = t.elapsed().as_secs_f64();
    assert!(
        !outcome.torn_tail && !outcome.corrupt_interior,
        "an honest crash must rescan clean"
    );
    outcome.replayed_records as f64 / secs
}

/// Pulls `"key": <number>` out of a flat JSON document (first match).
/// Good enough for the snapshot's own output; avoids a JSON dependency.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `--check`: re-measure the two headline medians and fail on a >5× drop
/// against the committed `BENCH_core.json`.
fn check_against_baseline() -> ! {
    let doc = std::fs::read_to_string("BENCH_core.json")
        .expect("--check needs BENCH_core.json in the working directory");
    let mut failed = false;
    let fresh = [
        ("sim_events_per_sec", median_of_runs(sim_events_per_sec)),
        (
            "ops_per_sec",
            median_of_runs(|| client_ops(200, false, false).ops_per_sec),
        ),
        ("critpath_spans_per_sec", {
            let trace = client_ops(200, true, false).harness.take_trace();
            median_of_runs(|| critpath_spans_per_sec(&trace))
        }),
        // Virtual-time, so this one is deterministic: a drop past the
        // floor is a real regression in the cache tier, never noise.
        (
            "cache_lease_ops_per_vsec",
            wv_bench::e13::throughput_summary(64).2,
        ),
        // Also virtual-time: the 8-suite aggregate rate only drops if
        // sharding itself regressed.
        (
            "eight_suite_ops_per_vsec",
            wv_bench::e15::scaling_summary(MULTI_SUITE_OPS).1,
        ),
        (
            "recovery_scan_records_per_sec",
            median_of_runs(recovery_scan_records_per_sec),
        ),
    ];
    for (key, now) in fresh {
        let committed = json_number(&doc, key)
            .unwrap_or_else(|| panic!("BENCH_core.json has no numeric \"{key}\""));
        let floor = committed / MAX_REGRESSION;
        let verdict = if now < floor { "FAIL" } else { "ok" };
        println!(
            "perf-check {key}: committed {committed:.0}, fresh {now:.0}, floor {floor:.0} — {verdict}"
        );
        failed |= now < floor;
    }
    for (key, now) in retained(&client_ops(ROUNDS, false, false).harness) {
        let committed = json_number(&doc, key)
            .unwrap_or_else(|| panic!("BENCH_core.json has no numeric \"{key}\""));
        let same = now as f64 == committed;
        let verdict = if same { "ok" } else { "FAIL" };
        println!("perf-check {key}: committed {committed:.0}, fresh {now}, exact — {verdict}");
        failed |= !same;
    }
    std::process::exit(i32::from(failed));
}

fn main() {
    const TRIALS: usize = 192;
    const FAULT_ROUNDS: usize = 250;
    const HEALING_TRIALS: usize = 4;
    const PIPE_OPS: usize = 64;
    const CACHE_OPS: usize = 64;

    if std::env::args().any(|a| a == "--check") {
        check_against_baseline();
    }

    let events_per_sec = median_of_runs(sim_events_per_sec);
    let (seq_rate, seq_out) = trial_throughput(1, TRIALS);
    let parallel_workers = std::thread::available_parallelism().map_or(1, usize::from);
    let (par_rate, par_out) = trial_throughput(parallel_workers, TRIALS);
    assert_eq!(
        seq_out, par_out,
        "parallel trial results must be bit-identical to sequential"
    );
    let ops_per_sec = median_of_runs(|| client_ops(ROUNDS, false, false).ops_per_sec);
    let ClientRun {
        latencies: reg,
        harness,
        ..
    } = client_ops(ROUNDS, false, false);
    let stats = harness
        .client_stats(harness.default_client())
        .expect("default client exists");
    let (hits, misses) = (stats.plan_cache_hits, stats.plan_cache_misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let retained_json = retained(&harness)
        .map(|(key, count)| format!("    \"{key}\": {count}"))
        .join(",\n");
    // Virtual-time pipelining curve: deterministic, so the ≥2× window
    // speedup is a hard promise, not a flaky wall-clock observation.
    let depth1_vsec = pipelined_ops_per_vsec(1, PIPE_OPS);
    let depth8_vsec = pipelined_ops_per_vsec(8, PIPE_OPS);
    let pipeline_speedup = depth8_vsec / depth1_vsec;
    assert!(
        pipeline_speedup >= 2.0,
        "depth-8 pipelining must at least double closed-loop throughput, got {pipeline_speedup:.2}x"
    );
    // Cache-tier throughput off the E13 depth-4 cells: virtual-time, so
    // the ≥5× quorum-free speedup is a hard promise of the lease mode.
    let (cache_uncached, cache_validated, cache_lease) =
        wv_bench::e13::throughput_summary(CACHE_OPS);
    let cache_speedup = cache_lease / cache_uncached;
    assert!(
        cache_speedup >= 5.0,
        "lease-mode cache tier must beat the uncached arm 5x, got {cache_speedup:.2}x"
    );
    // Multi-suite sharding off the E15 balanced cells: virtual-time, so
    // the ≥4× aggregate-scaling floor is a hard promise of the sharded
    // lock tables, and the group-commit probe reports how many records
    // (and distinct suites) one durable flush absorbs.
    let (suite1_vsec, suite8_vsec) = wv_bench::e15::scaling_summary(MULTI_SUITE_OPS);
    let suite_scaling = suite8_vsec / suite1_vsec;
    assert!(
        suite_scaling >= MIN_SUITE_SCALING,
        "8-suite sharding must scale aggregate throughput {MIN_SUITE_SCALING}x, got {suite_scaling:.2}x"
    );
    let (wal_records_per_batch, wal_suites_per_batch) =
        wv_bench::e15::wal_batch_summary(MULTI_SUITE_OPS);
    let ops_per_sec_traced = median_of_runs(|| client_ops(ROUNDS, true, false).ops_per_sec);
    let trace = client_ops(ROUNDS, true, false).harness.take_trace();
    let spans_recorded = trace.len();
    let trace_overhead = ops_per_sec / ops_per_sec_traced;
    assert!(
        trace_overhead <= MAX_TRACE_OVERHEAD,
        "tracing overhead ratio {trace_overhead:.2} exceeds the {MAX_TRACE_OVERHEAD}x bound"
    );
    // Analytics layer: full instrumentation (trace + audit + telemetry)
    // vs tracing alone, and critical-path extraction throughput over the
    // trace the workload just produced.
    let ops_per_sec_instrumented = median_of_runs(|| client_ops(ROUNDS, true, true).ops_per_sec);
    let audit_overhead = ops_per_sec_traced / ops_per_sec_instrumented;
    assert!(
        audit_overhead <= MAX_AUDIT_OVERHEAD,
        "audit overhead ratio {audit_overhead:.2} exceeds the {MAX_AUDIT_OVERHEAD}x bound"
    );
    let critpath_rate = median_of_runs(|| critpath_spans_per_sec(&trace));
    let critpath_ops = wv_analysis::critpath::extract(&trace).ops.len();
    let (fault_ok, fault_stats) = faulted_client(FAULT_ROUNDS);
    let recovery_scan = median_of_runs(recovery_scan_records_per_sec);
    // Self-healing layer counters over a slice of the E10 churn workload
    // (healing-on arm): proves the tracker, the reroutes, the hedges and
    // the repair daemon all fire outside the test suite too.
    let (_, healing) = wv_bench::e10::measure(0xE10, HEALING_TRIALS);

    let json = format!(
        "{{\n  \
         \"schema\": \"wv-perf-snapshot/8\",\n  \
         \"median_runs\": {MEDIAN_RUNS},\n  \
         \"sim_events_per_sec\": {events_per_sec:.0},\n  \
         \"trials\": {{\n    \
         \"workload\": \"example-1 cluster, 25 write+read rounds per trial\",\n    \
         \"count\": {TRIALS},\n    \
         \"sequential_per_sec\": {seq_rate:.2},\n    \
         \"parallel_per_sec\": {par_rate:.2},\n    \
         \"parallel_workers\": {parallel_workers},\n    \
         \"speedup\": {speedup:.2},\n    \
         \"bit_identical\": true\n  \
         }},\n  \
         \"client\": {{\n    \
         \"workload\": \"example-1 write/read rounds x{ROUNDS}\",\n    \
         \"ops_per_sec\": {ops_per_sec:.2},\n    \
         \"plan_cache_hits\": {hits},\n    \
         \"plan_cache_misses\": {misses},\n    \
         \"plan_cache_hit_rate\": {hit_rate:.4}\n  \
         }},\n  \
         \"retained\": {{\n    \
         \"workload\": \"what the logs hold after the client workload: WAL image bytes of the voting and the weak representatives, the client's decision log\",\n\
         {retained_json}\n  \
         }},\n  \
         \"throughput\": {{\n    \
         \"workload\": \"example-1 closed loop, {PIPE_OPS} reads enqueued at once, virtual-time rate\",\n    \
         \"depth1_ops_per_vsec\": {depth1_vsec:.2},\n    \
         \"depth8_ops_per_vsec\": {depth8_vsec:.2},\n    \
         \"pipeline_speedup\": {pipeline_speedup:.2}\n  \
         }},\n  \
         \"cache_tier\": {{\n    \
         \"workload\": \"E13 read-dominant zipfian sweep, depth-4 cells, {CACHE_OPS} ops per client, virtual-time rate\",\n    \
         \"cache_uncached_ops_per_vsec\": {cache_uncached:.2},\n    \
         \"cache_validated_ops_per_vsec\": {cache_validated:.2},\n    \
         \"cache_lease_ops_per_vsec\": {cache_lease:.2},\n    \
         \"cache_speedup\": {cache_speedup:.2}\n  \
         }},\n  \
         \"multi_suite\": {{\n    \
         \"workload\": \"E15 balanced-skew cells, 3 servers, 16 clients, {MULTI_SUITE_OPS} ops per client, virtual-time rate\",\n    \
         \"single_suite_ops_per_vsec\": {suite1_vsec:.2},\n    \
         \"eight_suite_ops_per_vsec\": {suite8_vsec:.2},\n    \
         \"suite_scaling\": {suite_scaling:.2},\n    \
         \"min_suite_scaling\": {MIN_SUITE_SCALING},\n    \
         \"wal_records_per_batch\": {wal_records_per_batch:.2},\n    \
         \"wal_suites_per_batch\": {wal_suites_per_batch:.2}\n  \
         }},\n  \
         \"latency_histograms\": {{\n    \
         \"source\": \"virtual-time op latencies, log-bucketed (MetricsRegistry)\",\n    \
         \"write_ms\": {write_pct},\n    \
         \"read_miss_ms\": {miss_pct},\n    \
         \"read_hit_ms\": {hit_pct}\n  \
         }},\n  \
         \"tracing\": {{\n    \
         \"workload\": \"same client workload with span recording enabled\",\n    \
         \"ops_per_sec\": {ops_per_sec_traced:.2},\n    \
         \"overhead_ratio\": {trace_overhead:.3},\n    \
         \"max_overhead_ratio\": {MAX_TRACE_OVERHEAD},\n    \
         \"spans_recorded\": {spans_recorded}\n  \
         }},\n  \
         \"analytics\": {{\n    \
         \"workload\": \"critical-path extraction + audit/telemetry over the traced client workload\",\n    \
         \"critpath_spans_per_sec\": {critpath_rate:.0},\n    \
         \"critpath_ops_profiled\": {critpath_ops},\n    \
         \"ops_per_sec_instrumented\": {ops_per_sec_instrumented:.2},\n    \
         \"audit_overhead_ratio\": {audit_overhead:.3},\n    \
         \"max_audit_overhead_ratio\": {MAX_AUDIT_OVERHEAD}\n  \
         }},\n  \
         \"disk_faults\": {{\n    \
         \"workload\": \"crash + checksummed rescan of a 20000-transaction WAL (3 records/tx)\",\n    \
         \"recovery_scan_records_per_sec\": {recovery_scan:.0}\n  \
         }},\n  \
         \"faulted_client\": {{\n    \
         \"workload\": \"3-server majority cluster, 25% link loss, write/read rounds x{FAULT_ROUNDS}\",\n    \
         \"ops_ok\": {fault_ok},\n    \
         \"retries\": {retries},\n    \
         \"timeouts\": {timeouts},\n    \
         \"attempts_exhausted\": {attempts_exhausted}\n  \
         }},\n  \
         \"self_healing\": {{\n    \
         \"workload\": \"E10 crash/recovery churn, healing-on arm x{HEALING_TRIALS} trials\",\n    \
         \"suspicions_raised\": {suspicions},\n    \
         \"plans_rerouted\": {reroutes},\n    \
         \"hedges_fired\": {hedges_fired},\n    \
         \"hedge_wins\": {hedge_wins},\n    \
         \"repairs_completed\": {repairs}\n  \
         }}\n}}\n",
        speedup = par_rate / seq_rate,
        write_pct = pct_json(&reg, "write_ms"),
        miss_pct = pct_json(&reg, "read_miss_ms"),
        hit_pct = pct_json(&reg, "read_hit_ms"),
        retries = fault_stats.retries,
        timeouts = fault_stats.timeouts,
        attempts_exhausted = fault_stats.attempts_exhausted,
        suspicions = healing.suspicions,
        reroutes = healing.reroutes,
        hedges_fired = healing.hedges_fired,
        hedge_wins = healing.hedge_wins,
        repairs = healing.repairs,
    );
    print!("{json}");
    std::fs::write("BENCH_core.json", &json).expect("write BENCH_core.json");
    wv_sim::vlog::info("perf_snapshot", "wrote BENCH_core.json");
}
