//! The benchmark's fixed definitions: the five workloads and every metric
//! name, unit, direction and regression bound.
//!
//! `BENCHMARK.json` at the repository root repeats the workload names and
//! the metric tables; `tests/schema.rs` fails when the two drift apart.
//! Everything a workload does is a function of its [`Spec`] and the run's
//! `--seed`: nothing here is tuned at run time.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the baseline median; `None` for
    /// per-layer metrics, which explain and are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these from its untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_us_per_op", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("tput_ops_per_s", "ops/s", Higher, 0.08),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// What single layers do. Reported by the traced run; a layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Offered-load ladder (the open-loop generator's view of the whole
    // system; virtual time, so exact per seed).
    layer("offered.lat_p90_ms", "ms", Lower),
    layer("offered.lat_p99_ms", "ms", Lower),
    layer("offered.max_rate_in_slo", "ops/s", Higher),
    layer("offered.overload_goodput_ratio", "ratio", Higher),
    layer("offered.fail_ratio", "ratio", Lower),
    // Timed handler calls (traced pass).
    layer("core.client.busy_us_per_op", "us", Lower),
    layer("core.client.calls_per_op", "count", Lower),
    layer("core.server.busy_us_per_op", "us", Lower),
    layer("core.server.calls_per_op", "count", Lower),
    layer("net.sim_net.self_us_per_op", "us", Lower),
    layer("net.sim_net.self_vs_kernels_ratio", "ratio", Lower),
    layer("net.thread_net.self_cpu_us_per_op", "us", Lower),
    layer("gen.lateness_p99_ms", "ms", Lower),
    // Exact work counters per committed op.
    layer("sim.sched.events_per_op", "count", Lower),
    layer("net.sim_net.msgs_per_op", "count", Lower),
    layer("net.sim_net.timers_per_op", "count", Lower),
    layer("net.sim_net.dropped_per_op", "count", Lower),
    layer("core.client.attempts_per_op", "count", Lower),
    layer("core.client.timeouts_per_op", "count", Lower),
    layer("core.client.refused_busy_per_op", "count", Lower),
    layer("core.server.votes_no_ratio", "ratio", Lower),
    layer("core.server.aborts_per_op", "count", Lower),
    layer("core.server.prepares_per_op", "count", Lower),
    layer("core.server.busy_per_read", "count", Lower),
    layer("core.client.plan_cache_hit_ratio", "ratio", Higher),
    layer("core.client.weak_hit_ratio", "ratio", Higher),
    layer("core.client.reroutes_per_op", "count", Lower),
    layer("core.server.recoveries", "count", Lower),
    layer("core.server.repairs_completed", "count", Lower),
    layer("storage.wal.flushes_per_op", "count", Lower),
    layer("storage.wal.records_per_flush", "count", Higher),
    layer("storage.container.checkpoints_per_kop", "count", Lower),
    // Isolated kernels at the workload's shapes.
    layer("storage.frame.encode_crc_ns", "ns", Lower),
    layer("storage.container.commit_cycle_ns", "ns", Lower),
    layer("storage.container.checkpoint_us", "us", Lower),
    layer("storage.container.recover_ns_per_record", "ns", Lower),
    layer("txn.shard.lock_release_ns", "ns", Lower),
    layer("txn.shard.contended_lock_ns", "ns", Lower),
    layer("core.quorum.plan_ns", "ns", Lower),
    layer("sim.sched.event_ns", "ns", Lower),
    layer("net.sim_net.deliver_ns", "ns", Lower),
    layer("net.thread_net.hop_us", "us", Lower),
    // How far the other numbers can be trusted.
    layer("bench.box_slowdown", "ratio", Lower),
    layer("bench.self_us_per_op", "us", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
];

/// Looks a metric up by name in both tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Which transport a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `Harness` / `Cluster::sim`: one seeded scheduler, virtual time.
    Sim,
    /// `NodeRunner`s on `ThreadNet`: OS threads, real time.
    Thread,
}

/// How an op picks its suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Skew {
    /// Popularity proportional to 1/(rank + 1).
    Zipf,
    /// Uniform over the suites.
    Balanced,
    /// Op `i` goes to suite `i mod n`.
    RoundRobin,
}

/// Crash/recovery churn on the servers (`sim-churn`).
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    pub mttf_ms: u64,
    pub mttr_ms: u64,
    pub anti_entropy_ms: u64,
}

/// One workload, completely.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and applies the
    /// bounds. The thread workload is not: its real-clock readings spread
    /// 20-30% between runs on a shared two-core box, more than any bound
    /// the contract allows. `all` still runs and prints it.
    pub gated: bool,
    pub transport: Transport,
    /// Single-vote servers; quorums are `r = w = servers / 2 + 1`.
    pub servers: usize,
    pub clients: usize,
    /// Each client site also hosts a weak representative and serves
    /// validated reads from it.
    pub weak_clients: bool,
    pub pipeline_depth: usize,
    pub suites: usize,
    pub skew: Skew,
    /// Percent of ops that read; the rest write.
    pub read_pct: u32,
    /// Percent of ops that are two-suite transactions (taken out of the
    /// write share; plain writes when there is one suite).
    pub txn_pct: u32,
    pub payload: usize,
    /// One-way link latency: `base + Exp(tail)` ms, zero for none.
    pub link_base_ms: u64,
    pub link_tail_ms: u64,
    pub group_commit_ms: Option<u64>,
    pub churn: Option<Churn>,
    pub phase_timeout_ms: u64,
    pub max_attempts: u32,
    pub backoff_ms: u64,
    pub backoff_cap_ms: u64,
    /// Ops run during set-up, after seeding and before any timing.
    pub warmup_ops: usize,
    /// Ops per closed-loop batch.
    pub batch_ops: usize,
    /// Batches of the saturate phase when the run is sized by count (no
    /// `--seconds`: `all` and the self-tests) instead of by time.
    pub sat_batches: usize,
    /// Offered-load ladder in ops per second of the transport's clock,
    /// at about 25/50/75/100/150% of the seed commit's knee. The thread
    /// workload offers one real-time rate.
    pub rates: &'static [f64],
    /// Arrivals per rung (the latency rung of an untraced run gets
    /// [`LATENCY_RUNG_SCALE`] times as many).
    pub arrivals: usize,
    pub slo_p99_ms: f64,
    /// Closed-loop batches repeated by the traced pass.
    pub traced_batches: usize,
}

/// The rung whose p50/p99 are the end-to-end latency metrics.
pub const LATENCY_RUNG: usize = 1;
/// How many times more arrivals the latency rung gets in an untraced run,
/// so its p99 has hundreds of samples beyond it.
pub const LATENCY_RUNG_SCALE: usize = 4;
/// Fewest closed-loop batches a timed saturate phase runs.
pub const MIN_BATCHES: usize = 40;
/// Share of `--seconds` the saturate phase may use.
pub const SATURATE_SHARE: f64 = 0.62;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

const JITTER_BASE_MS: u64 = 20;
const JITTER_TAIL_MS: u64 = 5;

/// The five workloads, in the order `all` runs them.
pub fn workloads() -> Vec<Spec> {
    let sim_write = Spec {
        name: "sim-write",
        why: "Write-heavy 1 KiB ops over 8 suites with group commit: core.server, txn shards + 2PC and storage frame/CRC/append/checkpoint do the work, core.client little.",
        gated: true,
        transport: Transport::Sim,
        servers: 3,
        clients: 8,
        weak_clients: false,
        pipeline_depth: 8,
        suites: 8,
        skew: Skew::Balanced,
        read_pct: 15,
        txn_pct: 5,
        payload: 1024,
        link_base_ms: JITTER_BASE_MS,
        link_tail_ms: JITTER_TAIL_MS,
        group_commit_ms: Some(5),
        churn: None,
        phase_timeout_ms: 300,
        max_attempts: 512,
        backoff_ms: 5,
        backoff_cap_ms: 80,
        warmup_ops: 8_000,
        batch_ops: 2_048,
        sat_batches: 60,
        rates: &[14.0, 28.0, 42.0, 56.0, 84.0],
        arrivals: 4_000,
        slo_p99_ms: 6_000.0,
        traced_batches: 8,
    };
    vec![
        Spec {
            name: "sim-read",
            why: "95% validated-cache reads, zipfian over 32 suites, workstation clients with weak representatives: core.client planning/fan-out and sim/net delivery do the work, txn and storage almost none.",
            gated: true,
            transport: Transport::Sim,
            servers: 3,
            clients: 4,
            weak_clients: true,
            pipeline_depth: 4,
            suites: 32,
            skew: Skew::Zipf,
            read_pct: 95,
            txn_pct: 0,
            payload: 128,
            link_base_ms: JITTER_BASE_MS,
            link_tail_ms: JITTER_TAIL_MS,
            group_commit_ms: None,
            churn: None,
            phase_timeout_ms: 300,
            max_attempts: 64,
            backoff_ms: 5,
            backoff_cap_ms: 80,
            warmup_ops: 40_000,
            batch_ops: 10_000,
            sat_batches: 60,
            rates: &[50.0, 100.0, 150.0, 200.0, 300.0],
            arrivals: 4_000,
            slo_p99_ms: 800.0,
            traced_batches: 4,
        },
        sim_write.clone(),
        Spec {
            name: "sim-hot",
            why: "sim-write exactly, but every op on one suite: the same txn/core.server code contended - wait-die aborts, No votes, retries and backoff instead of parallel shards.",
            suites: 1,
            warmup_ops: 3_000,
            batch_ops: 1_024,
            rates: &[2.0, 4.0, 6.0, 8.0, 12.0],
            slo_p99_ms: 5_000.0,
            traced_batches: 6,
            ..sim_write
        },
        Spec {
            name: "sim-churn",
            why: "E10's shape: 5 majority servers crashing and recovering (MTTF 8 s, MTTR 2 s), health tracking, hedging and anti-entropy on: faults injected, the latency tail is the user-visible cost of an outage.",
            gated: true,
            transport: Transport::Sim,
            servers: 5,
            clients: 4,
            weak_clients: false,
            pipeline_depth: 8,
            suites: 8,
            skew: Skew::Balanced,
            read_pct: 75,
            txn_pct: 0,
            payload: 256,
            link_base_ms: JITTER_BASE_MS,
            link_tail_ms: JITTER_TAIL_MS,
            group_commit_ms: None,
            churn: Some(Churn {
                mttf_ms: 8_000,
                mttr_ms: 2_000,
                anti_entropy_ms: 500,
            }),
            phase_timeout_ms: 800,
            max_attempts: 64,
            backoff_ms: 40,
            backoff_cap_ms: 500,
            warmup_ops: 8_000,
            batch_ops: 2_048,
            sat_batches: 60,
            rates: &[30.0, 60.0, 90.0, 120.0, 180.0],
            // Three times the others': which outages a rung meets is the
            // seed's choice, and more of them steady its percentiles.
            arrivals: 12_000,
            slo_p99_ms: 8_000.0,
            traced_batches: 8,
        },
        Spec {
            name: "thread-mixed",
            why: "The only real-clock, real-thread run: 3 servers + 1 client as NodeRunners on a zero-delay ThreadNet, 50/50 reads and writes; net.thread_net/net.runner dominate and the simulator does nothing.",
            gated: false,
            transport: Transport::Thread,
            servers: 3,
            clients: 1,
            weak_clients: false,
            pipeline_depth: 8,
            suites: 64,
            skew: Skew::RoundRobin,
            read_pct: 50,
            txn_pct: 0,
            payload: 256,
            link_base_ms: 0,
            link_tail_ms: 0,
            group_commit_ms: None,
            churn: None,
            phase_timeout_ms: 100,
            max_attempts: 64,
            backoff_ms: 1,
            backoff_cap_ms: 8,
            warmup_ops: 4_000,
            batch_ops: 512,
            sat_batches: 70,
            rates: &[3_000.0],
            arrivals: 15_000,
            slo_p99_ms: 25.0,
            traced_batches: 28,
        },
    ]
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Spec> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Spec {
    /// Read and write quorum size (majority of single votes).
    pub fn quorum(&self) -> u32 {
        (self.servers / 2 + 1) as u32
    }

    /// Scales every op count down by `div` (smoke runs and self-tests),
    /// keeping batches large enough to exercise every client.
    pub fn scaled_down(mut self, div: usize) -> Spec {
        let floor = self.clients * self.pipeline_depth * 2;
        let shrink = |n: usize| (n / div).max(floor);
        self.warmup_ops = shrink(self.warmup_ops);
        self.batch_ops = shrink(self.batch_ops);
        self.arrivals = shrink(self.arrivals);
        self.sat_batches = (self.sat_batches / 10).max(3);
        self.traced_batches = self.traced_batches.min(2);
        self
    }
}
