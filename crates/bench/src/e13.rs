//! E13 — the weak-representative cache tier under read-dominant load.
//!
//! Two closed-loop clients share a three-server majority cluster and
//! replay a read-heavy zipfian workload (suite popularity ∝ 1/rank,
//! one write per 64 operations) with an attached weak representative in
//! each of the cache tier's modes:
//!
//! - **uncached** — the classic client; every read runs a version
//!   inquiry, and the answer of the representative asked for the
//!   contents brings them.
//! - **validated** — every read runs its own version inquiry and serves
//!   from the local copy once the quorum confirms it current: zero data
//!   RPCs, exactly as fresh as a classic read. It saves the data move,
//!   not a round, so its throughput is the uncached arm's.
//! - **lease** — reads inside a live lease skip the network entirely,
//!   trading a bounded staleness window (the TTL) for quorum-free
//!   reads. The sweep carries a short and a long TTL to show the
//!   expiry/revalidation gradient.
//!
//! Throughput is committed operations per *virtual* second, so every
//! cell is a pure function of its seed and the report doubles as a
//! worker-count invariance fixture
//! (`crates/chaos/tests/determinism.rs`). After the measured
//! window, a warm-cache *probe* (pure reads) isolates the steady-state
//! cost of a read in each mode: network messages per read and reads
//! whose contents crossed the wire.

use wv_core::client::{ClientOptions, ClientStats, CompletedOp, WeakRepOptions};
use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_net::{NetConfig, SiteId};
use wv_sim::{DetRng, LatencyModel, SimDuration};
use wv_storage::ObjectId;

use crate::table::Table;
use crate::{runner, zipf_suite};

/// Voting representatives (one vote each, `r = w = 2` majority quorums).
const SERVERS: usize = 3;
/// Closed-loop clients sharing the cluster.
const CLIENTS: usize = 2;
/// Distinct file suites the zipfian workload draws from.
const SUITES: usize = 4;
/// One-way link latency everywhere.
const LINK: SimDuration = SimDuration::from_millis(25);
/// Pipeline depths (outstanding-op windows) per curve.
const DEPTHS: [usize; 2] = [1, 4];
/// Operations each client issues per trial in the full report.
pub const OPS_PER_CLIENT: usize = 128;
/// Every 64th operation is a write (the rest read): read-dominant.
const WRITE_EVERY: usize = 64;
/// Pure reads per client in the warm-cache probe phase.
const PROBE_READS: usize = 16;
/// Master seed for the sweep.
const MASTER_SEED: u64 = 0xE13;

/// The cache modes under comparison, with display names.
const MODES: [&str; 4] = ["uncached", "validated", "lease 100 ms", "lease 2 s"];
/// Index of the long-TTL lease mode (the quorum-free headline arm).
const LEASE_LONG: usize = 3;

/// The weak-representative options mode `m` attaches (None = classic).
fn mode_weak_rep(m: usize) -> Option<WeakRepOptions> {
    match m {
        0 => None,
        1 => Some(WeakRepOptions::validated()),
        2 => Some(WeakRepOptions::lease(SimDuration::from_millis(100))),
        3 => Some(WeakRepOptions::lease(SimDuration::from_millis(2000))),
        _ => unreachable!("mode index out of range"),
    }
}

/// Advances the simulation in short steps until `expected` operations
/// have completed, collecting them. (`run_until_quiet` would also run
/// every orphaned timer wake-up — the scheduler event a cancelled phase
/// timeout, seconds out, leaves behind — and fling the virtual clock far
/// past any live lease between phases.)
fn collect_ops(h: &mut Harness, clients: &[SiteId], expected: usize) -> Vec<CompletedOp> {
    let mut done = Vec::new();
    let mut guard = 0u32;
    while done.len() < expected && guard < 100_000 {
        h.advance(SimDuration::from_millis(50));
        for &c in clients {
            done.extend(h.drain_completed(c));
        }
        guard += 1;
    }
    done
}

/// One grid point of the sweep.
pub struct Cell {
    /// Cache mode index into `MODES`.
    pub mode: usize,
    /// Outstanding-op window per client.
    pub depth: usize,
    /// Operations that committed in the measured window.
    pub ops_ok: u64,
    /// Committed operations per *virtual* second, across all clients.
    pub ops_per_vsec: f64,
    /// Reads served from the weak representative in the measured window.
    pub cache_hits: u64,
    /// Cache-tier reads that fell through to a data fetch.
    pub cache_misses: u64,
    /// Lease serves refused because the TTL had lapsed.
    pub lease_expiries: u64,
    /// Reads completed in the warm-cache probe.
    pub probe_reads: u64,
    /// Network messages the probe put on the wire (both directions).
    pub probe_msgs: u64,
    /// Probe reads whose contents crossed the wire: with a version answer
    /// or in a fetch round.
    pub probe_fetches: u64,
}

impl Cell {
    /// Cache hit rate over the measured window (0 when uncached).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Network messages per probe read (steady-state read cost).
    pub fn probe_msgs_per_read(&self) -> f64 {
        if self.probe_reads == 0 {
            0.0
        } else {
            self.probe_msgs as f64 / self.probe_reads as f64
        }
    }
}

/// Runs one cell: the zipfian window, a cache warm-up, then the probe.
fn run_cell(seed: u64, mode: usize, depth: usize, ops: usize) -> Cell {
    // Draw the whole workload before the harness exists: suite choice is
    // a function of the seed alone, never of simulated timing.
    let mut plans: Vec<Vec<(bool, usize)>> = Vec::new();
    let mut probes: Vec<Vec<usize>> = Vec::new();
    let root = DetRng::new(seed).fork_named("e13-workload");
    for c in 0..CLIENTS {
        let mut r = root.fork(c as u64);
        plans.push(
            (0..ops)
                .map(|i| {
                    (
                        i % WRITE_EVERY == WRITE_EVERY / 2,
                        zipf_suite(&mut r, SUITES),
                    )
                })
                .collect(),
        );
        probes.push(
            (0..PROBE_READS)
                .map(|_| zipf_suite(&mut r, SUITES))
                .collect(),
        );
    }

    let suites: Vec<ObjectId> = (1..=SUITES as u64).map(ObjectId).collect();
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::new(2, 2))
        .suites(suites.clone())
        .net(NetConfig::uniform(
            SERVERS + CLIENTS,
            LatencyModel::Constant(LINK),
        ))
        .client_options(ClientOptions {
            pipeline_depth: Some(depth),
            weak_rep: mode_weak_rep(mode),
            ..ClientOptions::default()
        });
    for _ in 0..SERVERS {
        b = b.site(SiteSpec::server(1));
    }
    for _ in 0..CLIENTS {
        b = b.client();
    }
    let mut h = b.build().expect("majority quorums are legal");
    for &s in &suites {
        h.write(s, format!("e13-seed-{}", s.0).into_bytes())
            .expect("seeding write");
    }
    let client_sites: Vec<SiteId> = h.clients().to_vec();
    let clients = |h: &Harness| -> ClientStats {
        client_sites
            .iter()
            .filter_map(|&c| h.client_at(c).map(|c| c.stats))
            .sum()
    };
    let before = clients(&h);

    // Measured window: the read-heavy zipfian mix.
    let start = h.now();
    for (ci, &c) in client_sites.iter().enumerate() {
        for (i, &(is_write, s)) in plans[ci].iter().enumerate() {
            let suite = suites[s];
            if is_write {
                h.enqueue_write(c, suite, format!("e13-c{ci}-{i}").into_bytes(), start);
            } else {
                h.enqueue_read(c, suite, start);
            }
        }
    }
    let mut ops_ok = 0u64;
    let mut last_finish = start;
    for op in collect_ops(&mut h, &client_sites, CLIENTS * ops) {
        if op.outcome.is_ok() {
            ops_ok += 1;
            last_finish = last_finish.max(op.finished);
        }
    }
    let makespan_s = last_finish.since(start).as_millis_f64() / 1000.0;
    let after = clients(&h);
    let cache_hits = after.cache_hits - before.cache_hits;
    let cache_misses = after.cache_misses - before.cache_misses;
    let lease_expiries = after.lease_expiries - before.lease_expiries;

    // Warm-up: one read per suite per client, so every weak rep is
    // current (and every lease freshly granted) before the probe.
    let t = h.now();
    for &c in &client_sites {
        for &s in &suites {
            h.enqueue_read(c, s, t);
        }
    }
    collect_ops(&mut h, &client_sites, CLIENTS * SUITES);

    // Probe: pure zipfian reads against a warm cache — the steady-state
    // per-read cost of each mode.
    let sent_base = h.net_stats().sent;
    let moved = |s: ClientStats| s.reads_contents_with_inquiry + s.reads_fetched;
    let fetch_base = moved(clients(&h));
    let t = h.now();
    for (ci, &c) in client_sites.iter().enumerate() {
        for &s in &probes[ci] {
            h.enqueue_read(c, suites[s], t);
        }
    }
    let probe_reads = collect_ops(&mut h, &client_sites, CLIENTS * PROBE_READS)
        .iter()
        .filter(|op| op.outcome.is_ok())
        .count() as u64;
    let probe_msgs = h.net_stats().sent - sent_base;
    let probe_fetches = moved(clients(&h)) - fetch_base;

    Cell {
        mode,
        depth,
        ops_ok,
        ops_per_vsec: if makespan_s > 0.0 {
            ops_ok as f64 / makespan_s
        } else {
            0.0
        },
        cache_hits,
        cache_misses,
        lease_expiries,
        probe_reads,
        probe_msgs,
        probe_fetches,
    }
}

/// The full sweep: every `(mode, depth)` grid point, fanned out over the
/// deterministic trial pool in grid order.
pub fn measure(master_seed: u64, ops_per_client: usize) -> Vec<Cell> {
    let mut grid = Vec::new();
    for mode in 0..MODES.len() {
        for &depth in &DEPTHS {
            grid.push((mode, depth));
        }
    }
    runner::run_trials_indexed(master_seed, grid.len(), |i, seed| {
        let (mode, depth) = grid[i];
        run_cell(seed, mode, depth, ops_per_client)
    })
}

/// Finds the sweep cell for `(mode, depth)`.
fn cell(cells: &[Cell], mode: usize, depth: usize) -> &Cell {
    cells
        .iter()
        .find(|c| c.mode == mode && c.depth == depth)
        .expect("grid covers every combination")
}

/// Builds the E13 report with an explicit per-client op budget (the
/// smoke tests use a small one).
pub fn run(ops_per_client: usize) -> String {
    let cells = measure(MASTER_SEED, ops_per_client);
    let mut out = String::new();
    out.push_str("## E13 — Weak-representative cache tier under read-dominant load\n\n");
    out.push_str(&format!(
        "{SERVERS}-server majority cluster (one vote each, r = w = 2), \
         uniform {} ms links, {SUITES} suites, {CLIENTS} closed-loop \
         clients. Each client replays {ops_per_client} operations — \
         zipfian suite choice, one write per {WRITE_EVERY} ops — through \
         a pipelined window (depth k), with its weak representative in \
         each cache mode. Throughput is committed operations per \
         **virtual** second; after the window, a warm-cache probe of \
         {PROBE_READS} pure reads per client isolates the steady-state \
         cost of a read.\n\n",
        LINK.as_millis() * 2,
    ));

    let mut t = Table::new(
        "Throughput (ops per virtual second)",
        &["mode \\ depth", "1", "4"],
    );
    for (m, name) in MODES.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for &d in &DEPTHS {
            row.push(format!("{:.1}", cell(&cells, m, d).ops_per_vsec));
        }
        t.row(&row);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let mut t = Table::new(
        "Cache behaviour over the measured window (depth 4)",
        &["mode", "hits", "misses", "hit rate", "lease expiries"],
    );
    for (m, name) in MODES.iter().enumerate() {
        let c = cell(&cells, m, 4);
        t.row(&[
            name.to_string(),
            c.cache_hits.to_string(),
            c.cache_misses.to_string(),
            format!("{:.0}%", c.hit_rate() * 100.0),
            c.lease_expiries.to_string(),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let mut t = Table::new(
        "Warm-cache probe: network messages per read",
        &["mode \\ depth", "1", "4"],
    );
    for (m, name) in MODES.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for &d in &DEPTHS {
            row.push(format!("{:.2}", cell(&cells, m, d).probe_msgs_per_read()));
        }
        t.row(&row);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let validated_fetchless = DEPTHS
        .iter()
        .all(|&d| cell(&cells, 1, d).probe_fetches == 0 && cell(&cells, 1, d).probe_reads > 0);
    out.push_str(&format!(
        "Validated-mode reads against a warm cache performed **0 data \
         fetches** — the version-inquiry quorum confirms the local copy, \
         no version answer carries contents (the inquiry names the cached \
         version) and none cross the wire (cache hits cost zero data \
         moves: **{}**).\n\n",
        if validated_fetchless { "yes" } else { "NO" }
    ));
    let lease_worst = DEPTHS
        .iter()
        .map(|&d| cell(&cells, LEASE_LONG, d).probe_msgs_per_read())
        .fold(0.0_f64, f64::max);
    let lease_quorum_free = lease_worst <= 0.1
        && DEPTHS
            .iter()
            .all(|&d| cell(&cells, LEASE_LONG, d).probe_reads > 0);
    out.push_str(&format!(
        "Inside a live lease the probe averaged **{lease_worst:.2}** \
         messages per read — the reads themselves are fully quorum-free \
         until the TTL lapses; any residue is commit-ack resend chatter \
         trailing the window's writes, not read traffic (≤0.1 per read \
         required: **{}**).\n\n",
        if lease_quorum_free { "yes" } else { "NO" }
    ));
    // No mode that asks a quorum can beat one round trip per read; a
    // closed loop of CLIENTS x depth reads therefore tops out here.
    let ceiling = |d: usize| (CLIENTS * d) as f64 / (2.0 * LINK.as_secs_f64());
    let over_ceiling = DEPTHS
        .iter()
        .map(|&d| cell(&cells, LEASE_LONG, d).ops_per_vsec / ceiling(d))
        .fold(f64::INFINITY, f64::min);
    let speedup = DEPTHS
        .iter()
        .map(|&d| cell(&cells, LEASE_LONG, d).ops_per_vsec / cell(&cells, 0, d).ops_per_vsec)
        .fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "With the long lease, client throughput is at least \
         **{speedup:.1}×** the uncached arm's. That arm is no soft target: \
         it runs close to the ceiling of one round trip per read \
         ({:.0} and {:.0} ops per virtual second at these depths) which \
         bounds every mode that asks a quorum, and the lease clears the \
         ceiling itself by at least **{over_ceiling:.1}×** (above the \
         ceiling at every depth required: **{}**).\n",
        ceiling(DEPTHS[0]),
        ceiling(DEPTHS[1]),
        if over_ceiling > 1.0 { "yes" } else { "NO" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validated_mode_serves_repeat_reads_from_cache() {
        let c = run_cell(51, 1, 4, 32);
        assert!(c.cache_hits > 0, "repeat zipfian reads must hit");
        assert!(c.cache_misses > 0, "cold caches mean first reads miss");
        assert_eq!(c.probe_fetches, 0, "warm validated probe never fetches");
        assert!(c.probe_msgs > 0, "validated probe still runs inquiries");
    }

    #[test]
    fn long_lease_reads_are_quorum_free_in_the_probe() {
        let c = run_cell(52, LEASE_LONG, 1, 32);
        assert!(c.probe_reads > 0);
        assert_eq!(
            c.probe_msgs, 0,
            "a live lease serves without touching the network"
        );
        assert!(c.cache_hits > 0);
    }

    #[test]
    fn the_report_carries_all_three_verdicts() {
        let report = run(64);
        assert!(report.contains("## E13 — Weak-representative cache tier"));
        assert_eq!(
            report.matches(": **yes**").count(),
            3,
            "all three cache-tier verdicts must hold:\n{report}"
        );
    }
}
