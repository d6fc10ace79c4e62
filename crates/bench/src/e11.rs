//! E11 — closed-loop throughput saturation.
//!
//! N clients share a three-server majority cluster and each keeps a
//! window of `k` operations outstanding (the pipelined client's
//! `pipeline_depth`): every client enqueues its whole read budget at
//! once and the window self-paces, so the offered concurrency is exactly
//! `N × k`. Throughput is measured in *virtual* time — committed
//! operations per simulated second — which makes every cell of the sweep
//! a deterministic function of its seed and lets the report double as a
//! worker-count invariance fixture (`crates/chaos/tests/determinism.rs`).
//!
//! Two claims under test:
//!
//! 1. **Pipelining buys throughput.** A closed loop at depth `k`
//!    completes ~`k` reads per round trip, so deepening the window from
//!    1 to 8 multiplies per-client throughput, at every client count.
//! 2. **Load-balanced selection spreads the work.** With equal-cost
//!    representatives, `CheapestFirst` asks the lowest-id server for
//!    the contents in every read's inquiry; `LoadBalanced` rotates
//!    across the cost tie, one step per attempt, and
//!    keeps every server busy without giving up quorum minimality —
//!    visible in the per-site data-request counters, at identical
//!    quorum cost.

use wv_core::client::{ClientOptions, QuorumPolicy};
use wv_core::harness::{HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_net::{NetConfig, SiteId};
use wv_sim::{LatencyModel, SimDuration};

use crate::drive::{self, drive, throughput, Driven, Plan, Verdict};
use crate::runner;
use crate::table::Table;

/// Voting representatives (one vote each, `r = w = 2` majority quorums).
const SERVERS: usize = 3;
/// One-way link latency everywhere: every representative costs the same,
/// so the cost-tie rotation has the whole cluster to spread over.
const LINK: SimDuration = SimDuration::from_millis(25);
/// Client counts along the saturation curve.
const CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// Pipeline depths (outstanding-op windows) per curve.
const DEPTHS: [usize; 3] = [1, 4, 8];
/// Reads each client issues per trial in the full report.
pub const OPS_PER_CLIENT: usize = 32;
/// Master seed for the sweep.
const MASTER_SEED: u64 = 0xE11;

/// The two policies under comparison, with display names.
const POLICIES: [(QuorumPolicy, &str); 2] = [
    (QuorumPolicy::CheapestFirst, "cheapest-first"),
    (QuorumPolicy::LoadBalanced, "load-balanced"),
];

/// One grid point of the sweep.
pub struct Cell {
    /// Quorum policy index into `POLICIES`.
    pub policy: usize,
    /// Outstanding-op window per client.
    pub depth: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Operations that committed (out of `clients × ops_per_client`).
    pub ops_ok: u64,
    /// Committed operations per *virtual* second, across all clients.
    pub ops_per_vsec: f64,
    /// Data requests (inquiries that asked for the contents too, fetches,
    /// prepares) each server answered, summed over all clients; length
    /// `SERVERS`.
    pub server_load: Vec<u64>,
    /// The cell's history, the seeding write first.
    pub log: Driven,
}

/// Runs one cell: `clients` closed-loop readers at window `depth`.
fn run_cell(seed: u64, policy: QuorumPolicy, depth: usize, clients: usize, ops: usize) -> Cell {
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::new(2, 2))
        .net(NetConfig::uniform(
            SERVERS + clients,
            LatencyModel::Constant(LINK),
        ))
        .client_options(ClientOptions {
            quorum_policy: policy,
            pipeline_depth: Some(depth),
            ..ClientOptions::default()
        });
    for _ in 0..SERVERS {
        b = b.site(SiteSpec::server(1));
    }
    for _ in 0..clients {
        b = b.client();
    }
    let mut h = b.build().expect("majority quorums are legal");
    let suite = h.suite_id();
    // Seed the suite so every read fetches real content, then measure
    // from a clean baseline (the write's prepare legs also count as
    // data requests, so per-site loads are diffed against it).
    let mut log = drive::seed(&mut h, &[suite], "e11");
    let client_sites: Vec<SiteId> = h.clients().to_vec();
    let base: Vec<Vec<u64>> = client_sites
        .iter()
        .map(|&c| h.client_at(c).expect("client exists").site_load())
        .collect();
    let start = h.now();
    let reads = vec![vec![(false, 0); ops]; clients];
    let plan = Plan::workloads(start, &client_sites, &[suite], &reads, "e11");
    let (ops_ok, ops_per_vsec) = throughput(log.append(drive(&mut h, plan)), start);
    let mut server_load = vec![0u64; SERVERS];
    for (i, &c) in client_sites.iter().enumerate() {
        let load = h.client_at(c).expect("client exists").site_load();
        for (s, slot) in server_load.iter_mut().enumerate() {
            *slot += load[s] - base[i][s];
        }
    }
    Cell {
        policy: POLICIES
            .iter()
            .position(|&(p, _)| p == policy)
            .expect("known policy"),
        depth,
        clients,
        ops_ok,
        ops_per_vsec,
        server_load,
        log,
    }
}

/// The full sweep: every `(policy, depth, clients)` grid point, fanned
/// out over the deterministic trial pool in grid order.
pub fn measure(master_seed: u64, ops_per_client: usize) -> Vec<Cell> {
    let mut grid = Vec::new();
    for &(policy, _) in &POLICIES {
        for &depth in &DEPTHS {
            for &clients in &CLIENTS {
                grid.push((policy, depth, clients));
            }
        }
    }
    runner::run_trials_indexed(master_seed, grid.len(), |i, seed| {
        let (policy, depth, clients) = grid[i];
        run_cell(seed, policy, depth, clients, ops_per_client)
    })
}

/// Finds the sweep cell for `(policy index, depth, clients)`.
fn cell(cells: &[Cell], policy: usize, depth: usize, clients: usize) -> &Cell {
    cells
        .iter()
        .find(|c| c.policy == policy && c.depth == depth && c.clients == clients)
        .expect("grid covers every combination")
}

/// Builds the E11 report with an explicit per-client read budget (the
/// smoke tests use a small one), its histories handed to `verdict`.
pub fn run(ops_per_client: usize, verdict: &mut Verdict) -> String {
    let cells = measure(MASTER_SEED, ops_per_client);
    for c in &cells {
        let (policy, depth, clients) = (POLICIES[c.policy].1, c.depth, c.clients);
        let name = format_args!("{policy}, depth {depth}, {clients} clients");
        verdict.judge(name, &c.log);
    }
    let total: u64 = cells.iter().map(|c| c.ops_ok).sum();
    let expected: u64 = cells
        .iter()
        .map(|c| (c.clients * ops_per_client) as u64)
        .sum();
    let mut out = String::new();
    out.push_str("## E11 — Closed-loop throughput saturation\n\n");
    out.push_str(&format!(
        "{}-server majority cluster (one vote each, r = w = 2), uniform \
         {} ms links. Each cell runs N closed-loop clients; a client \
         enqueues {ops_per_client} reads at once and its pipelined window \
         (depth k) self-paces, so offered concurrency is N × k. \
         Throughput is committed operations per **virtual** second — \
         deterministic, so the whole sweep is a worker-count invariance \
         fixture. {total}/{expected} operations committed.\n\n",
        SERVERS,
        LINK.as_millis() * 2,
    ));
    for (pi, &(_, name)) in POLICIES.iter().enumerate() {
        let mut t = Table::new(
            format!("Throughput, {name} (ops per virtual second)"),
            &["depth \\ clients", "1", "2", "4", "8"],
        );
        for &depth in &DEPTHS {
            let mut row = vec![format!("depth {depth}")];
            for &n in &CLIENTS {
                row.push(format!("{:.1}", cell(&cells, pi, depth, n).ops_per_vsec));
            }
            t.row(&row);
        }
        out.push_str(&t.to_markdown());
        out.push('\n');
    }
    out.push_str(
        "The load-balanced rows sit below the cheapest-first ones for a \
         reason that is not load: the seeding write installs at two of the \
         three replicas and nothing repairs the third, so the read whose \
         rotated first host is that replica — one in three — is sent stale \
         contents with its version answer and pays a fetch round. A read \
         whose first host merely answers last does not: its contents land \
         in the same instant and end the fetch they raced. Cheapest-first \
         always asks site 0, which the write reached.\n\n",
    );
    let deepest = CLIENTS[CLIENTS.len() - 1];
    let mut t = Table::new(
        format!("Per-server data requests (8 clients, depth 8, {ops_per_client} reads each)"),
        &["server", POLICIES[0].1, POLICIES[1].1],
    );
    let cf = cell(&cells, 0, 8, deepest);
    let lb = cell(&cells, 1, 8, deepest);
    for s in 0..SERVERS {
        t.row(&[
            format!("site {s}"),
            cf.server_load[s].to_string(),
            lb.server_load[s].to_string(),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let speedups: Vec<f64> = CLIENTS
        .iter()
        .map(|&n| cell(&cells, 0, 8, n).ops_per_vsec / cell(&cells, 0, 1, n).ops_per_vsec)
        .collect();
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "Pipelining depth 1 → 8 multiplies closed-loop throughput by \
         **{min_speedup:.1}×** or more at every client count (≥2× required: **{}**).\n\n",
        if min_speedup >= 2.0 { "yes" } else { "NO" }
    ));
    let cf_busy = cf.server_load.iter().filter(|&&l| l > 0).count();
    let lb_busy = lb.server_load.iter().filter(|&&l| l > 0).count();
    out.push_str(&format!(
        "With every representative equally cheap, cheapest-first sends \
         data requests to **{cf_busy}** server(s); load-balanced rotation \
         keeps **{lb_busy}** of {SERVERS} busy at the same quorum cost \
         (spreads the tie: **{}**).\n",
        if lb_busy == SERVERS && cf_busy < SERVERS {
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
    fn deeper_windows_multiply_single_client_throughput() {
        let d1 = run_cell(41, QuorumPolicy::CheapestFirst, 1, 1, 12);
        let d8 = run_cell(41, QuorumPolicy::CheapestFirst, 8, 1, 12);
        assert_eq!(d1.ops_ok, 12);
        assert_eq!(d8.ops_ok, 12);
        assert!(
            d8.ops_per_vsec >= 2.0 * d1.ops_per_vsec,
            "depth 8 must at least double depth 1: {} vs {}",
            d8.ops_per_vsec,
            d1.ops_per_vsec
        );
    }

    #[test]
    fn load_balancing_spreads_ties_that_cheapest_first_hammers() {
        let cf = run_cell(42, QuorumPolicy::CheapestFirst, 4, 4, 8);
        let lb = run_cell(42, QuorumPolicy::LoadBalanced, 4, 4, 8);
        assert_eq!(cf.ops_ok, 32);
        assert_eq!(lb.ops_ok, 32);
        assert_eq!(
            cf.server_load.iter().filter(|&&l| l > 0).count(),
            1,
            "equal costs leave cheapest-first on one site: {:?}",
            cf.server_load
        );
        assert_eq!(
            lb.server_load.iter().filter(|&&l| l > 0).count(),
            SERVERS,
            "rotation must keep every server busy: {:?}",
            lb.server_load
        );
    }

    #[test]
    fn the_report_carries_both_verdicts() {
        let report = run(6, &mut Verdict::default());
        assert!(report.contains("## E11 — Closed-loop throughput saturation"));
        assert_eq!(
            report.matches(": **yes**").count(),
            2,
            "both throughput verdicts must hold:\n{report}"
        );
    }
}
