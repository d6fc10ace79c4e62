//! E15 — multi-suite sharded keyspace under zipfian multi-key load.
//!
//! The same closed-loop write-dominant workload replayed against a
//! cluster whose keyspace is split into 1, 2, 4, or 8 file suites, at
//! two skews (uniform and zipfian), two cluster sizes and two window
//! depths. A representative's one lock table keeps a commit lock per
//! suite, so writes to *different* suites never queue behind one
//! another — only same-suite writers stand in one commit-lock line —
//! and a client's own
//! outstanding writes to one suite share one place in it (a write
//! train, DESIGN.md §7.1). Aggregate throughput is committed operations
//! per **virtual** second, so each cell is a deterministic function of
//! its seed and the sweep doubles as a worker-count invariance fixture
//! (`crates/chaos/tests/determinism.rs`).
//!
//! What sharding buys is the line *between* clients, so claims 1 and 2
//! are judged at window depth 1, where every write is a train of one.
//! Claims under test:
//!
//! 1. **Sharding buys aggregate throughput.** Under a balanced suite
//!    choice, splitting one suite into 8 turns a single lock line
//!    into 8 parallel ones: aggregate ops/vsec scales ≥6× on the
//!    primary cluster. What it does not buy is attempts: a contended
//!    suite commits once per lock hold, not once per retry lottery, so
//!    every width costs one attempt per operation.
//! 2. **Hot keys saturate their shard.** Under zipfian skew
//!    (popularity ∝ 1/(rank+1)) the hottest suite absorbs over a
//!    third of the traffic, so the same 8-way split scales visibly
//!    worse than the balanced workload — the hot shard's lock queue
//!    is still the critical path.
//! 3. **A client's own window costs one lock hold.** At depth 32 a
//!    client's whole window on a suite is one or two trains, so the
//!    one-suite cell runs ≥10× the depth-1 one — and the run is
//!    window-bound, not lock-bound: more suites only make the trains
//!    shorter.
//! 4. **The single-suite path is untouched.** A harness built with an
//!    explicit one-entry suite map replays the workload byte-identical
//!    (versions *and* latencies) to the default single-suite build —
//!    pinned by `the_single_suite_path_is_byte_identical_to_default`.

use wv_core::client::{ClientOptions, ClientStats};
use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_net::{NetConfig, SiteId};
use wv_sim::{DetRng, LatencyModel, SimDuration};
use wv_storage::ObjectId;

use crate::drive::{self, drive, throughput, Driven, Plan, Verdict};
use crate::table::Table;
use crate::{runner, zipf_suite};

/// Cluster sizes along the sweep (one vote each, majority quorums).
const SERVER_COUNTS: [usize; 2] = [3, 5];
/// Closed-loop clients sharing the cluster: enough offered concurrency
/// to keep all 8 shards of the widest split at their saturated commit
/// rate, while the single-suite arm stays pinned at its lock queue's
/// service rate no matter how many clients feed it.
const CLIENTS: usize = 16;
/// Suite counts along the sharding curve.
const SUITE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// One-way link latency everywhere.
const LINK: SimDuration = SimDuration::from_millis(25);
/// Outstanding-op windows per client: one at a time, where the only
/// line is the one between clients; and wide open, where a client's
/// own writes to a suite leave as trains.
const DEPTHS: [usize; 2] = [1, 32];
/// Index of the depth claims 1 and 2 are judged at.
const ONE_AT_A_TIME: usize = 0;
/// Index of the wide-open window.
const WIDE: usize = 1;
/// Every 8th operation is a read (the rest write): write-dominant, so
/// the per-suite commit locks — not the network — are the bottleneck.
const READ_EVERY: usize = 8;
/// Operations each client issues per trial in the full report: enough
/// load that every shard of the widest split runs at its saturated
/// commit rate (the single-suite arm saturates far earlier).
pub const OPS_PER_CLIENT: usize = 64;
/// Attempt budget: generous, so that a retry storm would show up in
/// `attempts_per_op` rather than as failed operations.
const MAX_ATTEMPTS: u32 = 512;
/// Short, tightly-capped retry backoff: an operation that does give way
/// should rejoin its suite's line promptly, so measured throughput
/// reflects lock serialization rather than idle backoff time.
const BACKOFF: SimDuration = SimDuration::from_millis(5);
/// Backoff ceiling (before jitter).
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(80);
/// Phase timeout: an uncontended write round trip is ~150 ms. A prepare
/// standing in a busy suite's line does not time out; this only paces
/// how often its coordinator re-asks.
const PHASE_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// Master seed for the sweep.
const MASTER_SEED: u64 = 0xE15;

/// The suite-choice skews under comparison, with display names.
/// "balanced" strides each client round-robin across the suite map —
/// every suite gets the same op count, offset per client so the
/// instantaneous load spreads too; "zipfian" draws each op's suite
/// with popularity ∝ 1/(rank + 1), so rank 0 is the hot key.
const SKEWS: [&str; 2] = ["balanced", "zipfian"];
/// Index of the balanced skew (the headline scaling arm).
const BALANCED: usize = 0;
/// Index of the zipfian skew (the hot-key saturation arm).
const ZIPF: usize = 1;

/// One grid point of the sweep.
pub struct Cell {
    /// Outstanding-op window per client.
    pub depth: usize,
    /// Suite count (keyspace shards).
    pub suites: usize,
    /// Skew index into `SKEWS`.
    pub skew: usize,
    /// Voting representatives in the cluster.
    pub servers: usize,
    /// Operations that committed (out of `CLIENTS × ops_per_client`).
    pub ops_ok: u64,
    /// Committed operations per *virtual* second, across all clients.
    pub ops_per_vsec: f64,
    /// Committed operations per suite, hottest first; length `suites`.
    pub per_suite: Vec<u64>,
    /// Attempts spent per committed operation (1.0 = no retries): the
    /// visible cost of same-suite lock-queue contention.
    pub attempts_per_op: f64,
    /// Writes committed per prepare sent for them (1.0 = every write
    /// alone): the mean length of the clients' write trains.
    pub train_size: f64,
    /// The cell's history, the seeding writes first.
    pub log: Driven,
}

impl Cell {
    /// Share of committed traffic the hottest suite absorbed.
    pub fn hot_share(&self) -> f64 {
        let total: u64 = self.per_suite.iter().sum();
        if total == 0 {
            0.0
        } else {
            *self.per_suite.iter().max().expect("non-empty") as f64 / total as f64
        }
    }
}

/// The per-trial workload: each client's `(is_write, suite index)`
/// plan, drawn from the seed alone before the harness exists.
fn draw_plans(seed: u64, skew: usize, n: usize, ops: usize) -> Vec<Vec<(bool, usize)>> {
    let root = DetRng::new(seed).fork_named("e15-workload");
    (0..CLIENTS)
        .map(|c| {
            let mut r = root.fork(c as u64);
            (0..ops)
                .map(|i| {
                    let suite = if skew == BALANCED {
                        (c + i) % n
                    } else {
                        zipf_suite(&mut r, n)
                    };
                    (i % READ_EVERY != READ_EVERY - 1, suite)
                })
                .collect()
        })
        .collect()
}

/// The cluster for one cell: `servers` single-vote representatives
/// behind majority quorums, `CLIENTS` clients with a window of `depth`,
/// `suites` suites in the map.
fn build_cluster(seed: u64, servers: usize, depth: usize, suites: &[ObjectId]) -> HarnessBuilder {
    let w = servers / 2 + 1;
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::new(w as u32, w as u32))
        .suites(suites.to_vec())
        .net(NetConfig::uniform(
            servers + CLIENTS,
            LatencyModel::Constant(LINK),
        ))
        .client_options(ClientOptions {
            pipeline_depth: Some(depth),
            max_attempts: MAX_ATTEMPTS,
            backoff: BACKOFF,
            backoff_cap: BACKOFF_CAP,
            phase_timeout: PHASE_TIMEOUT,
            ..ClientOptions::default()
        });
    for _ in 0..servers {
        b = b.site(SiteSpec::server(1));
    }
    for _ in 0..CLIENTS {
        b = b.client();
    }
    b
}

/// Seeds every suite, then replays `plans` against `h`: the seeding
/// writes, then every planned operation in (client, completion) order.
fn replay(h: &mut Harness, suites: &[ObjectId], plans: &[Vec<(bool, usize)>]) -> Driven {
    let mut log = drive::seed(h, suites, "e15");
    let client_sites: Vec<SiteId> = h.clients().to_vec();
    let plan = Plan::workloads(h.now(), &client_sites, suites, plans, "e15");
    log.append(drive(h, plan));
    log
}

/// Runs one cell of the sweep.
fn run_cell(
    seed: u64,
    depth: usize,
    suites_n: usize,
    skew: usize,
    servers: usize,
    ops: usize,
) -> Cell {
    let suites: Vec<ObjectId> = (1..=suites_n as u64).map(ObjectId).collect();
    let plans = draw_plans(seed, skew, suites_n, ops);
    let mut h = build_cluster(seed, servers, depth, &suites)
        .build()
        .expect("majority quorums are legal");
    let start = h.now();
    let log = replay(&mut h, &suites, &plans);
    let done = &log.ops[suites_n..];
    let stats: ClientStats = h
        .clients()
        .iter()
        .filter_map(|&c| h.client_at(c).map(|c| c.stats))
        .sum();
    // The seeding writes went alone, one per suite.
    let (trains, ridden) = (stats.trains - suites_n as u64, stats.writes_ridden);

    let (ops_ok, ops_per_vsec) = throughput(done, start);
    let mut attempts = 0u64;
    let mut per_suite = vec![0u64; suites_n];
    for op in done.iter().filter(|op| op.outcome.is_ok()) {
        attempts += u64::from(op.attempts);
        per_suite[op.suite.0 as usize - 1] += 1;
    }
    per_suite.sort_unstable_by(|a, b| b.cmp(a));
    Cell {
        depth,
        suites: suites_n,
        skew,
        servers,
        ops_ok,
        ops_per_vsec,
        per_suite,
        attempts_per_op: if ops_ok > 0 {
            attempts as f64 / ops_ok as f64
        } else {
            0.0
        },
        train_size: if trains > 0 {
            1.0 + ridden as f64 / trains as f64
        } else {
            0.0
        },
        log,
    }
}

/// The full sweep: every `(depth, servers, skew, suites)` grid point,
/// fanned out over the deterministic trial pool in grid order. A grid
/// point's seed does not depend on its depth: both depths replay the
/// same plans.
pub fn measure(master_seed: u64, ops_per_client: usize) -> Vec<Cell> {
    let mut grid = Vec::new();
    for &servers in &SERVER_COUNTS {
        for skew in 0..SKEWS.len() {
            for &suites in &SUITE_COUNTS {
                grid.push((servers, skew, suites));
            }
        }
    }
    runner::run_tasks(grid.len() * DEPTHS.len(), |i| {
        let point = i % grid.len();
        let (servers, skew, suites) = grid[point];
        let seed = runner::trial_seed(master_seed, point as u64);
        run_cell(
            seed,
            DEPTHS[i / grid.len()],
            suites,
            skew,
            servers,
            ops_per_client,
        )
    })
}

/// One `(depth, servers)` slice of the sweep.
struct Slice<'a> {
    cells: &'a [Cell],
    depth: usize,
    servers: usize,
}

impl Slice<'_> {
    /// The slice's cell for `(suites, skew)`.
    fn cell(&self, suites: usize, skew: usize) -> &Cell {
        let here = |c: &&Cell| {
            (c.depth, c.servers, c.suites, c.skew) == (self.depth, self.servers, suites, skew)
        };
        self.cells
            .iter()
            .find(here)
            .expect("grid covers every combination")
    }

    /// Aggregate scaling of `suites`-way sharding over the single-suite
    /// baseline, for one skew's curve.
    fn scaling(&self, suites: usize, skew: usize) -> f64 {
        self.cell(suites, skew).ops_per_vsec / self.cell(1, skew).ops_per_vsec
    }

    /// One row per skew: the suite counts' cells rendered by `show`.
    fn table(&self, title: &str, show: impl Fn(&Cell) -> String) -> String {
        let title = format!(
            "{title}, {} servers, window depth {}",
            self.servers, self.depth
        );
        let mut t = Table::new(title, &["skew \\ suites", "1", "2", "4", "8"]);
        for (sk, name) in SKEWS.iter().enumerate() {
            let mut row = vec![name.to_string()];
            row.extend(SUITE_COUNTS.iter().map(|&n| show(self.cell(n, sk))));
            t.row(&row);
        }
        t.to_markdown() + "\n"
    }
}

/// Builds the E15 report with an explicit per-client op budget (the
/// smoke tests use a small one), its histories handed to `verdict`.
pub fn run(ops_per_client: usize, verdict: &mut Verdict) -> String {
    let cells = measure(MASTER_SEED, ops_per_client);
    for c in &cells {
        let (depth, suites, skew, servers) = (c.depth, c.suites, SKEWS[c.skew], c.servers);
        let name = format_args!("depth {depth}, {suites} {skew} suites, {servers} servers");
        verdict.judge(name, &c.log);
    }
    let total: u64 = cells.iter().map(|c| c.ops_ok).sum();
    let expected = (cells.len() * CLIENTS * ops_per_client) as u64;
    let slice = |depth: usize, servers: usize| Slice {
        cells: &cells,
        depth: DEPTHS[depth],
        servers: SERVER_COUNTS[servers],
    };
    let yes_or_no = |holds: bool| if holds { "yes" } else { "NO" };
    let mut out = String::new();
    out.push_str("## E15 — Multi-suite sharded keyspace under zipfian load\n\n");
    out.push_str(&format!(
        "Majority clusters of {:?} single-vote representatives, uniform \
         {} ms links, {CLIENTS} closed-loop clients at window depths \
         {DEPTHS:?}. Each client replays {ops_per_client} operations — one \
         read per {READ_EVERY} ops, the rest writes — against a keyspace \
         split into 1, 2, 4, or 8 suites, choosing the suite per op \
         balanced (per-client round-robin stride) or zipfian \
         (popularity ∝ 1/(rank+1)). Each representative \
         keeps one lock table with a commit lock per suite, so only \
         writers to the same suite stand in one commit-lock line, and the \
         writes one client has outstanding \
         on a suite stand in it as one train. Throughput is committed \
         operations per **virtual** second. {total}/{expected} operations \
         committed.\n\n",
        SERVER_COUNTS,
        LINK.as_millis() * 2,
    ));

    // ---- the line between clients ----
    let throughput = |c: &Cell| format!("{:.1}", c.ops_per_vsec);
    let primary = slice(ONE_AT_A_TIME, 0);
    let secondary = slice(ONE_AT_A_TIME, 1);
    out.push_str(&primary.table("Aggregate throughput", throughput));
    out.push_str(&secondary.table("Aggregate throughput", throughput));
    let mut t = Table::new(
        format!(
            "Scaling over the 1-suite baseline ({}-server cluster, window depth {})",
            primary.servers, primary.depth
        ),
        &[
            "skew \\ suites",
            "2",
            "4",
            "8",
            "hottest-suite share at 8",
            "attempts/op at 8",
        ],
    );
    for (sk, name) in SKEWS.iter().enumerate() {
        let c8 = primary.cell(8, sk);
        t.row(&[
            name.to_string(),
            format!("{:.1}×", primary.scaling(2, sk)),
            format!("{:.1}×", primary.scaling(4, sk)),
            format!("{:.1}×", primary.scaling(8, sk)),
            format!("{:.0}%", c8.hot_share() * 100.0),
            format!("{:.2}", c8.attempts_per_op),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let uni8 = primary.scaling(8, BALANCED);
    out.push_str(&format!(
        "With one operation outstanding per client the only line is the \
         one between clients, and splitting the keyspace into 8 suites \
         multiplies balanced-skew aggregate throughput by **{uni8:.1}×** \
         on the {}-server cluster (≥6× required: **{}**), and {:.1}× on \
         the {}-server cluster: a write holds its suite's lock for one \
         vote and one commit round whether w = {} or {}, so a wider \
         quorum costs messages, not lock time.\n\n",
        primary.servers,
        yes_or_no(uni8 >= 6.0),
        secondary.scaling(8, BALANCED),
        secondary.servers,
        primary.servers / 2 + 1,
        secondary.servers / 2 + 1,
    ));
    let zipf8 = primary.scaling(8, ZIPF);
    let hot = primary.cell(8, ZIPF).hot_share();
    out.push_str(&format!(
        "Under zipfian skew the hottest suite absorbs **{:.0}%** of the \
         committed traffic and its lock queue stays the critical path: \
         the same 8-way split scales only **{zipf8:.1}×** against \
         **{uni8:.1}×** balanced (hot-key saturation costs ≥25% of the \
         scaling: **{}**).\n\n",
        hot * 100.0,
        yes_or_no(zipf8 <= 0.75 * uni8 && hot >= 0.30)
    ));

    // ---- a client's own window ----
    let wide = slice(WIDE, 0);
    out.push_str(&wide.table("Aggregate throughput", throughput));
    out.push_str(&slice(WIDE, 1).table("Aggregate throughput", throughput));
    out.push_str(&wide.table("Mean train size (writes per prepare)", |c| {
        format!("{:.1}", c.train_size)
    }));
    let (alone, together) = (primary.cell(1, BALANCED), wide.cell(1, BALANCED));
    let gain = together.ops_per_vsec / alone.ops_per_vsec;
    out.push_str(&format!(
        "A client's own window costs one lock hold: with {} operations \
         outstanding per client the writes a client has on a suite leave \
         as trains of **{:.1}** on average, and the one-suite cell \
         commits **{:.1}** operations per virtual second against \
         **{:.1}** at depth {} — **{gain:.1}×** (≥10× required: **{}**). \
         There the run is bound by the window, not by the lock: more \
         suites only make the trains shorter ({:.1} at 8 suites), so \
         sharding has nothing left to buy.\n\n",
        wide.depth,
        together.train_size,
        together.ops_per_vsec,
        alone.ops_per_vsec,
        primary.depth,
        yes_or_no(gain >= 10.0),
        wide.cell(8, BALANCED).train_size,
    ));
    let worst = cells
        .iter()
        .map(|c| c.attempts_per_op)
        .fold(0.0_f64, f64::max);
    out.push_str(&format!(
        "Same-suite contention is not paid in retries: {CLIENTS} clients on \
         one shared suite spend **{:.2}** attempts per committed op at \
         depth {} and **{:.2}** at depth {}, and no cell of the sweep \
         spends more than **{worst:.2}** — contended prepares stand in \
         line at the representatives and commit once per lock hold \
         (≤1.05 attempts per op in every cell required: **{}**).\n",
        alone.attempts_per_op,
        primary.depth,
        together.attempts_per_op,
        wide.depth,
        yes_or_no(worst <= 1.05)
    ));
    out
}

/// Cross-suite WAL batching under group commit:
/// `(records per sync, distinct suites per sync)` summed across the
/// replicas of an 8-suite primary cluster replaying the balanced
/// workload with a 5 ms group-commit window. Suites per sync > 1 means
/// one durable flush is absorbing concurrent writes to *different*
/// suites — the cross-suite half of the batching win. Deterministic.
#[cfg(test)]
fn wal_batch_summary(ops_per_client: usize) -> (f64, f64) {
    let servers = SERVER_COUNTS[0];
    let suites: Vec<ObjectId> = (1..=8).map(ObjectId).collect();
    let seed = wv_sim::derive_seed(MASTER_SEED, 2);
    let plans = draw_plans(seed, BALANCED, suites.len(), ops_per_client);
    let mut h = build_cluster(seed, servers, DEPTHS[WIDE], &suites)
        .group_commit(SimDuration::from_millis(5))
        .build()
        .expect("majority quorums are legal");
    let done = replay(&mut h, &suites, &plans).ops;
    assert!(
        done.iter().all(|o| o.outcome.is_ok()),
        "batching probe workload must commit fully"
    );
    let stats: wv_core::server::ServerStats = SiteId::all(servers)
        .filter_map(|s| h.server_at(s).map(|s| s.stats))
        .sum();
    assert!(
        stats.wal_batches > 0,
        "group commit must have flushed at least once"
    );
    let batches = stats.wal_batches as f64;
    (
        stats.wal_batched_records as f64 / batches,
        stats.wal_batch_suites as f64 / batches,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_suites_scale_a_balanced_write_workload() {
        // One operation outstanding per client: the line between clients
        // is the only one there is, and it is what sharding divides.
        let one = run_cell(61, 1, 1, BALANCED, 3, OPS_PER_CLIENT);
        let eight = run_cell(61, 1, 8, BALANCED, 3, OPS_PER_CLIENT);
        let budget = (CLIENTS * OPS_PER_CLIENT) as u64;
        assert_eq!(one.ops_ok, budget, "every op must commit");
        assert_eq!(eight.ops_ok, budget);
        assert!(
            eight.ops_per_vsec >= 5.0 * one.ops_per_vsec,
            "8 suites must scale far past 1: {} vs {}",
            eight.ops_per_vsec,
            one.ops_per_vsec
        );
        for cell in [&one, &eight] {
            assert!(
                cell.attempts_per_op <= 1.05,
                "contention must not be paid in retries: {} attempts/op on {} suite(s)",
                cell.attempts_per_op,
                cell.suites
            );
        }
    }

    #[test]
    fn zipfian_skew_concentrates_traffic_on_the_hot_suite() {
        let c = run_cell(62, DEPTHS[WIDE], 8, ZIPF, 3, 32);
        assert!(
            c.hot_share() >= 0.30,
            "rank-0 must absorb over a third of zipfian traffic: {:?}",
            c.per_suite
        );
        let u = run_cell(62, DEPTHS[WIDE], 8, BALANCED, 3, 32);
        assert!(
            u.hot_share() < c.hot_share(),
            "uniform traffic must spread flatter: {} vs {}",
            u.hot_share(),
            c.hot_share()
        );
    }

    #[test]
    fn the_single_suite_path_is_byte_identical_to_default() {
        // The tentpole's regression pin: a harness built with an
        // explicit one-entry suite map must replay the whole workload
        // byte-identical — versions AND latencies — to the default
        // build that never mentions suites at all.
        let plans = draw_plans(63, BALANCED, 1, 8);
        let run = |explicit: bool| {
            let servers = 3;
            let mut b = HarnessBuilder::new()
                .seed(63)
                .quorum(QuorumSpec::new(2, 2))
                .net(NetConfig::uniform(
                    servers + CLIENTS,
                    LatencyModel::Constant(LINK),
                ))
                .client_options(ClientOptions {
                    pipeline_depth: Some(DEPTHS[WIDE]),
                    max_attempts: MAX_ATTEMPTS,
                    backoff: BACKOFF,
                    backoff_cap: BACKOFF_CAP,
                    phase_timeout: PHASE_TIMEOUT,
                    ..ClientOptions::default()
                });
            if explicit {
                b = b.suites(vec![ObjectId(1)]);
            }
            for _ in 0..servers {
                b = b.site(SiteSpec::server(1));
            }
            for _ in 0..CLIENTS {
                b = b.client();
            }
            let mut h = b.build().expect("majority quorums are legal");
            let done = replay(&mut h, &[ObjectId(1)], &plans).ops;
            assert!(done.iter().all(|o| o.outcome.is_ok()), "workload commits");
            format!("{done:?}")
        };
        assert_eq!(
            run(false),
            run(true),
            "explicit single-suite map must not perturb the op stream"
        );
    }

    #[test]
    fn group_commit_syncs_absorb_writes_to_several_suites() {
        let (records, suites) = wal_batch_summary(16);
        assert!(
            records > 1.0,
            "a 5 ms window over 16 concurrent writers must batch: {records}"
        );
        assert!(
            suites > 1.0,
            "batches must span suites on a multi-suite workload: {suites}"
        );
        assert!(
            records >= suites,
            "a batch cannot span more suites than it has records"
        );
    }

    #[test]
    fn a_wide_window_on_one_suite_leaves_as_trains() {
        let alone = run_cell(64, 1, 1, BALANCED, 3, OPS_PER_CLIENT);
        let together = run_cell(64, DEPTHS[WIDE], 1, BALANCED, 3, OPS_PER_CLIENT);
        assert_eq!(alone.train_size, 1.0, "nothing to share a prepare with");
        assert!(together.train_size >= 8.0, "{}", together.train_size);
        assert!(
            together.ops_per_vsec >= 10.0 * alone.ops_per_vsec,
            "a window of writes must cost about one lock hold: {} vs {}",
            together.ops_per_vsec,
            alone.ops_per_vsec
        );
        assert!(together.attempts_per_op <= 1.05);
    }

    #[test]
    fn the_report_carries_all_four_verdicts() {
        let report = run(OPS_PER_CLIENT, &mut Verdict::default());
        assert!(report.contains("## E15 — Multi-suite sharded keyspace"));
        assert_eq!(
            report.matches(": **yes**").count(),
            4,
            "all four verdicts must hold:\n{report}"
        );
        assert!(!report.contains("**NO**"), "{report}");
    }
}
