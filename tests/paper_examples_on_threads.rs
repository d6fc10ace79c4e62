//! The paper's three example file suites on a real clock.
//!
//! E1 measures Gifford's examples in virtual time. Here the same clusters,
//! built from the same `HarnessBuilder`s, play one workload [`Plan`] each:
//! on the simulator through `drive`, and on OS threads through
//! `drive::on_threads`, every link latency imposed in scaled real time.
//! A real clock cannot beat the delays it imposes, so each operation's
//! unscaled latency is at least the simulator's (less 1 ms of rounding),
//! in every run. It adds only the threads' own handler and scheduling
//! time, so the median of each kind of operation agrees with the
//! simulator's to within 5 %. Example 1's second read of each round is
//! served from the workstation's weak representative on both clocks, and
//! each round ends with a transaction over two suites. Both histories
//! are judged: the simulator's by `Driven::judge`, the threads' by the
//! non-strict op-log oracle.
//!
//! Another program on the machine can only delay a thread, never hurry
//! one, so an operation's best latency over runs is its cleanest
//! measurement: where one run's medians are off, the example runs again
//! and each operation keeps its best (at most [`RUNS`] runs). A transport
//! that slows every delivery slows every run, so its medians stay off.

use weighted_voting::core::client::{ClientStats, CompletedOp};
use weighted_voting::prelude::*;
use wv_bench::drive::{self, Driven, Plan};
use wv_bench::oracle::check_log;
use wv_bench::topo;

/// Real time per unit of virtual time on the threads. An operation's
/// handlers and wake-ups take 0.25–0.5 ms of real time in a debug build:
/// at 0.1 that is up to 5 ms of a 75 ms access, its whole 5 %.
const SCALE: f64 = 0.2;
/// Rounds of the workload per example.
const ROUNDS: usize = 5;
/// The pause before each operation after the first, in virtual time:
/// Example 1's cache fill (a 32.5 ms self-link) has landed before the
/// next read starts.
const SETTLE: SimDuration = SimDuration::from_millis(50);
/// The most runs of an example on threads.
const RUNS: usize = 4;
const SUITES: [ObjectId; 2] = [ObjectId(1), ObjectId(2)];
/// Each operation of a round. The first read after a write finds Example
/// 1's weak representative stale, and the contents come with the
/// server's version answer; the second finds them there. The round ends
/// with one write to each of the two suites, atomically.
const ROUND: [&str; 4] = ["write", "first read", "second read", "transaction"];

/// An example's workload at `client`: [`ROUNDS`] rounds, each operation
/// [`SETTLE`] after the one before.
fn workload(client: SiteId) -> Plan {
    let round = |r: usize| {
        let payload = |k: usize| format!("op-{}", ROUND.len() * r + k).into_bytes();
        let both = SUITES.map(|s| (s, payload(3))).to_vec();
        let read = Op::Read(SUITES[0]);
        [
            Op::Write(SUITES[0], payload(0)),
            read.clone(),
            read,
            Op::Transaction(both),
        ]
    };
    let mut plan = Plan::default();
    plan.sequence(client, SETTLE, (0..ROUNDS).flat_map(round));
    plan
}

/// Each operation's latency in virtual milliseconds, in plan order, and
/// the client's counters at the end.
struct Run {
    latencies: Vec<f64>,
    stats: ClientStats,
}

fn latencies(run: &Driven) -> Vec<f64> {
    assert_eq!(
        run.ops.len(),
        ROUNDS * ROUND.len(),
        "each operation ended once"
    );
    let latency = |o: &CompletedOp| o.latency().as_millis_f64();
    run.ops.iter().map(latency).collect()
}

fn on_simulator(example: HarnessBuilder) -> Run {
    let mut h = example.suites(SUITES).build().expect("legal");
    let client = h.default_client();
    let run = drive::drive(&mut h, workload(client));
    assert_eq!(run.judge(), [], "the simulator's history");
    let stats = h.client_at(client).expect("a client").stats;
    let latencies = latencies(&run);
    Run { latencies, stats }
}

fn on_threads(example: HarnessBuilder) -> Run {
    let h = (example.suites(SUITES))
        .build_on_threads(SCALE)
        .expect("legal");
    let client = h.clients()[0];
    let run = drive::on_threads(&h, workload(client), SCALE);
    let failed: Vec<_> = run.ops.iter().filter(|o| o.outcome.is_err()).collect();
    assert!(failed.is_empty(), "served: {failed:?}");
    let violations = check_log(&run.ops, Some(&run.sent), false);
    assert!(
        violations.is_empty(),
        "the threads' history: {violations:?}"
    );
    let nodes = h.stop();
    let stats = nodes[client.index()].as_client().expect("a client").stats;
    let latencies = latencies(&run);
    Run { latencies, stats }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The reads a client served from its own weak representative, and
/// those whose contents came with a voting representative's answer.
fn cache_reads(stats: &ClientStats) -> (u64, u64) {
    let with_inquiry = stats.reads_contents_with_inquiry;
    (stats.reads_cache_hit - with_inquiry, with_inquiry)
}

/// What is off between the threads' best latencies and the simulator's:
/// each kind of operation whose medians differ by more than 5 %.
fn medians_off(best: &[f64], sim: &[f64]) -> Vec<String> {
    let median_of = |k: usize, latencies: &[f64]| {
        median(
            latencies
                .iter()
                .skip(k)
                .step_by(ROUND.len())
                .copied()
                .collect(),
        )
    };
    let off = (0..ROUND.len()).map(|k| (ROUND[k], median_of(k, best), median_of(k, sim)));
    off.filter(|(_, real, virt)| (real - virt).abs() > 0.05 * virt)
        .map(|(kind, real, virt)| format!("{kind}: median {real:.2} ms, simulated {virt}"))
        .collect()
}

#[test]
fn the_papers_examples_read_the_same_on_a_real_clock() {
    let examples: [fn(u64) -> HarnessBuilder; 3] =
        [topo::example_1, topo::example_2, topo::example_3];
    for (n, example) in (1..).zip(examples) {
        let sim = on_simulator(example(n));
        if n == 1 {
            assert_eq!(cache_reads(&sim.stats), (ROUNDS as u64, ROUNDS as u64));
        }
        let mut best = vec![f64::INFINITY; sim.latencies.len()];
        let mut off = Vec::new();
        for _ in 0..RUNS {
            let threads = on_threads(example(n));
            let at = threads.latencies.iter().zip(&sim.latencies).enumerate();
            for (i, (&real, &virt)) in at {
                let kind = ROUND[i % ROUND.len()];
                assert!(
                    real >= virt - 1.0,
                    "example {n}, {kind}: {real:.2} ms on threads, simulated {virt}"
                );
            }
            for (best, real) in best.iter_mut().zip(&threads.latencies) {
                *best = best.min(*real);
            }
            off = medians_off(&best, &sim.latencies);
            if cache_reads(&threads.stats) != cache_reads(&sim.stats) {
                off.push(format!("cache reads {:?}", cache_reads(&threads.stats)));
            }
            if off.is_empty() {
                break;
            }
        }
        assert!(off.is_empty(), "example {n}, after {RUNS} runs: {off:?}");
    }
}
