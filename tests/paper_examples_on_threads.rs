//! The paper's three example file suites on a real clock.
//!
//! E1 measures Gifford's examples in virtual time. Here the same clusters,
//! built from the same `HarnessBuilder`s, run on the simulator and on OS
//! threads with every link latency imposed in scaled real time. A real
//! clock cannot beat the delays it imposes, so each operation's unscaled
//! latency is at least the simulator's (less 1 ms of rounding), in every
//! run. It adds only the threads' own handler and scheduling time, so the
//! median of each kind of operation agrees with the simulator's to within
//! 5 %. Example 1's second read of each round is served from the
//! workstation's weak representative on both clocks, and each round ends
//! with a transaction over two suites.
//!
//! Another program on the machine can only delay a thread, never hurry
//! one, so an operation's best latency over runs is its cleanest
//! measurement: where one run's medians are off, the example runs again
//! and each operation keeps its best (at most [`RUNS`] runs). A transport
//! that slows every delivery slows every run, so its medians stay off.

use std::time::Duration;

use weighted_voting::core::client::ClientStats;
use weighted_voting::prelude::*;
use wv_bench::topo;

/// Real time per unit of virtual time on the threads. An operation's
/// handlers and wake-ups take 0.25–0.5 ms of real time in a debug build:
/// at 0.1 that is up to 5 ms of a 75 ms access, its whole 5 %.
const SCALE: f64 = 0.2;
/// Rounds of [`Step`]s per example.
const ROUNDS: usize = 5;
/// The pause after each operation, in virtual time: Example 1's cache fill
/// (a 32.5 ms self-link) has landed before the next read starts.
const SETTLE: SimDuration = SimDuration::from_millis(50);
/// The most runs of an example on threads.
const RUNS: usize = 4;
/// The longest the threads get to end one operation.
const WAIT: Duration = Duration::from_secs(5);
const SUITES: [ObjectId; 2] = [ObjectId(1), ObjectId(2)];

/// One operation of an example's workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Write,
    /// The first read after a write: Example 1's weak representative is
    /// stale, and the contents come with the server's version answer.
    FirstRead,
    /// The second: Example 1's weak representative now holds them.
    SecondRead,
    /// One write to each of the two suites, atomically.
    Transaction,
}

const ROUND: [Step; 4] = [
    Step::Write,
    Step::FirstRead,
    Step::SecondRead,
    Step::Transaction,
];

fn steps() -> Vec<Step> {
    (0..ROUNDS).flat_map(|_| ROUND).collect()
}

fn payload(i: usize) -> Vec<u8> {
    format!("op-{i}").into_bytes()
}

/// Each step's latency in virtual milliseconds, and the client's counters
/// at the end.
struct Run {
    latencies: Vec<f64>,
    stats: ClientStats,
}

fn on_simulator(example: HarnessBuilder) -> Run {
    let mut h = example.suites(SUITES).build().expect("legal");
    let client = h.default_client();
    let mut latencies = Vec::new();
    for (i, step) in steps().into_iter().enumerate() {
        let latency = match step {
            Step::Write => h.write(SUITES[0], payload(i)).map(|w| w.latency),
            Step::FirstRead | Step::SecondRead => h.read(SUITES[0]).map(|r| r.latency),
            Step::Transaction => {
                let writes = SUITES.map(|s| (s, payload(i))).to_vec();
                h.transaction(client, writes).map(|t| t.latency)
            }
        };
        latencies.push(latency.expect("served").as_millis_f64());
        h.advance(SETTLE);
    }
    let stats = h.client_at(client).expect("a client").stats;
    Run { latencies, stats }
}

fn on_threads(example: HarnessBuilder) -> Run {
    let h = example
        .suites(SUITES)
        .build_on_threads(SCALE)
        .expect("legal");
    let client = h.clients()[0];
    let mut latencies = Vec::new();
    for (i, step) in steps().into_iter().enumerate() {
        match step {
            Step::Write => h.enqueue_write(client, SUITES[0], payload(i)),
            Step::FirstRead | Step::SecondRead => h.enqueue_read(client, SUITES[0]),
            Step::Transaction => {
                h.enqueue_transaction(client, SUITES.map(|s| (s, payload(i))).to_vec());
            }
        }
        let done = h.await_completed(client, WAIT);
        assert_eq!(done.len(), 1, "{step:?} ended once");
        assert!(done[0].outcome.is_ok(), "{step:?}: {:?}", done[0].outcome);
        latencies.push(done[0].latency().as_millis_f64());
        std::thread::sleep(Duration::from_micros(
            (SETTLE.as_micros() as f64 * SCALE) as u64,
        ));
    }
    let nodes = h.stop();
    let stats = nodes[client.index()].as_client().expect("a client").stats;
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
/// each kind of step whose medians differ by more than 5 %.
fn medians_off(best: &[f64], sim: &[f64]) -> Vec<String> {
    let steps = steps();
    let median_of = |kind: Step, latencies: &[f64]| {
        let at = steps.iter().zip(latencies);
        median(at.filter(|(s, _)| **s == kind).map(|(_, l)| *l).collect())
    };
    let off = ROUND.map(|kind| (kind, median_of(kind, best), median_of(kind, sim)));
    (off.into_iter())
        .filter(|(_, real, virt)| (real - virt).abs() > 0.05 * virt)
        .map(|(kind, real, virt)| format!("{kind:?}: median {real:.2} ms, simulated {virt}"))
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
            let at = steps().into_iter().zip(&threads.latencies);
            for ((step, &real), virt) in at.zip(&sim.latencies) {
                assert!(
                    real >= virt - 1.0,
                    "example {n}, {step:?}: {real:.2} ms on threads, simulated {virt}"
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
