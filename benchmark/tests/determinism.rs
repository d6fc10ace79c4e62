//! Determinism self-tests at 1/50 scale: on the simulator the same seed
//! gives bit-identical counts and virtual-time metrics, another seed gives
//! other inputs, and the traced pass is the untraced system.

use std::path::PathBuf;

use wvbench::gen::Gen;
use wvbench::run::{self, Budget, Options, Outcome};
use wvbench::spec::{self, Transport};

const SCALE: usize = 50;
/// End-to-end metrics read off the virtual clock.
const VIRTUAL: [&str; 2] = ["tput_ops_per_s", "lat_p50_ms"];

fn run(name: &str, seed: u64, trace: bool) -> Outcome {
    let w = spec::workload(name).expect("known").scaled_down(SCALE);
    let opts = Options {
        seed,
        budget: Budget::Batches,
        trace,
        setups: 1,
        div: SCALE,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test-determinism"),
    };
    let out = run::run(&w, &opts);
    assert!(out.correct, "{name} seed {seed}: {:?}", out.violations);
    out
}

fn sim_workloads() -> Vec<&'static str> {
    spec::workloads()
        .iter()
        .filter(|w| w.transport == Transport::Sim)
        .map(|w| w.name)
        .collect()
}

#[test]
fn the_same_seed_repeats_bit_for_bit() {
    for name in sim_workloads() {
        let (a, b) = (run(name, 11, false), run(name, 11, false));
        assert_eq!(a.counts, b.counts, "{name}: counts differ between runs");
        assert!(!a.counts.is_empty());
        for m in VIRTUAL {
            assert_eq!(
                a.metrics[m].to_bits(),
                b.metrics[m].to_bits(),
                "{name}: {m} differs between runs"
            );
        }
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    for w in spec::workloads() {
        let (mut a, mut b) = (Gen::new(&w, 11), Gen::new(&w, 12));
        let inputs = |g: &mut Gen| -> Vec<(u16, u64, bool)> {
            g.arrivals(500, w.rates[0])
                .iter()
                .map(|o| (o.suite, o.due_us, o.tag == 0))
                .collect()
        };
        assert_ne!(inputs(&mut a), inputs(&mut b), "{}", w.name);
    }
    let (a, b) = (run("sim-write", 11, false), run("sim-write", 12, false));
    assert_ne!(a.counts, b.counts, "two seeds did the same work");
}

#[test]
fn the_traced_pass_is_the_untraced_system() {
    // `run` fails unless every traced batch reproduced the events, the
    // virtual duration and every counter of its untraced twin.
    for name in sim_workloads() {
        let (a, b) = (run(name, 11, true), run(name, 11, true));
        assert_eq!(
            a.counts, b.counts,
            "{name}: traced counts differ between runs"
        );
        for exact in [
            "sim.sched.events_per_op",
            "net.sim_net.msgs_per_op",
            "core.client.attempts_per_op",
            "offered.max_rate_in_slo",
        ] {
            assert_eq!(
                a.metrics[exact].to_bits(),
                b.metrics[exact].to_bits(),
                "{name}: {exact}"
            );
        }
        assert!(a.metrics["sim.sched.events_per_op"] > 0.0);
    }
}

#[test]
fn the_thread_workload_passes_the_gate() {
    let out = run("thread-mixed", 11, false);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
}
