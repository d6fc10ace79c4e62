//! Chaos testing: randomized operation + fault schedules, judged by the
//! shared history oracle.
//!
//! The schedule generator, the executor, and the invariant checks all
//! live in `wv-chaos` (re-exported here as `weighted_voting::chaos`) —
//! the same code the E9 campaign fans over thousands of seeds. These
//! tests pin a batch of seeds so the tier-1 suite exercises the full
//! fault surface (crashes, partitions, loss bursts, delay spikes,
//! duplication, live reconfigurations) on every run, and demonstrate the
//! oracle catching a planted bug when quorum intersection is broken.

use weighted_voting::chaos::oracle::check_trial;
use weighted_voting::chaos::schedule::ClusterSpec;
use weighted_voting::chaos::{generate, run_schedule, Violation};

const SERVERS: usize = 5;
const CLIENTS: usize = 2;

fn run_chaos(seed: u64) {
    let spec = ClusterSpec::majority(SERVERS, CLIENTS);
    let schedule = generate(&spec, seed);
    let run = run_schedule(&spec, &schedule);
    let violations = check_trial(&run);
    assert!(
        violations.is_empty(),
        "seed {seed:#x}: {} event(s), violations: {violations:?}",
        schedule.events.len()
    );
    assert!(run.quiesced, "seed {seed:#x}: run failed to quiesce");
}

#[test]
fn chaos_seed_batch_one() {
    for seed in [1u64, 2, 3, 4] {
        run_chaos(seed);
    }
}

#[test]
fn chaos_seed_batch_two() {
    for seed in [5u64, 6, 7, 8] {
        run_chaos(seed);
    }
}

#[test]
fn chaos_seed_batch_three() {
    for seed in [100u64, 2026, 0xDEAD, 0xBEEF] {
        run_chaos(seed);
    }
}

#[test]
fn the_oracle_catches_non_intersecting_quorums() {
    // r + w = N: read and write quorums need not share a representative,
    // so some seed quickly produces a stale read or a version fork. The
    // oracle — not a lucky assertion — must be what reports it.
    let spec = ClusterSpec::broken(SERVERS, CLIENTS, 2);
    let caught = (0..24u64).any(|i| {
        let schedule = generate(&spec, 0xBAD5EED ^ i);
        let run = run_schedule(&spec, &schedule);
        !check_trial(&run).is_empty()
    });
    assert!(caught, "24 seeds against r + w = N found no violation");
}

#[test]
fn violations_carry_structured_context() {
    // The oracle returns data, not panics: campaign code counts tags and
    // the shrinker compares violation sets across replays.
    let v = Violation::StaleRead {
        returned: 1,
        floor: 2,
    };
    assert_eq!(v.tag(), "stale_read");
    assert_eq!(
        v.to_string(),
        "stale read: returned v1 after v2 was acknowledged"
    );
}
