//! Parallel Monte-Carlo estimation on top of the deterministic trial runner.
//!
//! `wv_analysis::simulate_quorum_availability` is a tight sequential
//! sampling loop; the experiments call it with hundreds of thousands of
//! trials per table cell. [`availability`] splits such a request into
//! fixed-size chunks — one derived seed per chunk via
//! [`crate::runner::trial_seed`] — and fans the chunks out over the worker
//! pool. The chunking is a function of the trial count alone, never of the
//! worker count, so the estimate is bit-identical on any machine at any
//! parallelism.

use wv_analysis::simulate_quorum_availability;
use wv_core::votes::VoteAssignment;
use wv_sim::DetRng;

use crate::runner;

/// Trials per chunk: big enough that chunk overhead (one `DetRng`, one
/// result) vanishes, small enough that every core gets work on the trial
/// counts the experiments use (150k–400k).
const CHUNK: u64 = 12_500;

/// Monte-Carlo estimate of the probability that the up-site votes reach
/// `needed`, over `trials` samples fanned out in deterministic chunks.
///
/// Equivalent to one `simulate_quorum_availability` call with a per-chunk
/// derived seed; the result does not depend on the worker count.
pub fn availability(
    assignment: &VoteAssignment,
    needed: u32,
    up: &[f64],
    trials: u64,
    master_seed: u64,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    let n_chunks = trials.div_ceil(CHUNK) as usize;
    let estimates = runner::run_trials_indexed(master_seed, n_chunks, |i, seed| {
        let chunk_trials = CHUNK.min(trials - i as u64 * CHUNK);
        let mut rng = DetRng::new(seed);
        (
            simulate_quorum_availability(assignment, needed, up, chunk_trials, &mut rng),
            chunk_trials,
        )
    });
    let mut weighted = 0.0;
    for (est, chunk_trials) in estimates {
        weighted += est * chunk_trials as f64;
    }
    weighted / trials as f64
}

/// The blocking probability (`1 -` [`availability`]).
pub fn blocking(
    assignment: &VoteAssignment,
    needed: u32,
    up: &[f64],
    trials: u64,
    master_seed: u64,
) -> f64 {
    1.0 - availability(assignment, needed, up, trials, master_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_analysis::quorum_availability;

    #[test]
    fn estimate_tracks_the_exact_value() {
        let a = VoteAssignment::equal(3);
        let up = [0.8, 0.7, 0.95];
        let exact = quorum_availability(&a, 2, &up);
        let est = availability(&a, 2, &up, 100_000, 42);
        assert!((est - exact).abs() < 0.01, "est {est} vs exact {exact}");
    }

    #[test]
    fn chunking_is_worker_independent() {
        let a = VoteAssignment::equal(5);
        let up = [0.9; 5];
        let at = |workers| runner::with_workers(workers, || availability(&a, 3, &up, 50_000, 7));
        assert_eq!(at(1).to_bits(), at(8).to_bits());
    }

    #[test]
    fn partial_final_chunk_is_counted_once() {
        // 30k trials = 2 full chunks + one 5k chunk; weights must sum right.
        let a = VoteAssignment::equal(3);
        let up = [1.0; 3];
        assert_eq!(availability(&a, 2, &up, 30_000, 1), 1.0);
        assert_eq!(blocking(&a, 2, &up, 30_000, 1), 0.0);
    }
}
