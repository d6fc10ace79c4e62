//! Deterministic parallel trial engine.
//!
//! Every experiment regenerator runs many independent trials (Monte-Carlo
//! availability samples, per-trial protocol clusters, sweep points). The
//! functions here fan that work out over a scoped thread pool while keeping
//! the output **bit-identical to a sequential loop, for any worker count**:
//!
//! * each trial's RNG seed is a *pure function* of `(master_seed,
//!   trial_index)` — [`trial_seed`], a SplitMix64-style avalanche mix shared
//!   with [`wv_sim::DetRng::fork`] — so no trial's randomness depends on
//!   which thread ran it, in what order, or what ran before it;
//! * results are collected by trial index and returned in trial order.
//!
//! The pool is `std::thread::scope`, not a work-stealing runtime: trials are
//! coarse (each typically builds and drives a whole simulated cluster), so a
//! shared atomic counter hands out indices with no contention worth
//! stealing, and the standard library keeps the build dependency-free.
//!
//! The worker count defaults to the machine's available parallelism and can
//! be pinned for a whole process with the `WV_TRIAL_THREADS` environment
//! variable, or for one closure with [`with_workers`] (the determinism
//! tests run the same sweep at 1, 2, and 8 workers and demand
//! byte-identical reports).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use wv_sim::derive_seed;

/// The RNG seed for trial `trial_index` of a run with `master_seed`.
///
/// Pure and cheap (a few shifts and multiplies): callers may evaluate it
/// from any thread, in any order. Delegates to [`wv_sim::derive_seed`], the
/// same mix [`wv_sim::DetRng::fork`] uses, so a trial seeded this way sees
/// exactly the stream `DetRng::new(master_seed).fork(trial_index)` would.
pub fn trial_seed(master_seed: u64, trial_index: u64) -> u64 {
    derive_seed(master_seed, trial_index)
}

thread_local! {
    /// The [`with_workers`] pin of the calling thread, if any.
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with every fan-out it starts pinned to `workers` threads
/// (at least 1), nested fan-outs included; the previous pin comes back
/// when `f` returns. The pin belongs to the calling thread, so
/// concurrently running tests cannot disturb each other's sweeps the
/// way a process-global environment variable would.
pub fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    let previous = PINNED.replace(Some(workers.max(1)));
    let out = f();
    PINNED.set(previous);
    out
}

/// Parses a `WV_TRIAL_THREADS` value: a count, clamped to at least 1.
fn parse_workers(raw: &str) -> Result<usize, std::num::ParseIntError> {
    raw.trim().parse::<usize>().map(|n| n.max(1))
}

/// The number of worker threads a fan-out will use: the calling thread's
/// [`with_workers`] pin, else `WV_TRIAL_THREADS`, else the machine's
/// available parallelism (1 if unknown). A `WV_TRIAL_THREADS` that is not
/// a count is reported once and ignored.
pub fn worker_threads() -> usize {
    if let Some(n) = PINNED.get() {
        return n;
    }
    if let Ok(raw) = std::env::var("WV_TRIAL_THREADS") {
        match parse_workers(&raw) {
            Ok(n) => return n,
            Err(e) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| eprintln!("ignoring WV_TRIAL_THREADS={raw:?}: {e}"));
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `n_trials` independent trials of `f`, handing trial *i* the seed
/// [`trial_seed`]`(master_seed, i)`, and returns the results in trial order.
///
/// Trials run concurrently on [`worker_threads`] scoped threads; because
/// each trial's seed is derived, not drawn from a shared stream, the output
/// is bit-identical for every worker count (including 1). `f` must be a
/// pure function of its seed — it must not read other mutable state, which
/// is also what makes it safe to call from any thread.
pub fn run_trials<T: Send>(
    master_seed: u64,
    n_trials: usize,
    f: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    run_trials_indexed(master_seed, n_trials, |_, seed| f(seed))
}

/// Like [`run_trials`], but the closure also receives the trial index.
///
/// Sweeps use the index to pick the grid point (quorum spec, write
/// fraction, client count) while the derived seed drives the randomness.
pub fn run_trials_indexed<T: Send>(
    master_seed: u64,
    n_trials: usize,
    f: impl Fn(usize, u64) -> T + Sync,
) -> Vec<T> {
    fan_out(n_trials, |i| f(i, trial_seed(master_seed, i as u64)))
}

/// Deterministic indexed fan-out without seed derivation: runs `f(i)` for
/// `i in 0..n_tasks` on the worker pool, results in index order.
///
/// For embarrassingly parallel *deterministic* work (closed-form searches,
/// fixed-seed sweep points) where the caller manages any seeding itself.
pub fn run_tasks<T: Send>(n_tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    fan_out(n_tasks, f)
}

/// The shared fan-out core: claim indices from an atomic counter, stash
/// `(index, result)` per worker, merge in index order.
fn fan_out<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let pinned = PINNED.get();
    let workers = worker_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // A trial that fans out again obeys the caller's pin.
                    PINNED.set(pinned);
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
    for bucket in &mut buckets {
        indexed.append(bucket);
    }
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_trial_order() {
        let out = run_trials_indexed(9, 100, |i, seed| (i, seed));
        for (i, (idx, seed)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*seed, trial_seed(9, i as u64));
        }
    }

    #[test]
    fn trial_seeds_match_det_rng_fork() {
        let root = wv_sim::DetRng::new(1234);
        for i in 0..32u64 {
            assert_eq!(trial_seed(1234, i), root.fork(i).seed());
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        // The same computation through the pool and through a plain loop.
        let parallel = run_trials(77, 500, |seed| {
            let mut rng = wv_sim::DetRng::new(seed);
            rng.u64() ^ rng.u64()
        });
        let sequential: Vec<u64> = (0..500u64)
            .map(|i| {
                let mut rng = wv_sim::DetRng::new(trial_seed(77, i));
                rng.u64() ^ rng.u64()
            })
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn empty_and_single_trial_edge_cases() {
        assert!(run_trials(1, 0, |s| s).is_empty());
        assert_eq!(run_trials(1, 1, |s| s), vec![trial_seed(1, 0)]);
    }

    #[test]
    fn with_workers_pins_this_thread_and_its_trials_only() {
        let ambient = worker_threads();
        let seen = with_workers(3, || {
            assert_eq!(worker_threads(), 3);
            assert_eq!(with_workers(0, worker_threads), 1, "clamped, nested");
            assert_eq!(worker_threads(), 3, "outer pin restored");
            // Trials run on pool threads: the pin must follow them there,
            // and must not leak to a thread that never asked for it.
            let unpinned = std::thread::scope(|s| s.spawn(worker_threads).join());
            assert_eq!(unpinned.expect("no panic"), ambient);
            run_tasks(6, |_| worker_threads())
        });
        assert_eq!(seen, vec![3; 6]);
        assert_eq!(worker_threads(), ambient, "pin released");
    }

    #[test]
    fn a_trial_threads_value_is_a_count_or_an_error() {
        assert_eq!(parse_workers(" 4 "), Ok(4));
        assert_eq!(parse_workers("0"), Ok(1));
        for garbage in ["", "two", "-1", "1.5"] {
            assert!(parse_workers(garbage).is_err(), "{garbage:?} is no count");
        }
    }

    #[test]
    fn seed_derivation_has_no_collisions_over_1e5_consecutive_indices() {
        let mut seen = std::collections::HashSet::with_capacity(100_000);
        for i in 0..100_000u64 {
            assert!(
                seen.insert(trial_seed(0xD15C0, i)),
                "trial_seed collision at index {i}"
            );
        }
        // The derived seeds must also be distinct from the master itself —
        // a fixed point would correlate a trial with its parent stream.
        assert!(!seen.contains(&0xD15C0));
    }

    #[test]
    fn tasks_preserve_index_order() {
        let out = run_tasks(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }
}
