//! Deterministic, forkable random-number streams.
//!
//! Every source of randomness in the repository flows through [`DetRng`] so
//! that an experiment is a pure function of its seed. Substreams are derived
//! with [`DetRng::fork`], which mixes a label into the parent seed; forking
//! gives each simulated site, link, and workload generator an independent
//! stream whose draws do not shift when an unrelated component consumes more
//! or fewer random numbers.
//!
//! The same mixing function is exposed as [`derive_seed`] so that batch
//! drivers (the parallel trial runner in `wv-bench`) can compute the seed of
//! trial *i* directly from `(master_seed, i)` without constructing
//! intermediate generators — the derivation is a pure function, which is what
//! makes a thread-pool fan-out bit-identical to a sequential loop.
//!
//! The generator itself is xoshiro256++ seeded through SplitMix64: small
//! state, fast, excellent statistical quality for simulation, and fully
//! self-contained (no external crates), so results are reproducible across
//! toolchains forever.

/// A seeded random stream with stable forking.
///
/// Wraps a xoshiro256++ generator (a small-state, fast, non-cryptographic
/// generator — exactly right for simulation) and remembers the seed it was
/// built from so that child streams can be derived reproducibly.
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
}

impl DetRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into 256 bits of state with SplitMix64, as
        // the xoshiro authors recommend; the expansion guarantees a nonzero
        // state for every seed.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        DetRng {
            seed,
            state: [next(), next(), next(), next()],
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child's seed depends only on the parent's *seed* and the label,
    /// not on how many values the parent has produced, so the set of
    /// substreams in a simulation is fixed at construction time.
    pub fn fork(&self, label: u64) -> DetRng {
        DetRng::new(derive_seed(self.seed, label))
    }

    /// Derives a child stream from a string label.
    pub fn fork_named(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.fork(h)
    }

    /// Draws a uniformly distributed `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniformly distributed `u64`.
    pub fn u64(&mut self) -> u64 {
        self.next()
    }

    /// Draws a uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection sampling on the top of the range keeps the draw unbiased
        // for every n, not just powers of two.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Draws from the exponential distribution with the given mean.
    ///
    /// Used for Poisson inter-arrival times and memoryless failure models.
    /// A non-positive mean yields zero.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF sampling; `1 - u` keeps the argument of `ln` nonzero.
        let u: f64 = self.f64();
        -mean * (1.0_f64 - u).ln()
    }

    /// Chooses a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.below(items.len() as u64) as usize;
            Some(&items[idx])
        }
    }

    /// Advances the xoshiro256++ state and returns the next output.
    fn next(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Derives an independent stream seed from a master seed and a label
/// (SplitMix64-style avalanche mix).
///
/// This is the pure function behind [`DetRng::fork`]: `derive_seed(m, i)`
/// equals `DetRng::new(m).fork(i).seed()` without touching a generator. A
/// trial driver can therefore hand trial *i* the seed `derive_seed(master,
/// i)` from any thread, in any order, and every trial sees exactly the
/// stream it would have seen in a sequential loop.
pub fn derive_seed(master_seed: u64, label: u64) -> u64 {
    let mut z = master_seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent1 = DetRng::new(7);
        let mut parent2 = DetRng::new(7);
        // Consume from parent2 before forking; the fork must be unaffected.
        for _ in 0..50 {
            parent2.u64();
        }
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        for _ in 0..20 {
            assert_eq!(c1.u64(), c2.u64());
        }
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let root = DetRng::new(1);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn named_forks_are_stable() {
        let root = DetRng::new(9);
        assert_eq!(
            root.fork_named("site-0").u64(),
            root.fork_named("site-0").u64()
        );
        assert_ne!(
            root.fork_named("site-0").seed(),
            root.fork_named("site-1").seed()
        );
    }

    #[test]
    fn derive_seed_matches_fork() {
        let root = DetRng::new(0xDEAD_BEEF);
        for label in [0u64, 1, 2, 999, u64::MAX] {
            assert_eq!(derive_seed(0xDEAD_BEEF, label), root.fork(label).seed());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean} too far from 10");
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn below_stays_below_its_bound() {
        let mut r = DetRng::new(19);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_small_n_covers_all_values() {
        let mut r = DetRng::new(29);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "coverage: {seen:?}");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = DetRng::new(23);
        let empty: &[u32] = &[];
        assert!(r.choose(empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }
}
