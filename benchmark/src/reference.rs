//! The interleaved reference loop that takes the box's speed.
//!
//! On a shared box, neighbours slow everything down by tens of percent for
//! minutes at a time - longer than a run - so no statistic over one run's
//! batches can see through it. A fixed loop of the benchmark's own, with
//! an instruction mix like the system's (ordered and hashed maps, small
//! allocations), runs right after every timed batch and every set-up. Each
//! wall-clock reading is divided by how much slower than [`NOMINAL_NS`]
//! the loop ran next to it, and the median of those ratios is reported:
//! on a quiet box that is the raw time, on a busy one it is the time the
//! quiet box would have shown. On this box the raw lower decile of ten
//! runs spread over 27% of its median, the normalised median over 7%.
//!
//! The loop touches no code of the system, so no change to the system can
//! move it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds one step of the loop takes on this box when it is quiet.
pub const NOMINAL_NS: f64 = 270.0;
/// Steps per sample: about 6 ms.
const STEPS: u64 = 20_000;
/// Keys the maps hold.
const KEYS: u64 = 4096;

pub struct Reference {
    ordered: BTreeMap<u64, Vec<u8>>,
    counts: HashMap<u64, u64>,
    x: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A loop whose maps are already at their steady size.
    pub fn new() -> Reference {
        let mut r = Reference {
            ordered: BTreeMap::new(),
            counts: HashMap::new(),
            x: 0x5EED,
        };
        for _ in 0..4 {
            r.sample();
        }
        r
    }

    /// Runs the loop once; nanoseconds per step.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..STEPS {
            self.x = wv_sim::derive_seed(self.x, 3);
            let x = self.x;
            let k = x % KEYS;
            self.ordered
                .insert(k, vec![x as u8; 32 + (x % 200) as usize]);
            *self.counts.entry(k ^ 0x55).or_insert(0) += 1;
            if let Some(v) = self.ordered.get(&(k / 2)) {
                black_box(v.len());
            }
            if x % 3 == 0 {
                self.ordered.remove(&((x >> 20) % KEYS));
            }
        }
        t.elapsed().as_nanos() as f64 / STEPS as f64
    }

    /// Runs the loop once; how many times slower than nominal it ran.
    pub fn slowdown(&mut self) -> f64 {
        self.sample() / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_reaches_a_steady_state() {
        let mut r = Reference::new();
        let before = r.ordered.len();
        for _ in 0..3 {
            assert!(r.sample() > 0.0);
        }
        let after = r.ordered.len();
        assert!(
            before > 1000 && after.abs_diff(before) < 400,
            "{before} -> {after}"
        );
    }
}
