//! Delay distributions for links and storage devices.
//!
//! The paper reports fixed representative-access latencies (75 ms for a
//! local file-system access, 65 ms for a weak representative on the local
//! machine, 100 ms for a server on the same network, 750 ms across the
//! internetwork). [`LatencyModel::Constant`] regenerates those tables
//! exactly; the stochastic variants let the availability and throughput
//! experiments add realistic jitter without changing any protocol code.

use crate::rng::DetRng;
use crate::time::SimDuration;

/// A distribution over non-negative delays.
#[derive(Clone, Debug, PartialEq)]
pub enum LatencyModel {
    /// Always exactly this long. Used for the paper-table regenerations.
    Constant(SimDuration),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Smallest possible delay.
        lo: SimDuration,
        /// Largest possible delay.
        hi: SimDuration,
    },
    /// `base` plus an exponential tail with the given mean; models a fixed
    /// propagation delay with memoryless queueing behind it.
    ShiftedExponential {
        /// The fixed propagation component.
        base: SimDuration,
        /// Mean of the exponential queueing tail.
        tail_mean: SimDuration,
    },
}

impl LatencyModel {
    /// A constant delay of `ms` milliseconds.
    pub const fn constant_millis(ms: u64) -> Self {
        LatencyModel::Constant(SimDuration::from_millis(ms))
    }

    /// Draws one delay.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform { lo, hi } => {
                if hi <= lo {
                    *lo
                } else {
                    let span = hi.as_micros() - lo.as_micros();
                    *lo + SimDuration::from_micros(rng.below(span + 1))
                }
            }
            LatencyModel::ShiftedExponential { base, tail_mean } => {
                let tail = rng.exponential(tail_mean.as_millis_f64());
                *base + SimDuration::from_millis_f64(tail)
            }
        }
    }

    /// The exact expected value of the distribution, in milliseconds.
    ///
    /// The analytic models in `wv-analysis` use this to predict the latency
    /// rows of the paper tables without running the simulator.
    pub fn mean_millis(&self) -> f64 {
        match self {
            LatencyModel::Constant(d) => d.as_millis_f64(),
            LatencyModel::Uniform { lo, hi } => (lo.as_millis_f64() + hi.as_millis_f64()) / 2.0,
            LatencyModel::ShiftedExponential { base, tail_mean } => {
                base.as_millis_f64() + tail_mean.as_millis_f64()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(0xD15F)
    }

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::constant_millis(75);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(75));
        }
        assert_eq!(m.mean_millis(), 75.0);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_millis(10),
            hi: SimDuration::from_millis(20),
        };
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(&mut r);
            assert!(d >= SimDuration::from_millis(10) && d <= SimDuration::from_millis(20));
        }
        assert_eq!(m.mean_millis(), 15.0);
    }

    #[test]
    fn uniform_degenerate_range() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_millis(5),
            hi: SimDuration::from_millis(5),
        };
        assert_eq!(m.sample(&mut rng()), SimDuration::from_millis(5));
    }

    #[test]
    fn shifted_exponential_respects_base() {
        let m = LatencyModel::ShiftedExponential {
            base: SimDuration::from_millis(100),
            tail_mean: SimDuration::from_millis(10),
        };
        let mut r = rng();
        let mut sum = 0.0;
        let n = 5000;
        for _ in 0..n {
            let d = m.sample(&mut r);
            assert!(d >= SimDuration::from_millis(100));
            sum += d.as_millis_f64();
        }
        let mean = sum / n as f64;
        assert!((mean - 110.0).abs() < 2.0, "mean {mean}");
        assert_eq!(m.mean_millis(), 110.0);
    }
}
