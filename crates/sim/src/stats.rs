//! Statistics collection for experiment reporting.
//!
//! [`SampleSet`] keeps every observation and answers exact quantiles —
//! right for per-operation latencies, where runs produce at most a few
//! million points.

/// An exact collector that retains every observation.
#[derive(Clone, Debug, Default)]
pub struct SampleSet {
    values: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.values.push(v);
            self.sorted = false;
        }
    }

    /// Number of observations recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Exact quantile by the nearest-rank method, or `None` when the series
    /// has fewer than two observations.
    ///
    /// A percentile of an empty series is undefined, and a percentile of a
    /// single sample is just that sample dressed up as a distribution —
    /// callers that would print either as a real quantile should show a
    /// blank instead. Use [`SampleSet::quantile`] when a best-effort scalar
    /// is acceptable.
    pub fn try_quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.len() < 2 {
            return None;
        }
        Some(self.quantile(q))
    }

    /// Exact quantile by the nearest-rank method; `q` in `[0, 1]`.
    ///
    /// Returns 0 on an empty series; prefer [`SampleSet::try_quantile`] when
    /// the caller can distinguish "no data" from a genuine zero.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite filtered at record"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.values.len() as f64).ceil() as usize).max(1) - 1;
        self.values[idx.min(self.values.len() - 1)]
    }

    /// Read-only view of the raw observations (unspecified order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Merges another sample set into this one.
    pub fn merge(&mut self, other: &SampleSet) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_set_exact_stats() {
        let mut s = SampleSet::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
    }

    #[test]
    fn sample_set_ignores_non_finite() {
        let mut s = SampleSet::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn sample_set_merge() {
        let mut a = SampleSet::new();
        let mut b = SampleSet::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), 2.0);
    }

    /// Everything a report reads off a sample set, for whole-set equality.
    fn points(s: &mut SampleSet) -> (usize, f64, [f64; 5]) {
        let qs = [0.0, 0.5, 0.95, 0.99, 1.0].map(|q| s.quantile(q));
        (s.len(), s.mean(), qs)
    }

    #[test]
    fn merge_empty_and_nonempty_commutes() {
        // empty ⊕ nonempty and nonempty ⊕ empty must agree: trial merging
        // folds whatever the workers produced, including idle workers.
        let mut filled = SampleSet::new();
        for v in [4.0, 1.0, 9.0] {
            filled.record(v);
        }
        let mut left = SampleSet::new();
        left.merge(&filled);
        let mut right = filled.clone();
        right.merge(&SampleSet::new());
        assert_eq!(points(&mut left), points(&mut right));
        assert_eq!(left.len(), 3);

        // Merging two empties stays empty and quantile-less.
        let mut ee = SampleSet::new();
        ee.merge(&SampleSet::new());
        assert!(ee.is_empty());
        assert_eq!(ee.try_quantile(0.5), None);
    }

    #[test]
    fn single_sample_quantiles_after_merge() {
        // Two single-sample sets merge into a real two-point distribution;
        // each alone still refuses to fake a percentile.
        let mut a = SampleSet::new();
        let mut b = SampleSet::new();
        a.record(10.0);
        b.record(30.0);
        assert_eq!(a.try_quantile(0.5), None);
        assert_eq!(b.try_quantile(0.5), None);
        a.merge(&b);
        assert_eq!(a.try_quantile(0.0), Some(10.0));
        assert_eq!(a.try_quantile(1.0), Some(30.0));
        assert_eq!(a.quantile(0.5), 10.0); // nearest-rank on n=2
    }

    #[test]
    fn merge_order_does_not_change_results() {
        // Workers may finish in any order; the runner merges in trial
        // index order, but the collectors themselves must not care.
        let chunks: [&[f64]; 3] = [&[5.0, 2.0], &[], &[8.0, 2.0, 11.0]];
        let build = |order: &[usize]| {
            let mut s = SampleSet::new();
            for &i in order {
                let mut cs = SampleSet::new();
                for &v in chunks[i] {
                    cs.record(v);
                }
                s.merge(&cs);
            }
            points(&mut s)
        };
        let forward = build(&[0, 1, 2]);
        for order in [[2, 1, 0], [1, 2, 0], [2, 0, 1], [0, 2, 1], [1, 0, 2]] {
            assert_eq!(build(&order), forward, "merge order {order:?} diverged");
        }
    }

    #[test]
    fn try_quantile_is_none_on_empty_and_single_sample() {
        let mut s = SampleSet::new();
        assert_eq!(s.try_quantile(0.5), None, "empty series has no percentile");
        s.record(42.0);
        assert_eq!(s.try_quantile(0.99), None, "one sample is not a quantile");
        s.record(43.0);
        assert_eq!(s.try_quantile(0.0), Some(42.0));
        assert_eq!(s.try_quantile(1.0), Some(43.0));
    }
}
