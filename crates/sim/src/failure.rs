//! Crash/recovery schedules for availability experiments.
//!
//! The paper's blocking-probability analysis assumes each representative is
//! independently unavailable with some probability (0.01 in the example
//! table). Experiments that sample one up/down pattern per trial draw it
//! inline; this module realises the continuous-time version:
//! [`FailureSchedule::mttf_mttr`] alternates exponentially distributed up
//! and down intervals, whose long-run unavailability is
//! `mttr / (mttf + mttr)`.
//!
//! A schedule is a set of [`OutageWindow`]s per site, queried with
//! [`FailureSchedule::is_down`].

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// A half-open interval `[from, until)` during which a site is down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutageWindow {
    /// First instant of the outage.
    pub from: SimTime,
    /// First instant after the outage ends.
    pub until: SimTime,
}

impl OutageWindow {
    /// True if `t` falls inside the outage.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }

    /// Length of the outage.
    pub fn length(&self) -> SimDuration {
        self.until.since(self.from)
    }
}

/// Per-site outage windows over a simulation horizon.
#[derive(Clone, Debug, Default)]
pub struct FailureSchedule {
    outages: Vec<Vec<OutageWindow>>,
}

impl FailureSchedule {
    /// A schedule for `sites` sites with no outages.
    pub fn none(sites: usize) -> Self {
        FailureSchedule {
            outages: vec![Vec::new(); sites],
        }
    }

    /// Number of sites covered by the schedule.
    pub fn sites(&self) -> usize {
        self.outages.len()
    }

    /// Adds an explicit outage window for `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range, the window is empty/inverted, or
    /// it overlaps one of the site's windows: the first window's recovery
    /// would end the outage the second one still counts. Touching windows
    /// (one ends where the next begins) are fine.
    pub fn add_outage(&mut self, site: usize, from: SimTime, until: SimTime) {
        assert!(site < self.outages.len(), "site {site} out of range");
        assert!(from < until, "outage window must be non-empty");
        // The windows are sorted and disjoint, so their ends are sorted
        // too: only the first that ends after `from` can overlap.
        let windows = &mut self.outages[site];
        let at = windows.partition_point(|w| w.until <= from);
        if let Some(next) = windows.get(at) {
            assert!(until <= next.from, "outage window overlaps {next:?}");
        }
        windows.insert(at, OutageWindow { from, until });
    }

    /// A continuous-time schedule: each site alternates exponentially
    /// distributed up intervals (mean `mttf`) and down intervals (mean
    /// `mttr`), independently, until `horizon`.
    pub fn mttf_mttr(
        sites: usize,
        mttf: SimDuration,
        mttr: SimDuration,
        horizon: SimTime,
        rng: &mut DetRng,
    ) -> Self {
        let mut s = FailureSchedule::none(sites);
        for site in 0..sites {
            let mut site_rng = rng.fork(site as u64 + 1);
            let mut t = SimTime::ZERO;
            loop {
                let up = SimDuration::from_millis_f64(site_rng.exponential(mttf.as_millis_f64()));
                t += up;
                if t >= horizon {
                    break;
                }
                let down_len =
                    SimDuration::from_millis_f64(site_rng.exponential(mttr.as_millis_f64()))
                        .max(SimDuration::from_micros(1));
                let end = (t + down_len).min(horizon);
                if t < end {
                    s.add_outage(site, t, end);
                }
                t = end;
                if t >= horizon {
                    break;
                }
            }
        }
        s
    }

    /// True if `site` is down at instant `t`. Sites outside the schedule
    /// are considered up.
    pub fn is_down(&self, site: usize, t: SimTime) -> bool {
        self.outages
            .get(site)
            .is_some_and(|ws| ws.iter().any(|w| w.contains(t)))
    }

    /// The outage windows recorded for `site`.
    pub fn windows(&self, site: usize) -> &[OutageWindow] {
        self.outages.get(site).map_or(&[], |v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_windows_answer_is_down() {
        let mut s = FailureSchedule::none(2);
        s.add_outage(0, SimTime::from_millis(10), SimTime::from_millis(20));
        assert!(!s.is_down(0, SimTime::from_millis(9)));
        assert!(s.is_down(0, SimTime::from_millis(10)));
        assert!(s.is_down(0, SimTime::from_millis(19)));
        assert!(!s.is_down(0, SimTime::from_millis(20)));
        assert!(!s.is_down(1, SimTime::from_millis(15)));
        // Unknown sites are up.
        assert!(!s.is_down(99, SimTime::from_millis(15)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_window_rejected() {
        let mut s = FailureSchedule::none(1);
        s.add_outage(0, SimTime::from_millis(20), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_windows_rejected() {
        let mut s = FailureSchedule::none(1);
        s.add_outage(0, SimTime::from_millis(1), SimTime::from_millis(5));
        s.add_outage(0, SimTime::from_millis(3), SimTime::from_millis(8));
    }

    #[test]
    fn touching_windows_accepted() {
        let mut s = FailureSchedule::none(2);
        let ms = SimTime::from_millis;
        s.add_outage(0, ms(5), ms(8));
        s.add_outage(0, ms(1), ms(5));
        // Another site's window may overlap freely.
        s.add_outage(1, ms(3), ms(8));
        let windows: Vec<_> = s.windows(0).iter().map(|w| (w.from, w.until)).collect();
        assert_eq!(windows, [(ms(1), ms(5)), (ms(5), ms(8))]);
        assert!((1..8).all(|t| s.is_down(0, ms(t))));
        assert!(!s.is_down(0, ms(8)));
    }

    #[test]
    fn mttf_mttr_long_run_unavailability() {
        let mut rng = DetRng::new(123);
        let horizon = SimTime::from_secs(50_000);
        let mttf = SimDuration::from_secs(90);
        let mttr = SimDuration::from_secs(10);
        let s = FailureSchedule::mttf_mttr(4, mttf, mttr, horizon, &mut rng);
        for site in 0..4 {
            // The generator clips its windows at the horizon.
            let down: u64 = s.windows(site).iter().map(|w| w.length().as_micros()).sum();
            let frac = down as f64 / horizon.as_micros() as f64;
            // Long-run unavailability should approach mttr/(mttf+mttr) = 0.1.
            assert!((frac - 0.1).abs() < 0.03, "site {site} downtime {frac}");
        }
    }

    #[test]
    fn mttf_mttr_empirical_interval_means_match_the_parameters() {
        // The long-run-fraction test above can pass with compensating
        // errors (e.g. doubled up AND down intervals). Pin the generator
        // down harder: the empirical means of the up and down intervals
        // themselves must match mttf and mttr. Down samples are window
        // lengths; up samples are the gaps between windows (including the
        // lead-in to the first). Intervals cut short by the horizon are
        // censored observations, not exponential draws, so they are
        // excluded.
        let mttf = SimDuration::from_secs(40);
        let mttr = SimDuration::from_secs(5);
        let horizon = SimTime::from_secs(4_000);
        let mut up_ms = Vec::new();
        let mut down_ms = Vec::new();
        for seed in 0..50u64 {
            let mut rng = DetRng::new(0x5EED ^ seed);
            let s = FailureSchedule::mttf_mttr(2, mttf, mttr, horizon, &mut rng);
            for site in 0..2 {
                let mut prev_end = SimTime::ZERO;
                for w in s.windows(site) {
                    up_ms.push(w.from.since(prev_end).as_millis_f64());
                    if w.until < horizon {
                        down_ms.push(w.length().as_millis_f64());
                    }
                    prev_end = w.until;
                }
            }
        }
        // ~90 cycles per site per seed: thousands of samples, so the
        // standard error of each mean is ~1% — a 10% band only fails on a
        // real generator bug, not on sampling noise.
        assert!(up_ms.len() > 2_000, "only {} up samples", up_ms.len());
        assert!(down_ms.len() > 2_000, "only {} down samples", down_ms.len());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let up_mean = mean(&up_ms);
        let down_mean = mean(&down_ms);
        let mttf_ms = mttf.as_millis_f64();
        let mttr_ms = mttr.as_millis_f64();
        assert!(
            (up_mean - mttf_ms).abs() < 0.1 * mttf_ms,
            "mean up interval {up_mean} ms vs mttf {mttf_ms} ms"
        );
        assert!(
            (down_mean - mttr_ms).abs() < 0.1 * mttr_ms,
            "mean down interval {down_mean} ms vs mttr {mttr_ms} ms"
        );
    }

    #[test]
    fn mttf_mttr_windows_are_within_horizon_and_ordered() {
        let mut rng = DetRng::new(9);
        let horizon = SimTime::from_secs(100);
        let s = FailureSchedule::mttf_mttr(
            3,
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
            horizon,
            &mut rng,
        );
        for site in 0..3 {
            let ws = s.windows(site);
            for w in ws {
                assert!(w.from < w.until);
                assert!(w.until <= horizon);
            }
            for pair in ws.windows(2) {
                assert!(pair[0].until <= pair[1].from, "overlapping outages");
            }
        }
    }

    #[test]
    fn outage_window_helpers() {
        let w = OutageWindow {
            from: SimTime::from_millis(5),
            until: SimTime::from_millis(9),
        };
        assert_eq!(w.length(), SimDuration::from_millis(4));
        assert!(w.contains(SimTime::from_millis(5)));
        assert!(!w.contains(SimTime::from_millis(9)));
    }
}
