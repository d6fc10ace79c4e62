//! Campaign fan-out: thousands of seeded chaos trials, judged in parallel.
//!
//! A campaign draws one schedule per trial seed (via
//! [`crate::schedule::generate`]), replays it ([`crate::exec`]), and
//! judges the history ([`crate::oracle`]). Trials fan out over
//! [`wv_bench::runner::run_trials`], so the report is bit-identical at
//! any worker count: results come back in trial order and each trial's
//! randomness derives only from its own seed.
//!
//! Besides violations, a campaign reports *fault coverage* — every
//! trial's [`Tally`] summed, and how many trials actually exercised each
//! fault kind. A green campaign is only evidence if the faults really
//! happened.

use std::collections::BTreeMap;
use std::ops::AddAssign;

use wv_bench::runner;

use crate::exec::{run_schedule, Tally};
use crate::oracle::{check_trial, Violation};
use crate::schedule::{generate, ClusterSpec, Schedule};

/// What to run: cluster shape and how many trials.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Master seed; trial `i` runs with `runner::trial_seed(master, i)`.
    pub master_seed: u64,
    /// Number of trials.
    pub trials: usize,
    /// Cluster shape for every trial.
    pub spec: ClusterSpec,
}

/// One failing trial: its seed and what the oracle found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// The trial seed (regenerate the schedule with it to replay).
    pub seed: u64,
    /// Every violated invariant.
    pub violations: Vec<Violation>,
}

/// Fleet-wide coverage: the trials' tallies summed, and how many trials
/// saw each kind of thing happen at least once.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Every trial's [`Tally`], summed.
    pub total: Tally,
    /// Trials in which each name happened, for [`Coverage::trials_with`].
    seen: BTreeMap<&'static str, u64>,
}

impl AddAssign<&Tally> for Coverage {
    fn add_assign(&mut self, t: &Tally) {
        self.total += t;
        let blocked = t.quorum_blocked + t.attempts_quorum_blocked();
        let derived = [
            ("quorum_block", blocked),
            ("disk_fault", t.disk_faults),
            ("cross_suite_txn", t.cross_suite_txns),
        ];
        let counts = t.events.iter().map(|(&name, &n)| (name, n)).chain(derived);
        for (name, _) in counts.filter(|&(_, n)| n > 0) {
            *self.seen.entry(name).or_default() += 1;
        }
    }
}

impl Coverage {
    /// Trials in which `name` happened at least once: an event of that
    /// [`EventKind::name`](crate::schedule::EventKind::name) applied, or
    /// `quorum_block` (an attempt's inquiry timed out short of a quorum,
    /// whether or not a retry got through), `disk_fault` (any fault but
    /// a [`Fault::Net`](wv_core::Fault::Net) applied) or `cross_suite_txn`.
    pub fn trials_with(&self, name: &str) -> u64 {
        self.seen.get(name).copied().unwrap_or(0)
    }

    /// True when every fault kind fired in at least one trial — the bar a
    /// campaign must clear before "zero violations" means anything.
    pub fn all_fault_kinds_exercised(&self) -> bool {
        let kinds = "crash recover partition loss_burst delay_spike duplication quorum_block";
        kinds.split(' ').all(|name| self.trials_with(name) > 0)
    }
}

/// The campaign's verdict.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Trials run.
    pub trials: usize,
    /// Failing trials, in trial order (deterministic at any worker
    /// count).
    pub failures: Vec<TrialFailure>,
    /// Aggregated fault coverage.
    pub coverage: Coverage,
}

impl CampaignReport {
    /// True when no trial violated any invariant.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Violation counts grouped by tag, in tag order.
    pub fn violation_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for failure in &self.failures {
            for v in &failure.violations {
                *counts.entry(v.tag()).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }
}

/// The schedule trial `i` of a campaign runs (useful for replaying a
/// reported seed outside the campaign).
pub fn trial_schedule(cfg: &CampaignConfig, trial: u64) -> Schedule {
    generate(&cfg.spec, runner::trial_seed(cfg.master_seed, trial))
}

/// Runs the whole campaign, fanning trials over the deterministic
/// parallel runner. Generated schedules contain loss and delay dials, so
/// histories are judged in lossy (non-strict) mode.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let spec = cfg.spec;
    let results = runner::run_trials(cfg.master_seed, cfg.trials, |seed| {
        let schedule = generate(&spec, seed);
        let run = run_schedule(&spec, &schedule);
        let violations = check_trial(&run, false);
        (seed, violations, run.tally)
    });
    let mut coverage = Coverage::default();
    let mut failures = Vec::new();
    for (seed, violations, tally) in results {
        coverage += &tally;
        if !violations.is_empty() {
            failures.push(TrialFailure { seed, violations });
        }
    }
    CampaignReport {
        trials: cfg.trials,
        failures,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_healthy_campaign_is_clean_and_deterministic() {
        let cfg = CampaignConfig {
            master_seed: 0xC0FFEE,
            trials: 8,
            spec: ClusterSpec::majority(5, 2),
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert!(
            a.clean(),
            "healthy protocol must survive chaos; failures: {:?}",
            a.failures
                .iter()
                .map(|f| (f.seed, f.violations.clone()))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.coverage, b.coverage, "campaigns replay exactly");
        assert!(a.coverage.total.ops() > 0);
    }

    #[test]
    fn a_repair_enabled_campaign_is_clean_and_actually_repairs() {
        // Same seeds as the healthy campaign, but with the self-healing
        // layer on: anti-entropy plus health-tracked clients must not
        // introduce violations — and must actually repair something, or
        // "repair survived chaos" is vacuous.
        let cfg = CampaignConfig {
            master_seed: 0xC0FFEE,
            trials: 8,
            spec: ClusterSpec::majority(5, 2).with_repair(),
        };
        let report = run_campaign(&cfg);
        assert!(
            report.clean(),
            "self-healing must not break invariants; failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.violations.clone()))
                .collect::<Vec<_>>()
        );
        assert!(
            report.coverage.total.server.repairs_completed > 0,
            "eight chaotic trials with crashes and recoveries must trigger repair"
        );
    }

    #[test]
    fn a_cache_tier_campaign_is_clean_and_actually_serves_from_cache() {
        // Same seeds again, with a validated-mode weak representative on
        // every client: quorum-confirmed cache serves must not introduce
        // violations — including the staleness-bound invariant the arm
        // switches on — and must actually serve something from cache.
        let cfg = CampaignConfig {
            master_seed: 0xC0FFEE,
            trials: 8,
            spec: ClusterSpec::majority(5, 2).with_cache_tier(),
        };
        let report = run_campaign(&cfg);
        assert!(
            report.clean(),
            "cache tier must not break invariants; failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.violations.clone()))
                .collect::<Vec<_>>()
        );
        assert!(
            report.coverage.total.client.cache_hits > 0,
            "read-bearing chaos trials must land at least one cache hit"
        );
        assert!(
            report.coverage.total.client.cache_misses > 0,
            "cold caches mean the first fetch per suite is a miss"
        );
    }

    #[test]
    fn a_faulty_disk_campaign_is_clean_and_actually_injects() {
        // Same seeds once more with disks faulty: torn writes, one bit
        // flip per schedule, transient I/O errors, and sync stalls ride
        // the identical timelines. Checksummed recovery plus quarantine
        // must keep every invariant — and the tripwires must stay zero.
        let cfg = CampaignConfig {
            master_seed: 0xC0FFEE,
            trials: 8,
            spec: ClusterSpec::majority(5, 2).with_repair().with_disk_faults(),
        };
        let report = run_campaign(&cfg);
        assert!(
            report.clean(),
            "faulty disks must not break invariants; failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.violations.clone()))
                .collect::<Vec<_>>()
        );
        assert!(
            report.coverage.trials_with("disk_fault") > 0,
            "eight chaotic trials must inject at least one disk fault"
        );
        assert_eq!(report.coverage.total.server.poison_escapes, 0);
        assert_eq!(report.coverage.total.server.served_while_quarantined, 0);
    }

    #[test]
    fn a_multi_suite_campaign_is_clean_and_actually_crosses_suites() {
        // Same seeds, keyspace sharded four ways: per-suite traffic plus
        // cross-suite transactions ride identical fault timelines. The
        // per-suite oracle and the atomicity invariant must stay clean.
        let cfg = CampaignConfig {
            master_seed: 0xC0FFEE,
            trials: 8,
            spec: ClusterSpec::majority(5, 2).with_suites(4),
        };
        let report = run_campaign(&cfg);
        assert!(
            report.clean(),
            "sharding must not break invariants; failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.violations.clone()))
                .collect::<Vec<_>>()
        );
        assert!(
            report.coverage.total.cross_suite_txns > 0,
            "eight trials must start at least one cross-suite transaction"
        );
        assert!(report.coverage.trials_with("cross_suite_txn") > 0);
    }

    #[test]
    fn an_every_feature_campaign_is_clean_and_every_feature_fires() {
        // Every arm's feature at once over one set of fault timelines:
        // the single-feature campaigns above never compose them.
        let cfg = CampaignConfig {
            master_seed: 0xA11,
            trials: 256,
            spec: (crate::report::ARMS.iter())
                .fold(ClusterSpec::majority(5, 2), |s, a| (a.spec)(s)),
        };
        let report = run_campaign(&cfg);
        assert!(
            report.clean(),
            "composed features must not break invariants; failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.violations.clone()))
                .collect::<Vec<_>>()
        );
        let c = &report.coverage;
        for (feature, fired) in [
            ("cache_hits", c.total.client.cache_hits),
            ("repairs_completed", c.total.server.repairs_completed),
            ("wal_batches", c.total.server.wal_batches),
            ("quarantines", c.total.server.quarantines),
            ("cross_suite_txns", c.total.cross_suite_txns),
        ] {
            assert!(fired > 0, "{feature} never fired in 256 composed trials");
        }
    }

    #[test]
    fn a_broken_quorum_campaign_finds_violations() {
        // r + w = N: read and write quorums need not intersect, so once
        // crashes or partitions steer readers away from the writers'
        // replicas, stale reads surface.
        let cfg = CampaignConfig {
            master_seed: 0xBAD,
            trials: 24,
            spec: ClusterSpec::broken(5, 2, 2),
        };
        let report = run_campaign(&cfg);
        assert!(
            !report.clean(),
            "non-intersecting quorums must eventually violate an invariant"
        );
        // Failures identify their seed so the shrinker can take over.
        assert!(report.failures.iter().all(|f| !f.violations.is_empty()));
    }
}
