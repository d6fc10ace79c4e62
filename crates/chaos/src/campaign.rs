//! Campaign fan-out: thousands of seeded chaos trials, judged in parallel.
//!
//! A campaign draws one schedule per trial seed (via
//! [`crate::schedule::generate`]), replays it ([`crate::exec`]), and
//! judges the history ([`crate::oracle`]). Trials fan out over
//! [`wv_bench::runner::run_trials`], so the report is bit-identical at
//! any worker count: results come back in trial order and each trial's
//! randomness derives only from its own seed.
//!
//! Besides violations, a campaign reports *fault coverage* — how many
//! trials actually exercised each fault kind, how often operations were
//! quorum-blocked, how many recoveries and in-doubt resolutions ran. A
//! green campaign is only evidence if the faults really happened.

use wv_bench::runner;

use crate::exec::{run_schedule, TrialCoverage};
use crate::oracle::{check_trial, Violation};
use crate::schedule::{generate, ClusterSpec, Schedule, ScheduleParams};

/// What to run: cluster shape, schedule tunables, and how many trials.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Master seed; trial `i` runs with `runner::trial_seed(master, i)`.
    pub master_seed: u64,
    /// Number of trials.
    pub trials: usize,
    /// Cluster shape for every trial.
    pub spec: ClusterSpec,
    /// Schedule generation tunables.
    pub params: ScheduleParams,
}

/// One failing trial: its seed and what the oracle found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// The trial seed (regenerate the schedule with it to replay).
    pub seed: u64,
    /// Every violated invariant.
    pub violations: Vec<Violation>,
}

/// Fleet-wide coverage: per-kind trial counts and protocol totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Trials whose schedule crashed at least one server.
    pub trials_with_crash: u64,
    /// Trials that recovered at least one server mid-run.
    pub trials_with_recovery: u64,
    /// Trials that partitioned the network.
    pub trials_with_partition: u64,
    /// Trials that opened a link-loss burst.
    pub trials_with_loss: u64,
    /// Trials that opened a delay spike.
    pub trials_with_delay: u64,
    /// Trials that opened a duplication window.
    pub trials_with_duplication: u64,
    /// Trials that ran a mid-run reconfiguration.
    pub trials_with_reconfigure: u64,
    /// Trials that started at least one cross-suite transaction
    /// (multi-suite arms only).
    pub trials_with_cross_suite_txn: u64,
    /// Cross-suite transactions started across all trials.
    pub cross_suite_txns: u64,
    /// Trials where at least one attempt was quorum-blocked: its inquiry
    /// timed out short of a quorum, whether or not a retry got through.
    pub trials_with_quorum_block: u64,
    /// Operations attempted across all trials.
    pub ops_total: u64,
    /// Operations that succeeded.
    pub ops_ok: u64,
    /// Operations the progress invariant judged (they met no fault).
    pub ops_quiet: u64,
    /// Operations that failed `Unavailable` (quorum-blocked to the end).
    pub quorum_blocked: u64,
    /// Attempts retried after a quorum-blocked inquiry.
    pub attempts_quorum_blocked: u64,
    /// Operations that ended in doubt.
    pub indeterminate: u64,
    /// Phase timeouts across all clients and trials.
    pub timeouts: u64,
    /// Attempt retries across all clients and trials.
    pub retries: u64,
    /// Operations abandoned after exhausting the attempt budget.
    pub attempts_exhausted: u64,
    /// Messages dropped by link loss.
    pub dropped_link: u64,
    /// Extra deliveries caused by duplication.
    pub duplicated_msgs: u64,
    /// Suspicion-threshold crossings across all clients and trials.
    pub suspicions_raised: u64,
    /// Quorum plans reordered around suspected sites.
    pub reroutes: u64,
    /// Anti-entropy repairs installed across all servers and trials.
    pub repairs_completed: u64,
    /// Group-commit WAL sync batches flushed across all servers and trials.
    pub wal_batches: u64,
    /// WAL records made durable by those batched syncs.
    pub wal_batched_records: u64,
    /// Reads served from an attached weak representative.
    pub cache_hits: u64,
    /// Cache-tier reads that fell through to a data fetch.
    pub cache_misses: u64,
    /// Lease-mode reads that found their lease expired.
    pub lease_expiries: u64,
    /// Trials that injected at least one disk fault (any kind).
    pub trials_with_disk_fault: u64,
    /// Torn-write arms injected across all trials.
    pub torn_writes: u64,
    /// Bit-flip arms injected.
    pub bit_flips: u64,
    /// Transient I/O error injections.
    pub io_errors: u64,
    /// Disk-stall injections.
    pub disk_stalls: u64,
    /// Torn tails truncated during recovery.
    pub torn_truncations: u64,
    /// WAL records lost to detected interior corruption.
    pub corrupt_records_detected: u64,
    /// Replicas quarantined after detecting corruption.
    pub quarantines: u64,
    /// Quarantined replicas healed via full anti-entropy pulls.
    pub requarantine_repairs: u64,
    /// CRC-collision tripwire (stays zero).
    pub poison_escapes: u64,
    /// Served-while-quarantined tripwire (stays zero).
    pub served_while_quarantined: u64,
}

impl Coverage {
    fn absorb(&mut self, c: &TrialCoverage) {
        self.trials_with_crash += u64::from(c.crashes > 0);
        self.trials_with_recovery += u64::from(c.recoveries > 0);
        self.trials_with_partition += u64::from(c.partitions > 0);
        self.trials_with_loss += u64::from(c.loss_bursts > 0);
        self.trials_with_delay += u64::from(c.delay_spikes > 0);
        self.trials_with_duplication += u64::from(c.duplications > 0);
        self.trials_with_reconfigure += u64::from(c.reconfigures > 0);
        self.trials_with_cross_suite_txn += u64::from(c.cross_suite_txns > 0);
        self.cross_suite_txns += c.cross_suite_txns;
        self.trials_with_quorum_block +=
            u64::from(c.quorum_blocked + c.attempts_quorum_blocked > 0);
        self.attempts_quorum_blocked += c.attempts_quorum_blocked;
        self.ops_total += c.ops_ok + c.ops_failed;
        self.ops_ok += c.ops_ok;
        self.ops_quiet += c.ops_quiet;
        self.quorum_blocked += c.quorum_blocked;
        self.indeterminate += c.indeterminate;
        self.timeouts += c.timeouts;
        self.retries += c.retries;
        self.attempts_exhausted += c.attempts_exhausted;
        self.dropped_link += c.dropped_link;
        self.duplicated_msgs += c.duplicated_msgs;
        self.suspicions_raised += c.suspicions_raised;
        self.reroutes += c.reroutes;
        self.repairs_completed += c.repairs_completed;
        self.wal_batches += c.wal_batches;
        self.wal_batched_records += c.wal_batched_records;
        self.cache_hits += c.cache_hits;
        self.cache_misses += c.cache_misses;
        self.lease_expiries += c.lease_expiries;
        self.trials_with_disk_fault +=
            u64::from(c.torn_writes + c.bit_flips + c.io_errors + c.disk_stalls > 0);
        self.torn_writes += c.torn_writes;
        self.bit_flips += c.bit_flips;
        self.io_errors += c.io_errors;
        self.disk_stalls += c.disk_stalls;
        self.torn_truncations += c.torn_truncations;
        self.corrupt_records_detected += c.corrupt_records_detected;
        self.quarantines += c.quarantines;
        self.requarantine_repairs += c.requarantine_repairs;
        self.poison_escapes += c.poison_escapes;
        self.served_while_quarantined += c.served_while_quarantined;
    }

    /// True when every fault kind fired in at least one trial — the bar a
    /// campaign must clear before "zero violations" means anything.
    pub fn all_fault_kinds_exercised(&self) -> bool {
        self.trials_with_crash > 0
            && self.trials_with_recovery > 0
            && self.trials_with_partition > 0
            && self.trials_with_loss > 0
            && self.trials_with_delay > 0
            && self.trials_with_duplication > 0
            && self.trials_with_quorum_block > 0
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
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
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
    generate(
        &cfg.spec,
        &cfg.params,
        runner::trial_seed(cfg.master_seed, trial),
    )
}

/// Runs the whole campaign, fanning trials over the deterministic
/// parallel runner. Generated schedules contain loss and delay dials, so
/// histories are judged in lossy (non-strict) mode.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let spec = cfg.spec;
    let params = cfg.params;
    let results = runner::run_trials(cfg.master_seed, cfg.trials, |seed| {
        let schedule = generate(&spec, &params, seed);
        let run = run_schedule(&spec, &schedule);
        let violations = check_trial(&run, false);
        (seed, violations, run.coverage)
    });
    let mut coverage = Coverage::default();
    let mut failures = Vec::new();
    for (seed, violations, trial_coverage) in results {
        coverage.absorb(&trial_coverage);
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
            params: ScheduleParams::default(),
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
        assert!(a.coverage.ops_total > 0);
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
            params: ScheduleParams::default(),
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
            report.coverage.repairs_completed > 0,
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
            params: ScheduleParams::default(),
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
            report.coverage.cache_hits > 0,
            "read-bearing chaos trials must land at least one cache hit"
        );
        assert!(
            report.coverage.cache_misses > 0,
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
            params: ScheduleParams::default(),
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
            report.coverage.trials_with_disk_fault > 0,
            "eight chaotic trials must inject at least one disk fault"
        );
        assert_eq!(report.coverage.poison_escapes, 0);
        assert_eq!(report.coverage.served_while_quarantined, 0);
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
            params: ScheduleParams::default(),
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
            report.coverage.cross_suite_txns > 0,
            "eight trials must start at least one cross-suite transaction"
        );
        assert!(report.coverage.trials_with_cross_suite_txn > 0);
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
            params: ScheduleParams::default(),
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
            ("cache_hits", c.cache_hits),
            ("repairs_completed", c.repairs_completed),
            ("wal_batches", c.wal_batches),
            ("quarantines", c.quarantines),
            ("cross_suite_txns", c.cross_suite_txns),
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
            params: ScheduleParams {
                reconfigure: false,
                ..ScheduleParams::default()
            },
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
