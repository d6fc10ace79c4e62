//! Worker-count invariance of every experiment report.
//!
//! Trials fan out over `wv_bench::runner`, whose contract is
//! bit-identical output at any worker count: each trial's seed is a pure
//! function of `(master_seed, trial_index)` and results merge in trial
//! order. These tests pin that contract on the whole pipeline — report
//! text and artifact included — for every row of the registry, and on a
//! campaign's failure list. Every row's histories must also pass the
//! oracle.

use wv_bench::runner::with_workers;
use wv_chaos::experiments::{Size, EXPERIMENTS};
use wv_chaos::schedule::ClusterSpec;
use wv_chaos::{run_campaign, CampaignConfig};

#[test]
fn every_report_is_byte_identical_at_1_2_and_8_workers() {
    for e in &EXPERIMENTS {
        let one = with_workers(1, || e.run(Size::Smoke));
        for workers in [2, 8] {
            let many = with_workers(workers, || e.run(Size::Smoke));
            assert!(one == many, "{}: {workers} workers diverged", e.id);
        }
        assert_eq!(
            one.violations,
            [] as [String; 0],
            "{}: the oracle's verdict",
            e.id
        );
        let heading = format!("## {} ", e.id.to_uppercase());
        assert!(
            one.markdown.starts_with(&heading),
            "{}: a report opens with its heading:\n{}",
            e.id,
            one.markdown
        );
    }
}

#[test]
fn a_broken_campaign_is_bit_identical_at_1_2_and_8_workers() {
    // The broken spec guarantees a mix of clean and violating trials, so
    // the comparison covers failure collection order, not just counters.
    let run = || {
        let cfg = CampaignConfig {
            master_seed: 0xBAD,
            trials: 64,
            spec: ClusterSpec::broken(5, 2, 2),
        };
        let report = run_campaign(&cfg);
        (
            report.failures.clone(),
            report.coverage.clone(),
            report.violation_histogram(),
        )
    };
    let one = with_workers(1, run);
    let two = with_workers(2, run);
    let eight = with_workers(8, run);
    assert_eq!(one, two, "2 workers diverged from sequential");
    assert_eq!(one, eight, "8 workers diverged from sequential");
    assert!(!one.0.is_empty(), "sanity: the broken spec found failures");
}
