//! E2 — the quorum spectrum: read-one/write-all ↔ majority ↔ read-all/
//! write-one, over one vote assignment.
//!
//! Five equal-vote representatives with heterogeneous access costs
//! (75/100/100/750/750 ms). Sweeping `r` with `w = N + 1 - r` traces the
//! paper's design space: small `r` buys cheap reads at the price of
//! expensive, fragile writes, and vice versa. Analytic columns come from
//! `wv-analysis`; simulated columns from driving the protocol; the last
//! column is the cheapest-first vs random quorum-selection ablation.

use wv_analysis::{quorum_availability, read_latency_verified, write_latency, SystemModel};
use wv_core::client::{ClientOptions, QuorumPolicy};
use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_core::votes::VoteAssignment;
use wv_sim::{SampleSet, SimDuration};

use crate::runner;
use crate::table::{ms, prob, Table};
use crate::topo::client_star;

/// Access costs of the five representatives.
pub const COSTS: [f64; 5] = [75.0, 100.0, 100.0, 750.0, 750.0];

/// Per-site availability used for the availability columns.
pub const P_UP: f64 = 0.9;

fn build(r: u32, w: u32, policy: QuorumPolicy, seed: u64) -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::new(r, w))
        .client_options(ClientOptions {
            quorum_policy: policy,
            ..ClientOptions::default()
        });
    for _ in 0..5 {
        b = b.site(SiteSpec::server(1));
    }
    b.client()
        .net(client_star(&COSTS, None))
        .build()
        .expect("spectrum point is legal")
}

/// Measured mean latencies for one `(r, w)` point.
#[derive(Clone, Copy, Debug)]
pub struct SpectrumPoint {
    /// Read quorum size.
    pub r: u32,
    /// Write quorum size.
    pub w: u32,
    /// Mean simulated read latency (cheapest-first policy).
    pub read_ms: f64,
    /// Mean simulated write latency, as the caller sees it: the prepare
    /// round alone where `2w > N`; inquiry, prepare and commit round where
    /// write quorums need not intersect.
    pub write_ms: f64,
    /// Mean simulated read latency under the random policy.
    pub read_random_ms: f64,
}

/// Runs one spectrum point.
pub fn measure_point(r: u32, w: u32, seed: u64) -> SpectrumPoint {
    let mut reads = SampleSet::new();
    let mut writes = SampleSet::new();
    let mut reads_random = SampleSet::new();
    {
        let mut h = build(r, w, QuorumPolicy::CheapestFirst, seed);
        let suite = h.suite_id();
        for i in 0..8u32 {
            let wr = h.write(suite, i.to_le_bytes().to_vec()).expect("write");
            writes.record(wr.latency.as_millis_f64());
            h.advance(SimDuration::from_secs(1));
            let rd = h.read(suite).expect("read");
            reads.record(rd.latency.as_millis_f64());
            h.advance(SimDuration::from_secs(1));
        }
    }
    {
        let mut h = build(r, w, QuorumPolicy::Random, seed ^ 0x5a5a);
        let suite = h.suite_id();
        h.write(suite, b"seed".to_vec()).expect("write");
        h.advance(SimDuration::from_secs(1));
        for _ in 0..16 {
            let rd = h.read(suite).expect("read");
            reads_random.record(rd.latency.as_millis_f64());
            h.advance(SimDuration::from_secs(1));
        }
    }
    SpectrumPoint {
        r,
        w,
        read_ms: reads.mean(),
        write_ms: writes.mean(),
        read_random_ms: reads_random.mean(),
    }
}

/// Builds the E2 report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("## E2 — Quorum spectrum over five equal-vote representatives\n\n");
    out.push_str(&format!(
        "Access costs {COSTS:?} ms, per-site availability {P_UP}. \
         `w = N + 1 - r` throughout. Simulated writes count the rounds on \
         the caller's path. Where `2w > N` that is one — the paper's \
         single quorum access: any two write quorums share a \
         representative, which assigns the version under its commit lock, \
         so the write goes straight to prepare and is reported at its \
         commit decision. Where write quorums need not intersect (`r` = 4, \
         5) it is three: only a read quorum's answers tell the writer of \
         the write before it, so it inquires first (all five sites, for \
         `r` of them), and only the last ack tells the next writer of this \
         one, so the report waits for it.\n\n",
    ));
    let assignment = VoteAssignment::equal(5);
    let mut t = Table::new(
        "Read/write cost and availability vs quorum split",
        &[
            "r",
            "w",
            "analytic read (ms)",
            "analytic write (ms)",
            "sim read (ms)",
            "sim write (ms)",
            "sim read, random policy (ms)",
            "P(read blocked)",
            "P(write blocked)",
        ],
    );
    // Each spectrum point drives two independent simulated clusters, so the
    // five points fan out across the worker pool; seeds are fixed per point.
    let points = runner::run_tasks(5, |i| {
        let r = i as u32 + 1;
        measure_point(r, 6 - r, 100 + u64::from(r))
    });
    for p in points {
        let (r, w) = (p.r, p.w);
        let model = SystemModel::with_uniform_up(
            assignment.clone(),
            QuorumSpec::new(r, w),
            COSTS.to_vec(),
            P_UP,
        );
        let rb = 1.0 - quorum_availability(&assignment, r, &model.up);
        let wb = 1.0 - quorum_availability(&assignment, w, &model.up);
        t.row(&[
            r.to_string(),
            w.to_string(),
            ms(read_latency_verified(&model)),
            ms(write_latency(&model)),
            ms(p.read_ms),
            ms(p.write_ms),
            ms(p.read_random_ms),
            prob(rb),
            prob(wb),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push_str(
        "Shape check: reads get monotonically more expensive and writes \
         monotonically cheaper as `r` grows; the random policy pays for \
         ignoring costs whenever slow representatives exist.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_cost_rises_and_install_cost_falls_along_the_spectrum() {
        // Reads monotonically dearer with r; the *installation* leg of a
        // write (the w-vote quorum) monotonically cheaper. The total write
        // latency turns up again past the majority point: once write
        // quorums need not intersect a write also needs an r-vote
        // inquiry, which the report shows.
        let assignment = VoteAssignment::equal(5);
        let mut sorted = COSTS.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last_read = 0.0f64;
        let mut last_install = f64::INFINITY;
        for r in 1..=5u32 {
            let w = 6 - r;
            let model = SystemModel::with_uniform_up(
                assignment.clone(),
                QuorumSpec::new(r, w),
                COSTS.to_vec(),
                0.9,
            );
            let rd = read_latency_verified(&model);
            // With equal votes the cheapest w-vote quorum is the w
            // cheapest sites; its cost is the w-th smallest access cost.
            let install = sorted[w as usize - 1];
            assert!(rd >= last_read, "read cost decreased at r={r}");
            assert!(install <= last_install, "install cost increased at r={r}");
            // Total write latency = the install, or max(inquiry, install)
            // where write quorums need not intersect.
            let wr = write_latency(&model);
            let inquiry = if model.quorum.writes_intersect(&assignment) {
                0.0
            } else {
                sorted[r as usize - 1]
            };
            assert!((wr - inquiry.max(install)).abs() < 1e-9);
            last_read = rd;
            last_install = install;
        }
    }

    #[test]
    fn simulated_point_matches_analytic_at_extremes() {
        // r = 1, w = 5: reads served by the cheapest rep (75 ms, always
        // current since writes hit everyone).
        let p = measure_point(1, 5, 7);
        assert!((p.read_ms - 75.0).abs() < 1e-6, "read {}", p.read_ms);
        // Write waits for all five (750) once: the prepare is on the
        // caller's path, an inquiry does not exist and the commit round
        // runs behind the report. (The 75 ms site's vote does not widen
        // the quorum past the 750 ms ones: they get their own round trip.)
        assert!((p.write_ms - 750.0).abs() < 1e-6, "write {}", p.write_ms);
        // r = 5, w = 1: write quorums need not intersect, so the report
        // waits for the ack. Inquire all five (750), then prepare and
        // commit at the cheapest site (75 each).
        let p = measure_point(5, 1, 7);
        assert!((p.write_ms - 900.0).abs() < 1e-6, "write {}", p.write_ms);
    }

    #[test]
    fn random_policy_is_no_cheaper_than_cheapest_first() {
        let p = measure_point(2, 4, 11);
        assert!(
            p.read_random_ms + 1e-9 >= p.read_ms,
            "random {} vs cheapest {}",
            p.read_random_ms,
            p.read_ms
        );
    }

    #[test]
    fn report_has_all_rows() {
        let report = run();
        assert!(report.contains("| 1 | 5 |"));
        assert!(report.contains("| 5 | 1 |"));
    }
}
