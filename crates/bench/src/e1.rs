//! E1 — the paper's "three example file suites" table.
//!
//! For each example the report shows, side by side:
//!
//! * the paper's published number,
//! * the closed-form prediction from `wv-analysis`, and
//! * the measurement from running the real protocol on the simulated
//!   cluster (`wv-core` over `wv-net`/`wv-sim`); for the blocking rows,
//!   the protocol on every crash set of the voting sites, each outcome
//!   weighted by its probability ([`e5::protocol_blocking`]).
//!
//! Latency notes: the paper charges one quorum access per operation, and
//! that is what the implemented write puts on its caller's path: the
//! prepare round at the cheapest write quorum, bounded by its slowest
//! member. Nobody is asked for a version first — in all three examples
//! any two write quorums intersect, so the representatives assign it
//! under their commit locks — and the write is reported at the commit
//! decision, the commit round finishing behind the report. The
//! paper's read entry is the *validated-cache* case; the measured read
//! equals the verified analytic read, cache hit or miss, because the
//! contents are asked for in the inquiry's own round: of the weak
//! representative whatever it holds, of the cheapest voting one if its
//! copy is newer.

use wv_analysis::{read_latency_optimistic, read_latency_verified, write_latency, SystemModel};
use wv_core::harness::{Harness, HarnessBuilder, Op};
use wv_sim::trace::SpanKind;
use wv_sim::SimDuration;

use crate::drive::{drive, mean_ms, Driven, Plan, Verdict};
use crate::table::{ms, prob, Table};
use crate::{e5, topo};

/// Paper-published values for one example.
pub struct PaperRow {
    /// Example number (1..=3).
    pub example: u32,
    /// Read latency, ms.
    pub read_ms: f64,
    /// Write latency, ms.
    pub write_ms: f64,
    /// Probability a read blocks.
    pub read_block: f64,
    /// Probability a write blocks.
    pub write_block: f64,
}

/// The published table (per-representative availability 0.99).
pub fn paper_rows() -> [PaperRow; 3] {
    [
        PaperRow {
            example: 1,
            read_ms: 65.0,
            write_ms: 75.0,
            read_block: 0.01,
            write_block: 0.01,
        },
        PaperRow {
            example: 2,
            read_ms: 75.0,
            write_ms: 100.0,
            read_block: 0.0002,
            write_block: 0.0101,
        },
        PaperRow {
            example: 3,
            read_ms: 75.0,
            write_ms: 750.0,
            read_block: 0.000001,
            write_block: 0.03,
        },
    ]
}

/// The pause before each op of the workload.
const SETTLE: SimDuration = SimDuration::from_secs(2);

/// Simulated latencies for one example.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// Mean cache-hit read latency (the weak representative's copy,
    /// validated by the inquiry it was read beside).
    pub read_hit_ms: f64,
    /// Mean cache-miss read latency (the contents came with a voting
    /// representative's version answer).
    pub read_miss_ms: f64,
    /// Mean write latency (the one quorum access on the caller's path).
    pub write_ms: f64,
}

/// Plays `rounds` write/read/read cycles, each op 2 s after the one
/// before: mean latencies, and the history.
///
/// After each write the first read misses (the weak representative is
/// stale) and the second hits; for examples without weak representatives
/// there is no cache to miss and both reads take the same path.
pub fn measure(h: &mut Harness, rounds: usize) -> (Measured, Driven) {
    let (c, suite) = (h.default_client(), h.suite_id());
    let mut plan = Plan::default();
    let write = |i: usize| Op::Write(suite, format!("round-{i}").into_bytes());
    // The second read after the cache fill has landed.
    let round = |i| [write(i), Op::Read(suite), Op::Read(suite)];
    plan.sequence(c, SETTLE, (0..rounds).flat_map(round));
    let run = drive(h, plan);
    h.advance(SETTLE);
    let every_third = |k: usize| mean_ms(run.ops.iter().skip(k).step_by(3));
    let m = Measured {
        read_hit_ms: every_third(2),
        read_miss_ms: every_third(1),
        write_ms: every_third(0),
    };
    (m, run)
}

/// Mean traced span durations (ms) per protocol phase over the E1
/// workload: where an operation's wall-clock goes.
#[derive(Clone, Copy, Debug)]
pub struct PhaseBreakdown {
    /// Version-collection (inquiry) phase.
    pub version_collect_ms: f64,
    /// Data movement (content fetch) phase.
    pub data_move_ms: f64,
    /// Prepare round of the commit protocol.
    pub prepare_ms: f64,
    /// Commit round.
    pub commit_ms: f64,
    /// Server-side lock waits (0 on the uncontended E1 workload).
    pub lock_wait_ms: f64,
}

/// Runs the measurement workload with tracing on and averages the span
/// durations per phase, and the history. The harness must be fresh.
pub fn traced_breakdown(h: &mut Harness, rounds: usize) -> (PhaseBreakdown, Driven) {
    h.enable_tracing();
    let history = measure(h, rounds).1;
    let mut acc = [(0u64, 0u64); 5];
    for s in h.take_recorded().0 {
        let Some(d) = s.duration_us() else { continue };
        let slot = match s.kind {
            SpanKind::Inquiry => 0,
            SpanKind::Fetch => 1,
            SpanKind::Prepare => 2,
            SpanKind::Commit => 3,
            SpanKind::LockWait => 4,
            _ => continue,
        };
        acc[slot].0 += d;
        acc[slot].1 += 1;
    }
    let mean = |(total, n): (u64, u64)| {
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1000.0
        }
    };
    let b = PhaseBreakdown {
        version_collect_ms: mean(acc[0]),
        data_move_ms: mean(acc[1]),
        prepare_ms: mean(acc[2]),
        commit_ms: mean(acc[3]),
        lock_wait_ms: mean(acc[4]),
    };
    (b, history)
}

/// Builds the full E1 report, its histories handed to `verdict`.
pub fn run(verdict: &mut Verdict) -> String {
    let mut out = String::new();
    out.push_str("## E1 — Example file suites (paper vs analytic vs simulated)\n\n");
    out.push_str(
        "Per-representative availability 0.99. A measured write is the \
         paper's one quorum access: it goes straight to prepare at the \
         cheapest write quorum (write quorums intersect in all three \
         examples, so the representatives assign the version) and is \
         reported at the commit decision, the commit round finishing \
         behind the report. A simulated blocking probability runs the \
         protocol on every crash set of the voting sites and weights each \
         outcome by the chance that exactly that set is down.\n\n",
    );
    let models = [
        SystemModel::paper_example_1(0.99),
        SystemModel::paper_example_2(0.99),
        SystemModel::paper_example_3(0.99),
    ];
    let examples: [fn(u64) -> HarnessBuilder; 3] =
        [topo::example_1, topo::example_2, topo::example_3];
    let harness = |i: usize, seed: u64| {
        examples[i](seed)
            .build()
            .expect("the paper's examples are legal")
    };
    let mut data_moves_ms = 0.0;
    for (i, paper) in paper_rows().iter().enumerate() {
        let model = &models[i];
        let mut h = harness(i, 42 + i as u64);
        let (m, measured) = measure(&mut h, 10);
        let sets = e5::example_crash_sets(paper.example);
        let (protocol_rb, protocol_wb) = sets.blocking(&model.up);
        let mut t = Table::new(
            format!("Example {}", paper.example),
            &["metric", "paper", "analytic", "simulated"],
        );
        t.row(&[
            "read latency, cache valid (ms)".into(),
            ms(paper.read_ms),
            ms(read_latency_optimistic(model)),
            "—".into(),
        ]);
        t.row(&[
            "read latency, verified (ms)".into(),
            "—".into(),
            ms(read_latency_verified(model)),
            ms(m.read_hit_ms),
        ]);
        t.row(&[
            "read latency, cache miss (ms)".into(),
            "—".into(),
            "—".into(),
            ms(m.read_miss_ms),
        ]);
        t.row(&[
            "write latency, one quorum access (ms)".into(),
            ms(paper.write_ms),
            ms(write_latency(model)),
            ms(m.write_ms),
        ]);
        t.row(&[
            "P(read blocked)".into(),
            prob(paper.read_block),
            prob(model.read_blocking()),
            prob(protocol_rb),
        ]);
        t.row(&[
            "P(write blocked)".into(),
            prob(paper.write_block),
            prob(model.write_blocking()),
            prob(protocol_wb),
        ]);
        out.push_str(&t.to_markdown());

        // Where the wall-clock goes, from the span record of a traced
        // re-run (separate harness so the measured columns above stay on
        // the untraced path).
        let mut th = harness(i, 142 + i as u64);
        let (b, traced) = traced_breakdown(&mut th, 10);
        data_moves_ms += b.data_move_ms;
        let ex = paper.example;
        verdict.judge(format_args!("example {ex}, measured"), &measured);
        verdict.judge(format_args!("example {ex}, traced"), &traced);
        sets.judge(verdict, format_args!("example {ex}"));
        let mut t = Table::new(
            format!(
                "Example {} — traced phase breakdown (mean ms)",
                paper.example
            ),
            &["phase", "mean (ms)"],
        );
        t.row(&["version collect (inquiry)".into(), ms(b.version_collect_ms)]);
        t.row(&["data move (content fetch)".into(), ms(b.data_move_ms)]);
        t.row(&["prepare".into(), ms(b.prepare_ms)]);
        t.row(&["commit".into(), ms(b.commit_ms)]);
        t.row(&["lock wait".into(), ms(b.lock_wait_ms)]);
        out.push_str(&t.to_markdown());
    }
    if data_moves_ms == 0.0 {
        out.push_str(
            "No read ran a separate data-move phase: the contents moved \
             inside the version-collect round, with the answer of the \
             representative whose inquiry asked for them.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-6;

    #[test]
    fn example_1_measured_latencies_match_model() {
        let mut h = topo::example_1(1).build().expect("legal");
        let m = measure(&mut h, 5).0;
        // Cache-hit read: max(inquiry 75, weak fetch 65) = 75.
        assert!((m.read_hit_ms - 75.0).abs() < EPS, "hit {}", m.read_hit_ms);
        // Cache-miss read: the server's version answer brings the contents
        // the weak representative lacks, in the same 75 ms round.
        assert!(
            (m.read_miss_ms - 75.0).abs() < EPS,
            "miss {}",
            m.read_miss_ms
        );
        // Write: one 75 ms round on the caller's path, the paper's entry.
        assert!((m.write_ms - 75.0).abs() < EPS, "write {}", m.write_ms);
    }

    #[test]
    fn example_2_measured_latencies_match_model() {
        let mut h = topo::example_2(2).build().expect("legal");
        let m = measure(&mut h, 5).0;
        // Representative 0 (2 votes, in every write quorum) always serves
        // reads at 75 ms, its version answer bringing the contents.
        assert!((m.read_hit_ms - 75.0).abs() < EPS);
        assert!((m.read_miss_ms - 75.0).abs() < EPS);
        // Write: prepare at {s0, s1}, 100 ms; nobody is inquired of and
        // the commit round is off the caller's path.
        assert!((m.write_ms - 100.0).abs() < EPS, "write {}", m.write_ms);
    }

    #[test]
    fn example_3_measured_latencies_match_model() {
        let mut h = topo::example_3(3).build().expect("legal");
        let m = measure(&mut h, 5).0;
        assert!((m.read_hit_ms - 75.0).abs() < EPS);
        assert!((m.read_miss_ms - 75.0).abs() < EPS);
        // Write-all over 750 ms links, one round on the caller's path.
        assert!((m.write_ms - 750.0).abs() < EPS, "write {}", m.write_ms);
    }

    #[test]
    fn analytic_columns_match_paper() {
        let rows = paper_rows();
        let models = [
            SystemModel::paper_example_1(0.99),
            SystemModel::paper_example_2(0.99),
            SystemModel::paper_example_3(0.99),
        ];
        for (row, model) in rows.iter().zip(&models) {
            assert!((read_latency_optimistic(model) - row.read_ms).abs() < EPS);
            assert!((write_latency(model) - row.write_ms).abs() < EPS);
            assert!((model.read_blocking() - row.read_block).abs() < 1e-4);
            assert!((model.write_blocking() - row.write_block).abs() < 1e-3);
        }
    }

    #[test]
    fn report_contains_all_examples() {
        let report = run(&mut Verdict::default());
        for k in 1..=3 {
            assert!(report.contains(&format!("Example {k}")));
        }
        assert!(report.contains("P(write blocked)"));
        assert!(report.contains("traced phase breakdown"));
    }

    #[test]
    fn traced_breakdown_matches_the_latency_model() {
        // Example 1: every client phase is bounded by the 75 ms quorum
        // member, and the workload is uncontended so lock waits are zero.
        let mut h = topo::example_1(9).build().expect("legal");
        let b = traced_breakdown(&mut h, 5).0;
        assert!(
            (b.prepare_ms - 75.0).abs() < EPS,
            "prepare {}",
            b.prepare_ms
        );
        assert!((b.commit_ms - 75.0).abs() < EPS, "commit {}", b.commit_ms);
        assert!(b.version_collect_ms > 0.0);
        assert!((b.lock_wait_ms - 0.0).abs() < EPS);
    }
}
