//! E7 — online reconfiguration.
//!
//! A suite starts with majority quorums on the Example-2 geography
//! (75/100/750 ms), serves a read/write mix, is re-tuned **online** to
//! read-one/write-all, and keeps serving. The report shows per-phase mean
//! latencies (reads get cheaper, writes dearer — the knob turned), that
//! the change itself is just one write under the *old* quorum, and that no
//! operation across the transition ever reads anything but the latest
//! committed value: the run's whole history goes to the oracle.

use wv_core::client::CompletedOp;
use wv_core::harness::{Harness, HarnessBuilder, Op, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_core::votes::VoteAssignment;
use wv_net::SiteId;
use wv_sim::SimDuration;
use wv_storage::ObjectId;

use crate::drive::{drive, mean_ms, Driven, Plan, Verdict};
use crate::runner;
use crate::table::{ms, Table};
use crate::topo::client_star;

/// Latency means for one phase of the run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseResult {
    /// Mean read latency (ms).
    pub read_ms: f64,
    /// Mean write latency (ms).
    pub write_ms: f64,
}

/// The full reconfiguration run.
#[derive(Clone, Debug)]
pub struct ReconfigRun {
    /// Before the change (majority).
    pub before: PhaseResult,
    /// After the change (read-one/write-all).
    pub after: PhaseResult,
    /// Latency of the reconfiguration write itself (ms).
    pub reconfig_ms: f64,
    /// Configuration generation at each server after the run.
    pub generations: Vec<u64>,
    /// Every operation of the run, with what its writes carried.
    pub history: Driven,
}

/// The pause between ops.
const SECOND: SimDuration = SimDuration::from_secs(1);

fn build(seed: u64) -> Harness {
    HarnessBuilder::new()
        .seed(seed)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .net(client_star(&[75.0, 100.0, 750.0], None))
        .build()
        .expect("legal starting configuration")
}

/// `rounds` write-then-read rounds on `suite`.
fn phase(suite: ObjectId, rounds: usize) -> impl Iterator<Item = Op> {
    let write = move |i: usize| Op::Write(suite, format!("phase-{i}").into_bytes());
    (0..rounds).flat_map(move |i| [write(i), Op::Read(suite)])
}

/// The mean latencies of a phase's ops.
fn means(ops: &[CompletedOp]) -> PhaseResult {
    PhaseResult {
        read_ms: mean_ms(ops.iter().skip(1).step_by(2)),
        write_ms: mean_ms(ops.iter().step_by(2)),
    }
}

/// Executes the experiment.
pub fn execute(seed: u64, rounds: usize) -> ReconfigRun {
    let mut h = build(seed);
    let (c, suite) = (h.default_client(), h.suite_id());
    // Each op a second after the one before, but the first after the
    // knob turns: same votes, new quorums, installed under the OLD write
    // quorum (majority).
    let knob = Op::Reconfigure(suite, VoteAssignment::equal(3), QuorumSpec::new(1, 3));
    let mut plan = Plan::default();
    plan.sequence(c, SECOND, phase(suite, rounds).chain([knob]));
    plan.sequence(c, SECOND, phase(suite, rounds));
    let history = drive(&mut h, plan);
    h.advance(SECOND);
    let generations = SiteId::all(3)
        .map(|s| {
            h.server_at(s)
                .and_then(|s| s.config(suite))
                .map(|c| c.generation)
                .unwrap_or(0)
        })
        .collect();
    let ops = &history.ops;
    ReconfigRun {
        before: means(&ops[..2 * rounds]),
        after: means(&ops[2 * rounds + 1..]),
        reconfig_ms: ops[2 * rounds].latency().as_millis_f64(),
        generations,
        history,
    }
}

/// Builds the E7 report.
///
/// One run is inherently sequential (the reconfiguration is a point in
/// virtual time), so parallelism comes from *replicates*: the headline run
/// plus independent runs under derived seeds, all fanned out together,
/// checked for the zero-staleness invariant, and handed to `verdict`.
pub fn run(verdict: &mut Verdict) -> String {
    const REPLICATES: usize = 4;
    let runs = runner::run_trials(77, 1 + REPLICATES, |seed| execute(seed, 10));
    // The oracle's stale reads in each run, as it judges them.
    let stale: Vec<usize> = (runs.iter().enumerate())
        .map(|(i, r)| {
            let judged = verdict.judge(format_args!("run {i}"), &r.history);
            judged.iter().filter(|v| v.tag() == "stale_read").count()
        })
        .collect();
    let (r, replicate_stale) = (&runs[0], stale[1..].iter().sum::<usize>());
    let mut out = String::new();
    out.push_str("## E7 — Online reconfiguration (majority → read-one/write-all)\n\n");
    let mut t = Table::new(
        "Latency before and after the quorum change",
        &["phase", "quorums", "mean read (ms)", "mean write (ms)"],
    );
    t.row(&[
        "before".into(),
        "r=2, w=2".into(),
        ms(r.before.read_ms),
        ms(r.before.write_ms),
    ]);
    t.row(&[
        "after".into(),
        "r=1, w=3".into(),
        ms(r.after.read_ms),
        ms(r.after.write_ms),
    ]);
    out.push_str(&t.to_markdown());
    out.push_str(&format!(
        "Reconfiguration write latency: {} ms (one ordinary write under \
         the old majority quorum).\n\nStale reads across the whole run: \
         {}. Server config generations after the run: {:?} (the third \
         server learns the new configuration lazily, via quorum \
         intersection, exactly as the paper prescribes).\n",
        ms(r.reconfig_ms),
        stale[0],
        r.generations
    ));
    out.push_str(&format!(
        "\nReplicates: {REPLICATES} further runs under derived seeds \
         reported {replicate_stale} stale reads in total.\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconfiguration_moves_latencies_the_right_way() {
        let r = execute(3, 6);
        // r: 2 -> 1 with costs 75/100/750: reads drop from 100 to 75.
        assert!(
            r.after.read_ms < r.before.read_ms,
            "reads should get cheaper: {} -> {}",
            r.before.read_ms,
            r.after.read_ms
        );
        // w: 2 -> 3: writes must now touch the 750 ms site.
        assert!(
            r.after.write_ms > r.before.write_ms,
            "writes should get dearer: {} -> {}",
            r.before.write_ms,
            r.after.write_ms
        );
    }

    #[test]
    fn the_new_generation_reaches_at_least_a_write_quorum() {
        let r = execute(7, 4);
        let upgraded = r.generations.iter().filter(|g| **g == 2).count();
        assert!(
            upgraded >= 2,
            "the old write quorum (2 sites) must hold generation 2, got {:?}",
            r.generations
        );
    }

    #[test]
    fn report_shows_both_phases() {
        let report = run(&mut Verdict::default());
        assert!(report.contains("before"));
        assert!(report.contains("after"));
        assert!(report.contains("Stale reads across the whole run: 0"));
    }
}
