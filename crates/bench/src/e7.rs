//! E7 — online reconfiguration.
//!
//! A suite starts with majority quorums on the Example-2 geography
//! (75/100/750 ms), serves a read/write mix, is re-tuned **online** to
//! read-one/write-all, and keeps serving. The report shows per-phase mean
//! latencies (reads get cheaper, writes dearer — the knob turned), that
//! the change itself is just one write under the *old* quorum, and that no
//! operation across the transition ever reads anything but the latest
//! committed value.

use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_core::votes::VoteAssignment;
use wv_net::SiteId;
use wv_sim::{SampleSet, SimDuration};
use wv_storage::Version;

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
    /// Reads that returned anything other than the latest committed write.
    pub stale_reads: u32,
    /// Configuration generation at each server after the run.
    pub generations: Vec<u64>,
}

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

fn run_phase(
    h: &mut Harness,
    rounds: usize,
    expected: &mut Version,
    stale: &mut u32,
) -> PhaseResult {
    let suite = h.suite_id();
    let mut reads = SampleSet::new();
    let mut writes = SampleSet::new();
    for i in 0..rounds {
        let w = h
            .write(suite, format!("phase-{i}").into_bytes())
            .expect("write");
        writes.record(w.latency.as_millis_f64());
        *expected = w.version;
        h.advance(SimDuration::from_secs(1));
        let r = h.read(suite).expect("read");
        reads.record(r.latency.as_millis_f64());
        if r.version < *expected {
            *stale += 1;
        }
        h.advance(SimDuration::from_secs(1));
    }
    PhaseResult {
        read_ms: reads.mean(),
        write_ms: writes.mean(),
    }
}

/// Executes the experiment.
pub fn execute(seed: u64, rounds: usize) -> ReconfigRun {
    let mut h = build(seed);
    let suite = h.suite_id();
    let mut expected = Version::INITIAL;
    let mut stale = 0u32;
    let before = run_phase(&mut h, rounds, &mut expected, &mut stale);
    // The knob turns: same votes, new quorums, installed under the OLD
    // write quorum (majority).
    let rec = h
        .reconfigure_from(
            h.default_client(),
            suite,
            VoteAssignment::equal(3),
            QuorumSpec::new(1, 3),
        )
        .expect("reconfiguration succeeds");
    let after = run_phase(&mut h, rounds, &mut expected, &mut stale);
    let generations = SiteId::all(3)
        .map(|s| {
            h.server_at(s)
                .and_then(|s| s.config(suite))
                .map(|c| c.generation)
                .unwrap_or(0)
        })
        .collect();
    ReconfigRun {
        before,
        after,
        reconfig_ms: rec.latency.as_millis_f64(),
        stale_reads: stale,
        generations,
    }
}

/// Builds the E7 report.
///
/// One run is inherently sequential (the reconfiguration is a point in
/// virtual time), so parallelism comes from *replicates*: the headline run
/// plus independent runs under derived seeds, all fanned out together,
/// checked for the zero-staleness invariant.
pub fn run() -> String {
    const REPLICATES: usize = 4;
    let mut runs = runner::run_trials(77, 1 + REPLICATES, |seed| execute(seed, 10));
    let r = runs.remove(0);
    let replicate_stale: u32 = runs.iter().map(|r| r.stale_reads).sum();
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
        r.stale_reads,
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
    fn no_reads_are_ever_stale_across_the_change() {
        let r = execute(5, 8);
        assert_eq!(r.stale_reads, 0);
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
        let report = run();
        assert!(report.contains("before"));
        assert!(report.contains("after"));
        assert!(report.contains("Stale reads across the whole run: 0"));
    }
}
