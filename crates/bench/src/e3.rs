//! E3 — weak representatives as caches.
//!
//! The paper's Example-1 setting: a workstation holding a zero-vote weak
//! representative next to a single voting file server. A mixed read/write
//! workload varies the update fraction; the report tracks the cache hit
//! ratio (reads the workstation's own copy served, the quorum having
//! proved it current), what a miss costs, and the mean read latency, for
//! both cache-fill strategies the paper sketches: read-through (update the
//! weak representative after a miss) and push-on-write (the writer
//! refreshes caches eagerly).

use wv_core::client::ClientOptions;
use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_net::SiteId;
use wv_sim::{DetRng, SampleSet, SimDuration};

use crate::runner;
use crate::table::{ms, pct, Table};
use crate::topo::client_star;

/// One workload point.
#[derive(Clone, Copy, Debug)]
pub struct CachePoint {
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Cache hit ratio among reads: the workstation's copy was current.
    pub hit_ratio: f64,
    /// Mean latency (ms) of the reads it was not current for; 0 if none.
    pub miss_ms: f64,
    /// Mean read latency (ms).
    pub read_ms: f64,
    /// Mean write latency (ms).
    pub write_ms: f64,
}

fn build(push_on_write: bool, seed: u64) -> Harness {
    build_with(push_on_write, true, seed)
}

fn build_with(push_on_write: bool, optimistic_fetch: bool, seed: u64) -> Harness {
    HarnessBuilder::new()
        .seed(seed)
        .site(SiteSpec::server(1))
        .site(SiteSpec::client_with_weak())
        .quorum(QuorumSpec::new(1, 1))
        .net(client_star(&[75.0], Some(65.0)))
        .client_options(ClientOptions {
            push_weak_on_write: push_on_write,
            optimistic_fetch,
            ..ClientOptions::default()
        })
        .build()
        .expect("cache topology is legal")
}

/// Mean read latency with the optimistic parallel fetch disabled (the
/// "separate inquiry round" ablation from DESIGN.md §6): every read pays
/// inquiry *then* fetch sequentially.
pub fn sequential_read_latency(ops: usize, seed: u64) -> f64 {
    let mut h = build_with(false, false, seed);
    let suite = h.suite_id();
    h.write(suite, b"x".to_vec()).expect("prime");
    h.advance(SimDuration::from_secs(1));
    let mut reads = SampleSet::new();
    for _ in 0..ops {
        let r = h.read(suite).expect("read");
        reads.record(r.latency.as_millis_f64());
        h.advance(SimDuration::from_secs(1));
    }
    reads.mean()
}

/// Runs `ops` operations with the given write fraction.
pub fn measure(write_fraction: f64, push_on_write: bool, ops: usize, seed: u64) -> CachePoint {
    let mut h = build(push_on_write, seed);
    let suite = h.suite_id();
    let mut rng = DetRng::new(seed ^ 0xCAFE);
    let mut reads = SampleSet::new();
    let mut misses = SampleSet::new();
    let mut writes = SampleSet::new();
    // Reads the workstation's copy did not serve: the contents came with
    // the server's version answer, or in a separate fetch round.
    let missed = |h: &Harness| {
        let stats = h.client_at(SiteId(1)).expect("client at site 1").stats;
        stats.reads_contents_with_inquiry + stats.reads_fetched
    };
    // Prime the suite so the first read has something to find.
    h.write(suite, b"initial".to_vec()).expect("prime write");
    h.advance(SimDuration::from_secs(1));
    for i in 0..ops {
        if rng.chance(write_fraction) {
            let w = h.write(suite, format!("v{i}").into_bytes()).expect("write");
            writes.record(w.latency.as_millis_f64());
        } else {
            let before = missed(&h);
            let r = h.read(suite).expect("read");
            reads.record(r.latency.as_millis_f64());
            if missed(&h) > before {
                misses.record(r.latency.as_millis_f64());
            }
        }
        h.advance(SimDuration::from_secs(1));
    }
    CachePoint {
        write_fraction,
        hit_ratio: if reads.is_empty() {
            0.0
        } else {
            1.0 - misses.len() as f64 / reads.len() as f64
        },
        miss_ms: misses.mean(),
        read_ms: reads.mean(),
        write_ms: writes.mean(),
    }
}

/// Builds the E3 report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("## E3 — Weak representatives as caches\n\n");
    out.push_str(
        "Workstation weak representative (65 ms) beside one voting server \
         (75 ms), r = w = 1. A read asks the weak representative for its \
         copy and, in the version inquiry, the server for the contents if \
         they are newer than that copy. A hit — the workstation's copy was \
         current — completes at max(inquiry, local read) = 75 ms and moves \
         no data off the server; a miss completes in the same round, the \
         server's version answer bringing the contents (75 ms, not the \
         150 ms of a separate fetch round).\n\n",
    );
    for (label, push) in [("read-through fills", false), ("push-on-write fills", true)] {
        let mut t = Table::new(
            format!("Cache behaviour vs update rate — {label}"),
            &[
                "write fraction",
                "hit ratio",
                "mean miss (ms)",
                "mean read (ms)",
                "mean write (ms)",
            ],
        );
        // Six independent 300-op workloads with fixed per-point seeds; fan
        // them out and render in point order.
        const WFS: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];
        let points = runner::run_tasks(WFS.len(), |i| measure(WFS[i], push, 300, 500 + i as u64));
        for p in points {
            t.row(&[
                format!("{:.2}", p.write_fraction),
                pct(p.hit_ratio),
                if p.miss_ms > 0.0 {
                    ms(p.miss_ms)
                } else {
                    "—".into()
                },
                ms(p.read_ms),
                ms(p.write_ms),
            ]);
        }
        out.push_str(&t.to_markdown());
    }
    let sequential = sequential_read_latency(40, 900);
    out.push_str(&format!(
        "Ablation — contents asked for with the inquiry: with \
         `optimistic_fetch` off nobody is asked for contents until the \
         quorum has settled, and every read costs inquiry *plus* fetch \
         sequentially: {} ms mean vs 75 ms in one round (the paper's \
         validated-cache read).\n\n",
        ms(sequential)
    ));
    out.push_str(
        "Shape check: with read-through fills the hit ratio decays as \
         writes invalidate the cache more often, while the mean read stays \
         at one round: what a hit saves is the data move, not a round \
         trip. Pushing on write keeps every read a hit at the cost of \
         extra update traffic.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_decreases_with_write_rate_under_read_through() {
        let low = measure(0.05, false, 200, 1);
        let high = measure(0.5, false, 200, 1);
        assert!(
            low.hit_ratio > high.hit_ratio,
            "low-update hit {} should beat high-update hit {}",
            low.hit_ratio,
            high.hit_ratio
        );
    }

    #[test]
    fn push_on_write_keeps_hit_ratio_high() {
        let read_through = measure(0.3, false, 200, 2);
        let push = measure(0.3, true, 200, 2);
        assert!(
            push.hit_ratio >= read_through.hit_ratio,
            "push {} vs read-through {}",
            push.hit_ratio,
            read_through.hit_ratio
        );
        // With eager fills, essentially every read hits.
        assert!(push.hit_ratio > 0.95, "push hit ratio {}", push.hit_ratio);
    }

    #[test]
    fn hits_and_misses_both_cost_the_verified_latency() {
        // One round either way: a miss's contents come with the server's
        // version answer (75 ms), not in a fetch round after it (150).
        let p = measure(0.2, false, 150, 3);
        assert!(p.hit_ratio < 0.9, "some reads miss: {}", p.hit_ratio);
        assert!((p.miss_ms - 75.0).abs() < 1e-6, "miss {}", p.miss_ms);
        assert!((p.read_ms - 75.0).abs() < 1e-6, "mean {}", p.read_ms);
        let eager = measure(0.2, true, 150, 3);
        assert!(
            (eager.read_ms - 75.0).abs() < 1e-6,
            "eager mean {}",
            eager.read_ms
        );
    }

    #[test]
    fn disabling_the_overlap_costs_a_full_fetch_round() {
        // Sequential reads: inquiry (75) + cheapest-current fetch. The
        // weak rep is refreshed by the first read, so steady state fetches
        // locally (65): 140 ms.
        let seq = sequential_read_latency(20, 5);
        assert!((seq - 140.0).abs() < 8.0, "sequential mean {seq}");
    }

    #[test]
    fn report_mentions_both_strategies() {
        let report = run();
        assert!(report.contains("read-through fills"));
        assert!(report.contains("push-on-write fills"));
    }
}
