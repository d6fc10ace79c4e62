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

use std::collections::HashMap;

use wv_core::client::{ClientOptions, CompletedOp};
use wv_core::harness::{Harness, HarnessBuilder, Op, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_core::OpKind;
use wv_sim::trace::SpanKind;
use wv_sim::{DetRng, SimDuration};

use crate::drive::{drive, mean_ms, Driven, Plan, Verdict};
use crate::runner;
use crate::table::{ms, pct, Table};
use crate::topo::client_star;

/// The write fractions the report measures.
const WFS: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];

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

/// Plays `ops` operations on `h`, a fresh cluster built here, a second
/// apart after a priming write, a `seed`-drawn `write_fraction` of them
/// writes: the point, and the history.
pub fn measure(
    h: &mut Harness,
    write_fraction: f64,
    ops: usize,
    seed: u64,
) -> (CachePoint, Driven) {
    let (c, suite) = (h.default_client(), h.suite_id());
    let mut rng = DetRng::new(seed ^ 0xCAFE);
    let draw = |i: usize| match rng.chance(write_fraction) {
        true => Op::Write(suite, format!("v{i}").into_bytes()),
        false => Op::Read(suite),
    };
    // Prime the suite so the first read has something to find.
    let mut workload = vec![Op::Write(suite, b"initial".to_vec())];
    workload.extend((0..ops).map(draw));
    let mut plan = Plan::default();
    plan.sequence(c, SimDuration::from_secs(1), workload);
    h.enable_tracing();
    let run = drive(h, plan);
    // The version the workstation's own copy answered each read with: a
    // read missed when its copy was not the version it returned.
    let held: HashMap<u64, u64> = (h.take_recorded().0.into_iter())
        .filter(|s| s.kind == SpanKind::Rpc && s.peer == c.0)
        .map(|s| (s.op, s.detail))
        .collect();
    let missed = |o: &&CompletedOp| {
        let returned = o.outcome.as_ref().map(|ok| ok.version.0);
        returned.is_ok_and(|v| held.get(&o.req.0) != Some(&v))
    };
    let of = |kind| run.ops[1..].iter().filter(move |o| o.kind == kind);
    let reads = of(OpKind::Read).count();
    let misses = of(OpKind::Read).filter(missed).count();
    let point = CachePoint {
        write_fraction,
        hit_ratio: if reads == 0 {
            0.0
        } else {
            1.0 - misses as f64 / reads as f64
        },
        miss_ms: mean_ms(of(OpKind::Read).filter(missed)),
        read_ms: mean_ms(of(OpKind::Read)),
        write_ms: mean_ms(of(OpKind::Write)),
    };
    (point, run)
}

/// Builds the E3 report, its histories handed to `verdict`.
pub fn run(verdict: &mut Verdict) -> String {
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
        let points = runner::run_tasks(WFS.len(), |i| {
            let seed = 500 + i as u64;
            measure(&mut build(push, seed), WFS[i], 300, seed)
        });
        for (p, history) in points {
            let wf = p.write_fraction;
            verdict.judge(format_args!("{label}, write fraction {wf}"), &history);
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
    // DESIGN.md §6's "separate inquiry round" ablation: reads alone.
    let (sequential, history) = measure(&mut build_with(false, false, 900), 0.0, 40, 900);
    verdict.judge("sequential reads", &history);
    out.push_str(&format!(
        "Ablation — contents asked for with the inquiry: with \
         `optimistic_fetch` off nobody is asked for contents until the \
         quorum has settled, and every read costs inquiry *plus* fetch \
         sequentially: {} ms mean vs 75 ms in one round (the paper's \
         validated-cache read).\n\n",
        ms(sequential.read_ms)
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
        let low = measure(&mut build(false, 1), 0.05, 200, 1).0;
        let high = measure(&mut build(false, 1), 0.5, 200, 1).0;
        assert!(
            low.hit_ratio > high.hit_ratio,
            "low-update hit {} should beat high-update hit {}",
            low.hit_ratio,
            high.hit_ratio
        );
    }

    #[test]
    fn push_on_write_keeps_hit_ratio_high() {
        let read_through = measure(&mut build(false, 2), 0.3, 200, 2).0;
        let push = measure(&mut build(true, 2), 0.3, 200, 2).0;
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
        let p = measure(&mut build(false, 3), 0.2, 150, 3).0;
        assert!(p.hit_ratio < 0.9, "some reads miss: {}", p.hit_ratio);
        assert!((p.miss_ms - 75.0).abs() < 1e-6, "miss {}", p.miss_ms);
        assert!((p.read_ms - 75.0).abs() < 1e-6, "mean {}", p.read_ms);
        let eager = measure(&mut build(true, 3), 0.2, 150, 3).0;
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
        let (seq, _) = measure(&mut build_with(false, false, 5), 0.0, 20, 5);
        let seq = seq.read_ms;
        assert!((seq - 140.0).abs() < 8.0, "sequential mean {seq}");
    }

    #[test]
    fn report_mentions_both_strategies() {
        let report = run(&mut Verdict::default());
        assert!(report.contains("read-through fills"));
        assert!(report.contains("push-on-write fills"));
    }
}
