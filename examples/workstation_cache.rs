//! Weak representatives: zero-vote caches on workstations.
//!
//! A workstation keeps a weak (zero-vote) representative of a read-mostly
//! suite. Reads validate the cache against a one-vote quorum and are
//! served locally on a hit; writes invalidate it; read-through refills it.
//! The example prints the latency of every access so the hit/miss pattern
//! is visible.
//!
//! ```text
//! cargo run --example workstation_cache
//! ```

use weighted_voting::prelude::*;

fn main() {
    // Site 0: the file server (1 vote, 75 ms access).
    // Site 1: the workstation — client plus weak representative (65 ms).
    let mut net = NetConfig::uniform(
        2,
        LatencyModel::Constant(SimDuration::from_millis_f64(37.5)),
    );
    net.set_link(
        SiteId(1),
        SiteId(1),
        LatencyModel::Constant(SimDuration::from_millis_f64(32.5)),
    );
    let mut cluster = HarnessBuilder::new()
        .seed(99)
        .site(SiteSpec::server(1))
        .site(SiteSpec::client_with_weak())
        .quorum(QuorumSpec::new(1, 1))
        .net(net)
        .build()
        .expect("legal");
    let suite = cluster.suite_id();
    let ws = SiteId(1);

    println!("write v1 to the server...");
    cluster
        .run(ws, Op::Write(suite, b"document v1".to_vec()))
        .expect("write");
    cluster.advance(SimDuration::from_secs(1));

    println!("\nfour reads; watch the cache warm up:");
    for i in 1..=4 {
        let r = cluster.run(ws, Op::Read(suite)).expect("read");
        let state = if r.latency <= SimDuration::from_millis(80) {
            "HIT  (served by the weak representative)"
        } else {
            "MISS (fetched from the server, cache refilled)"
        };
        println!("  read {i}: {:>9}  {}", format!("{}", r.latency), state);
        cluster.advance(SimDuration::from_secs(1));
    }

    println!("\na write invalidates the cache...");
    cluster
        .run(ws, Op::Write(suite, b"document v2".to_vec()))
        .expect("write");
    cluster.advance(SimDuration::from_secs(1));
    let r = cluster.run(ws, Op::Read(suite)).expect("read");
    println!(
        "  next read: {} — a miss again, and it returns v2: {:?}",
        r.latency,
        String::from_utf8_lossy(&r.value)
    );
    cluster.advance(SimDuration::from_secs(1));
    let r = cluster.run(ws, Op::Read(suite)).expect("read");
    println!("  and after refill: {} — hits again", r.latency);

    println!(
        "\nNote the safety property: a hit still cost one version-number\n\
         inquiry to the voting representative (75 ms round trip); the weak\n\
         representative never serves data that a quorum has not vouched for."
    );
}
