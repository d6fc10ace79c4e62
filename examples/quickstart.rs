//! Quickstart: a three-representative suite with majority quorums.
//!
//! Builds the smallest interesting cluster, writes, reads, survives a
//! crash, and shows where the current version actually lives.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use weighted_voting::prelude::*;

fn main() {
    // Three voting representatives, one client, r = w = 2.
    let mut cluster = HarnessBuilder::new()
        .seed(2026)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .build()
        .expect("3 sites with r = w = 2 is a legal configuration");
    let suite = cluster.suite_id();

    println!("== write/read round trip ==");
    let w = cluster
        .write(suite, b"the first committed value".to_vec())
        .expect("write reaches a quorum");
    println!("write committed as {} in {}", w.version, w.latency);

    let r = cluster.read(suite).expect("read assembles a quorum");
    println!(
        "read returned {:?} at {} in {}",
        String::from_utf8_lossy(&r.value),
        r.version,
        r.latency
    );

    println!("\n== where did the write land? ==");
    for site in SiteId::all(3) {
        println!(
            "  representative at {site}: {}",
            cluster.version_at(site, suite).expect("server site")
        );
    }
    println!(
        "(w = 2 of 3: one representative may lag; quorum intersection\n\
         guarantees every read still sees the newest version)"
    );

    println!("\n== surviving a crash ==");
    cluster.inject(Fault::Crash(SiteId(0)));
    println!("crashed s0");
    let w2 = cluster
        .write(suite, b"written with one site down".to_vec())
        .expect("two of three sites still form both quorums");
    println!("write committed as {} in {}", w2.version, w2.latency);
    let r2 = cluster.read(suite).expect("read");
    assert_eq!(&r2.value[..], b"written with one site down");
    println!("read sees it: {:?}", String::from_utf8_lossy(&r2.value));

    cluster.inject(Fault::Crash(SiteId(1)));
    println!("crashed s1 (only one site left)");
    match cluster.write(suite, b"doomed".to_vec()) {
        Err(OpError::Unavailable { kind }) => {
            println!("write blocked as expected: {kind:?} quorum unavailable")
        }
        other => panic!("expected unavailability, got {other:?}"),
    }

    cluster.inject(Fault::Recover(SiteId(0)));
    println!("recovered s0 — service resumes");
    let w3 = cluster
        .write(suite, b"back in business".to_vec())
        .expect("write");
    println!("write committed as {} after recovery", w3.version);
}
