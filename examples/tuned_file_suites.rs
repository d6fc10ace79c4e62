//! The paper's three example file suites, live.
//!
//! Builds each of Gifford's example configurations on its published
//! topology, runs reads and writes, and prints the measured latencies next
//! to the numbers from the paper — the interactive version of experiment
//! E1.
//!
//! ```text
//! cargo run --example tuned_file_suites
//! ```

use weighted_voting::prelude::*;

struct Example {
    name: &'static str,
    story: &'static str,
    votes: Vec<(SiteId, u32)>,
    quorum: QuorumSpec,
    /// Round-trip access cost from the client to each representative site.
    access: Vec<f64>,
    /// Self-access cost when the client co-hosts a weak representative.
    self_access: Option<f64>,
    paper_read: f64,
    paper_write: f64,
}

fn examples() -> Vec<Example> {
    vec![
        Example {
            name: "Example 1 — read-mostly file on one workstation",
            story: "one voting representative on the file server, a weak\n\
                    representative cached on the workstation; r = w = 1",
            votes: vec![(SiteId(0), 1), (SiteId(1), 0)],
            quorum: QuorumSpec::new(1, 1),
            access: vec![75.0],
            self_access: Some(65.0),
            paper_read: 65.0,
            paper_write: 75.0,
        },
        Example {
            name: "Example 2 — moderate read/write from one local network",
            story: "votes ⟨2,1,1⟩: the local server dominates; r = 2, w = 3",
            votes: vec![(SiteId(0), 2), (SiteId(1), 1), (SiteId(2), 1)],
            quorum: QuorumSpec::new(2, 3),
            access: vec![75.0, 100.0, 750.0],
            self_access: None,
            paper_read: 75.0,
            paper_write: 100.0,
        },
        Example {
            name: "Example 3 — read-mostly file used from many networks",
            story: "votes ⟨1,1,1⟩ across distant servers; r = 1, w = 3",
            votes: vec![(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)],
            quorum: QuorumSpec::new(1, 3),
            access: vec![75.0, 750.0, 750.0],
            self_access: None,
            paper_read: 75.0,
            paper_write: 750.0,
        },
    ]
}

fn build(ex: &Example, seed: u64) -> Harness {
    let reps = ex.access.len();
    // The client is always the site after the remote representatives; when
    // it co-hosts a weak representative, that rep shares the client's site.
    let client = SiteId::from(reps);
    let sites = reps + 1;
    let mut net = NetConfig::uniform(sites, LatencyModel::Constant(SimDuration::from_millis(50)));
    for (i, &a) in ex.access.iter().enumerate() {
        net.set_link_symmetric(
            client,
            SiteId::from(i),
            LatencyModel::Constant(SimDuration::from_millis_f64(a / 2.0)),
        );
    }
    if let Some(a) = ex.self_access {
        net.set_link(
            client,
            client,
            LatencyModel::Constant(SimDuration::from_millis_f64(a / 2.0)),
        );
    }
    let mut b = HarnessBuilder::new().seed(seed).quorum(ex.quorum);
    for (site, votes) in &ex.votes {
        if *site == client {
            continue;
        }
        b = b.site(SiteSpec::server(*votes));
    }
    // The client site hosts a weak representative when the example says so.
    b = if ex.self_access.is_some() {
        b.site(SiteSpec::client_with_weak())
    } else {
        b.client()
    };
    b.net(net).build().expect("paper examples are legal")
}

fn main() {
    for (i, ex) in examples().iter().enumerate() {
        println!("\n=== {} ===", ex.name);
        println!("{}", ex.story);
        let mut h = build(ex, 7 + i as u64);
        let suite = h.suite_id();

        let w = h.write(suite, b"v1".to_vec()).expect("write");
        h.advance(SimDuration::from_secs(2));
        // First read may miss the cache; the second demonstrates the
        // steady state the paper's table describes.
        let _ = h.read(suite).expect("read");
        h.advance(SimDuration::from_secs(2));
        let r = h.read(suite).expect("read");

        println!(
            "  write: {:>7}   (paper: {} ms per quorum access; ours pays 2 rounds before it reports)",
            format!("{}", w.latency),
            ex.paper_write
        );
        println!(
            "  read : {:>7}   (paper: {} ms; ours verifies the version, hence ≥ 75 ms)",
            format!("{}", r.latency),
            ex.paper_read
        );
    }
    println!("\nRun `cargo run -p wv-chaos --bin wv-exp -- e1` for the full table.");
}
