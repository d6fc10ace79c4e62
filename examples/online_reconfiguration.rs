//! Turning the knob online: vote and quorum changes without downtime.
//!
//! A suite starts tuned for balanced traffic (majority quorums), then the
//! workload turns read-heavy and the operator reconfigures it to
//! read-one/write-all — as one ordinary write under the *old* quorum,
//! while reads and writes keep flowing.
//!
//! ```text
//! cargo run --example online_reconfiguration
//! ```

use weighted_voting::prelude::*;

fn report(label: &str, h: &mut Harness, suite: ObjectId) {
    let w = h
        .write(suite, format!("payload for {label}").into_bytes())
        .expect("write");
    h.advance(SimDuration::from_secs(1));
    let r = h.read(suite).expect("read");
    println!(
        "  [{label}] write {} in {}, read {} in {}",
        w.version, w.latency, r.version, r.latency
    );
    h.advance(SimDuration::from_secs(1));
}

fn main() {
    // Costs 75 / 100 / 750 ms — Example 2's geography with equal votes.
    let mut net = NetConfig::uniform(4, LatencyModel::Constant(SimDuration::from_millis(50)));
    for (i, a) in [75.0, 100.0, 750.0].into_iter().enumerate() {
        net.set_link_symmetric(
            SiteId(3),
            SiteId::from(i),
            LatencyModel::Constant(SimDuration::from_millis_f64(a / 2.0)),
        );
    }
    let mut cluster = HarnessBuilder::new()
        .seed(4)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .net(net)
        .build()
        .expect("legal");
    let suite = cluster.suite_id();

    println!("phase 1 — majority quorums (r=2, w=2): balanced costs");
    for _ in 0..3 {
        report("majority", &mut cluster, suite);
    }

    println!("\nreconfiguring online to read-one/write-all (r=1, w=3)...");
    let rec = cluster
        .run(
            cluster.default_client(),
            Op::Reconfigure(suite, VoteAssignment::equal(3), QuorumSpec::new(1, 3)),
        )
        .expect("reconfiguration is just a write under the old quorum");
    println!(
        "  installed configuration generation {} in {}",
        rec.version, rec.latency
    );

    println!("\nphase 2 — r=1, w=3: reads hit the cheap site, writes pay for all");
    for _ in 0..3 {
        report("read-one", &mut cluster, suite);
    }

    println!("\nper-server configuration generations now:");
    for s in SiteId::all(3) {
        println!(
            "  {s}: generation {:?}",
            cluster
                .server_at(s)
                .and_then(|s| s.config(suite))
                .expect("server")
                .generation
        );
    }
    println!(
        "\nA server still on generation 1 is harmless: any quorum its stale\n\
         clients assemble intersects the configuration write quorum, so they\n\
         discover generation 2 and refresh before acting — the paper's rule."
    );
}
