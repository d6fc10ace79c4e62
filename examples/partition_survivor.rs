//! Partitions: why quorum intersection prevents split brain.
//!
//! Five equal-vote representatives with majority quorums. The network
//! splits 3/2; only the majority side keeps writing, the minority side
//! blocks (instead of diverging), and after healing everyone agrees on the
//! one true history.
//!
//! ```text
//! cargo run --example partition_survivor
//! ```

use weighted_voting::prelude::*;

fn main() {
    // Five servers; two clients, one destined for each side of the split.
    let mut cluster = HarnessBuilder::new()
        .seed(13)
        .site(SiteSpec::server(1)) // s0
        .site(SiteSpec::server(1)) // s1
        .site(SiteSpec::server(1)) // s2
        .site(SiteSpec::server(1)) // s3
        .site(SiteSpec::server(1)) // s4
        .client() // s5: majority-side client
        .client() // s6: minority-side client
        .quorum(QuorumSpec::majority(5))
        .build()
        .expect("legal");
    let suite = cluster.suite_id();
    let majority_client = SiteId(5);
    let minority_client = SiteId(6);

    let w = cluster
        .write_from(majority_client, suite, b"before the storm".to_vec())
        .expect("healthy write");
    println!("pre-partition write committed as {}", w.version);

    println!("\n-- the network splits: {{s0,s1,s2,s5}} vs {{s3,s4,s6}} --");
    cluster.inject(Fault::Partition(Partition::split(
        7,
        &[
            &[SiteId(0), SiteId(1), SiteId(2), SiteId(5)],
            &[SiteId(3), SiteId(4), SiteId(6)],
        ],
    )));

    let w2 = cluster
        .write_from(majority_client, suite, b"majority side moves on".to_vec())
        .expect("3 of 5 votes reachable: quorum");
    println!("majority-side write committed as {}", w2.version);

    match cluster.write_from(minority_client, suite, b"minority split brain?".to_vec()) {
        Err(OpError::Unavailable { .. }) => {
            println!("minority-side write BLOCKED — two votes can never make a quorum")
        }
        other => panic!("safety violation: {other:?}"),
    }
    match cluster.read_from(minority_client, suite) {
        Err(OpError::Unavailable { .. }) => {
            println!("minority-side read BLOCKED — stale data is never served as current")
        }
        other => panic!("safety violation: {other:?}"),
    }

    println!("\n-- the partition heals --");
    cluster.inject(Fault::Heal);
    let r = cluster
        .read_from(minority_client, suite)
        .expect("healed network serves everyone");
    println!(
        "minority client now reads {:?} at {}",
        String::from_utf8_lossy(&r.value),
        r.version
    );
    assert_eq!(&r.value[..], b"majority side moves on");
    assert_eq!(r.version, w2.version);
    println!("single history, no lost updates, no split brain.");
}
