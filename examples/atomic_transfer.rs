//! Multi-suite transactions: an atomic transfer between two accounts.
//!
//! The paper's suites live inside a general transaction system (Violet);
//! this example shows the reproduction's version of that: a transfer
//! debits one suite and credits another with a single commit decision —
//! either both balances change or neither does, even if a representative
//! crashes mid-protocol.
//!
//! ```text
//! cargo run --example atomic_transfer
//! ```

use weighted_voting::prelude::*;

const CHECKING: ObjectId = ObjectId(1);
const SAVINGS: ObjectId = ObjectId(2);

fn balance(value: &[u8]) -> i64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(value);
    i64::from_le_bytes(buf)
}

fn read_balances(cluster: &mut Harness) -> (i64, i64) {
    let c = cluster.read(CHECKING).expect("read checking");
    let s = cluster.read(SAVINGS).expect("read savings");
    (balance(&c.value), balance(&s.value))
}

fn main() {
    let mut cluster = HarnessBuilder::new()
        .seed(2026)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .suites([CHECKING, SAVINGS])
        .build()
        .expect("legal");
    let client = cluster.default_client();

    // Open the accounts.
    cluster
        .transaction(
            client,
            vec![
                (CHECKING, 1000i64.to_le_bytes().to_vec()),
                (SAVINGS, 250i64.to_le_bytes().to_vec()),
            ],
        )
        .expect("initial deposit");
    let (c, s) = read_balances(&mut cluster);
    println!(
        "opening balances: checking {c}, savings {s}  (total {})",
        c + s
    );

    // Transfer 400 from checking to savings — one atomic commit.
    let t = cluster
        .transaction(
            client,
            vec![
                (CHECKING, (c - 400).to_le_bytes().to_vec()),
                (SAVINGS, (s + 400).to_le_bytes().to_vec()),
            ],
        )
        .expect("transfer");
    println!(
        "transferred 400 in {} ({} suites committed together)",
        t.latency,
        t.versions.len()
    );
    let (c2, s2) = read_balances(&mut cluster);
    println!(
        "after transfer:   checking {c2}, savings {s2}  (total {})",
        c2 + s2
    );
    assert_eq!(c + s, c2 + s2, "money is conserved");

    // Now with a representative down: the quorum machinery doesn't care.
    cluster.inject(Fault::Crash(SiteId(2)));
    println!("\ncrashed one representative; transferring 100 more...");
    let (c2, s2) = read_balances(&mut cluster);
    cluster
        .transaction(
            client,
            vec![
                (CHECKING, (c2 - 100).to_le_bytes().to_vec()),
                (SAVINGS, (s2 + 100).to_le_bytes().to_vec()),
            ],
        )
        .expect("transfer with one site down");
    let (c3, s3) = read_balances(&mut cluster);
    println!(
        "after transfer:   checking {c3}, savings {s3}  (total {})",
        c3 + s3
    );
    assert_eq!(c3 + s3, 1250);

    // Per-server atomicity: no server ever holds a torn pair.
    cluster.inject(Fault::Recover(SiteId(2)));
    for site in SiteId::all(3) {
        let vc = cluster.version_at(site, CHECKING).expect("server");
        let vs = cluster.version_at(site, SAVINGS).expect("server");
        println!("server {site}: checking {vc}, savings {vs} — always in lockstep");
        assert_eq!(vc, vs);
    }
}
