//! Cross-crate integration: multi-suite atomic transactions under
//! failures.
//!
//! A transaction staging writes at several suites must be all-or-nothing
//! *at every representative* (one container transaction per site) and
//! *across the cluster* (one coordinator decision), even when a
//! participant crashes between prepare and commit.

use weighted_voting::core::error::OpKind;
use weighted_voting::prelude::*;

fn cluster(seed: u64) -> Harness {
    HarnessBuilder::new()
        .seed(seed)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .suites([ObjectId(1), ObjectId(2)])
        .build()
        .expect("legal")
}

#[test]
fn committed_transactions_are_atomic_at_every_server() {
    let mut h = cluster(1);
    let client = h.default_client();
    for round in 1..=4u64 {
        h.transaction(
            client,
            vec![
                (ObjectId(1), format!("a{round}").into_bytes()),
                (ObjectId(2), format!("b{round}").into_bytes()),
            ],
        )
        .expect("transaction");
        // Per-server atomicity: at every server, the two suites are
        // either both at `round` or both at an older (but equal-height)
        // state — a server in the write quorum got both, one outside got
        // neither.
        for s in SiteId::all(3) {
            let v1 = h.version_at(s, ObjectId(1)).expect("server");
            let v2 = h.version_at(s, ObjectId(2)).expect("server");
            assert_eq!(
                v1, v2,
                "server {s} torn between suites: {v1} vs {v2} at round {round}"
            );
        }
    }
    assert_eq!(h.read(ObjectId(1)).expect("read").version, Version(4));
    assert_eq!(h.read(ObjectId(2)).expect("read").version, Version(4));
}

#[test]
fn participant_crash_between_prepare_and_commit_stays_atomic() {
    // Try a spread of crash instants inside the transaction's protocol
    // window (inquiry completes ~200 ms, prepares land ~300 ms, commits
    // ~500 ms with the default 100 ms one-way links).
    for crash_at_ms in [150u64, 250, 350, 450] {
        let mut h = cluster(2 + crash_at_ms);
        let client = h.default_client();
        h.transaction(
            client,
            vec![(ObjectId(1), b"a0".to_vec()), (ObjectId(2), b"b0".to_vec())],
        )
        .expect("base transaction");
        let start = h.now();
        h.enqueue_transaction(
            client,
            vec![(ObjectId(1), b"a1".to_vec()), (ObjectId(2), b"b1".to_vec())],
            start,
        );
        h.advance(SimDuration::from_millis(crash_at_ms));
        h.inject(Fault::Crash(SiteId(0)));
        h.advance(SimDuration::from_secs(40));
        h.inject(Fault::Recover(SiteId(0)));
        h.run_until_quiet(3_000_000);
        let ops = h.drain_completed(client);
        let outcome_ok = ops
            .iter()
            .any(|o| o.kind == OpKind::Transaction && o.outcome.is_ok());
        // Per-server atomicity regardless of outcome.
        for s in SiteId::all(3) {
            let v1 = h.version_at(s, ObjectId(1)).expect("server");
            let v2 = h.version_at(s, ObjectId(2)).expect("server");
            assert_eq!(
                v1, v2,
                "crash at {crash_at_ms}ms: server {s} torn ({v1} vs {v2})"
            );
        }
        // Cluster-level atomicity: reads of the two suites agree.
        let r1 = h.read(ObjectId(1)).expect("read");
        let r2 = h.read(ObjectId(2)).expect("read");
        assert_eq!(
            r1.version, r2.version,
            "crash at {crash_at_ms}ms: suites diverged"
        );
        if outcome_ok {
            assert_eq!(r1.version, Version(2), "acked transaction must be visible");
            assert_eq!(&r1.value[..], b"a1");
            assert_eq!(&r2.value[..], b"b1");
        }
    }
}

#[test]
fn transaction_versions_advance_in_lockstep_with_single_writes() {
    let mut h = cluster(3);
    let client = h.default_client();
    h.write(ObjectId(1), b"solo".to_vec()).expect("write");
    let t = h
        .transaction(
            client,
            vec![
                (ObjectId(1), b"tx-a".to_vec()),
                (ObjectId(2), b"tx-b".to_vec()),
            ],
        )
        .expect("transaction");
    // Suite 1 had one prior write, so the transaction installs v2 there
    // and v1 at suite 2 — versions are per-suite chains.
    let versions: std::collections::HashMap<_, _> = t.versions.into_iter().collect();
    assert_eq!(versions[&ObjectId(1)], Version(2));
    assert_eq!(versions[&ObjectId(2)], Version(1));
}
