//! Cross-crate integration: two-phase-commit crash windows.
//!
//! Crashes are injected at chosen instants inside a write's protocol
//! window (between prepare and commit), and the invariants checked are the
//! paper's: committed writes survive, uncommitted writes vanish entirely,
//! and a recovering participant resolves its in-doubt transaction by
//! asking the coordinator — never unilaterally.

use weighted_voting::prelude::*;

fn three_site_cluster(seed: u64) -> Harness {
    HarnessBuilder::new()
        .seed(seed)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .build()
        .expect("legal")
}

/// Crashes one quorum participant `at_ms` into an in-flight write and
/// reports `(write outcome ok?, final read version, versions per site)`.
fn crash_during_write(at_ms: u64, recover_after_ms: u64, seed: u64) -> (bool, u64, Vec<u64>) {
    let mut h = three_site_cluster(seed);
    let suite = h.suite_id();
    h.write(suite, b"base".to_vec()).expect("base write");
    let client = h.default_client();
    let start = h.now();
    h.enqueue(client, Op::Write(suite, b"in flight".to_vec()), start);
    // Let the write progress partway, then crash a participant. With
    // 100 ms links the prepares land at 100 ms, the votes at 200 ms and
    // the commits at 300 ms.
    h.advance(SimDuration::from_millis(at_ms));
    h.inject(Fault::Crash(SiteId(0)));
    h.advance(SimDuration::from_millis(recover_after_ms));
    h.inject(Fault::Recover(SiteId(0)));
    h.run_until_quiet(2_000_000);
    // The base write's entry, then the one in flight.
    let ops = h.drain_completed(client);
    let write_ok = ops.iter().any(|o| o.started == start && o.outcome.is_ok());
    let read = h.read(suite).expect("final read");
    let versions = SiteId::all(3)
        .map(|s| h.version_at(s, suite).expect("server").0)
        .collect();
    (write_ok, read.version.0, versions)
}

#[test]
fn crash_before_prepare_lands_is_retried_or_fails_clean() {
    for at in [60u64, 120, 180] {
        let (write_ok, read_v, versions) = crash_during_write(at, 20_000, 1000 + at);
        // Whatever happened, the final state is consistent: the read sees
        // the highest committed version, and at least a quorum holds it.
        let max = *versions.iter().max().expect("non-empty");
        assert_eq!(
            read_v, max,
            "read missed the newest version (crash at {at}ms)"
        );
        let holders = versions.iter().filter(|v| **v == max).count();
        assert!(holders >= 2, "committed version must live at a quorum");
        if write_ok {
            assert_eq!(max, 2, "acked write must be durable");
        }
    }
}

#[test]
fn crash_between_prepare_and_commit_resolves_via_decision_probe() {
    // Crash right after the prepares land (110 ms): the crashed site
    // holds a prepared-in-doubt transaction, its yes vote on the wire. On
    // recovery it probes the client, which answers from its durable
    // decision log.
    let (write_ok, read_v, versions) = crash_during_write(110, 30_000, 77);
    // Both votes reach the client, or its retry goes to the surviving
    // sites: either way the write commits.
    assert!(write_ok, "write should commit via the surviving quorum");
    assert_eq!(read_v, 2);
    // After recovery + resolution nothing is left in doubt: each member
    // of the static write quorum {0, 1} — the recovered site included —
    // either has the value (it committed its in-doubt txn) or cleanly
    // aborted it. Site 2 is outside that quorum: the paper's out-of-date
    // representative, at whatever a retry or nothing left it.
    for v in &versions[..2] {
        assert!(*v == 1 || *v == 2, "impossible version {v}");
    }
    assert!(versions[2] <= 2, "impossible version {}", versions[2]);
    assert!(versions.iter().filter(|v| **v == 2).count() >= 2);
}

#[test]
fn client_crash_loses_in_flight_ops_but_not_decisions() {
    let mut h = three_site_cluster(11);
    let suite = h.suite_id();
    h.write(suite, b"one".to_vec()).expect("write");
    let client = h.default_client();
    // Start a write and kill the client mid-flight.
    let start = h.now();
    h.enqueue(client, Op::Write(suite, b"doomed?".to_vec()), start);
    h.advance(SimDuration::from_millis(220));
    h.inject(Fault::Crash(client));
    h.advance(SimDuration::from_secs(30));
    h.inject(Fault::Recover(client));
    h.run_until_quiet(2_000_000);
    // The servers' decision probes got answered (presumed abort or the
    // durable commit), so no server is stuck holding locks: a fresh write
    // succeeds.
    let w = h
        .write(suite, b"after client crash".to_vec())
        .expect("write");
    let r = h.read(suite).expect("read");
    assert_eq!(r.version, w.version);
    assert_eq!(&r.value[..], b"after client crash");
}

#[test]
fn full_cluster_power_cycle_preserves_committed_state() {
    let mut h = three_site_cluster(13);
    let suite = h.suite_id();
    for i in 1..=3u64 {
        let w = h
            .write(suite, format!("gen {i}").into_bytes())
            .expect("write");
        assert_eq!(w.version.0, i);
    }
    for s in SiteId::all(3) {
        h.inject(Fault::Crash(s));
    }
    h.advance(SimDuration::from_secs(5));
    for s in SiteId::all(3) {
        h.inject(Fault::Recover(s));
    }
    let r = h.read(suite).expect("read after full restart");
    assert_eq!(r.version, Version(3));
    assert_eq!(&r.value[..], b"gen 3");
    // And the system still accepts writes.
    let w = h.write(suite, b"gen 4".to_vec()).expect("write");
    assert_eq!(w.version, Version(4));
}

#[test]
fn repeated_crash_recover_cycles_never_regress_versions() {
    let mut h = three_site_cluster(17);
    let suite = h.suite_id();
    let mut last = 0u64;
    for round in 0..6u64 {
        let victim = SiteId((round % 3) as u16);
        h.inject(Fault::Crash(victim));
        let w = h
            .write(suite, format!("round {round}").into_bytes())
            .expect("quorum of two suffices");
        assert!(w.version.0 > last, "version regressed");
        last = w.version.0;
        h.inject(Fault::Recover(victim));
        h.advance(SimDuration::from_secs(1));
        let r = h.read(suite).expect("read");
        assert_eq!(r.version.0, last);
    }
}
