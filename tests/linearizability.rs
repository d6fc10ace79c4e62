//! Cross-crate integration: single-object linearizability under
//! concurrency, crashes, and partitions.
//!
//! Concurrent clients issue reads and writes against one suite. After the
//! run, the completion log is handed to the shared history oracle
//! (`wv-chaos`) in *strict* mode — these clusters never drop or delay
//! messages, so acknowledgement order must agree with version order on
//! top of the usual invariants (uniqueness, gap-freedom, no phantom or
//! stale reads).

use weighted_voting::chaos::check_log;
use weighted_voting::core::client::{CompletedOp, WeakRepOptions};
use weighted_voting::core::error::OpKind;
use weighted_voting::prelude::*;

fn cluster(servers: usize, clients: usize, quorum: QuorumSpec, seed: u64) -> Harness {
    let mut b = HarnessBuilder::new().seed(seed).quorum(quorum);
    for _ in 0..servers {
        b = b.site(SiteSpec::server(1));
    }
    for _ in 0..clients {
        b = b.client();
    }
    b.build().expect("legal cluster")
}

/// Checks the real-time consistency conditions over a completion log.
fn check_history(ops: &[CompletedOp]) {
    let violations = check_log(ops, None, true);
    assert!(
        violations.is_empty(),
        "history violations: {violations:?}\nops: {ops:#?}"
    );
}

#[test]
fn concurrent_clients_keep_a_single_history() {
    let mut h = cluster(3, 4, QuorumSpec::majority(3), 101);
    let suite = h.suite_id();
    let clients = h.clients().to_vec();
    // Interleave writes and reads from all clients at staggered times.
    for round in 0..12u64 {
        for (k, &c) in clients.iter().enumerate() {
            let at = SimTime::from_millis(round * 900 + k as u64 * 40);
            if (round + k as u64).is_multiple_of(3) {
                h.enqueue_write(c, suite, format!("r{round}k{k}").into_bytes(), at);
            } else {
                h.enqueue_read(c, suite, at);
            }
        }
    }
    h.run_until_quiet(2_000_000);
    let mut all = Vec::new();
    for &c in &clients {
        all.extend(h.drain_completed(c));
    }
    assert!(
        all.iter().filter(|o| o.outcome.is_ok()).count() > 20,
        "most operations should succeed on a healthy cluster"
    );
    check_history(&all);
}

#[test]
fn history_stays_single_under_crashes_and_recoveries() {
    let mut h = cluster(5, 3, QuorumSpec::majority(5), 202);
    let suite = h.suite_id();
    let clients = h.clients().to_vec();
    for round in 0..10u64 {
        for (k, &c) in clients.iter().enumerate() {
            let at = SimTime::from_millis(round * 1_500 + k as u64 * 70);
            if k == 0 {
                h.enqueue_write(c, suite, format!("w{round}").into_bytes(), at);
            } else {
                h.enqueue_read(c, suite, at);
            }
        }
    }
    // A rolling outage: two different servers bounce during the run.
    h.advance(SimDuration::from_millis(2_000));
    h.inject(Fault::Crash(SiteId(0)));
    h.advance(SimDuration::from_millis(3_000));
    h.inject(Fault::Crash(SiteId(1)));
    h.advance(SimDuration::from_millis(3_000));
    h.inject(Fault::Recover(SiteId(0)));
    h.advance(SimDuration::from_millis(2_000));
    h.inject(Fault::Recover(SiteId(1)));
    h.run_until_quiet(3_000_000);
    let mut all = Vec::new();
    for &c in &clients {
        all.extend(h.drain_completed(c));
    }
    check_history(&all);
    // The cluster still works afterwards.
    let w = h.write(suite, b"after the storm".to_vec()).expect("write");
    let r = h.read(suite).expect("read");
    assert_eq!(r.version, w.version);
}

#[test]
fn history_stays_single_across_a_partition() {
    let mut h = cluster(3, 2, QuorumSpec::majority(3), 303);
    let suite = h.suite_id();
    let clients = h.clients().to_vec();
    // Enqueue (rather than block on) the base write so its completion
    // record stays in the log the oracle checks — gap-freedom needs v1.
    h.enqueue_write(clients[0], suite, b"base".to_vec(), h.now());
    h.run_until_quiet(1_000_000);
    // Client 0 with the majority, client 1 with the minority.
    h.inject(Fault::Partition(Partition::split(
        5,
        &[&[SiteId(0), SiteId(1), SiteId(3)], &[SiteId(2), SiteId(4)]],
    )));
    for round in 0..6u64 {
        let at = h.now() + SimDuration::from_millis(round * 1_000);
        h.enqueue_write(clients[0], suite, format!("maj{round}").into_bytes(), at);
        h.enqueue_read(clients[1], suite, at);
    }
    h.run_until_quiet(2_000_000);
    h.inject(Fault::Heal);
    let mut all = Vec::new();
    for &c in &clients {
        all.extend(h.drain_completed(c));
    }
    // Minority reads must have failed rather than returned stale data.
    let minority_reads_ok = all
        .iter()
        .filter(|o| o.kind == OpKind::Read && o.outcome.is_ok())
        .count();
    assert_eq!(minority_reads_ok, 0, "minority reads must block");
    check_history(&all);
    // After healing the minority client sees the majority's history.
    let r = h.read_from(clients[1], suite).expect("read after heal");
    assert!(
        r.version >= Version(7),
        "expected base + 6 writes, got {}",
        r.version
    );
}

#[test]
fn a_pipelined_cache_tier_read_takes_its_freshness_from_its_own_round() {
    // Three one-vote servers, r = w = 2, a reader and a writer. Every
    // link is 5 ms except s1 → reader and s2 → reader, at 100 ms: the
    // reader's inquiry quorum waits on one of those two answers.
    let (reader, writer) = (SiteId(3), SiteId(4));
    let mut net = NetConfig::uniform(5, LatencyModel::constant_millis(5));
    for slow in [SiteId(1), SiteId(2)] {
        net.set_link(slow, reader, LatencyModel::constant_millis(100));
    }
    let mut h = HarnessBuilder::new()
        .seed(404)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .client()
        .quorum(QuorumSpec::majority(3))
        .net(net)
        .client_options(ClientOptions {
            pipeline_depth: Some(4),
            weak_rep: Some(WeakRepOptions::validated()),
            ..ClientOptions::default()
        })
        .build()
        .expect("legal cluster");
    let suite = h.suite_id();
    h.enqueue_write(writer, suite, b"v1".to_vec(), h.now());
    h.run_until_quiet(1_000_000);
    // The reader reads; the writer's v2 is reported while that read's
    // inquiry is still out; then the reader reads again.
    let t0 = h.now();
    let at = |ms| t0 + SimDuration::from_millis(ms);
    h.enqueue_read(reader, suite, at(0));
    h.enqueue_write(writer, suite, b"v2".to_vec(), at(8));
    h.enqueue_read(reader, suite, at(30));
    h.run_until_quiet(1_000_000);
    let mut ops = h.drain_completed(writer);
    let reported = ops.last().expect("the second write").finished;
    assert!(reported < at(30), "{ops:#?}");
    ops.extend(h.drain_completed(reader));
    let violations = check_log(&ops, None, false);
    assert!(violations.is_empty(), "{violations:?}\nops: {ops:#?}");
    let second = ops.last().expect("the second read");
    let version = second.outcome.as_ref().expect("read").version;
    assert_eq!(version, Version(2), "answers from before it started");
}
