//! Cross-crate integration: the transport's counters match the analytic
//! message-cost model.

use weighted_voting::analysis::{
    inquiry_messages, read_messages_bounds, read_messages_sequential, train_messages_per_write,
    write_messages,
};
use weighted_voting::core::client::ClientOptions;
use weighted_voting::prelude::*;

fn cluster(servers: usize, quorum: QuorumSpec, optimistic: bool, seed: u64) -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(quorum)
        .client_options(ClientOptions {
            optimistic_fetch: optimistic,
            ..ClientOptions::default()
        });
    for _ in 0..servers {
        b = b.site(SiteSpec::server(1));
    }
    b.client().build().expect("legal")
}

#[test]
fn write_message_count_is_exact() {
    for (servers, r, w) in [
        (3usize, 2u32, 2u32),
        (5, 3, 3),
        (3, 1, 3),
        (5, 1, 5),
        (3, 3, 1),
        (5, 4, 2),
    ] {
        let mut h = cluster(servers, QuorumSpec::new(r, w), true, 7);
        let suite = h.suite_id();
        let before = h.net_stats().sent;
        h.write(suite, b"count me".to_vec()).expect("write");
        // Reported at the commit decision: the acks are still to come.
        h.advance(SimDuration::from_secs(1));
        let sent = h.net_stats().sent - before;
        // Equal votes: the write quorum has exactly w sites, and the write
        // is that one quorum access — unless write quorums need not
        // intersect, when every server is asked for its version first.
        let mut expected = write_messages(w as usize);
        if 2 * w as usize <= servers {
            expected += inquiry_messages(servers);
        }
        assert_eq!(sent, expected, "servers={servers} r={r} w={w}");
    }
}

#[test]
fn a_train_costs_its_members_one_quorum_access_between_them() {
    // Nine writes of one client launched together: the first goes alone,
    // the other eight leave together when it is decided.
    for (servers, w) in [(3usize, 2usize), (5, 3)] {
        let mut h = cluster(servers, QuorumSpec::majority(servers as u32), true, 8);
        let (suite, client) = (h.suite_id(), h.default_client());
        let before = h.net_stats().sent;
        for i in 0..9u8 {
            h.enqueue_write(client, suite, vec![i], h.now());
        }
        h.run_until_quiet(100_000);
        let sent = (h.net_stats().sent - before) as f64;
        let expected = train_messages_per_write(w, 1) + 8.0 * train_messages_per_write(w, 8);
        assert_eq!(sent, expected, "servers={servers}");
        let stats = h.client_at(client).expect("client").stats;
        assert_eq!((stats.trains, stats.writes_ridden), (2, 7));
    }
}

#[test]
fn optimistic_read_message_count_is_within_bounds() {
    for servers in [3usize, 5] {
        let mut h = cluster(servers, QuorumSpec::majority(servers as u32), true, 9);
        let suite = h.suite_id();
        h.write(suite, b"x".to_vec()).expect("prime");
        h.advance(SimDuration::from_secs(1));
        let before = h.net_stats().sent;
        h.read(suite).expect("read");
        let sent = h.net_stats().sent - before;
        // The cheapest host holds the write and answers within the read
        // quorum: its answer brings the contents and nothing else moves.
        // (The upper bound is the read whose contents host answers last.)
        assert_eq!(sent, read_messages_bounds(servers).0, "servers={servers}");
    }
    // On jittered links the host asked for the contents sometimes answers
    // after the quorum has settled on the other two, one of which the
    // priming write skipped: then, and only then, a fetch goes out.
    let jitter = LatencyModel::ShiftedExponential {
        base: SimDuration::from_millis(20),
        tail_mean: SimDuration::from_millis(5),
    };
    let mut b = HarnessBuilder::new()
        .seed(9)
        .quorum(QuorumSpec::majority(3))
        .net(NetConfig::uniform(4, jitter));
    for _ in 0..3 {
        b = b.site(SiteSpec::server(1));
    }
    let mut h = b.client().build().expect("legal");
    let suite = h.suite_id();
    h.write(suite, b"x".to_vec()).expect("prime");
    h.advance(SimDuration::from_secs(1));
    let (lo, hi) = read_messages_bounds(3);
    let mut seen = [0u32; 2];
    for _ in 0..60 {
        let before = h.net_stats().sent;
        h.read(suite).expect("read");
        h.advance(SimDuration::from_secs(1)); // a fetch's answer counts too
        let sent = h.net_stats().sent - before;
        assert!(
            sent == lo || sent == hi,
            "sent {sent}, expected {lo} or {hi}"
        );
        seen[usize::from(sent == hi)] += 1;
    }
    assert!(seen[0] > seen[1] && seen[1] > 0, "{seen:?}");
}

#[test]
fn sequential_read_message_count_is_exact() {
    for servers in [3usize, 5] {
        let mut h = cluster(servers, QuorumSpec::majority(servers as u32), false, 11);
        let suite = h.suite_id();
        h.write(suite, b"x".to_vec()).expect("prime");
        h.advance(SimDuration::from_secs(1));
        let before = h.net_stats().sent;
        h.read(suite).expect("read");
        let sent = h.net_stats().sent - before;
        assert_eq!(sent, read_messages_sequential(servers), "servers={servers}");
    }
}

#[test]
fn weak_representative_adds_one_host_and_cache_fill() {
    // 1 voting server + 1 workstation (client + weak rep): h = 2 hosts.
    let mut h = HarnessBuilder::new()
        .seed(13)
        .site(SiteSpec::server(1))
        .site(SiteSpec::client_with_weak())
        .quorum(QuorumSpec::new(1, 1))
        .build()
        .expect("legal");
    let suite = h.suite_id();
    h.write(suite, b"x".to_vec()).expect("prime");
    h.advance(SimDuration::from_secs(1));
    // Miss: inquiry pair ×2 hosts — the server's answer brings the
    // contents — + the content read of the own copy (stale) + one
    // UpdateWeak cache fill.
    let before = h.net_stats().sent;
    h.read(suite).expect("read miss");
    let miss_sent = h.net_stats().sent - before;
    assert_eq!(miss_sent, 2 * 2 + 2 + 1, "miss path");
    h.advance(SimDuration::from_secs(1));
    // Hit: inquiry pairs + the own copy's content read only.
    let before = h.net_stats().sent;
    h.read(suite).expect("read hit");
    let hit_sent = h.net_stats().sent - before;
    assert_eq!(hit_sent, 2 * 2 + 2, "hit path");
}

#[test]
fn a_read_inquires_the_servers_and_its_own_workstation_only() {
    // 3 voting servers + 3 workstations. A workstation's own copy (75 ms
    // self-link against 100 ms to a server) can be the fetch source and
    // is asked; the other workstations' copies cost what a server costs,
    // can never be chosen ahead of one, and are not: 2 × (servers + 1)
    // inquiry messages per read, not 2 × (servers + workstations).
    let mut b = HarnessBuilder::new().seed(17).quorum(QuorumSpec::new(2, 2));
    for _ in 0..3 {
        b = b.site(SiteSpec::server(1));
    }
    for _ in 0..3 {
        b = b.site(SiteSpec::client_with_weak());
    }
    let mut h = b.build().expect("legal");
    let suite = h.suite_id();
    h.write(suite, b"x".to_vec()).expect("prime");
    h.advance(SimDuration::from_secs(1));
    // Miss: the content read finds the own copy stale, the cheapest
    // server's version answer brings the contents, and one UpdateWeak
    // fills the own copy.
    let before = h.net_stats().sent;
    h.read(suite).expect("read miss");
    let miss_sent = h.net_stats().sent - before;
    assert_eq!(miss_sent, 2 * (3 + 1) + 2 + 1, "miss path");
    h.advance(SimDuration::from_secs(1));
    let before = h.net_stats().sent;
    h.read(suite).expect("read hit");
    let hit_sent = h.net_stats().sent - before;
    assert_eq!(hit_sent, 2 * (3 + 1) + 2, "hit path");
    // A write asks nobody: it installs at two servers, and that is all.
    let before = h.net_stats().sent;
    h.write(suite, b"y".to_vec()).expect("write");
    h.advance(SimDuration::from_secs(1));
    let sent = h.net_stats().sent - before;
    assert_eq!(sent, write_messages(2));
}
