//! Cross-crate integration: a healthy operation leaves no timer behind.
//!
//! Every protocol phase arms a timeout and every yes vote arms a decision
//! probe, and on the healthy path none of them has anything to do. A phase
//! cancels its timers when it ends, and a participant cancels its probe
//! once the decision is durable, so past every timeout the transport has
//! fired nothing — or, under a group-commit window, the syncs alone.

use weighted_voting::prelude::*;

fn cluster(group_commit: Option<SimDuration>) -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(5)
        .quorum(QuorumSpec::majority(3));
    for _ in 0..3 {
        b = b.site(SiteSpec::server(1));
    }
    if let Some(window) = group_commit {
        b = b.group_commit(window);
    }
    b.client().build().expect("legal")
}

/// The timers fired while `op` runs and then for a minute — past every
/// phase timeout, commit resend and decision probe it armed.
fn timers_fired(h: &mut Harness, op: impl FnOnce(&mut Harness)) -> u64 {
    let before = h.net_stats().timers_fired;
    op(h);
    h.advance(SimDuration::from_secs(60));
    h.net_stats().timers_fired - before
}

type Op = fn(&mut Harness);

/// A one-access write, a read, and nine writes launched together (one
/// alone, then a train of eight).
fn healthy_ops() -> [(&'static str, Op); 3] {
    [
        ("write", |h| {
            h.write(h.suite_id(), b"w".to_vec()).expect("write");
        }),
        ("read", |h| {
            h.read(h.suite_id()).expect("read");
        }),
        ("train", |h| {
            let (suite, client) = (h.suite_id(), h.default_client());
            for i in 0..9u8 {
                h.enqueue_write(client, suite, vec![i], h.now());
            }
        }),
    ]
}

#[test]
fn a_healthy_write_read_and_train_fire_no_timer() {
    let mut h = cluster(None);
    for (name, op) in healthy_ops() {
        assert_eq!(timers_fired(&mut h, op), 0, "{name}");
    }
    let client = h.default_client();
    let stats = h.client_at(client).expect("client").stats;
    assert_eq!((stats.trains, stats.writes_ridden), (3, 7));
    let done = h.drain_completed(client);
    assert_eq!(done.len(), 9);
    assert!(done.iter().all(|op| op.outcome.is_ok()));
}

#[test]
fn under_group_commit_the_only_timers_fired_are_the_syncs() {
    let mut h = cluster(Some(SimDuration::from_millis(5)));
    let syncs = |h: &Harness| -> u64 {
        (0..3u16)
            .map(|s| h.server_at(SiteId(s)).expect("server").stats.wal_batches)
            .sum()
    };
    for (name, op) in healthy_ops() {
        let before = syncs(&h);
        let fired = timers_fired(&mut h, op);
        let synced = syncs(&h) - before;
        assert_eq!(fired, synced, "{name}");
        assert!(synced > 0 || name == "read", "{name}");
    }
}
