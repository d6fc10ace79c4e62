//! Cross-crate integration: the protocol under message loss and
//! duplication.
//!
//! Link loss turns into attempt timeouts and retries; duplication
//! exercises handler idempotence (duplicate prepares re-vote, duplicate
//! commits re-ack, duplicate version answers are absorbed). Neither may
//! ever produce a stale read or a torn write.

use weighted_voting::core::client::ClientOptions;
use weighted_voting::prelude::*;

fn lossy_cluster(drop: f64, duplicate: f64, seed: u64) -> Harness {
    let sites = 4;
    let mut net = NetConfig::uniform(sites, LatencyModel::constant_millis(50));
    net.set_drop_all(drop);
    net.duplicate_prob = duplicate;
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::majority(3))
        .client_options(ClientOptions {
            phase_timeout: SimDuration::from_millis(1_500),
            max_attempts: 20,
            ..ClientOptions::default()
        })
        .net(net);
    for _ in 0..3 {
        b = b.site(SiteSpec::server(1));
    }
    b.client().build().expect("legal")
}

#[test]
fn operations_survive_moderate_loss() {
    let mut h = lossy_cluster(0.10, 0.0, 71);
    let suite = h.suite_id();
    let mut last = Version(0);
    let mut ok_writes = 0;
    for i in 0..10u32 {
        if let Ok(w) = h.write(suite, format!("w{i}").into_bytes()) {
            assert!(w.version > last, "version regressed under loss");
            last = w.version;
            ok_writes += 1;
        }
        if let Ok(r) = h.read(suite) {
            assert!(r.version >= last, "stale read under loss");
        }
    }
    assert!(
        ok_writes >= 8,
        "10% loss with retries should commit most writes, got {ok_writes}"
    );
}

#[test]
fn operations_survive_heavy_duplication() {
    let mut h = lossy_cluster(0.0, 0.5, 72);
    let suite = h.suite_id();
    for i in 0..8u32 {
        let w = h
            .write(suite, format!("dup{i}").into_bytes())
            .expect("no loss, only duplicates: writes must commit");
        assert_eq!(
            w.version,
            Version(u64::from(i) + 1),
            "duplicates double-applied"
        );
        let r = h.read(suite).expect("read");
        assert_eq!(r.version, w.version);
        assert_eq!(r.value, format!("dup{i}").into_bytes());
    }
    let dup = h.net_stats().duplicated;
    assert!(dup > 20, "duplication was actually exercised: {dup}");
}

#[test]
fn duplication_dialed_in_mid_run_never_double_applies_a_write() {
    // Exactly-once under at-least-once delivery, end to end: run clean,
    // then turn heavy duplication on with the runtime dial (the chaos
    // campaign's `Duplication` event) while writes are in flight, then
    // off again. Every acknowledged write must consume exactly one
    // version — a double-applied prepare or commit would show up as a
    // version skip — and the final contents must be the last payload.
    let mut h = lossy_cluster(0.0, 0.0, 74);
    let suite = h.suite_id();
    let client = h.default_client();
    let mut expected = 0u64;
    for phase in 0..3u32 {
        h.inject(Fault::Duplicate(if phase == 1 { 0.6 } else { 0.0 }));
        // Overlapping traffic: enqueue a burst without waiting in between,
        // so duplicated prepares and commits interleave with live ones.
        // (Writes launched while one is preparing share the next prepare,
        // so a burst of eight is only a few rounds of messages.)
        let start = h.now();
        for i in 0..BURST {
            let at = start + SimDuration::from_millis(u64::from(i) * 40);
            h.enqueue_write(client, suite, payload(phase, i), at);
        }
        h.run_until_quiet(2_000_000);
        for op in h.drain_completed(client) {
            let ok = op.outcome.expect("no loss: writes must commit");
            expected += 1;
            assert_eq!(
                ok.version,
                Version(expected),
                "phase {phase}: a duplicate was applied twice or a write was lost"
            );
        }
    }
    let dup = h.net_stats().duplicated;
    assert!(dup > 20, "duplication was actually exercised: {dup}");
    let r = h.read(suite).expect("final read");
    assert_eq!(r.version, Version(expected));
    assert_eq!(r.value, payload(2, BURST - 1));
}

const BURST: u32 = 8;

fn payload(phase: u32, i: u32) -> Vec<u8> {
    format!("p{phase}i{i}").into_bytes()
}

#[test]
fn loss_and_duplication_together_stay_consistent() {
    let mut h = lossy_cluster(0.08, 0.3, 73);
    let suite = h.suite_id();
    let mut committed = Vec::new();
    for i in 0..12u32 {
        if let Ok(w) = h.write(suite, format!("x{i}").into_bytes()) {
            committed.push(w.version.0);
        }
    }
    // Committed versions are strictly increasing and gap-free: retries and
    // duplicate deliveries never double-commit or skip.
    for pair in committed.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "gap or repeat in {committed:?}");
    }
    let r = h.read(suite).expect("final read");
    assert_eq!(
        r.version.0,
        *committed.last().expect("some writes committed")
    );
}
