//! Cross-crate integration: online reconfiguration edge cases.
//!
//! The paper's rule is that vote changes are installed under the *old*
//! configuration's write quorum; the subtle part is granting votes to a
//! representative whose copy is stale (e.g. promoting a weak cache). The
//! reconfiguration transaction must bring such members current, or a
//! new-config read quorum containing only them would serve stale data.

use weighted_voting::prelude::*;

#[test]
fn promoting_a_weak_representative_brings_it_current() {
    // Site 0: voting server. Site 1: weak representative. Site 2: client.
    let mut h = HarnessBuilder::new()
        .seed(91)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(0))
        .client()
        .quorum(QuorumSpec::new(1, 1))
        .client_options(weighted_voting::core::client::ClientOptions {
            // No cache fills: the weak representative must be brought
            // current by the reconfiguration itself, not by read traffic.
            optimistic_fetch: false,
            ..Default::default()
        })
        .build()
        .expect("legal");
    let suite = h.suite_id();
    let client = h.default_client();
    for i in 1..=3u64 {
        h.write(suite, format!("gen{i}").into_bytes())
            .expect("write");
    }
    // The weak representative never saw any of it.
    assert_eq!(h.version_at(SiteId(1), suite), Some(Version(0)));
    // Promote it: both sites get one vote, r = 1, w = 2.
    h.reconfigure_from(
        client,
        suite,
        VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1)]),
        QuorumSpec::new(1, 2),
    )
    .expect("reconfigure");
    // The promotion installed the current contents at the promoted site,
    // atomically with the configuration change. The copy lands one
    // version up (v4): the bump is what serialises the reconfiguration
    // against concurrent writes.
    assert_eq!(h.version_at(SiteId(1), suite), Some(Version(4)));
    assert_eq!(h.value_at(SiteId(1), suite).expect("server"), &b"gen3"[..]);
    // The acid test: crash the old sole voter. Under r = 1 the promoted
    // site alone now forms a read quorum — and it must serve fresh data.
    h.inject(Fault::Crash(SiteId(0)));
    let r = h.read(suite).expect("read from the promoted site");
    assert_eq!(r.version, Version(4));
    assert_eq!(&r.value[..], b"gen3");
}

#[test]
fn reconfiguration_of_an_unwritten_suite_still_consumes_a_version() {
    let mut h = HarnessBuilder::new()
        .seed(92)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(0))
        .client()
        .quorum(QuorumSpec::new(1, 1))
        .build()
        .expect("legal");
    let suite = h.suite_id();
    let client = h.default_client();
    h.reconfigure_from(
        client,
        suite,
        VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1)]),
        QuorumSpec::majority(2),
    )
    .expect("reconfigure an empty suite");
    assert_eq!(
        h.server_at(SiteId(0))
            .and_then(|s| s.config(suite))
            .map(|c| c.generation),
        Some(2)
    );
    // The re-publication bump writes the (empty) initial contents at v1
    // — even an empty suite serialises its reconfiguration against
    // concurrent first writes — so the first real write lands at v2.
    let w = h.write(suite, b"first".to_vec()).expect("write");
    assert_eq!(w.version, Version(2));
}

#[test]
fn shrinking_the_write_quorum_speeds_up_writes() {
    // Start write-all over 3 sites, shrink to majority.
    let mut h = HarnessBuilder::new()
        .seed(93)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::new(1, 3))
        .build()
        .expect("legal");
    let suite = h.suite_id();
    let client = h.default_client();
    h.write(suite, b"a".to_vec()).expect("write");
    // Write-all blocks when any site is down.
    h.inject(Fault::Crash(SiteId(2)));
    assert!(h.write(suite, b"blocked".to_vec()).is_err());
    h.inject(Fault::Recover(SiteId(2)));
    h.reconfigure_from(
        client,
        suite,
        VoteAssignment::equal(3),
        QuorumSpec::majority(3),
    )
    .expect("reconfigure");
    // Majority tolerates the same crash.
    h.inject(Fault::Crash(SiteId(2)));
    let w = h.write(suite, b"tolerant".to_vec()).expect("write");
    let r = h.read(suite).expect("read");
    assert_eq!(r.version, w.version);
    assert_eq!(&r.value[..], b"tolerant");
}

#[test]
fn reconfiguration_requires_the_new_write_quorum_to_be_reachable() {
    let mut h = HarnessBuilder::new()
        .seed(94)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .build()
        .expect("legal");
    let suite = h.suite_id();
    let client = h.default_client();
    h.write(suite, b"x".to_vec()).expect("write");
    h.inject(Fault::Crash(SiteId(2)));
    // Old majority (2 of 3) is reachable, but the requested write-all
    // configuration could never be installed safely: its data quorum
    // cannot be assembled.
    let err = h
        .reconfigure_from(
            client,
            suite,
            VoteAssignment::equal(3),
            QuorumSpec::new(1, 3),
        )
        .expect_err("new write quorum unreachable");
    assert!(matches!(err, OpError::Unavailable { .. }));
    // And nothing changed: the old configuration still serves.
    assert_eq!(
        h.server_at(SiteId(0))
            .and_then(|s| s.config(suite))
            .map(|c| c.generation),
        Some(1)
    );
    assert!(h.write(suite, b"still majority".to_vec()).is_ok());
}

#[test]
fn back_to_back_reconfigurations_keep_generations_monotone() {
    let mut h = HarnessBuilder::new()
        .seed(95)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::majority(3))
        .build()
        .expect("legal");
    let suite = h.suite_id();
    let client = h.default_client();
    let specs = [
        QuorumSpec::new(1, 3),
        QuorumSpec::majority(3),
        QuorumSpec::new(3, 1),
        QuorumSpec::majority(3),
    ];
    for (i, q) in specs.iter().enumerate() {
        let w = h
            .reconfigure_from(client, suite, VoteAssignment::equal(3), *q)
            .expect("reconfigure");
        assert_eq!(w.version.0, i as u64 + 2, "generation chain");
        // The suite keeps serving between changes.
        h.write(suite, format!("i{i}").into_bytes()).expect("write");
        let r = h.read(suite).expect("read");
        assert_eq!(r.value, format!("i{i}").into_bytes());
    }
}
