//! Topology builders for the paper's example configurations.
//!
//! The paper quotes *access* latencies (request + response). The simulator
//! charges per message, so each one-way link latency here is half the
//! quoted access cost; an inquiry or fetch round trip then costs exactly
//! the paper's number.

use wv_core::harness::{HarnessBuilder, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_net::{NetConfig, SiteId};
use wv_sim::{LatencyModel, SimDuration};

/// One-way latency model for a quoted round-trip access cost in ms.
pub fn half_ms(access_ms: f64) -> LatencyModel {
    LatencyModel::Constant(SimDuration::from_millis_f64(access_ms / 2.0))
}

/// A network where `access[i]` is the client's round-trip cost to site `i`
/// and the client is the last site. `self_access` overrides per-site
/// self-link costs (used for weak representatives co-located with the
/// client).
pub fn client_star(access: &[f64], client_self: Option<f64>) -> NetConfig {
    let sites = access.len() + 1;
    let client = SiteId::from(sites - 1);
    // Server-to-server links barely matter (the client coordinates), but
    // give them a sane default.
    let mut net = NetConfig::uniform(sites, half_ms(100.0));
    for (i, &a) in access.iter().enumerate() {
        net.set_link_symmetric(client, SiteId::from(i), half_ms(a));
    }
    if let Some(a) = client_self {
        net.set_link(client, client, half_ms(a));
    }
    net
}

/// The paper's Example 1, built on either clock: one voting representative
/// on the file server (75 ms), the client workstation holding a weak
/// representative (65 ms local access), and a second workstation with its
/// own weak representative. `r = w = 1`.
pub fn example_1(seed: u64) -> HarnessBuilder {
    // Sites: 0 = file server (1 vote), 1 = other workstation (weak),
    // 2 = client workstation (weak).
    let net = {
        let mut net = client_star(&[75.0, 100.0], Some(65.0));
        // The other workstation's weak rep is remote to this client.
        net.set_link_symmetric(SiteId(2), SiteId(1), half_ms(100.0));
        net
    };
    HarnessBuilder::new()
        .seed(seed)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(0))
        .site(SiteSpec::client_with_weak())
        .quorum(QuorumSpec::new(1, 1))
        .net(net)
}

/// The paper's Example 2: votes ⟨2,1,1⟩ with accesses 75/100/750 ms,
/// `r = 2, w = 3`.
pub fn example_2(seed: u64) -> HarnessBuilder {
    HarnessBuilder::new()
        .seed(seed)
        .site(SiteSpec::server(2))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::new(2, 3))
        .net(client_star(&[75.0, 100.0, 750.0], None))
}

/// The paper's Example 3: votes ⟨1,1,1⟩ with accesses 75/750/750 ms,
/// `r = 1, w = 3`.
pub fn example_3(seed: u64) -> HarnessBuilder {
    HarnessBuilder::new()
        .seed(seed)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(1))
        .client()
        .quorum(QuorumSpec::new(1, 3))
        .net(client_star(&[75.0, 750.0, 750.0], None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_ms_halves() {
        assert_eq!(half_ms(75.0).mean_millis(), 37.5);
    }

    #[test]
    fn client_star_costs() {
        let net = client_star(&[75.0, 100.0, 750.0], None);
        let client = SiteId(3);
        assert_eq!(net.mean_latency_ms(client, SiteId(0)), 37.5);
        assert_eq!(net.mean_latency_ms(SiteId(2), client), 375.0);
    }

    #[test]
    fn examples_build_and_serve() {
        for (i, example) in [example_1, example_2, example_3].into_iter().enumerate() {
            let mut h = example(1).build().expect("the paper's examples are legal");
            let suite = h.suite_id();
            h.write(suite, vec![i as u8]).expect("write");
            let r = h.read(suite).expect("read");
            assert_eq!(r.value[0], i as u8);
        }
    }

    /// What 1000 write / miss-read / hit-read rounds leave behind on
    /// Example 1 is an exact function of the seed. A log that starts
    /// growing with the ops served, or a plan cache that stops hitting,
    /// moves one of these counts.
    #[test]
    fn a_thousand_rounds_retain_seed_exact_logs_and_miss_the_plan_cache_once() {
        let mut h = example_1(7).build().expect("legal");
        let suite = h.suite_id();
        for i in 0..1_000 {
            h.write(suite, format!("round-{i}").into_bytes())
                .expect("write succeeds");
            for _ in 0..2 {
                h.advance(SimDuration::from_secs(2));
                h.read(suite).expect("read succeeds");
            }
            h.advance(SimDuration::from_secs(2));
        }
        let (mut strong, mut weak) = (0, 0);
        for (i, node) in h.cluster().nodes.iter().enumerate() {
            let Some(server) = node.as_server() else {
                continue;
            };
            let is_weak = server
                .config(suite)
                .is_some_and(|cfg| cfg.assignment.is_weak(SiteId::from(i)));
            *if is_weak { &mut weak } else { &mut strong } +=
                server.container().wal().image_bytes();
        }
        let client = h.cluster().nodes[h.default_client().index()]
            .as_client()
            .expect("default client exists");
        let decisions = client.decision_log();
        assert_eq!(
            (strong, weak, decisions.wal().len(), decisions.len()),
            (11_870, 12_797, 436, 146),
            "(voting WAL bytes, weak WAL bytes, decision-log records, objects)"
        );
        assert_eq!(
            (client.stats.plan_cache_hits, client.stats.plan_cache_misses),
            (2_999, 1)
        );
    }
}
