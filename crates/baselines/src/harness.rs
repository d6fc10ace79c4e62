//! Synchronous facade over a simulated baseline cluster, mirroring
//! `wv_core::harness` so the comparison experiments drive all schemes
//! through the same motions.
//!
//! The same determinism contract applies: a harness replays the same
//! virtual-time history from the same inputs and seed on any OS thread,
//! which is what lets `wv-bench` build one per trial inside its parallel
//! trial engine.

use bytes::Bytes;
use wv_net::sim_net::{Cluster, NetStats};
use wv_net::{Fault, NetConfig, Node, NodeCtx, SiteId};
use wv_sim::{LatencyModel, Sim, SimDuration, SimTime};
use wv_storage::Version;

use crate::client::{BaselineClient, BaselineOp, Scheme};
use crate::msg::BMsg;
use crate::server::BaselineServer;

/// Server or client role per site.
enum BNode {
    Server(BaselineServer),
    Client(BaselineClient),
}

impl Node for BNode {
    type Msg = BMsg;

    fn on_message(&mut self, from: SiteId, msg: BMsg, ctx: &mut NodeCtx<'_, BMsg>) {
        match self {
            BNode::Server(s) => s.on_message(from, msg, ctx),
            BNode::Client(c) => c.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, BMsg>) {
        if let BNode::Client(c) = self {
            c.on_timer(token, ctx);
        }
    }

    fn on_crash(&mut self) {
        match self {
            BNode::Server(_) => {} // replica state is stable storage
            BNode::Client(c) => c.on_crash(),
        }
    }
}

/// A baseline cluster: `replicas` servers (sites `0..replicas`) plus one
/// client (the last site), with blocking-style operations.
pub struct BaselineHarness {
    sim: Sim<Cluster<BNode>>,
    client: SiteId,
    scheme: Scheme,
}

impl BaselineHarness {
    /// Builds a cluster for `scheme` with `replicas` replicas over `net`
    /// (which must cover `replicas + 1` sites; the extra one hosts the
    /// client). `timeout` bounds each operation.
    pub fn new(
        scheme: Scheme,
        replicas: usize,
        net: NetConfig,
        seed: u64,
        timeout: SimDuration,
    ) -> Self {
        assert_eq!(
            net.sites(),
            replicas + 1,
            "network must cover replicas plus one client site"
        );
        let client_site = SiteId::from(replicas);
        let replica_ids: Vec<SiteId> = SiteId::all(replicas).collect();
        let costs: Vec<f64> = (0..net.sites())
            .map(|j| net.mean_latency_ms(client_site, SiteId::from(j)))
            .collect();
        let mut nodes: Vec<BNode> = (0..replicas)
            .map(|i| {
                let site = SiteId::from(i);
                let server = match scheme {
                    Scheme::Primary { primary, .. } if primary == site => BaselineServer::primary(
                        site,
                        replica_ids.iter().copied().filter(|r| *r != site).collect(),
                    ),
                    _ => BaselineServer::new(site),
                };
                BNode::Server(server)
            })
            .collect();
        nodes.push(BNode::Client(BaselineClient::new(
            client_site,
            scheme,
            replica_ids,
            costs,
            timeout,
        )));
        BaselineHarness {
            sim: Cluster::sim(nodes, net, seed),
            client: client_site,
            scheme,
        }
    }

    /// Convenience constructor: uniform 100 ms links, 75 ms local access.
    pub fn uniform(scheme: Scheme, replicas: usize, seed: u64) -> Self {
        let sites = replicas + 1;
        let mut net = NetConfig::uniform(sites, LatencyModel::constant_millis(100));
        for s in SiteId::all(sites) {
            net.set_link(s, s, LatencyModel::constant_millis(75));
        }
        BaselineHarness::new(scheme, replicas, net, seed, SimDuration::from_secs(5))
    }

    /// The scheme under test.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Transport counters.
    pub fn net_stats(&self) -> NetStats {
        self.sim.world.stats
    }

    fn run_op(
        &mut self,
        start: impl FnOnce(&mut BaselineClient, &mut NodeCtx<'_, BMsg>) + 'static,
    ) -> Option<BaselineOp> {
        let client = self.client;
        let before = match &self.sim.world.nodes[client.index()] {
            BNode::Client(c) => c.completed.len(),
            BNode::Server(_) => unreachable!("client site hosts the client"),
        };
        let at = self.sim.now();
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            if let BNode::Client(c) = node {
                start(c, ctx);
            }
        });
        loop {
            let len = match &self.sim.world.nodes[client.index()] {
                BNode::Client(c) => c.completed.len(),
                BNode::Server(_) => unreachable!(),
            };
            if len > before {
                break;
            }
            if !self.sim.step() {
                return None;
            }
        }
        match &mut self.sim.world.nodes[client.index()] {
            BNode::Client(c) => Some(c.completed.remove(before)),
            BNode::Server(_) => unreachable!(),
        }
    }

    /// Reads; `Ok((version, value, latency))` or `Err(())` if blocked.
    ///
    /// # Errors
    ///
    /// The unit error means exactly one thing — the operation blocked —
    /// mirroring the paper's binary blocked/served outcome, so a richer
    /// error type would carry no information.
    #[allow(clippy::type_complexity, clippy::result_unit_err)]
    pub fn read(&mut self) -> Result<(Version, Bytes, SimDuration), ()> {
        let op = self.run_op(|c, ctx| {
            c.start_read(ctx);
        });
        match op {
            Some(op) => {
                let latency = op.latency();
                op.outcome
                    .map(|(v, val)| (v, val.unwrap_or_default(), latency))
            }
            None => Err(()),
        }
    }

    /// Writes; `Ok((version, latency))` or `Err(())` if blocked.
    ///
    /// # Errors
    ///
    /// As for [`BaselineHarness::read`]: blocked, nothing more to say.
    #[allow(clippy::result_unit_err)]
    pub fn write(&mut self, value: Vec<u8>) -> Result<(Version, SimDuration), ()> {
        let op = self.run_op(move |c, ctx| {
            c.start_write(value, ctx);
        });
        match op {
            Some(op) => {
                let latency = op.latency();
                op.outcome.map(|(v, _)| (v, latency))
            }
            None => Err(()),
        }
    }

    /// Applies `fault` now.
    pub fn inject(&mut self, fault: Fault) {
        let at = self.sim.now();
        Cluster::apply_at(self.sim.scheduler(), at, fault);
        self.sim.run_until(at);
    }

    /// Lets asynchronous propagation settle.
    pub fn advance(&mut self, d: SimDuration) {
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline);
    }

    /// A replica's current version (for staleness checks).
    pub fn version_at(&self, site: SiteId) -> Option<Version> {
        match &self.sim.world.nodes[site.index()] {
            BNode::Server(s) => Some(s.version()),
            BNode::Client(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_history_is_independent_of_the_building_thread() {
        // Same contract as wv_core::harness: worker-thread trials replay
        // the main-thread history exactly.
        fn trial(seed: u64) -> (Version, SimDuration, SimDuration) {
            let mut h = BaselineHarness::uniform(Scheme::Majority, 3, seed);
            let (wv, wl) = h.write(b"t".to_vec()).expect("write");
            let (_, _, rl) = h.read().expect("read");
            (wv, wl, rl)
        }
        let on_main: Vec<_> = (0..4u64).map(trial).collect();
        let on_workers: Vec<_> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|seed| scope.spawn(move || trial(seed)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        assert_eq!(on_main, on_workers);
    }

    #[test]
    fn rowa_round_trip_and_write_blocking() {
        let mut h = BaselineHarness::uniform(Scheme::Rowa, 3, 1);
        let (v, _) = h.write(b"a".to_vec()).expect("write all up");
        assert_eq!(v, Version(1));
        let (rv, val, _) = h.read().expect("read");
        assert_eq!(rv, Version(1));
        assert_eq!(&val[..], b"a");
        // One crash blocks ROWA writes but not reads.
        h.inject(Fault::Crash(SiteId(0)));
        assert!(h.write(b"b".to_vec()).is_err());
        assert!(h.read().is_ok());
    }

    #[test]
    fn primary_round_trip_and_primary_loss() {
        let mut h = BaselineHarness::uniform(
            Scheme::Primary {
                primary: SiteId(0),
                local_reads: false,
            },
            3,
            2,
        );
        let (v, _) = h.write(b"a".to_vec()).expect("write via primary");
        assert_eq!(v, Version(1));
        h.advance(SimDuration::from_secs(1));
        // Propagation reached the backups.
        assert_eq!(h.version_at(SiteId(1)), Some(Version(1)));
        assert_eq!(h.version_at(SiteId(2)), Some(Version(1)));
        // Primary down: everything blocks, even though backups are alive.
        h.inject(Fault::Crash(SiteId(0)));
        assert!(h.write(b"b".to_vec()).is_err());
        assert!(h.read().is_err());
    }

    #[test]
    fn primary_local_reads_can_be_stale() {
        // Client (site 3) sits next to backup 1 (10 ms); the primary and
        // its propagation links are slow (100/500 ms), so a local read
        // lands before the update does.
        let mut net = NetConfig::uniform(4, LatencyModel::constant_millis(100));
        net.set_link_symmetric(SiteId(3), SiteId(1), LatencyModel::constant_millis(10));
        net.set_link(SiteId(0), SiteId(1), LatencyModel::constant_millis(500));
        net.set_link(SiteId(0), SiteId(2), LatencyModel::constant_millis(500));
        let mut h = BaselineHarness::new(
            Scheme::Primary {
                primary: SiteId(0),
                local_reads: true,
            },
            3,
            net,
            3,
            SimDuration::from_secs(5),
        );
        h.write(b"fresh".to_vec()).expect("write");
        // Do NOT advance: propagation is still in flight, so a local read
        // from a backup sees the old (empty) state.
        let (v, _, _) = h.read().expect("local read");
        assert_eq!(v, Version(0), "stale local read before propagation");
        h.advance(SimDuration::from_secs(1));
        let (v, val, _) = h.read().expect("local read after propagation");
        assert_eq!(v, Version(1));
        assert_eq!(&val[..], b"fresh");
    }

    #[test]
    fn majority_survives_minority_failures() {
        let mut h = BaselineHarness::uniform(Scheme::Majority, 3, 4);
        let (v, _) = h.write(b"a".to_vec()).expect("write");
        assert_eq!(v, Version(1));
        h.inject(Fault::Crash(SiteId(2)));
        let (v2, _) = h.write(b"b".to_vec()).expect("write with 2 of 3");
        assert_eq!(v2, Version(2));
        let (rv, val, _) = h.read().expect("read with 2 of 3");
        assert_eq!(rv, Version(2));
        assert_eq!(&val[..], b"b");
        // Losing the majority blocks.
        h.inject(Fault::Crash(SiteId(1)));
        assert!(h.write(b"c".to_vec()).is_err());
        assert!(h.read().is_err());
    }

    #[test]
    fn majority_write_is_monotone_after_recovery() {
        let mut h = BaselineHarness::uniform(Scheme::Majority, 3, 5);
        h.inject(Fault::Crash(SiteId(2)));
        h.write(b"one".to_vec()).expect("write at majority");
        h.inject(Fault::Recover(SiteId(2)));
        // Site 2 missed the write; a majority read still sees it.
        let (v, val, _) = h.read().expect("read");
        assert_eq!(v, Version(1));
        assert_eq!(&val[..], b"one");
        // A new write gets timestamp 2 even if it lands on the lagging site.
        let (v2, _) = h.write(b"two".to_vec()).expect("write");
        assert_eq!(v2, Version(2));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut h = BaselineHarness::uniform(Scheme::Majority, 3, seed);
            let (_, wl) = h.write(b"x".to_vec()).expect("write");
            let (_, _, rl) = h.read().expect("read");
            (wl, rl)
        };
        assert_eq!(run(9), run(9));
    }
}
