//! The cluster a [`HarnessBuilder`] describes, on real threads: the
//! nodes [`HarnessBuilder::build`] puts on the simulator, each on its own
//! [`NodeRunner`] over a [`ThreadNet`] that imposes link latencies in
//! scaled real time. Latencies a node reports stay unscaled, so they
//! compare with the simulator's. Only the verbs that mean something on a
//! real clock are here: an operation starts now, and a caller waits a
//! bounded stretch of real time for a client's completions.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use wv_net::runner::NodeRunner;
use wv_net::sim_net::NetStats;
use wv_net::thread_net::{NetHandle, ThreadNet};
use wv_net::SiteId;
use wv_sim::derive_seed;
use wv_storage::ObjectId;

use crate::client::CompletedOp;
use crate::error::OpError;
use crate::harness::HarnessBuilder;
use crate::node::SystemNode;

/// How often [`ThreadHarness::await_completed`] asks a busy client again.
const POLL: Duration = Duration::from_millis(1);

impl HarnessBuilder {
    /// Builds the cluster on OS threads, one per site, with every link's
    /// latency and every timer's delay multiplied by `time_scale` in real
    /// time (0.1 turns a 750 ms link into 75 ms). Fails as
    /// [`HarnessBuilder::build`] does.
    pub fn build_on_threads(self, time_scale: f64) -> Result<ThreadHarness, OpError> {
        let cluster = self.assemble()?;
        let mut net = ThreadNet::start(cluster.net, cluster.seed, time_scale);
        let runners: Vec<_> = (cluster.nodes.into_iter().zip(net.endpoints.drain(..)))
            .enumerate()
            .map(|(i, (node, endpoint))| {
                // A node's generator is seeded as the simulator seeds it.
                let seed = derive_seed(cluster.seed, i as u64 + 1);
                NodeRunner::spawn(node, endpoint, seed, time_scale)
            })
            .collect();
        let anti_entropy = cluster.anti_entropy;
        for &(site, fault_seed) in &cluster.servers {
            runners[site.index()].invoke(move |node, ctx| {
                let s = node.as_server_mut().expect("a representative's site");
                s.set_disk_fault_seed(fault_seed);
                if anti_entropy {
                    s.start_anti_entropy(ctx);
                }
            });
        }
        Ok(ThreadHarness {
            runners,
            net: net.handle,
            clients: cluster.clients,
        })
    }
}

/// A weighted-voting cluster on real threads. Dropping it stops them.
pub struct ThreadHarness {
    runners: Vec<NodeRunner<SystemNode>>,
    net: NetHandle,
    clients: Vec<SiteId>,
}

impl ThreadHarness {
    /// Client sites, in declaration order.
    pub fn clients(&self) -> &[SiteId] {
        &self.clients
    }

    /// Transport counters so far.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Starts a read at `client` now; its outcome is among what
    /// [`ThreadHarness::await_completed`] returns. Panics if `client` is
    /// not a client site.
    pub fn enqueue_read(&self, client: SiteId, suite: ObjectId) {
        self.runner(client).invoke(move |node, ctx| {
            let c = node.as_client_mut().expect("a client site");
            c.start_read(suite, ctx);
        });
    }

    /// Starts a write at `client` now, as [`ThreadHarness::enqueue_read`]
    /// does.
    pub fn enqueue_write(&self, client: SiteId, suite: ObjectId, value: Vec<u8>) {
        self.runner(client).invoke(move |node, ctx| {
            let c = node.as_client_mut().expect("a client site");
            c.start_write(suite, value, ctx);
        });
    }

    /// Starts a multi-suite transaction at `client` now, as
    /// [`ThreadHarness::enqueue_read`] does.
    pub fn enqueue_transaction(&self, client: SiteId, writes: Vec<(ObjectId, Vec<u8>)>) {
        self.runner(client).invoke(move |node, ctx| {
            let c = node.as_client_mut().expect("a client site");
            let writes = writes.into_iter().map(|(s, v)| (s, Bytes::from(v)));
            c.start_transaction(writes.collect(), ctx);
        });
    }

    /// Waits, for at most `within` of real time, until `client` has no
    /// operation in flight, and returns the operations it ended since the
    /// last call, in the order they ended. Panics if `client` is not a
    /// client site, or still has operations in flight at the deadline.
    pub fn await_completed(&self, client: SiteId, within: Duration) -> Vec<CompletedOp> {
        let runner = self.runner(client);
        let deadline = Instant::now() + within;
        let mut done = Vec::new();
        loop {
            let (tx, rx) = mpsc::channel();
            runner.invoke(move |node, _| {
                let c = node.as_client_mut().expect("a client site");
                let _ = tx.send((c.in_flight(), c.take_completed()));
            });
            let (busy, ended) = rx.recv().expect("the client's thread is alive");
            done.extend(ended);
            if busy == 0 {
                return done;
            }
            assert!(
                Instant::now() < deadline,
                "site {client} still has {busy} operations in flight after {within:?}"
            );
            std::thread::sleep(POLL);
        }
    }

    /// Stops every thread and returns the nodes, in site order.
    pub fn stop(self) -> Vec<SystemNode> {
        self.runners.into_iter().map(NodeRunner::stop).collect()
    }

    /// The runner of `client`, which must be a client site.
    fn runner(&self, client: SiteId) -> &NodeRunner<SystemNode> {
        assert!(
            self.clients.contains(&client),
            "site {client} is not a client"
        );
        &self.runners[client.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::SiteSpec;
    use crate::quorum::QuorumSpec;

    /// Three voting servers and a client, on the default 100 ms links.
    fn three_servers(time_scale: f64) -> ThreadHarness {
        let builder = HarnessBuilder::new()
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2));
        builder.build_on_threads(time_scale).expect("legal")
    }

    #[test]
    #[should_panic(expected = "site s0 is not a client")]
    fn an_operation_at_a_site_that_is_not_a_client_is_refused() {
        three_servers(0.01).enqueue_read(SiteId(0), ObjectId(1));
    }

    #[test]
    #[should_panic(expected = "site s3 still has 1 operations in flight")]
    fn a_wait_ends_with_the_client_idle_or_in_a_panic() {
        // A 100 ms link in real time: no write ends within 1 ms.
        let h = three_servers(1.0);
        h.enqueue_write(SiteId(3), ObjectId(1), b"slow".to_vec());
        h.await_completed(SiteId(3), Duration::from_millis(1));
    }
}
