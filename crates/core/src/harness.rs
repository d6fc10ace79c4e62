//! A synchronous facade over a simulated weighted-voting cluster.
//!
//! [`HarnessBuilder`] assembles sites, votes, quorums, and a network;
//! [`Harness`] then offers blocking-style `read`/`write`/`reconfigure`
//! calls that drive the discrete-event simulation until the operation
//! completes and report the outcome together with its virtual-time
//! latency. Examples, integration tests, and the experiment binaries all
//! sit on this facade; asynchronous use (concurrent operations) is
//! available through [`Harness::enqueue_read`] / [`Harness::enqueue_write`]
//! plus [`Harness::run_until_quiet`]. Every fault, a crash and a
//! recovery included, is a [`Fault`] handed to [`Harness::inject`]; a
//! node's state is read through [`Harness::client_at`] and
//! [`Harness::server_at`]. A blocking call waits for its own operation
//! alone: it refuses a client with operations in flight.
//!
//! The builder is the one way to build a cluster, on either clock:
//! [`HarnessBuilder::build`] puts it on the simulator, and
//! [`HarnessBuilder::build_on_threads`] on real threads
//! ([`crate::thread_harness`]). Both run the nodes one function makes.
//!
//! # Determinism contract
//!
//! A harness is a pure function of its builder inputs: the same sites,
//! quorums, network, and seed replay the same virtual-time history —
//! operation by operation, latency by latency — no matter which OS thread
//! builds or drives it, because all randomness flows from the seeded
//! [`wv_sim::DetRng`] and the event queue breaks ties deterministically.
//! The parallel trial engine in `wv-bench` leans on exactly this: each
//! trial constructs its own harness from a derived seed inside a worker
//! thread, and the fan-out is bit-identical to a sequential loop.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use wv_net::sim_net::{Cluster, NetStats};
use wv_net::{Fault as NetFault, NetConfig, SiteId};
use wv_sim::{derive_seed, FailureSchedule, LatencyModel, Scheduler, Sim, SimDuration, SimTime};
use wv_storage::{ObjectId, Version};
use wv_txn::lock::DeadlockPolicy;

use crate::client::{ClientNode, ClientOptions, CompletedOp};
use crate::error::{OpError, OpKind};
use crate::node::SystemNode;
use crate::quorum::QuorumSpec;
use crate::server::SuiteServer;
use crate::suite::SuiteConfig;
use crate::votes::VoteAssignment;

/// Label salt for per-site disk-fault seed derivation (`derive_seed`
/// label = salt + site index), keeping the damage-placement streams
/// disjoint from every other derived stream in the workspace.
const DISK_FAULT_SEED_SALT: u64 = 0xD15C_FA17;

/// What one site hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteSpec {
    hosts_rep: bool,
    votes: u32,
    is_client: bool,
}

impl SiteSpec {
    /// A file server holding a representative with `votes` votes
    /// (zero votes = a weak representative).
    pub fn server(votes: u32) -> Self {
        SiteSpec {
            hosts_rep: true,
            votes,
            is_client: false,
        }
    }

    /// A pure client machine.
    pub fn client() -> Self {
        SiteSpec {
            hosts_rep: false,
            votes: 0,
            is_client: true,
        }
    }

    /// A workstation: client plus a weak (zero-vote) representative — the
    /// paper's cache configuration.
    pub fn client_with_weak() -> Self {
        SiteSpec {
            hosts_rep: true,
            votes: 0,
            is_client: true,
        }
    }
}

/// Builder for a [`Harness`].
pub struct HarnessBuilder {
    specs: Vec<SiteSpec>,
    quorum: QuorumSpec,
    suites: Vec<ObjectId>,
    seed: u64,
    net: Option<NetConfig>,
    options: ClientOptions,
    policy: DeadlockPolicy,
    unchecked_quorums: bool,
    anti_entropy: Option<SimDuration>,
    group_commit: Option<SimDuration>,
}

impl Default for HarnessBuilder {
    fn default() -> Self {
        HarnessBuilder::new()
    }
}

impl HarnessBuilder {
    /// An empty builder: add sites, then build.
    pub fn new() -> Self {
        HarnessBuilder {
            specs: Vec::new(),
            quorum: QuorumSpec::new(1, 1),
            suites: vec![ObjectId(1)],
            seed: 0,
            net: None,
            options: ClientOptions::default(),
            policy: DeadlockPolicy::WaitDie,
            unchecked_quorums: false,
            anti_entropy: None,
            group_commit: None,
        }
    }

    /// Adds a site; sites are numbered in insertion order.
    pub fn site(mut self, spec: SiteSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Shorthand for `site(SiteSpec::client())`.
    pub fn client(self) -> Self {
        self.site(SiteSpec::client())
    }

    /// Sets the read/write quorum sizes.
    pub fn quorum(mut self, q: QuorumSpec) -> Self {
        self.quorum = q;
        self
    }

    /// Hosts several suites on the same representatives, all sharing the
    /// vote assignment and quorum sizes. Operations on distinct suites
    /// are fully independent (per-object locks, per-object versions).
    pub fn suites(mut self, suites: impl IntoIterator<Item = ObjectId>) -> Self {
        self.suites = suites.into_iter().collect();
        assert!(!self.suites.is_empty(), "need at least one suite");
        self
    }

    /// Sets the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the default network (100 ms links, 75 ms local access)
    /// with an explicit configuration.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = Some(net);
        self
    }

    /// Overrides client behaviour tunables.
    pub fn client_options(mut self, options: ClientOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the servers' deadlock policy. It reaches the commit locks
    /// in one way: `NoWait` votes a prepare down at once where the default
    /// makes it stand in line (see the [`SuiteServer`] constructor).
    pub fn deadlock_policy(mut self, policy: DeadlockPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables background anti-entropy repair on every representative:
    /// each probes one peer per suite every `interval`, and a recovering
    /// representative pulls from all peers immediately. Harnesses that
    /// drain the event queue to quiescence must call
    /// [`Harness::stop_anti_entropy`] first, or the periodic probe keeps
    /// the queue alive forever.
    pub fn anti_entropy(mut self, interval: SimDuration) -> Self {
        self.anti_entropy = Some(interval);
        self
    }

    /// Enables WAL group commit on every representative: log records
    /// arriving while a sync is in flight ride the next one, so
    /// concurrent prepares and commits share a single durable write that
    /// settles `latency` after the first record of the batch. Responses
    /// (votes, acks) leave only once their records are durable, so
    /// recovery semantics are unchanged — batching trades `latency` of
    /// response delay for fewer syncs.
    pub fn group_commit(mut self, latency: SimDuration) -> Self {
        self.group_commit = Some(latency);
        self
    }

    /// Skips the quorum intersection check when building suite configs.
    ///
    /// Fault-injection only: the chaos campaign builds deliberately broken
    /// clusters (`r + w = N`) to prove the history oracle notices the
    /// stale reads such a configuration permits. Everything else must let
    /// [`HarnessBuilder::build`] validate.
    pub fn allow_illegal_quorums(mut self) -> Self {
        self.unchecked_quorums = true;
        self
    }

    /// Builds the harness: the cluster on the simulator's virtual clock.
    ///
    /// Fails with [`OpError::IllegalConfig`] if the quorum sizes are
    /// illegal for the vote assignment implied by the sites.
    pub fn build(self) -> Result<Harness, OpError> {
        let cluster = self.assemble()?;
        let mut sim = Cluster::sim(cluster.nodes, cluster.net, cluster.seed);
        for &(site, fault_seed) in &cluster.servers {
            Cluster::invoke(sim.scheduler(), SimTime::ZERO, site, move |node, _ctx| {
                if let Some(s) = node.as_server_mut() {
                    s.set_disk_fault_seed(fault_seed);
                }
            });
        }
        if cluster.anti_entropy {
            for &(site, _) in &cluster.servers {
                Cluster::invoke(sim.scheduler(), SimTime::ZERO, site, |node, ctx| {
                    if let Some(s) = node.as_server_mut() {
                        s.start_anti_entropy(ctx);
                    }
                });
            }
        }
        Ok(Harness {
            sim,
            suites: cluster.suites,
            clients: cluster.clients,
            started: Rc::default(),
        })
    }

    /// The one construction of a cluster's nodes, shared by both clocks'
    /// terminals ([`HarnessBuilder::build`] and
    /// [`HarnessBuilder::build_on_threads`]): a node per site, the network
    /// they run on, and what each terminal still owes its servers at
    /// start-up.
    pub(crate) fn assemble(self) -> Result<Assembled, OpError> {
        assert!(!self.specs.is_empty(), "a harness needs at least one site");
        assert!(
            self.specs.iter().any(|s| s.is_client),
            "a harness needs at least one client"
        );
        assert!(
            self.specs.iter().any(|s| s.hosts_rep && s.votes > 0),
            "a harness needs at least one voting representative"
        );
        let sites = self.specs.len();
        let assignment = VoteAssignment::new(
            self.specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.hosts_rep)
                .map(|(i, s)| (SiteId::from(i), s.votes)),
        );
        let configs: Vec<SuiteConfig> = self
            .suites
            .iter()
            .map(|&suite| {
                if self.unchecked_quorums {
                    Ok(SuiteConfig::new_unchecked(
                        suite,
                        assignment.clone(),
                        self.quorum,
                    ))
                } else {
                    SuiteConfig::new(suite, assignment.clone(), self.quorum)
                        .map_err(OpError::IllegalConfig)
                }
            })
            .collect::<Result<_, _>>()?;
        let net = self.net.unwrap_or_else(|| {
            let mut cfg = NetConfig::uniform(sites, LatencyModel::constant_millis(100));
            for s in SiteId::all(sites) {
                cfg.set_link(s, s, LatencyModel::constant_millis(75));
            }
            cfg
        });
        assert_eq!(net.sites(), sites, "network size must match site count");
        let mut clients = Vec::new();
        let nodes: Vec<SystemNode> = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let site = SiteId::from(i);
                let server = || {
                    let mut s = SuiteServer::new(site, configs.clone(), self.policy);
                    if let Some(interval) = self.anti_entropy {
                        s.set_anti_entropy(interval);
                    }
                    if let Some(latency) = self.group_commit {
                        s.set_group_commit(latency);
                    }
                    s
                };
                let client = || {
                    let costs: Vec<f64> = (0..sites)
                        .map(|j| net.mean_latency_ms(site, SiteId::from(j)))
                        .collect();
                    ClientNode::new(site, configs.clone(), costs, self.options.clone())
                };
                match (spec.hosts_rep, spec.is_client) {
                    (true, true) => {
                        clients.push(site);
                        SystemNode::Both {
                            server: server(),
                            client: client(),
                        }
                    }
                    (true, false) => SystemNode::Server(server()),
                    (false, true) => {
                        clients.push(site);
                        SystemNode::Client(client())
                    }
                    (false, false) => {
                        panic!("site {site} hosts neither a representative nor a client")
                    }
                }
            })
            .collect();
        // Every server's disk-damage placement stream comes from the
        // master seed, one derived stream per site, so fault campaigns
        // stay bit-identical at any worker count.
        let servers = (0..sites)
            .filter(|&i| self.specs[i].hosts_rep)
            .map(|i| {
                let fault_seed = derive_seed(self.seed, DISK_FAULT_SEED_SALT + i as u64);
                (SiteId::from(i), fault_seed)
            })
            .collect();
        Ok(Assembled {
            nodes,
            net,
            suites: self.suites,
            clients,
            servers,
            anti_entropy: self.anti_entropy.is_some(),
            seed: self.seed,
        })
    }
}

/// A cluster's nodes as [`HarnessBuilder::assemble`] makes them, before a
/// clock runs them.
pub(crate) struct Assembled {
    /// One node per site, in site order.
    pub(crate) nodes: Vec<SystemNode>,
    /// The network between them.
    pub(crate) net: NetConfig,
    /// The suites every representative hosts.
    pub(crate) suites: Vec<ObjectId>,
    /// The client sites, in site order.
    pub(crate) clients: Vec<SiteId>,
    /// Each representative's site and the seed of its disk-damage
    /// placement stream, which a terminal hands it at start-up.
    pub(crate) servers: Vec<(SiteId, u64)>,
    /// Whether a terminal starts every representative's anti-entropy
    /// probe at start-up.
    pub(crate) anti_entropy: bool,
    /// The master seed.
    pub(crate) seed: u64,
}

/// A successful read.
#[derive(Clone, Debug)]
pub struct ReadResult {
    /// The contents.
    pub value: Bytes,
    /// Their version.
    pub version: Version,
    /// End-to-end virtual-time latency.
    pub latency: SimDuration,
    /// Attempts used.
    pub attempts: u32,
}

/// A successful multi-suite transaction.
#[derive(Clone, Debug)]
pub struct TransactionResult {
    /// The version installed at each suite.
    pub versions: Vec<(ObjectId, Version)>,
    /// End-to-end virtual-time latency.
    pub latency: SimDuration,
    /// Attempts used.
    pub attempts: u32,
}

/// A successful write or reconfiguration.
#[derive(Clone, Debug)]
pub struct WriteResult {
    /// The version installed.
    pub version: Version,
    /// End-to-end virtual-time latency.
    pub latency: SimDuration,
    /// Attempts used.
    pub attempts: u32,
}

/// A fault [`Harness::inject`] applies: a network or liveness fault, or
/// one of a representative's disk.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// A site's crash or recovery, or a change to the network.
    Net(NetFault),
    /// The site's next crash persists a partial prefix of its volatile
    /// WAL tail instead of dropping it cleanly.
    TornWrite(SiteId),
    /// The site's next crash flips one bit of its durable WAL bytes.
    BitFlip(SiteId),
    /// The site's next `n` new transactions fail with an I/O error.
    IoErrors {
        /// The representative.
        site: SiteId,
        /// Transactions to fail.
        n: u32,
    },
    /// The site's WAL device stalls for `d`: prepares refuse until then.
    DiskStall {
        /// The representative.
        site: SiteId,
        /// How long.
        d: SimDuration,
    },
}

impl From<NetFault> for Fault {
    fn from(fault: NetFault) -> Fault {
        Fault::Net(fault)
    }
}

/// Schedules `f` at `at` on the representative at `site`, if it is up.
fn at_server(
    sched: &mut Scheduler<Cluster<SystemNode>>,
    at: SimTime,
    site: SiteId,
    f: impl FnOnce(&mut SuiteServer) + 'static,
) {
    Cluster::invoke(sched, at, site, move |node, _ctx| {
        if let Some(s) = node.as_server_mut() {
            f(s);
        }
    });
}

/// A simulated weighted-voting cluster with a blocking-style API.
pub struct Harness {
    sim: Sim<Cluster<SystemNode>>,
    suites: Vec<ObjectId>,
    clients: Vec<SiteId>,
    /// Where the client's completion log stood when a blocking call's
    /// operation started, once its start event has run: one cell, shared
    /// with each such event.
    started: Rc<Cell<Option<usize>>>,
}

impl Harness {
    /// The (first) suite this harness serves.
    pub fn suite_id(&self) -> ObjectId {
        self.suites[0]
    }

    /// All suites hosted by the cluster.
    pub fn suite_ids(&self) -> &[ObjectId] {
        &self.suites
    }

    /// Client sites, in declaration order.
    pub fn clients(&self) -> &[SiteId] {
        &self.clients
    }

    /// The default client (the first declared).
    pub fn default_client(&self) -> SiteId {
        self.clients[0]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Transport counters.
    pub fn net_stats(&self) -> NetStats {
        self.sim.world.stats
    }

    /// Reads the suite from the default client.
    pub fn read(&mut self, suite: ObjectId) -> Result<ReadResult, OpError> {
        self.read_from(self.default_client(), suite)
    }

    /// Reads the suite from a specific client.
    pub fn read_from(&mut self, client: SiteId, suite: ObjectId) -> Result<ReadResult, OpError> {
        let done = self.run_op(client, OpKind::Read, move |c, ctx| {
            c.start_read(suite, ctx);
        })?;
        match done.outcome {
            Ok(ok) => Ok(ReadResult {
                value: ok.value.unwrap_or_default(),
                version: ok.version,
                latency: done.finished.since(done.started),
                attempts: done.attempts,
            }),
            Err(e) => Err(e),
        }
    }

    /// Writes the suite from the default client.
    pub fn write(&mut self, suite: ObjectId, value: Vec<u8>) -> Result<WriteResult, OpError> {
        self.write_from(self.default_client(), suite, value)
    }

    /// Writes the suite from a specific client. Returns when the write is
    /// reported, which is what a caller experiences: at its commit
    /// decision, with the commit round still on its way to the
    /// representatives. Settle first ([`Harness::advance`],
    /// [`Harness::run_until_quiet`]) to inspect them.
    pub fn write_from(
        &mut self,
        client: SiteId,
        suite: ObjectId,
        value: Vec<u8>,
    ) -> Result<WriteResult, OpError> {
        let done = self.run_op(client, OpKind::Write, move |c, ctx| {
            c.start_write(suite, value, ctx);
        })?;
        match done.outcome {
            Ok(ok) => Ok(WriteResult {
                version: ok.version,
                latency: done.finished.since(done.started),
                attempts: done.attempts,
            }),
            Err(e) => Err(e),
        }
    }

    /// Atomically writes several suites: every `(suite, value)` commits or
    /// none does, even under crashes (the decision is a single durable
    /// record at the coordinating client). Returns, like
    /// [`Harness::write_from`], when that record is written.
    pub fn transaction(
        &mut self,
        client: SiteId,
        writes: Vec<(ObjectId, Vec<u8>)>,
    ) -> Result<TransactionResult, OpError> {
        let done = self.run_op(client, OpKind::Transaction, move |c, ctx| {
            let writes = writes
                .into_iter()
                .map(|(s, v)| (s, bytes::Bytes::from(v)))
                .collect();
            c.start_transaction(writes, ctx);
        })?;
        match done.outcome {
            Ok(ok) => Ok(TransactionResult {
                versions: ok.multi,
                latency: done.finished.since(done.started),
                attempts: done.attempts,
            }),
            Err(e) => Err(e),
        }
    }

    /// Changes the suite's vote assignment and quorums online, from a
    /// specific client, under the old configuration's write quorum.
    pub fn reconfigure_from(
        &mut self,
        client: SiteId,
        suite: ObjectId,
        assignment: VoteAssignment,
        quorum: QuorumSpec,
    ) -> Result<WriteResult, OpError> {
        let done = self.run_op(client, OpKind::Reconfigure, move |c, ctx| {
            c.start_reconfigure(suite, assignment, quorum, ctx);
        })?;
        match done.outcome {
            Ok(ok) => Ok(WriteResult {
                version: ok.version,
                latency: done.finished.since(done.started),
                attempts: done.attempts,
            }),
            Err(e) => Err(e),
        }
    }

    /// Starts an operation of `kind` and steps the simulation until it
    /// completes.
    ///
    /// # Panics
    ///
    /// If `client` is not a client site, or has operations in flight
    /// when this one starts: the completion that ends the wait must be
    /// this operation's own.
    fn run_op(
        &mut self,
        client: SiteId,
        kind: OpKind,
        start: impl FnOnce(&mut ClientNode, &mut wv_net::NodeCtx<'_, crate::msg::Msg>) + 'static,
    ) -> Result<CompletedOp, OpError> {
        self.assert_client(client);
        self.started.set(None);
        let started = Rc::clone(&self.started);
        let at = self.sim.now();
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            let c = node
                .as_client_mut()
                .expect("invoke target verified as client");
            let busy = c.in_flight();
            assert!(
                busy == 0,
                "site {client} has {busy} operations in flight: a blocking call needs an idle client"
            );
            started.set(Some(c.completed.len()));
            start(c, ctx);
        });
        // Step until this operation is in the client's completion log: of
        // what ended since it started on the idle client, the one entry
        // that started at `at` (every other one started later, a retry
        // under a fresh request id included). Operations always terminate
        // (every phase is timer-guarded), so this loop ends unless the
        // client site itself is down — in which case the invoke was
        // dropped and we report unavailability.
        loop {
            let done = self.started.get().and_then(|from| {
                let c = self.client_at(client)?;
                let i = c.completed[from..].iter().position(|op| op.started == at)?;
                Some(from + i)
            });
            if let Some(i) = done {
                let c = self.sim.world.nodes[client.index()]
                    .as_client_mut()
                    .expect("client exists");
                return Ok(c.completed.remove(i));
            }
            if !self.sim.step() {
                return Err(OpError::Unavailable { kind });
            }
        }
    }

    /// Panics unless `site` is one of this cluster's clients.
    fn assert_client(&self, site: SiteId) {
        assert!(self.clients.contains(&site), "site {site} is not a client");
    }

    /// Starts a read without waiting; results appear in the client's
    /// completion log (see [`Harness::drain_completed`]). A client that is
    /// down at `at` skips it.
    ///
    /// # Panics
    ///
    /// If `client` is not a client site.
    pub fn enqueue_read(&mut self, client: SiteId, suite: ObjectId, at: SimTime) {
        self.assert_client(client);
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            if let Some(c) = node.as_client_mut() {
                c.start_read(suite, ctx);
            }
        });
    }

    /// Starts a write without waiting, as [`Harness::enqueue_read`] does.
    pub fn enqueue_write(&mut self, client: SiteId, suite: ObjectId, value: Vec<u8>, at: SimTime) {
        self.assert_client(client);
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            if let Some(c) = node.as_client_mut() {
                c.start_write(suite, value, ctx);
            }
        });
    }

    /// Starts a multi-suite transaction without waiting, as
    /// [`Harness::enqueue_read`] does.
    pub fn enqueue_transaction(
        &mut self,
        client: SiteId,
        writes: Vec<(ObjectId, Vec<u8>)>,
        at: SimTime,
    ) {
        self.assert_client(client);
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            if let Some(c) = node.as_client_mut() {
                let writes = writes
                    .into_iter()
                    .map(|(s, v)| (s, Bytes::from(v)))
                    .collect();
                c.start_transaction(writes, ctx);
            }
        });
    }

    /// Starts a reconfiguration without waiting, as
    /// [`Harness::enqueue_read`] does; the outcome appears in the client's
    /// completion log like any other operation.
    pub fn enqueue_reconfigure(
        &mut self,
        client: SiteId,
        suite: ObjectId,
        assignment: VoteAssignment,
        quorum: QuorumSpec,
        at: SimTime,
    ) {
        self.assert_client(client);
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            if let Some(c) = node.as_client_mut() {
                c.start_reconfigure(suite, assignment, quorum, ctx);
            }
        });
    }

    /// Runs until the event queue drains or `max_events` fire.
    pub fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        self.sim.run_capped(max_events)
    }

    /// Advances virtual time, executing everything due.
    pub fn advance(&mut self, d: SimDuration) {
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline);
    }

    /// Drains a client's finished operations.
    pub fn drain_completed(&mut self, client: SiteId) -> Vec<CompletedOp> {
        self.sim.world.nodes[client.index()]
            .as_client_mut()
            .map(|c| c.take_completed())
            .unwrap_or_default()
    }

    /// Applies `fault` now: the change is scheduled at the current instant
    /// and has taken effect when this returns.
    pub fn inject(&mut self, fault: impl Into<Fault>) {
        let at = self.sim.now();
        let sched = self.sim.scheduler();
        match fault.into() {
            Fault::Net(fault) => Cluster::apply_at(sched, at, fault),
            Fault::TornWrite(site) => at_server(sched, at, site, |s| {
                s.disk_faults().arm_torn_write();
            }),
            Fault::BitFlip(site) => at_server(sched, at, site, |s| {
                s.disk_faults().arm_bit_flip();
            }),
            Fault::IoErrors { site, n } => at_server(sched, at, site, move |s| {
                s.disk_faults().inject_io_errors(n);
            }),
            Fault::DiskStall { site, d } => at_server(sched, at, site, move |s| {
                s.disk_stall(d, at);
            }),
        }
        self.sim.run_until(at);
    }

    /// Translates a [`FailureSchedule`] into scheduled crash/recover
    /// events on this cluster.
    ///
    /// Window bounds are absolute virtual times, so this is normally
    /// called on a freshly built harness (now = 0). The windows of
    /// [`FailureSchedule::mttf_mttr`] or of explicit outages become real
    /// outages rather than analysis-only input.
    pub fn apply_failure_schedule(&mut self, schedule: &FailureSchedule) {
        Cluster::apply_failure_schedule(self.sim.scheduler(), schedule);
    }

    /// The client half of `site` (None if it has none): its counters,
    /// its completion log, its per-site load.
    pub fn client_at(&self, site: SiteId) -> Option<&ClientNode> {
        self.sim.world.nodes[site.index()].as_client()
    }

    /// The representative at `site` (None if it hosts none): its
    /// counters, configurations, quarantine and committed state.
    pub fn server_at(&self, site: SiteId) -> Option<&SuiteServer> {
        self.sim.world.nodes[site.index()].as_server()
    }

    /// The committed data version at a representative (None if the site
    /// hosts none).
    pub fn version_at(&self, site: SiteId, suite: ObjectId) -> Option<Version> {
        self.server_at(site).map(|s| s.data_version(suite))
    }

    /// The committed data contents at a representative.
    pub fn value_at(&self, site: SiteId, suite: ObjectId) -> Option<Bytes> {
        self.server_at(site).map(|s| s.data_value(suite))
    }

    /// Silences every representative's anti-entropy probe from now on.
    ///
    /// Call before draining the event queue to quiescence — the periodic
    /// probe otherwise re-arms itself forever and the queue never empties.
    pub fn stop_anti_entropy(&mut self) {
        for node in &mut self.sim.world.nodes {
            if let Some(s) = node.as_server_mut() {
                s.stop_anti_entropy();
            }
        }
    }

    /// Turns on recording of spans and quorum decisions at every client
    /// and server node. Idempotent; recording never perturbs the protocol
    /// (recorders touch neither the RNG nor the effect queue).
    pub fn enable_tracing(&mut self) {
        for node in &mut self.sim.world.nodes {
            if let Some(c) = node.as_client_mut() {
                c.enable_tracing();
            }
            if let Some(s) = node.as_server_mut() {
                s.enable_tracing();
            }
        }
    }

    /// Drains every node's recorder. Spans are concatenated in site order
    /// (the client half before the server half at a composite site) with
    /// ids rebased to stay unique across nodes; decisions, which carry
    /// their site, are concatenated in site order. The order is a pure
    /// function of cluster topology, so traced runs are byte-identical
    /// across processes and worker counts.
    pub fn take_recorded(&mut self) -> (Vec<wv_sim::SpanRecord>, Vec<wv_sim::AuditRecord>) {
        let (mut spans, mut decisions) = (Vec::new(), Vec::new());
        for node in &mut self.sim.world.nodes {
            if let Some(c) = node.as_client_mut() {
                let (s, d) = c.take_recorded();
                wv_sim::trace::rebase_merge(&mut spans, s);
                decisions.extend(d);
            }
            if let Some(s) = node.as_server_mut() {
                wv_sim::trace::rebase_merge(&mut spans, s.take_trace());
            }
        }
        (spans, decisions)
    }

    /// Immutable access to the underlying cluster (experiments).
    pub fn cluster(&self) -> &Cluster<SystemNode> {
        &self.sim.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_net::Partition;

    fn three_server_harness(seed: u64) -> Harness {
        HarnessBuilder::new()
            .seed(seed)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .build()
            .expect("legal configuration")
    }

    #[test]
    fn recording_never_changes_outcomes() {
        use wv_sim::audit::DecisionKind;
        use wv_sim::trace::{from_jsonl, to_jsonl, SpanKind, SpanOutcome};
        let mut plain = three_server_harness(11);
        let mut observed = three_server_harness(11);
        observed.enable_tracing();
        let suite = plain.suite_id();
        for i in 0..5u8 {
            let a = plain.write(suite, vec![i]).expect("write");
            let b = observed.write(suite, vec![i]).expect("write");
            assert_eq!(a.version, b.version);
            assert_eq!(a.latency, b.latency, "recording must not shift time");
            let ra = plain.read(suite).expect("read");
            let rb = observed.read(suite).expect("read");
            assert_eq!(ra.version, rb.version);
            assert_eq!(ra.latency, rb.latency);
        }
        let (spans, decisions) = plain.take_recorded();
        assert!(
            spans.is_empty() && decisions.is_empty(),
            "off records nothing"
        );
        let (spans, decisions) = observed.take_recorded();

        let roots: Vec<_> = spans.iter().filter(|s| s.kind.is_op_root()).collect();
        assert_eq!(roots.len(), 10, "one root per op");
        assert!(roots.iter().all(|s| s.outcome == SpanOutcome::Ok));
        for kind in [
            SpanKind::Inquiry,
            SpanKind::Rpc,
            SpanKind::Prepare,
            SpanKind::Commit,
            SpanKind::WalWrite,
        ] {
            let found = spans.iter().any(|s| s.kind == kind);
            assert!(found, "expected a {kind:?} span");
        }
        // Ids are unique after the cross-node merge, and parents resolve.
        let mut ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len(), "rebased ids are unique");
        let back = from_jsonl(&to_jsonl(&spans)).expect("round-trip");
        assert_eq!(back, spans);

        let kinds = |k: DecisionKind| decisions.iter().any(|r| r.kind == k);
        assert!(kinds(DecisionKind::OptimisticFetch) && kinds(DecisionKind::WriteQuorum));
        // Every record names at least one chosen site, with inputs for
        // every site the planner considered.
        for r in &decisions {
            assert!(!r.chosen.is_empty(), "decision chose no site: {r:?}");
            assert!(r.inputs.len() >= r.chosen.len());
            assert_eq!(r.policy, "cheapest_first");
        }
        // A second drain is empty until new work happens.
        assert_eq!(observed.take_recorded(), (Vec::new(), Vec::new()));
    }

    #[test]
    fn a_drain_leaves_a_commit_tail_in_flight_untraced() {
        use std::collections::BTreeSet;
        use wv_sim::trace::{SpanKind, SpanOutcome, SpanRecord, NO_PARENT, OPEN_END};
        let mut h = three_server_harness(5);
        h.enable_tracing();
        let suite = h.suite_id();
        let client = h.default_client().0;
        h.write(suite, b"a".to_vec()).expect("write");
        // Reported at its decision, with its commit round still out.
        let first = h.take_recorded().0;
        let open_commit = first
            .iter()
            .find(|s| s.kind == SpanKind::Commit && s.end_us == OPEN_END)
            .expect("the commit round is in flight at the drain");
        let write = open_commit.op;
        h.advance(SimDuration::from_secs(1));
        h.read(suite).expect("read");
        let second = h.take_recorded().0;

        let ids: BTreeSet<u32> = second.iter().map(|s| s.id).collect();
        let resolves = |s: &&SpanRecord| s.parent == NO_PARENT || ids.contains(&s.parent);
        assert!(second.iter().all(|s| resolves(&s)), "{second:?}");
        // The tail went on untraced: no commit span, nor any other, of
        // the write's at the client.
        let of = |op: u64| {
            second
                .iter()
                .filter(move |s| s.site == client && s.op == op)
        };
        assert_eq!(of(write).count(), 0, "{second:?}");
        let root = second.iter().find(|s| s.kind == SpanKind::Read);
        let root = root.expect("the read is traced");
        assert_eq!(root.outcome, SpanOutcome::Ok);
        assert!(of(root.op).count() > 2, "a root, an inquiry and its RPCs");
        assert!(of(root.op).all(|s| s.end_us != OPEN_END), "{second:?}");
    }

    #[test]
    fn a_client_crash_leaves_the_spans_of_its_operations_open() {
        use wv_sim::trace::OPEN_END;
        let mut h = three_server_harness(9);
        h.enable_tracing();
        let (suite, client) = (h.suite_id(), h.default_client());
        h.enqueue_read(client, suite, h.now());
        h.advance(SimDuration::from_millis(1));
        h.inject(NetFault::Crash(client));
        h.inject(NetFault::Recover(client));
        // The inquiry's answers reach the recovered client, which no
        // longer knows the read.
        h.advance(SimDuration::from_secs(1));
        let spans = h.take_recorded().0;
        let at_client: Vec<_> = spans.iter().filter(|s| s.site == client.0).collect();
        assert!(at_client.len() > 2, "a root, an inquiry and its RPCs");
        assert!(
            at_client.iter().all(|s| s.end_us == OPEN_END),
            "{at_client:?}"
        );
    }

    /// One arm per [`Fault`] and per [`NetFault`], no wildcard: a new
    /// variant of either does not compile until its effect is asserted here.
    #[test]
    fn every_fault_has_its_observable_effect() {
        let (s0, client, extra) = (SiteId(0), SiteId(3), SimDuration::from_millis(40));
        let faults = [
            Fault::from(NetFault::Crash(s0)),
            NetFault::Recover(s0).into(),
            NetFault::Partition(Partition::isolate(4, client)).into(),
            NetFault::Heal.into(),
            NetFault::DropAll(1.0).into(),
            NetFault::ExtraDelay(extra).into(),
            NetFault::Duplicate(1.0).into(),
            Fault::TornWrite(s0),
            Fault::BitFlip(s0),
            Fault::IoErrors { site: s0, n: 1 },
            Fault::DiskStall {
                site: s0,
                d: SimDuration::from_secs(5),
            },
        ];
        for fault in faults {
            // Group commit leaves a prepare volatile for a moment: the
            // tail a torn write tears.
            let mut h = HarnessBuilder::new()
                .seed(3)
                .site(SiteSpec::server(1))
                .site(SiteSpec::server(1))
                .site(SiteSpec::server(1))
                .client()
                .quorum(QuorumSpec::new(2, 2))
                .group_commit(SimDuration::from_millis(5))
                .build()
                .expect("legal configuration");
            let suite = h.suite_id();
            h.write(suite, b"before".to_vec()).expect("write");
            h.advance(SimDuration::from_secs(1));
            let net = h.net_stats();
            let server = |h: &Harness| h.server_at(s0).expect("server").stats;
            let before = server(&h);
            match fault {
                Fault::Net(NetFault::Crash(site)) => {
                    h.inject(NetFault::Crash(site));
                    let w = h
                        .write(suite, b"missed".to_vec())
                        .expect("a quorum without s0");
                    assert!(h.cluster().is_down(site));
                    assert!(h.version_at(site, suite) < Some(w.version), "s0 missed it");
                }
                Fault::Net(NetFault::Recover(site)) => {
                    h.inject(NetFault::Crash(site));
                    h.inject(NetFault::Recover(site));
                    assert!(!h.cluster().is_down(site));
                    assert_eq!(server(&h).recoveries, before.recoveries + 1);
                }
                Fault::Net(NetFault::Partition(p)) => {
                    h.inject(NetFault::Partition(p));
                    assert!(h.read(suite).is_err(), "no quorum across the split");
                }
                Fault::Net(NetFault::Heal) => {
                    h.inject(NetFault::Partition(Partition::isolate(4, client)));
                    h.inject(NetFault::Heal);
                    assert!(h.read(suite).is_ok(), "the quorum is back");
                }
                Fault::Net(NetFault::DropAll(p)) => {
                    h.inject(NetFault::DropAll(p));
                    assert!(h.read(suite).is_err(), "every message lost");
                    assert!(h.net_stats().dropped_link > net.dropped_link);
                }
                Fault::Net(NetFault::ExtraDelay(d)) => {
                    let fast = h.read(suite).expect("read").latency;
                    h.inject(NetFault::ExtraDelay(d));
                    let slow = h.read(suite).expect("read").latency;
                    assert_eq!(slow, fast + d + d, "one round trip, each way late");
                }
                Fault::Net(NetFault::Duplicate(p)) => {
                    h.inject(NetFault::Duplicate(p));
                    h.write(suite, b"twice".to_vec()).expect("write");
                    assert!(h.net_stats().duplicated > net.duplicated);
                }
                Fault::TornWrite(site) => {
                    h.inject(Fault::TornWrite(site));
                    h.enqueue_write(client, suite, b"torn".to_vec(), h.now());
                    // The prepare has landed; its sync is still due.
                    h.advance(SimDuration::from_millis(101));
                    h.inject(NetFault::Crash(site));
                    h.inject(NetFault::Recover(site));
                    assert_eq!(server(&h).torn_truncations, before.torn_truncations + 1);
                }
                Fault::BitFlip(site) => {
                    h.inject(Fault::BitFlip(site));
                    h.inject(NetFault::Crash(site));
                    h.inject(NetFault::Recover(site));
                    assert!(server(&h).corrupt_records_detected > before.corrupt_records_detected);
                }
                Fault::IoErrors { site, n } => {
                    h.inject(Fault::IoErrors { site, n });
                    let w = h.write(suite, b"retried".to_vec()).expect("write");
                    assert!(w.attempts > 1, "the first prepare met the error");
                    assert_eq!(server(&h).disk_refusals, before.disk_refusals + 1);
                }
                Fault::DiskStall { site, d } => {
                    h.inject(Fault::DiskStall { site, d });
                    // Refused at s0 however the write ends elsewhere.
                    let _ = h.write(suite, b"stalled".to_vec());
                    assert!(server(&h).disk_refusals > before.disk_refusals);
                }
            }
        }
    }

    #[test]
    fn corruption_quarantines_a_replica_and_anti_entropy_heals_it() {
        // Hunt for a seed whose bit flip lands in a data record (past the
        // config), so the quarantined replica can heal through data pulls.
        for seed in 0..64u64 {
            let mut h = HarnessBuilder::new()
                .seed(seed)
                .site(SiteSpec::server(1))
                .site(SiteSpec::server(1))
                .site(SiteSpec::server(1))
                .client()
                .quorum(QuorumSpec::new(2, 2))
                .anti_entropy(SimDuration::from_millis(500))
                .build()
                .expect("legal configuration");
            let suite = h.suite_id();
            for i in 0..6u8 {
                h.write(suite, vec![i]).expect("write");
            }
            h.inject(Fault::BitFlip(SiteId(0)));
            h.inject(NetFault::Crash(SiteId(0)));
            h.inject(NetFault::Recover(SiteId(0)));
            let stats = h.server_at(SiteId(0)).expect("server").stats;
            if !h.server_at(SiteId(0)).is_some_and(|s| s.is_quarantined()) || stats.quarantines != 1
            {
                continue; // flip hit the config record or scanned clean
            }
            // r + w > n holds without site 0's vote: reads and writes
            // keep working against the two intact replicas.
            let r = h.read(suite).expect("read routes around quarantine");
            assert_eq!(r.version, Version(6));
            h.write(suite, b"after".to_vec())
                .expect("write without the quarantined vote");
            // Gossip rounds pull full state from both peers; the replica
            // heals, re-announces, and converges on the committed state.
            h.advance(SimDuration::from_secs(5));
            assert!(
                !h.server_at(SiteId(0)).is_some_and(|s| s.is_quarantined()),
                "full sweep heals"
            );
            let stats = h.server_at(SiteId(0)).expect("server").stats;
            assert_eq!(stats.requarantine_repairs, 1);
            assert_eq!(stats.poison_escapes, 0);
            assert_eq!(stats.served_while_quarantined, 0);
            assert_eq!(
                h.version_at(SiteId(0), suite),
                Some(Version(7)),
                "healed replica absorbed the post-quarantine write"
            );
            return;
        }
        panic!("no seed in 0..64 corrupted a data record");
    }

    #[test]
    fn pipeline_depth_one_matches_the_classic_client_exactly() {
        // The throughput knobs off (no group commit, cheapest-first) and
        // the window at depth 1 must replay the classic client's history
        // bit for bit: same versions, same virtual-time latencies, same
        // wire traffic.
        use crate::client::QuorumPolicy;
        let mut classic = three_server_harness(71);
        let mut piped = HarnessBuilder::new()
            .seed(71)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .client_options(ClientOptions {
                pipeline_depth: Some(1),
                quorum_policy: QuorumPolicy::CheapestFirst,
                ..ClientOptions::default()
            })
            .build()
            .expect("legal");
        let suite = classic.suite_id();
        for i in 0..5u8 {
            let wa = classic.write(suite, vec![i]).expect("write");
            let wb = piped.write(suite, vec![i]).expect("write");
            assert_eq!(wa.version, wb.version);
            assert_eq!(wa.latency, wb.latency, "depth 1 must not shift time");
            let ra = classic.read(suite).expect("read");
            let rb = piped.read(suite).expect("read");
            assert_eq!(ra.version, rb.version);
            assert_eq!(ra.latency, rb.latency);
        }
        assert_eq!(
            classic.net_stats(),
            piped.net_stats(),
            "identical wire history"
        );
        assert_eq!(
            classic.client_at(SiteId(3)).map(|c| c.stats),
            piped.client_at(SiteId(3)).map(|c| c.stats)
        );
    }

    #[test]
    fn group_commit_batches_concurrent_writes_into_fewer_syncs() {
        let suites: Vec<ObjectId> = (1..=6).map(ObjectId).collect();
        let mut h = HarnessBuilder::new()
            .seed(72)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .suites(suites.clone())
            .client_options(ClientOptions {
                pipeline_depth: Some(6),
                ..ClientOptions::default()
            })
            .group_commit(SimDuration::from_millis(5))
            .build()
            .expect("legal");
        let client = h.default_client();
        for (i, &suite) in suites.iter().enumerate() {
            h.enqueue_write(client, suite, format!("v{i}").into_bytes(), SimTime::ZERO);
        }
        h.run_until_quiet(1_000_000);
        let done = h.drain_completed(client);
        assert_eq!(done.len(), 6);
        assert!(done.iter().all(|op| op.outcome.is_ok()));
        for (i, &suite) in suites.iter().enumerate() {
            let r = h.read(suite).expect("read");
            assert_eq!(r.value, format!("v{i}").into_bytes());
            assert_eq!(r.version, Version(1));
        }
        // Batching evidence: six concurrent prepares arrive at a server in
        // the same instant, so at least one sync covered several records.
        let batches: u64 = SiteId::all(3)
            .map(|s| h.server_at(s).expect("server").stats.wal_batches)
            .sum();
        let records: u64 = SiteId::all(3)
            .map(|s| h.server_at(s).expect("server").stats.wal_batched_records)
            .sum();
        assert!(batches >= 1);
        assert!(
            records > batches,
            "expected a multi-record batch: {records} records over {batches} batches"
        );
    }

    #[test]
    fn load_balanced_policy_spreads_fetch_load_across_equal_sites() {
        use crate::client::QuorumPolicy;
        let build = |policy: QuorumPolicy| {
            HarnessBuilder::new()
                .seed(73)
                .site(SiteSpec::server(1))
                .site(SiteSpec::server(1))
                .site(SiteSpec::server(1))
                .client()
                .quorum(QuorumSpec::new(2, 2))
                .client_options(ClientOptions {
                    quorum_policy: policy,
                    ..ClientOptions::default()
                })
                .build()
                .expect("legal")
        };
        let drive = |h: &mut Harness| {
            let suite = h.suite_id();
            h.write(suite, b"seed".to_vec()).expect("write");
            // Count only the read fetches: diff against the post-write load.
            let base = h.client_at(h.default_client()).expect("client").site_load();
            for _ in 0..12 {
                h.read(suite).expect("read");
            }
            let load = h.client_at(h.default_client()).expect("client").site_load();
            load.iter()
                .zip(&base)
                .map(|(l, b)| l - b)
                .collect::<Vec<_>>()
        };
        // Cheapest-first piles every fetch onto one representative (all
        // links cost the same, ties broken by site id)…
        let mut cheap = build(QuorumPolicy::CheapestFirst);
        let load = drive(&mut cheap);
        let busy = load.iter().filter(|&&l| l > 0).count();
        assert_eq!(busy, 1, "cheapest-first hammers one site: {load:?}");
        // …while load-balanced rotation spreads it across all three
        // cost-equivalent representatives.
        let mut lb = build(QuorumPolicy::LoadBalanced);
        let load = drive(&mut lb);
        let busy = load.iter().take(3).filter(|&&l| l > 0).count();
        assert_eq!(busy, 3, "rotation shares the read load: {load:?}");
    }

    #[test]
    fn a_read_fails_over_when_its_fetch_candidate_crashes_mid_fetch() {
        use crate::client::{HealthOptions, QuorumPolicy};
        use wv_sim::trace::{SpanKind, SpanOutcome, SpanRecord};
        // Asymmetric links from the client (site 3): s0 closest, then s1,
        // then s2.
        let mut net = NetConfig::uniform(4, LatencyModel::constant_millis(50));
        net.set_link_symmetric(SiteId(3), SiteId(0), LatencyModel::constant_millis(10));
        net.set_link_symmetric(SiteId(3), SiteId(1), LatencyModel::constant_millis(20));
        net.set_link_symmetric(SiteId(3), SiteId(2), LatencyModel::constant_millis(75));
        let mut h = HarnessBuilder::new()
            .seed(74)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 3))
            .net(net)
            .client_options(ClientOptions {
                quorum_policy: QuorumPolicy::CheapestFirst,
                health: Some(HealthOptions::default()),
                ..ClientOptions::default()
            })
            .build()
            .expect("legal");
        h.enable_tracing();
        let suite = h.suite_id();
        let client = h.default_client();
        // w = 3 installs v1 everywhere and seeds every site's RTT EWMA.
        h.write(suite, b"v1".to_vec()).expect("write");
        h.run_until_quiet(10_000); // everywhere: let the commit round land
        let _ = h.take_recorded().0;
        // s0 (asked for the contents with its inquiry) is already down
        // when the read starts, so the fetch goes to s1 — which dies after
        // answering the version inquiry but before the fetch reaches it.
        // The leg's phase timeout moves the fetch on to s2, within the
        // same attempt.
        h.inject(NetFault::Crash(SiteId(0)));
        h.enqueue_read(client, suite, h.now());
        h.advance(SimDuration::from_millis(100));
        h.inject(NetFault::Crash(SiteId(1)));
        h.run_until_quiet(1_000_000);
        let done = h.drain_completed(client);
        assert_eq!(done.len(), 1);
        let op = &done[0];
        let ok = op.outcome.as_ref().expect("failed over");
        assert_eq!(ok.version, Version(1));
        assert_eq!(ok.value.as_deref(), Some(&b"v1"[..]));
        assert_eq!(op.attempts, 1, "a failover is not a retry");
        let stats = h.client_at(client).expect("client").stats;
        assert_eq!((stats.timeouts, stats.retries), (1, 0), "{stats:?}");
        assert_eq!(stats.reads_fetched, 1);
        // The fetch phase's legs: s1's timed out, s2's brought the contents.
        let spans = h.take_recorded().0;
        let fetch = spans.iter().find(|s| s.kind == SpanKind::Fetch);
        let fetch = fetch.expect("a fetch phase");
        let under = |s: &&SpanRecord| (s.site, s.parent) == (fetch.site, fetch.id);
        let legs: Vec<_> = spans.iter().filter(under).collect();
        let leg = |site: SiteId| legs.iter().find(|s| s.peer == site.0).map(|s| s.outcome);
        assert_eq!(leg(SiteId(1)), Some(SpanOutcome::Timeout));
        assert_eq!(leg(SiteId(2)), Some(SpanOutcome::Ok));
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut h = three_server_harness(7);
        let suite = h.suite_id();
        let w = h.write(suite, b"payload".to_vec()).expect("write");
        assert_eq!(w.version, Version(1));
        assert!(w.latency > SimDuration::ZERO);
        let r = h.read(suite).expect("read");
        assert_eq!(&r.value[..], b"payload");
        assert_eq!(r.version, Version(1));
    }

    #[test]
    fn versions_advance_with_each_write() {
        let mut h = three_server_harness(8);
        let suite = h.suite_id();
        for i in 1..=5u64 {
            let w = h.write(suite, format!("v{i}").into_bytes()).expect("write");
            assert_eq!(w.version, Version(i));
        }
        let r = h.read(suite).expect("read");
        assert_eq!(&r.value[..], b"v5");
    }

    #[test]
    fn write_quorum_size_two_leaves_one_stale_replica() {
        let mut h = three_server_harness(9);
        let suite = h.suite_id();
        h.write(suite, b"x".to_vec()).expect("write");
        // The write is reported at its commit decision; the replicas
        // apply it when the commit round lands.
        h.run_until_quiet(10_000);
        let versions: Vec<Version> = SiteId::all(3)
            .map(|s| h.version_at(s, suite).expect("server"))
            .collect();
        let fresh = versions.iter().filter(|v| **v == Version(1)).count();
        let stale = versions.iter().filter(|v| **v == Version(0)).count();
        assert_eq!(fresh, 2, "the write quorum installed the version");
        assert_eq!(stale, 1, "the third replica is allowed to lag");
        // And yet reads always see the new version (quorum intersection).
        let r = h.read(suite).expect("read");
        assert_eq!(r.version, Version(1));
    }

    #[test]
    fn read_with_one_server_down_succeeds() {
        let mut h = three_server_harness(10);
        let suite = h.suite_id();
        h.write(suite, b"alive".to_vec()).expect("write");
        h.inject(NetFault::Crash(SiteId(2)));
        let r = h.read(suite).expect("read despite one crash");
        assert_eq!(&r.value[..], b"alive");
    }

    #[test]
    fn write_with_two_servers_down_is_unavailable() {
        let mut h = three_server_harness(11);
        let suite = h.suite_id();
        h.inject(NetFault::Crash(SiteId(1)));
        h.inject(NetFault::Crash(SiteId(2)));
        let err = h.write(suite, b"nope".to_vec()).expect_err("no quorum");
        assert!(matches!(err, OpError::Unavailable { .. }));
    }

    #[test]
    fn an_operation_issued_at_a_client_that_is_down_is_unavailable_under_its_own_kind() {
        let mut h = three_server_harness(11);
        let (suite, client) = (h.suite_id(), h.default_client());
        h.inject(NetFault::Crash(client));
        let (assignment, quorum) = (VoteAssignment::equal(3), QuorumSpec::majority(3));
        let failed = [
            h.read_from(client, suite).err(),
            h.write_from(client, suite, b"w".to_vec()).err(),
            h.transaction(client, vec![(suite, b"t".to_vec())]).err(),
            h.reconfigure_from(client, suite, assignment, quorum).err(),
        ];
        let kinds = [
            OpKind::Read,
            OpKind::Write,
            OpKind::Transaction,
            OpKind::Reconfigure,
        ];
        assert_eq!(
            failed,
            kinds.map(|kind| Some(OpError::Unavailable { kind }))
        );
    }

    #[test]
    fn an_operation_enqueued_at_a_client_that_is_down_is_skipped() {
        let mut h = three_server_harness(11);
        let (suite, client) = (h.suite_id(), h.default_client());
        h.inject(NetFault::Crash(client));
        h.enqueue_read(client, suite, h.now());
        h.run_until_quiet(10_000);
        assert!(h.drain_completed(client).is_empty());
    }

    #[test]
    #[should_panic(expected = "site s0 is not a client")]
    fn an_operation_enqueued_at_a_site_that_is_not_a_client_is_refused() {
        let mut h = three_server_harness(11);
        let suite = h.suite_id();
        h.enqueue_write(SiteId(0), suite, b"lost".to_vec(), SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "site s3 has 1 operations in flight")]
    fn a_blocking_call_on_a_client_with_an_operation_in_flight_is_refused() {
        let mut h = three_server_harness(11);
        let (suite, client) = (h.suite_id(), h.default_client());
        h.enqueue_read(client, suite, h.now());
        let _ = h.write(suite, b"two".to_vec());
    }

    #[test]
    fn a_blocking_call_returns_its_own_operation_when_a_later_one_ends_first() {
        // A write to every site, one of them 200 ms away, and a read of
        // another suite at the 10 ms site, started while the write waits.
        let mut net = NetConfig::uniform(4, LatencyModel::constant_millis(10));
        net.set_link_symmetric(SiteId(3), SiteId(2), LatencyModel::constant_millis(200));
        let mut h = HarnessBuilder::new()
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(1, 3))
            .suites([ObjectId(1), ObjectId(2)])
            .net(net)
            .build()
            .expect("legal configuration");
        let client = h.default_client();
        h.enqueue_read(client, ObjectId(2), SimTime::from_millis(1));
        let w = h.write(ObjectId(1), b"mine".to_vec()).expect("write");
        assert_eq!(
            (w.version, w.latency),
            (Version(1), SimDuration::from_millis(400))
        );
        let other = h.drain_completed(client);
        assert_eq!(other.len(), 1);
        assert_eq!((other[0].kind, other[0].suite), (OpKind::Read, ObjectId(2)));
    }

    #[test]
    fn recovery_restores_service() {
        let mut h = three_server_harness(12);
        let suite = h.suite_id();
        h.inject(NetFault::Crash(SiteId(1)));
        h.inject(NetFault::Crash(SiteId(2)));
        assert!(h.write(suite, b"a".to_vec()).is_err());
        h.inject(NetFault::Recover(SiteId(1)));
        let w = h.write(suite, b"b".to_vec()).expect("quorum back");
        assert_eq!(w.version, Version(1));
    }

    #[test]
    fn partition_blocks_minority_client() {
        let mut h = three_server_harness(13);
        let suite = h.suite_id();
        h.write(suite, b"pre".to_vec()).expect("write");
        // Cut the client (site 3) off from servers 1 and 2.
        h.inject(NetFault::Partition(Partition::split(
            4,
            &[&[SiteId(0), SiteId(3)], &[SiteId(1), SiteId(2)]],
        )));
        let err = h.read(suite).expect_err("one vote is not a read quorum");
        assert!(matches!(err, OpError::Unavailable { .. }));
        h.inject(NetFault::Heal);
        assert!(h.read(suite).is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut h = three_server_harness(seed);
            let suite = h.suite_id();
            let w = h.write(suite, b"d".to_vec()).expect("write");
            let r = h.read(suite).expect("read");
            (w.latency, r.latency, h.net_stats())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn trial_history_is_independent_of_the_building_thread() {
        // The determinism contract the parallel trial engine depends on:
        // a harness built and driven on a worker thread replays exactly
        // the history it produces on the main thread.
        fn trial(seed: u64) -> (SimDuration, SimDuration, Vec<Option<Version>>) {
            let mut h = three_server_harness(seed);
            let suite = h.suite_id();
            let w = h.write(suite, b"t".to_vec()).expect("write");
            h.advance(SimDuration::from_secs(1));
            let r = h.read(suite).expect("read");
            let versions = SiteId::all(3).map(|s| h.version_at(s, suite)).collect();
            (w.latency, r.latency, versions)
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
    fn builder_rejects_illegal_quorum() {
        let result = HarnessBuilder::new()
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(1, 1)) // 1 + 1 <= 2: illegal
            .build();
        assert!(matches!(result.err(), Some(OpError::IllegalConfig(_))));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn builder_requires_a_client() {
        let _ = HarnessBuilder::new().site(SiteSpec::server(1)).build();
    }

    #[test]
    fn weak_representative_serves_later_reads_locally() {
        // Workstation (client + weak rep) with a single voting server.
        let mut h = HarnessBuilder::new()
            .seed(5)
            .site(SiteSpec::server(1))
            .site(SiteSpec::client_with_weak())
            .quorum(QuorumSpec::new(1, 1))
            .build()
            .expect("legal");
        let suite = h.suite_id();
        let client = SiteId(1);
        h.write_from(client, suite, b"cached".to_vec())
            .expect("write");
        // First read fetches from the server and refreshes the weak rep.
        let r1 = h.read_from(client, suite).expect("read 1");
        assert_eq!(&r1.value[..], b"cached");
        h.advance(SimDuration::from_secs(1)); // let the cache fill land
        assert_eq!(h.version_at(client, suite), Some(Version(1)));
        // Second read is served by the local weak representative: its
        // fetch leg uses the self-link.
        let r2 = h.read_from(client, suite).expect("read 2");
        assert_eq!(&r2.value[..], b"cached");
        assert!(
            r2.latency <= r1.latency,
            "cached read ({:?}) should not be slower than remote ({:?})",
            r2.latency,
            r1.latency
        );
    }

    #[test]
    fn multiple_suites_are_independent() {
        let mut h = HarnessBuilder::new()
            .seed(33)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::majority(3))
            .suites([ObjectId(10), ObjectId(20), ObjectId(30)])
            .build()
            .expect("legal");
        assert_eq!(h.suite_ids().len(), 3);
        for (i, &suite) in h.suite_ids().to_vec().iter().enumerate() {
            h.write(suite, format!("suite-{i}").into_bytes())
                .expect("write");
        }
        for (i, &suite) in h.suite_ids().to_vec().iter().enumerate() {
            let r = h.read(suite).expect("read");
            assert_eq!(r.value, format!("suite-{i}").into_bytes());
            assert_eq!(r.version, Version(1), "versions are per-suite");
        }
    }

    #[test]
    fn transaction_commits_all_suites_atomically() {
        let mut h = HarnessBuilder::new()
            .seed(55)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::majority(3))
            .suites([ObjectId(1), ObjectId(2), ObjectId(3)])
            .build()
            .expect("legal");
        let client = h.default_client();
        let t = h
            .transaction(
                client,
                vec![
                    (ObjectId(1), b"alpha".to_vec()),
                    (ObjectId(2), b"beta".to_vec()),
                    (ObjectId(3), b"gamma".to_vec()),
                ],
            )
            .expect("transaction commits");
        assert_eq!(t.versions.len(), 3);
        assert!(t.versions.iter().all(|(_, v)| *v == Version(1)));
        for (suite, expect) in [
            (ObjectId(1), &b"alpha"[..]),
            (ObjectId(2), &b"beta"[..]),
            (ObjectId(3), &b"gamma"[..]),
        ] {
            let r = h.read(suite).expect("read");
            assert_eq!(&r.value[..], expect);
            assert_eq!(r.version, Version(1));
        }
        // A second transaction moves both suites it touches to version 2,
        // leaving the third at 1.
        let t2 = h
            .transaction(
                client,
                vec![
                    (ObjectId(1), b"alpha2".to_vec()),
                    (ObjectId(3), b"gamma2".to_vec()),
                ],
            )
            .expect("transaction commits");
        assert!(t2.versions.iter().all(|(_, v)| *v == Version(2)));
        assert_eq!(h.read(ObjectId(2)).expect("read").version, Version(1));
        assert_eq!(&h.read(ObjectId(1)).expect("read").value[..], b"alpha2");
    }

    #[test]
    fn transaction_blocks_when_any_suite_lacks_a_quorum() {
        // Suites share the same representatives here, so instead make the
        // whole write quorum unreachable and verify all-or-nothing.
        let mut h = HarnessBuilder::new()
            .seed(56)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::majority(3))
            .suites([ObjectId(1), ObjectId(2)])
            .build()
            .expect("legal");
        let client = h.default_client();
        h.inject(NetFault::Crash(SiteId(1)));
        h.inject(NetFault::Crash(SiteId(2)));
        let err = h
            .transaction(
                client,
                vec![(ObjectId(1), b"a".to_vec()), (ObjectId(2), b"b".to_vec())],
            )
            .expect_err("no quorum");
        assert!(matches!(err, OpError::Unavailable { .. }));
        h.inject(NetFault::Recover(SiteId(1)));
        h.inject(NetFault::Recover(SiteId(2)));
        // Nothing leaked: both suites still at version 0.
        for suite in [ObjectId(1), ObjectId(2)] {
            assert_eq!(h.read(suite).expect("read").version, Version(0));
        }
    }

    #[test]
    fn transaction_with_unknown_suite_fails_cleanly() {
        let mut h = three_server_harness(57);
        let client = h.default_client();
        let err = h
            .transaction(client, vec![(ObjectId(99), b"x".to_vec())])
            .expect_err("unknown");
        assert_eq!(err, OpError::UnknownSuite);
    }

    #[test]
    fn failure_schedule_windows_become_real_outages() {
        let mut h = three_server_harness(61);
        let suite = h.suite_id();
        let mut schedule = FailureSchedule::none(3);
        schedule.add_outage(1, SimTime::from_secs(2), SimTime::from_secs(8));
        schedule.add_outage(2, SimTime::from_secs(3), SimTime::from_secs(9));
        h.apply_failure_schedule(&schedule);
        h.write(suite, b"pre".to_vec()).expect("healthy write");
        // Inside the overlap of both outages only one server remains: no
        // write quorum of 2.
        h.advance(SimDuration::from_secs(4));
        assert!(h.cluster().is_down(SiteId(1)) && h.cluster().is_down(SiteId(2)));
        // A write issued mid-outage retries until the windows close: it
        // succeeds, but only after site 1 recovers at t = 8 s.
        h.write(suite, b"mid".to_vec()).expect("write rides it out");
        assert!(h.now() >= SimTime::from_secs(8), "blocked until recovery");
        assert!(!h.cluster().is_down(SiteId(1)));
        let stats = h.client_at(h.default_client()).expect("client").stats;
        assert!(stats.retries > 0, "the outage forced retries");
    }

    #[test]
    fn mttf_mttr_schedule_drives_crashes_and_recoveries() {
        let mut rng = wv_sim::DetRng::new(77);
        let schedule = FailureSchedule::mttf_mttr(
            3,
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
            SimTime::from_secs(120),
            &mut rng,
        );
        let windows: usize = (0..3).map(|s| schedule.windows(s).len()).sum();
        assert!(windows > 0, "a 120 s horizon at 20 s MTTF produces outages");
        let mut h = three_server_harness(62);
        let suite = h.suite_id();
        h.apply_failure_schedule(&schedule);
        // Drive a write every 10 s across the horizon; the cluster may
        // block during deep outages but must end healthy and consistent.
        let mut committed = 0u64;
        for i in 0..12u64 {
            if h.write(suite, format!("t{i}").into_bytes()).is_ok() {
                committed += 1;
            }
            h.advance(SimDuration::from_secs(10));
        }
        assert!(committed > 0, "some writes land between outages");
        // Every acknowledged write is visible afterwards (an in-doubt
        // write resolved at recovery may add more versions on top).
        let r = h.read(suite).expect("healthy after the horizon");
        assert!(r.version.0 >= committed, "{} < {committed}", r.version.0);
    }

    #[test]
    fn allow_illegal_quorums_builds_a_non_intersecting_cluster() {
        // r + w = N: `build` would reject this; the fault-injection path
        // accepts it and the cluster *appears* to work while healthy.
        let mut h = HarnessBuilder::new()
            .seed(63)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .allow_illegal_quorums()
            .build()
            .expect("unchecked build accepts r + w = N");
        let suite = h.suite_id();
        h.write(suite, b"x".to_vec()).expect("write");
        h.read(suite).expect("read");
    }

    #[test]
    fn timeout_and_exhaustion_counters_reach_the_stats() {
        // Crash everything but one server: writes burn their whole attempt
        // budget on phase timeouts, then give up.
        let mut h = HarnessBuilder::new()
            .seed(64)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::majority(3))
            .client_options(ClientOptions {
                phase_timeout: SimDuration::from_millis(500),
                max_attempts: 3,
                ..ClientOptions::default()
            })
            .build()
            .expect("legal");
        let suite = h.suite_id();
        h.inject(NetFault::Crash(SiteId(1)));
        h.inject(NetFault::Crash(SiteId(2)));
        let err = h.write(suite, b"nope".to_vec()).expect_err("no quorum");
        assert!(matches!(err, OpError::Unavailable { .. }));
        let stats = h.client_at(h.default_client()).expect("client").stats;
        assert_eq!(stats.attempts_exhausted, 1, "the op gave up exactly once");
        assert_eq!(stats.retries, 2, "two retries before the budget ran out");
        assert!(
            stats.timeouts >= 3,
            "every attempt timed out at least once: {stats:?}"
        );
    }

    #[test]
    fn online_reconfiguration_changes_quorums() {
        let mut h = three_server_harness(21);
        let suite = h.suite_id();
        h.write(suite, b"before".to_vec()).expect("write");
        // Move to read-one/write-all.
        let assignment = VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]);
        let w = h
            .reconfigure_from(h.default_client(), suite, assignment, QuorumSpec::new(1, 3))
            .expect("reconfigure");
        assert_eq!(w.version, Version(2), "config generation moved to 2");
        // Writes now install everywhere.
        h.write(suite, b"after".to_vec()).expect("write");
        h.run_until_quiet(10_000); // let the commit round land
        for s in SiteId::all(3) {
            assert_eq!(h.value_at(s, suite).expect("server"), &b"after"[..]);
        }
        let r = h.read(suite).expect("read");
        assert_eq!(&r.value[..], b"after");
    }

    // ---- the commit point is the decision (DESIGN.md §7.2) ----

    /// Three one-vote servers, `r = w = 2`, a writer (site 3) on 100 ms
    /// links — its write goes straight to prepare and its votes are in,
    /// so it is decided and reported, at 200 ms — and a reader (site 4)
    /// `reader_ms` from every server.
    fn writer_and_reader(seed: u64, reader_ms: u64) -> (Harness, SiteId, SiteId) {
        let (writer, reader) = (SiteId(3), SiteId(4));
        let mut net = NetConfig::uniform(5, LatencyModel::constant_millis(100));
        for server in SiteId::all(3) {
            net.set_link_symmetric(reader, server, LatencyModel::constant_millis(reader_ms));
        }
        let h = HarnessBuilder::new()
            .seed(seed)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .net(net)
            .build()
            .expect("legal configuration");
        (h, writer, reader)
    }

    fn reported_at(h: &mut Harness, client: SiteId) -> SimDuration {
        let done = h.drain_completed(client);
        assert_eq!(done.len(), 1, "{done:?}");
        assert_eq!(done[0].outcome.as_ref().expect("ok").version, Version(1));
        done[0].latency()
    }

    #[test]
    fn a_read_after_the_report_waits_out_a_lost_commit_and_never_sees_the_old_version() {
        let (mut h, writer, reader) = writer_and_reader(41, 100);
        let suite = h.suite_id();
        h.enqueue_write(writer, suite, b"new".to_vec(), h.now());
        // The writer is cut off just as the last vote lands: it decides
        // and reports, and its first Commit to both participants is lost.
        h.advance(SimDuration::from_millis(199));
        h.inject(NetFault::Partition(Partition::isolate(5, writer)));
        h.advance(SimDuration::from_millis(2));
        h.inject(NetFault::Heal);
        assert_eq!(reported_at(&mut h, writer), SimDuration::from_millis(200));
        assert!(SiteId::all(3).all(|s| h.version_at(s, suite) == Some(Version(0))));
        // A read that starts after the report is held behind the two
        // participants' commit locks — the third replica's old version
        // alone is no quorum — until the writer sends the decision again.
        let r = h.read_from(reader, suite).expect("read");
        assert_eq!((r.version, &r.value[..]), (Version(1), &b"new"[..]));
        assert!(r.latency > SimDuration::from_secs(5), "{:?}", r.latency);
        let held: u64 = SiteId::all(3)
            .map(|s| h.server_at(s).expect("server").stats.busy)
            .sum();
        assert!(held >= 2, "held {held}");
    }

    #[test]
    fn a_participant_back_in_doubt_after_the_report_holds_the_reader_until_its_probe_is_answered() {
        // The reader is close: it would have its answer long before the
        // writer can have answered anybody's probe.
        let (mut h, writer, reader) = writer_and_reader(42, 10);
        let suite = h.suite_id();
        h.enqueue_write(writer, suite, b"new".to_vec(), h.now());
        // s1 crashes with its yes vote on the wire and misses the Commit.
        h.advance(SimDuration::from_millis(150));
        h.inject(NetFault::Crash(SiteId(1)));
        h.advance(SimDuration::from_millis(200));
        assert_eq!(reported_at(&mut h, writer), SimDuration::from_millis(200));
        assert_eq!(h.version_at(SiteId(0), suite), Some(Version(1)));
        // The one replica that applied the write goes down, and s1 comes
        // back in doubt: a reader's quorum is now s1 and s2, which never
        // heard of the write.
        h.inject(NetFault::Crash(SiteId(0)));
        h.inject(NetFault::Recover(SiteId(1)));
        assert_eq!(h.version_at(SiteId(1), suite), Some(Version(0)));
        // s1 took its commit lock again before serving: the reader waits
        // there until the writer has answered s1's DecisionReq.
        let r = h.read_from(reader, suite).expect("read");
        assert_eq!((r.version, &r.value[..]), (Version(1), &b"new"[..]));
        assert_eq!(r.attempts, 1);
        assert_eq!(h.version_at(SiteId(1), suite), Some(Version(1)));
        assert!(h.server_at(SiteId(1)).expect("server").stats.busy >= 1);
    }

    #[test]
    fn where_write_quorums_need_not_intersect_the_report_waits_for_the_ack() {
        // r = 3, w = 1, and two clients that rank different sites
        // cheapest: A (site 3) installs at s0, B (site 4) at s1. B hears
        // from s0 before a Commit that A sends at the same instant gets
        // there — and a writer's floor inquiry is answered at once, from
        // committed state. Only A's ack says s0 has applied the write.
        let mut net = NetConfig::uniform(5, LatencyModel::constant_millis(100));
        net.set_link_symmetric(SiteId(3), SiteId(0), LatencyModel::constant_millis(50));
        net.set_link_symmetric(SiteId(4), SiteId(1), LatencyModel::constant_millis(10));
        net.set_link_symmetric(SiteId(4), SiteId(0), LatencyModel::constant_millis(20));
        let mut h = HarnessBuilder::new()
            .seed(43)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .client()
            .quorum(QuorumSpec::new(3, 1))
            .net(net)
            .build()
            .expect("legal configuration");
        let suite = h.suite_id();
        let first = h.write_from(SiteId(3), suite, b"a".to_vec()).expect("a");
        let second = h.write_from(SiteId(4), suite, b"b".to_vec()).expect("b");
        assert_eq!((first.version, second.version), (Version(1), Version(2)));
        // Inquiry 200 ms, prepare at s0 100 ms, commit and ack 100 ms.
        assert_eq!(first.latency, SimDuration::from_millis(400));
        h.run_until_quiet(10_000);
        assert_eq!(h.version_at(SiteId(0), suite), Some(Version(1)));
        assert_eq!(h.version_at(SiteId(1), suite), Some(Version(2)));
    }

    #[test]
    fn a_reconfiguration_reports_and_adopts_at_the_last_ack() {
        let mut h = three_server_harness(44);
        let (suite, client) = (h.suite_id(), h.default_client());
        let generation = |h: &Harness| {
            let c = h.cluster().nodes[client.index()].as_client();
            let c = c.expect("client");
            (
                c.decision_log().len(),
                c.config(suite).expect("known").generation,
            )
        };
        // Inquiry, fetch and prepare take 200 ms each: decided at 600 ms,
        // acked at 800.
        h.enqueue_reconfigure(
            client,
            suite,
            VoteAssignment::equal(3),
            QuorumSpec::new(1, 3),
            h.now(),
        );
        h.advance(SimDuration::from_millis(650));
        assert_eq!(generation(&h), (1, 1), "decided, not adopted");
        assert!(h.drain_completed(client).is_empty(), "nor reported");
        h.advance(SimDuration::from_millis(200));
        assert_eq!(generation(&h), (1, 2));
        let done = h.drain_completed(client);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency(), SimDuration::from_millis(800));
        assert_eq!(done[0].outcome.as_ref().expect("ok").version, Version(2));
    }

    // ---- one quorum access per write: the hazards (DESIGN.md §7.2) ----

    use crate::client::RetryCause;

    /// Three one-vote servers, `r = w = 2`, and two clients, sites 3 and
    /// 4, on the links `net` sets up over uniform 100 ms ones.
    fn two_clients(seed: u64, net: impl FnOnce(&mut NetConfig)) -> Harness {
        let mut cfg = NetConfig::uniform(5, LatencyModel::constant_millis(100));
        net(&mut cfg);
        HarnessBuilder::new()
            .seed(seed)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .net(cfg)
            .build()
            .expect("legal configuration")
    }

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    fn pending_at(h: &Harness, site: SiteId) -> usize {
        let server = h.cluster().nodes[site.index()].as_server();
        server.expect("server").pending_writes()
    }

    fn inquiries(h: &Harness) -> u64 {
        SiteId::all(3)
            .map(|s| h.server_at(s).expect("server").stats.inquiries)
            .sum()
    }

    #[test]
    fn a_write_started_after_a_report_stands_in_line_behind_the_unapplied_write() {
        // B (site 4) sits 10 ms from the servers. A's write is reported at
        // 200 ms, its Commit lands at 300; B's write starts in between and
        // asks nobody for a version. Its prepares meet A's commit locks at
        // both members of the one write quorum there is to pick, stand in
        // line, and are staged above what A's commit installs.
        let (a, b) = (SiteId(3), SiteId(4));
        let mut h = two_clients(45, |net| {
            for server in SiteId::all(3) {
                net.set_link_symmetric(b, server, LatencyModel::constant_millis(10));
            }
        });
        let suite = h.suite_id();
        h.enqueue_write(a, suite, b"a".to_vec(), h.now());
        h.advance(ms(201));
        assert_eq!(reported_at(&mut h, a), ms(200));
        assert_eq!(
            h.version_at(SiteId(0), suite),
            Some(Version(0)),
            "unapplied"
        );
        let second = h.write_from(b, suite, b"b".to_vec()).expect("b");
        assert_eq!((second.version, second.attempts), (Version(2), 1));
        // 10 ms out, 89 ms in line until A's Commit lands, 10 ms back.
        assert_eq!(second.latency, ms(109));
        h.run_until_quiet(10_000);
        assert_eq!(h.version_at(SiteId(0), suite), Some(Version(2)));
        assert_eq!(h.value_at(SiteId(1), suite).as_deref(), Some(&b"b"[..]));
    }

    #[test]
    fn a_lagging_participant_installs_the_version_the_commit_names() {
        // A ranks {s0, s1} cheapest, B {s1, s2}: s2 misses A's write, and
        // stages B's one version too low.
        let (a, b) = (SiteId(3), SiteId(4));
        let mut h = two_clients(46, |net| {
            net.set_link_symmetric(a, SiteId(2), LatencyModel::constant_millis(200));
            net.set_link_symmetric(b, SiteId(0), LatencyModel::constant_millis(200));
        });
        let suite = h.suite_id();
        h.write_from(a, suite, b"a".to_vec()).expect("a");
        h.run_until_quiet(10_000);
        assert_eq!(h.version_at(SiteId(2), suite), Some(Version(0)));
        let before = inquiries(&h);
        let second = h.write_from(b, suite, b"b".to_vec()).expect("b");
        assert_eq!((second.version, second.attempts), (Version(2), 1));
        assert_eq!(inquiries(&h), before, "nobody was asked");
        h.run_until_quiet(10_000);
        for s in [SiteId(1), SiteId(2)] {
            assert_eq!(h.version_at(s, suite), Some(Version(2)), "{s}");
            assert_eq!(h.value_at(s, suite).as_deref(), Some(&b"b"[..]));
        }
    }

    #[test]
    fn a_stale_generation_met_at_the_grant_restarts_with_an_inquiry() {
        let (a, b) = (SiteId(3), SiteId(4));
        let mut h = two_clients(47, |_| {});
        let suite = h.suite_id();
        h.reconfigure_from(b, suite, VoteAssignment::equal(3), QuorumSpec::new(1, 3))
            .expect("reconfigure");
        h.run_until_quiet(10_000);
        // A still plans on generation 1, and goes straight to prepare: the
        // grant is where it learns better. The retry asks everyone first.
        let before = inquiries(&h);
        let w = h.write_from(a, suite, b"a".to_vec()).expect("a");
        assert_eq!(w.attempts, 2);
        // The reconfiguration's re-publication took version 1.
        assert_eq!(w.version, Version(2));
        assert_eq!(inquiries(&h), before + 3);
        let stats = h.client_at(a).expect("client").stats;
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.retry_causes[RetryCause::StaleConfig as usize], 1);
        h.run_until_quiet(10_000);
        assert!(SiteId::all(3).all(|s| h.version_at(s, suite) == Some(Version(2))));
    }

    #[test]
    fn a_refresh_asks_for_the_configuration_of_the_suite_that_moved_on() {
        // Client B reconfigures the transaction's *second* suite. The
        // refresh has to ask for that one: asking for the first again
        // learns nothing, and burns every attempt on `StaleConfig`.
        let (first, second) = (ObjectId(1), ObjectId(2));
        let mut h = HarnessBuilder::new()
            .seed(48)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .suites([first, second])
            .build()
            .expect("legal configuration");
        let (a, b) = (SiteId(3), SiteId(4));
        h.reconfigure_from(b, second, VoteAssignment::equal(3), QuorumSpec::new(1, 3))
            .expect("reconfigure");
        h.run_until_quiet(10_000);
        let writes = vec![(first, b"x".to_vec()), (second, b"y".to_vec())];
        let t = h.transaction(a, writes).expect("commits");
        assert_eq!(t.attempts, 2);
        assert_eq!(t.versions, vec![(first, Version(1)), (second, Version(2))]);
        let stats = h.client_at(a).expect("client").stats;
        assert_eq!(stats.retry_causes[RetryCause::StaleConfig as usize], 1);
    }

    #[test]
    fn a_direct_write_widens_past_a_silent_participant_in_one_attempt() {
        let mut h = three_server_harness(49);
        let (suite, client) = (h.suite_id(), h.default_client());
        h.inject(NetFault::Crash(SiteId(1)));
        // Prepares out at 0 to {s0, s1}; s0's yes is back at 200 ms, and
        // s1 gets that round trip again. At 400 ms it is dropped for s2,
        // whose yes decides the write at 600 — three round trips, not the
        // 5 s phase timeout, and one attempt.
        let w = h.write(suite, b"w".to_vec()).expect("write");
        assert_eq!((w.version, w.attempts, w.latency), (Version(1), 1, ms(600)));
        let stats = h.client_at(client).expect("client").stats;
        assert_eq!((stats.timeouts, stats.retries), (0, 0));
        // s0's commit lock went with the Commit, 700 ms in.
        h.advance(ms(101));
        assert_eq!(pending_at(&h, SiteId(0)), 0);
        assert_eq!(h.version_at(SiteId(2), suite), Some(Version(1)));
    }

    /// [`a_direct_write_widens_past_a_silent_participant_in_one_attempt`]
    /// with s1 alive and only *heard* late — its answers take `back_ms` to
    /// reach the client — so it is dropped at 400 ms holding a commit
    /// lock. `lose_abort` cuts it off while the abort goes out. Returns
    /// the settled harness.
    fn widened_away_from_a_late_site(back_ms: u64, lose_abort: bool) -> Harness {
        let (s1, client) = (SiteId(1), SiteId(3));
        let mut net = NetConfig::uniform(4, LatencyModel::constant_millis(100));
        net.set_link(s1, client, LatencyModel::constant_millis(back_ms));
        let mut h = HarnessBuilder::new()
            .seed(50)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .net(net)
            .build()
            .expect("legal configuration");
        let suite = h.suite_id();
        h.enqueue_write(client, suite, b"w".to_vec(), h.now());
        h.advance(ms(399));
        assert_eq!(pending_at(&h, s1), 1, "staged, its yes on the wire");
        if lose_abort {
            h.inject(NetFault::Partition(Partition::isolate(4, s1)));
        }
        h.advance(ms(2));
        h.inject(NetFault::Heal);
        h.advance(ms(300));
        assert_eq!(reported_at(&mut h, client), ms(600));
        h.advance(SimDuration::from_secs(20));
        h
    }

    #[test]
    fn a_site_widened_away_from_ends_with_the_decision_or_nothing_and_never_a_lock() {
        // Where s1's late yes finds the write when it gets to the client:
        // still preparing (answered Abort), decided and unretired (answered
        // Commit: one more holder of the same version and value), or
        // retired (presumed abort). With the abort delivered s1 has let
        // go before any of that, and holds nothing.
        for (back_ms, lose_abort, holds) in [
            (350, false, false),
            (350, true, false),
            (600, false, false),
            (600, true, true),
            (900, false, false),
            (900, true, false),
        ] {
            let mut h = widened_away_from_a_late_site(back_ms, lose_abort);
            let suite = h.suite_id();
            let case = format!("answers take {back_ms} ms, abort lost: {lose_abort}");
            assert_eq!(pending_at(&h, SiteId(1)), 0, "{case}");
            let expected = if holds { Version(1) } else { Version(0) };
            assert_eq!(h.version_at(SiteId(1), suite), Some(expected), "{case}");
            if holds {
                assert_eq!(h.value_at(SiteId(1), suite).as_deref(), Some(&b"w"[..]));
            }
            // Nothing it held stands in the next write's way.
            let next = h.write(suite, b"next".to_vec()).expect("next");
            assert_eq!((next.version, next.attempts), (Version(2), 1), "{case}");
        }
    }

    #[test]
    fn a_site_widened_away_from_whose_yes_is_lost_resolves_through_its_own_probe() {
        // s1 is cut off from 50 ms to 450 ms: its yes and the abort are
        // both lost, and it keeps its promise until its probe timer asks.
        for decision_retired in [true, false] {
            let mut h = three_server_harness(51);
            let (suite, client) = (h.suite_id(), h.default_client());
            h.enqueue_write(client, suite, b"w".to_vec(), h.now());
            h.advance(ms(50));
            h.inject(NetFault::Partition(Partition::isolate(4, SiteId(1))));
            h.advance(ms(400));
            h.inject(NetFault::Heal);
            if !decision_retired {
                // s2 votes and dies before the Commit: its ack never
                // comes, so the tail keeps the decision answerable.
                h.advance(ms(100));
                h.inject(NetFault::Crash(SiteId(2)));
            }
            h.advance(ms(4_000));
            assert_eq!(reported_at(&mut h, client), ms(600));
            assert_eq!(pending_at(&h, SiteId(1)), 1, "in doubt, and locked");
            h.advance(ms(2_000));
            assert_eq!(pending_at(&h, SiteId(1)), 0);
            let expected = if decision_retired { 0 } else { 1 };
            assert_eq!(h.version_at(SiteId(1), suite), Some(Version(expected)));
        }
    }

    #[test]
    fn an_in_doubt_participant_back_before_its_probe_is_due_probes_once_per_interval() {
        // The writer's prepares land at 100 ms, and the yes votes leave
        // with their decision probes due at 5.1 s. The writer crashes at
        // 150 ms and stays down, so no probe is ever answered. The
        // participants crash at 1 s and are back at 2 s, still in doubt,
        // and probe at once: the probe each set before its crash must not
        // fire after the recovery beside the chain the recovery started.
        let writer = SiteId(3);
        let mut h = two_clients(54, |_| {});
        let suite = h.suite_id();
        h.enqueue_write(writer, suite, b"w".to_vec(), h.now());
        h.advance(ms(150));
        h.inject(NetFault::Crash(writer));
        h.advance(ms(850));
        let in_doubt: Vec<SiteId> = SiteId::all(3).filter(|&s| pending_at(&h, s) == 1).collect();
        assert_eq!(in_doubt.len(), 2, "a write quorum voted yes");
        for &site in &in_doubt {
            h.inject(NetFault::Crash(site));
        }
        h.advance(ms(1_000));
        for &site in &in_doubt {
            h.inject(NetFault::Recover(site));
        }
        h.advance(ms(500));
        // Nothing else is sent: the only messages are the probes.
        for _ in 0..4 {
            let before = h.net_stats().sent;
            h.advance(ms(5_000));
            let probes = h.net_stats().sent - before;
            assert_eq!(probes, 2, "one probe per participant per interval");
        }
        assert!(in_doubt.iter().all(|&site| pending_at(&h, site) == 1));
    }

    #[test]
    fn a_silent_site_makes_writes_inquire_until_it_is_heard_from_again() {
        // Messages of an inquiry of `h` hosts, and of the one quorum
        // access at `w` sites (`wv_analysis::cost`).
        let inquiry_messages = |h: u64| 2 * h;
        let write_messages = |w: u64| 4 * w;
        let mut h = three_server_harness(52);
        let suite = h.suite_id();
        let sent_by = |h: &mut Harness, value: &[u8]| {
            let before = h.net_stats().sent;
            h.write(suite, value.to_vec()).expect("write");
            h.advance(SimDuration::from_secs(1));
            h.net_stats().sent - before
        };
        assert_eq!(sent_by(&mut h, b"direct"), write_messages(2));
        // The next write widens away from s1, and remembers.
        h.inject(NetFault::Crash(SiteId(1)));
        sent_by(&mut h, b"widened");
        // While s1 is silent the write asks first, and so installs at the
        // sites that answered: three asked, two answers.
        assert_eq!(
            sent_by(&mut h, b"inquired"),
            inquiry_messages(3) - 1 + write_messages(2)
        );
        // Back up is not heard from: this write still asks first — and
        // s1's answer is the message that restores the direct path.
        h.inject(NetFault::Recover(SiteId(1)));
        assert_eq!(
            sent_by(&mut h, b"inquired again"),
            inquiry_messages(3) + write_messages(2)
        );
        assert_eq!(sent_by(&mut h, b"direct again"), write_messages(2));
    }

    #[test]
    fn a_participant_that_crashes_between_apply_and_flush_takes_nothing_back() {
        // Group commit, 50 ms window. The writer's prepares land at 100 ms,
        // the votes leave with the flush at 150, the write is decided at
        // 250, the Commit is applied — and the commit locks released — at
        // 350; its record would be durable, and the ack sent, at 400.
        let (writer, reader) = (SiteId(3), SiteId(4));
        let mut net = NetConfig::uniform(5, LatencyModel::constant_millis(100));
        for server in SiteId::all(3) {
            net.set_link_symmetric(reader, server, LatencyModel::constant_millis(5));
        }
        let mut h = HarnessBuilder::new()
            .seed(53)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .group_commit(ms(50))
            .net(net)
            .build()
            .expect("legal configuration");
        let suite = h.suite_id();
        h.enqueue_write(writer, suite, b"new".to_vec(), h.now());
        h.advance(ms(355));
        assert_eq!(reported_at(&mut h, writer), ms(250));
        // A reader sees the applied, not yet durable, version...
        let seen = h.read_from(reader, suite).expect("read");
        assert_eq!((seen.version, seen.latency), (Version(1), ms(10)));
        // ...and both sites that applied it crash before their flush.
        h.inject(NetFault::Crash(SiteId(0)));
        h.inject(NetFault::Crash(SiteId(1)));
        h.inject(NetFault::Recover(SiteId(0)));
        h.inject(NetFault::Recover(SiteId(1)));
        assert_eq!(h.version_at(SiteId(0), suite), Some(Version(0)));
        assert_eq!(pending_at(&h, SiteId(0)), 1, "back in doubt");
        // They took their locks again before serving, so the reader is
        // held — s2's version 0 alone is no quorum — until the writer,
        // which has had no ack and still holds the decision, answers
        // their probes: commit.
        let again = h.read_from(reader, suite).expect("read");
        assert!(again.version >= seen.version, "{:?}", again.version);
        assert_eq!(&again.value[..], b"new");
        assert_eq!(again.attempts, 1);
        h.run_until_quiet(10_000);
        assert_eq!(h.version_at(SiteId(0), suite), Some(Version(1)));
        assert_eq!(h.version_at(SiteId(1), suite), Some(Version(1)));
    }

    #[test]
    fn anti_entropy_catches_up_a_recovered_representative() {
        let mut h = HarnessBuilder::new()
            .seed(31)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .anti_entropy(SimDuration::from_millis(500))
            .build()
            .expect("legal configuration");
        let suite = h.suite_id();
        h.write(suite, b"v1".to_vec()).expect("write");
        h.inject(NetFault::Crash(SiteId(2)));
        h.write(suite, b"v2".to_vec()).expect("write");
        h.write(suite, b"v3".to_vec()).expect("write");
        h.inject(NetFault::Recover(SiteId(2)));
        // Recovery fires the pull immediately, but the answers are still
        // in flight: the site is stale right now…
        assert!(h.version_at(SiteId(2), suite).expect("server") < Version(3));
        // …and current shortly after, with no client write involved.
        h.advance(SimDuration::from_secs(2));
        assert_eq!(h.version_at(SiteId(2), suite), Some(Version(3)));
        assert_eq!(h.value_at(SiteId(2), suite).as_deref(), Some(&b"v3"[..]));
        assert!(
            h.server_at(SiteId(2))
                .expect("server")
                .stats
                .repairs_completed
                >= 1
        );
        // With the probes silenced the queue drains.
        h.stop_anti_entropy();
        h.run_until_quiet(1_000_000);
    }

    #[test]
    fn anti_entropy_refills_a_weak_representative() {
        // r=1/w=2 over two voting sites: the write quorum never includes
        // the zero-vote cache, so only the gossip probe can refill it.
        let mut h = HarnessBuilder::new()
            .seed(32)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::client_with_weak())
            .quorum(QuorumSpec::new(1, 2))
            .anti_entropy(SimDuration::from_millis(500))
            .build()
            .expect("legal configuration");
        let suite = h.suite_id();
        h.write(suite, b"fresh".to_vec()).expect("write");
        h.advance(SimDuration::from_secs(2));
        assert_eq!(h.version_at(SiteId(2), suite), Some(Version(1)));
        assert_eq!(h.value_at(SiteId(2), suite).as_deref(), Some(&b"fresh"[..]));
    }

    fn cache_tier_harness(seed: u64, wr: crate::client::WeakRepOptions) -> Harness {
        HarnessBuilder::new()
            .seed(seed)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .client()
            .quorum(QuorumSpec::new(2, 2))
            .client_options(ClientOptions {
                weak_rep: Some(wr),
                ..ClientOptions::default()
            })
            .build()
            .expect("legal configuration")
    }

    #[test]
    fn validated_cache_serves_repeat_reads_without_data_fetches() {
        use crate::client::WeakRepOptions;
        let mut h = cache_tier_harness(75, WeakRepOptions::validated());
        let suite = h.suite_id();
        h.write(suite, b"hot".to_vec()).expect("write");
        for _ in 0..4 {
            let r = h.read(suite).expect("read");
            assert_eq!(r.version, Version(1));
            assert_eq!(r.value, b"hot".to_vec());
        }
        let stats = h.client_at(SiteId(3)).expect("client").stats;
        // The first read's contents came with its inquiry and filled the
        // cache; every later read was quorum-confirmed and served locally.
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 3);
        let moved = (stats.reads_contents_with_inquiry, stats.reads_fetched);
        assert_eq!(moved, (1, 0), "one data move across four reads, no fetch");
    }

    #[test]
    fn lease_reads_are_quorum_free_and_a_write_invalidates() {
        use crate::client::WeakRepOptions;
        let mut h = cache_tier_harness(76, WeakRepOptions::lease(SimDuration::from_secs(10)));
        let suite = h.suite_id();
        h.write(suite, b"v1".to_vec()).expect("write");
        let r = h.read(suite).expect("read");
        assert_eq!(r.value, b"v1".to_vec());
        // Inside the lease: the read touches no wire at all.
        let sent_before = h.net_stats().sent;
        let r = h.read(suite).expect("read");
        assert_eq!(r.value, b"v1".to_vec());
        assert_eq!(r.latency, SimDuration::ZERO, "lease reads are local");
        assert_eq!(h.net_stats().sent, sent_before, "zero messages sent");
        // A local write invalidates the lease: the next read must see the
        // new value, not serve the leased copy.
        h.write(suite, b"v2".to_vec()).expect("write");
        let r = h.read(suite).expect("read");
        assert_eq!(r.version, Version(2));
        assert_eq!(r.value, b"v2".to_vec());
        let stats = h.client_at(SiteId(3)).expect("client").stats;
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.lease_expiries, 0);
    }

    /// Per log in the cluster (each site's container, then its client's
    /// decision log): WAL records, WAL image bytes, committed objects.
    fn retained(h: &Harness) -> Vec<(usize, usize, usize)> {
        let nodes = h.cluster().nodes.iter();
        nodes
            .flat_map(|n| {
                let server = n.as_server().map(|s| s.container());
                let decisions = n.as_client().map(|c| c.decision_log());
                [server, decisions].into_iter().flatten()
            })
            .map(|c| (c.wal().len(), c.wal().image_bytes(), c.len()))
            .collect()
    }

    #[test]
    fn every_log_is_flat_in_the_ops_served() {
        use crate::server::CHECKPOINT_RECORDS;
        const PAYLOAD: usize = 64;
        // One interval plus the longest single append (begin, put,
        // prepare, outcome); a frame is its payload plus < 64 bytes.
        const RECORDS: usize = CHECKPOINT_RECORDS + 4;
        const BYTES: usize = RECORDS * (PAYLOAD + 64);
        let mut h = HarnessBuilder::new()
            .seed(15)
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::server(1))
            .site(SiteSpec::client_with_weak())
            .site(SiteSpec::client_with_weak())
            .quorum(QuorumSpec::new(2, 2))
            .build()
            .expect("legal");
        let suite = h.suite_id();
        let workstations = [SiteId(3), SiteId(4)];
        // A write, then a read by each workstation: the read finds the
        // local weak representative stale, fetches from a server and
        // refreshes it — one decision, two participant commits and two
        // weak installs per round.
        let rounds = |h: &mut Harness, n: usize| {
            for i in 0..n {
                let writer = workstations[i % 2];
                h.write_from(writer, suite, vec![i as u8; PAYLOAD])
                    .expect("write");
                for w in workstations {
                    h.read_from(w, suite).expect("read");
                }
            }
            h.run_until_quiet(1_000_000);
            retained(h)
        };
        let n = CHECKPOINT_RECORDS / 2;
        let after_n = rounds(&mut h, n);
        let after_4n = rounds(&mut h, 3 * n);
        assert_eq!(after_n.len(), 3 + 2 * 2, "servers, then rep + log each");
        for (log, (a, b)) in after_n.iter().zip(&after_4n).enumerate() {
            for (records, bytes, _) in [a, b] {
                assert!(*records < RECORDS, "log {log}: {records} records");
                assert!(*bytes < BYTES, "log {log}: {bytes} image bytes");
            }
            // Live state: a representative holds the same objects whatever
            // it has served; a decision log (the second log of each
            // workstation) holds what one interval logged, not the history.
            if [4, 6].contains(&log) {
                assert!(a.2.max(b.2) <= 1 + CHECKPOINT_RECORDS / 3, "decisions");
            } else {
                assert_eq!(a.2, b.2, "representative {log}");
            }
        }
        let weak_installs: u64 = workstations
            .iter()
            .map(|w| h.server_at(*w).expect("weak rep").stats.weak_updates)
            .sum();
        assert!(weak_installs as usize >= 4 * n, "{weak_installs} refreshes");
    }

    // ---- write trains: the hazards (DESIGN.md §7.2) ----

    fn prepares(h: &Harness) -> u64 {
        SiteId::all(3)
            .map(|s| h.server_at(s).expect("server").stats.prepares)
            .sum()
    }

    /// `(version, latency)` per completion, in report order.
    fn reports(h: &mut Harness, client: SiteId) -> Vec<(u64, SimDuration)> {
        let done = h.drain_completed(client);
        let one = |op: &CompletedOp| (op.outcome.as_ref().expect("ok").version.0, op.latency());
        done.iter().map(one).collect()
    }

    #[test]
    fn three_writes_launched_together_take_two_lock_holds_and_three_versions() {
        let mut h = three_server_harness(54);
        let (suite, client) = (h.suite_id(), h.default_client());
        h.write(suite, b"before".to_vec()).expect("write");
        h.run_until_quiet(10_000);
        let before = prepares(&h);
        for value in [b"a", b"b", b"c"] {
            h.enqueue_write(client, suite, value.to_vec(), h.now());
        }
        h.run_until_quiet(10_000);
        // The first is decided a round trip in; the other two left then,
        // on one prepare, and are reported a round trip later — the older
        // first, one version apart.
        assert_eq!(
            reports(&mut h, client),
            vec![(2, ms(200)), (3, ms(400)), (4, ms(400))]
        );
        assert_eq!(prepares(&h), before + 2 * 2, "two prepares at two sites");
        let stats = h.client_at(client).expect("client").stats;
        assert_eq!((stats.trains, stats.writes_ridden), (3, 1));
        let seen = h.read(suite).expect("read");
        assert_eq!((seen.version, &seen.value[..]), (Version(4), &b"c"[..]));
    }

    #[test]
    fn writes_parked_behind_an_attempt_leave_when_it_ends_not_when_its_operation_does() {
        let mut h = three_server_harness(55);
        let (suite, client) = (h.suite_id(), h.default_client());
        // The first write's prepares are lost to a partition; two more
        // park behind it (a tenth of a second in, nobody is late yet).
        h.inject(NetFault::Partition(Partition::isolate(4, client)));
        h.enqueue_write(client, suite, b"lost".to_vec(), h.now());
        h.advance(ms(100));
        h.enqueue_write(client, suite, b"b".to_vec(), h.now());
        h.enqueue_write(client, suite, b"c".to_vec(), h.now());
        h.advance(ms(900));
        h.inject(NetFault::Heal);
        // It times out 5 s in and retries 40 to 60 ms later. The parked
        // two leave at the timeout — asking first, their sites having just
        // been silent — and a write launched while the first is waiting to
        // retry goes out at once.
        h.advance(ms(3_999));
        let sent = h.net_stats().sent;
        h.advance(ms(2));
        assert_eq!(h.net_stats().sent, sent + 2 + 3, "two aborts, one inquiry");
        h.advance(ms(9));
        h.enqueue_write(client, suite, b"d".to_vec(), h.now());
        h.advance(ms(1));
        assert_eq!(
            h.net_stats().sent,
            sent + 2 + 3 + 3,
            "an inquiry of its own"
        );
        h.run_until_quiet(100_000);
        let mut done = reports(&mut h, client);
        assert_eq!(done[..2], [(1, ms(5_300)), (2, ms(5_300))]);
        done.sort_unstable();
        assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), [1, 2, 3, 4]);
    }

    #[test]
    fn a_client_crash_with_a_train_prepared_consumes_no_version() {
        let mut h = three_server_harness(56);
        let (suite, client) = (h.suite_id(), h.default_client());
        for value in [b"a", b"b", b"c"] {
            h.enqueue_write(client, suite, value.to_vec(), h.now());
        }
        // The train's prepares are staged 300 ms in; its coordinator dies.
        h.advance(ms(350));
        assert_eq!(
            (pending_at(&h, SiteId(0)), pending_at(&h, SiteId(1))),
            (1, 1)
        );
        h.inject(NetFault::Crash(client));
        h.advance(ms(650));
        h.inject(NetFault::Recover(client));
        h.advance(SimDuration::from_secs(20));
        // Only the first write was ever reported; the participants' probes
        // were answered by presumed abort, and the versions the train would
        // have taken are the next writer's.
        assert_eq!(reports(&mut h, client), vec![(1, ms(200))]);
        assert!(SiteId::all(3).all(|s| pending_at(&h, s) == 0));
        let next = h.write(suite, b"next".to_vec()).expect("next");
        assert_eq!((next.version, next.attempts), (Version(2), 1));
    }

    #[test]
    fn a_hot_suite_commits_every_write_in_one_or_two_attempts() {
        // The benchmark's `sim-hot` shape: 3 servers, 8 clients x depth 8,
        // one suite, 512 writes enqueued at once. A retry lottery on the
        // commit lock pays dozens of attempts per write here; the line
        // at the representatives pays about one, and a client's eight
        // outstanding writes share one place in it.
        use crate::client::RetryCause;
        const CLIENTS: usize = 8;
        let mut b = HarnessBuilder::new()
            .seed(17)
            .quorum(QuorumSpec::new(2, 2))
            .net(NetConfig::uniform(
                3 + CLIENTS,
                LatencyModel::ShiftedExponential {
                    base: SimDuration::from_millis(20),
                    tail_mean: SimDuration::from_millis(5),
                },
            ))
            .client_options(ClientOptions {
                phase_timeout: SimDuration::from_millis(300),
                backoff: SimDuration::from_millis(5),
                backoff_cap: SimDuration::from_millis(80),
                max_attempts: 512,
                commit_resend_limit: 512,
                pipeline_depth: Some(8),
                ..ClientOptions::default()
            })
            .group_commit(SimDuration::from_millis(5));
        for _ in 0..3 {
            b = b.site(SiteSpec::server(1));
        }
        for _ in 0..CLIENTS {
            b = b.client();
        }
        let mut h = b.build().expect("legal");
        let suite = h.suite_id();
        let clients = h.clients().to_vec();
        for i in 0..512 {
            let value = format!("w{i}").into_bytes();
            h.enqueue_write(clients[i % CLIENTS], suite, value, SimTime::ZERO);
        }
        h.run_until_quiet(10_000_000);
        let mut attempts = Vec::new();
        let mut versions = Vec::new();
        for &c in &clients {
            for op in h.drain_completed(c) {
                attempts.push(op.attempts);
                versions.push(op.outcome.expect("no fault, no failure").version.0);
            }
            let stats = h.client_at(c).expect("client").stats;
            let by_cause: u64 = stats.retry_causes.iter().sum();
            assert_eq!(by_cause, stats.retries, "every retry has a cause");
            let timed_out = RetryCause::TimeoutPrepare as usize;
            assert_eq!(stats.retry_causes[timed_out], 0, "a line is not a timeout");
        }
        versions.sort_unstable();
        assert_eq!(versions, (1..=512).collect::<Vec<u64>>());
        let max = attempts.iter().copied().max().expect("ops");
        let mean = attempts.iter().map(|&a| f64::from(a)).sum::<f64>() / 512.0;
        assert!(max <= 4, "an op took {max} attempts");
        assert!(mean <= 1.5, "mean {mean} attempts per write");
        // A client's window is one train: 9.3 s, against 36.6 s at one
        // write per lock hold.
        assert!(h.now() < SimTime::from_secs(12), "makespan {:?}", h.now());
    }
}
