//! Driving a simulated cluster: the small surface the phases need, over
//! the untraced `Harness` and over the traced [`Rig`].

use std::time::Instant;

use wv_core::client::CompletedOp;
use wv_core::harness::Harness;
use wv_core::node::SystemNode;
use wv_net::sim_net::Cluster;
use wv_net::SiteId;
use wv_sim::{derive_seed, FailureSchedule, Sim, SimDuration, SimTime};
use wv_storage::ObjectId;

use crate::cluster::{self, Host, RawSpan, Timed};
use crate::gen::{Kind, Op};
use crate::spec::Spec;

/// Label salt of the per-site disk-fault seeds, as `HarnessBuilder` uses.
const DISK_FAULT_SEED_SALT: u64 = 0xD15C_FA17;
/// Label of the failure-schedule stream.
const CHURN_LABEL: u64 = 0xC4_0211;
/// Virtual horizon the failure schedule covers: many times the few
/// thousand virtual seconds a run lasts (`FailureSchedule` sorts on every
/// insertion, so it cannot be arbitrarily far).
const CHURN_HORIZON: SimTime = SimTime::from_secs(40_000);
/// `Harness::run_until_quiet` wants a cap; none is wanted.
const EVENT_CAP: u64 = u64::MAX;
/// The traced rig samples its pending-event depth this often.
const DEPTH_SAMPLE_EVERY: u64 = 1024;

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Deterministic work counters summed over the cluster. Exact
        /// functions of the seed on the simulator.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// The work done since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// Adds `other` in.
            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }

            /// `(name, value)` of every counter.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

counters!(
    // net.sim_net
    sent,
    delivered,
    dropped,
    timers_fired,
    timers_dropped,
    // core.client
    retries,
    timeouts,
    refused_busy,
    plan_cache_hits,
    plan_cache_misses,
    reads_cache_hit,
    reads_fetched,
    reroutes,
    // core.server
    prepares,
    votes_no,
    aborts,
    busy,
    reads,
    recoveries,
    repairs_completed,
    checkpoints,
    wal_batches,
    wal_batched_records,
    // storage.wal
    wal_flushes,
);

/// Sums the protocol counters of `nodes`; transport counters are the
/// caller's.
pub fn node_counters<'a>(nodes: impl Iterator<Item = &'a SystemNode>) -> Counters {
    let mut c = Counters::default();
    for node in nodes {
        if let Some(cl) = node.as_client() {
            let s = cl.stats;
            c.retries += s.retries;
            c.timeouts += s.timeouts;
            c.refused_busy += s.refused_busy;
            c.plan_cache_hits += s.plan_cache_hits;
            c.plan_cache_misses += s.plan_cache_misses;
            c.reads_cache_hit += s.reads_cache_hit;
            c.reads_fetched += s.reads_fetched;
            c.reroutes += s.reroutes;
        }
        if let Some(sv) = node.as_server() {
            let s = sv.stats;
            c.prepares += s.prepares;
            c.votes_no += s.votes_no;
            c.aborts += s.aborts;
            c.busy += s.busy;
            c.reads += s.reads;
            c.recoveries += s.recoveries;
            c.repairs_completed += s.repairs_completed;
            c.checkpoints += s.checkpoints;
            c.wal_batches += s.wal_batches;
            c.wal_batched_records += s.wal_batched_records;
            c.wal_flushes += sv.container().wal().flushes();
        }
    }
    c
}

fn with_net(mut c: Counters, s: wv_net::sim_net::NetStats) -> Counters {
    c.sent = s.sent;
    c.delivered = s.delivered;
    c.dropped = s.dropped_partition + s.dropped_link + s.dropped_down;
    c.timers_fired = s.timers_fired;
    c.timers_dropped = s.timers_dropped;
    c
}

/// What the phases need from a simulated cluster.
pub trait SimDriver {
    fn now(&self) -> SimTime;
    /// Schedules `op` to be submitted by its client at `at`.
    /// `value` is the op's payload (empty for reads; both branches of a
    /// transaction carry it).
    fn submit(&mut self, op: &Op, value: Vec<u8>, at: SimTime);
    /// Runs until no event is pending; returns the events executed.
    fn run_until_quiet(&mut self) -> u64;
    /// Runs everything due within `d` of now.
    fn advance(&mut self, d: SimDuration);
    /// Ops the client has finished and not yet handed over.
    fn completed_len(&self, client: SiteId) -> usize;
    fn drain_completed(&mut self, client: SiteId) -> Vec<CompletedOp>;
    fn counters(&self) -> Counters;
    fn apply_failure_schedule(&mut self, schedule: &FailureSchedule);
    fn stop_anti_entropy(&mut self);
    /// `(version, value)` held by the representative at `site`.
    fn replica(&self, site: SiteId, suite: ObjectId) -> (u64, Vec<u8>);
}

impl SimDriver for Harness {
    fn now(&self) -> SimTime {
        Harness::now(self)
    }

    fn submit(&mut self, op: &Op, value: Vec<u8>, at: SimTime) {
        let client = self.clients()[op.client as usize];
        let suite = self.suite_ids()[op.suite as usize];
        match op.kind {
            Kind::Read => self.enqueue_read(client, suite, at),
            Kind::Write => self.enqueue_write(client, suite, value, at),
            Kind::Txn => {
                let suite2 = self.suite_ids()[op.suite2 as usize];
                self.enqueue_transaction(client, vec![(suite, value.clone()), (suite2, value)], at);
            }
        }
    }

    fn run_until_quiet(&mut self) -> u64 {
        Harness::run_until_quiet(self, EVENT_CAP)
    }

    fn advance(&mut self, d: SimDuration) {
        Harness::advance(self, d);
    }

    fn completed_len(&self, client: SiteId) -> usize {
        self.cluster().nodes[client.index()]
            .as_client()
            .map_or(0, |c| c.completed.len())
    }

    fn drain_completed(&mut self, client: SiteId) -> Vec<CompletedOp> {
        Harness::drain_completed(self, client)
    }

    fn counters(&self) -> Counters {
        with_net(node_counters(self.cluster().nodes.iter()), self.net_stats())
    }

    fn apply_failure_schedule(&mut self, schedule: &FailureSchedule) {
        Harness::apply_failure_schedule(self, schedule);
    }

    fn stop_anti_entropy(&mut self) {
        Harness::stop_anti_entropy(self);
    }

    fn replica(&self, site: SiteId, suite: ObjectId) -> (u64, Vec<u8>) {
        (
            self.version_at(site, suite).map_or(0, |v| v.0),
            self.value_at(site, suite)
                .map_or_else(Vec::new, |b| b.to_vec()),
        )
    }
}

/// The traced cluster: the nodes of [`cluster::make_nodes`], each wrapped
/// in [`Timed`], on `Cluster::sim` with the events `HarnessBuilder::build`
/// schedules at time zero.
pub struct Rig {
    sim: Sim<Cluster<Timed>>,
    suites: Vec<ObjectId>,
    clients: Vec<SiteId>,
    /// Sum and count of pending-event depth samples.
    depth: (u64, u64),
}

impl Rig {
    pub fn new(spec: &Spec, seed: u64, epoch: Instant) -> Rig {
        let nodes = cluster::make_nodes(spec)
            .into_iter()
            .map(|n| Timed::new(n, epoch))
            .collect();
        let mut sim = Cluster::sim(nodes, cluster::net_config(spec), seed);
        let hosts_rep = |i: usize| i < spec.servers || spec.weak_clients;
        let rep_sites: Vec<SiteId> = (0..spec.servers + spec.clients)
            .filter(|&i| hosts_rep(i))
            .map(SiteId::from)
            .collect();
        for &site in &rep_sites {
            let fault_seed = derive_seed(seed, DISK_FAULT_SEED_SALT + u64::from(site.0));
            Cluster::invoke(sim.scheduler(), SimTime::ZERO, site, move |node, _ctx| {
                if let Some(s) = node.sys_mut().as_server_mut() {
                    s.set_disk_fault_seed(fault_seed);
                }
            });
        }
        if spec.churn.is_some() {
            for &site in &rep_sites {
                Cluster::invoke(sim.scheduler(), SimTime::ZERO, site, |node, ctx| {
                    if let Some(s) = node.sys_mut().as_server_mut() {
                        s.start_anti_entropy(ctx);
                    }
                });
            }
        }
        Rig {
            sim,
            suites: cluster::suite_ids(spec),
            clients: cluster::client_sites(spec),
            depth: (0, 0),
        }
    }

    fn sample_depth(&mut self) {
        self.depth.0 += self.sim.scheduler().pending() as u64;
        self.depth.1 += 1;
    }

    /// Mean number of pending scheduler events while the cluster ran:
    /// the depth the scheduler kernels are shaped to.
    pub fn mean_pending(&self) -> usize {
        (self.depth.0 / self.depth.1.max(1)) as usize
    }

    /// Every node's spans, in site order.
    pub fn take_spans(&mut self) -> Vec<RawSpan> {
        self.sim
            .world
            .nodes
            .iter_mut()
            .flat_map(|n| n.take_spans())
            .collect()
    }
}

impl SimDriver for Rig {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn submit(&mut self, op: &Op, value: Vec<u8>, at: SimTime) {
        let client = self.clients[op.client as usize];
        let suite = self.suites[op.suite as usize];
        let suite2 = self.suites[op.suite2 as usize];
        let kind = op.kind;
        Cluster::invoke(self.sim.scheduler(), at, client, move |node, ctx| {
            let start = Instant::now();
            let c = node.sys_mut().as_client_mut().expect("client site");
            match kind {
                Kind::Read => c.start_read(suite, ctx),
                Kind::Write => c.start_write(suite, value, ctx),
                Kind::Txn => c.start_transaction(
                    vec![(suite, value.clone().into()), (suite2, value.into())],
                    ctx,
                ),
            };
            node.note_invoke(start);
        });
    }

    fn run_until_quiet(&mut self) -> u64 {
        let mut n = 0;
        while self.sim.step() {
            n += 1;
            if n % DEPTH_SAMPLE_EVERY == 0 {
                self.sample_depth();
            }
        }
        n
    }

    fn advance(&mut self, d: SimDuration) {
        let deadline = self.sim.now() + d;
        self.sim.run_until(deadline);
        self.sample_depth();
    }

    fn completed_len(&self, client: SiteId) -> usize {
        self.sim.world.nodes[client.index()]
            .sys()
            .as_client()
            .map_or(0, |c| c.completed.len())
    }

    fn drain_completed(&mut self, client: SiteId) -> Vec<CompletedOp> {
        self.sim.world.nodes[client.index()]
            .sys_mut()
            .as_client_mut()
            .map(|c| c.take_completed())
            .unwrap_or_default()
    }

    fn counters(&self) -> Counters {
        with_net(
            node_counters(self.sim.world.nodes.iter().map(|n| n.sys())),
            self.sim.world.stats,
        )
    }

    fn apply_failure_schedule(&mut self, schedule: &FailureSchedule) {
        Cluster::apply_failure_schedule(self.sim.scheduler(), schedule);
    }

    fn stop_anti_entropy(&mut self) {
        for node in &mut self.sim.world.nodes {
            if let Some(s) = node.sys_mut().as_server_mut() {
                s.stop_anti_entropy();
            }
        }
    }

    fn replica(&self, site: SiteId, suite: ObjectId) -> (u64, Vec<u8>) {
        let s = self.sim.world.nodes[site.index()]
            .sys()
            .as_server()
            .expect("representative site");
        (s.data_version(suite).0, s.data_value(suite).to_vec())
    }
}

/// The crash/recovery timeline of a churn workload: a function of the
/// seed alone, shared by the untraced and the traced cluster.
pub fn failure_schedule(spec: &Spec, seed: u64) -> Option<FailureSchedule> {
    let churn = spec.churn?;
    let mut rng = wv_sim::DetRng::new(derive_seed(seed, CHURN_LABEL));
    Some(FailureSchedule::mttf_mttr(
        spec.servers,
        SimDuration::from_millis(churn.mttf_ms),
        SimDuration::from_millis(churn.mttr_ms),
        CHURN_HORIZON,
        &mut rng,
    ))
}
