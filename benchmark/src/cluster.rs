//! Cluster construction and the benchmark-side timing wrapper.
//!
//! The untraced simulator runs go through `wv_core::Harness`, the facade
//! the repository's own experiments drive. The traced runs and the thread
//! runs need nodes the benchmark can wrap or move onto OS threads, so
//! [`make_nodes`] rebuilds the same cluster from the same public
//! constructors (`SuiteServer::new`, `ClientNode::new`, `set_group_commit`,
//! ...). The traced pass proves the two constructions are one system: it
//! must reproduce the untraced counters batch for batch.

use std::time::Instant;

use wv_core::client::{ClientNode, ClientOptions, HealthOptions};
use wv_core::harness::{Harness, HarnessBuilder, SiteSpec};
use wv_core::msg::Msg;
use wv_core::node::SystemNode;
use wv_core::quorum::QuorumSpec;
use wv_core::server::SuiteServer;
use wv_core::suite::SuiteConfig;
use wv_core::votes::VoteAssignment;
use wv_net::{NetConfig, Node, NodeCtx, SiteId};
use wv_sim::{LatencyModel, SimDuration};
use wv_storage::ObjectId;
use wv_txn::lock::DeadlockPolicy;

use crate::spec::Spec;

/// Self-link latency of a workstation's co-located weak representative.
const LOCAL_WEAK_MS: u64 = 1;

/// Suite ids of a workload: 1..=n.
pub fn suite_ids(spec: &Spec) -> Vec<ObjectId> {
    (1..=spec.suites as u64).map(ObjectId).collect()
}

/// Site ids of the clients: they follow the servers.
pub fn client_sites(spec: &Spec) -> Vec<SiteId> {
    (spec.servers..spec.servers + spec.clients)
        .map(SiteId::from)
        .collect()
}

/// Link model of a workload: jittered so p50 differs from p99, or zero
/// injected delay (latency is then processor and scheduler time only).
fn link_model(spec: &Spec) -> LatencyModel {
    if spec.link_base_ms == 0 && spec.link_tail_ms == 0 {
        LatencyModel::Constant(SimDuration::ZERO)
    } else {
        LatencyModel::ShiftedExponential {
            base: SimDuration::from_millis(spec.link_base_ms),
            tail_mean: SimDuration::from_millis(spec.link_tail_ms),
        }
    }
}

/// The network of a workload.
pub fn net_config(spec: &Spec) -> NetConfig {
    let mut net = NetConfig::uniform(spec.servers + spec.clients, link_model(spec));
    if spec.weak_clients {
        for site in client_sites(spec) {
            net.set_link(site, site, LatencyModel::constant_millis(LOCAL_WEAK_MS));
        }
    }
    net
}

/// The client tunables of a workload. Retry budgets are sized so that no
/// fault-free op fails on the seed commit.
pub fn client_options(spec: &Spec) -> ClientOptions {
    ClientOptions {
        phase_timeout: SimDuration::from_millis(spec.phase_timeout_ms),
        backoff: SimDuration::from_millis(spec.backoff_ms),
        backoff_cap: SimDuration::from_millis(spec.backoff_cap_ms),
        max_attempts: spec.max_attempts,
        commit_resend_limit: spec.max_attempts,
        pipeline_depth: Some(spec.pipeline_depth),
        health: spec.churn.map(|_| HealthOptions::default()),
        ..ClientOptions::default()
    }
}

fn site_specs(spec: &Spec) -> Vec<SiteSpec> {
    let client = if spec.weak_clients {
        SiteSpec::client_with_weak()
    } else {
        SiteSpec::client()
    };
    let mut specs = vec![SiteSpec::server(1); spec.servers];
    specs.extend(vec![client; spec.clients]);
    specs
}

/// The workload's cluster behind the repository's own facade.
pub fn build_harness(spec: &Spec, seed: u64) -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::new(spec.quorum(), spec.quorum()))
        .suites(suite_ids(spec))
        .net(net_config(spec))
        .client_options(client_options(spec));
    for s in site_specs(spec) {
        b = b.site(s);
    }
    if let Some(ms) = spec.group_commit_ms {
        b = b.group_commit(SimDuration::from_millis(ms));
    }
    if let Some(churn) = spec.churn {
        b = b.anti_entropy(SimDuration::from_millis(churn.anti_entropy_ms));
    }
    b.build().expect("majority quorums are legal")
}

/// The same nodes `HarnessBuilder::build` makes, one per site, for the
/// transports the facade does not cover.
pub fn make_nodes(spec: &Spec) -> Vec<SystemNode> {
    let sites = spec.servers + spec.clients;
    let net = net_config(spec);
    let mut entries: Vec<(SiteId, u32)> = (0..spec.servers).map(|i| (SiteId::from(i), 1)).collect();
    if spec.weak_clients {
        entries.extend(client_sites(spec).into_iter().map(|s| (s, 0)));
    }
    let assignment = VoteAssignment::new(entries);
    let quorum = QuorumSpec::new(spec.quorum(), spec.quorum());
    let configs: Vec<SuiteConfig> = suite_ids(spec)
        .into_iter()
        .map(|suite| SuiteConfig::new(suite, assignment.clone(), quorum).expect("legal quorums"))
        .collect();
    let server = |site: SiteId| {
        let mut s = SuiteServer::new(site, configs.clone(), DeadlockPolicy::WaitDie);
        if let Some(churn) = spec.churn {
            s.set_anti_entropy(SimDuration::from_millis(churn.anti_entropy_ms));
        }
        if let Some(ms) = spec.group_commit_ms {
            s.set_group_commit(SimDuration::from_millis(ms));
        }
        s
    };
    let client = |site: SiteId| {
        let costs: Vec<f64> = (0..sites)
            .map(|j| net.mean_latency_ms(site, SiteId::from(j)))
            .collect();
        ClientNode::new(site, configs.clone(), costs, client_options(spec))
    };
    (0..sites)
        .map(|i| {
            let site = SiteId::from(i);
            if i < spec.servers {
                SystemNode::Server(server(site))
            } else if spec.weak_clients {
                SystemNode::Both {
                    server: server(site),
                    client: client(site),
                }
            } else {
                SystemNode::Client(client(site))
            }
        })
        .collect()
}

/// What a timed call was: a `Msg` variant delivered, or one of the other
/// ways into a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    VersionReq,
    VersionResp,
    ReadReq,
    ReadResp,
    Busy,
    Refused,
    Prepare,
    PrepareVote,
    Commit,
    Abort,
    Ack,
    ConfigReq,
    ConfigResp,
    StaleConfig,
    UpdateWeak,
    DecisionReq,
    RepairPull,
    RepairState,
    Timer,
    Invoke,
    Recover,
}

impl Call {
    /// The `Msg` variant's name, or `timer` / `invoke` / `recover`.
    pub fn name(self) -> &'static str {
        match self {
            Call::VersionReq => "VersionReq",
            Call::VersionResp => "VersionResp",
            Call::ReadReq => "ReadReq",
            Call::ReadResp => "ReadResp",
            Call::Busy => "Busy",
            Call::Refused => "Refused",
            Call::Prepare => "Prepare",
            Call::PrepareVote => "PrepareVote",
            Call::Commit => "Commit",
            Call::Abort => "Abort",
            Call::Ack => "Ack",
            Call::ConfigReq => "ConfigReq",
            Call::ConfigResp => "ConfigResp",
            Call::StaleConfig => "StaleConfig",
            Call::UpdateWeak => "UpdateWeak",
            Call::DecisionReq => "DecisionReq",
            Call::RepairPull => "RepairPull",
            Call::RepairState => "RepairState",
            Call::Timer => "timer",
            Call::Invoke => "invoke",
            Call::Recover => "recover",
        }
    }
}

/// One call into a node, as the benchmark saw it from outside. Kept to
/// 24 bytes: the span buffers are written inside the timed region, and
/// every cache line they claim is one the system loses.
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    /// The message's request id (0 for timers and recoveries).
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u32,
    pub call: Call,
    /// Which half of the node ran: the server's or the client's.
    pub server: bool,
}

impl RawSpan {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + u64::from(self.dur_ns)
    }

    /// `core.client` or `core.server`.
    pub fn layer(&self) -> &'static str {
        if self.server {
            "core.server"
        } else {
            "core.client"
        }
    }
}

/// A node the benchmark can drive and inspect: the plain `SystemNode`, or
/// one wrapped in [`Timed`].
pub trait Host: Node<Msg = Msg> + Send + 'static {
    fn sys(&self) -> &SystemNode;
    fn sys_mut(&mut self) -> &mut SystemNode;
    /// Records a call the benchmark itself made into the client half,
    /// started at `start` and just finished.
    fn note_invoke(&mut self, start: Instant);
    fn take_spans(&mut self) -> Vec<RawSpan>;
}

impl Host for SystemNode {
    fn sys(&self) -> &SystemNode {
        self
    }
    fn sys_mut(&mut self) -> &mut SystemNode {
        self
    }
    fn note_invoke(&mut self, _start: Instant) {}
    fn take_spans(&mut self) -> Vec<RawSpan> {
        Vec::new()
    }
}

/// A `SystemNode` that records one in-memory span per handler call.
/// Spans stay in the node until the run ends; nothing is shared between
/// nodes, so the wrapper costs two clock reads and a push per call.
pub struct Timed {
    inner: SystemNode,
    epoch: Instant,
    spans: Vec<RawSpan>,
}

impl Timed {
    pub fn new(inner: SystemNode, epoch: Instant) -> Timed {
        Timed {
            inner,
            epoch,
            spans: Vec::new(),
        }
    }

    fn push(&mut self, req: u64, server: bool, call: Call, start: Instant) {
        let end = Instant::now();
        self.spans.push(RawSpan {
            req,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end
                .duration_since(start)
                .as_nanos()
                .min(u128::from(u32::MAX)) as u32,
            call,
            server,
        });
    }

    fn server_handles(&self, server_bound: bool) -> bool {
        match self.inner {
            SystemNode::Server(_) => true,
            SystemNode::Client(_) => false,
            SystemNode::Both { .. } => server_bound,
        }
    }
}

/// The variant and request id of a message.
fn describe(msg: &Msg) -> (Call, u64) {
    match msg {
        Msg::VersionReq { req, .. } => (Call::VersionReq, req.0),
        Msg::VersionResp { req, .. } => (Call::VersionResp, req.0),
        Msg::ReadReq { req, .. } => (Call::ReadReq, req.0),
        Msg::ReadResp { req, .. } => (Call::ReadResp, req.0),
        Msg::Busy { req, .. } => (Call::Busy, req.0),
        Msg::Refused { req, .. } => (Call::Refused, req.0),
        Msg::Prepare { req, .. } => (Call::Prepare, req.0),
        Msg::PrepareVote { req, .. } => (Call::PrepareVote, req.0),
        Msg::Commit { req, .. } => (Call::Commit, req.0),
        Msg::Abort { req, .. } => (Call::Abort, req.0),
        Msg::Ack { req, .. } => (Call::Ack, req.0),
        Msg::ConfigReq { req, .. } => (Call::ConfigReq, req.0),
        Msg::ConfigResp { req, .. } => (Call::ConfigResp, req.0),
        Msg::StaleConfig { req, .. } => (Call::StaleConfig, req.0),
        Msg::UpdateWeak { .. } => (Call::UpdateWeak, 0),
        Msg::DecisionReq { req, .. } => (Call::DecisionReq, req.0),
        Msg::RepairPull { .. } => (Call::RepairPull, 0),
        Msg::RepairState { .. } => (Call::RepairState, 0),
    }
}

impl Node for Timed {
    type Msg = Msg;

    fn on_message(&mut self, from: SiteId, msg: Msg, ctx: &mut NodeCtx<'_, Msg>) {
        let (call, req) = describe(&msg);
        let server = self.server_handles(msg.is_server_bound());
        let start = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.push(req, server, call, start);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, Msg>) {
        let server = self.server_handles(token & wv_core::client::CLIENT_TIMER_TAG == 0);
        let start = Instant::now();
        self.inner.on_timer(token, ctx);
        self.push(0, server, Call::Timer, start);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        let start = Instant::now();
        self.inner.on_recover(ctx);
        self.push(0, true, Call::Recover, start);
    }
}

impl Host for Timed {
    fn sys(&self) -> &SystemNode {
        &self.inner
    }
    fn sys_mut(&mut self) -> &mut SystemNode {
        &mut self.inner
    }
    fn note_invoke(&mut self, start: Instant) {
        self.push(0, false, Call::Invoke, start);
    }
    fn take_spans(&mut self) -> Vec<RawSpan> {
        // Copy out and keep the buffer: a fresh buffer would fault its
        // pages in again inside the next timed region.
        self.spans.drain(..).collect()
    }
}
