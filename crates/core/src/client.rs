//! Client-side suite operations.
//!
//! A [`ClientNode`] coordinates reads, writes, and reconfigurations:
//!
//! * **Read**: version inquiries to every representative until `r` votes
//!   answer; the highest version among the answers is current. The
//!   contents are asked for in the same round — the inquiry to a
//!   zero-vote copy ranked first asking for whatever it holds, the
//!   best-ranked voting representative's naming the version from which
//!   it wants them — and complete the read once the quorum proves them
//!   current; failing that they are fetched from the cheapest
//!   representative (weak ones included) holding the current version.
//! * **Write / transaction**: client-coordinated two-phase commit at each
//!   written suite's cheapest write quorum — one quorum access. Each
//!   participant assigns the version under its commit lock
//!   (`max(floor, committed + 1)`) and reports it with its vote; the
//!   coordinator commits at the highest. Where write quorums intersect
//!   (`one_access`) that is the whole write: the first attempt goes
//!   straight to prepare with the lowest floor, and widens to the next
//!   sites in rank order if a participant stays silent. A retry, a write
//!   that would prepare at a site remembered silent, and a geometry whose
//!   write quorums need not intersect first run the inquiry above, per written
//!   suite, for a floor `current + 1` and a quorum of sites that just
//!   answered. A prepare that finds the lock taken stands in line at the
//!   representative ([`Msg::Busy`] says so) and the coordinator keeps its
//!   place, re-asking now and then. A plain write is the one-install
//!   transaction. The commit decision — versions included — is logged
//!   durably before any commit message leaves, so recovering participants
//!   always get a correct answer to their decision probes (presumed abort
//!   otherwise). That record is the commit point: the operation is
//!   reported there and the commit round finishes behind it as a commit
//!   tail (`one_access` again; the exceptions wait for the acks).
//!   The writes a client launches on a suite while such a first attempt
//!   of its own is in flight leave together when it ends, as one train:
//!   one prepare, one lock hold, consecutive versions (`trains`).
//! * **Reconfigure**: a transaction that installs the new configuration
//!   under the *old* configuration's write quorum and also re-installs the
//!   current contents at the new one's — exactly the paper's rule for
//!   changing vote assignments online (`crate::reconfig`).
//!
//! All three run the same state machine, `[Inquire →] Fetch | Prepare`:
//! `enter_prepare` or `Reconfig::plan` turns the inquiry's answers — or,
//! for a direct write, the ranking alone — into per-site prepare batches
//! plus the outcome to report, and one driver (`send_prepares`) carries
//! them through two-phase commit. The state machine sends every message
//! itself, and asks and tells three modules what they keep: `Planner`
//! (`crate::planner`), what is known about sites and every choice among
//! them; `LocalCopies` (`crate::local`), the copies on the client's own
//! site; `CommitTails` (`crate::commit`), the decision log and the commit
//! rounds that finish behind a report.
//!
//! Every attempt uses a fresh request id (so late responses from a dead
//! attempt can never contaminate a live one) while keeping the operation's
//! original age in the commit-lock lines (so retries gain seniority
//! instead of starving).

use bytes::Bytes;
use wv_net::{NodeCtx, SiteId};
use wv_sim::audit::{AuditRecord, DecisionKind};
use wv_sim::trace::{Recorder, SpanKind, SpanOutcome, SpanRecord};
use wv_sim::{SimDuration, SimTime};
use wv_storage::{Container, IdHashMap, ObjectId, Version};
use wv_txn::Vote;

use crate::commit::{add_to_batches, Batches, CommitTails};
use crate::error::{OpError, OpKind};
use crate::local::LocalCopies;
pub use crate::local::WeakRepOptions;
use crate::msg::{Msg, PrepareWrite, RefuseReason, ReqId, Shared};
use crate::planner::{Planner, Ranked, LATE_MULTIPLIER};
use crate::quorum::QuorumSpec;
use crate::reconfig::{NoPlan, Reconfig};
use crate::site_map::{Few, SiteMap, Sites};
use crate::suite::{data_object, SuiteConfig};
use crate::votes::VoteAssignment;
use crate::window::{Submission, Window};

/// Tunables for client behaviour.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// How long each protocol phase may take before the attempt fails.
    /// With health tracking on this is the *ceiling*; the effective
    /// timeout adapts to observed RTTs (see [`HealthOptions`]).
    pub phase_timeout: SimDuration,
    /// Base delay before retrying a failed attempt: the first retry's
    /// step, doubled per further attempt up to [`Self::backoff_cap`],
    /// plus deterministic seeded jitter.
    pub backoff: SimDuration,
    /// Ceiling for the exponential backoff (before jitter).
    pub backoff_cap: SimDuration,
    /// Attempts per operation before reporting failure.
    pub max_attempts: u32,
    /// Commit resend rounds before a commit tail stops resending and
    /// leaves the participants it could not reach to their decision
    /// probes. The outcome is decided either way.
    pub commit_resend_limit: u32,
    /// After a successful write, push the new value to every weak
    /// representative of the suite (the paper's background-update option).
    pub push_weak_on_write: bool,
    /// Ask for the contents *in the same round* as the version inquiry,
    /// completing as soon as the quorum proves them current — the paper's
    /// validated-cache read: the inquiry to a zero-vote copy ranked first
    /// (the workstation's own) asking for whatever it holds, and the
    /// inquiry to the best-ranked voting representative asking for the
    /// contents too if its copy is newer than the reader's. When off, the
    /// fetch starts only after the inquiry quorum settles.
    pub optimistic_fetch: bool,
    /// How quorum members and fetch targets are chosen.
    pub quorum_policy: QuorumPolicy,
    /// Self-healing layer (per-site health tracking, adaptive timeouts,
    /// suspicion-aware routing). `None` — the default —
    /// disables all of it, leaving the classic fixed-timeout behaviour
    /// byte-for-byte untouched.
    pub health: Option<HealthOptions>,
    /// Outstanding-operation window. `Some(k)` lets at most `k` operations
    /// progress over the net at once; further submissions queue (FIFO,
    /// request ids allocated at submission) and launch as slots free up.
    /// `None` — the default — never queues, leaving the classic
    /// caller-paced behaviour byte-for-byte untouched.
    pub pipeline_depth: Option<usize>,
    /// Attached weak representative: a client-side cache tier holding one
    /// committed `(version, contents)` per suite (zero votes, zero quorum
    /// weight — the paper's weak representative, attached to the client
    /// itself). See [`WeakRepOptions`] for the validated and lease modes.
    /// `None` — the default — disables the tier and leaves the classic
    /// read path byte-for-byte untouched.
    pub weak_rep: Option<WeakRepOptions>,
}

/// Switches on the client's self-healing layer.
///
/// The health tracker keeps, per site, an EWMA of observed round-trip
/// times and an accrual-style suspicion score: every response resets the
/// score, every unanswered phase bumps it, and crossing the threshold
/// marks the site *suspected*. Suspected sites are demoted to the back of
/// every cost-ranked order (fetch candidates, who is asked for the
/// contents alongside an inquiry, write quorums) until they answer again.
///
/// The layer has one tuning in use, fixed by the constants of
/// `crate::planner`, so this type has no fields. It stays a type, and
/// [`ClientOptions::health`] an `Option` of it, because the benchmark
/// package builds `HealthOptions::default()` and may not be edited.
#[derive(Clone, Debug, Default)]
pub struct HealthOptions {}

/// Selection policy for quorum members and fetch targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumPolicy {
    /// Prefer the cheapest sites (the paper's choice).
    CheapestFirst,
    /// Choose uniformly at random — the ablation baseline showing what the
    /// cost-aware choice buys.
    Random,
    /// Cheapest-first with deterministic round-robin rotation among
    /// cost-equivalent sites, so read traffic spreads across equally cheap
    /// representatives instead of hammering the one with the lowest id.
    /// The rotated order stays sorted by cost, so every quorum it yields
    /// is still minimal-cost; only tie-breaks move. Rotation is seeded via
    /// [`wv_sim::derive_seed`] and advances once per attempt — no RNG
    /// draws, so runs stay bit-identical at any worker count.
    LoadBalanced,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            phase_timeout: SimDuration::from_secs(5),
            backoff: SimDuration::from_millis(40),
            backoff_cap: SimDuration::from_secs(2),
            max_attempts: 6,
            commit_resend_limit: 5,
            push_weak_on_write: false,
            optimistic_fetch: true,
            quorum_policy: QuorumPolicy::CheapestFirst,
            health: None,
            pipeline_depth: None,
            weak_rep: None,
        }
    }
}

/// Client-side counters for the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Reads that needed no separate fetch round: the contents that
    /// completed them were asked for alongside the version inquiry.
    pub reads_cache_hit: u64,
    /// Reads that needed a separate fetch round (cache misses).
    pub reads_fetched: u64,
    /// Of `reads_cache_hit`, the reads whose contents came with a voting
    /// representative's version answer ([`Msg::VersionResp::value`]): the
    /// copy the reader already held was not current, or it held none.
    pub reads_contents_with_inquiry: u64,
    /// Attempts that failed and were retried.
    pub retries: u64,
    /// Phase timeouts that fired against a live operation or its commit
    /// tail (each marks a protocol round that did not complete in time,
    /// whatever happened next — retry, candidate switch, commit resend,
    /// or failure).
    pub timeouts: u64,
    /// Operations abandoned because the attempt budget ran out.
    pub attempts_exhausted: u64,
    /// Quorum-plan cache lookups answered from the cache.
    pub plan_cache_hits: u64,
    /// Quorum-plan cache lookups that had to (re)build the plan.
    pub plan_cache_misses: u64,
    /// Sites whose suspicion score crossed the threshold (per crossing,
    /// not per site — a site can be suspected, cleared, and re-suspected).
    pub suspicions_raised: u64,
    /// Decisions where suspected sites were demoted out of the order the
    /// cost ranking alone would have used.
    pub reroutes: u64,
    /// Reads served from the attached weak representative: the local copy
    /// was quorum-confirmed current (validated mode) or inside a live
    /// lease (lease mode). Zero data RPCs each.
    pub cache_hits: u64,
    /// Cache-tier reads that had to fetch contents over the network (cold
    /// or stale entry, or an expired lease).
    pub cache_misses: u64,
    /// Lease-mode serves refused because the lease had lapsed by the time
    /// the read started (the read then re-validated over the network).
    pub lease_expiries: u64,
    /// `Busy` notices received: a prepare of ours joined a commit-lock
    /// line, or was asked to give way to an older one.
    pub refused_busy: u64,
    /// Writes decided: each is one prepare, one commit-lock hold and one
    /// decision record, whatever it carried.
    pub trains: u64,
    /// Writes that rode another's prepare — a write train — and were
    /// reported with it, at the versions below its own.
    pub writes_ridden: u64,
    /// `retries` by what ended the attempt, indexed by [`RetryCause`].
    pub retry_causes: [u64; RetryCause::ALL.len()],
}

/// What ended an attempt short of completing its operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryCause {
    /// The prepare held a commit lock an older prepare waits for while
    /// itself standing in another site's line, and gave way.
    GaveWay,
    /// A participant voted no.
    VoteNo,
    /// A site refused to serve: the prepare, or every fetch candidate.
    Refused,
    /// The configuration had moved on; restarted on the fresh one.
    StaleConfig,
    /// The inquiry (or a configuration refresh) timed out.
    TimeoutInquire,
    /// Every fetch candidate timed out.
    TimeoutFetch,
    /// A participant stayed silent through the prepare.
    TimeoutPrepare,
}

impl RetryCause {
    /// Every cause, in [`ClientStats::retry_causes`] order.
    pub const ALL: [RetryCause; 7] = [
        RetryCause::GaveWay,
        RetryCause::VoteNo,
        RetryCause::Refused,
        RetryCause::StaleConfig,
        RetryCause::TimeoutInquire,
        RetryCause::TimeoutFetch,
        RetryCause::TimeoutPrepare,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            RetryCause::GaveWay => "gave_way",
            RetryCause::VoteNo => "vote_no",
            RetryCause::Refused => "refused",
            RetryCause::StaleConfig => "stale_config",
            RetryCause::TimeoutInquire => "timeout_inquire",
            RetryCause::TimeoutFetch => "timeout_fetch",
            RetryCause::TimeoutPrepare => "timeout_prepare",
        }
    }

    /// The cause a trace records for an attempt whose last phase span,
    /// of kind `phase`, closed with `outcome`: the inverse of what
    /// [`ClientNode`] stamps on it. `None` for spans that are not the
    /// early end of an attempt.
    pub fn of_span(phase: SpanKind, outcome: SpanOutcome) -> Option<RetryCause> {
        let timed_out = match phase {
            SpanKind::Inquiry => RetryCause::TimeoutInquire,
            SpanKind::Fetch => RetryCause::TimeoutFetch,
            SpanKind::Prepare => RetryCause::TimeoutPrepare,
            _ => return None,
        };
        if outcome == SpanOutcome::Timeout {
            return Some(timed_out);
        }
        RetryCause::ALL.into_iter().find(|c| c.outcome() == outcome)
    }

    /// The outcome the attempt's last phase span closes with; together
    /// with the span's kind it names the cause in a trace.
    fn outcome(self) -> SpanOutcome {
        match self {
            RetryCause::GaveWay => SpanOutcome::GaveWay,
            RetryCause::VoteNo => SpanOutcome::Conflict,
            RetryCause::Refused => SpanOutcome::Refused,
            RetryCause::StaleConfig => SpanOutcome::Stale,
            RetryCause::TimeoutInquire | RetryCause::TimeoutFetch | RetryCause::TimeoutPrepare => {
                SpanOutcome::Timeout
            }
        }
    }
}

/// What a finished operation produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSuccess {
    /// The version read or installed (the first suite's, for
    /// transactions).
    pub version: Version,
    /// The contents, for reads.
    pub value: Option<Bytes>,
    /// Per-suite versions installed by a multi-suite transaction
    /// (empty for single-suite operations).
    pub multi: Vec<(ObjectId, Version)>,
}

/// What a read reports: `value`, at `version`.
fn read_success(version: Version, value: Bytes) -> OpSuccess {
    OpSuccess {
        version,
        value: Some(value),
        multi: Vec::new(),
    }
}

/// The record of one finished operation.
#[derive(Clone, Debug)]
pub struct CompletedOp {
    /// The request id of the final attempt.
    pub req: ReqId,
    /// Operation type.
    pub kind: OpKind,
    /// The suite operated on.
    pub suite: ObjectId,
    /// Success or failure.
    pub outcome: Result<OpSuccess, OpError>,
    /// When the operation started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// How many attempts it took.
    pub attempts: u32,
}

impl CompletedOp {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.finished.since(self.started)
    }
}

#[derive(Clone, Debug)]
enum Phase {
    /// Collecting a version quorum for every suite of [`OpState::suites`].
    Inquire {
        /// The generation of the op's suite the inquiry went out under. A
        /// read's or a reconfiguration's answers may be counted under that
        /// one only; a writer's are floors, its prepare carries the
        /// generation and the representative re-checks it at the grant.
        generation: u64,
        answers: Few<(ObjectId, SiteId, Version)>,
        /// The zero-vote copy asked for its contents, if one ranks first:
        /// by its inquiry, or by a content read if the inquiry skips it.
        guess: Option<SiteId>,
        /// The voting representative whose inquiry asked for the contents
        /// too ([`Msg::VersionReq::contents_from`]), if one was asked.
        contents: Option<SiteId>,
        /// The newest contents to hand before the quorum: the attached
        /// cache entry, `guess`'s answer, or what came with `contents`'s.
        /// Believed only once the quorum's highest version is no higher.
        early: Option<(SiteId, Version, Bytes)>,
    },
    Fetch {
        current: Version,
        candidates: Sites,
        idx: usize,
    },
    /// Prepares out to `participants`, in the order they were sent.
    Prepare {
        participants: Sites,
        /// What each yes vote staged.
        yes: SiteMap<Shared<(ObjectId, Version)>>,
        /// Sites where the prepare stands in a commit-lock line, and
        /// whether each has said so since it was last (re-)asked.
        in_line: SiteMap<bool>,
        /// A participant holding this prepare staged has an older one
        /// waiting behind it.
        give_way: bool,
        /// Re-asks sent; each doubles the interval to the next.
        asks: u32,
        /// A direct attempt's write quorum per written suite (in
        /// [`OpState::writes`] order): no inquiry vouched for these sites,
        /// so the first yes arms [`TimerKind::Widen`]. Empty after an
        /// inquiry, and once that timer has fired or a line made it moot.
        unprobed: Few<Sites, 2>,
    },
    /// Decided, and one of the operations that report at the last ack:
    /// parked until its commit tail ([`CommitTails`]) ends. Nothing a
    /// server says moves it.
    Decided,
    RefreshConfig,
    /// Parked behind a direct attempt ([`ClientNode::trains`]), riding a
    /// carrier ([`OpState::riders`]) or between attempts: no message, no timer.
    Riding,
}

#[derive(Clone, Debug)]
struct OpState {
    kind: OpKind,
    /// The first written suite for transactions.
    suite: ObjectId,
    /// The `(suite, value)` installs of a write (one entry) or transaction;
    /// empty for reads and reconfigurations.
    writes: Vec<(ObjectId, Bytes)>,
    /// What only a reconfiguration carries; boxed, so that every read and
    /// write is not sized for it.
    reconfig: Option<Box<Reconfig>>,
    /// The train this write carries: the writes parked with it when it
    /// left, oldest first. Its prepare takes a version for each and
    /// installs its own value, the youngest. They stay with the
    /// *operation* — a retry re-keys them along — and are reported with it.
    riders: Vec<ReqId>,
    /// What the prepare in flight reports, and the configuration it
    /// installs (reconfigurations only), once every participant acks the
    /// commit. Set by [`ClientNode::send_prepares`].
    on_commit: Option<Outcome>,
    started: SimTime,
    /// When the current attempt's inquiry went out; responses arriving
    /// during the inquiry phase are RTT samples relative to this.
    attempt_started: SimTime,
    attempts: u32,
    /// Age in the commit-lock lines: the counter of the operation's
    /// *first* request id.
    lock_ts: u64,
    phase: Phase,
}

/// What a committed operation reports, and the configuration it adopts.
pub(crate) type Outcome = (OpSuccess, Option<Box<SuiteConfig>>);

impl OpState {
    /// The versions the install consumes: its own and one per rider.
    fn span(&self) -> u32 {
        1 + self.riders.len() as u32
    }

    /// The suites the operation inquires of and, unless it is a read,
    /// installs at: every written suite — or, for reads and
    /// reconfigurations (which carry no writes), the op's suite.
    fn suites(&self) -> impl Iterator<Item = ObjectId> + '_ {
        suites_of(&self.writes, self.suite)
    }

    /// Ends the current phase and leaves none: cancels its timers under `req`
    /// (a widen once a yes is in and `unprobed` holds quorums; not a retry's).
    fn end_phase(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        use TimerKind::{PhaseTimeout, Widen};
        let kinds: &[TimerKind] = match &self.phase {
            Phase::Prepare { yes, unprobed, .. } if !yes.is_empty() && !unprobed.is_empty() => {
                &[PhaseTimeout, Widen]
            }
            Phase::Decided | Phase::Riding => &[],
            _ => &[PhaseTimeout],
        };
        for &kind in kinds {
            ctx.cancel_timer(timer_token(req, kind));
        }
        self.phase = Phase::Riding;
    }
}

/// [`OpState::suites`] over its two fields, for where the rest of the
/// operation is mutably borrowed.
fn suites_of(writes: &[(ObjectId, Bytes)], own: ObjectId) -> impl Iterator<Item = ObjectId> + '_ {
    let own = writes.is_empty().then_some(own);
    writes.iter().map(|(s, _)| *s).chain(own)
}

/// The `(suite, site)` pairs one attempt of `st` inquires of, in send
/// order: the [`Planner::inquiry_set`] of every suite it touches.
fn inquiry_targets<'a>(
    planner: &'a Planner,
    configs: &'a IdHashMap<ObjectId, SuiteConfig>,
    st: &'a OpState,
) -> impl Iterator<Item = (ObjectId, SiteId)> + 'a {
    st.suites().flat_map(move |suite| {
        let set = planner.inquiry_set(st.kind, &configs[&suite]);
        set.map(move |site| (suite, site))
    })
}

/// Sends `site` a content read: a fetch leg, or a guessed zero-vote copy
/// that the inquiry does not ask.
fn content_read(ctx: &mut NodeCtx<'_, Msg>, site: SiteId, suite: ObjectId, req: ReqId) {
    ctx.send(site, Msg::ReadReq { suite, req });
}

/// An inquiry's answers: one per `(suite, site)`, as they arrived.
type Answers = [(ObjectId, SiteId, Version)];

/// What `site` answered an inquiry about `suite`, if it has.
fn answer_of(answers: &Answers, suite: ObjectId, site: SiteId) -> Option<Version> {
    let of = answers.iter().find(|(o, s, _)| (*o, *s) == (suite, site));
    of.map(|(_, _, version)| *version)
}

/// The sites that answered an inquiry about `suite`.
fn answered(answers: &Answers, suite: ObjectId) -> impl Iterator<Item = &SiteId> + Clone {
    let about = answers.iter().filter(move |(o, _, _)| *o == suite);
    about.map(|(_, site, _)| site)
}

/// Whether an operation of `kind` installing at a suite configured `cfg`
/// is one quorum access: a blind install where any two write quorums share
/// a representative (`2w > N`). Two things follow from it, and from
/// nothing else.
///
/// *It needs no inquiry.* The shared representative has applied the
/// previous write or still holds its commit lock, in which case the new
/// prepare stands in line behind it; either way it stages above that
/// write, and the coordinator commits at the highest version any
/// participant staged. So the first attempt goes straight to prepare
/// ([`ClientNode::may_go_direct`] and [`ClientNode::enter_prepare`] add the
/// two conditions that are not about the geometry).
///
/// *It is reported at its commit decision*, not at the last ack. Every
/// participant holds its commit lock from its yes vote until it applies
/// the decision, holds readers behind it, and takes it again before
/// serving if it recovers in doubt; so with `r + w > N` a read that starts
/// after the decision cannot assemble a quorum that misses the write, and
/// a *writer* that starts after the report is versioned above the
/// unapplied write by the argument above.
///
/// Where write quorums need not intersect, the only evidence the next
/// writer has of this write is what a read quorum answers: it inquires
/// first, and the report waits for the acks. So does a reconfiguration:
/// its versions are exact (a read-modify-write), and the client adopts the
/// new geometry at the last ack.
fn one_access(kind: OpKind, cfg: &SuiteConfig) -> bool {
    matches!(kind, OpKind::Write | OpKind::Transaction)
        && cfg.quorum.writes_intersect(&cfg.assignment)
}

/// What a planner hands the two-phase-commit driver
/// ([`ClientNode::send_prepares`]).
pub(crate) struct PreparePlan {
    /// Each participant's prepare batch, in send order.
    pub(crate) batches: Batches,
    /// The versions are floors for the participants to assign above, not
    /// exact.
    pub(crate) rebase: bool,
    /// See [`Phase::Prepare`].
    pub(crate) unprobed: Few<Sites, 2>,
    /// What the op reports (at the planned versions; the decision corrects
    /// them), and the configuration it adopts, once it is committed.
    pub(crate) on_commit: Outcome,
}

/// A re-ask: an empty prepare, which a site answers from where `req`
/// stands with it — its vote, `Busy` again, or No if it no longer knows it.
fn reask(req: ReqId, lock_ts: u64) -> Msg {
    Msg::Prepare {
        req,
        writes: Shared::default(),
        lock_ts,
        rebase: false, // nothing to re-base
    }
}

/// The audit log's name for a write quorum chosen by an operation of `kind`.
fn quorum_decision(kind: OpKind) -> DecisionKind {
    match kind {
        OpKind::Transaction => DecisionKind::TxnQuorum,
        _ => DecisionKind::WriteQuorum,
    }
}

/// The root span of an operation of `kind`.
fn root_kind(kind: OpKind) -> SpanKind {
    match kind {
        OpKind::Read => SpanKind::Read,
        OpKind::Write => SpanKind::Write,
        OpKind::Reconfigure => SpanKind::Reconfigure,
        OpKind::Transaction => SpanKind::Transaction,
    }
}

/// Maps an operation error to the span outcome recorded for it.
fn op_err_outcome(err: &OpError) -> SpanOutcome {
    match err {
        OpError::Conflict => SpanOutcome::Conflict,
        OpError::Unavailable { .. } => SpanOutcome::Timeout,
        _ => SpanOutcome::Err,
    }
}

/// What a timer is for. Its token names it: the request id and the kind
/// ([`timer_token`]), so a phase that ends cancels its own
/// ([`OpState::end_phase`]).
#[derive(Clone, Copy, Debug)]
enum TimerKind {
    PhaseTimeout,
    Retry,
    /// A direct prepare's first yes is one round trip old and some
    /// participant has still said nothing. Firing is not a timeout.
    Widen,
    /// A commit tail's round went unacknowledged (a tail has one timer
    /// out at a time, and request ids never repeat).
    CommitResend,
}

impl TimerKind {
    const ALL: [TimerKind; 4] = [
        TimerKind::PhaseTimeout,
        TimerKind::Retry,
        TimerKind::Widen,
        TimerKind::CommitResend,
    ];
}

/// Tag bit distinguishing client timer tokens from server ones, so a
/// composite node can route timer callbacks unambiguously.
pub const CLIENT_TIMER_TAG: u64 = 1 << 63;

/// The token of `req`'s `kind` timer: below the tag, the request counter
/// (48 bits) and the kind (3 bits).
fn timer_token(req: ReqId, kind: TimerKind) -> u64 {
    CLIENT_TIMER_TAG | req.counter() << 3 | kind as u64
}

/// A client node: starts operations, reacts to responses, records results.
pub struct ClientNode {
    site: SiteId,
    configs: IdHashMap<ObjectId, SuiteConfig>,
    /// What is known about sites, and every choice among them.
    planner: Planner,
    options: ClientOptions,
    next_counter: u64,
    ops: IdHashMap<ReqId, OpState>,
    /// The decision log, and the commit rounds still collecting acks.
    commits: CommitTails,
    /// The pipeline window's slots, and the submissions waiting for one.
    window: Window,
    /// What is known about the copies on this site: the attached weak
    /// representative's entries, and what the zero-vote copy beside the
    /// client is thought to hold.
    local: LocalCopies,
    /// Per suite, the marker — the request id of a write's direct first
    /// attempt in flight — and the writes parked behind it, oldest first.
    /// They leave as one train when that *attempt* ends, decided or failed
    /// ([`Self::depart`]): a write waiting to retry holds nobody up.
    trains: IdHashMap<ObjectId, (ReqId, Vec<ReqId>)>,
    /// Finished operations, in completion order. Harnesses drain this.
    pub completed: Vec<CompletedOp>,
    /// Counters.
    pub stats: ClientStats,
    /// Spans and quorum decisions, off by default (see [`Recorder`]).
    recorder: Recorder,
}

impl ClientNode {
    /// Creates a client at `site` knowing `configs`, with per-site costs.
    pub fn new(
        site: SiteId,
        configs: Vec<SuiteConfig>,
        costs: Vec<f64>,
        options: ClientOptions,
    ) -> Self {
        ClientNode {
            site,
            configs: configs.into_iter().map(|c| (c.suite, c)).collect(),
            planner: Planner::new(site, costs, &options),
            local: LocalCopies::new(&options),
            commits: CommitTails::new(&options),
            window: Window::new(&options),
            options,
            next_counter: 1,
            ops: IdHashMap::default(),
            trains: IdHashMap::default(),
            completed: Vec::new(),
            stats: ClientStats::default(),
            recorder: Recorder::new(site.0),
        }
    }

    /// Turns on recording of spans and quorum decisions. Idempotent; both
    /// accumulate until drained with [`Self::take_recorded`].
    pub fn enable_tracing(&mut self) {
        self.recorder.enable();
    }

    /// Drains the recorded spans and decisions (empty when recording is
    /// off). Whatever is still in flight — a commit tail, usually — goes
    /// on untraced.
    pub fn take_recorded(&mut self) -> (Vec<SpanRecord>, Vec<AuditRecord>) {
        self.recorder.take()
    }

    /// The durable commit-decision log, read-only (tests and benches).
    pub fn decision_log(&self) -> &Container {
        self.commits.log()
    }

    /// Ranks `suite`'s sites for one decision ([`Planner::rank`]).
    fn rank(&mut self, suite: ObjectId, ctx: &mut NodeCtx<'_, Msg>) -> Ranked {
        let cfg = &self.configs[&suite];
        self.planner.rank(cfg, ctx.rng(), &mut self.stats)
    }

    /// Records one decision, with the planner's inputs to it. Reads only
    /// planner state that is already computed — never the RNG, never the
    /// effect queue — so recording cannot perturb the protocol. A
    /// follow-up choice (a fetch failover) has no ranking of its own.
    fn audit_decision(
        &mut self,
        kind: DecisionKind,
        req: ReqId,
        suite: ObjectId,
        chosen: impl IntoIterator<Item = SiteId>,
        ranked: Option<&Ranked>,
        now: SimTime,
    ) {
        let (planner, configs) = (&self.planner, &self.configs);
        self.recorder.decision(now, || {
            let chosen: Vec<SiteId> = chosen.into_iter().collect();
            let (policy, inputs) = planner.audit_inputs(ranked, &chosen);
            AuditRecord {
                at_us: 0, // stamped by the recorder, as is `site`
                op: req.0,
                site: 0,
                suite: suite.0,
                kind,
                policy: policy.to_string(),
                generation: configs.get(&suite).map_or(0, |c| c.generation),
                cursor: ranked.map_or(0, |r| r.cursor),
                rerouted: ranked.is_some_and(|r| r.rerouted),
                chosen: chosen.iter().map(|s| s.0).collect(),
                inputs,
            }
        });
    }

    /// The client's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The client's current view of a suite's configuration.
    pub fn config(&self, suite: ObjectId) -> Option<&SuiteConfig> {
        self.configs.get(&suite)
    }

    /// Number of operations still in flight (launched or queued).
    pub fn in_flight(&self) -> usize {
        self.ops.len() + self.window.queued()
    }

    /// Number of submissions still waiting for a pipeline slot.
    pub fn queued(&self) -> usize {
        self.window.queued()
    }

    /// Per-site counters of data requests (fetch legs, prepares)
    /// this client sent, indexed by site — the load the selection policy
    /// distributes across representatives.
    pub fn site_load(&self) -> Vec<u64> {
        self.planner.site_load()
    }

    /// Drains and returns the finished-operation log.
    pub fn take_completed(&mut self) -> Vec<CompletedOp> {
        std::mem::take(&mut self.completed)
    }

    fn fresh_req(&mut self) -> ReqId {
        let c = self.next_counter;
        self.next_counter += 1;
        ReqId::new(c, self.site)
    }

    /// Launches whatever the pipeline window admits, oldest first: with
    /// no window configured, or a free slot, a submission at once. Its
    /// operation state is built here, so `ops` holds launched operations
    /// alone.
    fn launch(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        while let Some(s) = self.window.launch() {
            (self.recorder).op(s.req.0, root_kind(s.kind), s.suite.0, ctx.now());
            let st = OpState {
                kind: s.kind,
                suite: s.suite,
                writes: s.writes,
                reconfig: s.reconfig,
                riders: Vec::new(),
                on_commit: None,
                started: s.started,
                attempt_started: s.started,
                attempts: 0,
                lock_ts: s.req.counter(),
                phase: Phase::Riding, // no message, no timer yet; begin_attempt resets
            };
            self.ops.insert(s.req, st);
            self.begin_attempt(s.req, ctx);
        }
    }

    /// Starts a quorum read. Returns the operation's first request id.
    pub fn start_read(&mut self, suite: ObjectId, ctx: &mut NodeCtx<'_, Msg>) -> ReqId {
        self.start_op(OpKind::Read, suite, Vec::new(), None, ctx)
    }

    /// Starts a quorum write of `value`: the one-install transaction.
    pub fn start_write(
        &mut self,
        suite: ObjectId,
        value: impl Into<Bytes>,
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> ReqId {
        let writes = vec![(suite, value.into())];
        self.start_op(OpKind::Write, suite, writes, None, ctx)
    }

    /// Starts a multi-suite atomic transaction: every `(suite, value)`
    /// write commits, or none does. All suites must be known to this
    /// client. Returns the operation's first request id.
    pub fn start_transaction(
        &mut self,
        writes: Vec<(ObjectId, Bytes)>,
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> ReqId {
        assert!(!writes.is_empty(), "a transaction needs at least one write");
        for (i, (suite, _)) in writes.iter().enumerate() {
            let repeated = writes[..i].iter().any(|(s, _)| s == suite);
            assert!(!repeated, "duplicate suite {suite} in transaction");
        }
        self.start_op(OpKind::Transaction, writes[0].0, writes, None, ctx)
    }

    /// Starts a reconfiguration to `(assignment, quorum)`.
    pub fn start_reconfigure(
        &mut self,
        suite: ObjectId,
        assignment: VoteAssignment,
        quorum: QuorumSpec,
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> ReqId {
        let reconfig = Some(Box::new(Reconfig::new(assignment, quorum)));
        self.start_op(OpKind::Reconfigure, suite, Vec::new(), reconfig, ctx)
    }

    fn start_op(
        &mut self,
        kind: OpKind,
        suite: ObjectId,
        writes: Vec<(ObjectId, Bytes)>,
        reconfig: Option<Box<Reconfig>>,
        ctx: &mut NodeCtx<'_, Msg>,
    ) -> ReqId {
        let req = self.fresh_req();
        let started = ctx.now();
        let known = |s: &ObjectId| self.configs.contains_key(s);
        if !known(&suite) || !writes.iter().all(|(s, _)| known(s)) {
            self.completed.push(CompletedOp {
                req,
                kind,
                suite,
                outcome: Err(OpError::UnknownSuite),
                started,
                finished: started,
                attempts: 0,
            });
            return req;
        }
        self.window.submit(Submission {
            req,
            kind,
            suite,
            writes,
            reconfig,
            started,
        });
        self.launch(ctx);
        req
    }

    /// Serves a read from a live lease on the attached weak representative
    /// ([`LocalCopies::leased`]): zero network. Returns whether it did.
    fn serve_from_lease(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) -> bool {
        let Some(st) = self.ops.get_mut(&req).filter(|st| st.kind == OpKind::Read) else {
            return false;
        };
        let Some((version, value)) = self.local.leased(st.suite, ctx.now(), &mut self.stats) else {
            return false;
        };
        st.attempts += 1;
        st.end_phase(req, ctx);
        st.attempt_started = ctx.now();
        self.serve_attached(req, version, value, ctx);
        true
    }

    /// Whether this attempt of `st` may skip the inquiry and go straight to
    /// prepare: the first attempt of a one-access operation (see
    /// [`one_access`]). A retry inquires: its predecessor met a conflict, a
    /// stale configuration or a dead site, the inquiry finds the way
    /// around each, and one-round blind retries would outrun a
    /// reconfiguration's exact-version read-modify-write for as long as
    /// they kept coming. [`Planner::direct_quorum`] adds the condition that
    /// is about the sites: none it would prepare at is silent.
    fn may_go_direct(&self, st: &OpState) -> bool {
        st.attempts == 0
            && !st.writes.is_empty()
            && st
                .suites()
                .all(|suite| one_access(st.kind, &self.configs[&suite]))
    }

    /// Whether the prepare of attempt `req` has stalled: a participant has
    /// neither voted nor said `Busy` [`LATE_MULTIPLIER`] of its round trips
    /// after it was asked. A line is no stall — the wait behind a live
    /// site's lock is what a train amortizes — but silence is what a crash
    /// or a partition looks like, and a write launched into a whole cluster
    /// must not wait out the timeout of an attempt sent into a broken one.
    fn stalled(&self, req: ReqId, now: SimTime) -> bool {
        let Some(Phase::Prepare {
            participants,
            yes,
            in_line,
            ..
        }) = self.ops.get(&req).map(|st| &st.phase)
        else {
            return false;
        };
        let answered = |s: &&SiteId| yes.contains_key(s) || in_line.contains_key(s);
        let unanswered = participants.iter().filter(|s| !answered(s));
        let owed = self.planner.round_trip(unanswered);
        let waited = now.since(self.ops[&req].attempt_started).as_millis_f64();
        owed > SimDuration::ZERO && waited > owed.as_millis_f64() * LATE_MULTIPLIER
    }

    /// Attempt `req` on `suite` has ended (or stalled). If it held the
    /// marker, the writes parked behind it leave now, as one train: the
    /// youngest carries it — installing its value alone linearizes them,
    /// all being outstanding together — at the age of the oldest.
    fn depart(&mut self, suite: ObjectId, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        if self.trains.get(&suite).map(|(marker, _)| *marker) != Some(req) {
            return;
        }
        let mut riders = self.trains.remove(&suite).expect("just looked up").1;
        let Some(carrier) = riders.pop() else {
            return;
        };
        (self.recorder).close_phase(carrier.0, SpanOutcome::Ok, ctx.now());
        let oldest = riders.iter().map(|r| self.ops[r].lock_ts).min();
        let st = self.ops.get_mut(&carrier).expect("a parked write is live");
        st.lock_ts = oldest.map_or(st.lock_ts, |ts| ts.min(st.lock_ts));
        st.riders = riders;
        self.begin_attempt(carrier, ctx);
    }

    fn begin_attempt(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        for suite in self.ops.get(&req).into_iter().flat_map(OpState::suites) {
            self.planner.step(suite);
        }
        if self.serve_from_lease(req, ctx) {
            return;
        }
        let Some(st) = self.ops.get(&req) else {
            return;
        };
        let (suite, first_write) = (st.suite, st.kind == OpKind::Write && st.attempts == 0);
        if let Some((marker, parked)) = self.trains.get_mut(&suite).filter(|_| first_write) {
            // Behind a direct attempt of this client's the write parks — its
            // pipeline slot stays taken — and leaves when that attempt ends:
            // at once, with whoever is parked already, if it has stalled.
            let (marker, now) = (*marker, ctx.now());
            parked.push(req);
            self.ops.get_mut(&req).expect("just looked up").phase = Phase::Riding;
            (self.recorder).phase(req.0, SpanKind::Ride, [], [], now);
            if self.stalled(marker, now) {
                self.depart(suite, marker, ctx);
            }
            return;
        }
        if self.may_go_direct(st) && self.enter_prepare(req, ctx) {
            if first_write {
                self.trains.insert(suite, (req, Vec::new()));
            }
            return;
        }
        let st = &self.ops[&req];
        let (suite, is_read, installs) = (st.suite, st.kind == OpKind::Read, st.writes.len());
        let sites = inquiry_targets(&self.planner, &self.configs, st).map(|(_, site)| site);
        let delay = self.planner.phase_delay(sites);
        // A warm cache entry is pre-seeded into `early` below, so the
        // inquiry quorum can confirm it without any contents moving.
        let cached_early = is_read.then(|| self.local.early(suite)).flatten();
        let cached_early = cached_early.map(|(version, value)| (self.site, version, value));
        // The contents are asked for in the inquiry's own round, so a read
        // completes at max(inquiry, contents) instead of inquiry + fetch:
        // a zero-vote copy ranked first (the workstation's own) is asked
        // for them, unless the cache entry plays its part, and so is the
        // best-ranked voting host.
        let (guess, contents) = if is_read && self.options.optimistic_fetch {
            let ranked = self.rank(suite, ctx);
            let (own, contents) = ranked.content_sources(&self.configs[&suite].assignment);
            let guess = own.filter(|_| cached_early.is_none());
            let kind = DecisionKind::OptimisticFetch;
            let asked = guess.into_iter().chain(contents);
            self.audit_decision(kind, req, suite, asked, Some(&ranked), ctx.now());
            (guess, contents)
        } else {
            (None, None)
        };
        // ...if that host's copy is newer than the one the reader holds.
        let own_copy_guessed = guess == Some(self.site);
        let contents_from = contents.map(|_| self.local.contents_from(suite, own_copy_guessed));
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        st.attempts += 1;
        st.end_phase(req, ctx);
        st.attempt_started = ctx.now();
        st.phase = Phase::Inquire {
            generation: self.configs[&suite].generation,
            answers: Few::default(),
            guess,
            contents,
            early: cached_early,
        };
        let st = &self.ops[&req];
        let asked = inquiry_targets(&self.planner, &self.configs, st).map(|(_, site)| site.0);
        let legs = guess.into_iter().chain(contents).map(|site| site.0);
        (self.recorder).phase(req.0, SpanKind::Inquiry, asked, legs, ctx.now());
        for suite in st.suites() {
            let cfg = &self.configs[&suite];
            self.planner.asked_inquiry(st.kind, cfg, ctx.now());
        }
        // A writer's answer is only a floor for the version assigned
        // under the commit lock, so it need not wait for one.
        let floor = installs > 0;
        // The guessed copy's inquiry asks for whatever it holds: its answer
        // is the content read. A guess the inquiry skips is sent one.
        let mut unasked = guess;
        for (suite, site) in inquiry_targets(&self.planner, &self.configs, &self.ops[&req]) {
            unasked = unasked.filter(|guess| *guess != site);
            let guessed = (guess == Some(site)).then_some(Version::INITIAL);
            let contents_from = guessed.or(contents_from.filter(|_| contents == Some(site)));
            let inquiry = Msg::VersionReq {
                suite,
                req,
                floor,
                contents_from,
            };
            ctx.send(site, inquiry);
        }
        for target in guess.into_iter().chain(contents) {
            self.planner.load(target);
        }
        if let Some(target) = unasked {
            content_read(ctx, target, suite, req);
        }
        ctx.set_timer(delay, timer_token(req, TimerKind::PhaseTimeout));
    }

    /// Plans a write's or transaction's prepare and launches it. After an
    /// inquiry (every written suite has its quorum of answers): per suite,
    /// the version's floor is the highest answer plus one and the install
    /// set is the best-ranked write quorum among the responders. On a
    /// direct attempt nobody was asked: the floor is the lowest there is —
    /// the participants assign above what they hold — and the install set
    /// is the best-ranked write quorum outright.
    ///
    /// A direct attempt is not launched (`false`) while a site it would
    /// prepare at is silent (see [`Planner::direct_quorum`]).
    fn enter_prepare(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) -> bool {
        let Some(st) = self.ops.get(&req) else {
            return false;
        };
        let (kind, installs, span) = (st.kind, st.writes.len(), st.span());
        let direct = !matches!(st.phase, Phase::Inquire { .. });
        // Per written suite: the ranking decided under, the install set,
        // and the version floor.
        let mut planned: Few<(Ranked, Sites, Version), 2> = Few::default();
        for i in 0..installs {
            let suite = self.ops[&req].writes[i].0;
            let ranked = self.rank(suite, ctx);
            let cfg = &self.configs[&suite];
            let (quorum, current) = match &self.ops[&req].phase {
                Phase::Inquire { answers, .. } => {
                    let of_suite = answers.iter().filter(|(o, _, _)| *o == suite);
                    let current = of_suite.map(|(_, _, version)| *version).max();
                    let vouched = |s| answer_of(answers, suite, s).is_some();
                    (ranked.write_quorum(cfg, vouched), current)
                }
                _ => (self.planner.direct_quorum(&ranked, cfg, ctx.now()), None),
            };
            // After an inquiry there always is one: its vote threshold
            // passed, and a legal configuration's sites reach `w`.
            let Some(quorum) = quorum else {
                return false;
            };
            planned.push((ranked, quorum, current.unwrap_or(Version::INITIAL)));
        }
        let st = self.ops.get_mut(&req).expect("present above");
        if direct {
            st.attempts += 1;
            st.attempt_started = ctx.now();
        }
        let (mut unprobed, mut batches) = (Few::default(), Batches::default());
        // A plain write reports its version alone; a transaction also
        // reports every suite's (its first suite's as `version`).
        let mut on_commit = OpSuccess {
            version: Version::INITIAL,
            value: None,
            multi: Vec::new(),
        };
        for (i, (ranked, quorum, current)) in planned.into_iter().enumerate() {
            let (suite, value) = self.ops[&req].writes[i].clone();
            let install = PrepareWrite {
                suite,
                object: data_object(suite),
                version: Version(current.0 + u64::from(span)),
                value,
                generation: self.configs[&suite].generation,
                span,
            };
            if i == 0 {
                on_commit.version = install.version;
            }
            if kind == OpKind::Transaction {
                on_commit.multi.push((suite, install.version));
            }
            add_to_batches(&mut batches, &quorum, &install);
            let (decision, chosen) = (quorum_decision(kind), quorum.iter().copied());
            self.audit_decision(decision, req, suite, chosen, Some(&ranked), ctx.now());
            if direct {
                unprobed.push(quorum);
            }
        }
        // Send order is behaviour (the net samples one latency per send):
        // a single quorum goes out best-ranked first, a union of several in
        // site order.
        if installs > 1 {
            batches.sort_by_key(|(site, _)| *site);
        }
        let timeout = (self.planner).phase_delay(batches.iter().map(|(site, _)| *site));
        let plan = PreparePlan {
            batches,
            rebase: true,
            unprobed,
            on_commit: (on_commit, None),
        };
        self.send_prepares(req, plan, timeout, ctx);
        true
    }

    /// The one two-phase-commit launch: sends each site its prepare batch,
    /// enters [`Phase::Prepare`] and arms the phase's `timeout`.
    fn send_prepares(
        &mut self,
        req: ReqId,
        plan: PreparePlan,
        timeout: SimDuration,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        st.on_commit = Some(plan.on_commit);
        st.end_phase(req, ctx);
        st.phase = Phase::Prepare {
            participants: plan.batches.iter().map(|(site, _)| *site).collect(),
            yes: SiteMap::default(),
            in_line: SiteMap::default(),
            give_way: false,
            asks: 0,
            unprobed: plan.unprobed,
        };
        let asked = plan.batches.iter().map(|(site, _)| site.0);
        (self.recorder).phase(req.0, SpanKind::Prepare, asked, [], ctx.now());
        self.send_batches(req, plan.batches, plan.rebase, ctx);
        ctx.set_timer(timeout, timer_token(req, TimerKind::PhaseTimeout));
    }

    /// Sends each site its prepare batch under `req`'s open prepare phase,
    /// in the order given — the planners decide it.
    fn send_batches(
        &mut self,
        req: ReqId,
        batches: Batches,
        rebase: bool,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let lock_ts = self.ops[&req].lock_ts;
        for (site, writes) in batches {
            self.planner.asked(site, ctx.now());
            self.planner.load(site);
            ctx.send(
                site,
                Msg::Prepare {
                    req,
                    writes,
                    lock_ts,
                    rebase,
                },
            );
        }
    }

    /// Whether `req` has used up its attempt budget (counted when so): the
    /// caller completes it with its error instead of trying again.
    fn attempts_exhausted(&mut self, req: ReqId) -> bool {
        let max = self.options.max_attempts;
        let exhausted = self.ops.get(&req).is_some_and(|st| st.attempts >= max);
        self.stats.attempts_exhausted += u64::from(exhausted);
        exhausted
    }

    /// Counts an attempt that ended for `cause` and will be tried again.
    fn note_retry(&mut self, cause: RetryCause) {
        self.stats.retries += 1;
        self.stats.retry_causes[cause as usize] += 1;
    }

    /// Ends the current attempt for `cause`, retrying if budget remains
    /// and failing the operation with `err` otherwise.
    fn fail_attempt(
        &mut self,
        req: ReqId,
        err: OpError,
        cause: RetryCause,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        if self.attempts_exhausted(req) {
            self.complete(req, Err(err), ctx);
            return;
        }
        let Some(mut st) = self.ops.remove(&req) else {
            return;
        };
        // Fresh request id for the next attempt; late traffic for the old
        // id will find no operation and be ignored.
        self.note_retry(cause);
        let new_req = self.fresh_req();
        (self.recorder).retry(req.0, new_req.0, cause.outcome(), ctx.now());
        st.end_phase(req, ctx);
        let attempts = st.attempts;
        // Another operation won a race this attempt lost: an older
        // prepare took a lock it was still collecting for, or a write
        // committed under a reconfiguration's exact version. The winner
        // needs about as long to finish as this attempt got, and trying
        // again sooner loses the same race to it.
        let lost = match cause {
            RetryCause::VoteNo | RetryCause::GaveWay => ctx.now().since(st.attempt_started),
            _ => SimDuration::ZERO,
        };
        let suite = st.suite;
        self.ops.insert(new_req, st);
        let delay = self.retry_delay(new_req, attempts).max(lost);
        ctx.set_timer(delay, timer_token(new_req, TimerKind::Retry));
        self.depart(suite, req, ctx);
    }

    /// Capped exponential backoff with deterministic jitter. `backoff` is
    /// the first retry's base step, doubling per completed attempt up to
    /// `backoff_cap`; jitter adds up to half the base on top. The jitter
    /// bits are a pure function of (site, request counter, attempt) via
    /// [`wv_sim::derive_seed`] — no RNG draw — so retry timing is
    /// bit-identical at any trial worker count.
    fn retry_delay(&self, req: ReqId, attempts: u32) -> SimDuration {
        const BACKOFF_SALT: u64 = 0x4A17_7E12_B0FF_0FF5;
        let doublings = attempts.saturating_sub(1).min(16);
        let base_ms = (self.options.backoff.as_millis_f64() * (1u64 << doublings) as f64)
            .min(self.options.backoff_cap.as_millis_f64());
        let bits = wv_sim::derive_seed(
            wv_sim::derive_seed(BACKOFF_SALT ^ u64::from(self.site.0), req.counter()),
            u64::from(attempts),
        );
        let frac = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        SimDuration::from_millis_f64(base_ms * (1.0 + 0.5 * frac))
    }

    /// Restart after adopting a fresh configuration (no backoff — the
    /// config is new information, not a suspected conflict).
    fn restart_op(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        if self.attempts_exhausted(req) {
            self.complete(req, Err(OpError::Conflict), ctx);
            return;
        }
        let Some(mut st) = self.ops.remove(&req) else {
            return;
        };
        self.note_retry(RetryCause::StaleConfig);
        st.end_phase(req, ctx);
        let new_req = self.fresh_req();
        let stale = RetryCause::StaleConfig.outcome();
        (self.recorder).retry(req.0, new_req.0, stale, ctx.now());
        self.ops.insert(new_req, st);
        self.begin_attempt(new_req, ctx);
    }

    fn complete(
        &mut self,
        req: ReqId,
        outcome: Result<OpSuccess, OpError>,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let Some(mut st) = self.ops.remove(&req) else {
            return;
        };
        st.end_phase(req, ctx);
        let span_outcome = match &outcome {
            Ok(_) => SpanOutcome::Ok,
            Err(e) => op_err_outcome(e),
        };
        // A train's riders are reported before their carrier, oldest
        // first, at the versions below its own; they made its attempts.
        // If it failed instead, each goes on alone with its own budget.
        let riders = std::mem::take(&mut st.riders);
        let carried = outcome.as_ref().ok().map(|s| s.version);
        let below = (1..=riders.len() as u64).rev();
        for (rider, below) in riders.into_iter().zip(below) {
            (self.recorder).rode(rider.0, req.0, span_outcome, ctx.now());
            let Some(version) = carried else {
                self.begin_attempt(rider, ctx);
                continue;
            };
            self.ops.get_mut(&rider).expect("a rider is live").attempts = st.attempts;
            let success = OpSuccess {
                version: Version(version.0 - below),
                value: None,
                multi: Vec::new(),
            };
            self.complete(rider, Ok(success), ctx);
        }
        (self.recorder).finish(req.0, span_outcome, ctx.now());
        self.completed.push(CompletedOp {
            req,
            kind: st.kind,
            suite: st.suite,
            outcome,
            started: st.started,
            finished: ctx.now(),
            attempts: st.attempts,
        });
        self.window.finished();
        self.launch(ctx);
        self.depart(st.suite, req, ctx);
    }

    /// Asks `ask` for the configuration of `stale` — the suite it said
    /// has moved on, which for a transaction need not be its first.
    fn enter_refresh(
        &mut self,
        req: ReqId,
        stale: ObjectId,
        ask: SiteId,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        (self.recorder).close_phase(req.0, SpanOutcome::Stale, ctx.now());
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let suite = st.suite;
        // If a prepare was in flight, clean it up before refreshing.
        if let Phase::Prepare { participants, .. } = &st.phase {
            for site in participants {
                ctx.send(*site, Msg::Abort { suite, req });
            }
        }
        st.end_phase(req, ctx);
        st.phase = Phase::RefreshConfig;
        ctx.send(ask, Msg::ConfigReq { suite: stale, req });
        ctx.set_timer(
            self.options.phase_timeout,
            timer_token(req, TimerKind::PhaseTimeout),
        );
        self.depart(suite, req, ctx);
    }

    fn on_version_resp(
        &mut self,
        from: SiteId,
        suite: ObjectId,
        req: ReqId,
        version: Version,
        generation: u64,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let Some(my_gen) = self.configs.get(&suite).map(|c| c.generation) else {
            return;
        };
        if from == self.site {
            self.local.hint(suite, version);
        }
        // A version answer arriving during the inquiry phase measures one
        // round trip; feed it to the health tracker.
        if let Some(st) = self.ops.get(&req) {
            if matches!(st.phase, Phase::Inquire { .. }) {
                let rtt = ctx.now().since(st.attempt_started);
                self.planner.rtt(from, rtt.as_millis_f64());
            }
        }
        (self.recorder).end_rpc(req.0, from.0, SpanOutcome::Ok, version.0, ctx.now());
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let OpState {
            kind,
            suite: own,
            writes,
            reconfig,
            phase,
            ..
        } = st;
        let Phase::Inquire {
            generation: asked_under,
            answers,
            guess,
            early,
            ..
        } = phase
        else {
            return;
        };
        if generation > my_gen {
            return self.enter_refresh(req, suite, from, ctx);
        } else if !suites_of(writes, *own).any(|s| s == suite) {
            return; // a suite this operation does not touch
        } else if writes.is_empty() && *asked_under != my_gen {
            // This client adopted a new configuration while the inquiry was
            // out. Answers given under the old geometry say nothing about a
            // quorum of the new one — its write quorums need not intersect
            // the sites that answered before the change — so the evidence
            // is discarded whole. A writer's answers are only floors: it
            // goes on, and the representatives judge the generation its
            // prepare names.
            (self.recorder).close_phase(req.0, SpanOutcome::Stale, ctx.now());
            return self.restart_op(req, ctx);
        }
        // A duplicated answer replaces the one it repeats.
        let place = answers
            .iter_mut()
            .find(|(o, s, _)| (*o, *s) == (suite, from));
        match place {
            Some(entry) => entry.2 = version,
            None => answers.push((suite, from, version)),
        }
        // Every suite needs its inquiry quorum — and whoever installs,
        // enough responders to form a write quorum: a reconfiguration, of
        // the new configuration too ([`Reconfig::responded`]).
        let ready = suites_of(writes, *own).all(|s| {
            let cfg = &self.configs[&s];
            let threshold = match kind {
                OpKind::Read => cfg.quorum.read,
                _ => cfg.quorum.read.max(cfg.quorum.write),
            };
            cfg.assignment.votes_in(answered(answers, s)) >= threshold
        }) && (reconfig.as_mut())
            .is_none_or(|r| r.responded(answered(answers, suite), my_gen));
        if !ready {
            return;
        } else if !writes.is_empty() {
            (self.recorder).close_phase(req.0, SpanOutcome::Ok, ctx.now());
            self.enter_prepare(req, ctx);
            return;
        }
        // Once a quorum has answered, the highest version among the answers
        // is current (read/write intersection guarantees it).
        let versions = answers.iter().map(|(_, _, version)| *version);
        let current = versions.max().unwrap_or(Version::INITIAL);
        // A read's contents to hand win if they proved current (or newer —
        // a racing commit), whoever they came from: this is the one
        // completion test of a read.
        let proved = |(_, v, _): &(SiteId, Version, Bytes)| *kind == OpKind::Read && *v >= current;
        if let Some((source, version, value)) = early.clone().filter(proved) {
            // Whether they are the contents `guess` was asked for, and
            // whether they are the attached entry itself, not something
            // newer that came with its own site's answer.
            let guessed = *guess == Some(source);
            let attached = !guessed && source == self.site;
            let now = ctx.now();
            if attached && self.local.confirmed(suite, version, now, &mut self.stats) {
                return self.serve_attached(req, version, value, ctx);
            }
            self.stats.reads_cache_hit += 1;
            self.stats.reads_contents_with_inquiry += u64::from(!guessed);
            return self.finish_read(req, suite, source, version, value, ctx);
        }
        // Otherwise the contents are fetched: a read's, or the ones a
        // reconfiguration re-installs. Sites reporting `current`,
        // best-ranked first: an answer ranks here alone, at a fetch.
        let ranked = (self.planner).rank(&self.configs[&suite], ctx.rng(), &mut self.stats);
        let holds = |s| answer_of(answers, suite, s) == Some(current);
        let candidates = ranked.among(holds);
        (self.recorder).close_phase(req.0, SpanOutcome::Ok, ctx.now());
        let (kind, chosen) = (DecisionKind::FetchPlan, candidates.iter().copied());
        self.audit_decision(kind, req, suite, chosen, Some(&ranked), ctx.now());
        self.enter_fetch(req, suite, current, candidates, ctx)
    }

    /// Completes a read from the attached weak representative, at the
    /// entry's `version`: zero data RPCs.
    fn serve_attached(
        &mut self,
        req: ReqId,
        version: Version,
        value: Bytes,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        (self.recorder).op_event(req.0, SpanKind::CacheHit, version.0, ctx.now());
        self.complete(req, Ok(read_success(version, value)), ctx);
    }

    /// Completes a read the attached weak representative did not serve,
    /// refreshing the local weak representatives with `value`. For
    /// reconfigurations the fetched contents feed the prepare instead of
    /// completing the operation ([`Reconfig::plan`]).
    fn finish_read(
        &mut self,
        req: ReqId,
        suite: ObjectId,
        source: SiteId,
        version: Version,
        value: Bytes,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        if let Some(reconfig) = self.ops.get(&req).and_then(|st| st.reconfig.as_ref()) {
            let contents = (version, value);
            let plan = reconfig.plan(&self.configs[&suite], contents, &self.planner, ctx.rng());
            if let Err(NoPlan::Stale) = plan {
                return self.restart_op(req, ctx); // its retry closes the phase `Stale`
            }
            (self.recorder).close_phase(req.0, SpanOutcome::Ok, ctx.now());
            return match plan {
                // The fixed ceiling, not the adaptive `phase_delay`: E9's
                // healing and quarantine arms pin this timeout as it has
                // always been.
                Ok(plan) => self.send_prepares(req, plan, self.options.phase_timeout, ctx),
                Err(NoPlan::Illegal(e)) => self.complete(req, Err(OpError::IllegalConfig(e)), ctx),
                // Retry when more sites answer.
                Err(_) => {
                    let kind = OpKind::Reconfigure;
                    let err = OpError::Unavailable { kind };
                    self.fail_attempt(req, err, RetryCause::TimeoutInquire, ctx)
                }
            };
        }
        // A read fetched from elsewhere refreshes the weak representative
        // co-located with this client.
        let cfg = &self.configs[&suite];
        if cfg.assignment.is_weak(self.site) && source != self.site {
            ctx.send(
                self.site,
                Msg::UpdateWeak {
                    suite,
                    version,
                    value: value.clone(),
                },
            );
            self.local.hint(suite, version);
        }
        let (now, stats) = (ctx.now(), &mut self.stats);
        if self.local.filled(suite, version, &value, now, stats) && source != self.site {
            (self.recorder).op_event(req.0, SpanKind::CacheRefresh, version.0, now);
        }
        self.complete(req, Ok(read_success(version, value)), ctx);
    }

    fn enter_fetch(
        &mut self,
        req: ReqId,
        suite: ObjectId,
        current: Version,
        candidates: Sites,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let first = candidates[0];
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        // The site asked for the contents alongside the inquiry, if it has
        // yet to answer: the fetch races what it may still send.
        let racing = match &st.phase {
            Phase::Inquire {
                contents: Some(site),
                answers,
                ..
            } if answer_of(answers, suite, *site).is_none() => Some(*site),
            _ => None,
        };
        st.end_phase(req, ctx);
        st.phase = Phase::Fetch {
            current,
            candidates,
            idx: 0,
        };
        let racing = racing.map(|site| site.0);
        (self.recorder).phase(req.0, SpanKind::Fetch, [], racing, ctx.now());
        self.launch_leg(req, suite, first, ctx);
    }

    /// Sends one fetch leg to `site` and arms the phase timeout for it.
    fn launch_leg(
        &mut self,
        req: ReqId,
        suite: ObjectId,
        site: SiteId,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let delay = self.planner.phase_delay([site]);
        self.recorder.leg(req.0, site.0, ctx.now());
        self.planner.load(site);
        content_read(ctx, site, suite, req);
        ctx.set_timer(delay, timer_token(req, TimerKind::PhaseTimeout));
    }

    /// Contents arrive from `from`: a content read's answer, or
    /// (`with_inquiry`) what its version answer carried.
    fn on_contents(
        &mut self,
        from: SiteId,
        req: ReqId,
        version: Version,
        value: Bytes,
        with_inquiry: bool,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let suite = st.suite;
        match &mut st.phase {
            // Asked for alongside the inquiry and here before its quorum:
            // hold the newest until the quorum tells us what's current.
            Phase::Inquire { guess, early, .. } if with_inquiry || *guess == Some(from) => {
                if early.as_ref().is_none_or(|(_, v, _)| version > *v) {
                    *early = Some((from, version, value));
                }
                (self.recorder).end_leg(req.0, from.0, SpanOutcome::Ok, version.0, ctx.now());
            }
            Phase::Fetch { current, .. } if version >= *current => {
                if with_inquiry && !self.configs[&suite].assignment.is_weak(from) {
                    // Sent in a voting host's inquiry answer, only late for
                    // its quorum: no fetch round brought these.
                    self.stats.reads_cache_hit += 1;
                    self.stats.reads_contents_with_inquiry += 1;
                } else {
                    self.stats.reads_fetched += 1;
                }
                (self.recorder).end_leg(req.0, from.0, SpanOutcome::Ok, version.0, ctx.now());
                self.finish_read(req, suite, from, version, value, ctx);
            }
            Phase::Fetch {
                candidates, idx, ..
            } => {
                (self.recorder).end_leg(req.0, from.0, SpanOutcome::Stale, version.0, ctx.now());
                // The candidate answered below what the quorum proved
                // current — a stale duplicate; move to the next candidate.
                // A stale answer to something else (typically what was asked
                // alongside the inquiry, landing late) says nothing about
                // the fetch we actually sent.
                if candidates.get(*idx) == Some(&from) {
                    self.try_next_candidate(req, Some(from), ctx)
                }
            }
            _ => {}
        }
    }

    /// Advances a fetch to its next candidate. `from` is the site whose
    /// answer (or refusal) triggered the advance, when one did: a reply
    /// from a site that is not the current leg's target — typically a
    /// late refusal of the *inquiry* sent under the same request id —
    /// says nothing about the candidate actually being fetched from and
    /// must not burn it. `None` means a phase timeout, which always
    /// refers to the current leg.
    fn try_next_candidate(&mut self, req: ReqId, from: Option<SiteId>, ctx: &mut NodeCtx<'_, Msg>) {
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let suite = st.suite;
        let Phase::Fetch {
            candidates, idx, ..
        } = &mut st.phase
        else {
            return;
        };
        if from.is_some_and(|f| candidates.get(*idx) != Some(&f)) {
            return;
        }
        *idx += 1;
        let Some(&site) = candidates.get(*idx) else {
            // That was the last candidate: the attempt ends.
            let cause = match from {
                Some(_) => RetryCause::Refused,
                None => RetryCause::TimeoutFetch,
            };
            return self.fail_attempt(req, OpError::Conflict, cause, ctx);
        };
        ctx.cancel_timer(timer_token(req, TimerKind::PhaseTimeout));
        let kind = DecisionKind::FetchFailover;
        self.audit_decision(kind, req, suite, [site], None, ctx.now());
        self.launch_leg(req, suite, site, ctx);
    }

    /// One participant's answer to a prepare: what it staged with its yes
    /// vote, or why the attempt ends (a no vote, a refusal).
    fn on_prepare_vote(
        &mut self,
        from: SiteId,
        req: ReqId,
        vote: Result<Shared<(ObjectId, Version)>, RetryCause>,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let vote_detail = u64::from(vote.is_ok());
        (self.recorder).end_rpc(req.0, from.0, SpanOutcome::Ok, vote_detail, ctx.now());
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let rtt = ctx.now().since(st.attempt_started);
        let Phase::Prepare {
            participants,
            yes,
            unprobed,
            ..
        } = &mut st.phase
        else {
            return;
        };
        if !participants.contains(&from) {
            return;
        }
        let staged = match vote {
            Ok(staged) => staged,
            Err(cause) => return self.abort_prepare(req, OpError::Conflict, cause, ctx),
        };
        let first = yes.is_empty();
        yes.insert(from, staged);
        if yes.len() == participants.len() {
            return self.decide(req, ctx);
        }
        // A direct attempt sent its prepares to sites nothing vouched for.
        // Its first yes holds a commit lock, and the reads behind it, for
        // as long as the slowest participant takes; one that has said
        // nothing a round trip from now is widened away from.
        if first && !unprobed.is_empty() {
            let waiting = participants.iter().filter(|s| !yes.contains_key(s));
            let delay = rtt.max(self.planner.round_trip(waiting));
            ctx.set_timer(delay, timer_token(req, TimerKind::Widen));
        }
    }

    /// Every participant voted yes: the prepare phase ends. The
    /// participant list moves out with it, and every object commits at the
    /// highest version any participant staged for it.
    fn decide(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let Phase::Prepare {
            participants, yes, ..
        } = &mut st.phase
        else {
            return;
        };
        let mut versions: Few<(ObjectId, Version), 4> = Few::default();
        for &(object, version) in yes.values().flat_map(|staged| staged.iter()) {
            match versions.iter_mut().find(|(o, _)| *o == object) {
                Some((_, v)) => *v = version.max(*v),
                None => versions.push((object, version)),
            }
        }
        let participants = std::mem::take(participants);
        // What the op reports follows the decision.
        let decided = |s: ObjectId| {
            let object = data_object(s);
            versions.iter().find(|(o, _)| *o == object).map(|(_, v)| *v)
        };
        let (mut success, adopt) = st.on_commit.take().expect("a prepare sets on_commit");
        if st.kind != OpKind::Reconfigure {
            success.version = decided(st.suite).unwrap_or(success.version);
        }
        for (s, v) in &mut success.multi {
            *v = decided(*s).unwrap_or(*v);
        }
        let suite = st.suite;
        let delay = self.planner.phase_delay(participants.iter().copied());
        let asked = participants.iter().map(|site| site.0);
        self.recorder.commit(req.0, asked, ctx.now());
        let written = (st.kind == OpKind::Write).then(|| (success.version, &st.writes[0].1));
        let at_decision = st.suites().all(|s| one_access(st.kind, &self.configs[&s]));
        let mut then = Some((success, adopt));
        let report = then.take_if(|_| at_decision);
        // Decide commit — durably, *before* any commit message leaves, so
        // decision probes always get the truth. This is the commit point.
        let commits = (self.commits).decide(req, suite, participants, &versions, then, written);
        for (site, commit) in commits {
            ctx.send(site, commit);
        }
        if st.kind == OpKind::Write {
            self.stats.trains += 1;
            self.stats.writes_ridden += st.riders.len() as u64;
        }
        st.end_phase(req, ctx);
        st.phase = Phase::Decided;
        ctx.set_timer(delay, timer_token(req, TimerKind::CommitResend));
        if let Some(outcome) = report {
            self.report(req, suite, outcome, ctx);
        }
    }

    /// Reports a committed operation: adopts the configuration it
    /// installed (dropping the quorum plan built against the superseded
    /// one), drops the attached weak representative's entry — and lease —
    /// for every suite it wrote, so no later cache serve can return
    /// overwritten data, and completes it. Here and nowhere later: an
    /// entry a read validates after the report is newer than the write.
    fn report(
        &mut self,
        req: ReqId,
        suite: ObjectId,
        (success, adopt): Outcome,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        if let Some(next) = adopt {
            self.configs.insert(suite, *next);
            self.planner.forget(suite);
        }
        self.local.forget(suite);
        for (s, _) in &success.multi {
            self.local.forget(*s);
        }
        self.complete(req, Ok(success), ctx);
    }

    /// Ends an attempt that is still preparing: every participant is told
    /// to abort (one standing in a line leaves it), then the attempt
    /// fails for `cause`.
    fn abort_prepare(
        &mut self,
        req: ReqId,
        err: OpError,
        cause: RetryCause,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let Some(st) = self.ops.get(&req) else {
            return;
        };
        let Phase::Prepare { participants, .. } = &st.phase else {
            return;
        };
        let suite = st.suite;
        for site in participants {
            ctx.send(*site, Msg::Abort { suite, req });
        }
        self.fail_attempt(req, err, cause, ctx);
    }

    /// A participant's notice about the commit-lock line it keeps for one
    /// of our prepares (see [`Msg::Busy`]).
    fn on_busy(&mut self, from: SiteId, req: ReqId, give_way: bool, ctx: &mut NodeCtx<'_, Msg>) {
        self.stats.refused_busy += 1;
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let Phase::Prepare {
            participants,
            yes,
            in_line,
            give_way: asked,
            ..
        } = &mut st.phase
        else {
            return;
        };
        if !participants.contains(&from) {
            return;
        }
        if give_way {
            *asked = true;
        } else if !yes.contains_key(&from) {
            in_line.insert(from, true);
        }
        // Holding a lock an older prepare waits for is harmless while this
        // one waits for nothing — it finishes. Holding it while standing
        // in another site's line is how a deadlock closes: give way.
        if *asked && in_line.keys().any(|s| !yes.contains_key(s)) {
            self.abort_prepare(req, OpError::Conflict, RetryCause::GaveWay, ctx);
        }
    }

    /// The prepare phase's timer fired. While every participant yet to
    /// vote has said it keeps our place in its line, keep waiting: re-ask
    /// them (an empty prepare, which a site that lost the line answers
    /// No). A participant that said nothing since it was last asked is
    /// down or cut off, and the attempt fails as any timed-out phase
    /// does. Returns false when it did.
    ///
    /// A prepare that holds nothing yet harms nobody by waiting, so its
    /// re-asks thin out (the interval doubles, up to 4x): a long healthy
    /// line costs few messages. Once some participant has voted, its
    /// promise keeps a commit lock — and the reads and prepares behind it
    /// — waiting on this coordinator, which then looks every timeout.
    fn keep_place_in_line(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) -> bool {
        const MAX_DOUBLINGS: u32 = 2;
        let Some(st) = self.ops.get_mut(&req) else {
            return false;
        };
        let lock_ts = st.lock_ts;
        let Phase::Prepare {
            participants,
            yes,
            in_line,
            asks,
            unprobed,
            ..
        } = &mut st.phase
        else {
            return false;
        };
        let waiting: Sites = participants
            .iter()
            .copied()
            .filter(|s| !yes.contains_key(s))
            .collect();
        if !waiting.iter().all(|s| in_line.get(s) == Some(&true)) {
            return false;
        }
        for heard in in_line.values_mut() {
            *heard = false;
        }
        *asks += 1;
        let doublings = if yes.is_empty() {
            (*asks).min(MAX_DOUBLINGS)
        } else {
            0
        };
        // The timeout that asked has fired; a widen would find none silent.
        if !yes.is_empty() && !std::mem::take(unprobed).is_empty() {
            ctx.cancel_timer(timer_token(req, TimerKind::Widen));
        }
        for &site in &waiting {
            ctx.send(site, reask(req, lock_ts));
        }
        let delay = self.planner.phase_delay(waiting) * (1u64 << doublings);
        ctx.set_timer(delay, timer_token(req, TimerKind::PhaseTimeout));
        true
    }

    /// A direct prepare's first yes is a round trip old. Participants that
    /// have neither voted nor said they keep our place in their line are
    /// taken for silent — what an inquiry would have found out before
    /// anything was locked: they are told to abort, dropped, and replaced
    /// by the next voting sites in rank order until every written suite
    /// has its `w` votes again. The decision is then taken over the
    /// widened set. A dropped site's late yes is answered as a decision
    /// probe is (see [`Self::handle`]), so it ends holding the decided
    /// contents or nothing.
    ///
    /// Widens once: a silent replacement leaves the attempt to the phase
    /// timeout, and the retry inquires. (So a site once dropped is never
    /// asked again under the same request id: its abort and a second
    /// prepare could swap on the wire, and its vote would promise a
    /// staging the abort has since undone.) Where too few sites are left
    /// to widen to, nothing is dropped — the laggard may yet answer.
    fn on_widen(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        let Some(st) = self.ops.get_mut(&req) else {
            return;
        };
        let Phase::Prepare {
            participants,
            yes,
            in_line,
            unprobed,
            ..
        } = &mut st.phase
        else {
            return;
        };
        let quorums = std::mem::take(unprobed);
        let said_nothing = |s: &SiteId| !yes.contains_key(s) && !in_line.contains_key(s);
        let silent: Vec<SiteId> = participants.iter().copied().filter(said_nothing).collect();
        if silent.is_empty() {
            return;
        }
        // A site already preparing some suite of this request cannot be
        // handed another: a second prepare under the same id is a re-ask.
        let taken = participants.clone();
        let (kind, suite, span) = (st.kind, st.suite, st.span());
        // Per written suite: the members kept, then the next in rank order
        // until the votes are covered; the additions merge per site as
        // `enter_prepare` batches them.
        let mut added = Batches::default();
        let mut decisions: Vec<(ObjectId, Sites, Ranked)> = Vec::new();
        for (i, quorum) in quorums.iter().enumerate() {
            let (suite, value) = self.ops[&req].writes[i].clone();
            let ranked = self.rank(suite, ctx);
            let cfg = &self.configs[&suite];
            let kept = || quorum.iter().filter(|s| !silent.contains(s));
            let votes = cfg.assignment.votes_in(kept());
            let widened = (self.planner).widen(&ranked, cfg, votes, &taken, ctx.now());
            let Some(next) = widened else {
                return;
            };
            let install = PrepareWrite {
                suite,
                object: data_object(suite),
                version: Version(Version::INITIAL.0 + u64::from(span)),
                value,
                generation: cfg.generation,
                span,
            };
            add_to_batches(&mut added, &next, &install);
            decisions.push((suite, next, ranked));
        }
        if quorums.len() > 1 {
            added.sort_by_key(|(site, _)| *site);
        }
        for ((suite, next, ranked), quorum) in decisions.into_iter().zip(&quorums) {
            let chosen = quorum.iter().filter(|s| !silent.contains(s)).chain(&next);
            let decision = quorum_decision(kind);
            self.audit_decision(
                decision,
                req,
                suite,
                chosen.copied(),
                Some(&ranked),
                ctx.now(),
            );
        }
        self.planner.unanswered(&silent, &mut self.stats);
        for &site in &silent {
            let unanswered = SpanOutcome::Unanswered;
            (self.recorder).end_rpc(req.0, site.0, unanswered, 0, ctx.now());
            ctx.send(site, Msg::Abort { suite, req });
        }
        let Some(Phase::Prepare {
            participants, yes, ..
        }) = self.ops.get_mut(&req).map(|st| &mut st.phase)
        else {
            return;
        };
        participants.retain(|s| !silent.contains(s));
        participants.extend(added.iter().map(|(site, _)| *site));
        if yes.len() == participants.len() {
            // The sites kept cover the votes by themselves, and have all
            // voted already.
            return self.decide(req, ctx);
        }
        let asked = added.iter().map(|(site, _)| site.0);
        self.recorder.rpcs(req.0, asked, ctx.now());
        self.send_batches(req, added, true, ctx);
    }

    /// Whether `site`'s yes vote on `req` can still matter: it is a
    /// participant of the prepare in flight, or of the commit tail.
    fn counts_on(&self, req: ReqId, site: SiteId) -> bool {
        let preparing = |st: &OpState| matches!(&st.phase, Phase::Prepare { participants, .. } if participants.contains(&site));
        self.ops.get(&req).is_some_and(preparing) || self.commits.counts_on(req, site)
    }

    /// Tells a participant how `req` ended, if it has: the decision log
    /// answers first ([`CommitTails::logged`]); then an id with no live
    /// operation answers abort — as does one whose prepare no longer counts
    /// on `from` (it was widened away from). An operation still collecting
    /// votes has no answer yet: the participant keeps its prepared state
    /// and re-probes after the decision lands. But only a staged prepare
    /// probes: if `from`'s yes is still missing, it was lost on the way,
    /// and is asked for again at once rather than at this coordinator's
    /// next look, which may be thinned out far ([`Self::keep_place_in_line`]).
    fn answer_decision_probe(
        &mut self,
        from: SiteId,
        suite: ObjectId,
        req: ReqId,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let msg = if let Some(commit) = self.commits.logged(suite, req) {
            commit
        } else if self.counts_on(req, from) {
            let Some(st) = self.ops.get(&req) else {
                return;
            };
            match &st.phase {
                Phase::Prepare { yes, .. } if !yes.contains_key(&from) => reask(req, st.lock_ts),
                _ => return,
            }
        } else {
            Msg::Abort { suite, req }
        };
        ctx.send(from, msg);
    }

    /// A participant applied the decision; the last ack ends the tail.
    fn on_ack(&mut self, from: SiteId, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        let Some(last) = self.commits.ack(req, from) else {
            return;
        };
        self.recorder.commit_acked(req.0, from.0, ctx.now());
        if last {
            self.end_tail(req, true, ctx);
        }
    }

    /// A commit round went unanswered: send the decision again to whoever
    /// has not acked, or end the tail once it is out of resends
    /// ([`CommitTails::timed_out`]). The outcome was decided either way, so
    /// this is never reported as doubt.
    fn on_commit_timeout(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        let Some((missing, again)) = self.commits.timed_out(req) else {
            return;
        };
        self.stats.timeouts += 1;
        self.planner.unanswered(&missing, &mut self.stats);
        let Some(commit) = again else {
            return self.end_tail(req, false, ctx);
        };
        for site in missing {
            ctx.send(site, commit.clone());
        }
        let delay = self.options.phase_timeout;
        ctx.set_timer(delay, timer_token(req, TimerKind::CommitResend));
    }

    /// Ends `req`'s commit tail and reports the operation if that is
    /// still to do. `acked` says every participant has applied the commit
    /// durably, and the weak representatives are then sent the written
    /// value if the options ask for it.
    fn end_tail(&mut self, req: ReqId, acked: bool, ctx: &mut NodeCtx<'_, Msg>) {
        let Some(tail) = self.commits.end(req, acked) else {
            return;
        };
        ctx.cancel_timer(timer_token(req, TimerKind::CommitResend));
        self.recorder.commit_ended(req.0, acked, ctx.now());
        let suite = tail.suite;
        if let Some((version, value)) = tail.push {
            for site in self.configs[&suite].assignment.weak_sites() {
                ctx.send(
                    site,
                    Msg::UpdateWeak {
                        suite,
                        version,
                        value: value.clone(),
                    },
                );
                if site == self.site {
                    self.local.hint(suite, version);
                }
            }
        }
        if let Some(then) = tail.then {
            self.report(req, suite, then, ctx);
        }
    }

    fn on_config_resp(
        &mut self,
        suite: ObjectId,
        req: ReqId,
        config: SuiteConfig,
        ctx: &mut NodeCtx<'_, Msg>,
    ) {
        let newer = self
            .configs
            .get(&suite)
            .is_none_or(|c| config.generation > c.generation);
        if newer {
            self.configs.insert(suite, config);
            self.planner.forget(suite);
            // An adopted configuration also invalidates the attached weak
            // representative's entry and any live lease on it: the entry
            // was vouched for under quorums that no longer govern.
            self.local.forget(suite);
        }
        if matches!(
            self.ops.get(&req).map(|st| &st.phase),
            Some(Phase::RefreshConfig)
        ) {
            self.restart_op(req, ctx);
        }
    }

    fn on_phase_timeout(&mut self, req: ReqId, ctx: &mut NodeCtx<'_, Msg>) {
        // A prepare standing in line at every site yet to vote is not
        // timing out: the timer only paces the re-asks.
        if self.keep_place_in_line(req, ctx) {
            return;
        }
        let Some(st) = self.ops.get(&req) else {
            return;
        };
        // The sites that were asked and never answered this phase feed the
        // suspicion tracker alongside the phase transition itself.
        let (silent, cause) = match &st.phase {
            Phase::Inquire { answers, .. } => {
                let mut silent = Vec::new();
                for (suite, site) in inquiry_targets(&self.planner, &self.configs, st) {
                    if answer_of(answers, suite, site).is_none() && !silent.contains(&site) {
                        silent.push(site);
                    }
                }
                (silent, RetryCause::TimeoutInquire)
            }
            Phase::RefreshConfig => (Vec::new(), RetryCause::TimeoutInquire),
            Phase::Fetch {
                candidates, idx, ..
            } => {
                let silent = candidates.get(*idx).copied().into_iter().collect();
                (silent, RetryCause::TimeoutFetch)
            }
            Phase::Prepare {
                participants,
                yes,
                in_line,
                ..
            } => {
                let silent = participants
                    .iter()
                    .copied()
                    .filter(|s| !yes.contains_key(s) && in_line.get(s) != Some(&true))
                    .collect();
                (silent, RetryCause::TimeoutPrepare)
            }
            // No timer is armed here: a commit tail keeps its own, and a
            // riding write has none.
            Phase::Decided | Phase::Riding => return,
        };
        let err = OpError::Unavailable { kind: st.kind };
        self.stats.timeouts += 1;
        self.planner.unanswered(&silent, &mut self.stats);
        match cause {
            RetryCause::TimeoutFetch => {
                self.recorder.legs_timed_out(req.0, ctx.now());
                self.try_next_candidate(req, None, ctx)
            }
            RetryCause::TimeoutPrepare => self.abort_prepare(req, err, cause, ctx),
            _ => self.fail_attempt(req, err, cause, ctx),
        }
    }

    /// Handles one protocol message. Exposed so composite nodes can
    /// delegate.
    pub fn handle(&mut self, from: SiteId, msg: Msg, ctx: &mut NodeCtx<'_, Msg>) {
        // Any message from a site is proof of life for the health tracker.
        self.planner.heard(from);
        match msg {
            Msg::VersionResp {
                suite,
                req,
                version,
                generation,
                value,
            } => {
                // Any contents go where a content read's answer goes —
                // held until a quorum proves them current, or ending a
                // fetch already begun — and the answer is then a version
                // answer like any other.
                if let Some(value) = value {
                    self.on_contents(from, req, version, value, true, ctx);
                }
                self.on_version_resp(from, suite, req, version, generation, ctx)
            }
            Msg::ReadResp {
                req,
                version,
                value,
                ..
            } => self.on_contents(from, req, version, value, false, ctx),
            Msg::Busy { req, give_way, .. } => self.on_busy(from, req, give_way, ctx),
            Msg::Refused { req, reason, .. } => {
                if reason == RefuseReason::Quarantined {
                    // The site said so itself: its votes are gone until
                    // repair. This is long-lived, so demote it now
                    // instead of accruing timeout suspicion.
                    self.planner.quarantined(from, &mut self.stats);
                }
                let in_prepare = self
                    .ops
                    .get(&req)
                    .is_some_and(|st| matches!(st.phase, Phase::Prepare { .. }));
                if in_prepare {
                    // A refused prepare is a no vote: the coordinator
                    // aborts the round and retries on a healthier quorum.
                    self.on_prepare_vote(from, req, Err(RetryCause::Refused), ctx);
                } else {
                    let refused = SpanOutcome::Refused;
                    (self.recorder).end_leg(req.0, from.0, refused, 0, ctx.now());
                    self.try_next_candidate(req, Some(from), ctx)
                }
            }
            Msg::PrepareVote {
                suite,
                req,
                vote,
                staged,
            } => {
                let vote = match vote {
                    // A promise nobody counts on: to an attempt this
                    // client has given up, or from a site it widened away
                    // from — the abort was lost or overtaken, and the
                    // prepare was staged all the same. Left to the
                    // participant's own probe timer it would hold the
                    // commit lock, and everyone in line behind it, for
                    // nothing: answer it now.
                    Vote::Yes if !self.counts_on(req, from) => {
                        return self.answer_decision_probe(from, suite, req, ctx)
                    }
                    Vote::Yes => Ok(staged),
                    Vote::No => Err(RetryCause::VoteNo),
                };
                self.on_prepare_vote(from, req, vote, ctx)
            }
            // An abort's ack needs no bookkeeping.
            Msg::Ack { req, committed, .. } if committed => self.on_ack(from, req, ctx),
            // Only a prepare is ever answered so — and a re-sent or
            // duplicated one can be answered after the decision, when
            // no reply may send the operation anywhere but forward.
            Msg::StaleConfig { suite, req, .. } => {
                let preparing = |st: &OpState| matches!(st.phase, Phase::Prepare { .. });
                if self.ops.get(&req).is_some_and(preparing) {
                    self.enter_refresh(req, suite, from, ctx)
                }
            }
            Msg::ConfigResp { suite, req, config } => self.on_config_resp(suite, req, config, ctx),
            Msg::DecisionReq { suite, req } => self.answer_decision_probe(from, suite, req, ctx),
            // Server-bound traffic mis-delivered to a pure client: ignore.
            _ => {}
        }
    }

    /// Timer dispatch. Exposed so composite nodes can delegate.
    pub fn handle_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, Msg>) {
        let Some(&kind) = TimerKind::ALL.get((token & 0b111) as usize) else {
            return;
        };
        let req = ReqId::new((token & !CLIENT_TIMER_TAG) >> 3, self.site);
        // A phase cancels its timers when it ends, and a crash drops every
        // timer the site had set, so a timer that fires is its operation's
        // current phase's; one whose operation has ended is ignored.
        match kind {
            TimerKind::CommitResend => self.on_commit_timeout(req, ctx),
            _ if !self.ops.contains_key(&req) => {}
            TimerKind::Retry => self.begin_attempt(req, ctx),
            TimerKind::PhaseTimeout => self.on_phase_timeout(req, ctx),
            TimerKind::Widen => self.on_widen(req, ctx),
        }
    }

    /// Crash: in-flight operations are lost; the decision log survives.
    /// The attached weak representative is volatile — a recovered client
    /// restarts with a cold cache and no leases.
    pub fn handle_crash(&mut self) {
        self.ops.clear();
        self.commits.crash();
        self.recorder.forget();
        self.window.crash();
        self.local.crash();
        self.trains.clear();
        self.planner.crash();
    }

    /// Recovery: reload the durable decision log, and never reuse a
    /// counter from before the crash.
    pub fn handle_recover(&mut self) {
        self.next_counter = self.next_counter.max(self.commits.recover());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CHECKPOINT_RECORDS;
    use crate::suite::SuiteConfig;
    use std::collections::BTreeSet;
    use wv_sim::DetRng;

    const SUITE: ObjectId = ObjectId(1);
    const CLIENT: SiteId = SiteId(3);

    fn config() -> SuiteConfig {
        SuiteConfig::new(
            SUITE,
            VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
            QuorumSpec::new(2, 2),
        )
        .expect("legal")
    }

    fn client() -> ClientNode {
        ClientNode::new(
            CLIENT,
            vec![config()],
            vec![10.0, 20.0, 30.0, 1.0],
            ClientOptions::default(),
        )
    }

    /// The sites whose inquiry asks for the contents too, each with the
    /// version from which it wants them.
    fn contents_asked(sends: &[(SiteId, Msg)]) -> Vec<(SiteId, Version)> {
        let asked = |(to, m): &(SiteId, Msg)| match m {
            Msg::VersionReq { contents_from, .. } => contents_from.map(|from| (*to, from)),
            _ => None,
        };
        sends.iter().filter_map(asked).collect()
    }

    fn effects(ctx: &mut NodeCtx<'_, Msg>) -> Vec<(SiteId, Msg)> {
        ctx.take_effects()
            .into_iter()
            .filter_map(|e| match e {
                wv_net::node::Effect::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn read_inquires_all_hosts_then_fetches_cheapest_current() {
        let mut c = client();
        let mut rng = DetRng::new(1);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let out = effects(&mut ctx);
        assert_eq!(out.len(), 3, "three inquiries and nothing else");
        assert!(out.iter().all(|(_, m)| matches!(m, Msg::VersionReq { .. })));
        // The inquiry to the cheapest site (0, cost 10), and only that one,
        // asks for the contents too — whatever they are, the reader
        // holding nothing.
        assert_eq!(contents_asked(&out), [(SiteId(0), Version::INITIAL)]);
        // Sites 1 and 2 answer: site 1 has v2, site 2 has v1. Current = v2.
        let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
        c.handle(
            SiteId(1),
            Msg::VersionResp {
                suite: SUITE,
                req,
                version: Version(2),
                generation: 1,
                value: None,
            },
            &mut ctx,
        );
        assert!(effects(&mut ctx).is_empty(), "one vote is not a quorum");
        let mut ctx = NodeCtx::new(SimTime::from_millis(12), CLIENT, &mut rng);
        c.handle(
            SiteId(2),
            Msg::VersionResp {
                suite: SUITE,
                req,
                version: Version(1),
                generation: 1,
                value: None,
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        assert_eq!(out.len(), 1);
        // Only site 1 holds the current version.
        assert_eq!(out[0].0, SiteId(1));
        assert!(matches!(out[0].1, Msg::ReadReq { .. }));
        // Content arrives; operation completes.
        let mut ctx = NodeCtx::new(SimTime::from_millis(30), CLIENT, &mut rng);
        c.handle(
            SiteId(1),
            Msg::ReadResp {
                suite: SUITE,
                req,
                version: Version(2),
                value: Bytes::from_static(b"data"),
            },
            &mut ctx,
        );
        assert_eq!(c.completed.len(), 1);
        let done = &c.completed[0];
        assert_eq!(done.kind, OpKind::Read);
        let ok = done.outcome.as_ref().expect("success");
        assert_eq!(ok.version, Version(2));
        assert_eq!(ok.value.as_deref(), Some(&b"data"[..]));
        assert_eq!(done.latency(), SimDuration::from_millis(30));
        assert_eq!(c.in_flight(), 0);
    }

    /// Puts `c`'s writes on the inquiry path, the way a phase that timed
    /// out on site 1 — a member of the cheapest write quorum — does,
    /// until site 1 is heard from again.
    fn site_1_fell_silent(c: &mut ClientNode) {
        c.planner.unanswered(&[SiteId(1)], &mut c.stats);
    }

    /// What the planner holds against `site`: its suspicion score in
    /// thousandths, and whether it is suspected.
    fn suspicion(c: &ClientNode, site: u16) -> (u64, bool) {
        let (_, inputs) = c.planner.audit_inputs(None, &[SiteId(site)]);
        (inputs[0].suspicion_milli, inputs[0].suspected)
    }

    #[test]
    fn write_runs_two_phase_commit_over_cheapest_quorum() {
        let mut c = client();
        let mut rng = DetRng::new(2);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_write(SUITE, &b"new"[..], &mut ctx);
        // Write quorums intersect (w = 2 of 3): nobody is asked for a
        // version. The prepare goes straight to the two cheapest sites, 0
        // (cost 10) and 1 (cost 20), with the lowest floor there is — the
        // participants assign above what they hold.
        let out = effects(&mut ctx);
        let targets: Vec<SiteId> = out.iter().map(|(t, _)| *t).collect();
        assert_eq!(targets, vec![SiteId(0), SiteId(1)]);
        assert!(out.iter().all(|(_, m)| matches!(
            m,
            Msg::Prepare { writes, rebase: true, .. }
                if writes.len() == 1 && writes[0].version == Version(1)
        )));
        // Votes arrive; on the second yes the commit is decided and logged.
        let mut ctx = NodeCtx::new(SimTime::from_millis(20), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::PrepareVote {
                suite: SUITE,
                req,
                vote: Vote::Yes,
                staged: Shared::default(),
            },
            &mut ctx,
        );
        assert!(effects(&mut ctx).is_empty());
        let mut ctx = NodeCtx::new(SimTime::from_millis(21), CLIENT, &mut rng);
        c.handle(
            SiteId(1),
            Msg::PrepareVote {
                suite: SUITE,
                req,
                vote: Vote::Yes,
                staged: Shared::default(),
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, m)| matches!(m, Msg::Commit { .. })));
        assert!(matches!(probe(&mut c, &mut rng, req), Msg::Commit { .. }));
        // That was the commit point: the write is reported, 21 ms in.
        assert_eq!(c.completed.len(), 1);
        assert_eq!(c.completed[0].latency(), SimDuration::from_millis(21));
        assert_eq!(c.in_flight(), 0);
        // The acks end the commit round behind it and retire the decision.
        for s in 0..2u16 {
            let mut ctx = NodeCtx::new(SimTime::from_millis(30), CLIENT, &mut rng);
            c.handle(
                SiteId(s),
                Msg::Ack {
                    suite: SUITE,
                    req,
                    committed: true,
                },
                &mut ctx,
            );
        }
        assert_eq!(c.completed.len(), 1);
        let ok = c.completed[0].outcome.as_ref().expect("success");
        assert_eq!(ok.version, Version(1));
        assert!(!tail_open(&c, req));
        assert!(matches!(probe(&mut c, &mut rng, req), Msg::Abort { .. }));
    }

    #[test]
    fn no_vote_aborts_and_schedules_retry() {
        let mut c = client();
        let mut rng = DetRng::new(3);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_write(SUITE, &b"w"[..], &mut ctx);
        let _ = effects(&mut ctx);
        let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::PrepareVote {
                suite: SUITE,
                req,
                vote: Vote::No,
                staged: Shared::default(),
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        // Aborts to the quorum members.
        assert!(
            out.iter()
                .filter(|(_, m)| matches!(m, Msg::Abort { .. }))
                .count()
                >= 2
        );
        // Not completed yet: a retry is pending under a fresh request id.
        assert_eq!(c.completed.len(), 0);
        assert_eq!(c.in_flight(), 1);
        assert!(!c.ops.contains_key(&req), "retry must use a fresh req id");
    }

    #[test]
    fn refused_prepare_counts_as_a_no_vote() {
        let mut c = client();
        let mut rng = DetRng::new(35);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_write(SUITE, &b"w"[..], &mut ctx);
        let _ = effects(&mut ctx);
        // One quorum member refuses: its disk is quarantined. The round
        // aborts exactly as on a no vote and a retry is scheduled.
        let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::Refused {
                suite: SUITE,
                req,
                reason: RefuseReason::Quarantined,
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        assert!(
            out.iter()
                .filter(|(_, m)| matches!(m, Msg::Abort { .. }))
                .count()
                >= 2
        );
        assert_eq!(c.completed.len(), 0);
        assert_eq!(c.in_flight(), 1, "retry pending");
    }

    #[test]
    fn refused_fetch_moves_to_next_candidate() {
        let mut c = client();
        let mut rng = DetRng::new(36);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let _ = effects(&mut ctx);
        for s in 0..2u16 {
            let mut ctx = NodeCtx::new(SimTime::from_millis(5), CLIENT, &mut rng);
            c.handle(
                SiteId(s),
                Msg::VersionResp {
                    suite: SUITE,
                    req,
                    version: Version(1),
                    generation: 1,
                    value: None,
                },
                &mut ctx,
            );
            let _ = effects(&mut ctx);
        }
        // Site 0's disk stalled; the client reads from site 1 instead.
        let mut ctx = NodeCtx::new(SimTime::from_millis(8), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::Refused {
                suite: SUITE,
                req,
                reason: RefuseReason::Disk,
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(1));
        assert!(matches!(out[0].1, Msg::ReadReq { .. }));
    }

    #[test]
    fn quarantined_refusal_demotes_the_site_immediately() {
        let mut c = health_client();
        let mut rng = DetRng::new(37);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let _ = effects(&mut ctx);
        assert_eq!(c.stats.suspicions_raised, 0);
        let mut ctx = NodeCtx::new(SimTime::from_millis(5), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::Refused {
                suite: SUITE,
                req,
                reason: RefuseReason::Quarantined,
            },
            &mut ctx,
        );
        let _ = effects(&mut ctx);
        // One refusal is enough — no timeout accrual needed.
        assert_eq!(c.stats.suspicions_raised, 1);
        assert!(suspicion(&c, 0).1, "site 0 demoted");
    }

    #[test]
    fn unknown_suite_fails_immediately() {
        let mut c = client();
        let mut rng = DetRng::new(5);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        c.start_read(ObjectId(99), &mut ctx);
        assert_eq!(c.completed.len(), 1);
        assert_eq!(c.completed[0].outcome, Err(OpError::UnknownSuite));
    }

    #[test]
    fn decision_req_answers_presumed_abort() {
        let mut c = client();
        let mut rng = DetRng::new(6);
        let unknown = ReqId::new(77, CLIENT);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::DecisionReq {
                suite: SUITE,
                req: unknown,
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        assert!(matches!(out[0].1, Msg::Abort { .. }));
    }

    /// A write through its inquiry — site 1 fell silent earlier, and
    /// answers now — and into its prepare, out to sites 0 and 1 with the
    /// floor 1.
    fn preparing_write(c: &mut ClientNode, rng: &mut DetRng) -> ReqId {
        site_1_fell_silent(c);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, rng);
        let req = c.start_write(SUITE, &b"new"[..], &mut ctx);
        for s in 0..2u16 {
            let resp = Msg::VersionResp {
                suite: SUITE,
                req,
                version: Version(0),
                generation: 1,
                value: None,
            };
            c.handle(SiteId(s), resp, &mut ctx);
        }
        req
    }

    /// Delivers `msg` for the suite at `at_ms`; returns sends and timers.
    #[allow(clippy::type_complexity)]
    fn deliver(
        c: &mut ClientNode,
        rng: &mut DetRng,
        at_ms: u64,
        from: u16,
        msg: Msg,
    ) -> (Vec<(SiteId, Msg)>, Vec<(SimDuration, u64)>) {
        let mut ctx = NodeCtx::new(SimTime::from_millis(at_ms), CLIENT, rng);
        c.handle(SiteId(from), msg, &mut ctx);
        split_effects(&mut ctx)
    }

    /// Fires `req`'s current phase timeout at `at_ms`.
    #[allow(clippy::type_complexity)]
    fn fire_phase_timer(
        c: &mut ClientNode,
        rng: &mut DetRng,
        at_ms: u64,
        req: ReqId,
    ) -> (Vec<(SiteId, Msg)>, Vec<(SimDuration, u64)>) {
        let token = timer_token(req, TimerKind::PhaseTimeout);
        fire_timer(c, rng, at_ms, token)
    }

    /// Fires the timer `token` at `at_ms`.
    #[allow(clippy::type_complexity)]
    fn fire_timer(
        c: &mut ClientNode,
        rng: &mut DetRng,
        at_ms: u64,
        token: u64,
    ) -> (Vec<(SiteId, Msg)>, Vec<(SimDuration, u64)>) {
        let mut ctx = NodeCtx::new(SimTime::from_millis(at_ms), CLIENT, rng);
        c.handle_timer(token, &mut ctx);
        split_effects(&mut ctx)
    }

    fn yes(req: ReqId, version: u64) -> Msg {
        Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::Yes,
            staged: vec![(data_object(SUITE), Version(version))].into(),
        }
    }

    fn busy(req: ReqId, give_way: bool) -> Msg {
        Msg::Busy {
            suite: SUITE,
            req,
            give_way,
        }
    }

    fn aborts(sends: &[(SiteId, Msg)]) -> Vec<SiteId> {
        let is_abort = |(to, m): &(SiteId, Msg)| matches!(m, Msg::Abort { .. }).then_some(*to);
        sends.iter().filter_map(is_abort).collect()
    }

    #[test]
    fn busy_keeps_the_place_in_line_and_reasks_until_the_site_falls_silent() {
        let mut c = client();
        let mut rng = DetRng::new(4);
        let req = preparing_write(&mut c, &mut rng);
        let timeout = c.options.phase_timeout;
        let reasked = |sends: &[(SiteId, Msg)]| -> Vec<SiteId> {
            let empty = |m: &Msg| matches!(m, Msg::Prepare { req: r, writes, .. } if *r == req && writes.is_empty());
            assert!(sends.iter().all(|(_, m)| empty(m)), "{sends:?}");
            sends.iter().map(|(to, _)| *to).collect()
        };
        assert!(deliver(&mut c, &mut rng, 10, 0, busy(req, false))
            .0
            .is_empty());
        assert!(deliver(&mut c, &mut rng, 10, 1, busy(req, false))
            .0
            .is_empty());
        assert_eq!(c.stats.refused_busy, 2);
        // The phase timer fires with both sites known to keep our place:
        // not a timeout. Both are re-asked, with an empty prepare, and
        // since the prepare holds nothing yet the next look is twice as
        // far away, then four times.
        for (at_ms, factor) in [(5_000, 2), (15_000, 4), (35_000, 4)] {
            let (sends, timers) = fire_phase_timer(&mut c, &mut rng, at_ms, req);
            assert_eq!(reasked(&sends), vec![SiteId(0), SiteId(1)]);
            let delays: Vec<SimDuration> = timers.iter().map(|(d, _)| *d).collect();
            assert_eq!(delays, vec![timeout * factor]);
            deliver(&mut c, &mut rng, at_ms + 10, 0, busy(req, false));
            deliver(&mut c, &mut rng, at_ms + 10, 1, busy(req, false));
        }
        assert_eq!((c.stats.timeouts, c.stats.retries), (0, 0));
        // Site 0 votes. Its promise now keeps a lock waiting on us, so
        // site 1 alone is re-asked, and every timeout.
        deliver(&mut c, &mut rng, 40_000, 0, yes(req, 1));
        let (sends, timers) = fire_phase_timer(&mut c, &mut rng, 55_000, req);
        assert_eq!(reasked(&sends), vec![SiteId(1)]);
        assert_eq!(timers[0].0, timeout);
        // This time nothing comes back — the site crashed and its line
        // with it. The next timer is the classic timeout: abort
        // everywhere, retry under a fresh request id.
        let (sends, _) = fire_timer(&mut c, &mut rng, 60_000, timers[0].1);
        assert_eq!(aborts(&sends), vec![SiteId(0), SiteId(1)]);
        assert_eq!((c.stats.timeouts, c.stats.retries), (1, 1));
        assert_eq!(c.stats.retry_causes[RetryCause::TimeoutPrepare as usize], 1);
        assert!(!c.ops.contains_key(&req));
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn a_site_that_lost_the_line_answers_the_reask_with_no() {
        let mut c = client();
        let mut rng = DetRng::new(4);
        let req = preparing_write(&mut c, &mut rng);
        deliver(&mut c, &mut rng, 10, 0, busy(req, false));
        deliver(&mut c, &mut rng, 10, 1, busy(req, false));
        let (sends, _) = fire_phase_timer(&mut c, &mut rng, 5_000, req);
        assert_eq!(sends.len(), 2, "both sites are re-asked");
        let no = Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::No,
            staged: Shared::default(),
        };
        let (sends, _) = deliver(&mut c, &mut rng, 5_010, 1, no);
        assert_eq!(aborts(&sends), vec![SiteId(0), SiteId(1)]);
        assert_eq!(c.stats.retry_causes[RetryCause::VoteNo as usize], 1);
    }

    #[test]
    fn a_give_way_notice_aborts_only_a_prepare_that_waits_elsewhere() {
        let mut rng = DetRng::new(4);
        // Notice first, then the news of a line at the other site.
        let mut c = client();
        let req = preparing_write(&mut c, &mut rng);
        deliver(&mut c, &mut rng, 10, 0, yes(req, 1));
        let (sends, _) = deliver(&mut c, &mut rng, 11, 0, busy(req, true));
        assert!(
            sends.is_empty(),
            "holding a lock somebody older wants is no reason to abort"
        );
        let (sends, _) = deliver(&mut c, &mut rng, 12, 1, busy(req, false));
        assert_eq!(aborts(&sends), vec![SiteId(0), SiteId(1)]);
        assert_eq!(c.stats.retry_causes[RetryCause::GaveWay as usize], 1);
        assert_eq!(c.stats.retries, 1);
        assert!(!c.ops.contains_key(&req));
        // The other way round.
        let mut c = client();
        let req = preparing_write(&mut c, &mut rng);
        assert!(deliver(&mut c, &mut rng, 10, 1, busy(req, false))
            .0
            .is_empty());
        let (sends, _) = deliver(&mut c, &mut rng, 11, 0, busy(req, true));
        assert_eq!(aborts(&sends), vec![SiteId(0), SiteId(1)]);
        // A prepare whose line has since moved — the site voted — waits
        // for nothing and finishes.
        let mut c = client();
        let req = preparing_write(&mut c, &mut rng);
        deliver(&mut c, &mut rng, 10, 1, busy(req, false));
        deliver(&mut c, &mut rng, 60, 1, yes(req, 1));
        assert!(deliver(&mut c, &mut rng, 61, 1, busy(req, true))
            .0
            .is_empty());
        let (sends, _) = deliver(&mut c, &mut rng, 62, 0, yes(req, 1));
        assert!(sends.iter().all(|(_, m)| matches!(m, Msg::Commit { .. })));
        assert_eq!((sends.len(), c.stats.retries), (2, 0));
    }

    #[test]
    fn a_yes_vote_for_an_attempt_given_up_is_answered_like_a_decision_probe() {
        let mut c = client();
        let mut rng = DetRng::new(4);
        // Site 0 votes no; the attempt is aborted and retried. Site 1's
        // abort is lost, its prepare stands in line regardless and is
        // eventually staged: the yes comes back for a request nobody
        // runs any more. It must not hold the lock until its probe timer.
        let req = preparing_write(&mut c, &mut rng);
        let no = Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::No,
            staged: Shared::default(),
        };
        deliver(&mut c, &mut rng, 10, 0, no);
        let (sends, _) = deliver(&mut c, &mut rng, 900, 1, yes(req, 1));
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            &sends[0],
            (SiteId(1), Msg::Abort { req: r, .. }) if *r == req
        ));
        // A decision that is logged and not yet retired answers commit,
        // at the versions it named.
        let mut c = client();
        let req = decided_write(&mut c, &mut rng);
        c.handle_crash();
        c.handle_recover();
        let (sends, _) = deliver(&mut c, &mut rng, 900, 1, yes(req, 1));
        assert_eq!(sends.len(), 1);
        assert!(decides_version_3(&sends[0].1));
    }

    #[test]
    fn a_probe_from_a_participant_whose_yes_is_missing_gets_it_asked_again() {
        let mut c = client();
        let mut rng = DetRng::new(16);
        let req = preparing_write(&mut c, &mut rng);
        deliver(&mut c, &mut rng, 10, 0, busy(req, false));
        deliver(&mut c, &mut rng, 10, 1, busy(req, false));
        // Site 1 probes: only a staged prepare does, so it has voted and
        // the vote was lost — while this coordinator believes it in line
        // and may not look again for four phase timeouts.
        let probe = Msg::DecisionReq { suite: SUITE, req };
        let (sends, _) = deliver(&mut c, &mut rng, 5_100, 1, probe.clone());
        assert_eq!(sends.len(), 1);
        assert!(matches!(
            &sends[0],
            (SiteId(1), Msg::Prepare { req: r, writes, .. }) if *r == req && writes.is_empty()
        ));
        // Its answer is counted; a probe from a site that has voted still
        // gets no answer before the decision.
        deliver(&mut c, &mut rng, 5_300, 1, yes(req, 1));
        let (sends, _) = deliver(&mut c, &mut rng, 10_100, 1, probe);
        assert!(sends.is_empty(), "{sends:?}");
    }

    #[test]
    fn replies_that_arrive_after_the_decision_are_ignored() {
        let mut c = client();
        let mut rng = DetRng::new(4);
        let req = decided_write(&mut c, &mut rng);
        // A re-asked or duplicated prepare can be answered after the
        // votes that decided the write. None of these may send the
        // decided operation anywhere but forward.
        let stale = Msg::StaleConfig {
            suite: SUITE,
            req,
            generation: 2,
        };
        let no = Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::No,
            staged: Shared::default(),
        };
        let refused = Msg::Refused {
            suite: SUITE,
            req,
            reason: RefuseReason::Disk,
        };
        for late in [
            stale,
            no,
            refused,
            busy(req, true),
            busy(req, false),
            yes(req, 9),
        ] {
            let (sends, timers) = deliver(&mut c, &mut rng, 25, 1, late.clone());
            assert!(
                sends.is_empty() && timers.is_empty(),
                "{late:?} moved a decided op"
            );
            assert!(tail_open(&c, req) && !c.ops.contains_key(&req));
        }
        ack(&mut c, &mut rng, 0, req);
        ack(&mut c, &mut rng, 1, req);
        assert!(!tail_open(&c, req));
        assert_eq!(c.completed.len(), 1, "reported once, at the decision");
        let done = c.completed[0].outcome.as_ref().expect("committed once");
        assert_eq!(done.version, Version(3));
        assert_eq!(c.stats.retries, 0);
    }

    /// Drives one write through a unanimous prepare — site 0 staged
    /// version 1, site 1 (ahead) version 3 — and returns the request id
    /// with the commit decided at version 3, logged, and out to both
    /// participants but acked by neither.
    fn decided_write(c: &mut ClientNode, rng: &mut DetRng) -> ReqId {
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, rng);
        let req = c.start_write(SUITE, &b"new"[..], &mut ctx);
        c.handle(SiteId(0), yes(req, 1), &mut ctx);
        c.handle(SiteId(1), yes(req, 3), &mut ctx);
        let commits = effects(&mut ctx)
            .iter()
            .filter(|(_, m)| decides_version_3(m))
            .count();
        assert_eq!(commits, 2, "decided: commit out to both participants");
        req
    }

    /// Whether `req`'s commit tail is still open.
    fn tail_open(c: &ClientNode, req: ReqId) -> bool {
        (0..3).any(|site| c.commits.counts_on(req, SiteId(site)))
    }

    /// A commit naming version 3 for the suite's data, and nothing else.
    fn decides_version_3(m: &Msg) -> bool {
        matches!(m, Msg::Commit { versions, .. } if versions[..] == [(data_object(SUITE), Version(3))])
    }

    fn ack(c: &mut ClientNode, rng: &mut DetRng, from: u16, req: ReqId) {
        let mut ctx = NodeCtx::new(SimTime::from_millis(30), CLIENT, rng);
        let ack = Msg::Ack {
            suite: SUITE,
            req,
            committed: true,
        };
        c.handle(SiteId(from), ack, &mut ctx);
    }

    /// The coordinator's answer to a participant's decision probe.
    fn probe(c: &mut ClientNode, rng: &mut DetRng, req: ReqId) -> Msg {
        let mut ctx = NodeCtx::new(SimTime::from_millis(40), CLIENT, rng);
        c.handle(SiteId(0), Msg::DecisionReq { suite: SUITE, req }, &mut ctx);
        let mut out = effects(&mut ctx);
        assert_eq!(out.len(), 1, "one answer per probe");
        out.remove(0).1
    }

    /// Enough fully acked writes to push the decision log through at
    /// least one compaction; returns the last request id used.
    fn acked_writes_through_a_compaction(c: &mut ClientNode, rng: &mut DetRng) -> ReqId {
        let mut last = None;
        for _ in 0..CHECKPOINT_RECORDS {
            let req = decided_write(c, rng);
            ack(c, rng, 0, req);
            ack(c, rng, 1, req);
            last = Some(req);
        }
        assert!(
            c.decision_log().wal().len() < CHECKPOINT_RECORDS,
            "the decision log compacts"
        );
        last.expect("wrote")
    }

    #[test]
    fn unacked_decision_answers_commit_across_crash_and_compaction() {
        let mut c = client();
        let mut rng = DetRng::new(7);
        // One participant acks, the other never does: the decision —
        // with the version it named — must stay answerable for as long
        // as the client lives.
        let req = decided_write(&mut c, &mut rng);
        ack(&mut c, &mut rng, 0, req);
        assert!(decides_version_3(&probe(&mut c, &mut rng, req)));
        c.handle_crash();
        c.handle_recover();
        assert!(decides_version_3(&probe(&mut c, &mut rng, req)));
        // Compaction forgets the acked traffic around it, not this one...
        acked_writes_through_a_compaction(&mut c, &mut rng);
        assert!(decides_version_3(&probe(&mut c, &mut rng, req)));
        // ...and the compacted log still carries it over a crash.
        c.handle_crash();
        c.handle_recover();
        assert!(decides_version_3(&probe(&mut c, &mut rng, req)));
    }

    #[test]
    fn fully_acked_decision_is_retired_to_presumed_abort() {
        let mut c = client();
        let mut rng = DetRng::new(9);
        let req = decided_write(&mut c, &mut rng);
        ack(&mut c, &mut rng, 0, req);
        ack(&mut c, &mut rng, 1, req);
        assert_eq!(c.completed.len(), 1);
        assert!(matches!(probe(&mut c, &mut rng, req), Msg::Abort { .. }));
    }

    #[test]
    fn a_tail_out_of_resends_reports_nothing_twice_and_leaves_the_decision_answerable() {
        let mut c = client();
        let mut rng = DetRng::new(17);
        let req = decided_write(&mut c, &mut rng);
        ack(&mut c, &mut rng, 0, req);
        // Site 1 never acks. Every round sends it the decision again...
        let limit = u64::from(ClientOptions::default().commit_resend_limit);
        let resend = timer_token(req, TimerKind::CommitResend);
        for round in 1..=limit {
            let (sends, timers) = fire_timer(&mut c, &mut rng, 5_000 * round, resend);
            assert_eq!(sends.len(), 1, "{sends:?}");
            assert!(sends[0].0 == SiteId(1) && decides_version_3(&sends[0].1));
            assert_eq!(timers, vec![(c.options.phase_timeout, resend)]);
        }
        // ...until the budget is spent: the tail ends, silently.
        let (sends, timers) = fire_timer(&mut c, &mut rng, 5_000 * (limit + 1), resend);
        assert!(sends.is_empty() && timers.is_empty());
        assert!(!tail_open(&c, req));
        assert_eq!(c.stats.timeouts, limit + 1);
        // The write was committed and was reported so, once.
        assert_eq!(c.completed.len(), 1);
        let done = c.completed[0].outcome.as_ref().expect("never in doubt");
        assert_eq!(done.version, Version(3));
        // Site 1 resolves through its own probes, whenever it comes back.
        assert!(decides_version_3(&probe(&mut c, &mut rng, req)));
        c.handle_crash();
        c.handle_recover();
        assert!(decides_version_3(&probe(&mut c, &mut rng, req)));
        acked_writes_through_a_compaction(&mut c, &mut rng);
        assert!(decides_version_3(&probe(&mut c, &mut rng, req)));
    }

    #[test]
    fn the_report_frees_the_pipeline_slot_and_the_acks_launch_nothing() {
        let mut c = ClientNode::new(
            CLIENT,
            vec![config()],
            vec![10.0, 20.0, 30.0, 1.0],
            ClientOptions {
                pipeline_depth: Some(1),
                ..ClientOptions::default()
            },
        );
        let mut rng = DetRng::new(18);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let first = c.start_write(SUITE, &b"1"[..], &mut ctx);
        let second = c.start_write(SUITE, &b"2"[..], &mut ctx);
        let _third = c.start_write(SUITE, &b"3"[..], &mut ctx);
        let _ = effects(&mut ctx);
        assert_eq!((c.ops.len(), c.queued()), (1, 2));
        deliver(&mut c, &mut rng, 10, 0, yes(first, 1));
        // The last yes decides, reports, and hands the slot to the second
        // write in the same turn: its prepares leave beside the commits.
        let (sends, _) = deliver(&mut c, &mut rng, 10, 1, yes(first, 1));
        assert_eq!(c.completed.len(), 1);
        let launched = |m: &Msg| matches!(m, Msg::Prepare { req, .. } if *req == second);
        assert_eq!(sends.iter().filter(|(_, m)| launched(m)).count(), 2);
        assert_eq!((c.ops.len(), c.queued()), (1, 1));
        // The slot was freed once: the acks free nothing and launch nothing.
        for site in 0..2 {
            let ack = Msg::Ack {
                suite: SUITE,
                req: first,
                committed: true,
            };
            let (sends, timers) = deliver(&mut c, &mut rng, 20, site, ack);
            assert!(sends.is_empty() && timers.is_empty(), "{sends:?}");
        }
        assert!(!tail_open(&c, first));
        assert_eq!((c.ops.len(), c.queued(), c.completed.len()), (1, 1, 1));
    }

    #[test]
    fn the_report_drops_the_writers_leased_entry_and_the_last_ack_drops_nothing() {
        let mut c = cache_client(Some(SimDuration::from_secs(60)));
        let mut rng = DetRng::new(19);
        warm(&mut c, 2, b"old", SimTime::ZERO);
        let write = decided_write(&mut c, &mut rng);
        assert_eq!(c.completed.len(), 1, "reported at the decision");
        // The writer's own read right after the report is not served the
        // overwritten entry, lease or no lease: it goes to the quorum...
        let mut ctx = NodeCtx::new(SimTime::from_millis(1), CLIENT, &mut rng);
        let read = c.start_read(SUITE, &mut ctx);
        assert_eq!(c.completed.len(), 1);
        assert!(!effects(&mut ctx).is_empty());
        // ...which vouches for version 3, and the fetch fills the entry
        // and arms its lease — all before the write's acks are in.
        answer_version(&mut c, &mut rng, 5, 0, read, 3);
        answer_version(&mut c, &mut rng, 5, 1, read, 3);
        let new = Msg::ReadResp {
            suite: SUITE,
            req: read,
            version: Version(3),
            value: Bytes::from_static(b"new"),
        };
        deliver(&mut c, &mut rng, 9, 0, new);
        assert_eq!(c.completed.len(), 2);
        // The acks must not wipe an entry newer than the write they end.
        ack(&mut c, &mut rng, 0, write);
        ack(&mut c, &mut rng, 1, write);
        assert!(!tail_open(&c, write));
        let mut ctx = NodeCtx::new(SimTime::from_millis(40), CLIENT, &mut rng);
        c.start_read(SUITE, &mut ctx);
        assert!(effects(&mut ctx).is_empty(), "served inside the lease");
        let served = c.completed[2].outcome.as_ref().expect("served");
        assert_eq!(served.version, Version(3));
        assert_eq!(served.value.as_deref(), Some(&b"new"[..]));
    }

    #[test]
    fn recovery_never_reissues_a_counter_once_every_decision_is_retired() {
        let mut c = client();
        let mut rng = DetRng::new(10);
        let last = acked_writes_through_a_compaction(&mut c, &mut rng);
        // Every decision is retired, so the last compaction kept one (the
        // high-water mark); less than a threshold's worth ride behind it.
        let retained = c.decision_log().len();
        assert!(
            (1..=1 + CHECKPOINT_RECORDS / 3).contains(&retained),
            "retained {retained} decisions"
        );
        c.handle_crash();
        // A process restart forgets the in-memory counter; only the
        // decision log can keep request ids unique.
        c.next_counter = 1;
        c.handle_recover();
        let fresh = decided_write(&mut c, &mut rng);
        assert!(
            fresh.counter() > last.counter(),
            "{fresh:?} reuses a counter at or below {last:?}"
        );
    }

    #[test]
    fn stale_responses_from_finished_ops_are_ignored() {
        let mut c = client();
        let mut rng = DetRng::new(8);
        let ghost = ReqId::new(40, CLIENT);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::VersionResp {
                suite: SUITE,
                req: ghost,
                version: Version(9),
                generation: 1,
                value: None,
            },
            &mut ctx,
        );
        c.handle(
            SiteId(0),
            Msg::PrepareVote {
                suite: SUITE,
                req: ghost,
                vote: Vote::No,
                staged: Shared::default(),
            },
            &mut ctx,
        );
        c.handle(
            SiteId(0),
            Msg::Ack {
                suite: SUITE,
                req: ghost,
                committed: true,
            },
            &mut ctx,
        );
        // (A stale *yes* is answered: the participant is holding a lock
        // for it — see `a_yes_vote_for_an_attempt_given_up_…`.)
        assert!(effects(&mut ctx).is_empty());
        assert_eq!(c.completed.len(), 0);
    }

    #[test]
    fn answers_given_under_a_superseded_configuration_are_not_counted_under_the_new_one() {
        // Generation 1 is r = 2, w = 2 over three sites; generation 2 is
        // r = 1, w = 3. A read's inquiry goes out under generation 1 and
        // site 2, which missed the last write, answers v0. Then this
        // client adopts generation 2 (its own reconfiguration finished,
        // or another op's refresh brought it). Under generation 2 one
        // vote is a read quorum — but not one given before the change,
        // when a write quorum was two sites that need not include it.
        let mut c = client();
        let mut rng = DetRng::new(8);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let _ = effects(&mut ctx);
        let answer = |req: ReqId, version: u64, generation: u64| Msg::VersionResp {
            suite: SUITE,
            req,
            version: Version(version),
            generation,
            value: None,
        };
        assert!(deliver(&mut c, &mut rng, 5, 2, answer(req, 0, 1))
            .0
            .is_empty());
        let next = config()
            .evolve(config().assignment, QuorumSpec::new(1, 3))
            .expect("legal");
        let mut ctx = NodeCtx::new(SimTime::from_millis(6), CLIENT, &mut rng);
        c.on_config_resp(SUITE, ReqId::new(99, CLIENT), next, &mut ctx);
        // The next answer finds the geometry changed: nothing collected
        // so far counts — not the contents this one brings either, which
        // one vote of generation 2 would otherwise call current — and the
        // read asks everybody again.
        let with_contents = Msg::VersionResp {
            suite: SUITE,
            req,
            version: Version(0),
            generation: 1,
            value: Some(Bytes::new()),
        };
        let (sends, _) = deliver(&mut c, &mut rng, 7, 0, with_contents);
        assert!(c.completed.is_empty(), "completed on pre-change evidence");
        let asked: Vec<SiteId> = sends
            .iter()
            .filter(|(_, m)| matches!(m, Msg::VersionReq { req: r, .. } if *r != req))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(asked, vec![SiteId(0), SiteId(1), SiteId(2)]);
        assert_eq!(c.stats.retry_causes[RetryCause::StaleConfig as usize], 1);
    }

    #[test]
    fn a_reconfiguration_whose_fetch_outlives_its_generation_starts_over() {
        // The same rule for what a reconfiguration counted before its
        // fetch. Sites 0 and 1 answer its inquiry under generation 1 and the
        // fetch goes out; then this client adopts generation 2, in which
        // site 2 holds three of five votes and w = 3. The plan the contents
        // would feed is made against a configuration the responders were
        // never counted under (0 and 1 are no write quorum of it): the
        // operation starts over instead of sitting in its fetch phase.
        let mut c = client();
        let mut rng = DetRng::new(22);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_reconfigure(SUITE, config().assignment, QuorumSpec::new(2, 2), &mut ctx);
        let _ = effects(&mut ctx);
        answer_version(&mut c, &mut rng, 5, 0, req, 2);
        let (sends, _) = answer_version(&mut c, &mut rng, 6, 1, req, 2);
        assert!(
            matches!(sends[..], [(SiteId(0), Msg::ReadReq { .. })]),
            "{sends:?}"
        );
        let votes = VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 3)]);
        let next = config()
            .evolve(votes, QuorumSpec::new(3, 3))
            .expect("legal");
        let mut ctx = NodeCtx::new(SimTime::from_millis(7), CLIENT, &mut rng);
        c.on_config_resp(SUITE, ReqId::new(99, CLIENT), next, &mut ctx);
        let contents = Msg::ReadResp {
            suite: SUITE,
            req,
            version: Version(2),
            value: Bytes::from_static(b"v"),
        };
        let (sends, _) = deliver(&mut c, &mut rng, 9, 0, contents);
        let asked: Vec<SiteId> = sends
            .iter()
            .filter(|(_, m)| matches!(m, Msg::VersionReq { req: r, .. } if *r != req))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(asked, vec![SiteId(0), SiteId(1), SiteId(2)], "{sends:?}");
        assert_eq!(c.stats.retry_causes[RetryCause::StaleConfig as usize], 1);
        assert_eq!(c.in_flight(), 1);
    }

    #[test]
    fn a_writers_floors_are_not_bound_to_the_generation_they_were_asked_under() {
        // The rule above is a reader's. A writer's answers are floors for
        // the version its participants assign under their commit locks,
        // and the generation is judged there too: the prepare names the
        // one the client holds when it leaves. So a write that adopts a
        // configuration mid-inquiry goes on with what it has collected.
        let mut c = client();
        site_1_fell_silent(&mut c);
        let mut rng = DetRng::new(8);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_write(SUITE, &b"w"[..], &mut ctx);
        assert!(matches!(effects(&mut ctx)[0].1, Msg::VersionReq { .. }));
        assert!(answer_version(&mut c, &mut rng, 5, 0, req, 4).0.is_empty());
        let next = config()
            .evolve(config().assignment, QuorumSpec::new(2, 2))
            .expect("legal");
        let mut ctx = NodeCtx::new(SimTime::from_millis(6), CLIENT, &mut rng);
        c.on_config_resp(SUITE, ReqId::new(99, CLIENT), next, &mut ctx);
        let (sends, _) = answer_version(&mut c, &mut rng, 7, 2, req, 3);
        let sent: Vec<(SiteId, ReqId, u64, u64)> = prepares(&sends)
            .into_iter()
            .map(|(to, r, _, install)| (to, r, install.generation, install.version.0))
            .collect();
        assert_eq!(sent, [(SiteId(0), req, 2, 5), (SiteId(2), req, 2, 5)]);
        assert_eq!(c.stats.retries, 0);
    }

    #[test]
    fn a_transactions_inquiry_counts_each_answer_once_and_under_its_own_suite() {
        // Three suites on the same three sites; the transaction writes the
        // first two, and inquires because site 1 is remembered silent.
        let suites = [SUITE, ObjectId(2), ObjectId(3)];
        let configs = suites.map(|s| SuiteConfig {
            suite: s,
            ..config()
        });
        let options = ClientOptions {
            health: Some(HealthOptions::default()),
            ..ClientOptions::default()
        };
        let costs = vec![10.0, 20.0, 30.0, 1.0];
        let mut c = ClientNode::new(CLIENT, configs.to_vec(), costs, options);
        site_1_fell_silent(&mut c);
        let mut rng = DetRng::new(8);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let writes = vec![(suites[0], Bytes::new()), (suites[1], Bytes::new())];
        let req = c.start_transaction(writes, &mut ctx);
        let (sends, timers) = split_effects(&mut ctx);
        assert_eq!(sends.len(), 6, "both suites ask all three sites");
        let about = |suite: ObjectId, version: u64| Msg::VersionResp {
            suite,
            req,
            version: Version(version),
            generation: 1,
            value: None,
        };
        // Site 0 answers about each written suite twice, and about a suite
        // the transaction does not touch: two answers, the newer of each.
        for (suite, version) in [(0, 1), (2, 9), (1, 1), (0, 2), (1, 2)] {
            let (sends, _) = deliver(&mut c, &mut rng, 5, 0, about(suites[suite], version));
            assert!(sends.is_empty(), "one site is no quorum of either suite");
        }
        let Phase::Inquire { answers, .. } = &c.ops[&req].phase else {
            panic!("still inquiring");
        };
        let two = Version(2);
        assert_eq!(
            answers[..],
            [(SUITE, SiteId(0), two), (suites[1], SiteId(0), two)]
        );
        // The timeout holds sites 1 and 2 silent — asked about both suites,
        // each once.
        let mut ctx = NodeCtx::new(SimTime::from_millis(400), CLIENT, &mut rng);
        c.handle_timer(timers[0].1, &mut ctx);
        assert_eq!(suspicion(&c, 0), (0, false));
        assert_eq!(suspicion(&c, 1), (2000, true), "and once before");
        assert_eq!(suspicion(&c, 2), (1000, false));
    }

    #[test]
    fn newer_generation_in_inquiry_triggers_refresh() {
        let mut c = client();
        let mut rng = DetRng::new(9);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let _ = effects(&mut ctx);
        // The answer carries the contents it was asked for, too: under a
        // configuration this client has not seen they prove nothing.
        let mut ctx = NodeCtx::new(SimTime::from_millis(5), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::VersionResp {
                suite: SUITE,
                req,
                version: Version(4),
                generation: 3,
                value: Some(Bytes::from_static(b"under generation 3")),
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(0));
        assert!(matches!(out[0].1, Msg::ConfigReq { .. }));
        // The config arrives; the client adopts it and restarts.
        let cfg2 = config()
            .evolve(VoteAssignment::equal(3), QuorumSpec::new(1, 3))
            .expect("legal");
        let mut cfg3 = cfg2.clone();
        cfg3.generation = 3;
        let mut ctx = NodeCtx::new(SimTime::from_millis(9), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::ConfigResp {
                suite: SUITE,
                req,
                config: cfg3.clone(),
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        // Restarted: fresh inquiries to all sites under the new config.
        assert_eq!(out.len(), 3);
        let Some((_, Msg::VersionReq { req: again, .. })) = out.first() else {
            panic!("{out:?}");
        };
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, Msg::VersionReq { req, .. } if req == again)));
        assert_eq!(c.config(SUITE).expect("cfg").generation, 3);
        // The contents went with the attempt that received them: a read
        // quorum (r = 1 now) that settles without any has to fetch.
        let mut ctx = NodeCtx::new(SimTime::from_millis(14), CLIENT, &mut rng);
        let answer = Msg::VersionResp {
            suite: SUITE,
            req: *again,
            version: Version(4),
            generation: 3,
            value: None,
        };
        c.handle(SiteId(1), answer, &mut ctx);
        let out = effects(&mut ctx);
        assert!(c.completed.is_empty());
        assert!(
            matches!(out[..], [(SiteId(1), Msg::ReadReq { .. })]),
            "{out:?}"
        );
    }

    #[test]
    fn plan_cache_serves_repeat_decisions_and_invalidates_on_adoption() {
        let mut c = client();
        let mut rng = DetRng::new(11);
        let counted = |c: &ClientNode| (c.stats.plan_cache_misses, c.stats.plan_cache_hits);
        // First decision (the optimistic-fetch guess) builds the plan.
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        assert_eq!(counted(&c), (1, 0));
        // The fetch the quorum calls for ranks from the cache.
        answer_version(&mut c, &mut rng, 5, 0, req, 1);
        answer_version(&mut c, &mut rng, 5, 1, req, 1);
        assert_eq!(counted(&c), (1, 1));
        // Adopting a newer configuration drops the plan
        // (`Planner::forget`); the next decision rebuilds it.
        let cfg2 = config()
            .evolve(VoteAssignment::equal(3), QuorumSpec::new(1, 3))
            .expect("legal");
        let mut ctx = NodeCtx::new(SimTime::from_millis(9), CLIENT, &mut rng);
        c.on_config_resp(SUITE, req, cfg2, &mut ctx);
        let _ = c.start_read(SUITE, &mut ctx);
        assert_eq!(counted(&c), (2, 1), "rebuild counts as a miss");
    }

    // ---- load-balanced selection, pipelining, per-site load ----

    fn lb_client(costs: Vec<f64>) -> ClientNode {
        ClientNode::new(
            CLIENT,
            vec![config()],
            costs,
            ClientOptions {
                quorum_policy: QuorumPolicy::LoadBalanced,
                ..ClientOptions::default()
            },
        )
    }

    #[test]
    fn load_balanced_spreads_reads_across_cost_ties_deterministically() {
        let run = || {
            let mut c = lb_client(vec![10.0, 10.0, 10.0, 1.0]);
            let mut rng = DetRng::new(13);
            let mut targets = Vec::new();
            for i in 0..6u64 {
                let mut ctx = NodeCtx::new(SimTime::from_millis(i), CLIENT, &mut rng);
                let _ = c.start_read(SUITE, &mut ctx);
                let asked = contents_asked(&effects(&mut ctx));
                assert_eq!(asked.len(), 1, "one site asked for the contents per read");
                targets.push(asked[0].0);
            }
            (targets, c.stats.plan_cache_misses, c.stats.plan_cache_hits)
        };
        let (targets, misses, hits) = run();
        let distinct: BTreeSet<SiteId> = targets.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            3,
            "equal-cost representatives all take fetch load: {targets:?}"
        );
        assert_eq!(misses, 1, "rotation reuses the cached plan");
        assert_eq!(hits, 5);
        // Rebuilding the same client replays the exact same schedule.
        assert_eq!(run(), (targets, misses, hits));
    }

    #[test]
    fn load_balanced_keeps_expensive_sites_out_of_the_rotation() {
        let mut c = lb_client(vec![10.0, 10.0, 30.0, 1.0]);
        let mut rng = DetRng::new(14);
        for i in 0..6u64 {
            let mut ctx = NodeCtx::new(SimTime::from_millis(i), CLIENT, &mut rng);
            let _ = c.start_read(SUITE, &mut ctx);
            for (to, _) in contents_asked(&effects(&mut ctx)) {
                assert_ne!(to, SiteId(2), "rotation must stay within cost ties");
            }
        }
    }

    #[test]
    fn pipeline_depth_one_queues_and_launches_in_fifo_order() {
        let mut c = ClientNode::new(
            CLIENT,
            vec![config()],
            vec![10.0, 20.0, 30.0, 1.0],
            ClientOptions {
                pipeline_depth: Some(1),
                ..ClientOptions::default()
            },
        );
        let mut rng = DetRng::new(15);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let first = c.start_read(SUITE, &mut ctx);
        assert!(
            !effects(&mut ctx).is_empty(),
            "first op launches immediately"
        );
        let mut ctx = NodeCtx::new(SimTime::from_millis(1), CLIENT, &mut rng);
        let second = c.start_read(SUITE, &mut ctx);
        assert!(effects(&mut ctx).is_empty(), "window full: second op waits");
        assert_eq!(c.queued(), 1);
        assert_eq!(c.in_flight(), 2);
        // Finish the first read: sites 1 and 2 report v1, then site 1 serves it.
        for s in 1..3u16 {
            let mut ctx = NodeCtx::new(SimTime::from_millis(5), CLIENT, &mut rng);
            c.handle(
                SiteId(s),
                Msg::VersionResp {
                    suite: SUITE,
                    req: first,
                    version: Version(1),
                    generation: 1,
                    value: None,
                },
                &mut ctx,
            );
            let _ = effects(&mut ctx);
        }
        let mut ctx = NodeCtx::new(SimTime::from_millis(8), CLIENT, &mut rng);
        c.handle(
            SiteId(1),
            Msg::ReadResp {
                suite: SUITE,
                req: first,
                version: Version(1),
                value: Bytes::from_static(b"v"),
            },
            &mut ctx,
        );
        let out = effects(&mut ctx);
        assert_eq!(c.completed.len(), 1);
        assert_eq!(c.queued(), 0, "freed slot launches the queued op");
        assert!(
            out.iter()
                .any(|(_, m)| matches!(m, Msg::VersionReq { req, .. } if *req == second)),
            "second op's inquiries ride the completion turn"
        );
    }

    #[test]
    fn a_deep_backlog_waits_outside_ops_and_completes_in_submission_order() {
        let mut c = ClientNode::new(
            CLIENT,
            vec![config()],
            vec![10.0, 20.0, 30.0, 1.0],
            ClientOptions {
                pipeline_depth: Some(4),
                ..ClientOptions::default()
            },
        );
        let mut rng = DetRng::new(20);
        let submitted: Vec<(ReqId, SimTime)> = (0..1000)
            .map(|i| {
                let at = SimTime::from_micros(i);
                let mut ctx = NodeCtx::new(at, CLIENT, &mut rng);
                (c.start_read(SUITE, &mut ctx), at)
            })
            .collect();
        assert_eq!((c.ops.len(), c.queued(), c.in_flight()), (4, 996, 1000));
        // Each read completes on the cheapest site's answer, contents
        // included, and a second vote; the next submission takes its slot.
        for (i, &(req, _)) in submitted.iter().enumerate() {
            deliver(&mut c, &mut rng, 10, 0, answer(req, 1, Some(b"v")));
            deliver(&mut c, &mut rng, 10, 1, answer(req, 1, None));
            assert_eq!(c.completed.len(), i + 1, "{req:?}");
            assert!(c.ops.len() <= 4);
        }
        let done: Vec<_> = c.completed.iter().map(|op| (op.req, op.started)).collect();
        assert_eq!(done, submitted);
        assert!(c.completed.iter().all(|op| op.outcome.is_ok()));
    }

    #[test]
    fn site_load_counts_data_requests_not_inquiries() {
        let mut c = client();
        let mut rng = DetRng::new(16);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let _ = c.start_read(SUITE, &mut ctx);
        let _ = effects(&mut ctx);
        // The inquiry that asks the cheapest site for the contents too is
        // a data request; the bare inquiries are free.
        assert_eq!(c.site_load(), [1, 0, 0, 0]);
    }

    // ---- health tracking, adaptive timeouts, backoff ----

    fn health_client() -> ClientNode {
        ClientNode::new(
            CLIENT,
            vec![config()],
            vec![10.0, 20.0, 30.0, 1.0],
            ClientOptions {
                health: Some(HealthOptions::default()),
                ..ClientOptions::default()
            },
        )
    }

    #[allow(clippy::type_complexity)]
    fn split_effects(ctx: &mut NodeCtx<'_, Msg>) -> (Vec<(SiteId, Msg)>, Vec<(SimDuration, u64)>) {
        let mut sends = Vec::new();
        let mut timers = Vec::new();
        for e in ctx.take_effects() {
            match e {
                wv_net::node::Effect::Send { to, msg } => sends.push((to, msg)),
                wv_net::node::Effect::Timer { delay, token } => timers.push((delay, token)),
                wv_net::node::Effect::Cancel { .. } => {}
            }
        }
        (sends, timers)
    }

    #[test]
    fn retry_backoff_doubles_caps_and_jitters_deterministically() {
        let c = client();
        let req = ReqId::new(42, CLIENT);
        let base = c.options.backoff.as_millis_f64();
        let cap = c.options.backoff_cap.as_millis_f64();
        for attempts in 1..12u32 {
            let d = c.retry_delay(req, attempts).as_millis_f64();
            let step = (base * 2f64.powi(attempts as i32 - 1)).min(cap);
            assert!(
                d >= step && d <= step * 1.5,
                "attempt {attempts}: delay {d}ms outside [{step}, {}]",
                step * 1.5
            );
            // Deterministic: same inputs, same delay.
            assert_eq!(c.retry_delay(req, attempts), c.retry_delay(req, attempts));
        }
        // Jitter decorrelates distinct requests retrying in lockstep.
        assert_ne!(
            c.retry_delay(ReqId::new(42, CLIENT), 3),
            c.retry_delay(ReqId::new(43, CLIENT), 3),
        );
    }

    // ---- attached weak representative (cache tier) ----

    fn cache_client(lease: Option<SimDuration>) -> ClientNode {
        let wr = match lease {
            Some(ttl) => WeakRepOptions::lease(ttl),
            None => WeakRepOptions::validated(),
        };
        ClientNode::new(
            CLIENT,
            vec![config()],
            vec![10.0, 20.0, 30.0, 1.0],
            ClientOptions {
                weak_rep: Some(wr),
                ..ClientOptions::default()
            },
        )
    }

    /// Fills `c`'s attached entry at `version` as of `now`, the way a read
    /// the tier missed does, without counting that miss.
    fn warm(c: &mut ClientNode, version: u64, value: &'static [u8], now: SimTime) {
        let (value, mut scratch) = (Bytes::from_static(value), ClientStats::default());
        (c.local).filled(SUITE, Version(version), &value, now, &mut scratch);
    }

    /// The version of `c`'s attached entry, if it holds one.
    fn attached(c: &ClientNode) -> Option<Version> {
        c.local.early(SUITE).map(|(version, _)| version)
    }

    #[test]
    fn an_update_weak_pushed_at_a_pure_client_changes_nothing() {
        let (mut c, mut rng) = (cache_client(None), DetRng::new(47));
        warm(&mut c, 1, b"one", SimTime::ZERO);
        let push = Msg::UpdateWeak {
            suite: SUITE,
            version: Version(2),
            value: Bytes::from_static(b"two"),
        };
        deliver(&mut c, &mut rng, 1, 0, push);
        assert_eq!(attached(&c), Some(Version(1)), "only a read fills");
        // The next read still holds v1: it asks from v2, and the quorum's
        // v2 is not the entry's to serve.
        let (req, sends) = read_at(&mut c, &mut rng, 2);
        assert_eq!(contents_asked(&sends), [(SiteId(0), Version(2))]);
        deliver(&mut c, &mut rng, 20, 1, answer(req, 2, None));
        deliver(&mut c, &mut rng, 30, 2, answer(req, 2, None));
        deliver(&mut c, &mut rng, 40, 1, read_resp(req, 2, b"two"));
        assert_eq!(read_back(&c, 0), (2, b"two".to_vec()));
        assert_eq!((c.stats.cache_hits, c.stats.cache_misses), (0, 1));
    }

    #[test]
    fn validated_cache_completes_from_local_copy_when_quorum_confirms() {
        let mut c = cache_client(None);
        warm(&mut c, 2, b"warm", SimTime::ZERO);
        let mut rng = DetRng::new(10);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let out = effects(&mut ctx);
        // A warm cache stands in for the content read: inquiries only, one
        // asking for the contents should they be newer than the entry.
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, m)| matches!(m, Msg::VersionReq { .. })));
        assert_eq!(contents_asked(&out), [(SiteId(0), Version(3))]);
        // The quorum confirms v2 is current: the read completes locally.
        for s in 0..2u16 {
            let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
            c.handle(
                SiteId(s),
                Msg::VersionResp {
                    suite: SUITE,
                    req,
                    version: Version(2),
                    generation: 1,
                    value: None,
                },
                &mut ctx,
            );
            assert!(
                effects(&mut ctx).is_empty(),
                "a cache-served read costs zero data rpcs"
            );
        }
        assert_eq!(c.completed.len(), 1);
        let ok = c.completed[0].outcome.as_ref().expect("success");
        assert_eq!(ok.version, Version(2));
        assert_eq!(ok.value.as_deref(), Some(&b"warm"[..]));
        assert_eq!(c.stats.cache_hits, 1);
        assert_eq!(c.stats.cache_misses, 0);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn stale_cache_falls_through_to_fetch_and_counts_a_miss() {
        let mut c = cache_client(None);
        warm(&mut c, 1, b"old", SimTime::ZERO);
        let mut rng = DetRng::new(11);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let _ = effects(&mut ctx);
        // The quorum reports v2 before the site asked for anything newer
        // than v1 has answered: the local copy is behind, so fetch.
        for s in 1..3u16 {
            let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
            c.handle(
                SiteId(s),
                Msg::VersionResp {
                    suite: SUITE,
                    req,
                    version: Version(2),
                    generation: 1,
                    value: None,
                },
                &mut ctx,
            );
        }
        let mut ctx = NodeCtx::new(SimTime::from_millis(30), CLIENT, &mut rng);
        c.handle(
            SiteId(1),
            Msg::ReadResp {
                suite: SUITE,
                req,
                version: Version(2),
                value: Bytes::from_static(b"new"),
            },
            &mut ctx,
        );
        assert_eq!(c.completed.len(), 1);
        assert_eq!(c.stats.cache_hits, 0);
        assert_eq!(c.stats.cache_misses, 1);
        assert_eq!(c.stats.reads_fetched, 1);
        // The fetch refreshed the local copy for the next read.
        assert_eq!(attached(&c), Some(Version(2)));
    }

    #[test]
    fn lease_serves_quorum_free_and_expires_exactly_at_the_boundary() {
        let mut c = cache_client(Some(SimDuration::from_millis(100)));
        warm(&mut c, 1, b"leased", SimTime::ZERO);
        let mut rng = DetRng::new(12);
        // t = 99ms: inside the lease — served with zero messages.
        let mut ctx = NodeCtx::new(SimTime::from_millis(99), CLIENT, &mut rng);
        c.start_read(SUITE, &mut ctx);
        assert!(effects(&mut ctx).is_empty(), "lease reads are quorum-free");
        assert_eq!(c.completed.len(), 1);
        assert_eq!(c.stats.cache_hits, 1);
        // t = 100ms: the lease expires *exactly* at read time — the read
        // must fall back to the quorum path, not serve stale data.
        let mut ctx = NodeCtx::new(SimTime::from_millis(100), CLIENT, &mut rng);
        c.start_read(SUITE, &mut ctx);
        let out = effects(&mut ctx);
        assert_eq!(c.stats.lease_expiries, 1);
        assert_eq!(
            out.iter()
                .filter(|(_, m)| matches!(m, Msg::VersionReq { .. }))
                .count(),
            3,
            "expired lease goes back to the inquiry quorum"
        );
    }

    #[test]
    fn crash_during_refresh_cold_starts_the_cache() {
        let mut c = cache_client(None);
        let mut rng = DetRng::new(14);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_read(SUITE, &mut ctx);
        let _ = effects(&mut ctx);
        // The quorum answers; the refresh fetch is now in flight.
        for s in 0..2u16 {
            let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
            c.handle(
                SiteId(s),
                Msg::VersionResp {
                    suite: SUITE,
                    req,
                    version: Version(1),
                    generation: 1,
                    value: None,
                },
                &mut ctx,
            );
        }
        c.handle_crash();
        // The refresh lands after the crash: it belongs to a dead
        // operation and must not fill the (now cold) cache.
        let mut ctx = NodeCtx::new(SimTime::from_millis(30), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::ReadResp {
                suite: SUITE,
                req,
                version: Version(1),
                value: Bytes::from_static(b"late"),
            },
            &mut ctx,
        );
        assert!(c.completed.is_empty());
        assert!(attached(&c).is_none(), "no fill from a dead operation");
    }

    #[test]
    fn newer_config_invalidates_the_cache_mid_lease() {
        let mut c = cache_client(Some(SimDuration::from_secs(10)));
        warm(&mut c, 3, b"pre", SimTime::ZERO);
        let next = config()
            .evolve(
                VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]),
                QuorumSpec::new(2, 2),
            )
            .expect("legal");
        let mut rng = DetRng::new(15);
        let mut ctx = NodeCtx::new(SimTime::from_millis(5), CLIENT, &mut rng);
        c.handle(
            SiteId(0),
            Msg::ConfigResp {
                suite: SUITE,
                req: ReqId::new(999, CLIENT),
                config: next,
            },
            &mut ctx,
        );
        // A read well inside the original lease window goes to quorum:
        // the lease died with the configuration it was granted under.
        let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
        c.start_read(SUITE, &mut ctx);
        assert!(
            !effects(&mut ctx).is_empty(),
            "reconfiguration must invalidate the attached weak rep"
        );
        assert_eq!(c.stats.cache_hits, 0);
        assert!(attached(&c).is_none());
    }

    // ---- one write path: writes, transactions, the ranking seam ----

    /// Delivers `from`'s version answer at `at_ms`, returning what the
    /// client sent and armed in response.
    #[allow(clippy::type_complexity)]
    fn answer_version(
        c: &mut ClientNode,
        rng: &mut DetRng,
        at_ms: u64,
        from: u16,
        req: ReqId,
        version: u64,
    ) -> (Vec<(SiteId, Msg)>, Vec<(SimDuration, u64)>) {
        deliver(c, rng, at_ms, from, answer(req, version, None))
    }

    #[test]
    fn one_suite_transaction_sends_exactly_what_a_write_sends() {
        // Site costs are not monotone in site id, so cost order (2, 1, 0)
        // and site order differ: the quorum must leave cheapest-first.
        let twin = || {
            let costs = vec![30.0, 20.0, 10.0, 1.0];
            ClientNode::new(CLIENT, vec![config()], costs, ClientOptions::default())
        };
        let (mut w, mut t) = (twin(), twin());
        let (mut rng_w, mut rng_t) = (DetRng::new(40), DetRng::new(40));
        let mut ctx_w = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng_w);
        let mut ctx_t = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng_t);
        let req = w.start_write(SUITE, &b"v"[..], &mut ctx_w);
        let writes = vec![(SUITE, Bytes::from_static(b"v"))];
        assert_eq!(t.start_transaction(writes, &mut ctx_t), req);
        // Both go straight to prepare, and leave cheapest-first.
        let (sent_w, sent_t) = (split_effects(&mut ctx_w), split_effects(&mut ctx_t));
        assert_eq!(sent_w, sent_t);
        let targets: Vec<SiteId> = sent_w.0.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![SiteId(2), SiteId(1)], "cost order");
        assert!(matches!(sent_w.0[0].1, Msg::Prepare { .. }));
        let drive = |c: &mut ClientNode, rng: &mut DetRng, from: u16, msg: Msg| {
            let mut ctx = NodeCtx::new(SimTime::from_millis(9), CLIENT, rng);
            c.handle(SiteId(from), msg, &mut ctx);
            split_effects(&mut ctx)
        };
        let vote = Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::Yes,
            staged: Shared::default(),
        };
        let ack = Msg::Ack {
            suite: SUITE,
            req,
            committed: true,
        };
        for msg in [vote, ack] {
            for from in [1u16, 2] {
                let sent_w = drive(&mut w, &mut rng_w, from, msg.clone());
                assert_eq!(sent_w, drive(&mut t, &mut rng_t, from, msg.clone()));
            }
        }
        // Same wire traffic; only the report differs — a transaction
        // lists its per-suite versions, a plain write does not.
        let (ok_w, ok_t) = (&w.completed[0].outcome, &t.completed[0].outcome);
        assert_eq!(ok_w.as_ref().expect("write commits").multi, vec![]);
        let multi = &ok_t.as_ref().expect("transaction commits").multi;
        assert_eq!(multi, &vec![(SUITE, Version(1))]);
    }

    #[test]
    fn transactions_get_adaptive_timeouts_and_raise_suspicion() {
        // Four equal votes, r = w = 3: two answers are not a quorum.
        let assignment = VoteAssignment::equal(4);
        let cfg = SuiteConfig::new(SUITE, assignment, QuorumSpec::new(3, 3)).expect("legal");
        let options = ClientOptions {
            health: Some(HealthOptions::default()),
            ..ClientOptions::default()
        };
        let costs = vec![10.0, 20.0, 30.0, 40.0, 1.0];
        let me = SiteId(4);
        let mut c = ClientNode::new(me, vec![cfg], costs, options);
        let mut rng = DetRng::new(41);
        let mut ctx = NodeCtx::new(SimTime::ZERO, me, &mut rng);
        let req = c.start_transaction(vec![(SUITE, Bytes::from_static(b"v"))], &mut ctx);
        // Straight to prepare at the three cheapest sites. The timer adapts
        // to the slowest participant's RTT estimate (seeded at 2 x 30 ms)
        // instead of the fixed 5 s ceiling.
        let (sends, timers) = split_effects(&mut ctx);
        let targets: Vec<SiteId> = sends.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![SiteId(0), SiteId(1), SiteId(2)]);
        let phase = timers[0];
        assert_eq!(phase.0, SimDuration::from_millis_f64(60.0 * 6.0));
        // Sites 0 and 3 are dead. The first yes gives the others one more
        // round trip — the slowest one's own, where that is longer...
        let at = |ms: u64| SimTime::from_millis(ms);
        let mut ctx = NodeCtx::new(at(10), me, &mut rng);
        c.handle(SiteId(1), yes(req, 1), &mut ctx);
        let widen = split_effects(&mut ctx).1[0];
        assert_eq!(widen.0, SimDuration::from_millis(60));
        let mut ctx = NodeCtx::new(at(50), me, &mut rng);
        c.handle(SiteId(2), yes(req, 1), &mut ctx);
        assert!(split_effects(&mut ctx).1.is_empty(), "one widen timer");
        // ...then site 0 is widened away from, towards site 3.
        let mut ctx = NodeCtx::new(at(70), me, &mut rng);
        c.handle_timer(widen.1, &mut ctx);
        let (sends, timers) = split_effects(&mut ctx);
        assert_eq!(aborts(&sends), vec![SiteId(0)]);
        assert!(matches!(&sends[1], (SiteId(3), Msg::Prepare { req: r, .. }) if *r == req));
        assert!(timers.is_empty() && c.ops.contains_key(&req));
        assert_eq!((suspicion(&c, 0).0, c.stats.timeouts), (1000, 0));
        // Site 3 says nothing either: the phase times out, and from here
        // on every attempt inquires, of all four, on a timer that adapts
        // to the slowest of them (2 x 40 ms).
        let mut ctx = NodeCtx::new(at(360), me, &mut rng);
        c.handle_timer(phase.1, &mut ctx);
        let (sends, timers) = split_effects(&mut ctx);
        assert_eq!(aborts(&sends), vec![SiteId(1), SiteId(2), SiteId(3)]);
        let mut retry = timers[0];
        // Fires the retry timer at `at_ms`: the fresh inquiry's request id
        // and its phase timer.
        let inquire_again = |c: &mut ClientNode, rng: &mut DetRng, retry: u64, at_ms: u64| {
            let mut ctx = NodeCtx::new(at(at_ms), me, rng);
            c.handle_timer(retry, &mut ctx);
            let (sends, timers) = split_effects(&mut ctx);
            assert_eq!(sends.len(), 4);
            match sends[0].1 {
                Msg::VersionReq { req, .. } => (req, timers[0]),
                ref other => panic!("expected a fresh inquiry, got {other:?}"),
            }
        };
        // Two inquiries in which only sites 1 and 2 answer, site 2 slowly.
        for (round, at_ms) in [(1, 1_000), (2, 3_000)] {
            let (req, timer) = inquire_again(&mut c, &mut rng, retry.1, at_ms);
            if round == 1 {
                assert_eq!(timer.0, SimDuration::from_millis_f64(80.0 * 6.0));
            }
            answer_version(&mut c, &mut rng, at_ms + 10, 1, req, 0);
            answer_version(&mut c, &mut rng, at_ms + 400, 2, req, 0);
            assert!(c.completed.is_empty() && c.ops.contains_key(&req));
            let suspected = [0, 1, 2, 3].map(|site| suspicion(&c, site).1);
            assert_eq!(suspected, [round == 2, false, false, round == 2]);
            let mut ctx = NodeCtx::new(at(at_ms + 500), me, &mut rng);
            c.handle_timer(timer.1, &mut ctx);
            retry = split_effects(&mut ctx).1[0];
        }
        assert_eq!(c.stats.suspicions_raised, 2);
        let (req, timer) = inquire_again(&mut c, &mut rng, retry.1, 5_000);
        // Site 2's slow answers were RTT samples: the timer now tracks it.
        assert!(timer.0 > SimDuration::from_millis_f64(80.0 * 6.0));
        assert_eq!(timer.0, c.planner.phase_delay([SiteId(2)]));
        // The cheapest site now ranks behind every unsuspected one, so the
        // next write quorum is drawn from the others.
        let mut ctx = NodeCtx::new(at(5_000), me, &mut rng);
        let ranked = c.rank(SUITE, &mut ctx);
        let order = ranked.among(|_| true);
        assert_eq!(order[..], [SiteId(1), SiteId(2), SiteId(0), SiteId(3)]);
        assert!(ranked.rerouted);
        let mut prepared = Vec::new();
        for from in [1, 2, 3] {
            prepared = answer_version(&mut c, &mut rng, 5_010, from, req, 0).0;
        }
        let targets: Vec<SiteId> = prepared.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![SiteId(1), SiteId(2), SiteId(3)]);
        assert!(matches!(prepared[0].1, Msg::Prepare { .. }));
    }

    #[test]
    fn a_transaction_widens_per_suite_and_the_additions_merge_per_site() {
        // Suite 1 lives at sites {0, 1, 2, 4} — site 0 with two votes of
        // the five, r = w = 3 — and suite 2 at {2, 3, 4}, r = w = 2: the
        // transaction's write quorums are {0, 1} and {2, 3}.
        let other = ObjectId(2);
        let votes = |v: &[(u16, u32)]| VoteAssignment::new(v.iter().map(|(s, n)| (SiteId(*s), *n)));
        let cfg1 = votes(&[(0, 2), (1, 1), (2, 1), (4, 1)]);
        let cfg1 = SuiteConfig::new(SUITE, cfg1, QuorumSpec::new(3, 3)).expect("legal");
        let cfg2 = votes(&[(2, 1), (3, 1), (4, 1)]);
        let cfg2 = SuiteConfig::new(other, cfg2, QuorumSpec::new(2, 2)).expect("legal");
        let me = SiteId(5);
        let costs = vec![10.0, 20.0, 30.0, 40.0, 50.0, 1.0];
        let mut c = ClientNode::new(me, vec![cfg1, cfg2], costs, ClientOptions::default());
        let mut rng = DetRng::new(44);
        let mut ctx = NodeCtx::new(SimTime::ZERO, me, &mut rng);
        let value = Bytes::from_static(b"v");
        let req = c.start_transaction(vec![(SUITE, value.clone()), (other, value)], &mut ctx);
        let (sends, _) = split_effects(&mut ctx);
        let targets: Vec<SiteId> = sends.iter().map(|(to, _)| *to).collect();
        assert_eq!(targets, vec![SiteId(0), SiteId(1), SiteId(2), SiteId(3)]);
        // Sites 0 and 2 vote; 1 and 3 say nothing. The first yes gives the
        // slowest of the others its own round trip (2 x 40 ms).
        let vote = |object| Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::Yes,
            staged: vec![(object, Version(1))].into(),
        };
        let mut ctx = NodeCtx::new(SimTime::from_millis(20), me, &mut rng);
        c.handle(SiteId(0), vote(data_object(SUITE)), &mut ctx);
        let widen = split_effects(&mut ctx).1[0];
        assert_eq!(widen.0, SimDuration::from_millis(80));
        let mut ctx = NodeCtx::new(SimTime::from_millis(60), me, &mut rng);
        c.handle(SiteId(2), vote(data_object(other)), &mut ctx);
        // Each suite replaces its silent member by the next site in its
        // own rank order that is not already preparing something for this
        // request — site 2 ranks ahead of 4 for suite 1, and is taken —
        // and site 4, chosen twice, gets one prepare carrying both.
        let mut ctx = NodeCtx::new(SimTime::from_millis(100), me, &mut rng);
        c.handle_timer(widen.1, &mut ctx);
        let (sends, timers) = split_effects(&mut ctx);
        assert_eq!(aborts(&sends), vec![SiteId(1), SiteId(3)]);
        assert!(timers.is_empty(), "widens once");
        let prepares: Vec<&(SiteId, Msg)> = sends
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Prepare { .. }))
            .collect();
        assert_eq!(prepares.len(), 1);
        let Msg::Prepare { writes, rebase, .. } = &prepares[0].1 else {
            unreachable!()
        };
        assert_eq!(prepares[0].0, SiteId(4));
        let suites: Vec<ObjectId> = writes.iter().map(|pw| pw.suite).collect();
        assert_eq!((suites, *rebase), (vec![SUITE, other], true));
        // Both dropped sites are remembered silent; the decision is taken
        // over the widened set.
        assert!(c.planner.is_silent(SiteId(1), SimTime::from_millis(100)));
        let both = Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::Yes,
            staged: vec![
                (data_object(SUITE), Version(1)),
                (data_object(other), Version(1)),
            ]
            .into(),
        };
        let mut ctx = NodeCtx::new(SimTime::from_millis(200), me, &mut rng);
        c.handle(SiteId(4), both, &mut ctx);
        let (sends, _) = split_effects(&mut ctx);
        let commits: Vec<SiteId> = sends
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Commit { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(commits, vec![SiteId(0), SiteId(2), SiteId(4)]);
        assert_eq!(c.completed.len(), 1);
    }

    #[test]
    fn with_health_tracking_a_site_late_with_an_answer_is_taken_for_silent() {
        // Reads ask every voting site all the time, so a client that keeps
        // score of round trips finds a dead site without sending a write
        // into it: site 1 owes this read an answer.
        let mut c = health_client();
        let mut rng = DetRng::new(45);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let read = c.start_read(SUITE, &mut ctx);
        drop(ctx);
        answer_version(&mut c, &mut rng, 20, 0, read, 0);
        answer_version(&mut c, &mut rng, 60, 2, read, 0);
        // Site 0 then votes no, which ends a direct attempt: the next write
        // must plan for itself, not park behind this one.
        let first_sends = |c: &mut ClientNode, rng: &mut DetRng, at_ms: u64| {
            let mut ctx = NodeCtx::new(SimTime::from_millis(at_ms), CLIENT, rng);
            let req = c.start_write(SUITE, &b"w"[..], &mut ctx);
            let sends = split_effects(&mut ctx).0;
            let no = Msg::PrepareVote {
                suite: SUITE,
                req,
                vote: Vote::No,
                staged: Shared::default(),
            };
            c.handle(SiteId(0), no, &mut ctx);
            sends
        };
        // Three round trips (seeded at 2 x 20 ms) are not yet up...
        let sends = first_sends(&mut c, &mut rng, 100);
        assert!(matches!(sends[0].1, Msg::Prepare { .. }), "{sends:?}");
        // ...now they are, and the write asks first.
        let sends = first_sends(&mut c, &mut rng, 130);
        assert!(matches!(sends[0].1, Msg::VersionReq { .. }), "{sends:?}");
        assert_eq!(sends.len(), 3);
        // Whatever site 1 says next pays the debt.
        let ack = Msg::Ack {
            suite: SUITE,
            req: read,
            committed: false,
        };
        deliver(&mut c, &mut rng, 140, 1, ack);
        let sends = first_sends(&mut c, &mut rng, 150);
        assert!(matches!(sends[0].1, Msg::Prepare { .. }), "{sends:?}");
        // Without health tracking nothing is late before a timeout says so.
        let mut c = client();
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        c.start_read(SUITE, &mut ctx);
        drop(ctx);
        let sends = first_sends(&mut c, &mut rng, 4_000);
        assert!(matches!(sends[0].1, Msg::Prepare { .. }), "{sends:?}");
    }

    #[test]
    fn a_lost_race_is_not_retried_sooner_than_the_lost_attempt_lasted() {
        // A no vote 700 ms into the attempt: whoever won the race needs
        // about that long to finish, and the 40 ms backoff would only lose
        // it the same race again.
        let mut c = client();
        let mut rng = DetRng::new(46);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_write(SUITE, &b"w"[..], &mut ctx);
        drop(ctx);
        let no = |req| Msg::PrepareVote {
            suite: SUITE,
            req,
            vote: Vote::No,
            staged: Shared::default(),
        };
        let (_, timers) = deliver(&mut c, &mut rng, 700, 0, no(req));
        assert_eq!(timers[0].0, SimDuration::from_millis(700));
        // A refusal is no race lost: the backoff alone (40 ms and jitter).
        let mut c = client();
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        let req = c.start_write(SUITE, &b"w"[..], &mut ctx);
        drop(ctx);
        let refused = Msg::Refused {
            suite: SUITE,
            req,
            reason: RefuseReason::Disk,
        };
        let (_, timers) = deliver(&mut c, &mut rng, 700, 0, refused);
        assert!(
            timers[0].0 < SimDuration::from_millis(61),
            "{:?}",
            timers[0].0
        );
    }

    #[test]
    fn late_version_answer_for_a_preparing_write_costs_no_probe_and_no_draw() {
        for policy in [QuorumPolicy::CheapestFirst, QuorumPolicy::Random] {
            let options = ClientOptions {
                quorum_policy: policy,
                ..ClientOptions::default()
            };
            let mut c =
                ClientNode::new(CLIENT, vec![config()], vec![10.0, 20.0, 30.0, 1.0], options);
            let mut rng = DetRng::new(42);
            // The write inquires: site 1 let an earlier phase time out.
            site_1_fell_silent(&mut c);
            let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
            let req = c.start_write(SUITE, &b"w"[..], &mut ctx);
            drop(ctx);
            answer_version(&mut c, &mut rng, 5, 0, req, 0);
            let (prepares, _) = answer_version(&mut c, &mut rng, 5, 1, req, 0);
            assert!(matches!(prepares[0].1, Msg::Prepare { .. }));
            let probes = c.stats.plan_cache_hits + c.stats.plan_cache_misses;
            let mut untouched = rng.clone();
            // The third site's answer lands after the write moved on.
            let (sends, timers) = answer_version(&mut c, &mut rng, 6, 2, req, 0);
            assert!(sends.is_empty() && timers.is_empty());
            assert_eq!(c.stats.plan_cache_hits + c.stats.plan_cache_misses, probes);
            assert_eq!(rng.u64(), untouched.u64(), "{policy:?} drew from the RNG");
        }
    }

    // ---- write trains: the hazards (DESIGN.md §7.2) ----

    /// Starts one write per payload at `at_ms`; returns their request ids
    /// and what left the client.
    fn launch(
        c: &mut ClientNode,
        rng: &mut DetRng,
        at_ms: u64,
        payloads: &[&'static [u8]],
    ) -> (Vec<ReqId>, Vec<(SiteId, Msg)>) {
        let mut ctx = NodeCtx::new(SimTime::from_millis(at_ms), CLIENT, rng);
        let reqs = payloads
            .iter()
            .map(|p| c.start_write(SUITE, *p, &mut ctx))
            .collect();
        (reqs, split_effects(&mut ctx).0)
    }

    /// The data prepares among `sends`: `(to, req, lock_ts, install)`.
    fn prepares(sends: &[(SiteId, Msg)]) -> Vec<(SiteId, ReqId, u64, PrepareWrite)> {
        let one = |(to, m): &(SiteId, Msg)| match m {
            Msg::Prepare {
                req,
                writes,
                lock_ts,
                ..
            } if !writes.is_empty() => Some((*to, *req, *lock_ts, writes[0].clone())),
            _ => None,
        };
        sends.iter().filter_map(one).collect()
    }

    /// `(request id, version, attempts)` of every operation reported, in
    /// report order.
    fn reported(c: &ClientNode) -> Vec<(ReqId, Option<u64>, u32)> {
        let one = |op: &CompletedOp| {
            let version = op.outcome.as_ref().ok().map(|s| s.version.0);
            (op.req, version, op.attempts)
        };
        c.completed.iter().map(one).collect()
    }

    /// Three writes launched together, the first decided at version 5:
    /// the train of the other two is preparing. Returns their ids.
    fn train_preparing(c: &mut ClientNode, rng: &mut DetRng) -> Vec<ReqId> {
        let (w, sends) = launch(c, rng, 0, &[b"a", b"b", b"c"]);
        assert_eq!(prepares(&sends).len(), 2, "the first alone: {sends:?}");
        deliver(c, rng, 10, 0, yes(w[0], 5));
        let (sends, _) = deliver(c, rng, 20, 1, yes(w[0], 5));
        let train = prepares(&sends);
        assert_eq!(train.len(), 2, "one prepare per participant: {sends:?}");
        for (_, req, lock_ts, install) in &train {
            // The youngest carries, at the age of the oldest, and consumes
            // a version for each: the floor is two above nothing.
            assert_eq!((*req, *lock_ts), (w[2], w[1].counter()));
            assert_eq!((install.span, install.version), (2, Version(2)));
            assert_eq!(&install.value[..], b"c");
        }
        w
    }

    #[test]
    fn writes_launched_behind_a_direct_attempt_leave_as_one_train_when_it_ends() {
        let mut c = client();
        let mut rng = DetRng::new(60);
        let w = train_preparing(&mut c, &mut rng);
        // Riders are never reported before the decision...
        assert_eq!(reported(&c), vec![(w[0], Some(5), 1)]);
        deliver(&mut c, &mut rng, 30, 0, yes(w[2], 7));
        assert_eq!(c.completed.len(), 1);
        // ...and then before their carrier, oldest first, at the versions
        // below its own: completion order is version order.
        let (sends, _) = deliver(&mut c, &mut rng, 40, 1, yes(w[2], 7));
        assert_eq!(
            reported(&c),
            vec![(w[0], Some(5), 1), (w[1], Some(6), 1), (w[2], Some(7), 1)]
        );
        assert!(prepares(&sends).is_empty(), "nobody was left behind");
        assert_eq!((c.stats.trains, c.stats.writes_ridden), (2, 1));
        assert_eq!((c.in_flight(), c.trains.len()), (0, 0));
    }

    #[test]
    fn a_train_that_gives_way_retries_as_one_train() {
        let mut c = client();
        let mut rng = DetRng::new(61);
        let w = train_preparing(&mut c, &mut rng);
        // It holds site 0's lock, stands in site 1's line, and an older
        // prepare arrives behind it at site 0.
        deliver(&mut c, &mut rng, 30, 0, yes(w[2], 7));
        deliver(&mut c, &mut rng, 30, 1, busy(w[2], false));
        let (sends, timers) = deliver(&mut c, &mut rng, 40, 0, busy(w[2], true));
        assert_eq!(aborts(&sends), vec![SiteId(0), SiteId(1)]);
        assert!(prepares(&sends).is_empty(), "the rider stays with it");
        // The retry is one inquiry and one prepare of the same span.
        let (sends, _) = fire_timer(&mut c, &mut rng, 100, timers[0].1);
        let asked = |m: &Msg| matches!(m, Msg::VersionReq { .. });
        assert_eq!(sends.iter().filter(|(_, m)| asked(m)).count(), 3);
        assert_eq!(sends.len(), 3);
        let retry = *c.ops.keys().max().expect("the retry");
        answer_version(&mut c, &mut rng, 110, 0, retry, 5);
        let (sends, _) = answer_version(&mut c, &mut rng, 120, 1, retry, 5);
        let again = prepares(&sends);
        assert_eq!(again.len(), 2, "{sends:?}");
        for (_, req, lock_ts, install) in &again {
            assert_eq!((*req, *lock_ts), (retry, w[1].counter()));
            assert_eq!((install.span, install.version), (2, Version(7)));
        }
        deliver(&mut c, &mut rng, 130, 0, yes(retry, 7));
        deliver(&mut c, &mut rng, 140, 1, yes(retry, 7));
        assert_eq!(reported(&c)[1..], [(w[1], Some(6), 2), (retry, Some(7), 2)]);
    }

    #[test]
    fn a_widened_train_asks_the_replacement_for_its_whole_span() {
        // Site 0 lags far behind and site 1 stays silent: the replacement,
        // site 2, is the only participant that knows the current version,
        // 9, and must stage the train's two versions above *that*.
        let mut c = client();
        let mut rng = DetRng::new(62);
        let w = train_preparing(&mut c, &mut rng);
        let (_, timers) = deliver(&mut c, &mut rng, 30, 0, yes(w[2], 2));
        let mut ctx = NodeCtx::new(SimTime::from_millis(70), CLIENT, &mut rng);
        c.handle_timer(timers[0].1, &mut ctx);
        let (sends, _) = split_effects(&mut ctx);
        assert_eq!(aborts(&sends), vec![SiteId(1)]);
        let (to, req, _, install) = prepares(&sends).remove(0);
        assert_eq!((to, req), (SiteId(2), w[2]));
        // What `SuiteServer::finish_prepare` stages for it.
        let staged = install.version.0.max(9 + u64::from(install.span));
        deliver(&mut c, &mut rng, 80, 2, yes(w[2], staged));
        assert_eq!(
            reported(&c)[1..],
            [(w[1], Some(10), 1), (w[2], Some(11), 1)]
        );
    }

    #[test]
    fn a_carrier_out_of_attempts_fails_alone_and_its_riders_go_on() {
        let options = ClientOptions {
            max_attempts: 1,
            ..ClientOptions::default()
        };
        let mut c = ClientNode::new(CLIENT, vec![config()], vec![10.0, 20.0, 30.0, 1.0], options);
        let mut rng = DetRng::new(63);
        let w = train_preparing(&mut c, &mut rng);
        let no = Msg::PrepareVote {
            suite: SUITE,
            req: w[2],
            vote: Vote::No,
            staged: Shared::default(),
        };
        // The rider starts over at once: a train of one, its own age, its
        // own budget.
        let (sends, _) = deliver(&mut c, &mut rng, 30, 0, no);
        let alone = prepares(&sends);
        assert_eq!(alone.len(), 2, "{sends:?}");
        for (_, req, lock_ts, install) in &alone {
            assert_eq!((*req, *lock_ts, install.span), (w[1], w[1].counter(), 1));
        }
        deliver(&mut c, &mut rng, 40, 0, yes(w[1], 6));
        deliver(&mut c, &mut rng, 50, 1, yes(w[1], 6));
        assert_eq!(reported(&c)[1..], [(w[2], None, 1), (w[1], Some(6), 1)]);
    }

    #[test]
    fn only_a_first_direct_write_is_parked_behind_and_only_a_first_write_parks() {
        let other = ObjectId(2);
        let both = |quorum| {
            let votes = VoteAssignment::new([(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1)]);
            let second = SuiteConfig::new(other, votes, QuorumSpec::new(2, 2)).expect("legal");
            let first = SuiteConfig { quorum, ..config() };
            let costs = vec![10.0, 20.0, 30.0, 1.0];
            ClientNode::new(CLIENT, vec![first, second], costs, ClientOptions::default())
        };
        let mut rng = DetRng::new(64);
        let sent_by_a_write = |c: &mut ClientNode, rng: &mut DetRng| {
            let (_, sends) = launch(c, rng, 50, &[b"w"]);
            sends.len()
        };
        // Behind a transaction, a reconfiguration, a write that is waiting
        // to retry, and a write that inquires first because write quorums
        // need not intersect, a write sends what it sends alone.
        let mut c = both(QuorumSpec::new(2, 2));
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        c.start_transaction(vec![(SUITE, Bytes::from_static(b"t"))], &mut ctx);
        drop(ctx);
        assert_eq!(sent_by_a_write(&mut c, &mut rng), 2);
        let mut c = both(QuorumSpec::new(2, 2));
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        c.start_reconfigure(
            SUITE,
            VoteAssignment::equal(3),
            QuorumSpec::new(1, 3),
            &mut ctx,
        );
        drop(ctx);
        assert_eq!(sent_by_a_write(&mut c, &mut rng), 2);
        let mut c = both(QuorumSpec::new(2, 2));
        let (w, _) = launch(&mut c, &mut rng, 0, &[b"first"]);
        let no = Msg::PrepareVote {
            suite: SUITE,
            req: w[0],
            vote: Vote::No,
            staged: Shared::default(),
        };
        deliver(&mut c, &mut rng, 10, 0, no);
        assert_eq!(sent_by_a_write(&mut c, &mut rng), 2);
        let mut c = both(QuorumSpec::new(3, 1));
        launch(&mut c, &mut rng, 0, &[b"first"]);
        assert_eq!(
            sent_by_a_write(&mut c, &mut rng),
            3,
            "an inquiry of its own"
        );
        assert!(c.trains.is_empty());
        // Behind a direct write, a write to another suite, a transaction
        // and a reconfiguration go out at once; a write to the suite parks.
        let mut c = both(QuorumSpec::new(2, 2));
        launch(&mut c, &mut rng, 0, &[b"first"]);
        let mut ctx = NodeCtx::new(SimTime::from_millis(10), CLIENT, &mut rng);
        c.start_write(other, &b"elsewhere"[..], &mut ctx);
        c.start_transaction(vec![(SUITE, Bytes::from_static(b"t"))], &mut ctx);
        c.start_reconfigure(
            SUITE,
            VoteAssignment::equal(3),
            QuorumSpec::new(1, 3),
            &mut ctx,
        );
        assert_eq!(split_effects(&mut ctx).0.len(), 2 + 2 + 3);
        assert_eq!(sent_by_a_write(&mut c, &mut rng), 0);
        assert_eq!(c.trains.len(), 2, "one marker per suite");
    }

    #[test]
    fn a_crash_with_a_train_preparing_reports_nothing_and_presumes_abort() {
        let mut c = client();
        let mut rng = DetRng::new(65);
        let w = train_preparing(&mut c, &mut rng);
        launch(&mut c, &mut rng, 25, &[b"parked"]);
        c.handle_crash();
        c.handle_recover();
        assert!(c.trains.is_empty() && c.ops.is_empty());
        assert_eq!(reported(&c), vec![(w[0], Some(5), 1)]);
        let abort = Msg::Abort {
            suite: SUITE,
            req: w[2],
        };
        assert_eq!(probe(&mut c, &mut rng, w[2]), abort);
    }

    #[test]
    fn a_write_does_not_park_behind_an_attempt_a_participant_left_unanswered() {
        // Site 1 says nothing. Three of its round trips (2 x 20 ms each)
        // after the prepares left, the attempt has stalled: the next write
        // to come takes the parked one along, and the marker with it.
        let mut c = client();
        let mut rng = DetRng::new(66);
        let (w, _) = launch(&mut c, &mut rng, 0, &[b"a", b"b"]);
        deliver(&mut c, &mut rng, 20, 0, busy(w[0], false));
        let (late, sends) = launch(&mut c, &mut rng, 120, &[b"c"]);
        assert!(sends.is_empty(), "parked: a line is not a stall");
        let (later, sends) = launch(&mut c, &mut rng, 121, &[b"d"]);
        let train = prepares(&sends);
        assert_eq!(train.len(), 2, "{sends:?}");
        for (_, req, lock_ts, install) in &train {
            assert_eq!(
                (*req, *lock_ts, install.span),
                (later[0], w[1].counter(), 3)
            );
        }
        // The stalled attempt goes on alone, and ends as it would have.
        assert_eq!(c.trains[&SUITE], (later[0], Vec::new()));
        assert!(c.ops[&late[0]].riders.is_empty() && c.ops[&w[0]].riders.is_empty());
        assert_eq!(c.ops[&later[0]].riders, vec![w[1], late[0]]);
    }

    // ---- one-round reads: the contents come with a version answer ----

    /// `req`'s version answer: `version`, carrying `value` if one is given.
    fn answer(req: ReqId, version: u64, value: Option<&'static [u8]>) -> Msg {
        Msg::VersionResp {
            suite: SUITE,
            req,
            version: Version(version),
            generation: 1,
            value: value.map(Bytes::from_static),
        }
    }

    fn read_resp(req: ReqId, version: u64, value: &'static [u8]) -> Msg {
        Msg::ReadResp {
            suite: SUITE,
            req,
            version: Version(version),
            value: Bytes::from_static(value),
        }
    }

    fn read_at(c: &mut ClientNode, rng: &mut DetRng, at_ms: u64) -> (ReqId, Vec<(SiteId, Msg)>) {
        let mut ctx = NodeCtx::new(SimTime::from_millis(at_ms), CLIENT, rng);
        let req = c.start_read(SUITE, &mut ctx);
        (req, effects(&mut ctx))
    }

    fn fetched_from(sends: &[(SiteId, Msg)]) -> Vec<SiteId> {
        let fetch = |(to, m): &(SiteId, Msg)| matches!(m, Msg::ReadReq { .. }).then_some(*to);
        sends.iter().filter_map(fetch).collect()
    }

    /// What the `i`-th completed operation read: version and contents.
    fn read_back(c: &ClientNode, i: usize) -> (u64, Vec<u8>) {
        let ok = c.completed[i].outcome.as_ref().expect("success");
        (ok.version.0, ok.value.as_ref().expect("a read").to_vec())
    }

    #[test]
    fn contents_are_never_believed_on_their_own() {
        // The site asked for the contents answers first, at v3. Nothing
        // says v3 is current until a read quorum has spoken, and its
        // second member knows of v4: the read fetches, and returns v4.
        let (mut c, mut rng) = (client(), DetRng::new(41));
        let (req, _) = read_at(&mut c, &mut rng, 0);
        let (sends, _) = deliver(&mut c, &mut rng, 20, 0, answer(req, 3, Some(b"three")));
        assert!(sends.is_empty() && c.completed.is_empty(), "one vote");
        let (sends, _) = deliver(&mut c, &mut rng, 40, 1, answer(req, 4, None));
        assert_eq!(fetched_from(&sends), [SiteId(1)]);
        deliver(&mut c, &mut rng, 80, 1, read_resp(req, 4, b"four"));
        assert_eq!(read_back(&c, 0), (4, b"four".to_vec()));
        let moved = (c.stats.reads_contents_with_inquiry, c.stats.reads_fetched);
        assert_eq!(moved, (0, 1));
    }

    #[test]
    fn contents_that_prove_current_complete_the_read_in_its_one_round() {
        let (mut c, mut rng) = (client(), DetRng::new(42));
        let (req, _) = read_at(&mut c, &mut rng, 0);
        deliver(&mut c, &mut rng, 20, 0, answer(req, 3, Some(b"three")));
        // Delivered twice, the answer still counts once and changes nothing.
        let (sends, _) = deliver(&mut c, &mut rng, 21, 0, answer(req, 3, Some(b"three")));
        assert!(sends.is_empty() && c.completed.is_empty(), "still one vote");
        let (sends, _) = deliver(&mut c, &mut rng, 40, 2, answer(req, 2, None));
        assert!(sends.is_empty(), "nothing left to fetch: {sends:?}");
        assert_eq!(read_back(&c, 0), (3, b"three".to_vec()));
        assert_eq!(c.completed[0].latency(), SimDuration::from_millis(40));
        let stats = c.stats;
        let hits = (stats.reads_cache_hit, stats.reads_contents_with_inquiry);
        assert_eq!((hits, stats.reads_fetched), ((1, 1), 0));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn late_contents_end_a_fetch_only_if_they_are_current() {
        let (mut c, mut rng) = (client(), DetRng::new(43));
        // The quorum settles on v2 before the site asked for the contents
        // has answered: a fetch leg goes to the cheapest holder.
        let settle = |c: &mut ClientNode, rng: &mut DetRng, at_ms: u64| {
            let (req, _) = read_at(c, rng, at_ms);
            deliver(c, rng, at_ms + 20, 1, answer(req, 2, None));
            let (sends, _) = deliver(c, rng, at_ms + 30, 2, answer(req, 2, None));
            assert_eq!(fetched_from(&sends), [SiteId(1)]);
            req
        };
        // Its late answer below v2 is ignored, and does not burn the
        // candidate being fetched from: that one's answer completes.
        let req = settle(&mut c, &mut rng, 0);
        let (sends, timers) = deliver(&mut c, &mut rng, 35, 0, answer(req, 1, Some(b"one")));
        assert!(sends.is_empty() && timers.is_empty() && c.completed.is_empty());
        deliver(&mut c, &mut rng, 60, 1, read_resp(req, 2, b"two"));
        assert_eq!(read_back(&c, 0), (2, b"two".to_vec()));
        assert_eq!(c.stats.reads_fetched, 1);
        // At v2 or above it ends the fetch there and then, and the reply
        // to the leg it made redundant finds no operation.
        let req = settle(&mut c, &mut rng, 100);
        deliver(&mut c, &mut rng, 135, 0, answer(req, 2, Some(b"two")));
        assert_eq!(read_back(&c, 1), (2, b"two".to_vec()));
        assert_eq!(c.completed[1].latency(), SimDuration::from_millis(35));
        let (sends, _) = deliver(&mut c, &mut rng, 160, 1, read_resp(req, 2, b"two"));
        assert!(sends.is_empty());
        assert_eq!(c.completed.len(), 2);
        let stats = c.stats;
        let hits = (stats.reads_cache_hit, stats.reads_contents_with_inquiry);
        assert_eq!((hits, stats.reads_fetched), ((1, 1), 1));
    }

    #[test]
    fn only_a_read_asks_for_the_contents_and_of_one_site_only() {
        let mut rng = DetRng::new(44);
        // A writer's inquiry wants a floor, a reconfiguration's contents
        // are a read-modify-write fetched from a proven holder: no `Some`.
        let mut c = client();
        site_1_fell_silent(&mut c);
        let mut ctx = NodeCtx::new(SimTime::ZERO, CLIENT, &mut rng);
        c.start_write(SUITE, b"w".to_vec(), &mut ctx);
        c.start_reconfigure(SUITE, config().assignment, QuorumSpec::new(1, 3), &mut ctx);
        let sends = effects(&mut ctx);
        assert_eq!(sends.len(), 6, "{sends:?}");
        assert_eq!(contents_asked(&sends), []);
        // With the contents not asked for until the quorum has settled,
        // nobody is asked alongside the inquiry either.
        let sequential = ClientOptions {
            optimistic_fetch: false,
            ..ClientOptions::default()
        };
        let mut c = ClientNode::new(
            CLIENT,
            vec![config()],
            vec![10.0, 20.0, 30.0, 1.0],
            sequential,
        );
        let (_, sends) = read_at(&mut c, &mut rng, 0);
        assert_eq!((sends.len(), contents_asked(&sends)), (3, vec![]));
        assert_eq!(c.site_load(), [0, 0, 0, 0]);
    }

    /// A workstation: the three voting sites and a zero-vote copy on the
    /// client's own site, cheapest of all.
    fn workstation() -> ClientNode {
        let sites = [(SiteId(0), 1), (SiteId(1), 1), (SiteId(2), 1), (CLIENT, 0)];
        let cfg = SuiteConfig::new(SUITE, VoteAssignment::new(sites), QuorumSpec::new(2, 2));
        let costs = vec![10.0, 20.0, 30.0, 1.0];
        ClientNode::new(
            CLIENT,
            vec![cfg.expect("legal")],
            costs,
            ClientOptions::default(),
        )
    }

    #[test]
    fn what_the_own_copy_is_thought_to_hold_is_only_a_hint() {
        let (mut c, mut rng) = (workstation(), DetRng::new(45));
        // Nothing known of the own copy yet: the cheapest server is asked
        // for whatever it has, and so is the own copy, in its inquiry.
        let (req, sends) = read_at(&mut c, &mut rng, 0);
        assert_eq!(fetched_from(&sends), []);
        let own = (CLIENT, Version::INITIAL);
        assert_eq!(contents_asked(&sends), [(SiteId(0), Version::INITIAL), own]);
        deliver(&mut c, &mut rng, 2, CLIENT.0, answer(req, 1, Some(b"one")));
        deliver(&mut c, &mut rng, 20, 0, answer(req, 2, Some(b"two")));
        let (sends, _) = deliver(&mut c, &mut rng, 40, 1, answer(req, 2, None));
        assert_eq!(read_back(&c, 0), (2, b"two".to_vec()));
        let pushed = |(to, m): &(SiteId, Msg)| {
            *to == CLIENT && matches!(m, Msg::UpdateWeak { version, .. } if *version == Version(2))
        };
        assert!(sends.iter().all(pushed) && sends.len() == 1, "{sends:?}");
        // v2 was pushed at the own copy, so the next read asks from v3 —
        // but the own copy dropped the push (its disk hiccuped, say) and
        // still holds v1. The server, at v2, sends nothing; the own copy
        // sends v1; the quorum says v2: the read falls back to the fetch
        // round and returns v2, never the stale copy.
        let (req, sends) = read_at(&mut c, &mut rng, 100);
        assert_eq!(contents_asked(&sends), [(SiteId(0), Version(3)), own]);
        deliver(
            &mut c,
            &mut rng,
            102,
            CLIENT.0,
            answer(req, 1, Some(b"one")),
        );
        // Meanwhile the hint has followed the own copy's own answer.
        let (other, sends) = read_at(&mut c, &mut rng, 103);
        assert_eq!(contents_asked(&sends), [(SiteId(0), Version(2)), own]);
        deliver(&mut c, &mut rng, 120, 0, answer(req, 2, None));
        assert!(c.completed.len() == 1, "completed on the hint's say-so");
        let (sends, _) = deliver(&mut c, &mut rng, 140, 1, answer(req, 2, None));
        assert_eq!(fetched_from(&sends), [SiteId(0)]);
        deliver(&mut c, &mut rng, 160, 0, read_resp(req, 2, b"two"));
        assert_eq!(read_back(&c, 1), (2, b"two".to_vec()));
        assert_eq!(c.stats.reads_fetched, 1);
        assert!(c.ops.contains_key(&other));
        // A crash forgets every hint with the operations.
        c.handle_crash();
        c.handle_recover();
        let (_, sends) = read_at(&mut c, &mut rng, 1_000);
        assert_eq!(contents_asked(&sends), [(SiteId(0), Version::INITIAL), own]);
    }

    /// The requests in `sends` addressed to `site`.
    fn sent_to(sends: &[(SiteId, Msg)], site: SiteId) -> Vec<&Msg> {
        let to_site = sends.iter().filter(|(to, _)| *to == site);
        to_site.map(|(_, m)| m).collect()
    }

    #[test]
    fn a_workstation_read_asks_its_own_copy_once() {
        let (mut c, mut rng) = (workstation(), DetRng::new(47));
        // The own copy's inquiry asks for whatever it holds, hint or no
        // hint: it is the content read, and nothing else goes there.
        for at in [0, 100] {
            let (req, sends) = read_at(&mut c, &mut rng, at);
            let own = sent_to(&sends, CLIENT);
            let from = |m: &Msg| matches!(m, Msg::VersionReq { contents_from, .. } if *contents_from == Some(Version::INITIAL));
            assert!(own.len() == 1 && from(own[0]), "{sends:?}");
            deliver(
                &mut c,
                &mut rng,
                at + 2,
                CLIENT.0,
                answer(req, 1, Some(b"one")),
            );
            deliver(&mut c, &mut rng, at + 20, 0, answer(req, 1, None));
            deliver(&mut c, &mut rng, at + 40, 1, answer(req, 1, None));
        }
        assert_eq!(read_back(&c, 1), (1, b"one".to_vec()));
        let stats = c.stats;
        let hits = (stats.reads_cache_hit, stats.reads_contents_with_inquiry);
        assert_eq!((hits, stats.reads_fetched), ((2, 0), 0));
    }

    #[test]
    fn a_guess_the_inquiry_does_not_ask_is_sent_a_content_read() {
        // A zero-vote copy at site 4 costs what the servers cost and comes
        // after them in the static order, so no inquiry asks it; the
        // load-balanced rotation still ranks it first in one read of four.
        let sites = [
            (SiteId(0), 1),
            (SiteId(1), 1),
            (SiteId(2), 1),
            (SiteId(4), 0),
        ];
        let cfg = SuiteConfig::new(SUITE, VoteAssignment::new(sites), QuorumSpec::new(2, 2));
        let options = ClientOptions {
            quorum_policy: QuorumPolicy::LoadBalanced,
            ..ClientOptions::default()
        };
        let costs = vec![10.0, 10.0, 10.0, 1.0, 10.0];
        let mut c = ClientNode::new(CLIENT, vec![cfg.expect("legal")], costs, options);
        let mut rng = DetRng::new(48);
        let mut to_site_4 = Vec::new();
        for at in 0..4 {
            let (_, sends) = read_at(&mut c, &mut rng, at);
            to_site_4.extend(sent_to(&sends, SiteId(4)).into_iter().cloned());
        }
        assert!(
            matches!(to_site_4[..], [Msg::ReadReq { .. }]),
            "{to_site_4:?}"
        );
    }

    #[test]
    fn version_answers_that_neither_complete_nor_fetch_rank_nothing() {
        let (mut c, mut rng) = (workstation(), DetRng::new(49));
        let hits = |c: &ClientNode| c.stats.plan_cache_hits;
        // The read's one ranking is its guess; the own copy's answer, a
        // voting one short of the quorum and its duplicate rank nothing,
        // and neither does the answer that completes the read on the own
        // copy's contents, nor one that comes after.
        let (req, _) = read_at(&mut c, &mut rng, 0);
        assert_eq!(hits(&c), 0);
        deliver(&mut c, &mut rng, 2, CLIENT.0, answer(req, 1, Some(b"one")));
        deliver(&mut c, &mut rng, 20, 0, answer(req, 1, Some(b"one")));
        deliver(&mut c, &mut rng, 21, 0, answer(req, 1, Some(b"one")));
        assert_eq!(hits(&c), 0);
        deliver(&mut c, &mut rng, 40, 1, answer(req, 1, None));
        deliver(&mut c, &mut rng, 60, 2, answer(req, 1, None));
        assert_eq!((c.completed.len(), hits(&c)), (1, 0));
        // The next read finds the own copy stale: its fetch ranks once.
        let (req, _) = read_at(&mut c, &mut rng, 100);
        assert_eq!(hits(&c), 1);
        deliver(
            &mut c,
            &mut rng,
            102,
            CLIENT.0,
            answer(req, 1, Some(b"one")),
        );
        deliver(&mut c, &mut rng, 140, 1, answer(req, 2, None));
        assert_eq!(hits(&c), 1);
        let (sends, _) = deliver(&mut c, &mut rng, 160, 2, answer(req, 2, None));
        assert_eq!((fetched_from(&sends), hits(&c)), (vec![SiteId(1)], 2));
    }

    #[test]
    fn the_own_copys_contents_after_the_quorum_count_as_fetched() {
        let (mut c, mut rng) = (workstation(), DetRng::new(50));
        // The quorum settles at v2 before the own copy answers, with no
        // contents to hand: a fetch goes out. The own copy's answer, at
        // v2, ends the read as a content read's answer does.
        let (req, _) = read_at(&mut c, &mut rng, 0);
        deliver(&mut c, &mut rng, 40, 1, answer(req, 2, None));
        let (sends, _) = deliver(&mut c, &mut rng, 60, 2, answer(req, 2, None));
        assert_eq!(fetched_from(&sends), [SiteId(1)]);
        deliver(&mut c, &mut rng, 61, CLIENT.0, answer(req, 2, Some(b"two")));
        assert_eq!(read_back(&c, 0), (2, b"two".to_vec()));
        let stats = c.stats;
        let hits = (stats.reads_cache_hit, stats.reads_contents_with_inquiry);
        assert_eq!((hits, stats.reads_fetched), ((0, 0), 1));
    }

    #[test]
    fn a_read_behind_a_stale_entry_completes_in_one_round() {
        let mut c = cache_client(None);
        warm(&mut c, 1, b"one", SimTime::ZERO);
        let mut rng = DetRng::new(46);
        // Inquiries only, asking from one above the entry.
        let (req, sends) = read_at(&mut c, &mut rng, 0);
        assert_eq!(sends.len(), 3);
        assert_eq!(contents_asked(&sends), [(SiteId(0), Version(2))]);
        // The entry is stale. The contents that came with the answer
        // complete the read at the quorum and refresh the entry: one
        // contents-bearing answer, no fetch.
        let (sends, _) = deliver(&mut c, &mut rng, 20, 0, answer(req, 2, Some(b"two")));
        assert!(sends.is_empty());
        let (sends, _) = deliver(&mut c, &mut rng, 40, 1, answer(req, 2, None));
        assert!(sends.is_empty(), "{sends:?}");
        assert_eq!(read_back(&c, 0), (2, b"two".to_vec()));
        assert_eq!(c.completed[0].finished, SimTime::from_millis(40));
        let stats = c.stats;
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 0));
        let moved = (stats.reads_contents_with_inquiry, stats.reads_fetched);
        assert_eq!(moved, (1, 0));
        assert_eq!(attached(&c), Some(Version(2)));
    }
}
