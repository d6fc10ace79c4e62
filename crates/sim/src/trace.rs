//! Deterministic operation tracing: spans stamped from virtual time.
//!
//! Each node records into an append-only buffer of [`SpanRecord`]s. Spans
//! nest (each record carries an optional parent index) and together describe
//! one operation's path through the system: the client-side quorum assembly,
//! the per-site RPCs with their votes, the data move, the 2PC prepare and
//! commit phases, and the server-side lock waits, WAL writes, and repair
//! pulls.
//!
//! A node records through its one [`Recorder`]: the span buffer, the
//! quorum-decision log ([`crate::audit`]), one on/off switch, and the open
//! span tree of every client operation in flight. The protocol says what
//! happened — a phase began, a site answered, an attempt was retried — and
//! the recorder decides which span that is.
//!
//! # Determinism rules
//!
//! Tracing rides alongside the protocol and must never steer it:
//!
//! * a recorder only ever reads the node's **virtual clock** — it draws no
//!   randomness and emits no effects, so a traced run is message-for-message
//!   identical to an untraced run;
//! * span ids are **indices into the node's own buffer**, assigned in
//!   creation order — a node's trace is a pure function of the messages it
//!   handled;
//! * merged traces concatenate per-node buffers **in site order**, so the
//!   serialized form is byte-identical for any worker count when trials are
//!   merged in index order (see `wv_bench::runner`).
//!
//! The serialized form is JSONL over [`crate::json`] — one object per span,
//! keys alphabetical, written by [`to_jsonl`] and read back by
//! [`from_jsonl`] — so traces diff cleanly and golden files stay stable.

use std::collections::BTreeMap;

use crate::audit::AuditRecord;
use crate::json::{self, Value};
use crate::time::SimTime;

/// Sentinel for "no parent span" in a [`SpanRecord`].
pub const NO_PARENT: u32 = u32::MAX;
/// Sentinel for "no peer site" in a [`SpanRecord`].
pub const NO_PEER: u16 = u16::MAX;
/// `end_us` value of a span that was never closed.
pub const OPEN_END: u64 = u64::MAX;

/// What a span measures. Client-side kinds come first, then server-side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Client op root: a weighted-voting read.
    Read,
    /// Client op root: a weighted-voting write.
    Write,
    /// Client op root: a configuration change.
    Reconfigure,
    /// Client op root: a multi-suite transaction.
    Transaction,
    /// Version-number collection across a read quorum (quorum assembly).
    Inquiry,
    /// One site's request/response leg; `peer` is the site, `detail` the
    /// version it reported (or the vote it cast, under a prepare; or, for
    /// a leg that asked for contents, the version of those it brought).
    Rpc,
    /// Data move from a current representative.
    Fetch,
    /// 2PC prepare phase as seen by the coordinator.
    Prepare,
    /// 2PC commit phase (decision logged, waiting for acks).
    Commit,
    /// Server-side wait in the lock queue before a prepare could vote.
    LockWait,
    /// Server-side WAL append for a prepared write; `detail` is the version.
    WalWrite,
    /// Server-side group-commit flush: one durable write covering a batch
    /// of deferred records; `detail` is the batch size.
    WalBatch,
    /// Server-side apply of a commit or abort decision.
    Apply,
    /// Server-side anti-entropy pull round.
    RepairPull,
    /// Server-side install of repaired state; `detail` is the version.
    RepairInstall,
    /// Client read served from an attached weak representative; `detail`
    /// is the served version.
    CacheHit,
    /// Attached weak representative (re)filled from a quorum read;
    /// `detail` is the installed version.
    CacheRefresh,
    /// Server-side scanning WAL recovery; `detail` is the number of
    /// records replayed.
    DiskRecovery,
    /// The span of a replica's quarantine: opened when recovery detects
    /// interior corruption, closed when a full repair pull completes.
    /// `detail` is the number of suites awaiting confirmation at entry.
    Quarantine,
    /// A write waiting for, then riding, another write's prepare (a write
    /// train); `detail` is the op id of the write that carried it.
    Ride,
}

impl SpanKind {
    /// Every variant, in declaration order. [`SpanKind::from_name`]
    /// searches this table, so a variant listed here can never be
    /// emitted by `to_jsonl` and then rejected by `from_jsonl`; the
    /// exhaustive-match guard in the round-trip test turns a forgotten
    /// entry into a test failure instead of a silent import error.
    pub const ALL: [SpanKind; 20] = [
        SpanKind::Read,
        SpanKind::Write,
        SpanKind::Reconfigure,
        SpanKind::Transaction,
        SpanKind::Inquiry,
        SpanKind::Rpc,
        SpanKind::Fetch,
        SpanKind::Prepare,
        SpanKind::Commit,
        SpanKind::LockWait,
        SpanKind::WalWrite,
        SpanKind::WalBatch,
        SpanKind::Apply,
        SpanKind::RepairPull,
        SpanKind::RepairInstall,
        SpanKind::CacheHit,
        SpanKind::CacheRefresh,
        SpanKind::DiskRecovery,
        SpanKind::Quarantine,
        SpanKind::Ride,
    ];

    /// Stable lowercase name used in the JSONL form.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Read => "read",
            SpanKind::Write => "write",
            SpanKind::Reconfigure => "reconfigure",
            SpanKind::Transaction => "transaction",
            SpanKind::Inquiry => "inquiry",
            SpanKind::Rpc => "rpc",
            SpanKind::Fetch => "fetch",
            SpanKind::Prepare => "prepare",
            SpanKind::Commit => "commit",
            SpanKind::LockWait => "lock_wait",
            SpanKind::WalWrite => "wal_write",
            SpanKind::WalBatch => "wal_batch",
            SpanKind::Apply => "apply",
            SpanKind::RepairPull => "repair_pull",
            SpanKind::RepairInstall => "repair_install",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::CacheRefresh => "cache_refresh",
            SpanKind::DiskRecovery => "disk_recovery",
            SpanKind::Quarantine => "quarantine",
            SpanKind::Ride => "ride",
        }
    }

    /// Inverse of [`SpanKind::name`], driven by [`SpanKind::ALL`] so the
    /// reader and writer can never disagree about the name set.
    pub fn from_name(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// True for the kinds that root a client operation.
    pub fn is_op_root(self) -> bool {
        matches!(
            self,
            SpanKind::Read | SpanKind::Write | SpanKind::Reconfigure | SpanKind::Transaction
        )
    }
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanOutcome {
    /// Still open (only seen if a trace is drained mid-flight).
    Open,
    /// Completed successfully.
    Ok,
    /// Failed (unavailable, attempts exhausted, or indeterminate).
    Err,
    /// Abandoned by a phase timeout.
    Timeout,
    /// Aborted by a conflicting vote.
    Conflict,
    /// Answered with a stale version and discarded.
    Stale,
    /// Turned away by a busy or lock-refusing server.
    Refused,
    /// Outstanding when its phase ended; the reply never arrived.
    Unanswered,
    /// Still outstanding when its phase completed without it — e.g. an
    /// inquiry a quorum no longer needed.
    Lost,
    /// A prepare that gave way to an older one rather than deadlock.
    GaveWay,
}

impl SpanOutcome {
    /// Every variant, in declaration order; see [`SpanKind::ALL`].
    pub const ALL: [SpanOutcome; 10] = [
        SpanOutcome::Open,
        SpanOutcome::Ok,
        SpanOutcome::Err,
        SpanOutcome::Timeout,
        SpanOutcome::Conflict,
        SpanOutcome::Stale,
        SpanOutcome::Refused,
        SpanOutcome::Unanswered,
        SpanOutcome::Lost,
        SpanOutcome::GaveWay,
    ];

    /// Stable lowercase name used in the JSONL form.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Open => "open",
            SpanOutcome::Ok => "ok",
            SpanOutcome::Err => "err",
            SpanOutcome::Timeout => "timeout",
            SpanOutcome::Conflict => "conflict",
            SpanOutcome::Stale => "stale",
            SpanOutcome::Refused => "refused",
            SpanOutcome::Unanswered => "unanswered",
            SpanOutcome::Lost => "lost",
            SpanOutcome::GaveWay => "gave_way",
        }
    }

    /// Inverse of [`SpanOutcome::name`], driven by [`SpanOutcome::ALL`].
    pub fn from_name(s: &str) -> Option<SpanOutcome> {
        SpanOutcome::ALL.into_iter().find(|o| o.name() == s)
    }
}

/// Handle to an open span, valid only against the recorder that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// One completed (or still-open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Index of this span in its node's buffer.
    pub id: u32,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// What the span measures.
    pub kind: SpanKind,
    /// Site that recorded the span.
    pub site: u16,
    /// Remote site involved (RPC target), or [`NO_PEER`].
    pub peer: u16,
    /// Operation identifier (the raw request id) the span belongs to;
    /// 0 for spans outside any client op (e.g. repair).
    pub op: u64,
    /// Raw suite id the span concerns, or 0 for spans not scoped to one
    /// suite (a cross-suite group-commit flush, a quarantine, recovery).
    pub suite: u64,
    /// Virtual start time, microseconds.
    pub start_us: u64,
    /// Virtual end time, microseconds; [`OPEN_END`] while open.
    pub end_us: u64,
    /// Kind-specific payload: a version, a vote, a byte count.
    pub detail: u64,
    /// How the span ended.
    pub outcome: SpanOutcome,
}

impl SpanRecord {
    /// Span duration in microseconds; `None` while open.
    pub fn duration_us(&self) -> Option<u64> {
        if self.end_us == OPEN_END {
            None
        } else {
            Some(self.end_us.saturating_sub(self.start_us))
        }
    }

    /// Renders the span as a [`crate::json`] value (keys alphabetical),
    /// `null` for the no-parent / no-peer / still-open sentinels.
    pub fn to_value(&self) -> Value {
        let unless = |v: u64, sentinel: u64| {
            if v == sentinel {
                Value::Null
            } else {
                Value::Int(v)
            }
        };
        let mut m = BTreeMap::new();
        m.insert("detail".into(), Value::Int(self.detail));
        m.insert("end_us".into(), unless(self.end_us, OPEN_END));
        m.insert("id".into(), Value::Int(u64::from(self.id)));
        m.insert("kind".into(), Value::Str(self.kind.name().into()));
        m.insert("op".into(), Value::Int(self.op));
        m.insert("outcome".into(), Value::Str(self.outcome.name().into()));
        let parent = unless(u64::from(self.parent), u64::from(NO_PARENT));
        m.insert("parent".into(), parent);
        m.insert(
            "peer".into(),
            unless(u64::from(self.peer), u64::from(NO_PEER)),
        );
        m.insert("site".into(), Value::Int(u64::from(self.site)));
        m.insert("start_us".into(), Value::Int(self.start_us));
        m.insert("suite".into(), Value::Int(self.suite));
        Value::Object(m)
    }

    /// Parses a span from a [`crate::json`] value. A missing `"suite"`
    /// (traces written before the suite dimension existed) reads as 0.
    pub fn from_value(v: &Value) -> Option<SpanRecord> {
        let or = |key: &str, sentinel: u64| match v.get(key)? {
            Value::Null => Some(sentinel),
            other => other.as_int(),
        };
        Some(SpanRecord {
            id: json::int(v, "id")?,
            parent: or("parent", u64::from(NO_PARENT))?.try_into().ok()?,
            kind: SpanKind::from_name(v.get("kind")?.as_str()?)?,
            site: json::int(v, "site")?,
            peer: or("peer", u64::from(NO_PEER))?.try_into().ok()?,
            op: json::int(v, "op")?,
            suite: json::int(v, "suite").unwrap_or(0),
            start_us: json::int(v, "start_us")?,
            end_us: or("end_us", OPEN_END)?,
            detail: json::int(v, "detail")?,
            outcome: SpanOutcome::from_name(v.get("outcome")?.as_str()?)?,
        })
    }
}

/// A [`Recorder`]'s span buffer: ids are indices into it. See the module
/// docs for the determinism contract.
#[derive(Debug, Default)]
struct SpanBuffer {
    site: u16,
    spans: Vec<SpanRecord>,
}

impl SpanBuffer {
    fn new(site: u16) -> Self {
        SpanBuffer {
            site,
            spans: Vec::new(),
        }
    }

    /// Opens a span at `now`; close it with [`SpanBuffer::end`]. `suite`
    /// is the raw suite id the span concerns (0 when not suite-scoped).
    #[allow(clippy::too_many_arguments)]
    fn start(
        &mut self,
        kind: SpanKind,
        suite: u64,
        op: u64,
        parent: Option<SpanId>,
        peer: Option<u16>,
        detail: u64,
        now: SimTime,
    ) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            id,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            kind,
            site: self.site,
            peer: peer.unwrap_or(NO_PEER),
            op,
            suite,
            start_us: now.as_micros(),
            end_us: OPEN_END,
            detail,
            outcome: SpanOutcome::Open,
        });
        SpanId(id)
    }

    /// Closes a span. Closing twice keeps the first outcome.
    fn end(&mut self, id: SpanId, now: SimTime, outcome: SpanOutcome) {
        let s = &mut self.spans[id.0 as usize];
        if s.end_us == OPEN_END {
            s.end_us = now.as_micros();
            s.outcome = outcome;
        }
    }

    /// Closes a span and overwrites its detail payload.
    fn end_with_detail(&mut self, id: SpanId, now: SimTime, outcome: SpanOutcome, detail: u64) {
        let open = self.spans[id.0 as usize].end_us == OPEN_END;
        if open {
            self.spans[id.0 as usize].detail = detail;
        }
        self.end(id, now, outcome);
    }

    /// Records an instantaneous event: a zero-duration `Ok` span.
    #[allow(clippy::too_many_arguments)]
    fn event(
        &mut self,
        kind: SpanKind,
        suite: u64,
        op: u64,
        parent: Option<SpanId>,
        peer: Option<u16>,
        detail: u64,
        now: SimTime,
    ) -> SpanId {
        let id = self.start(kind, suite, op, parent, peer, detail, now);
        self.end(id, now, SpanOutcome::Ok);
        id
    }

    /// Drains the buffer (ids restart at 0).
    fn take(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans)
    }
}

/// The open spans of one client operation, or of its commit round: the
/// root, the current phase, and the phase's open per-site
/// request/response spans and content legs.
#[derive(Debug)]
struct OpSpans {
    /// The op's identity in the trace: its first request id, kept across
    /// retries.
    op: u64,
    /// The suite stamped on every span under the root.
    suite: u64,
    root: SpanId,
    /// The current phase span (inquiry / fetch / prepare / commit / ride).
    phase: Option<SpanId>,
    /// Open request/response spans of the phase (inquiries, prepares,
    /// commit acks), by site.
    rpcs: Vec<(u16, SpanId)>,
    /// Open content legs of the phase — the sites asked for the contents
    /// alongside the inquiry, the current fetch candidate — by site.
    legs: Vec<(u16, SpanId)>,
}

impl OpSpans {
    /// Opens a span of the op's under `parent`.
    fn span(
        &self,
        tr: &mut SpanBuffer,
        kind: SpanKind,
        parent: Option<SpanId>,
        peer: Option<u16>,
        now: SimTime,
    ) -> SpanId {
        tr.start(kind, self.suite, self.op, parent, peer, 0, now)
    }

    /// Opens a span per site under the phase: content legs if `legs`,
    /// request/response spans otherwise.
    fn open(
        &mut self,
        tr: &mut SpanBuffer,
        legs: bool,
        sites: impl IntoIterator<Item = u16>,
        now: SimTime,
    ) {
        for site in sites {
            let id = self.span(tr, SpanKind::Rpc, self.phase, Some(site), now);
            let open = if legs { &mut self.legs } else { &mut self.rpcs };
            open.push((site, id));
        }
    }

    /// Closes the phase with `outcome`. Its RPCs and legs still open end
    /// `Lost` when the phase completed without them, `Timeout` when it
    /// timed out, and `Unanswered` otherwise.
    fn close_phase(&mut self, tr: &mut SpanBuffer, outcome: SpanOutcome, now: SimTime) {
        let loose = match outcome {
            SpanOutcome::Ok => SpanOutcome::Lost,
            SpanOutcome::Timeout => SpanOutcome::Timeout,
            _ => SpanOutcome::Unanswered,
        };
        for (_, id) in self.rpcs.drain(..).chain(self.legs.drain(..)) {
            tr.end(id, now, loose);
        }
        if let Some(p) = self.phase.take() {
            tr.end(p, now, outcome);
        }
    }
}

/// Ends the open span aimed at `site` in `open`, if there is one.
fn end_at(
    tr: &mut SpanBuffer,
    open: &mut Vec<(u16, SpanId)>,
    site: u16,
    outcome: SpanOutcome,
    detail: u64,
    now: SimTime,
) {
    if let Some(pos) = open.iter().position(|(s, _)| *s == site) {
        let (_, id) = open.remove(pos);
        tr.end_with_detail(id, now, outcome, detail);
    }
}

/// A node's one observability sink: its span buffer, its quorum-decision
/// log, one switch for both, and the open span tree of every client
/// operation in flight, keyed by the request id of the attempt in flight.
///
/// Off (the default), every method returns at once and keeps nothing:
/// arguments that list sites are iterators, consumed only when on. A
/// recorder reads the virtual time it is handed and nothing else, so
/// turning it on cannot perturb the protocol.
///
/// Operation calls name a request id. One the recorder holds no tree for
/// — the operation began before recording did, or before the last
/// [`Recorder::take`], or the node crashed since — records nothing: what
/// is still in flight at a drain goes on untraced.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    /// Spans drained so far. The ids [`Recorder::start`] hands out count
    /// from the first span ever recorded, so one that outlives a drain
    /// closes nothing.
    drained: u32,
    spans: SpanBuffer,
    decisions: Vec<AuditRecord>,
    ops: BTreeMap<u64, OpSpans>,
    /// Commit rounds still collecting acks, by the decided request id. A
    /// round outlives an operation reported at its decision.
    commits: BTreeMap<u64, OpSpans>,
}

impl Recorder {
    /// An idle recorder for the given site.
    pub fn new(site: u16) -> Self {
        Recorder {
            spans: SpanBuffer::new(site),
            ..Recorder::default()
        }
    }

    /// Turns recording of spans and decisions on. Idempotent.
    pub fn enable(&mut self) {
        self.on = true;
    }

    /// Drains the recorded spans (ids restart at 0) and decisions, and
    /// forgets every open span tree.
    pub fn take(&mut self) -> (Vec<SpanRecord>, Vec<AuditRecord>) {
        self.forget();
        let spans = self.spans.take();
        self.drained += spans.len() as u32;
        (spans, std::mem::take(&mut self.decisions))
    }

    /// Forgets every open span tree, leaving its spans open in the record:
    /// a crash loses the operations they belong to.
    pub fn forget(&mut self) {
        self.ops.clear();
        self.commits.clear();
    }

    /// Opens a span outside any operation tree; close it with
    /// [`Recorder::end`]. `None` when off.
    pub fn start(
        &mut self,
        kind: SpanKind,
        suite: u64,
        op: u64,
        peer: Option<u16>,
        detail: u64,
        now: SimTime,
    ) -> Option<SpanId> {
        let id = self
            .on
            .then(|| self.spans.start(kind, suite, op, None, peer, detail, now));
        id.map(|SpanId(i)| SpanId(self.drained + i))
    }

    /// Closes a span [`Recorder::start`] opened, unless it was drained
    /// open. Closing twice keeps the first outcome.
    pub fn end(&mut self, span: Option<SpanId>, outcome: SpanOutcome, now: SimTime) {
        if let Some(i) = span.and_then(|SpanId(id)| id.checked_sub(self.drained)) {
            self.spans.end(SpanId(i), now, outcome);
        }
    }

    /// Records an instantaneous event outside any operation tree.
    pub fn event(
        &mut self,
        kind: SpanKind,
        suite: u64,
        op: u64,
        peer: Option<u16>,
        detail: u64,
        now: SimTime,
    ) {
        if self.on {
            self.spans.event(kind, suite, op, None, peer, detail, now);
        }
    }

    /// Records one planner decision made at `now`. `decide` builds it only
    /// when on; the recorder stamps its site and time.
    pub fn decision(&mut self, now: SimTime, decide: impl FnOnce() -> AuditRecord) {
        if self.on {
            let (site, at_us) = (self.spans.site, now.as_micros());
            self.decisions.push(AuditRecord {
                site,
                at_us,
                ..decide()
            });
        }
    }

    /// Opens the root span of operation `req` — its id in the trace for
    /// good, whatever its later attempts are called.
    pub fn op(&mut self, req: u64, kind: SpanKind, suite: u64, now: SimTime) {
        if self.on {
            let root = self.spans.start(kind, suite, req, None, None, 0, now);
            let spans = OpSpans {
                op: req,
                suite,
                root,
                phase: None,
                rpcs: Vec::new(),
                legs: Vec::new(),
            };
            self.ops.insert(req, spans);
        }
    }

    /// `req` enters a phase of `kind`, asking `rpcs` and, for the
    /// contents, `legs`. A phase still open — an attempt abandoned half
    /// way — closes `Unanswered`.
    pub fn phase(
        &mut self,
        req: u64,
        kind: SpanKind,
        rpcs: impl IntoIterator<Item = u16>,
        legs: impl IntoIterator<Item = u16>,
        now: SimTime,
    ) {
        let Some(t) = self.ops.get_mut(&req) else {
            return;
        };
        let tr = &mut self.spans;
        t.close_phase(tr, SpanOutcome::Unanswered, now);
        t.phase = Some(t.span(tr, kind, Some(t.root), None, now));
        t.open(tr, false, rpcs, now);
        t.open(tr, true, legs, now);
    }

    /// `req`'s phase asks `sites` too.
    pub fn rpcs(&mut self, req: u64, sites: impl IntoIterator<Item = u16>, now: SimTime) {
        if let Some(t) = self.ops.get_mut(&req) {
            t.open(&mut self.spans, false, sites, now);
        }
    }

    /// `req`'s phase asks `site` for the contents.
    pub fn leg(&mut self, req: u64, site: u16, now: SimTime) {
        if let Some(t) = self.ops.get_mut(&req) {
            t.open(&mut self.spans, true, [site], now);
        }
    }

    /// `site` answered `req`'s phase — or, by `outcome`, did not.
    pub fn end_rpc(
        &mut self,
        req: u64,
        site: u16,
        outcome: SpanOutcome,
        detail: u64,
        now: SimTime,
    ) {
        if let Some(t) = self.ops.get_mut(&req) {
            end_at(&mut self.spans, &mut t.rpcs, site, outcome, detail, now);
        }
    }

    /// Contents (or a refusal) came from `site` for `req`.
    pub fn end_leg(
        &mut self,
        req: u64,
        site: u16,
        outcome: SpanOutcome,
        detail: u64,
        now: SimTime,
    ) {
        if let Some(t) = self.ops.get_mut(&req) {
            end_at(&mut self.spans, &mut t.legs, site, outcome, detail, now);
        }
    }

    /// `req`'s phase timed out on the contents: every open leg ends.
    pub fn legs_timed_out(&mut self, req: u64, now: SimTime) {
        if let Some(t) = self.ops.get_mut(&req) {
            for (_, id) in t.legs.drain(..) {
                self.spans.end(id, now, SpanOutcome::Timeout);
            }
        }
    }

    /// `req`'s phase ends with `outcome`.
    pub fn close_phase(&mut self, req: u64, outcome: SpanOutcome, now: SimTime) {
        if let Some(t) = self.ops.get_mut(&req) {
            t.close_phase(&mut self.spans, outcome, now);
        }
    }

    /// Attempt `req` ended for the cause `outcome` names, and the
    /// operation goes on as `next`.
    pub fn retry(&mut self, req: u64, next: u64, outcome: SpanOutcome, now: SimTime) {
        if let Some(mut t) = self.ops.remove(&req) {
            t.close_phase(&mut self.spans, outcome, now);
            self.ops.insert(next, t);
        }
    }

    /// `rider`, parked behind `carrier`'s prepare, stops riding with it:
    /// its ride phase ends with `outcome`, naming the carrier's op.
    pub fn rode(&mut self, rider: u64, carrier: u64, outcome: SpanOutcome, now: SimTime) {
        let carrier = self.ops.get(&carrier).map_or(0, |t| t.op);
        if let Some(ride) = self.ops.get_mut(&rider).and_then(|t| t.phase.take()) {
            self.spans.end_with_detail(ride, now, outcome, carrier);
        }
    }

    /// An instantaneous event of `req`'s, under its root.
    pub fn op_event(&mut self, req: u64, kind: SpanKind, detail: u64, now: SimTime) {
        if let Some(t) = self.ops.get(&req) {
            let event = t.span(&mut self.spans, kind, Some(t.root), None, now);
            self.spans
                .end_with_detail(event, now, SpanOutcome::Ok, detail);
        }
    }

    /// `req` is decided: the decision-log append, the end of its prepare,
    /// and a commit round out to `participants`. The round keeps its own
    /// tree: it ends at [`Recorder::commit_ended`], however long after the
    /// operation's root closed.
    pub fn commit(&mut self, req: u64, participants: impl IntoIterator<Item = u16>, now: SimTime) {
        let Some(t) = self.ops.get_mut(&req) else {
            return;
        };
        let tr = &mut self.spans;
        let appended = t.span(tr, SpanKind::WalWrite, Some(t.root), None, now);
        tr.end(appended, now, SpanOutcome::Ok);
        t.close_phase(tr, SpanOutcome::Ok, now);
        let phase = t.span(tr, SpanKind::Commit, Some(t.root), None, now);
        let mut round = OpSpans {
            phase: Some(phase),
            rpcs: Vec::new(),
            legs: Vec::new(),
            ..*t
        };
        round.open(tr, false, participants, now);
        self.commits.insert(req, round);
    }

    /// `site` acknowledged `req`'s commit.
    pub fn commit_acked(&mut self, req: u64, site: u16, now: SimTime) {
        if let Some(t) = self.commits.get_mut(&req) {
            end_at(&mut self.spans, &mut t.rpcs, site, SpanOutcome::Ok, 1, now);
        }
    }

    /// `req`'s commit round ends: every participant `acked`, or resending
    /// stopped.
    pub fn commit_ended(&mut self, req: u64, acked: bool, now: SimTime) {
        if let Some(mut t) = self.commits.remove(&req) {
            let outcome = if acked {
                SpanOutcome::Ok
            } else {
                SpanOutcome::Timeout
            };
            t.close_phase(&mut self.spans, outcome, now);
        }
    }

    /// Operation `req` is reported (or fails): its phase and root end with
    /// `outcome`. A commit round still out is left open.
    pub fn finish(&mut self, req: u64, outcome: SpanOutcome, now: SimTime) {
        if let Some(mut t) = self.ops.remove(&req) {
            t.close_phase(&mut self.spans, outcome, now);
            self.spans.end(t.root, now, outcome);
        }
    }
}

/// Appends one node's drained spans to a merged record, rebasing ids so
/// they stay unique across nodes: each incoming id (and non-sentinel
/// parent) is offset by the current length of `merged`. Ids within one
/// node are vector indices, so the result is contiguous — and
/// deterministic whenever nodes are drained in a fixed order.
pub fn rebase_merge(merged: &mut Vec<SpanRecord>, spans: Vec<SpanRecord>) {
    let base = merged.len() as u32;
    for mut s in spans {
        s.id += base;
        if s.parent != NO_PARENT {
            s.parent += base;
        }
        merged.push(s);
    }
}

/// Serializes spans as JSONL: one [`SpanRecord::to_value`] per line.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    crate::json::to_jsonl(spans, SpanRecord::to_value)
}

/// Parses the output of [`to_jsonl`] back into span records.
pub fn from_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    crate::json::from_jsonl(text, "a span record", SpanRecord::from_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut tr = SpanBuffer::new(3);
        let root = tr.start(SpanKind::Read, 5, 77, None, None, 0, t(0));
        let inq = tr.start(SpanKind::Inquiry, 5, 77, Some(root), None, 0, t(0));
        let rpc = tr.start(SpanKind::Rpc, 5, 77, Some(inq), Some(1), 0, t(0));
        tr.end_with_detail(rpc, t(150), SpanOutcome::Ok, 9);
        tr.end(inq, t(150), SpanOutcome::Ok);
        tr.end(root, t(200), SpanOutcome::Ok);

        let recs = &tr.spans;
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].parent, NO_PARENT);
        assert_eq!(recs[1].parent, 0);
        assert_eq!(recs[2].parent, 1);
        assert_eq!(recs[2].peer, 1);
        assert_eq!(recs[2].detail, 9);
        assert_eq!(recs[2].duration_us(), Some(150));
        assert_eq!(recs[0].duration_us(), Some(200));
        assert!(recs.iter().all(|r| r.site == 3));
        assert!(recs.iter().all(|r| r.suite == 5));
    }

    #[test]
    fn double_end_keeps_first_outcome() {
        let mut tr = SpanBuffer::new(0);
        let s = tr.start(SpanKind::Fetch, 0, 1, None, None, 0, t(0));
        tr.end(s, t(10), SpanOutcome::Timeout);
        tr.end(s, t(20), SpanOutcome::Ok);
        assert_eq!(tr.spans[0].outcome, SpanOutcome::Timeout);
        assert_eq!(tr.spans[0].end_us, 10);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut tr = SpanBuffer::new(2);
        let root = tr.start(SpanKind::Write, 9, 0x1_0002, None, None, 0, t(5));
        let rpc = tr.start(SpanKind::Rpc, 9, 0x1_0002, Some(root), Some(4), 0, t(5));
        tr.end_with_detail(rpc, t(80), SpanOutcome::Refused, 3);
        tr.end(root, t(90), SpanOutcome::Err);
        tr.start(SpanKind::Fetch, 9, 0x1_0002, Some(root), None, 0, t(95));

        let text = to_jsonl(&tr.spans);
        assert!(text.lines().all(|l| l.contains("\"suite\":9")));
        assert_eq!(
            text.lines().nth(1),
            Some(
                "{\"detail\":3,\"end_us\":80,\"id\":1,\"kind\":\"rpc\",\"op\":65538,\
                 \"outcome\":\"refused\",\"parent\":0,\"peer\":4,\"site\":2,\
                 \"start_us\":5,\"suite\":9}"
            )
        );
        assert!(text.contains("\"end_us\":null,\"id\":2"), "open: {text}");
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, tr.spans);
        // An integer too large for its field is refused, not wrapped.
        let line = text.lines().nth(1).expect("a span");
        for (was, big) in [
            ("\"id\":1,", "\"id\":4294967296,"),
            ("\"site\":2,", "\"site\":65537,"),
            ("\"peer\":4,", "\"peer\":65540,"),
        ] {
            assert!(line.contains(was), "{was}");
            assert!(from_jsonl(&line.replacen(was, big, 1)).is_err(), "{big}");
        }
    }

    #[test]
    fn an_idle_recorder_keeps_nothing() {
        let mut rec = Recorder::new(1);
        rec.op(7, SpanKind::Read, 5, t(0));
        rec.phase(7, SpanKind::Inquiry, [0, 1], [2], t(0));
        rec.event(SpanKind::Apply, 5, 7, None, 0, t(1));
        assert_eq!(rec.start(SpanKind::LockWait, 5, 7, Some(0), 0, t(1)), None);
        rec.finish(7, SpanOutcome::Ok, t(2));
        assert_eq!(rec.take(), (Vec::new(), Vec::new()));
    }

    #[test]
    fn a_span_drained_open_stays_out_of_the_next_drain() {
        let mut rec = Recorder::new(0);
        rec.enable();
        let waiting = rec.start(SpanKind::LockWait, 5, 7, Some(3), 0, t(0));
        rec.event(SpanKind::Apply, 5, 6, None, 1, t(1));
        let (first, _) = rec.take();
        assert_eq!(first[0].outcome, SpanOutcome::Open);
        let next = rec.start(SpanKind::LockWait, 5, 8, Some(3), 0, t(2));
        rec.end(waiting, SpanOutcome::Ok, t(3));
        rec.end(next, SpanOutcome::Conflict, t(4));
        let (second, _) = rec.take();
        let got: Vec<_> = second.iter().map(|s| (s.op, s.end_us, s.outcome)).collect();
        assert_eq!(got, [(8, 4, SpanOutcome::Conflict)]);
    }

    #[test]
    fn the_recorder_closes_what_a_phase_leaves_open() {
        let mut rec = Recorder::new(3);
        rec.enable();
        rec.op(7, SpanKind::Write, 5, t(0));
        rec.phase(7, SpanKind::Inquiry, [0, 1, 2], [], t(0));
        rec.end_rpc(7, 1, SpanOutcome::Ok, 4, t(10));
        // A new phase closes the open one: whoever was silent, unanswered.
        rec.phase(7, SpanKind::Prepare, [1, 2], [], t(20));
        // The retry re-keys the tree; the old id records nothing more.
        rec.retry(7, 8, SpanOutcome::Conflict, t(30));
        rec.end_rpc(7, 2, SpanOutcome::Ok, 1, t(31));
        rec.phase(8, SpanKind::Prepare, [1, 2], [], t(40));
        rec.commit(8, [1, 2], t(50));
        rec.finish(8, SpanOutcome::Ok, t(50));
        rec.commit_acked(8, 1, t(60));
        let (spans, _) = rec.take();
        // The commit round outlived the root; the drain forgot it.
        rec.commit_ended(8, true, t(70));
        assert!(rec.take().0.is_empty());

        let got: Vec<_> = spans
            .iter()
            .map(|s| (s.kind, s.peer, s.end_us, s.outcome))
            .collect();
        use SpanKind::*;
        use SpanOutcome::*;
        let want = [
            (Write, NO_PEER, 50, Ok),
            (Inquiry, NO_PEER, 20, Unanswered),
            (Rpc, 0, 20, Unanswered),
            (Rpc, 1, 10, Ok),
            (Rpc, 2, 20, Unanswered),
            (Prepare, NO_PEER, 30, Conflict),
            (Rpc, 1, 30, Unanswered),
            (Rpc, 2, 30, Unanswered),
            (Prepare, NO_PEER, 50, Ok),
            (Rpc, 1, 50, Lost),
            (Rpc, 2, 50, Lost),
            (WalWrite, NO_PEER, 50, Ok),
            (Commit, NO_PEER, OPEN_END, Open),
            (Rpc, 1, 60, Ok),
            (Rpc, 2, OPEN_END, Open),
        ];
        assert_eq!(got, want);
        assert!(spans.iter().all(|s| s.op == 7 && s.suite == 5));
    }

    #[test]
    fn traces_without_a_suite_key_parse_as_suite_zero() {
        // A line written before the suite dimension existed.
        let old = "{\"detail\":0,\"end_us\":90,\"id\":0,\"kind\":\"read\",\"op\":7,\
                   \"outcome\":\"ok\",\"parent\":null,\"peer\":null,\"site\":2,\
                   \"start_us\":5}\n";
        let back = from_jsonl(old).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].kind, SpanKind::Read);
        assert_eq!(back[0].suite, 0);
        assert_eq!(back[0].op, 7);
    }

    // One arm per variant, no wildcard: adding a `SpanKind` is a compile
    // error here until it gets a slot, and the round-trip test below then
    // forces that slot to exist in `ALL` (bump `N_KINDS` alongside).
    const N_KINDS: usize = 20;
    fn kind_slot(k: SpanKind) -> usize {
        match k {
            SpanKind::Read => 0,
            SpanKind::Write => 1,
            SpanKind::Reconfigure => 2,
            SpanKind::Transaction => 3,
            SpanKind::Inquiry => 4,
            SpanKind::Rpc => 5,
            SpanKind::Fetch => 6,
            SpanKind::Prepare => 7,
            SpanKind::Commit => 8,
            SpanKind::LockWait => 9,
            SpanKind::WalWrite => 10,
            SpanKind::WalBatch => 11,
            SpanKind::Apply => 12,
            SpanKind::RepairPull => 13,
            SpanKind::RepairInstall => 14,
            SpanKind::CacheHit => 15,
            SpanKind::CacheRefresh => 16,
            SpanKind::DiskRecovery => 17,
            SpanKind::Quarantine => 18,
            SpanKind::Ride => 19,
        }
    }

    const N_OUTCOMES: usize = 10;
    fn outcome_slot(o: SpanOutcome) -> usize {
        match o {
            SpanOutcome::Open => 0,
            SpanOutcome::Ok => 1,
            SpanOutcome::Err => 2,
            SpanOutcome::Timeout => 3,
            SpanOutcome::Conflict => 4,
            SpanOutcome::Stale => 5,
            SpanOutcome::Refused => 6,
            SpanOutcome::Unanswered => 7,
            SpanOutcome::Lost => 8,
            SpanOutcome::GaveWay => 9,
        }
    }

    #[test]
    fn every_kind_and_outcome_round_trips_through_its_name() {
        assert_eq!(SpanKind::ALL.len(), N_KINDS);
        for (i, k) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind_slot(k), i, "ALL out of declaration order at {i}");
            assert_eq!(SpanKind::from_name(k.name()), Some(k), "kind {}", k.name());
        }
        let mut names: Vec<_> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_KINDS, "duplicate kind name");

        assert_eq!(SpanOutcome::ALL.len(), N_OUTCOMES);
        for (i, o) in SpanOutcome::ALL.into_iter().enumerate() {
            assert_eq!(outcome_slot(o), i, "ALL out of declaration order at {i}");
            assert_eq!(
                SpanOutcome::from_name(o.name()),
                Some(o),
                "outcome {}",
                o.name()
            );
        }
        let mut names: Vec<_> = SpanOutcome::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OUTCOMES, "duplicate outcome name");

        assert_eq!(SpanKind::from_name("bogus"), None);
        assert_eq!(SpanOutcome::from_name("bogus"), None);
    }

    #[test]
    fn take_drains_and_restarts_ids() {
        let mut tr = SpanBuffer::new(0);
        tr.event(SpanKind::WalWrite, 0, 0, None, None, 7, t(1));
        let drained = tr.take();
        assert_eq!(drained.len(), 1);
        assert!(tr.spans.is_empty());
        let s = tr.start(SpanKind::Apply, 0, 0, None, None, 0, t(2));
        assert_eq!(s, SpanId(0));
    }
}
