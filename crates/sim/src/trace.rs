//! Deterministic operation tracing: spans stamped from virtual time.
//!
//! A [`Tracer`] is a per-node, append-only buffer of [`SpanRecord`]s. Spans
//! nest (each record carries an optional parent index) and together describe
//! one operation's path through the system: the client-side quorum assembly,
//! the per-site RPCs with their votes, the data move, the 2PC prepare and
//! commit phases, and the server-side lock waits, WAL writes, and repair
//! pulls.
//!
//! # Determinism rules
//!
//! Tracing rides alongside the protocol and must never steer it:
//!
//! * a tracer only ever reads the node's **virtual clock** — it draws no
//!   randomness and emits no effects, so a traced run is message-for-message
//!   identical to an untraced run;
//! * span ids are **indices into the node's own buffer**, assigned in
//!   creation order — a node's trace is a pure function of the messages it
//!   handled;
//! * merged traces concatenate per-node buffers **in site order**, so the
//!   serialized form is byte-identical for any worker count when trials are
//!   merged in index order (see `wv_bench::runner`).
//!
//! The serialized form is JSONL — one object per span, keys in fixed
//! alphabetical order, written by [`to_jsonl`] and read back by
//! [`from_jsonl`] — so traces diff cleanly and golden files stay stable.

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

/// Handle to an open span, valid only against the tracer that issued it.
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
}

/// Per-node span buffer. See the module docs for the determinism contract.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    site: u16,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// Creates an empty tracer for the given site.
    pub fn new(site: u16) -> Self {
        Tracer {
            site,
            spans: Vec::new(),
        }
    }

    /// Opens a span at `now`; close it with [`Tracer::end`]. `suite` is
    /// the raw suite id the span concerns (0 when not suite-scoped).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
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
    pub fn end(&mut self, id: SpanId, now: SimTime, outcome: SpanOutcome) {
        let s = &mut self.spans[id.0 as usize];
        if s.end_us == OPEN_END {
            s.end_us = now.as_micros();
            s.outcome = outcome;
        }
    }

    /// Closes a span and overwrites its detail payload.
    pub fn end_with_detail(&mut self, id: SpanId, now: SimTime, outcome: SpanOutcome, detail: u64) {
        let open = self.spans[id.0 as usize].end_us == OPEN_END;
        if open {
            self.spans[id.0 as usize].detail = detail;
        }
        self.end(id, now, outcome);
    }

    /// Records an instantaneous event: a zero-duration `Ok` span.
    #[allow(clippy::too_many_arguments)]
    pub fn event(
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

    /// True if the span has not been closed yet.
    pub fn is_open(&self, id: SpanId) -> bool {
        self.spans[id.0 as usize].end_us == OPEN_END
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Read-only view of the recorded spans, in creation order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Drains the buffer, leaving the tracer empty (ids restart at 0).
    pub fn take(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans)
    }
}

/// Appends one node's drained spans to a merged record, rebasing ids so
/// they stay unique across nodes: each incoming id (and non-sentinel
/// parent) is offset by the current length of `merged`. Ids within one
/// tracer are vector indices, so the result is contiguous — and
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

/// Serializes spans as JSONL: one object per line, keys alphabetical,
/// `null` for the no-parent / no-peer / still-open sentinels.
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        out.push_str("{\"detail\":");
        let _ = write!(out, "{}", s.detail);
        out.push_str(",\"end_us\":");
        if s.end_us == OPEN_END {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.end_us);
        }
        let _ = write!(out, ",\"id\":{}", s.id);
        let _ = write!(out, ",\"kind\":\"{}\"", s.kind.name());
        let _ = write!(out, ",\"op\":{}", s.op);
        let _ = write!(out, ",\"outcome\":\"{}\"", s.outcome.name());
        out.push_str(",\"parent\":");
        if s.parent == NO_PARENT {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.parent);
        }
        out.push_str(",\"peer\":");
        if s.peer == NO_PEER {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.peer);
        }
        let _ = write!(out, ",\"site\":{}", s.site);
        let _ = write!(out, ",\"start_us\":{}", s.start_us);
        let _ = write!(out, ",\"suite\":{}}}", s.suite);
        out.push('\n');
    }
    out
}

/// Parses the output of [`to_jsonl`] back into span records.
///
/// The parser accepts exactly the fixed shape `to_jsonl` emits (flat
/// objects, no escapes inside strings) — it is a trace reader, not a
/// general JSON parser.
pub fn from_jsonl(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let body = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(|| format!("line {}: not an object", lineno + 1))?;
        let mut rec = SpanRecord {
            id: 0,
            parent: NO_PARENT,
            kind: SpanKind::Read,
            site: 0,
            peer: NO_PEER,
            op: 0,
            suite: 0,
            start_us: 0,
            end_us: OPEN_END,
            detail: 0,
            outcome: SpanOutcome::Open,
        };
        for field in body.split(',') {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("line {}: bad field {field:?}", lineno + 1))?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("line {}: bad number {v:?} for {key}", lineno + 1))
            };
            match key {
                "detail" => rec.detail = parse_u64(value)?,
                "end_us" => {
                    rec.end_us = if value == "null" {
                        OPEN_END
                    } else {
                        parse_u64(value)?
                    }
                }
                "id" => rec.id = parse_u64(value)? as u32,
                "kind" => {
                    rec.kind = SpanKind::from_name(value.trim_matches('"'))
                        .ok_or_else(|| format!("line {}: unknown kind {value}", lineno + 1))?
                }
                "op" => rec.op = parse_u64(value)?,
                "outcome" => {
                    rec.outcome = SpanOutcome::from_name(value.trim_matches('"'))
                        .ok_or_else(|| format!("line {}: unknown outcome {value}", lineno + 1))?
                }
                "parent" => {
                    rec.parent = if value == "null" {
                        NO_PARENT
                    } else {
                        parse_u64(value)? as u32
                    }
                }
                "peer" => {
                    rec.peer = if value == "null" {
                        NO_PEER
                    } else {
                        parse_u64(value)? as u16
                    }
                }
                "site" => rec.site = parse_u64(value)? as u16,
                "start_us" => rec.start_us = parse_u64(value)?,
                // Absent in traces written before the suite dimension
                // existed; the default 0 ("not suite-scoped") applies.
                "suite" => rec.suite = parse_u64(value)?,
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        out.push(rec);
    }
    Ok(out)
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
        let mut tr = Tracer::new(3);
        let root = tr.start(SpanKind::Read, 5, 77, None, None, 0, t(0));
        let inq = tr.start(SpanKind::Inquiry, 5, 77, Some(root), None, 0, t(0));
        let rpc = tr.start(SpanKind::Rpc, 5, 77, Some(inq), Some(1), 0, t(0));
        tr.end_with_detail(rpc, t(150), SpanOutcome::Ok, 9);
        tr.end(inq, t(150), SpanOutcome::Ok);
        tr.end(root, t(200), SpanOutcome::Ok);

        let recs = tr.records();
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
        let mut tr = Tracer::new(0);
        let s = tr.start(SpanKind::Fetch, 0, 1, None, None, 0, t(0));
        tr.end(s, t(10), SpanOutcome::Timeout);
        tr.end(s, t(20), SpanOutcome::Ok);
        assert_eq!(tr.records()[0].outcome, SpanOutcome::Timeout);
        assert_eq!(tr.records()[0].end_us, 10);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut tr = Tracer::new(2);
        let root = tr.start(SpanKind::Write, 9, 0x1_0002, None, None, 0, t(5));
        let rpc = tr.start(SpanKind::Rpc, 9, 0x1_0002, Some(root), Some(4), 0, t(5));
        tr.end_with_detail(rpc, t(80), SpanOutcome::Refused, 3);
        tr.end(root, t(90), SpanOutcome::Err);
        let open = tr.start(SpanKind::Fetch, 9, 0x1_0002, Some(root), None, 0, t(95));
        assert!(tr.is_open(open));

        let text = to_jsonl(tr.records());
        assert!(text.lines().all(|l| l.contains("\"suite\":9")));
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, tr.records());
    }

    #[test]
    fn traces_without_a_suite_key_parse_as_suite_zero() {
        // A line written before the suite dimension existed.
        let old = "{\"detail\":0,\"end_us\":90,\"id\":0,\"kind\":\"read\",\"op\":7,\
                   \"outcome\":\"ok\",\"parent\":null,\"peer\":null,\"site\":2,\
                   \"start_us\":5}\n";
        let back = from_jsonl(old).expect("parse");
        assert_eq!(back.len(), 1);
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
        let mut tr = Tracer::new(0);
        tr.event(SpanKind::WalWrite, 0, 0, None, None, 7, t(1));
        let drained = tr.take();
        assert_eq!(drained.len(), 1);
        assert!(tr.is_empty());
        let s = tr.start(SpanKind::Apply, 0, 0, None, None, 0, t(2));
        assert_eq!(s, SpanId(0));
    }
}
