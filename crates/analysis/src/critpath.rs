//! Critical-path extraction over deterministic span trees.
//!
//! A trace tells you everything that happened; the critical path tells
//! you what *gated* the operation. For each completed op root this module
//! walks the span tree backward from the root's end, repeatedly
//! descending into the latest-finishing completed child: the interval
//! between that child's end and the current cursor is time the parent
//! spent with no child running — its own work — and the child's interior
//! is charged recursively. After a child is consumed the cursor pops back
//! to the child's start, so an earlier sibling chain (say, an inquiry
//! round that preceded the prepare) is credited too. The resulting
//! segments exactly partition `[root.start, root.end]`: every
//! microsecond of operation latency is blamed on exactly one span.
//!
//! A write's root closes when the write is reported — at its commit
//! decision — and the commit round's spans hang under that root but begin
//! where it ends. A child that finishes after the cursor never gated
//! anything, so the commit round is off the critical path by
//! construction: a write's blame is inquiry, prepare and lock wait.
//!
//! Blame is attributed to a **site × phase** cell. For RPC spans the
//! blamed site is the *peer* (the remote representative whose
//! reply we were waiting on); for everything else it is the recording
//! site. Aggregated over a run this yields a folded-stack profile
//! (flamegraph-compatible: `write;prepare;rpc@s2 350`) and a blame table
//! showing which representative and which protocol phase the latency
//! lives in.
//!
//! Everything here is a pure function of the span slice, which is itself
//! a pure function of the simulated execution — so extracted paths are
//! byte-identical across processes and worker counts.

use std::collections::BTreeMap;

use wv_sim::trace::{SpanKind, SpanOutcome, SpanRecord, NO_PARENT, NO_PEER, OPEN_END};

/// One blamed interval on an operation's critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// Id of the span the interval is charged to.
    pub span_id: u32,
    /// Kind of the blamed span.
    pub kind: SpanKind,
    /// Site the interval is charged to (the peer for RPC spans).
    pub site: u16,
    /// Interval start, virtual microseconds.
    pub start_us: u64,
    /// Interval length, microseconds.
    pub dur_us: u64,
    /// The blamed span's `detail` (for a ride: the op that carried it).
    pub detail: u64,
    /// Ancestor chain from the op root down to (and including) the
    /// blamed span, as stable span-kind names.
    pub stack: Vec<&'static str>,
}

/// The critical path of one client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpPath {
    /// Operation identifier (the raw request id).
    pub op: u64,
    /// Root span kind (read / write / reconfigure / transaction).
    pub root_kind: SpanKind,
    /// How the operation ended.
    pub outcome: SpanOutcome,
    /// Operation start, virtual microseconds.
    pub start_us: u64,
    /// Operation duration, microseconds.
    pub total_us: u64,
    /// Blamed intervals in chronological order; their lengths sum to
    /// `total_us`.
    pub segments: Vec<PathSegment>,
}

impl OpPath {
    /// The single longest blamed interval — the phase that gated the op.
    pub fn gate(&self) -> Option<&PathSegment> {
        // max_by_key returns the *last* maximum; chronological order makes
        // the tie-break deterministic (latest longest segment wins).
        self.segments.iter().max_by_key(|s| s.dur_us)
    }
}

/// Critical paths for every completed operation in a trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-operation paths, ordered by (start time, op id).
    pub ops: Vec<OpPath>,
}

impl Profile {
    /// Total operation time profiled, microseconds.
    pub fn total_us(&self) -> u64 {
        self.ops.iter().map(|o| o.total_us).sum()
    }

    /// Blame aggregated by (site, span kind), microseconds.
    pub fn blame(&self) -> BTreeMap<(u16, SpanKind), u64> {
        let mut out = BTreeMap::new();
        for op in &self.ops {
            for seg in &op.segments {
                *out.entry((seg.site, seg.kind)).or_insert(0) += seg.dur_us;
            }
        }
        out
    }

    /// Folded-stack profile: one `frame;frame;...@sN weight_us` line per
    /// distinct stack, alphabetically sorted (flamegraph input format).
    pub fn folded(&self) -> String {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for op in &self.ops {
            for seg in &op.segments {
                let mut key = seg.stack.join(";");
                key.push_str(&format!("@s{}", seg.site));
                *stacks.entry(key).or_insert(0) += seg.dur_us;
            }
        }
        let mut out = String::new();
        for (stack, us) in &stacks {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    }

    /// Renders the site × phase blame table, largest share first.
    pub fn render_blame(&self) -> String {
        let total = self.total_us().max(1);
        let mut rows: Vec<((u16, SpanKind), u64)> = self.blame().into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = String::from("site  phase           us        share\n");
        for ((site, kind), us) in rows {
            out.push_str(&format!(
                "s{site:<4} {:<14} {us:>9} {:>7}\n",
                kind.name(),
                permille(us, total),
            ));
        }
        out.push_str(&format!(
            "total critical-path time: {} us over {} ops\n",
            self.total_us(),
            self.ops.len()
        ));
        out
    }

    /// Renders the per-op gate table: what each operation waited on.
    pub fn render_ops(&self) -> String {
        let mut out =
            String::from("op         kind          total_us  gated_by            gate_us  share\n");
        for op in &self.ops {
            // A write that waited for, then rode, another's prepare was
            // gated by that write, not by a site.
            let name = |g: &PathSegment| match g.kind {
                SpanKind::Ride if g.detail != 0 => format!("rode {:#x}", g.detail),
                _ => format!("{}@s{}", g.kind.name(), g.site),
            };
            let (gate_name, gate_us) = op
                .gate()
                .map(|g| (name(g), g.dur_us))
                .unwrap_or_else(|| (String::from("-"), 0));
            out.push_str(&format!(
                "{:<10} {:<13} {:>8}  {gate_name:<18} {gate_us:>8} {:>6}\n",
                op.op,
                op.root_kind.name(),
                op.total_us,
                permille(gate_us, op.total_us.max(1)),
            ));
        }
        out
    }
}

/// Integer permille rendered as a percentage with one decimal — avoids
/// floating point so output is trivially bit-stable.
fn permille(part: u64, whole: u64) -> String {
    let pm = part.saturating_mul(1000) / whole;
    format!("{}.{}%", pm / 10, pm % 10)
}

/// Extracts the critical path of every completed op-root span.
///
/// Spans outside any client operation (repair rounds, background WAL
/// flushes) and operations whose root never closed are skipped. The
/// input order does not matter; ops are returned sorted by
/// (start time, op id).
pub fn extract(spans: &[SpanRecord]) -> Profile {
    // Parent -> children indices. Merged traces have globally unique ids
    // with parents already rebased, so an id-keyed map suffices.
    let by_id: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT && by_id.contains_key(&s.parent) {
            children.entry(s.parent).or_default().push(i);
        }
    }
    // Latest-finishing child first; ties broken by later start, then
    // higher id, so the walk is deterministic for any input order.
    for kids in children.values_mut() {
        kids.sort_by(|&a, &b| {
            let (x, y) = (&spans[a], &spans[b]);
            (y.end_us, y.start_us, y.id).cmp(&(x.end_us, x.start_us, x.id))
        });
    }

    let mut ops = Vec::new();
    for root in spans {
        if !root.kind.is_op_root() || root.end_us == OPEN_END {
            continue;
        }
        let mut segments = Vec::new();
        let mut stack = Vec::new();
        walk(
            spans,
            &children,
            root,
            root.end_us,
            &mut stack,
            &mut segments,
        );
        // The walk emits segments deepest-first; present them in time order.
        segments.sort_by_key(|s: &PathSegment| (s.start_us, s.span_id));
        ops.push(OpPath {
            op: root.op,
            root_kind: root.kind,
            outcome: root.outcome,
            start_us: root.start_us,
            total_us: root.end_us - root.start_us,
            segments,
        });
    }
    ops.sort_by_key(|o| (o.start_us, o.op));
    Profile { ops }
}

/// Charges `[span.start, cursor]` to `span` and its descendants.
fn walk(
    spans: &[SpanRecord],
    children: &BTreeMap<u32, Vec<usize>>,
    span: &SpanRecord,
    mut cursor: u64,
    stack: &mut Vec<&'static str>,
    out: &mut Vec<PathSegment>,
) {
    stack.push(span.kind.name());
    let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
    for &k in kids {
        let child = &spans[k];
        // Only completed children that fit under the cursor participate;
        // an open span never gated anything (it outlived the op).
        if child.end_us == OPEN_END || child.end_us > cursor || child.start_us < span.start_us {
            continue;
        }
        if child.end_us < cursor {
            // No child was running in (child.end, cursor]: parent work.
            out.push(segment(span, child.end_us, cursor - child.end_us, stack));
        }
        walk(spans, children, child, child.end_us, stack, out);
        cursor = child.start_us;
        if cursor <= span.start_us {
            break;
        }
    }
    if cursor > span.start_us {
        out.push(segment(span, span.start_us, cursor - span.start_us, stack));
    }
    stack.pop();
}

fn segment(span: &SpanRecord, start_us: u64, dur_us: u64, stack: &[&'static str]) -> PathSegment {
    let site = match span.kind {
        SpanKind::Rpc if span.peer != NO_PEER => span.peer,
        _ => span.site,
    };
    PathSegment {
        span_id: span.id,
        kind: span.kind,
        site,
        start_us,
        dur_us,
        detail: span.detail,
        stack: stack.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ridden_write_is_gated_by_the_write_that_carried_it() {
        let ride = SpanRecord {
            detail: 0x2a0003,
            ..span(1, 0, SpanKind::Ride, 3, NO_PEER, 7, 5, 100)
        };
        let spans = vec![
            span(0, NO_PARENT, SpanKind::Write, 3, NO_PEER, 7, 0, 100),
            ride,
        ];
        let report = extract(&spans).render_ops();
        assert!(report.contains("rode 0x2a0003"), "{report}");
        assert!(extract(&spans).folded().contains("write;ride@s3 95"));
    }

    #[allow(clippy::too_many_arguments)]
    fn span(
        id: u32,
        parent: u32,
        kind: SpanKind,
        site: u16,
        peer: u16,
        op: u64,
        start_us: u64,
        end_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            site,
            suite: 1,
            peer,
            op,
            start_us,
            end_us,
            detail: 0,
            outcome: SpanOutcome::Ok,
        }
    }

    #[test]
    fn segments_partition_the_root_interval() {
        // write [0,110]: inquiry [0,40] with two rpcs, then prepare
        // [50,100] with one rpc; gaps 40-50 and 100-110 are root work.
        let spans = vec![
            span(0, NO_PARENT, SpanKind::Write, 3, NO_PEER, 7, 0, 110),
            span(1, 0, SpanKind::Inquiry, 3, NO_PEER, 7, 0, 40),
            span(2, 1, SpanKind::Rpc, 3, 0, 7, 0, 25),
            span(3, 1, SpanKind::Rpc, 3, 1, 7, 0, 38),
            span(4, 0, SpanKind::Prepare, 3, NO_PEER, 7, 50, 100),
            span(5, 4, SpanKind::Rpc, 3, 1, 7, 50, 95),
        ];
        let profile = extract(&spans);
        assert_eq!(profile.ops.len(), 1);
        let op = &profile.ops[0];
        assert_eq!(op.total_us, 110);
        let sum: u64 = op.segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, op.total_us, "segments partition the root");
        // Chronological and contiguous.
        let mut at = op.start_us;
        for seg in &op.segments {
            assert_eq!(seg.start_us, at, "no holes, no overlaps");
            at += seg.dur_us;
        }
        // The prepare-phase RPC to site 1 gated the op... not quite: the
        // longest single interval is the 45us rpc under prepare.
        let gate = op.gate().expect("nonempty path");
        assert_eq!(gate.kind, SpanKind::Rpc);
        assert_eq!(gate.site, 1, "rpc blame lands on the peer");
        assert_eq!(gate.dur_us, 45);
        assert_eq!(gate.stack, vec!["write", "prepare", "rpc"]);
    }

    #[test]
    fn pop_back_credits_earlier_sibling_chains() {
        // root [0,11]; child A [0,5], child B [6,10]. Backward walk:
        // root 10..11, B 6..10, root 5..6, A 0..5.
        let spans = vec![
            span(0, NO_PARENT, SpanKind::Read, 0, NO_PEER, 1, 0, 11),
            span(1, 0, SpanKind::Rpc, 0, 2, 1, 0, 5),
            span(2, 0, SpanKind::Fetch, 0, NO_PEER, 1, 6, 10),
        ];
        let profile = extract(&spans);
        let op = &profile.ops[0];
        let got: Vec<(SpanKind, u64, u64)> = op
            .segments
            .iter()
            .map(|s| (s.kind, s.start_us, s.dur_us))
            .collect();
        assert_eq!(
            got,
            vec![
                (SpanKind::Rpc, 0, 5),
                (SpanKind::Read, 5, 1),
                (SpanKind::Fetch, 6, 4),
                (SpanKind::Read, 10, 1),
            ]
        );
    }

    #[test]
    fn open_spans_and_background_work_are_skipped() {
        let spans = vec![
            // Root never closed: whole op skipped.
            span(0, NO_PARENT, SpanKind::Read, 0, NO_PEER, 1, 0, OPEN_END),
            // Background repair (op 0, not an op root): ignored.
            span(1, NO_PARENT, SpanKind::RepairPull, 2, NO_PEER, 0, 0, 50),
            // A closed op with an rpc span still open: the open child
            // cannot appear on the path.
            span(2, NO_PARENT, SpanKind::Read, 0, NO_PEER, 2, 100, 140),
            span(3, 2, SpanKind::Rpc, 0, 1, 2, 110, OPEN_END),
            span(4, 2, SpanKind::Fetch, 0, NO_PEER, 2, 100, 135),
        ];
        let profile = extract(&spans);
        assert_eq!(profile.ops.len(), 1);
        let op = &profile.ops[0];
        assert_eq!(op.op, 2);
        assert!(op.segments.iter().all(|s| s.span_id != 3));
        let sum: u64 = op.segments.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, 40);
    }

    #[test]
    fn a_commit_round_behind_a_root_closed_at_the_decision_is_off_the_path() {
        // write [0,100], reported at its decision; the commit round hangs
        // under the root and runs [100,150].
        let spans = vec![
            span(0, NO_PARENT, SpanKind::Write, 3, NO_PEER, 7, 0, 100),
            span(1, 0, SpanKind::Inquiry, 3, NO_PEER, 7, 0, 40),
            span(2, 0, SpanKind::Prepare, 3, NO_PEER, 7, 40, 100),
            span(3, 2, SpanKind::Rpc, 3, 1, 7, 40, 100),
            span(4, 0, SpanKind::Commit, 3, NO_PEER, 7, 100, 150),
            span(5, 4, SpanKind::Rpc, 3, 1, 7, 100, 150),
        ];
        let profile = extract(&spans);
        let op = &profile.ops[0];
        assert_eq!(op.total_us, 100);
        let got: Vec<(u32, u64, u64)> = op
            .segments
            .iter()
            .map(|s| (s.span_id, s.start_us, s.dur_us))
            .collect();
        assert_eq!(got, vec![(1, 0, 40), (3, 40, 60)]);
        assert!(profile.blame().keys().all(|(_, k)| *k != SpanKind::Commit));
    }

    #[test]
    fn blame_and_folded_aggregate_across_ops() {
        let spans = vec![
            span(0, NO_PARENT, SpanKind::Read, 0, NO_PEER, 1, 0, 10),
            span(1, 0, SpanKind::Rpc, 0, 2, 1, 0, 10),
            span(2, NO_PARENT, SpanKind::Read, 0, NO_PEER, 2, 20, 35),
            span(3, 2, SpanKind::Rpc, 0, 2, 2, 20, 35),
        ];
        let profile = extract(&spans);
        assert_eq!(profile.total_us(), 25);
        let blame = profile.blame();
        assert_eq!(blame.get(&(2, SpanKind::Rpc)), Some(&25));
        assert_eq!(profile.folded(), "read;rpc@s2 25\n");
        let table = profile.render_blame();
        assert!(table.contains("s2"), "{table}");
        assert!(table.contains("100.0%"), "{table}");
    }
}
