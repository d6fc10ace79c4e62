//! Plain-text waterfall rendering of operation traces.
//!
//! Input is a merged span record (see [`wv_sim::trace`], typically the
//! spans of `Harness::take_recorded`). Spans are grouped by their `op` field
//! — the request id of the operation's first attempt, which client spans
//! share and server spans (lock waits, WAL writes, applies) carry for the
//! attempt they served — and each group renders as one waterfall: a fixed
//! time window spanning the group, one line per span with an ASCII bar
//! showing where inside the window it ran. Spans with `op == 0`
//! (background repair traffic) collect under a trailing `background`
//! group.
//!
//! The rendering is a pure function of the span record, so traced runs
//! that are byte-identical stay byte-identical through this module.

use std::collections::BTreeMap;

use wv_sim::trace::{SpanRecord, NO_PARENT, NO_PEER, OPEN_END};

/// Width of the timeline bar, characters.
const BAR: usize = 32;

fn bar_line(window: (u64, u64), start: u64, end: u64) -> String {
    let (ws, we) = window;
    let span = (we - ws).max(1);
    let mut cells = vec![' '; BAR];
    let clamp = |t: u64| ((t.saturating_sub(ws)).min(span) as usize * (BAR - 1)) / span as usize;
    let a = clamp(start);
    if end == OPEN_END {
        // Still open at the end of the record: run the bar off the edge.
        for c in cells.iter_mut().take(BAR).skip(a) {
            *c = '~';
        }
    } else if end == start {
        cells[a] = '|';
    } else {
        let b = clamp(end);
        for c in cells.iter_mut().take(b + 1).skip(a) {
            *c = '=';
        }
    }
    cells.into_iter().collect()
}

fn span_line(s: &SpanRecord, depth: usize, window: (u64, u64)) -> String {
    let mut label = String::new();
    for _ in 0..depth {
        label.push_str("  ");
    }
    label.push_str(s.kind.name());
    if s.peer != NO_PEER {
        label.push_str(&format!("->s{}", s.peer));
    }
    let (end, dur) = if s.end_us == OPEN_END {
        ("open".to_string(), "?".to_string())
    } else {
        (s.end_us.to_string(), (s.end_us - s.start_us).to_string())
    };
    format!(
        "  {label:<24} [{}] {:>10}..{end:<10} {dur:>9}us  {}  s{} d={}\n",
        bar_line(window, s.start_us, s.end_us),
        s.start_us,
        s.outcome.name(),
        s.site,
        s.detail,
    )
}

fn render_tree(
    out: &mut String,
    spans: &[SpanRecord],
    children: &BTreeMap<u32, Vec<usize>>,
    idx: usize,
    depth: usize,
    window: (u64, u64),
) {
    let s = &spans[idx];
    out.push_str(&span_line(s, depth, window));
    if let Some(kids) = children.get(&s.id) {
        for &k in kids {
            render_tree(out, spans, children, k, depth + 1, window);
        }
    }
}

/// Renders a merged trace as per-operation waterfalls.
///
/// Groups are ordered by (earliest start, op id); `op == 0` spans render
/// last under a `background` header. Returns the empty string for an
/// empty record.
pub fn waterfall(spans: &[SpanRecord]) -> String {
    // Children sorted by index — creation order within a tracer, site
    // order across tracers; both deterministic.
    let mut children: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            roots.push(i);
        } else {
            children.entry(s.parent).or_default().push(i);
        }
    }
    // Group root-level spans by op.
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for &i in &roots {
        groups.entry(spans[i].op).or_default().push(i);
    }
    // Order: by earliest start within the group, op id breaking ties;
    // background (op 0) last.
    let mut order: Vec<(u64, u64)> = groups
        .iter()
        .map(|(&op, idxs)| {
            let start = idxs.iter().map(|&i| spans[i].start_us).min().unwrap_or(0);
            (start, op)
        })
        .collect();
    order.sort_unstable_by_key(|&(start, op)| (op == 0, start, op));

    let mut out = String::new();
    for (_, op) in order {
        let idxs = &groups[&op];
        // The window covers the whole group, closed ends only.
        let subtree_bounds = |i: usize| {
            let mut lo = spans[i].start_us;
            let mut hi = spans[i].end_us;
            let mut stack = vec![i];
            while let Some(j) = stack.pop() {
                let s = &spans[j];
                lo = lo.min(s.start_us);
                if s.end_us != OPEN_END {
                    hi = if hi == OPEN_END {
                        s.end_us
                    } else {
                        hi.max(s.end_us)
                    };
                }
                if let Some(kids) = children.get(&s.id) {
                    stack.extend(kids.iter().copied());
                }
            }
            (lo, hi)
        };
        let mut ws = u64::MAX;
        let mut we = 0u64;
        for &i in idxs.iter() {
            let (lo, hi) = subtree_bounds(i);
            ws = ws.min(lo);
            if hi != OPEN_END {
                we = we.max(hi);
            }
        }
        if we <= ws {
            we = ws + 1;
        }
        if op == 0 {
            out.push_str(&format!("background  [{ws}..{we}]us\n"));
        } else {
            // The op root names the group when present.
            let head = idxs
                .iter()
                .map(|&i| &spans[i])
                .find(|s| s.kind.is_op_root());
            match head {
                Some(h) => out.push_str(&format!(
                    "op {:#x} {} client=s{} [{ws}..{we}]us {}\n",
                    op,
                    h.kind.name(),
                    h.site,
                    h.outcome.name()
                )),
                None => out.push_str(&format!("op {op:#x} [{ws}..{we}]us\n")),
            }
        }
        for &i in idxs.iter() {
            render_tree(&mut out, spans, &children, i, 0, (ws, we));
        }
        out.push('\n');
    }
    // Per-kind span census, so a glance at the tail answers "did this
    // run repair / group-commit / a write train at all?" without scrolling.
    if !spans.is_empty() {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in spans {
            *counts.entry(s.kind.name()).or_insert(0) += 1;
        }
        out.push_str(&format!("spans: {} total |", spans.len()));
        for (name, n) in &counts {
            out.push_str(&format!(" {name}={n}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_sim::trace::{SpanKind, SpanOutcome};

    /// `(parent, kind, site, peer, op, start_us, end_us, detail)` of one
    /// span of suite 1; its id is its index.
    type Row = (u32, SpanKind, u16, u16, u64, u64, u64, u64);

    /// The rows as records: ended `Ok`, or `Open` at [`OPEN_END`].
    fn records(rows: &[Row]) -> Vec<SpanRecord> {
        rows.iter()
            .enumerate()
            .map(
                |(id, &(parent, kind, site, peer, op, start_us, end_us, detail))| SpanRecord {
                    id: id as u32,
                    parent,
                    kind,
                    site,
                    peer,
                    op,
                    suite: 1,
                    start_us,
                    end_us,
                    detail,
                    outcome: if end_us == OPEN_END {
                        SpanOutcome::Open
                    } else {
                        SpanOutcome::Ok
                    },
                },
            )
            .collect()
    }

    /// A handcrafted two-node write trace, merged in site order: a direct
    /// write prepared at the write quorum {s0, s1} by the client at s3,
    /// the root closing at the commit decision with the commit round
    /// behind it; then s0's lock wait, WAL write and a repair pull.
    fn sample() -> Vec<SpanRecord> {
        use SpanKind::*;
        const OP: u64 = 0x30001;
        records(&[
            (NO_PARENT, Write, 3, NO_PEER, OP, 0, 150_000, 0),
            (0, Prepare, 3, NO_PEER, OP, 0, 150_000, 0),
            (1, Rpc, 3, 0, OP, 0, 150_000, 1),
            (1, Rpc, 3, 1, OP, 0, 148_000, 1),
            (0, Commit, 3, NO_PEER, OP, 150_000, 300_000, 0),
            (4, Rpc, 3, 0, OP, 150_000, 300_000, 1),
            (4, Rpc, 3, 1, OP, 150_000, 298_000, 1),
            (NO_PARENT, LockWait, 0, 3, OP, 10_000, 70_000, 0),
            (NO_PARENT, WalWrite, 0, 3, OP, 78_000, 78_000, 5),
            (NO_PARENT, RepairPull, 0, 1, 0, 500_000, 500_000, 4),
        ])
    }

    #[test]
    fn waterfall_matches_golden() {
        let rendered = waterfall(&sample());
        let golden_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/waterfall_write.txt"
        );
        if std::env::var("WV_BLESS").is_ok() {
            std::fs::write(golden_path, &rendered).expect("bless golden");
        }
        let golden = std::fs::read_to_string(golden_path).expect(
            "golden file exists; regenerate with WV_BLESS=1 cargo test -p wv-bench waterfall",
        );
        assert_eq!(rendered, golden, "waterfall drifted from golden");
    }

    #[test]
    fn waterfall_is_empty_on_empty_input() {
        assert_eq!(waterfall(&[]), "");
    }

    #[test]
    fn open_spans_render_without_panicking() {
        let rendered = waterfall(&records(&[(
            NO_PARENT,
            SpanKind::Read,
            1,
            NO_PEER,
            7,
            10,
            OPEN_END,
            0,
        )]));
        assert!(rendered.contains("open"));
        assert!(rendered.contains('~'));
    }
}
