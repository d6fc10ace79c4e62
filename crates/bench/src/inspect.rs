//! Trace-analytics reports behind the `wv-inspect` binary.
//!
//! Everything here is a pure function from ingested records to rendered
//! text, so reports over the same trace are byte-identical regardless of
//! worker count or host — the same contract the tracer itself keeps.
//!
//! Ingestion accepts two shapes and auto-detects which it got:
//!
//! * a **replay artifact** (`results/e9_repro.json` style): one JSON
//!   object whose `"trace"` / `"audit"` keys hold arrays of records;
//! * **raw JSONL**: one record per line, as [`wv_sim::trace::to_jsonl`] /
//!   [`wv_sim::audit::to_jsonl`] export what `Harness::take_recorded`
//!   drains.

use std::collections::BTreeMap;

use wv_core::client::RetryCause;
use wv_core::harness::Harness;
use wv_sim::audit::AuditRecord;
use wv_sim::json::Value;
use wv_sim::trace::{SpanKind, SpanOutcome, SpanRecord, OPEN_END};
use wv_sim::SimDuration;

use crate::{runner, topo};

/// Records ingested from one input document.
#[derive(Clone, Debug, Default)]
pub struct Ingested {
    /// Span records (empty when the input held none).
    pub spans: Vec<SpanRecord>,
    /// Audit records (empty when the input held none).
    pub audit: Vec<AuditRecord>,
}

/// Parses an input document into spans and audit records.
///
/// A whole-document JSON object is treated as a replay artifact and its
/// `"trace"` / `"audit"` arrays extracted; anything else is parsed line
/// by line, each line classified by its keys (`"kind"` ⇒ span,
/// `"policy"` ⇒ audit decision).
pub fn ingest(input: &str) -> Result<Ingested, String> {
    if let Some(doc) = wv_sim::json::parse(input) {
        if let Value::Object(_) = doc {
            let mut out = Ingested::default();
            if let Some(Value::Array(items)) = doc.get("trace") {
                for (i, item) in items.iter().enumerate() {
                    out.spans.push(
                        SpanRecord::from_value(item)
                            .ok_or_else(|| format!("artifact trace record {i}: malformed"))?,
                    );
                }
            }
            if let Some(Value::Array(items)) = doc.get("audit") {
                for (i, item) in items.iter().enumerate() {
                    out.audit.push(
                        AuditRecord::from_value(item)
                            .ok_or_else(|| format!("artifact audit record {i}: malformed"))?,
                    );
                }
            }
            if out.spans.is_empty() && out.audit.is_empty() {
                return Err("artifact has neither \"trace\" nor \"audit\"".into());
            }
            return Ok(out);
        }
    }
    // JSONL: classify by the first non-empty line.
    let first = input.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let probe = wv_sim::json::parse(first).ok_or("input is neither an artifact nor JSONL")?;
    let mut out = Ingested::default();
    if probe.get("policy").is_some() {
        out.audit = wv_sim::audit::from_jsonl(input)?;
    } else {
        out.spans = wv_sim::trace::from_jsonl(input)?;
    }
    Ok(out)
}

/// Renders the critical-path report: per-op gates, the site × phase
/// blame table, and the folded-stack profile.
pub fn critpath_report(spans: &[SpanRecord]) -> String {
    let profile = wv_analysis::critpath::extract(spans);
    let mut out = String::from("== per-op critical paths ==\n");
    out.push_str(&profile.render_ops());
    out.push_str("\n== critical-path blame (site x phase) ==\n");
    out.push_str(&profile.render_blame());
    out.push_str("\n== folded stacks ==\n");
    out.push_str(&profile.folded());
    out
}

/// Fixed-point milli value rendered with three decimals (no floats).
fn milli(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

/// Renders quorum-decision explains, optionally for one operation only.
///
/// Each audited decision prints its inputs — per-site access cost,
/// health EWMA, suspicion, live load — and the sites the planner chose,
/// answering "why did this op go to those representatives?".
pub fn explain_report(records: &[AuditRecord], op: Option<u64>) -> String {
    let mut out = String::from("== quorum decision explain ==\n");
    let mut shown = 0usize;
    for r in records {
        if op.is_some_and(|want| want != r.op) {
            continue;
        }
        shown += 1;
        let chosen: Vec<String> = r.chosen.iter().map(|s| format!("s{s}")).collect();
        out.push_str(&format!(
            "op {:#x} at {}us: {} by client s{} suite={} policy={} gen={} cursor={}{}\n",
            r.op,
            r.at_us,
            r.kind.name(),
            r.site,
            r.suite,
            r.policy,
            r.generation,
            r.cursor,
            if r.rerouted { " [rerouted]" } else { "" },
        ));
        out.push_str(&format!("  chose: {}\n", chosen.join(", ")));
        for i in &r.inputs {
            out.push_str(&format!(
                "  s{} cost={}us rtt={}us susp={} load={}{}{}\n",
                i.site,
                i.cost_us,
                i.rtt_us,
                milli(i.suspicion_milli),
                i.load,
                if i.suspected { " [suspected]" } else { "" },
                if r.chosen.contains(&i.site) {
                    "  <- chosen"
                } else {
                    ""
                },
            ));
        }
    }
    out.push_str(&format!(
        "{} decision(s){}\n",
        shown,
        match op {
            Some(o) => format!(" for op {o:#x}"),
            None => String::new(),
        }
    ));
    out
}

/// Ranks what ended attempts short of their operation — "why did this op
/// take so many attempts" — from the outcome each attempt's last phase
/// span closed with, optionally for one operation only.
pub fn retry_report(spans: &[SpanRecord], op: Option<u64>) -> String {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| op.is_none_or(|want| want == s.op)) {
        if let Some(cause) = RetryCause::of_span(s.kind, s.outcome) {
            *counts.entry(cause.name()).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(&str, u64)> = counts.into_iter().collect();
    ranked.sort_by_key(|&(name, n)| (std::cmp::Reverse(n), name));
    let mut out = String::from("== attempts that ended early, by cause ==\n");
    for (name, n) in &ranked {
        out.push_str(&format!("{n:>8}  {name}\n"));
    }
    let total: u64 = ranked.iter().map(|(_, n)| n).sum();
    out.push_str(&format!("{total} attempt(s) ended early\n"));
    out
}

/// Names the write each ridden write left with — "which prepare was this
/// write's" — from the ride spans, optionally for one operation only. A
/// write that carried its own train, or went alone, is not listed.
pub fn ride_report(spans: &[SpanRecord], op: Option<u64>) -> String {
    let ridden =
        |s: &&SpanRecord| s.kind == SpanKind::Ride && s.outcome == SpanOutcome::Ok && s.detail != 0;
    let mut out = String::from("== writes that rode another's prepare ==\n");
    let mut shown = 0usize;
    for s in spans.iter().filter(ridden) {
        if op.is_some_and(|want| want != s.op) {
            continue;
        }
        shown += 1;
        let waited = s.duration_us().unwrap_or(0);
        out.push_str(&format!(
            "op {:#x} rode op {:#x} ({waited}us from launch to report)\n",
            s.op, s.detail
        ));
    }
    out.push_str(&format!("{shown} write(s) ridden\n"));
    out
}

/// Renders the SLO burn summary from op-root spans.
///
/// Ops bucket into windows of `window_ms` by start time. Per window the
/// report shows availability (ops that ended `ok`) and latency
/// attainment (ok ops that finished within `target_ms`); a window
/// breaching either burns error budget and is marked `BURN`.
pub fn slo_report(spans: &[SpanRecord], target_ms: u64, window_ms: u64) -> String {
    let window_us = window_ms.max(1) * 1000;
    let target_us = target_ms * 1000;
    #[derive(Default)]
    struct Cell {
        ops: u64,
        ok: u64,
        fast: u64,
    }
    let mut windows: BTreeMap<u64, Cell> = BTreeMap::new();
    for s in spans {
        if !s.kind.is_op_root() || s.end_us == OPEN_END {
            continue;
        }
        let cell = windows.entry(s.start_us / window_us).or_default();
        cell.ops += 1;
        if s.outcome == SpanOutcome::Ok {
            cell.ok += 1;
            if s.end_us - s.start_us <= target_us {
                cell.fast += 1;
            }
        }
    }
    let pct = |part: u64, whole: u64| {
        let pm = part.saturating_mul(1000) / whole.max(1);
        format!("{}.{}%", pm / 10, pm % 10)
    };
    let mut out = format!(
        "== SLO burn summary (target {target_ms}ms, window {window_ms}ms) ==\n\
         window            ops    ok  avail   fast  latency\n"
    );
    let (mut ops, mut ok, mut fast, mut burned) = (0u64, 0u64, 0u64, 0u64);
    for (idx, c) in &windows {
        let burn = c.ok < c.ops || c.fast < c.ops;
        if burn {
            burned += 1;
        }
        out.push_str(&format!(
            "[{:>8}..{:>8}ms) {:>4} {:>5} {:>6} {:>6} {:>8}{}\n",
            idx * window_ms,
            (idx + 1) * window_ms,
            c.ops,
            c.ok,
            pct(c.ok, c.ops),
            c.fast,
            pct(c.fast, c.ops),
            if burn { "  BURN" } else { "" },
        ));
        ops += c.ops;
        ok += c.ok;
        fast += c.fast;
    }
    out.push_str(&format!(
        "overall: {ops} ops, availability {}, latency attainment {}, {burned}/{} window(s) burned budget\n",
        pct(ok, ops),
        pct(fast, ops),
        windows.len(),
    ));
    out
}

/// Exports spans as a Chrome-trace / Perfetto JSON document.
///
/// Complete events (`"ph":"X"`) with `pid` = recording site and `tid` =
/// operation id, so the per-site lanes line up with the audit log. Open
/// spans export with zero duration.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut events = Vec::with_capacity(spans.len());
    for s in spans {
        let mut args = BTreeMap::new();
        args.insert("detail".to_string(), Value::Int(s.detail));
        if s.peer != wv_sim::trace::NO_PEER {
            args.insert("peer".to_string(), Value::Int(u64::from(s.peer)));
        }
        if s.suite != 0 {
            args.insert("suite".to_string(), Value::Int(s.suite));
        }
        let mut ev = BTreeMap::new();
        ev.insert("args".to_string(), Value::Object(args));
        ev.insert("cat".to_string(), Value::Str(s.outcome.name().to_string()));
        let dur = if s.end_us == OPEN_END {
            0
        } else {
            s.end_us - s.start_us
        };
        ev.insert("dur".to_string(), Value::Int(dur));
        ev.insert("name".to_string(), Value::Str(s.kind.name().to_string()));
        ev.insert("ph".to_string(), Value::Str("X".to_string()));
        ev.insert("pid".to_string(), Value::Int(u64::from(s.site)));
        ev.insert("tid".to_string(), Value::Int(s.op));
        ev.insert("ts".to_string(), Value::Int(s.start_us));
        events.push(Value::Object(ev));
    }
    let mut doc = BTreeMap::new();
    doc.insert("displayTimeUnit".to_string(), Value::Str("ms".to_string()));
    doc.insert("traceEvents".to_string(), Value::Array(events));
    Value::Object(doc).to_json()
}

/// Output of a fresh instrumented capture run.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Concatenated per-trial trace JSONL, trials in index order.
    pub trace_jsonl: String,
    /// Concatenated per-trial audit JSONL, trials in index order.
    pub audit_jsonl: String,
}

/// Runs an instrumented Example-1 workload and exports both analytics
/// products.
///
/// Trials fan out on the worker pool and merge in index order, so the
/// exported bytes are identical for any `WV_TRIAL_THREADS` — the
/// property `tests/analytics_determinism.rs` pins.
pub fn capture_e1(master_seed: u64, trials: usize, rounds: u32) -> Capture {
    let per = runner::run_trials(master_seed, trials, |seed| {
        let mut h = topo::example_1(seed).build().expect("legal");
        h.enable_tracing();
        drive_rounds(&mut h, rounds);
        let (spans, decisions) = h.take_recorded();
        let trace = wv_sim::trace::to_jsonl(&spans);
        (trace, wv_sim::audit::to_jsonl(&decisions))
    });
    let mut cap = Capture {
        trace_jsonl: String::new(),
        audit_jsonl: String::new(),
    };
    for (trace, audit) in per {
        cap.trace_jsonl.push_str(&trace);
        cap.audit_jsonl.push_str(&audit);
    }
    cap
}

fn drive_rounds(h: &mut Harness, rounds: u32) {
    let suite = h.suite_id();
    for i in 0..rounds {
        h.write(suite, format!("inspect-{i}").into_bytes())
            .expect("write succeeds on a healthy cluster");
        h.advance(SimDuration::from_secs(2));
        h.read(suite).expect("read succeeds");
        h.advance(SimDuration::from_secs(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture() -> Capture {
        capture_e1(0x1257EC7, 2, 3)
    }

    #[test]
    fn ingest_classifies_jsonl_and_artifacts() {
        let cap = capture();
        let spans = ingest(&cap.trace_jsonl).expect("trace jsonl");
        assert!(!spans.spans.is_empty() && spans.audit.is_empty());
        let audit = ingest(&cap.audit_jsonl).expect("audit jsonl");
        assert!(audit.spans.is_empty() && !audit.audit.is_empty());
        // A synthetic artifact with both keys round-trips both.
        let trace_items: Vec<String> = cap
            .trace_jsonl
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(String::from)
            .collect();
        let audit_items: Vec<String> = cap
            .audit_jsonl
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(String::from)
            .collect();
        let artifact = format!(
            "{{\"schema\":\"test/1\",\"trace\":[{}],\"audit\":[{}]}}",
            trace_items.join(","),
            audit_items.join(","),
        );
        let both = ingest(&artifact).expect("artifact");
        assert_eq!(both.spans, spans.spans);
        assert_eq!(both.audit, audit.audit);
        assert!(ingest("not json").is_err());
    }

    #[test]
    fn reports_render_all_sections() {
        let cap = capture();
        let spans = ingest(&cap.trace_jsonl).unwrap().spans;
        let audit = ingest(&cap.audit_jsonl).unwrap().audit;

        let cp = critpath_report(&spans);
        assert!(cp.contains("== per-op critical paths =="), "{cp}");
        assert!(cp.contains("== critical-path blame (site x phase) =="));
        assert!(cp.contains("== folded stacks =="));
        assert!(cp.contains("write;"), "folded stacks name the op root");

        let ex = explain_report(&audit, None);
        assert!(ex.contains("== quorum decision explain =="));
        assert!(ex.contains("<- chosen"), "{ex}");
        assert!(ex.contains("suite="), "explain names the suite: {ex}");
        // The span records carry the suite dimension end to end.
        assert!(spans.iter().any(|s| s.suite != 0), "spans carry suites");
        // Filtering to one op shows exactly that op's decisions.
        let op = audit[0].op;
        let one = explain_report(&audit, Some(op));
        assert!(one.contains(&format!("op {op:#x}")));
        let none = explain_report(&audit, Some(u64::MAX));
        assert!(none.contains("0 decision(s)"));

        let slo = slo_report(&spans, 500, 4000);
        assert!(slo.contains("== SLO burn summary"), "{slo}");
        assert!(slo.contains("overall:"), "{slo}");
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let cap = capture();
        let spans = ingest(&cap.trace_jsonl).unwrap().spans;
        let doc = chrome_trace(&spans);
        let parsed = wv_sim::json::parse(&doc).expect("chrome export parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), spans.len());
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
        let first = &events[0];
        assert_eq!(first.get("ph").and_then(Value::as_str), Some("X"));
        assert!(first.get("ts").and_then(Value::as_int).is_some());
    }
    #[test]
    fn retry_report_ranks_the_causes_a_contended_trace_records() {
        use wv_core::harness::{HarnessBuilder, SiteSpec};
        use wv_core::quorum::QuorumSpec;
        use wv_sim::SimTime;
        // Four clients write one suite at once on no-wait servers: every
        // prepare that meets the commit lock is voted down and retried.
        let mut b = HarnessBuilder::new()
            .seed(7)
            .quorum(QuorumSpec::majority(3))
            .deadlock_policy(wv_txn::lock::DeadlockPolicy::NoWait);
        for _ in 0..3 {
            b = b.site(SiteSpec::server(1));
        }
        for _ in 0..4 {
            b = b.client();
        }
        let mut h = b.build().expect("legal");
        h.enable_tracing();
        let suite = h.suite_id();
        for c in h.clients().to_vec() {
            h.enqueue_write(c, suite, b"w".to_vec(), SimTime::ZERO);
        }
        h.run_until_quiet(1_000_000);
        let retries: u64 = h
            .clients()
            .iter()
            .map(|&c| h.client_at(c).expect("client").stats.retries)
            .sum();
        assert!(retries > 0, "no contention, nothing to rank");
        let spans = h.take_recorded().0;
        let report = retry_report(&spans, None);
        assert!(report.starts_with("== attempts that ended early, by cause ==\n"));
        assert!(
            report.contains(&format!("{retries:>8}  vote_no\n")),
            "{report}"
        );
        assert!(report.ends_with(&format!("{retries} attempt(s) ended early\n")));
        // One op's share: the first attempt's request id names it.
        let op = spans.iter().find(|s| s.kind.is_op_root()).expect("ops").op;
        let one = retry_report(&spans, Some(op));
        assert!(one.len() <= report.len());
    }

    #[test]
    fn ride_report_names_the_carrier_of_every_ridden_write() {
        use wv_core::harness::{HarnessBuilder, SiteSpec};
        use wv_core::quorum::QuorumSpec;
        // Three writes of one client launched together: the first goes
        // alone, the third carries the second.
        let mut b = HarnessBuilder::new()
            .seed(8)
            .quorum(QuorumSpec::majority(3));
        for _ in 0..3 {
            b = b.site(SiteSpec::server(1));
        }
        let mut h = b.client().build().expect("legal");
        h.enable_tracing();
        let (suite, client) = (h.suite_id(), h.default_client());
        for value in [b"a", b"b", b"c"] {
            h.enqueue_write(client, suite, value.to_vec(), h.now());
        }
        h.run_until_quiet(100_000);
        let stats = h.client_at(client).expect("client").stats;
        assert_eq!((stats.trains, stats.writes_ridden), (2, 1));
        let spans = h.take_recorded().0;
        let roots: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind.is_op_root())
            .map(|s| s.op)
            .collect();
        let report = ride_report(&spans, None);
        let line = format!("op {:#x} rode op {:#x} (", roots[1], roots[2]);
        assert!(report.contains(&line), "{report}");
        assert!(report.ends_with("1 write(s) ridden\n"), "{report}");
        assert!(ride_report(&spans, Some(roots[0])).ends_with("0 write(s) ridden\n"));
        // The critical path blames the carrier, not an empty root.
        let gates = critpath_report(&spans);
        assert!(gates.contains(&format!("rode {:#x}", roots[2])), "{gates}");
    }
}
