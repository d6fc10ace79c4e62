//! Byte-level determinism of the trace-analytics pipeline.
//!
//! The analytics products — trace JSONL, audit JSONL, and every
//! `wv-inspect` report derived from them — are pure functions
//! of the simulated execution, which is itself independent of the trial
//! worker count. This test pins the whole chain: a captured instrumented
//! run and all four derived reports must be byte-identical at 1, 2, and
//! 8 workers.

use wv_bench::inspect;
use wv_bench::runner::with_workers;

fn reports() -> [String; 5] {
    let cap = inspect::capture_e1(0xA11A, 6, 4);
    let spans = inspect::ingest(&cap.trace_jsonl).expect("trace").spans;
    let audit = inspect::ingest(&cap.audit_jsonl).expect("audit").audit;
    [
        inspect::critpath_report(&spans),
        inspect::explain_report(&audit, None),
        inspect::slo_report(&spans, 500, 4000),
        inspect::chrome_trace(&spans),
        cap.audit_jsonl,
    ]
}

#[test]
fn analytics_bytes_are_identical_at_1_2_and_8_workers() {
    let one = with_workers(1, reports);
    let two = with_workers(2, reports);
    let eight = with_workers(8, reports);
    let names = ["critpath", "explain", "slo", "chrome", "audit"];
    for (i, name) in names.iter().enumerate() {
        assert_eq!(one[i], two[i], "{name} diverged at 2 workers");
        assert_eq!(one[i], eight[i], "{name} diverged at 8 workers");
    }
    // Sanity: the reports carry real content, not empty sections.
    assert!(one[0].contains("gated_by"), "{}", one[0]);
    assert!(one[1].contains("<- chosen"), "{}", one[1]);
    assert!(one[2].contains("overall:"), "{}", one[2]);
    assert!(one[3].contains("\"traceEvents\""));
    assert!(one[4].contains("\"policy\":\"cheapest_first\""));
}
