//! Trace-level determinism of the parallel trial engine.
//!
//! The span record extends the runner's determinism contract: traces are
//! stamped from virtual time and merged in site order inside each trial,
//! and trials are merged in index order, so the concatenated JSONL export
//! of a traced experiment is **byte-identical for any worker count**.

use wv_bench::runner::with_workers;
use wv_sim::SimDuration;

/// One traced E1 trial: drive write/read rounds on the paper's Example 1
/// cluster and export the trial's full span record.
fn traced_trial(seed: u64) -> String {
    let mut h = wv_bench::topo::example_1(seed).build().expect("legal");
    h.enable_tracing();
    let suite = h.suite_id();
    for i in 0..5 {
        h.write(suite, format!("trace-{i}").into_bytes())
            .expect("write succeeds on a healthy cluster");
        h.advance(SimDuration::from_secs(2));
        h.read(suite).expect("read succeeds");
        h.advance(SimDuration::from_secs(2));
    }
    wv_sim::trace::to_jsonl(&h.take_recorded().0)
}

#[test]
fn e1_trace_bytes_are_identical_at_1_2_and_8_workers() {
    let run = || wv_bench::runner::run_trials(0x7ACE, 12, traced_trial).concat();
    let one = with_workers(1, run);
    let two = with_workers(2, run);
    let eight = with_workers(8, run);
    assert_eq!(one, two, "2 workers diverged from sequential trace bytes");
    assert_eq!(one, eight, "8 workers diverged from sequential trace bytes");
    // Sanity: real spans came back and they render.
    assert!(
        one.contains("\"kind\":\"inquiry\""),
        "inquiry spans present"
    );
    assert!(
        one.contains("\"kind\":\"prepare\""),
        "prepare spans present"
    );
    let spans = wv_sim::trace::from_jsonl(&one).expect("export round-trips");
    let rendered = wv_bench::tracefmt::waterfall(&spans);
    assert!(rendered.contains("op "), "waterfall renders the trace");
}
