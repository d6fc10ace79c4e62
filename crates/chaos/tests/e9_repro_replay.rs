//! CI replay of the committed E9 reproducer artifact.
//!
//! `results/e9_repro.json` is the shrunk schedule demonstrating the
//! r + w = N quorum-intersection bug. Replaying the committed bytes must
//! keep reproducing the known violation: if a protocol change ever
//! silently masks it (or an oracle change reclassifies it), this test
//! flags the artifact as stale instead of letting the report drift from
//! what the repository actually ships.

use wv_chaos::schedule::Schedule;
use wv_chaos::{check_trial, run_schedule, run_schedule_instrumented};

#[test]
fn the_committed_e9_artifact_still_reproduces_its_violation() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/e9_repro.json");
    let text = std::fs::read_to_string(path).expect("results/e9_repro.json is committed");
    let (spec, schedule) = Schedule::from_json(&text).expect("the committed artifact parses");
    // The broken-quorum campaign runs without the self-healing layer, and
    // the artifact's required `repair` key says so (`"repair":false`).
    assert!(!spec.repair, "the committed reproducer predates repair");
    let violations = check_trial(&run_schedule(&spec, &schedule), false);
    assert_eq!(
        violations.len(),
        1,
        "the artifact must reproduce exactly the one violation the report \
         promises; got: {violations:?}"
    );
}

/// The artifact's embedded analytics — trace, quorum audit log, and
/// critical-path profile — must match what an instrumented replay of the
/// committed schedule computes today. A drift here means the protocol's
/// decision-making (not just its outcomes) changed under the reproducer,
/// and the artifact needs regenerating.
#[test]
fn the_committed_e9_analytics_match_a_fresh_instrumented_replay() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/e9_repro.json");
    let text = std::fs::read_to_string(path).expect("results/e9_repro.json is committed");
    let (spec, schedule) = Schedule::from_json(&text).expect("the committed artifact parses");

    let embedded = wv_bench::inspect::ingest(&text).expect("artifact carries analytics");
    assert!(!embedded.spans.is_empty(), "artifact embeds a trace");
    assert!(!embedded.audit.is_empty(), "artifact embeds an audit log");

    let (_, trace, audit) = run_schedule_instrumented(&spec, &schedule);
    assert_eq!(embedded.spans, trace, "embedded trace drifted from replay");
    assert_eq!(
        embedded.audit, audit,
        "embedded audit log drifted from replay"
    );

    // The embedded folded-stack critical path is recomputable from the
    // embedded trace.
    let doc = wv_chaos::json::parse(&text).expect("artifact is json");
    let embedded_critpath: Vec<String> = doc
        .get("critpath")
        .and_then(wv_chaos::json::Value::as_array)
        .expect("artifact embeds a critpath profile")
        .iter()
        .map(|v| v.as_str().expect("critpath frames are strings").to_string())
        .collect();
    let recomputed: Vec<String> = wv_analysis::critpath::extract(&trace)
        .folded()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(
        embedded_critpath, recomputed,
        "embedded critical path drifted from replay"
    );
}
