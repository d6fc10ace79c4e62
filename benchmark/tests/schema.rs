//! Schema self-tests: the metric and workload tables obey the benchmark
//! contract, `BENCHMARK.json` repeats them exactly, and every name in it
//! is printed by a run and vice versa.

use std::collections::BTreeSet;
use std::path::PathBuf;

use wvbench::json::{self, Json};
use wvbench::report;
use wvbench::run::{self, Budget, Options};
use wvbench::spec::{self, Better};

const SCALE: usize = 50;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn tables_obey_the_contract() {
    let workloads = spec::workloads();
    assert!((2..=8).contains(&workloads.iter().filter(|w| w.gated).count()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for w in &workloads {
        assert!(is_name(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why",
            w.name
        );
    }
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
        assert!(is_name(m.name), "metric name {:?}", m.name);
        assert!(is_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    for m in spec::END_TO_END {
        let b = m.bound.expect("end-to-end metrics are bounded");
        assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
    }
    assert!(spec::PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = spec::metric("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = spec::END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        json::parse(&text).expect("BENCHMARK.json parses"),
        json::parse(&report::manifest()).expect("the manifest parses"),
        "BENCHMARK.json drifted from spec.rs: regenerate it with `wvbench manifest`"
    );
    let doc = json::parse(&text).expect("parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command = doc.get("command").and_then(Json::as_arr).expect("command");
    assert!(command.len() <= 32);
    for part in command.iter().map(|c| c.as_str().expect("strings")) {
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    // 4 + 22 x workloads runs, with set-up and two builds, in 3420 s.
    let gated = spec::workloads().iter().filter(|w| w.gated).count();
    let runs = 4.0 + 22.0 * gated as f64;
    assert!(runs * (secs + 12.0) + 2.0 * 120.0 < 3420.0);
}

fn smoke(name: &str, trace: bool) -> run::Outcome {
    let w = spec::workload(name).expect("known").scaled_down(SCALE);
    let opts = Options {
        seed: 7,
        budget: Budget::Batches,
        trace,
        setups: 1,
        div: SCALE,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test-schema"),
    };
    run::run(&w, &opts)
}

#[test]
fn every_declared_metric_is_printed_and_nothing_else() {
    for w in spec::workloads() {
        for trace in [false, true] {
            let out = smoke(w.name, trace);
            assert_eq!(
                report::refusal(&out, trace),
                None,
                "{} (trace {trace}) would not print a result",
                w.name
            );
            let printed: BTreeSet<&str> = out.metrics.keys().map(String::as_str).collect();
            let declared: BTreeSet<&str> = report::expected(trace).iter().map(|m| m.name).collect();
            assert_eq!(printed, declared, "{} (trace {trace})", w.name);
            // The result line carries exactly the contract's keys.
            let line = json::parse(&report::result_line(&out)).expect("result line is JSON");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            if !trace {
                // At this scale a batch lasts a few milliseconds, and the
                // scheduler's CPU clock ticks every four: only CPU time
                // may read 0 here (a full-size batch lasts ~100 ms).
                assert!(
                    out.metrics
                        .iter()
                        .all(|(name, v)| *v > 0.0 || name == "cpu_us_per_op"),
                    "{}: an end-to-end metric read 0: {:?}",
                    w.name,
                    out.metrics
                );
            }
        }
    }
}
