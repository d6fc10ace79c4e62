//! Turning an [`Outcome`] into text: the one-line JSON result the driver
//! reads, the lines a child process hands its parent, the human table and
//! the results file `compare` reads.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::run::Outcome;
use crate::spec::{self, MetricDef};

/// The metric table a run of this kind must fill exactly.
pub fn expected(trace: bool) -> &'static [MetricDef] {
    if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    }
}

/// Why `out` may not be printed as a result, if it may not.
pub fn refusal(out: &Outcome, trace: bool) -> Option<String> {
    if !out.correct {
        return Some(format!(
            "correctness gate failed:\n  {}",
            out.violations.join("\n  ")
        ));
    }
    let want: Vec<&str> = expected(trace).iter().map(|m| m.name).collect();
    let have: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
    let missing: Vec<&&str> = want.iter().filter(|n| !have.contains(n)).collect();
    let extra: Vec<&&str> = have.iter().filter(|n| !want.contains(n)).collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Some(format!(
            "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    if let Some((name, v)) = out.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Some(format!("metric {name} is not a finite number: {v}"));
    }
    if out.attempted == 0 {
        return Some("no operation was attempted".to_string());
    }
    None
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let metrics = out.metrics.iter().map(|(name, v)| {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        (
            name.clone(),
            Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(unit.into()))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_text()
}

/// Everything a workload's two runs reported, as `all` keeps it.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub counts: BTreeMap<String, u64>,
    pub notes: Vec<String>,
}

/// What a child prints before its result line, for its parent.
pub fn child_lines(out: &Outcome) -> String {
    let mut s = String::new();
    for n in &out.notes {
        s.push_str(&format!("note: {n}\n"));
    }
    for (k, v) in &out.counts {
        s.push_str(&format!("count: {k} {v}\n"));
    }
    s
}

/// Folds one child's standard output into `into`.
pub fn absorb_child(stdout: &str, into: &mut WorkloadResult) -> Result<(), String> {
    let mut last = None;
    for line in stdout.lines() {
        if let Some(n) = line.strip_prefix("note: ") {
            into.notes.push(n.to_string());
        } else if let Some(c) = line.strip_prefix("count: ") {
            if let Some((k, v)) = c.split_once(' ') {
                let v = v.parse().map_err(|_| format!("bad count line {line:?}"))?;
                into.counts.insert(k.to_string(), v);
            }
        } else if !line.trim().is_empty() {
            last = Some(line);
        }
    }
    let result = crate::json::parse(last.ok_or("child printed no result")?)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err("child reported an incorrect run".to_string());
    }
    let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    into.attempted += num("attempted");
    into.failed += num("failed");
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?;
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name} has no value"))?;
        into.metrics.insert(name.clone(), v);
    }
    Ok(())
}

/// The human table of one workload: every metric by name, with its unit
/// and its regression bound.
pub fn table(name: &str, r: &WorkloadResult) -> String {
    let mut s = format!(
        "\n== {name}: {} ops attempted, {} failed (fail_ratio {:.6}) ==\n",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for (title, defs) in [
        ("end to end", spec::END_TO_END),
        ("per layer", spec::PER_LAYER),
    ] {
        s.push_str(&format!("  -- {title} --\n"));
        for m in defs {
            let Some(v) = r.metrics.get(m.name) else {
                continue;
            };
            let bound = m
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            s.push_str(&format!(
                "  {:<44} {:>16.4} {:<6} {:<6} bound {}\n",
                m.name,
                v,
                m.unit,
                m.better.as_str(),
                bound
            ));
        }
    }
    for n in &r.notes {
        s.push_str(&format!("  . {n}\n"));
    }
    s
}

/// One `all` run as the results file stores it.
pub fn run_json(seed: u64, results: &BTreeMap<String, WorkloadResult>) -> Json {
    let workloads = results.iter().map(|(name, r)| {
        (
            name.clone(),
            Json::obj([
                ("attempted", Json::Num(r.attempted as f64)),
                ("failed", Json::Num(r.failed as f64)),
                (
                    "metrics",
                    Json::obj(r.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
                ),
                (
                    "counts",
                    Json::obj(
                        r.counts
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.to_string()))),
                    ),
                ),
            ]),
        )
    });
    Json::obj([
        ("seed", Json::Str(seed.to_string())),
        ("workloads", Json::obj(workloads)),
    ])
}

/// The command the driver runs; it appends `--workload`, `--seed`,
/// `--seconds` and `--trace`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Seconds one run measures for.
const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the tables in [`spec`] so the two
/// cannot drift: `wvbench manifest > BENCHMARK.json`.
pub fn manifest() -> String {
    let quote = |s: &str| Json::Str(s.to_string()).to_text();
    let list = |items: Vec<String>| items.join(",\n    ");
    let metric = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        COMMAND.iter().map(|c| quote(c)).collect::<Vec<_>>().join(", "),
        list(spec::workloads()
            .iter()
            .filter(|w| w.gated)
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
            .collect()),
        list(spec::END_TO_END.iter().map(metric).collect()),
        list(spec::PER_LAYER.iter().map(metric).collect()),
    )
}
