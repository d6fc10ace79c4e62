//! `wvbench compare A.json B.json`: applies the end-to-end bounds (the
//! ones `BENCHMARK.json` repeats from [`spec`]) to two result files, one
//! row per (workload, metric).
//!
//! A result file holds one or more runs of `all`. Each side is reduced to
//! its median; the spread of a side is the distance between its first and
//! third quartile as a share of its median (0 for a single run).

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats;

/// The verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative when `b` is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict for medians `a`, `b` with run-to-run `spread`.
pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    let w = worsening(better, a, b);
    if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Regressed
    } else if -w > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Per workload, per metric: the values of every run in a result file.
type Series = BTreeMap<String, BTreeMap<String, Vec<f64>>>;
/// Per workload: the exact counts of the first run.
type Counts = BTreeMap<String, BTreeMap<String, String>>;

fn load(text: &str) -> Result<(Series, Counts), String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no runs")?;
    let mut series = Series::new();
    let mut counts = Counts::new();
    for (i, run) in runs.iter().enumerate() {
        let workloads = run
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("run without workloads")?;
        for (w, r) in workloads {
            let metrics = r
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("no metrics")?;
            for (m, v) in metrics {
                let v = v.as_f64().ok_or_else(|| format!("{w}/{m}: not a number"))?;
                series
                    .entry(w.clone())
                    .or_default()
                    .entry(m.clone())
                    .or_default()
                    .push(v);
            }
            if i == 0 {
                if let Some(c) = r.get("counts").and_then(Json::as_obj) {
                    let c = c
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                        .collect();
                    counts.insert(w.clone(), c);
                }
            }
        }
    }
    Ok((series, counts))
}

fn spread(values: &[f64]) -> f64 {
    let med = stats::median(values);
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / med.abs()
}

/// The comparison report and whether any row of a gated workload
/// regressed or stayed unresolved.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (sa, ca) = load(a)?;
    let (sb, cb) = load(b)?;
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B vs A", "spread", "bound"
    );
    let mut bad = false;
    for (w, metrics_a) in &sa {
        let Some(metrics_b) = sb.get(w) else {
            out.push_str(&format!("{w}: missing from B\n"));
            bad = true;
            continue;
        };
        // An ungated workload is judged too, but cannot fail the report.
        let gated = spec::workload(w).map_or(true, |w| w.gated);
        for m in spec::END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let sp = spread(va).max(spread(vb));
            let v = verdict(m.better, bound, ma, mb, sp);
            bad |= gated && matches!(v, Verdict::Regressed | Verdict::Unresolved);
            out.push_str(&format!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.0}%  {}{} (base {:.4})\n",
                w,
                m.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                sp * 100.0,
                bound * 100.0,
                v.as_str(),
                if gated { "" } else { ", not gated" },
                ma
            ));
        }
        // Counts and virtual-time readings repeat exactly on the simulator.
        if let (Some(x), Some(y)) = (ca.get(w).filter(|c| !c.is_empty()), cb.get(w)) {
            let differing: Vec<&String> = x
                .iter()
                .filter(|(k, v)| y.get(*k) != Some(v))
                .map(|(k, _)| k)
                .collect();
            out.push_str(&format!(
                "{:<14} exact counts: {} compared, {} differ{}\n",
                w,
                x.len(),
                differing.len(),
                if differing.is_empty() {
                    String::new()
                } else {
                    format!(
                        " ({})",
                        differing
                            .iter()
                            .take(6)
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            ));
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(Lower, 0.1, 100.0, 105.0, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(Lower, 0.1, 100.0, 120.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(Lower, 0.1, 100.0, 80.0, 0.0), Verdict::Improved);
        assert_eq!(verdict(Higher, 0.1, 100.0, 80.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(Higher, 0.1, 100.0, 120.0, 0.0), Verdict::Improved);
        assert_eq!(verdict(Lower, 0.1, 100.0, 101.0, 0.2), Verdict::Unresolved);
    }

    #[test]
    fn compares_two_result_files() {
        let file = |v: f64, c: u64| {
            format!(
                r#"{{"runs":[{{"seed":"1","workloads":{{"sim-read":{{"attempted":1,"failed":0,"metrics":{{"tput_ops_per_s":{v}}},"counts":{{"events":"{c}"}}}}}}}}]}}"#
            )
        };
        let (report, bad) = compare(&file(10.0, 5), &file(10.5, 5)).expect("compares");
        assert!(!bad, "{report}");
        assert!(report.contains("unchanged"));
        assert!(report.contains("0 differ"));
        let (report, bad) = compare(&file(10.0, 5), &file(8.0, 6)).expect("compares");
        assert!(bad);
        assert!(report.contains("regressed"));
        assert!(report.contains("1 differ (events)"));
    }
}
