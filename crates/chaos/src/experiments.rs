//! The experiment registry: every report under `results/` and the one
//! function that regenerates it.
//!
//! [`EXPERIMENTS`] is the only list of experiments in the repository:
//! the `wv-exp` binary regenerates from it and the determinism test walks
//! it at [`Size::Smoke`] under 1, 2 and 8 workers. It lives here rather
//! than in `wv-bench` because E9 and E14 are built on the chaos engine,
//! which depends on `wv-bench` for the trial runner. `DESIGN.md` §4 says
//! what each report regenerates.
//! A report hands each history it makes to its row's [`Verdict`], whose
//! line closes it (not E4, which runs no protocol, nor E9, judged per trial).

use wv_bench::drive::Verdict;
use wv_bench::{e1, e10, e11, e13, e15, e2, e3, e4, e5, e6, e7, e8};

use crate::{e14, report};

/// What one regeneration produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// The markdown report.
    pub markdown: String,
    /// A companion file, as `(file name under results/, contents)`: E9's
    /// shrunk reproducer.
    pub artifact: Option<(&'static str, String)>,
    /// `history: violation`, for each violation found in its histories.
    pub violations: Vec<String>,
}

impl From<String> for Report {
    fn from(markdown: String) -> Self {
        Report {
            markdown,
            artifact: None,
            violations: Vec::new(),
        }
    }
}

/// How much work a regeneration does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The size of the committed report.
    Full,
    /// A size small enough for the tests at which every section of the
    /// report still renders.
    Smoke,
    /// An explicit size: trials for E9, E10 and E14, operations per
    /// client for E11, E13 and E15.
    Of(usize),
}

/// One row of the registry.
pub struct Experiment {
    /// Lower-case id, `e1` … `e15`: the report is `results/<id>.md` and
    /// opens with the heading `## E<n> `.
    pub id: &'static str,
    /// The `(full, smoke)` sizes; `None` for an experiment of fixed size.
    pub sizes: Option<(usize, usize)>,
    run: fn(usize, &mut Verdict) -> Report,
}

impl Experiment {
    /// Regenerates the report, judging its histories as they are made; a
    /// fixed-size experiment ignores `size`.
    pub fn run(&self, size: Size) -> Report {
        let (full, smoke) = self.sizes.unwrap_or_default();
        let n = match size {
            Size::Full => full,
            Size::Smoke => smoke,
            Size::Of(n) => n,
        };
        let mut verdict = Verdict::default();
        let mut report = (self.run)(n, &mut verdict);
        report.markdown.extend(verdict.line());
        report.violations = verdict.found;
        report
    }
}

const fn fixed(id: &'static str, run: fn(usize, &mut Verdict) -> Report) -> Experiment {
    Experiment {
        id,
        sizes: None,
        run,
    }
}

const fn sized(
    id: &'static str,
    full: usize,
    smoke: usize,
    run: fn(usize, &mut Verdict) -> Report,
) -> Experiment {
    Experiment {
        id,
        sizes: Some((full, smoke)),
        run,
    }
}

/// Every experiment, in report order.
pub static EXPERIMENTS: [Experiment; 14] = [
    fixed("e1", |_, v| e1::run(v).into()),
    fixed("e2", |_, v| e2::run(v).into()),
    fixed("e3", |_, v| e3::run(v).into()),
    fixed("e4", |_, _| e4::run().into()),
    fixed("e5", |_, v| e5::run(v).into()),
    fixed("e6", |_, v| e6::run(v).into()),
    fixed("e7", |_, v| e7::run(v).into()),
    fixed("e8", |_, v| e8::run(v).into()),
    sized("e9", report::TRIALS, 16, |n, _| report::run(n)),
    sized("e10", e10::TRIALS, 6, |n, v| e10::run(n, v).into()),
    sized("e11", e11::OPS_PER_CLIENT, 8, |n, v| e11::run(n, v).into()),
    sized("e13", e13::OPS_PER_CLIENT, 32, |n, v| e13::run(n, v).into()),
    sized("e14", e14::TRIALS, 3, |n, v| e14::run(n, v).into()),
    sized("e15", e15::OPS_PER_CLIENT, 16, |n, v| e15::run(n, v).into()),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_results_holds_exactly_their_reports() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        // Beside the reports: E9's reproducer, and the exact-count ledger
        // `scripts/wvbench_counts.py` checks the benchmark's smoke run against.
        let mut expected = vec![
            "e9_repro.json".to_string(),
            "wvbench_counts.json".to_string(),
        ];
        expected.extend(EXPERIMENTS.iter().map(|e| format!("{}.md", e.id)));
        expected.sort();
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .expect("results/ exists")
            .map(|f| {
                f.expect("readable")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .collect();
        committed.sort();
        assert_eq!(
            committed, expected,
            "a duplicate id, a missing report or an orphan"
        );
    }
}
