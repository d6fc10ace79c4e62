//! Regenerates experiment reports from the registry
//! ([`wv_chaos::experiments::EXPERIMENTS`]): `wv-exp <id|all> [--trials N]`.
//!
//! Prints each report to stdout. At the committed size, when a `results/`
//! directory exists in the working directory, it also writes
//! `results/<id>.md` (and E9's `results/e9_repro.json`), so
//! `wv-exp all && git diff --exit-code results/` checks that every
//! committed report is what the code produces. `--trials N` runs a sized
//! experiment at another size (see `Size::Of`), N ≥ 1, and leaves
//! `results/` alone. `WV_TRIAL_THREADS` picks the worker count; no
//! report's bytes depend on it. Exits 1, naming report, history and
//! violation, if the oracle finds anything in a report's histories.

#![forbid(unsafe_code)]

use wv_chaos::experiments::{Experiment, Size, EXPERIMENTS};

fn usage() -> ! {
    eprintln!("usage: wv-exp <id|all> [--trials N]");
    for e in &EXPERIMENTS {
        match e.sizes {
            Some((full, _)) => eprintln!("  {:<4} --trials {full}", e.id),
            None => eprintln!("  {:<4} fixed size", e.id),
        }
    }
    std::process::exit(2);
}

/// Prints (and at the committed size writes) `e`'s report; names and
/// counts the violations the oracle found in its histories.
fn regenerate(e: &Experiment, size: Size) -> usize {
    let report = e.run(size);
    print!("{}", report.markdown);
    for v in &report.violations {
        eprintln!("wv-exp: {}: {v}", e.id);
    }
    if size == Size::Full && std::path::Path::new("results").is_dir() {
        let mut files = vec![(format!("{}.md", e.id), report.markdown)];
        files.extend(report.artifact.map(|(file, json)| (file.to_string(), json)));
        for (file, contents) in files {
            if let Err(err) = std::fs::write(format!("results/{file}"), contents) {
                eprintln!("wv-exp: could not write results/{file}: {err}");
            }
        }
    }
    report.violations.len()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, size) = match args.as_slice() {
        [which] => (which, Size::Full),
        [which, flag, n] if flag == "--trials" => match n.parse() {
            // No verdict can be drawn from zero operations.
            Ok(n) if n > 0 => (which, Size::Of(n)),
            _ => usage(),
        },
        _ => usage(),
    };
    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| which == "all" || which == e.id)
        .collect();
    let unsizable = size != Size::Full && chosen.iter().any(|e| e.sizes.is_none());
    if chosen.is_empty() || unsizable {
        usage();
    }
    let found: usize = chosen.into_iter().map(|e| regenerate(e, size)).sum();
    std::process::exit(i32::from(found > 0));
}
