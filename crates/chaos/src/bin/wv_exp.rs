//! Regenerates experiment reports from the registry
//! ([`wv_chaos::experiments::EXPERIMENTS`]): `wv-exp <id|all> [--trials N]`.
//!
//! Prints each report to stdout. At the committed size, when a `results/`
//! directory exists in the working directory, it also writes
//! `results/<id>.md` (and E9's `results/e9_repro.json`), so
//! `wv-exp all && git diff --exit-code results/` checks that every
//! committed report is what the code produces. `--trials N` runs a sized
//! experiment at another size (see `Size::Of`) and leaves `results/`
//! alone. `WV_TRIAL_THREADS` picks the worker count; no report's bytes
//! depend on it.

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

fn regenerate(e: &Experiment, size: Size) {
    let report = e.run(size);
    print!("{}", report.markdown);
    if size != Size::Full || !std::path::Path::new("results").is_dir() {
        return;
    }
    let mut files = vec![(format!("{}.md", e.id), report.markdown)];
    files.extend(report.artifact.map(|(file, json)| (file.to_string(), json)));
    for (file, contents) in files {
        if let Err(err) = std::fs::write(format!("results/{file}"), contents) {
            eprintln!("wv-exp: could not write results/{file}: {err}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, size) = match args.as_slice() {
        [which] => (which, Size::Full),
        [which, flag, n] if flag == "--trials" => match n.parse() {
            Ok(n) => (which, Size::Of(n)),
            Err(_) => usage(),
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
    chosen.into_iter().for_each(|e| regenerate(e, size));
}
