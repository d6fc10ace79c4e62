//! `wvbench` command line.
//!
//! ```text
//! wvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         one run; the last line of standard output is the JSON result
//! wvbench all [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke] [--out <file>]
//!         every workload, untraced then traced, each in a child process
//! wvbench compare <A.json> <B.json>
//!         applies the end-to-end bounds to two result files
//! wvbench manifest
//!         prints BENCHMARK.json as the tables in `spec` define it
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use wvbench::json::Json;
use wvbench::report::{self, WorkloadResult};
use wvbench::run::{self, Budget, Options};
use wvbench::{compare, spec};

/// Divisor of every op count in a smoke run.
const SMOKE_DIV: usize = 50;
const DEFAULT_OUT_DIR: &str = "benchmark/out";

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Splits `--key value` pairs (and the bare `--smoke`) from positionals.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.strip_prefix("--") {
            Some("smoke") => {
                out.flags.insert("smoke".into(), "1".into());
            }
            Some(key) => {
                let v = args
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                out.flags.insert(key.to_string(), v);
            }
            None => out.positional.push(a),
        }
    }
    Ok(out)
}

impl Args {
    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.flags
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }

    fn smoke(&self) -> bool {
        self.flags.contains_key("smoke")
    }

    fn options(&self, trace: bool) -> Result<Options, String> {
        let budget = match self.num::<f64>("seconds")? {
            Some(s) if !(s > 0.0 && s <= 600.0) => {
                return Err(format!("--seconds {s} is out of range"))
            }
            Some(s) if !self.smoke() => Budget::Seconds(s),
            _ => Budget::Batches,
        };
        Ok(Options {
            seed: self.num("seed")?.unwrap_or(11),
            budget,
            trace,
            setups: if self.smoke() { 1 } else { spec::SETUPS },
            div: if self.smoke() { SMOKE_DIV } else { 1 },
            out_dir: PathBuf::from(
                self.flags
                    .get("out-dir")
                    .map_or(DEFAULT_OUT_DIR, String::as_str),
            ),
        })
    }
}

fn one_run(args: &Args) -> Result<(), String> {
    let name = &args.flags["workload"];
    let mut w = spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = spec::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {known:?}")
    })?;
    let trace = match args.flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let opts = args.options(trace)?;
    if args.smoke() {
        w = w.scaled_down(SMOKE_DIV);
    }
    let out = run::run(&w, &opts);
    if let Some(why) = report::refusal(&out, trace) {
        return Err(format!("{name}: {why}"));
    }
    print!("{}", report::child_lines(&out));
    println!("{}", report::result_line(&out));
    Ok(())
}

fn all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed: u64 = args.num("seed")?.unwrap_or(11);
    let runs: usize = args.num("runs")?.unwrap_or(1);
    let started = std::time::Instant::now();
    let mut run_docs = Vec::new();
    for _ in 0..runs.max(1) {
        let mut results: BTreeMap<String, WorkloadResult> = BTreeMap::new();
        for w in spec::workloads() {
            let t0 = std::time::Instant::now();
            let mut r = WorkloadResult::default();
            for trace in ["0", "1"] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--trace", trace]);
                cmd.args(["--seed", &seed.to_string()]);
                for key in ["seconds", "out-dir"] {
                    if let Some(v) = args.flags.get(key) {
                        cmd.args([format!("--{key}"), v.clone()]);
                    }
                }
                if args.smoke() {
                    cmd.arg("--smoke");
                }
                // One child at a time: the box has two cores.
                let child = cmd
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", w.name))?;
                if !child.status.success() {
                    return Err(format!(
                        "{} (trace {trace}) failed:\n{}",
                        w.name,
                        String::from_utf8_lossy(&child.stderr)
                    ));
                }
                report::absorb_child(&String::from_utf8_lossy(&child.stdout), &mut r)
                    .map_err(|e| format!("{} (trace {trace}): {e}", w.name))?;
            }
            r.notes.push(format!(
                "both runs took {:.1} s",
                t0.elapsed().as_secs_f64()
            ));
            print!("{}", report::table(w.name, &r));
            results.insert(w.name.to_string(), r);
        }
        run_docs.push(report::run_json(seed, &results));
    }
    let out_file = PathBuf::from(
        args.flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| format!("{DEFAULT_OUT_DIR}/results.json")),
    );
    if let Some(dir) = out_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let doc = Json::obj([("runs", Json::Arr(run_docs))]);
    std::fs::write(&out_file, doc.to_text() + "\n")
        .map_err(|e| format!("{}: {e}", out_file.display()))?;
    println!(
        "\nall workloads correct; {} run(s) in {:.1} s; results in {}",
        runs.max(1),
        started.elapsed().as_secs_f64(),
        out_file.display()
    );
    Ok(())
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: wvbench compare <A.json> <B.json>".to_string());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (text, bad) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{text}");
    Ok(bad)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("all") => all(&args).map(|()| false),
            Some("compare") => compare_files(&args),
            Some("manifest") => {
                print!("{}", report::manifest());
                Ok(false)
            }
            None if args.flags.contains_key("workload") => one_run(&args).map(|()| false),
            _ => Err(
                "usage: wvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       wvbench all [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke] [--out <file>]\n       wvbench compare <A.json> <B.json>"
                    .to_string(),
            ),
        }
    });
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(2),
        Err(e) => {
            eprintln!("wvbench: {e}");
            ExitCode::FAILURE
        }
    }
}
