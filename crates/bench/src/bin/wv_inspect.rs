//! Trace-analytics CLI: critical paths, decision and retry explains, SLO
//! burn, and Chrome-trace export over deterministic run artifacts.
//!
//! ```text
//! wv-inspect capture [--seed N] [--trials N] [--rounds N] [--out DIR]
//! wv-inspect critpath FILE
//! wv-inspect explain FILE [--op ID]
//! wv-inspect slo FILE [--target-ms N] [--window-ms N]
//! wv-inspect chrome FILE
//! wv-inspect text FILE
//! ```
//!
//! `FILE` is a replay artifact (one JSON object with `"trace"` /
//! `"audit"` arrays, e.g. `results/e9_repro.json`), raw trace or audit
//! JSONL, or `-` for stdin; the shape is auto-detected. `capture` runs a
//! fresh instrumented Example-1 workload and writes `trace.jsonl` and
//! `audit.jsonl` into `--out` (default `inspect_out`); `text` renders a
//! trace as per-operation waterfalls. All reports are pure functions of
//! their input, so they are byte-identical across hosts and worker
//! counts.

#![forbid(unsafe_code)]

use std::io::Read as _;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: wv-inspect capture [--seed N] [--trials N] [--rounds N] [--out DIR]\n\
         \x20      wv-inspect critpath FILE\n\
         \x20      wv-inspect explain FILE [--op ID]\n\
         \x20      wv-inspect slo FILE [--target-ms N] [--window-ms N]\n\
         \x20      wv-inspect chrome FILE\n\
         \x20      wv-inspect text FILE\n\
         FILE: replay artifact or JSONL; '-' reads stdin"
    );
    exit(2);
}

fn read_input(path: &str) -> String {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .expect("read stdin");
        buf
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("wv-inspect: read {path}: {e}");
            exit(1);
        })
    }
}

fn ingest(path: &str) -> wv_bench::inspect::Ingested {
    wv_bench::inspect::ingest(&read_input(path)).unwrap_or_else(|e| {
        eprintln!("wv-inspect: {path}: {e}");
        exit(1);
    })
}

/// Pulls `--flag value` pairs out of the arg list; leftovers are
/// positional.
fn parse_flags(args: &[String], known: &[&str]) -> (Vec<String>, Vec<(String, String)>) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                eprintln!("wv-inspect: unknown flag --{name}");
                usage();
            }
            match it.next() {
                Some(v) => flags.push((name.to_string(), v.clone())),
                None => {
                    eprintln!("wv-inspect: --{name} needs a value");
                    usage();
                }
            }
        } else {
            positional.push(a.clone());
        }
    }
    (positional, flags)
}

fn flag_u64(flags: &[(String, String)], name: &str, default: u64) -> u64 {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| parse_int(v))
        .unwrap_or(default)
}

fn parse_int(v: &str) -> u64 {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("wv-inspect: bad integer {v:?}");
        exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage();
    };
    let rest = &args[1..];
    match cmd {
        "capture" => {
            let (pos, flags) = parse_flags(rest, &["seed", "trials", "rounds", "out"]);
            if !pos.is_empty() {
                usage();
            }
            let seed = flag_u64(&flags, "seed", 0x1257EC7);
            let trials = flag_u64(&flags, "trials", 4) as usize;
            let rounds = flag_u64(&flags, "rounds", 5) as u32;
            let out = flags
                .iter()
                .rev()
                .find(|(n, _)| n == "out")
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "inspect_out".to_string());
            let cap = wv_bench::inspect::capture_e1(seed, trials, rounds);
            std::fs::create_dir_all(&out).expect("create output dir");
            std::fs::write(format!("{out}/trace.jsonl"), &cap.trace_jsonl).expect("write trace");
            std::fs::write(format!("{out}/audit.jsonl"), &cap.audit_jsonl).expect("write audit");
            println!("captured {trials} trial(s): {out}/trace.jsonl {out}/audit.jsonl");
        }
        "critpath" => {
            let (pos, _) = parse_flags(rest, &[]);
            let [file] = pos.as_slice() else { usage() };
            print!(
                "{}",
                wv_bench::inspect::critpath_report(&ingest(file).spans)
            );
        }
        "explain" => {
            let (pos, flags) = parse_flags(rest, &["op"]);
            let [file] = pos.as_slice() else { usage() };
            let op = flags
                .iter()
                .rev()
                .find(|(n, _)| n == "op")
                .map(|(_, v)| parse_int(v));
            let input = ingest(file);
            if !input.audit.is_empty() {
                print!("{}", wv_bench::inspect::explain_report(&input.audit, op));
            }
            if !input.spans.is_empty() {
                print!("{}", wv_bench::inspect::retry_report(&input.spans, op));
                print!("{}", wv_bench::inspect::ride_report(&input.spans, op));
            }
        }
        "slo" => {
            let (pos, flags) = parse_flags(rest, &["target-ms", "window-ms"]);
            let [file] = pos.as_slice() else { usage() };
            let target = flag_u64(&flags, "target-ms", 500);
            let window = flag_u64(&flags, "window-ms", 4000);
            print!(
                "{}",
                wv_bench::inspect::slo_report(&ingest(file).spans, target, window)
            );
        }
        "chrome" => {
            let (pos, _) = parse_flags(rest, &[]);
            let [file] = pos.as_slice() else { usage() };
            println!("{}", wv_bench::inspect::chrome_trace(&ingest(file).spans));
        }
        "text" => {
            let (pos, _) = parse_flags(rest, &[]);
            let [file] = pos.as_slice() else { usage() };
            print!("{}", wv_bench::tracefmt::waterfall(&ingest(file).spans));
        }
        _ => usage(),
    }
}
