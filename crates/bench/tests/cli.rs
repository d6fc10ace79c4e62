//! `wv-inspect` refuses a size it cannot honour: a zero count or span, or
//! one too large for the type it fills, exits 2 with the usage and writes
//! nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wv-inspect"))
        .args(args)
        .output()
        .expect("wv-inspect runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wv-inspect-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn assert_refused(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: wv-inspect"));
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn a_capture_of_zero_or_too_many_trials_or_rounds_is_refused() {
    let dir = scratch("capture");
    let out = dir.join("out");
    for (flag, n) in [
        ("--trials", "0"),
        ("--rounds", "0"),
        // 2^32 rounds once wrapped to 0 and captured two empty files.
        ("--rounds", "4294967296"),
    ] {
        let got = inspect(&["capture", "--trials", "1", flag, n, "--out", path(&out)]);
        assert_refused(&got);
        assert!(!out.exists(), "capture {flag} {n} wrote {out:?}");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn an_slo_window_of_zero_or_past_the_microsecond_range_is_refused() {
    let dir = scratch("slo");
    let out = dir.join("out");
    let made = inspect(&[
        "capture",
        "--trials",
        "1",
        "--rounds",
        "1",
        "--out",
        path(&out),
    ]);
    assert!(made.status.success(), "{made:?}");
    let trace = out.join("trace.jsonl");
    for n in ["0", "18446744073709552"] {
        assert_refused(&inspect(&["slo", path(&trace), "--window-ms", n]));
    }
    let fine = inspect(&["slo", path(&trace), "--window-ms", "1"]);
    assert!(fine.status.success(), "{fine:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
