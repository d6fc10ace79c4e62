//! `wv-exp` refuses a size it cannot honour: a sized experiment at zero
//! operations would print verdicts drawn from nothing.

use std::path::PathBuf;
use std::process::Command;

/// An empty working directory with an empty `results/`, so a run that
/// writes a report would leave a file there.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wv-exp-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("results")).expect("temp dir");
    dir
}

#[test]
fn a_sized_experiment_at_zero_or_too_many_trials_is_refused() {
    // 2^64 does not fit the count; 0 once printed "inf×" and "NaN×" verdicts.
    for id in ["e9", "e10", "e11", "e13", "e14", "e15"] {
        for n in ["0", "18446744073709551616"] {
            let dir = workdir(id);
            let out = Command::new(env!("CARGO_BIN_EXE_wv-exp"))
                .args([id, "--trials", n])
                .current_dir(&dir)
                .output()
                .expect("wv-exp runs");
            assert_eq!(out.status.code(), Some(2), "{id} --trials {n}: {out:?}");
            assert!(out.stdout.is_empty(), "{id} --trials {n} printed a report");
            assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: wv-exp"));
            let written = std::fs::read_dir(dir.join("results"))
                .expect("results/")
                .count();
            assert_eq!(written, 0, "{id} --trials {n} wrote into results/");
            std::fs::remove_dir_all(&dir).expect("clean up");
        }
    }
}
