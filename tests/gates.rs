//! CI's structural gates, in tier 1: `scripts/gates.sh` holds every
//! check of `.github/workflows/ci.yml` that only reads the tree (line and
//! `pub fn` caps, names that must not come back, the one-driver and
//! one-judge rules), and this test runs all of them. A ratchet broken
//! here fails `cargo test` in the change that breaks it, naming each
//! failing gate and the check that failed.

use std::process::Command;

#[test]
fn every_structural_gate_holds() {
    let out = Command::new("bash")
        .arg("scripts/gates.sh")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("bash runs scripts/gates.sh");
    let said = [out.stdout, out.stderr].concat();
    let said = String::from_utf8_lossy(&said);
    assert!(out.status.success(), "structural gates failed:\n{said}");
}
