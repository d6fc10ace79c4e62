#!/usr/bin/env bash
# The benchmark's own gate: its self-tests, then a smoke run of all five
# workloads (1/50 of the work, correctness gate on). Meant for a CI job;
# takes well under a minute once built.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    all --smoke --seed 11 --out benchmark/out/smoke.json
