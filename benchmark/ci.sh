#!/usr/bin/env bash
# The harness's own tests, then every workload end to end at smoke scale
# (2,400 trajectories, 2 s windows, traced pass included): under a minute
# after the build. Exits non-zero on a failed test or an incorrect answer.
# A CI job needs this one line: `bash benchmark/ci.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --smoke --trace >/dev/null
echo "benchmark smoke: ok (document in benchmark/out/summary.json)"
