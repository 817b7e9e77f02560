#!/usr/bin/env bash
# Runs the full set (untraced and traced) twice back to back and compares
# the two: exits non-zero if any end-to-end metric differs by more than its
# BENCHMARK.json bound or any exact-count layer metric differs at all.
# About ten minutes on two cores. Extra flags (--seed n, --smoke) pass through.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- repeat "$@"
