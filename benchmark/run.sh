#!/usr/bin/env bash
# Builds the benchmark offline into benchmark/target and runs it.
#
#   benchmark/run.sh --smoke                  # < 15 s, same code paths and checks
#   benchmark/run.sh                          # all five workloads
#   benchmark/run.sh --workload reopen --trace
#
# Every argument is passed to the benchmark (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
