#!/usr/bin/env bash
# Builds the benchmark package (offline, release) and runs it; every
# argument passes through to the binary. Run from anywhere:
#
#   benchmark/run.sh                          the suite at seed 1
#   benchmark/run.sh --workload W --seed S    one workload, both runs
#   benchmark/run.sh --selfcheck              two seed-1 sets and seed 2
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                             one run, one result line
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/npf-benchmark" --out-dir "$here/out" "$@"
