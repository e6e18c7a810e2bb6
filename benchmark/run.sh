#!/usr/bin/env bash
# Builds the benchmark package and runs it. Two uses:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one measured run of one workload; the last line of standard output
#       is the JSON result (this is BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--quick] [--repeat-check]
#       every workload, every metric by name and unit, output checks on;
#       exit status is non-zero if any check fails
#
# Touches nothing outside this directory (and $CARGO_TARGET_DIR if set).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/sttcp-benchmark" --out-dir "$here/out" "$@"
