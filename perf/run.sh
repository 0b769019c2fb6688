#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perf/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
# Run from the repository root. Build output goes to standard error, so
# the last line of standard output is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/cb-perf" --state-dir "$target/cb-perf" "$@"
