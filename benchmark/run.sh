#!/usr/bin/env bash
# Builds the benchmark (release, offline) and forwards every argument to it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke
#   benchmark/run.sh compare --base FILE... --new FILE... [--bounds BENCHMARK.json]
#
# Cargo's progress goes to stderr; the benchmark's last stdout line is the
# result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/pathrank-benchmark" --out-dir "$here/out" "$@"
