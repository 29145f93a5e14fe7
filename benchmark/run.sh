#!/usr/bin/env bash
# Builds `scd` and the benchmark in release mode and runs the suite.
#
#   benchmark/run.sh                  full suite, untraced (end-to-end metrics)
#   benchmark/run.sh --trace          full suite, traced (per-layer metrics, ledger, spans)
#   benchmark/run.sh --smoke          same shapes, counts cut, one pass each
#   benchmark/run.sh --out A.jsonl    append the results to A.jsonl (for `compare`)
#
# Any other argument is passed through to `scd-benchmark --all`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
cargo build --release --offline -p scd-cli
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --all "$@"
