#!/usr/bin/env bash
# Builds the `dna` server and the benchmark from this checkout, then runs
# the benchmark with every argument passed through, e.g.
#   bash wirebench/run.sh --workload churn-k10 --seed 1 --seconds 20 --trace 0
#   bash wirebench/run.sh --self-check
# Run from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); inputs and results go to
# .bench_work. Build logs go to stderr; the last line on stdout is the
# result object.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p dna-cli --bin dna >&2
cargo build --release --offline --quiet --manifest-path wirebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wirebench" --dna "$CARGO_TARGET_DIR/release/dna" "$@"
