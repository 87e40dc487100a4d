#!/usr/bin/env bash
# Build the benchmark and the worker daemon from source, then run it.
# Run from the repository root; all arguments go to the benchmark:
#   bash campaignbench/run.sh --workload suite-inproc --seed 1 --seconds 15 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The remote transport spawns `llm4fp-worker`, found next to the benchmark binary.
cargo build --release --offline --quiet -p llm4fp-orchestrator --bin llm4fp-worker >&2
cargo build --release --offline --quiet --manifest-path campaignbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/campaignbench" "$@"
