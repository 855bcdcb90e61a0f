#!/usr/bin/env bash
# Build the binaries the benchmark drives (`autofp`, `evald`) and the
# benchmark itself into one target directory, then run the benchmark with
# the given arguments. Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload table4-mini --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 7            # every workload, cross-checked
#
# Both builds must share a target directory: the benchmark finds `autofp`
# and `evald` next to its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p autofp --bins
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
