#!/usr/bin/env bash
# The benchmark's one command: build the server and the benchmark offline,
# then run.  See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--quick] [--repeat K] [--out FILE]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare BASE.json OTHER.json
set -euo pipefail
cd "$(dirname "$0")/.."

# All three builds share one target directory, so the server and the trace
# link the same compiled crates and the binaries sit side by side.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path Cargo.toml -p hique-server >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

commit=()
if [ "${1:-}" != compare ] && sha=$(git rev-parse --short HEAD 2>/dev/null); then
    commit=(--commit "$sha")
fi
exec "$CARGO_TARGET_DIR/release/hique-benchmark" "$@" "${commit[@]}"
