#!/usr/bin/env bash
# The one command of the D-GMC benchmark.
#
#   perf/run.sh                                   all five workloads, untraced
#                                                 then traced, one report
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one workload, one JSON result
#                                                 object as the last stdout line
#   perf/run.sh compare A.json B.json             judge two reports
#
# Run from the root of a checkout. Builds the shipped `dgmc-node` binary and
# the benchmark (release, offline) through this package's own workspace, so
# the root manifest and lock file are never touched.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p dgmc-node --bin dgmc-node -p dgmc-perf --bin dgmc-perf 1>&2

export DGMC_NODE_BIN="$CARGO_TARGET_DIR/release/dgmc-node"
exec "$CARGO_TARGET_DIR/release/dgmc-perf" "$@"
