#!/usr/bin/env bash
# Builds the shipped daemon (latchd) and the wallbench harness from this
# checkout, then runs the harness with the arguments given:
#
#   bash wallbench/run.sh --workload front_door --seed 1 --seconds 10 --trace 0
#
# The daemons' state directories live under
# $CARGO_TARGET_DIR/wallbench/state. Where a private mount namespace is
# available (unshare), that directory is a tmpfs mounted for this run
# only, so fsync costs no device I/O; otherwise it is a plain directory
# on the checkout's filesystem. The harness prints which.
#
# Build output goes to stderr; stdout carries only the harness's lines,
# the last of which is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p latch-serve --bin latchd >&2
cargo build --release --offline --quiet --manifest-path wallbench/Cargo.toml >&2
bench="$CARGO_TARGET_DIR/release/wallbench"
state="$CARGO_TARGET_DIR/wallbench/state"
mkdir -p "$state"
mount_state='mount -t tmpfs -o size=512m wallbench-state "$0"'
if unshare --user --map-root-user --mount sh -c "$mount_state" "$state" 2>/dev/null; then
    exec unshare --user --map-root-user --mount sh -c \
        "$mount_state"' && exec "$@"' "$state" "$bench" "$@"
fi
echo "wallbench: no private mount namespace; state stays on the checkout's filesystem" >&2
exec "$bench" "$@"
