#!/usr/bin/env sh
# Bench regression gate for the workspace (DESIGN.md §12).
#
# Runs the Shapley bench suite into a temporary directory and diffs every
# group JSON against the checked-in baselines under
# crates/bench/baselines/ with the bench_diff tool. A benchmark
# fails the gate when both its median and its minimum exceed the baseline
# by more than the threshold (default 10%) — see bench_diff's docs for why
# both statistics must agree — as does a benchmark that vanished from a
# baselined group.
#
# Usage:
#   scripts/bench_gate.sh                 # gate against checked-in baselines
#   XAI_REGEN_BENCH=1 scripts/bench_gate.sh   # re-baseline: overwrite the
#                                             # checked-in JSONs with this run
#   XAI_BENCH_GATE_THRESHOLD=15 scripts/bench_gate.sh   # custom threshold %
#
# The gate runs only the `shapley` bench target (the one that produces the
# kernel_shap_batched masked-vs-batched numbers the zero-copy work is
# gated on); baselines for groups the run does not emit are left alone.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# Tracked and outside any target/ directory: a plain `cargo bench -p
# xai-bench` writes its JSON to crates/bench/target/xai-bench/ and
# `cargo clean` wipes target/, so neither may touch the baselines.
BASELINE_DIR="crates/bench/baselines"
THRESHOLD="${XAI_BENCH_GATE_THRESHOLD:-10}"

CANDIDATE_DIR="$(mktemp -d)"
trap 'rm -rf "$CANDIDATE_DIR"' EXIT

echo "==> cargo bench -p xai-bench --bench shapley (JSON -> $CANDIDATE_DIR)"
XAI_BENCH_JSON_DIR="$CANDIDATE_DIR" cargo bench -q -p xai-bench --bench shapley

if [ "${XAI_REGEN_BENCH:-0}" = "1" ]; then
    echo "==> XAI_REGEN_BENCH=1: adopting this run as the new baseline"
    mkdir -p "$BASELINE_DIR"
    for json in "$CANDIDATE_DIR"/*.json; do
        cp "$json" "$BASELINE_DIR/$(basename "$json")"
        echo "    re-baselined $(basename "$json")"
    done
    echo "bench_gate.sh: baselines regenerated; review and commit them"
    exit 0
fi

# A checkout without baseline JSONs has nothing to gate
# against: that is a warning, not a failure — regenerate and commit
# baselines to arm the gate.
if [ ! -d "$BASELINE_DIR" ] || ! ls "$BASELINE_DIR"/*.json >/dev/null 2>&1; then
    echo "bench_gate.sh: WARNING: no baseline JSONs under $BASELINE_DIR; skipping the gate" >&2
    echo "bench_gate.sh: this run produced (and would have gated) these bench JSONs:" >&2
    for json in "$CANDIDATE_DIR"/*.json; do
        [ -e "$json" ] || continue
        echo "    $(basename "$json")" >&2
    done
    echo "bench_gate.sh: run 'XAI_REGEN_BENCH=1 scripts/bench_gate.sh' and commit the baselines to arm it" >&2
    exit 0
fi

echo "==> bench_diff (threshold ${THRESHOLD}%)"
cargo run -q --release -p xai-bench --bin bench_diff -- \
    "$BASELINE_DIR" "$CANDIDATE_DIR" "$THRESHOLD"

echo "bench_gate.sh: no regressions beyond ${THRESHOLD}%"
