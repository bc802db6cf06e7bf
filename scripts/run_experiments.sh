#!/usr/bin/env bash
# Regenerates every table and figure of the paper and records the outputs
# under results/. Sized for a single-core machine; scale the knobs up for
# a longer, tighter-confidence run.
set -uo pipefail

# A global ICOIL_EPISODES overrides every per-section size; otherwise each
# section keeps its own default.
EPISODES_TABLE="${ICOIL_EPISODES:-${EPISODES_TABLE:-12}}"
EPISODES_SWEEP="${ICOIL_EPISODES:-${EPISODES_SWEEP:-4}}"
EPISODES_ABLATION="${ICOIL_EPISODES:-${EPISODES_ABLATION:-6}}"

# Multi-episode binaries fan episodes across this many worker threads;
# per-seed results are bit-identical at any setting.
export ICOIL_PARALLELISM="${ICOIL_PARALLELISM:-$(nproc 2>/dev/null || echo 1)}"
echo "episodes: table=$EPISODES_TABLE sweep=$EPISODES_SWEEP ablation=$EPISODES_ABLATION; workers=$ICOIL_PARALLELISM"

mkdir -p results
run() {
    local name="$1"; shift
    echo "=== $name ==="
    "$@" | tee "results/$name.out"
}

# main experiments
ICOIL_EPISODES=$EPISODES_TABLE  run table2 cargo run --release -q -p icoil-bench --bin table2
run fig5 cargo run --release -q -p icoil-bench --bin fig5
ICOIL_EPISODES=$EPISODES_SWEEP  run fig6 cargo run --release -q -p icoil-bench --bin fig6
ICOIL_EPISODES=$EPISODES_SWEEP  run fig7 cargo run --release -q -p icoil-bench --bin fig7
ICOIL_EPISODES=$EPISODES_SWEEP  run fig8 cargo run --release -q -p icoil-bench --bin fig8
ICOIL_EPISODES=$EPISODES_SWEEP  run fig9 cargo run --release -q -p icoil-bench --bin fig9
run freq cargo run --release -q -p icoil-bench --bin freq
run perf cargo run --release -q -p icoil-bench --bin perf
run fig3 cargo run --release -q -p icoil-bench --bin fig3

# ablations (small training knobs: these train their own models)
ICOIL_EPISODES=$EPISODES_ABLATION run ablate_hsa    cargo run --release -q -p icoil-bench --bin ablate_hsa
ICOIL_EPISODES=$EPISODES_ABLATION run ablate_guard  cargo run --release -q -p icoil-bench --bin ablate_guard
ICOIL_EPISODES=$EPISODES_ABLATION run ablate_window cargo run --release -q -p icoil-bench --bin ablate_window
ICOIL_EPISODES=$EPISODES_ABLATION run ablate_horizon cargo run --release -q -p icoil-bench --bin ablate_horizon
ICOIL_TRAIN_EPISODES=4 ICOIL_TRAIN_EPOCHS=8 run ablate_actions cargo run --release -q -p icoil-bench --bin ablate_actions
ICOIL_EPISODES=$EPISODES_ABLATION ICOIL_TRAIN_EPISODES=4 ICOIL_TRAIN_EPOCHS=8 \
    run ablate_dagger cargo run --release -q -p icoil-bench --bin ablate_dagger

echo "all outputs in results/"
