#!/usr/bin/env bash
# The repo's tier-1 gate plus lints, in one command:
#
#   scripts/check.sh
#
# Fails on the first broken step. Clippy lints every workspace crate with
# warnings denied so the tree stays lint-clean. The conformance smoke
# fuzzes a small batch of procedurally generated scenarios through the
# differential harness (crates/conformance), and the co_e2e suite drives
# a full CO parking episode under --release. The telemetry
# smoke runs one traced episode, re-parses the NDJSON trace against the
# aggregated counters, and validates the
# BENCH_perf.json / BENCH_serve.json schemas. The serve smoke steps 8
# concurrent sessions 50 frames through the in-process serving engine and
# demands bit-identical trajectories across worker counts (1 vs 4) and
# engine shard counts (1 vs 4), plus a kill-snapshot-restore cycle (every
# session evicted at frame 20, the server torn down, every snapshot
# restored into a fresh server at a different shard count) with zero
# sheds — and runs again with ICOIL_FORCE_SCALAR=1 so the scalar kernel
# fallback is held to the same contract, and a third time with
# ICOIL_IL_PRECISION=int8 so the quantized IL lane meets the same
# determinism bar. Every workspace crate's own suites except the
# conformance crate's (geom, vehicle, world, perception, nn, il, hsa,
# solver, co, planner, core, telemetry, adapt, serve and bench, plus the
# vendored criterion harness's) run on
# the default kernel dispatch, the widest backend the CPU has: AVX-512 on
# an AVX-512 host (the fused conv blocks on 512-bit tiles, every other nn
# kernel on its AVX2 body), AVX2 on an AVX2 host (the root `cargo test`
# covers only the umbrella package). Whatever the dispatch, the nn
# kernel unit tests and simd proptests loop over every backend the CPU
# supports, so scalar, the AVX2 kernels and (where present) the AVX-512
# conv tiles are each compared on every host that has them, and the
# AVX-512 tiles are held to the AVX2 tiles bit for bit. The solver and
# co suites compare scalar with the dispatched backend, which is AVX2 on
# every AVX2 host (the solver has no AVX-512 backend). The serve suites
# include the worker and shard determinism
# tests, the IL memo's test against a reference that infers every
# frame, the request-line cap, the non-UTF-8 line reply and the shard,
# queue and snapshot proptests. The conformance crate's unit tests stay
# out (about 270 s under --release): its checks run through the
# conformance smokes below. The solver/nn/co and perception suites also run
# once under ICOIL_FORCE_SCALAR=1: every test that uses the default
# dispatch then runs the scalar kernels, which proves the escape hatch
# leaves the numerics bit-identical (the nn run includes the
# quantization proptests and the fused-inference equivalence proptests,
# so the int8 quantizer/accumulator and f32 conv-block contracts are
# proved on the scalar backend too); the solver and co backend
# comparisons then compare scalar with scalar, while the nn kernel tests
# still compare every backend the CPU supports. The conformance
# smoke (which includes the simd_scalar_kernels check, with its
# AVX-512-against-AVX2 bitwise IL leg on AVX-512 hosts, and the
# checkpoint_restore_replay, quantized_il and family_determinism
# differential checks) fuzzes procedurally generated scenarios through
# the full harness, cycling every map family; a per-family pass then pins
# each family for at least 5 cases so no family can hide behind the
# cycling.
# The scenarios bin drives two full-stack episodes per family and emits
# the BENCH_scenarios.json the telemetry smoke schema-checks. The adapt
# smoke runs the online-adaptation flywheel end to end — seed demos,
# serve a generation, retrain, hot-swap, serve the next — asserting
# weight-version pinning per response, bit-identical client mirrors and
# checksum-clean artifact round trips, then repeats under
# ICOIL_FORCE_SCALAR=1 so retraining on the scalar kernels meets the
# same contract. Override the fuzz case count with ICOIL_FUZZ_CASES,
# e.g. `ICOIL_FUZZ_CASES=200 scripts/check.sh` for the full local sweep.
# The `cargo test` steps count the suites they run (one `test result:`
# line each, doc tests included) and the gate fails when fewer than
# MIN_TEST_SUITES ran, so a crate or test target that silently drops out
# of the gate is caught. Raise the floor when a suite is added.
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TEST_SUITES=98
suites=0
count_suites() {
    local log=target/check-test-suites.log
    "$@" 2>&1 | tee "$log"
    suites=$((suites + $(grep -c '^test result:' "$log" || true)))
}

cargo build --release
count_suites cargo test -q
count_suites cargo test -q -p icoil-solver -p icoil-co -p icoil-nn -p icoil-perception -p icoil-telemetry -p icoil-adapt -p icoil-serve \
    -p icoil-geom -p icoil-vehicle -p icoil-world -p icoil-hsa -p icoil-il -p icoil-planner -p icoil-core -p icoil-bench \
    -p criterion
count_suites env ICOIL_FORCE_SCALAR=1 cargo test -q -p icoil-solver -p icoil-nn -p icoil-co -p icoil-perception
count_suites cargo test --release -q --test co_e2e
if (( suites < MIN_TEST_SUITES )); then
    echo "only $suites test suites ran; the floor is $MIN_TEST_SUITES" >&2
    exit 1
fi
echo "$suites test suites ran (floor $MIN_TEST_SUITES)"
cargo clippy --workspace --all-targets -- -D warnings
ICOIL_EPISODES=2 \
    cargo run --release -q -p icoil-bench --bin scenarios -- --untrained --out target/BENCH_scenarios_smoke.json
cargo run --release -q -p icoil-bench --bin telemetry_smoke
cargo run --release -q -p icoil-bench --bin serve_smoke
ICOIL_FORCE_SCALAR=1 cargo run --release -q -p icoil-bench --bin serve_smoke
ICOIL_IL_PRECISION=int8 cargo run --release -q -p icoil-bench --bin serve_smoke
cargo run --release -q -p icoil-bench --bin adapt_smoke
ICOIL_FORCE_SCALAR=1 cargo run --release -q -p icoil-bench --bin adapt_smoke
ICOIL_FUZZ_CASES="${ICOIL_FUZZ_CASES:-25}" \
    cargo run --release -q -p icoil-bench --bin conformance -- --smoke --out target/conformance-smoke.json
for family in reverse_in parallel_curb angled_echelon pillared_garage dead_end_stub crowded_lot; do
    ICOIL_FUZZ_CASES="${ICOIL_FAMILY_FUZZ_CASES:-5}" \
        cargo run --release -q -p icoil-bench --bin conformance -- \
        --smoke --family "$family" --out "target/conformance-$family.json"
done
echo "all checks passed"
