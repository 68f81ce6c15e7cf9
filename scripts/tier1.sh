#!/usr/bin/env bash
# Tier-1 verification flow, plus the sanitizer passes.
#
# Stage 1 is exactly the ROADMAP tier-1 command: configure, build,
# ctest in build/, then the scenario smoke runs, the profiler's
# self-test (scripts/profile.sh) and one short run of the cache and
# BTB probe, program-build and checkpoint capture/restore
# micro-benchmarks. Stage 2 rebuilds everything with
# HP_SANITIZE=address into build-asan/ and reruns the full suite under
# ASan, so memory errors in the simulator, the checkpoint restore path,
# and the tests themselves fail CI rather than silently corrupting
# results. Stage 3 does the same with HP_SANITIZE=undefined into
# build-ubsan/ so undefined behaviour (shift overflows, misaligned
# loads in the event ring and serializers, enum abuse) is caught too.
#
# --fast runs the whole flow in SMARTS sampled mode: HP_SAMPLE turns
# every default-config simulation the benches and the heavier ctests
# run into a K-window sampled run (see sim/sampling.hh), and
# HP_CKPT_DIR shares warmup and interval-fork blobs across the test
# binaries, so repeated measurement phases restore instead of
# re-simulating. Sampled results carry confidence intervals, not exact
# counters — golden-diff tests pin their own configs and are
# unaffected, so the suite still passes; use the default mode for any
# byte-exactness question.
#
# Stage 4 builds with HP_SANITIZE=thread into build-tsan/ and runs the
# concurrency surface under TSan: the executor's worker pool, the
# compute-once map behind every process-wide cache, plus the
# multi-core/multi-tenant, runtime-options and request-span suites —
# the code that actually shares state across threads (or across
# interleaved cores) and the warn-once latch. The full suite under
# TSan would be prohibitively slow for what is mostly single-threaded
# simulation.
#
# Usage: scripts/tier1.sh [--fast]
#        [--asan-only|--ubsan-only|--tsan-only|--no-sanitizers]

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fast" ]]; then
    shift
    # Keep in sync with suiteSampling() in
    # bench/micro_sampling_accuracy.cc — the accuracy gate for exactly
    # these parameters.
    export HP_SAMPLE="${HP_SAMPLE:-12,30000,10000,1}"
    export HP_CKPT_DIR="${HP_CKPT_DIR:-$PWD/build/ckpt-fast}"
fi

# Bounded parallelism: a bare `cmake --build -j` is an unbounded
# `make -j`, and a bare `ctest -j` runs serially on CMake 3.25.
jobs="$(nproc)"

# Every stage builds with warnings as errors, so a new warning fails
# CI instead of scrolling past in the build log.
werror=-DCMAKE_COMPILE_WARNING_AS_ERROR=ON

run_stage() {
    local dir="$1"; shift
    cmake -B "$dir" -S . "$werror" "$@"
    cmake --build "$dir" -j "$jobs"
    (cd "$dir" && ctest --output-on-failure -j "$jobs")
}

stage="${1:-}"

if [[ "$stage" != "--asan-only" && "$stage" != "--ubsan-only" &&
      "$stage" != "--tsan-only" ]]; then
    run_stage build
    # Scenario suite: every example spec must parse, round-trip
    # through its canonical form, and produce a populated latency
    # report. Under --fast the runs inherit HP_SAMPLE and exercise the
    # sampled latency-merge path instead.
    for spec in examples/scenarios/*.scenario; do
        ./build/bench/scenario_replay_check --smoke="$spec"
    done
    # The committed profiler must still build, sample and symbolize.
    scripts/profile.sh --self-test
    # The set-associative probe, program-build and checkpoint
    # micro-benchmarks must still run.
    ./build/bench/micro_structures \
        --benchmark_filter='BM_CacheProbe|BM_BtbLookup|BM_ProgramBuild|BM_Checkpoint' \
        --benchmark_min_time=0.05
fi

if [[ "$stage" != "--no-sanitizers" && "$stage" != "--ubsan-only" &&
      "$stage" != "--tsan-only" ]]; then
    run_stage build-asan -DHP_SANITIZE=address
fi

if [[ "$stage" != "--no-sanitizers" && "$stage" != "--asan-only" &&
      "$stage" != "--tsan-only" ]]; then
    # Abort on the first UBSan diagnostic instead of printing and
    # continuing, so ctest actually fails.
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        run_stage build-ubsan -DHP_SANITIZE=undefined
fi

if [[ "$stage" != "--no-sanitizers" && "$stage" != "--asan-only" &&
      "$stage" != "--ubsan-only" ]]; then
    # TSan over the concurrency surface only (see header comment).
    cmake -B build-tsan -S . "$werror" -DHP_SANITIZE=thread
    cmake --build build-tsan -j "$jobs"
    (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ctest \
        --output-on-failure -j "$jobs" \
        -R 'Executor|OnceMap|MultiCore|RuntimeOptions|RequestSpan|multi_tenant_equivalence|consolidation_scaling|tail_attribution_smoke')
fi

echo "tier1: all stages passed"
