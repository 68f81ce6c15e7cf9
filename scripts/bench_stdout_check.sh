#!/usr/bin/env bash
# Compares the stdout of the 18 paper benches between a git ref and
# the working tree, byte for byte.
#
# The ref is extracted with `git archive` into
# build-stdout-check/ref-src/ and built in build-stdout-check/ref/;
# the working tree is built in build-stdout-check/work/. Only the
# bench targets are built. The benches are the first block of
# hp_add_bench() lines in bench/CMakeLists.txt (one per paper table
# and figure). Each runs twice per tree with every other HP_* variable
# unset, so no scenario, checkpoint directory or observability output
# applies: in exact mode, and in sampled mode with
# HP_SAMPLE=12,30000,10000,1 (the tier1.sh --fast spec), the only mode
# that fast-forwards. Outputs stay in
# build-stdout-check/{ref,work}/out/{exact,sampled}/<bench>.txt for
# diffing.
#
# Prints "identical" or "differs" per bench and mode (a bench whose
# exit status differs between the trees also differs) and exits 1 if
# any differs.
#
# Usage: scripts/bench_stdout_check.sh <git-ref>

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <git-ref>" >&2
    exit 2
fi
ref="$1"
if ! git rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
    echo "bench_stdout_check: unknown git ref '$ref'" >&2
    exit 2
fi

for var in $(compgen -e); do
    if [[ "$var" == HP_* ]]; then
        unset "$var"
    fi
done

mapfile -t benches < <(awk '
    /^hp_add_bench\(/ { sub(/^hp_add_bench\(/, ""); sub(/\).*/, "");
                        print; seen = 1; next }
    seen { exit }' bench/CMakeLists.txt)
if [[ ${#benches[@]} -eq 0 ]]; then
    echo "bench_stdout_check: no benches found in bench/CMakeLists.txt" >&2
    exit 2
fi

root="$PWD/build-stdout-check"
jobs="$(nproc)"
modes=(exact sampled)

rm -rf "$root/ref-src"
mkdir -p "$root/ref-src"
git archive "$ref" | tar -x -C "$root/ref-src"

# build_and_run <source dir> <tree name>
build_and_run() {
    local src="$1" tree="$2"
    local dir="$root/$tree"
    cmake -B "$dir" -S "$src" >/dev/null
    cmake --build "$dir" -j "$jobs" --target "${benches[@]}" >/dev/null
    rm -rf "$dir/out"
    local mode b
    for mode in "${modes[@]}"; do
        local out="$dir/out/$mode" sample=()
        [[ "$mode" == sampled ]] && sample=(HP_SAMPLE=12,30000,10000,1)
        mkdir -p "$out"
        for b in "${benches[@]}"; do
            local status=0
            (cd "$out" && env "${sample[@]}" "$dir/bench/$b" >"$b.txt") ||
                status=$?
            echo "$status" >"$out/$b.status"
        done
    done
}

echo "bench_stdout_check: building and running $ref" >&2
build_and_run "$root/ref-src" ref
echo "bench_stdout_check: building and running the working tree" >&2
build_and_run "$PWD" work

failed=0
for mode in "${modes[@]}"; do
    differs=0
    for b in "${benches[@]}"; do
        ref_out="$root/ref/out/$mode/$b" work_out="$root/work/out/$mode/$b"
        if cmp -s "$ref_out.txt" "$work_out.txt" &&
           cmp -s "$ref_out.status" "$work_out.status"; then
            echo "$b $mode identical"
        else
            echo "$b $mode differs"
            differs=$((differs + 1))
        fi
    done
    echo "$((${#benches[@]} - differs))/${#benches[@]} bench stdout" \
        "identical in $mode mode"
    failed=$((failed + differs))
done
[[ $failed -eq 0 ]]
