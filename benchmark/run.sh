#!/usr/bin/env bash
# Build mesorasi_bench from source and run the repo benchmark.
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload, each in its own process; prints each one's
#       metrics and writes benchmark/out/results-<sha>[.trace].json
#   bash benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is its JSON summary
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr.
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -d src || ! -f benchmark/CMakeLists.txt ]]; then
    echo "run.sh: library sources not found; run from the repository root" >&2
    exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$(nproc)" --target mesorasi_bench >&2

sha=unknown
if [[ -e .git ]]; then
    sha=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
    [[ -z "$(git status --porcelain 2>/dev/null)" ]] || sha+=-dirty
fi
out=benchmark/out
bench=("$build/mesorasi_bench" run --spec BENCHMARK.json
       --golden benchmark/golden.json --out-dir "$out" --git-sha "$sha")

workload=""
suffix=""
args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
        --trace) [[ "${2:?--trace needs a value}" != 0 ]] && suffix=.trace
                 args+=("$1" "$2"); shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

if [[ -n "$workload" ]]; then
    exec "${bench[@]}" --workload "$workload" ${args[@]+"${args[@]}"}
fi

workloads=(pnpp-stream dgcnn-stream pnpp-serve-open pnpp-serve-closed)
status=0
for w in "${workloads[@]}"; do
    "${bench[@]}" --workload "$w" ${args[@]+"${args[@]}"} || status=1
    echo
done

results="$out/results-$sha$suffix.json"
{
    printf '{"git_sha": "%s", "runs": [\n' "$sha"
    sep=""
    for w in "${workloads[@]}"; do
        printf '%s' "$sep"
        cat "$out/$w$suffix.result.json"
        sep=","
    done
    printf ']}\n'
} > "$results"
echo "wrote $results"
exit "$status"
