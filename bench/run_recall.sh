#!/usr/bin/env bash
# Run the accuracy_recall sweep and record its PQ recall grid as
# JSON in BENCH_recall.json at the repository root. The artifact is
# self-checking: the binary embeds its thresholds and exits non-zero
# (removing the stale file first) if the 8-bit default point or the
# best 4-bit point misses recall@10 >= 0.9 vs the exact pipeline.
# The tracked BENCH_recall.json is written only from a Release build
# tree (CMAKE_BUILD_TYPE in <build-dir>/CMakeCache.txt): other build
# types change recall at some grid points in the third decimal.
#
# Usage: bench/run_recall.sh [build-dir] [output-json] [extra args]
# Pass --smoke after the positional args for the CI-sized sweep.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/BENCH_recall.json}"

bin="${build_dir}/bench/accuracy_recall"
if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake --build ${build_dir} --target accuracy_recall)" >&2
    exit 1
fi

tracked_json="${repo_root}/BENCH_recall.json"
if [[ "$(realpath -m "${out_json}")" == "$(realpath -m "${tracked_json}")" ]]; then
    build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
        "${build_dir}/CMakeCache.txt" 2>/dev/null || true)"
    if [[ "${build_type}" != "Release" ]]; then
        echo "error: ${tracked_json} is written only from a Release build" \
             "(${build_dir} is '${build_type:-unset}'; configure with" \
             "-DCMAKE_BUILD_TYPE=Release)" >&2
        exit 1
    fi
fi

git_sha="$(git -C "${repo_root}" rev-parse HEAD 2>/dev/null || echo unknown)"

if ! "${bin}" --out="${out_json}" --git-sha="${git_sha}" "${@:3}"; then
    rm -f "${out_json}"
    echo "error: recall gate failed; ${out_json} removed" >&2
    exit 1
fi

echo "wrote ${out_json} (git_sha ${git_sha})"
