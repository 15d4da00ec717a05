#!/bin/sh
# Run one googletest binary under a --gtest_filter and fail when the
# filter selects no test. googletest itself exits 0 on an empty
# selection, so a renamed or deleted suite would otherwise turn a
# filtered (e.g. sanitizer) run into a silent pass.
#
# Usage: tests/run_filtered.sh <test-binary> <gtest-filter>
set -eu
if [ "$#" -ne 2 ]; then
    echo "usage: $0 <test-binary> <gtest-filter>" >&2
    exit 2
fi
bin=$1
filter=$2
count=$("$bin" --gtest_list_tests --gtest_filter="$filter" |
    grep -c '^  ' || true)
if [ "$count" -eq 0 ]; then
    echo "run_filtered: '$filter' selects no test in $bin" >&2
    exit 1
fi
echo "run_filtered: '$filter' selects $count test(s) in $bin"
exec "$bin" --gtest_filter="$filter"
