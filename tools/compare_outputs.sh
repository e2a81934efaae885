#!/usr/bin/env bash
# Byte-identity check between two build trees of this repository.
#
# Runs every bench_* program except bench_micro_engine (its Google
# Benchmark timings differ from run to run) and every example_*
# program in both trees, with no arguments, and diffs their stdout and
# exit status. Each run also writes its metrics report
# (FCOS_METRICS=<file>); the two reports are diffed without their
# host.* rows, which time the host and differ from run to run, and
# with runs of spaces and the dashed rules collapsed, since a host.*
# row can set a column's width. A program that writes no report in
# either tree counts as the same. A change meant to keep every result
# identical (a refactor, a deletion) should pass it against a build of
# its parent.
#
# Usage: tools/compare_outputs.sh <build-a> <build-b>
#
# Exit status: 0 when every program printed the same bytes, exit
# status and metrics in both trees and none printed MISMATCH; 1
# otherwise; 2 on a usage error. The two trees' copies of one program run side by side,
# so a pass takes about as long as one tree's programs run in series.

set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
    echo "usage: $0 <build-a> <build-b>" >&2
    exit 2
fi
a=$(cd "$1" && pwd)
b=$(cd "$2" && pwd)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

programs=()
for path in "$a"/bench/bench_* "$a"/examples/example_*; do
    name=$(basename "$path")
    [ -x "$path" ] && [ -f "$path" ] || continue
    [ "$name" = bench_micro_engine ] && continue
    programs+=("$name")
done
if [ ${#programs[@]} -eq 0 ]; then
    echo "no bench_* or example_* programs under $a" >&2
    exit 2
fi

# Run one program of one tree in its own scratch directory, so files
# it writes land nowhere else; its stdout ends with its exit status and
# its metrics report goes to $dst.metrics.
run() {
    local bin=$1 dst=$2 dir
    dir=$(mktemp -d "$out/cwd.XXXXXX")
    (cd "$dir" && FCOS_METRICS="$dst.metrics" "$bin" > "$dst" 2> "$dst.err"
     echo "exit $?" >> "$dst")
}

# A metrics report without its host.* rows, spacing or dashed rules.
simulated_metrics() {
    grep -v '^host\.' "$1" | sed -E 's/ +/ /g; s/ $//; /^-+$/d'
}

# Same metrics: neither run wrote a report, or both wrote the same one.
metrics_same() {
    local a=$1 b=$2
    [ -e "$a" ] || [ -e "$b" ] || return 0
    [ -e "$a" ] && [ -e "$b" ] || return 1
    cmp -s <(simulated_metrics "$a") <(simulated_metrics "$b")
}

fail=0
for name in "${programs[@]}"; do
    sub=bench
    [[ $name == example_* ]] && sub=examples
    if [ ! -x "$b/$sub/$name" ]; then
        echo "DIFF  $name: missing from $b" >&2
        fail=1
        continue
    fi
    start=$SECONDS
    run "$a/$sub/$name" "$out/$name.a" &
    run "$b/$sub/$name" "$out/$name.b" &
    wait
    status=same
    if ! cmp -s "$out/$name.a" "$out/$name.b"; then
        status=DIFF
        diff "$out/$name.a" "$out/$name.b" | head -20 >&2
    elif ! metrics_same "$out/$name.a.metrics" "$out/$name.b.metrics"; then
        status=DIFF
        diff <(simulated_metrics "$out/$name.a.metrics" 2>&1) \
            <(simulated_metrics "$out/$name.b.metrics" 2>&1) | head -20 >&2
    elif grep -q MISMATCH "$out/$name.a"; then
        status=MISMATCH
    fi
    [ "$status" = same ] || fail=1
    printf '%-9s %-36s %4ds\n' "$status" "$name" $((SECONDS - start))
done

if [ $fail -ne 0 ]; then
    echo "outputs differ between $a and $b" >&2
    exit 1
fi
echo "all ${#programs[@]} programs print identical output and metrics"
