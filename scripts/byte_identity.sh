#!/usr/bin/env bash
# Compares two revisions' observable output byte for byte: every
# experiment at `--quick` with `--json`, `--metrics` and `--trace`, at
# `--jobs 1` and `--jobs 4`, plus perfbench's report digests.
#
# Usage: scripts/byte_identity.sh <base-rev> [<head-rev>]   (head: HEAD)
#
# Each revision is exported with `git archive` into a throwaway directory
# under ${TMPDIR:-/tmp} (removed on exit; set KEEP=1 to keep it) and built
# there, so the checkout and its .git are left untouched. Commit the
# change first: uncommitted edits are not part of any revision.
#
# Output: `diff -r` of the two sides' outputs (stderr's `wrote <path>`
# lines are dropped, since the paths differ): the files that differ, then
# the first DIFF_LINES (default 200) lines of the diff, with the whole
# diff kept in the work directory under KEEP=1. Then the perfbench
# `--seed 101 --trace 0` report digest of each workload on both sides.
# Exit status 1 when any output or digest differs. A tool for refactors
# that claim byte-identity, not a CI gate: a change that moves numbers on
# purpose fails it by design.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
BASE=$(git rev-parse --verify "$1^{commit}")
HEAD_REV=$(git rev-parse --verify "${2:-HEAD}^{commit}")
WORKLOADS=(mix_steady mix_arrivals serving_churn)

WORK=$(mktemp -d "${TMPDIR:-/tmp}/byte_identity.XXXXXX")
if [ -z "${KEEP:-}" ]; then
    trap 'rm -rf "$WORK"' EXIT
else
    echo "== keeping $WORK" >&2
fi

# build_and_run <side> <rev>: exports <rev>, builds the experiments CLI and
# perfbench into one target dir, and writes every output under
# $WORK/<side>/out.
build_and_run() {
    local side=$1 rev=$2
    local src="$WORK/$side/src" out="$WORK/$side/out"
    mkdir -p "$src" "$out"
    git archive "$rev" | tar -x -C "$src"
    export CARGO_TARGET_DIR="$WORK/$side/target"
    echo "== $side ($rev): building" >&2
    (cd "$src" && cargo build -q --release -p nvhsm-experiments)
    (cd "$src" && cargo build -q --release --manifest-path perfbench/Cargo.toml)
    for jobs in 1 4; do
        local dir="$out/jobs$jobs"
        mkdir -p "$dir/json"
        echo "== $side: all --quick --jobs $jobs" >&2
        "$CARGO_TARGET_DIR/release/experiments" all --quick --jobs "$jobs" \
            --json "$dir/json" --metrics --trace "$dir/trace.jsonl" \
            >"$dir/stdout" 2>"$dir/stderr.raw"
        grep -v '^wrote ' "$dir/stderr.raw" >"$dir/stderr" || true
        rm "$dir/stderr.raw"
    done
    for w in "${WORKLOADS[@]}"; do
        echo "== $side: perfbench $w" >&2
        # The digest covers the first five repetitions, so one second of
        # measuring (at least five repetitions) is enough. The attempt
        # count depends on host speed, so only the digest and the failed
        # count are kept.
        local summary
        summary=$(cd "$src" && "$CARGO_TARGET_DIR/release/perfbench" --workload "$w" \
            --seed 101 --seconds 1 --trace 0 2>&1 >/dev/null || true)
        printf 'digest %s, %s failed\n' \
            "$(grep -o 'report digest [0-9a-f]*' <<<"$summary" | awk '{print $3}')" \
            "$(grep -o '[0-9]* of [0-9]* attempts failed' <<<"$summary" | awk '{print $1}')" \
            >"$WORK/$side/digest.$w"
    done
}

build_and_run base "$BASE"
build_and_run head "$HEAD_REV"

status=0
echo "== diff -r base head" >&2
if diff -r "$WORK/base/out" "$WORK/head/out" >"$WORK/diff.txt"; then
    echo "outputs: identical"
else
    status=1
    diff -rq "$WORK/base/out" "$WORK/head/out" | sed "s|$WORK/||g" || true
    echo "-- first ${DIFF_LINES:-200} lines of the diff:"
    head -n "${DIFF_LINES:-200}" "$WORK/diff.txt"
fi
for w in "${WORKLOADS[@]}"; do
    b=$(cat "$WORK/base/digest.$w")
    h=$(cat "$WORK/head/digest.$w")
    echo "perfbench $w: base {$b} head {$h}"
    [ "$b" = "$h" ] && [ "${b#digest ,}" = "$b" ] || status=1
done
exit "$status"
