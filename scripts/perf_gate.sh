#!/usr/bin/env bash
# CI perf-budget gate.
#
# Re-runs the driver and datapath criterion benches and compares each
# bench's median ns/iter against the budgets checked in at
# scripts/perf_budgets.json (derived from the BENCH_driver.json snapshot
# medians). Each bench carries a class:
#
#   kernel  deterministic ns/op kernels: a median above
#           budget_ns * rel_threshold (1.25 = +25%) FAILS the build.
#   wall    wall-clock-shaped benches (grid fan-out, whole scenarios, the
#           ms-per-iter datapath macro benches): advisory on the 1-core
#           CI host — over budget prints a warning, never a failure.
#
# Repeat/warmup semantics: the criterion harness sizes the iterations per
# sample from the median of three untimed one-iteration calls, rounded to
# the 1-2-5 series, then times 10 samples and reports the median, so one
# gate run already discards warmup and repeats >= 5 times per bench.
#
# Usage:
#   scripts/perf_gate.sh                  run the gate
#   scripts/perf_gate.sh --update-budgets rewrite scripts/perf_budgets.json
#                                         from the BENCH_driver.json medians
#                                         (refresh BENCH_driver.json first
#                                         via scripts/bench_snapshot.sh);
#                                         ids already budgeted keep their class
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGETS=scripts/perf_budgets.json

if [[ "${1:-}" == "--update-budgets" ]]; then
    # An id already budgeted keeps its class (placement_scan_1k_flat is a
    # 36 ms whole-fleet scan committed as `wall`); the name pattern only
    # classifies new ids. Written via a temp file: the old budgets are
    # read while the new ones are produced.
    NEW_BUDGETS=$(mktemp)
    jq --slurpfile old "$BUDGETS" '
        ($old[0].budgets | map({(.id): .class}) | add // {}) as $class
        | {
            policy: {
                source: "BENCH_driver.json medians; refresh via scripts/bench_snapshot.sh then scripts/perf_gate.sh --update-budgets",
                rel_threshold: 1.25,
                classes: {
                    kernel: "hard-fail when the measured median exceeds budget_ns * rel_threshold",
                    wall: "advisory warn only: wall-clock / parallelism benches are noise- and core-count-sensitive on the 1-core CI host"
                }
            },
            budgets: ([.criterion.benchmarks[], .datapath.benchmarks[]]
                | map({
                    id,
                    class: ($class[.id]
                            // (if (.id | test("grid_16|single_scenario|^datapath/")) then "wall" else "kernel" end)),
                    budget_ns: (.ns_per_iter | round)
                }))
        }' BENCH_driver.json > "$NEW_BUDGETS"
    mv "$NEW_BUDGETS" "$BUDGETS"
    echo "== wrote $BUDGETS from BENCH_driver.json" >&2
    exit 0
fi

CRIT_JSON=$(mktemp)
DP_JSON=$(mktemp)
trap 'rm -f "$CRIT_JSON" "$DP_JSON"' EXIT

echo "== perf gate: running driver bench" >&2
CRITERION_JSON_OUT=$CRIT_JSON cargo bench -q -p nvhsm-bench --bench driver >&2
echo "== perf gate: running datapath bench" >&2
CRITERION_JSON_OUT=$DP_JSON cargo bench -q -p nvhsm-bench --bench datapath >&2

# One row per budgeted bench: ok / WARN (wall over budget) / FAIL (kernel
# over budget) / MISSING (bench disappeared — also a failure, so a deleted
# bench can't silently retire its budget).
REPORT=$(jq -n --slurpfile a "$CRIT_JSON" --slurpfile b "$DP_JSON" --slurpfile bud "$BUDGETS" '
    ($bud[0].policy.rel_threshold) as $rel
    | ([$a[0].benchmarks[], $b[0].benchmarks[]]
       | map({(.id): .ns_per_iter}) | add) as $m
    | [$bud[0].budgets[]
       | ($m[.id]) as $ns
       | if $ns == null then
             {id, class, status: "MISSING", ns: null, budget_ns, ratio: null}
         else
             {id, class, ns: ($ns | round), budget_ns,
              ratio: (($ns / .budget_ns * 100 | round) / 100),
              status: (if $ns <= .budget_ns * $rel then "ok"
                       elif .class == "kernel" then "FAIL"
                       else "WARN" end)}
         end]')

echo "$REPORT" | jq -r '.[] | [.status, .class, .id, (.ns // "-"), .budget_ns, (.ratio // "-")] | @tsv' \
    | awk -F'\t' 'BEGIN { printf "%-8s %-7s %-50s %14s %14s %7s\n", "status", "class", "bench", "ns/iter", "budget_ns", "ratio" }
                  { printf "%-8s %-7s %-50s %14s %14s %7s\n", $1, $2, $3, $4, $5, $6 }'

# Benches without a budget are called out so new benches get one.
echo "$REPORT" | jq -r --slurpfile a "$CRIT_JSON" --slurpfile b "$DP_JSON" '
    [.[].id] as $known
    | [$a[0].benchmarks[], $b[0].benchmarks[]][]
    | select(.id as $i | $known | index($i) | not)
    | "note: \(.id) has no budget — add one via --update-budgets"' >&2

FAILS=$(echo "$REPORT" | jq '[.[] | select(.status == "FAIL" or .status == "MISSING")] | length')
WARNS=$(echo "$REPORT" | jq '[.[] | select(.status == "WARN")] | length')
[[ "$WARNS" -gt 0 ]] && echo "== perf gate: $WARNS wall-clock bench(es) over budget (advisory)" >&2
if [[ "$FAILS" -gt 0 ]]; then
    echo "== perf gate: FAILED — $FAILS kernel bench(es) regressed past budget_ns * rel_threshold" >&2
    exit 1
fi
echo "== perf gate: OK" >&2
