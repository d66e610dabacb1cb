#!/usr/bin/env bash
# Produces BENCH_driver.json: criterion results for the driver and
# datapath benches plus an end-to-end serial-vs-parallel timing of the
# fig12 experiment harness.
#
# Usage: scripts/bench_snapshot.sh [output.json]
#
# The end-to-end section runs `experiments fig12 --quick` twice — once with
# --jobs 1 and once at the machine's available parallelism — and records
# wall-clock for each plus the speedup ratio. On a single-core host the
# ratio is ~1.0 by construction; the snapshot records `cores` so readers
# can interpret it.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_driver.json}
CRIT_JSON=$(mktemp)
DP_JSON=$(mktemp)
trap 'rm -f "$CRIT_JSON" "$DP_JSON"' EXIT

echo "== building release binaries" >&2
cargo build --release -q -p nvhsm-experiments

echo "== running driver criterion bench" >&2
CRITERION_JSON_OUT=$CRIT_JSON cargo bench -q -p nvhsm-bench --bench driver >&2

echo "== running datapath criterion bench" >&2
CRITERION_JSON_OUT=$DP_JSON cargo bench -q -p nvhsm-bench --bench datapath >&2

wall_ms() {
    local start end
    start=$(date +%s%N)
    "$@" > /dev/null
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}

echo "== timing experiments fig12 --quick end to end" >&2
CORES=$(nproc)
SERIAL_MS=$(wall_ms ./target/release/experiments fig12 --quick --jobs 1)
PARALLEL_MS=$(wall_ms ./target/release/experiments fig12 --quick --jobs "$CORES")
echo "   jobs=1: ${SERIAL_MS} ms, jobs=${CORES}: ${PARALLEL_MS} ms" >&2

jq -n \
    --slurpfile crit "$CRIT_JSON" \
    --slurpfile datapath "$DP_JSON" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg rustc "$(rustc --version)" \
    --argjson cores "$CORES" \
    --argjson serial_ms "$SERIAL_MS" \
    --argjson parallel_ms "$PARALLEL_MS" \
    '{
        snapshot: "driver",
        date: $date,
        rustc: $rustc,
        cores: $cores,
        criterion: $crit[0],
        datapath: $datapath[0],
        end_to_end: {
            experiment: "fig12 --quick",
            serial_ms: $serial_ms,
            parallel_ms: $parallel_ms,
            jobs_parallel: $cores,
            speedup: (if $parallel_ms > 0
                      then ($serial_ms / $parallel_ms * 100 | round / 100)
                      else null end)
        },
        notes: [
            "grid_16_jobs_all vs grid_16_jobs1 and the end_to_end speedup scale with `cores`; on a 1-core host both are ~1.0.",
            "single_scenario_quick_8sim_s covers 8 simulated seconds: ns_per_iter / 8000 = ns per simulated millisecond.",
            "event_queue_pop_due_1k and event_queue_drain_due_1k run the calendar queue that ships; the matching *_heap rows run the retired BinaryHeap queue on the identical schedule — the before side of the pair (DESIGN.md section 13).",
            "predict_online_64x8 runs the same 64 probes as predict_uncached_64x8 through OnlineModels with a fitted residual correction installed (base walk + flattened constant-leaf correction walk); the gap between the two rows is the correction walk (DESIGN.md section 16).",
            "bus_slowdown_lut_1k vs bus_slowdown_exact_1k and report_build vs report_build_deepcopy are before/after pairs for the kernel optimizations.",
            "datapath/local_bare matches management/one_virtual_second/BCA+lazy (same workload, seed 7): compare across commits to track the staged-pipeline refactor. local_instrumented adds fault gate + null trace + metrics; remote_mirror adds the stage-3 NIC hops.",
            "placement_scan_1k_sharded vs placement_scan_1k_flat run one arriving-VMDK placement over the same warm 1,000-node (3,000-store) serving fleet through the sharded engine (home shard + summary table) and the flat Manager (full Eq. 4 scan) — the O(shard) vs O(cluster) pair (DESIGN.md section 15). shard_summaries_3k_stores is the summary-table build the spill path pays.",
            "scripts/perf_gate.sh compares fresh medians against scripts/perf_budgets.json (derived from this file); kernel-class benches hard-fail at +25%, wall-class benches warn."
        ]
    }' > "$OUT"

echo "== wrote $OUT" >&2
