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

# Before/after rows of past optimizations outlive the code they measured,
# so they are carried over from the previous snapshot unchanged.
HISTORY='[]'
if [[ -f "$OUT" ]]; then
    HISTORY=$(jq '.history // []' "$OUT")
fi

echo "== timing experiments fig12 --quick end to end" >&2
CORES=$(nproc)
SERIAL_MS=$(wall_ms ./target/release/experiments fig12 --quick --jobs 1)
PARALLEL_MS=$(wall_ms ./target/release/experiments fig12 --quick --jobs "$CORES")
echo "   jobs=1: ${SERIAL_MS} ms, jobs=${CORES}: ${PARALLEL_MS} ms" >&2

# The notes are data, one per line of the quoted heredoc (no expansion),
# handed to jq as positional arguments, so any character may appear in
# them.
mapfile -t NOTES <<'NOTES'
grid_16_jobs_all vs grid_16_jobs1 and the end_to_end speedup scale with `cores`; on a 1-core host both are ~1.0.
single_scenario_quick_8sim_s covers 8 simulated seconds: ns_per_iter / 8000 = ns per simulated millisecond.
event_queue_ready_10 runs the NodeSim wake-up shape on the binary-heap event queue that ships: ten pending wake-ups, each re-armed at an exponential 1 ms gap once it drains, 4,096 next_time + drain_due wake-ups per iteration (DESIGN.md section 13).
pretrain_models_40 is one serial pretrain_models(40, 7) call with the jobs override at 1: the quick-scale training that every NodeSim and ServingSim runs in set-up. The process's one-time sequential-read calibration runs before timing starts (DESIGN.md section 13).
ftl_prefill_2gib_90 is the largest fill pretraining does: a fresh PageFtl at FlashConfig::with_capacity_gib(2), the scratch SSD's geometry, prefilled to 90 %; each iteration allocates the tables, lays the range out and drops them (DESIGN.md section 13).
predict_online_64x8 runs the same 64 probes as predict_uncached_64x8 through OnlineModels with a fitted residual correction installed (base walk + flattened constant-leaf correction walk); the gap between the two rows is the correction walk (DESIGN.md section 16).
The before sides of the bus-slowdown LUT and O(1) report-build optimizations (bus_slowdown_exact_1k and report_build_deepcopy), the binary-heap event-queue rows (*_heap) and the 1,024-event rows of the calendar queue (event_queue_pop_due_1k, event_queue_drain_due_1k, event_queue_peek_then_pop_1k) ran code or schedules no simulation runs, so they were retired; their last medians are in history[2] and history[6].
cache_hit_64x8, cache_bypass_64x8, lrfu_miss_4k and lrfu_hit_102k run the LRFU buffer cache: a warm hit with all 64 blocks inside the victim window (full CRF touch and window re-insert), a migrated-class residency probe, a miss that evicts the window minimum and admits, and paper-scale (102,400-block) Zipf hits, over 90 % of accesses, that mostly land outside the window (DESIGN.md sections 13 and 17).
history holds before/after medians of optimizations whose before-side code is gone (so no bench row can run it) and the last medians of retired rows; each entry names its host. bench_snapshot.sh carries it over unchanged.
datapath/local_bare is one virtual second of the three-VMDK bench node (nvhsm_bench::bench_node) under BCA+lazy, seed 7: compare across commits to track the staged pipeline. local_instrumented adds fault gate + null trace + metrics; remote_mirror adds the stage-3 NIC hops.
placement_scan_1k_sharded vs placement_scan_1k_flat run one arriving-VMDK placement over the same warm 1,000-node (3,000-store) serving fleet through the sharded engine (binary-searched home shard; the summary table is built only to spill) and the flat Manager (full Eq. 4 scan) — the O(shard) vs O(cluster) pair (DESIGN.md section 15). shard_summaries_3k_stores is the summary-table build the spill path pays.
metrics_settle_4k is one ServingSim::settle_qos-shaped pass over a registry holding 4,096 tenants' keys: a gauge_set and a counter_add per tenant (DESIGN.md section 10).
scripts/perf_gate.sh compares fresh medians against scripts/perf_budgets.json (derived from this file); kernel-class benches hard-fail at +25%, wall-class benches warn.
NOTES

jq -n \
    --slurpfile crit "$CRIT_JSON" \
    --slurpfile datapath "$DP_JSON" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg rustc "$(rustc --version)" \
    --argjson cores "$CORES" \
    --argjson serial_ms "$SERIAL_MS" \
    --argjson parallel_ms "$PARALLEL_MS" \
    --argjson history "$HISTORY" \
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
        history: $history,
        notes: $ARGS.positional
    }' --args "${NOTES[@]}" > "$OUT"

echo "== wrote $OUT" >&2
