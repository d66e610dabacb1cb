//! Parallel execution must be invisible in experiment output: any table
//! merged from a scenario grid is byte-identical whether the grid ran on
//! one worker or many.

use nvhsm_device::{IoOp, IoRequest, SsdConfig, SsdDevice, StorageDevice};
use nvhsm_experiments::churn::{self, ChurnIntensity, ChurnParams};
use nvhsm_experiments::obs::{self, ObsOptions};
use nvhsm_experiments::{cache, cluster, crash, drift, faults, fig12, ExperimentResult, Scale};
use nvhsm_obs::to_jsonl;
use nvhsm_sim::{parallel, SimDuration, SimRng, SimTime};
use std::sync::Mutex;

/// The jobs override is process-global; tests that flip it take this lock
/// so each one really exercises the worker count it configures.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at `--jobs 1`, then at `--jobs 4`, holding the jobs lock, and
/// returns both results.
fn at_jobs_1_and_4<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = JOBS_LOCK.lock().unwrap();
    parallel::set_jobs(Some(1));
    let serial = f();
    parallel::set_jobs(Some(4));
    let fanned = f();
    parallel::set_jobs(None);
    (serial, fanned)
}

/// Asserts two runs' rendered table, CSV and serialized form are all
/// byte-identical.
fn assert_same_output(serial: &ExperimentResult, fanned: &ExperimentResult) {
    assert_eq!(serial.render(), fanned.render());
    assert_eq!(serial.to_csv(), fanned.to_csv());
    assert_eq!(
        serde_json::to_string(serial).expect("serializable"),
        serde_json::to_string(fanned).expect("serializable"),
    );
}

/// Runs `run` with tracing and metrics armed and renders every scenario
/// capture — ordering fields, label, JSONL events, metrics snapshot — into
/// one string, exactly as `--trace`/`--metrics` would see them, followed
/// by the string `run` returns.
fn captured_dump(run: impl FnOnce() -> String) -> String {
    obs::set_observation(ObsOptions {
        trace: true,
        metrics: true,
    });
    let tail = run();
    let mut dump = String::new();
    for s in obs::take_observations() {
        dump.push_str(&format!(
            "## grid={} case={} label={} dropped={}\n",
            s.grid, s.case, s.label, s.obs.dropped
        ));
        dump.push_str(&to_jsonl(&s.obs.events));
        if let Some(snap) = &s.obs.metrics {
            dump.push_str(&serde_json::to_string(snap).expect("serializable snapshot"));
            dump.push('\n');
        }
    }
    obs::set_observation(ObsOptions::OFF);
    dump.push_str(&tail);
    dump
}

#[test]
fn fig12_output_is_byte_identical_across_job_counts() {
    let (serial, parallel_run) = at_jobs_1_and_4(|| fig12::run(Scale::Quick));
    assert_same_output(&serial, &parallel_run);
}

#[test]
fn fault_injection_is_byte_identical_across_job_counts() {
    // Fault schedules and retry/abort decisions must derive only from the
    // plan seed, never from worker scheduling: the whole point of the
    // deterministic fault subsystem is that a failure seen at --jobs 4
    // reproduces exactly at --jobs 1.
    let (serial, parallel_run) = at_jobs_1_and_4(|| faults::run(Scale::Quick));
    assert_same_output(&serial, &parallel_run);
}

#[test]
fn crash_experiment_is_byte_identical_across_job_counts() {
    // Node fault schedules, replay ordering and scrub probes must derive
    // only from the plan seed and the simulation clock, never from worker
    // scheduling: a crash/recovery sequence seen at --jobs 4 reproduces
    // exactly at --jobs 1.
    let (serial, parallel_run) = at_jobs_1_and_4(|| crash::run(Scale::Quick));
    assert_same_output(&serial, &parallel_run);
}

#[test]
fn cluster_output_is_byte_identical_across_job_counts() {
    // The interconnect is a pure function of its call sequence, and the
    // call sequence is a pure function of the scenario — so the whole
    // cluster sweep (reports, link stats, per-node latencies) must not see
    // the worker count.
    let (serial, parallel_run) = at_jobs_1_and_4(|| cluster::run(Scale::Quick));
    assert_same_output(&serial, &parallel_run);
}

#[test]
fn cluster_traces_are_byte_identical_across_job_counts() {
    // Cross-node NetTransfer events and NIC metrics must order by
    // (grid, case), never by worker completion.
    let (serial, fanned) =
        at_jobs_1_and_4(|| captured_dump(|| cluster::run(Scale::Quick).to_csv()));
    assert!(!serial.is_empty());
    assert_eq!(serial, fanned);
}

#[test]
fn traces_are_byte_identical_across_job_counts() {
    // The observation layer must not leak worker scheduling: the JSONL
    // trace and metrics dumps for --jobs 1 and --jobs 4 are byte-identical,
    // scenario order included.
    let (serial, fanned) = at_jobs_1_and_4(|| captured_dump(|| fig12::run(Scale::Quick).to_csv()));
    assert!(!serial.is_empty());
    assert_eq!(serial, fanned);
}

#[test]
fn cache_experiment_is_byte_identical_across_job_counts() {
    // The cache and its classifier keep no RNG: hit/miss sequences, sweep
    // bypass verdicts and classifier scores derive only from the request
    // stream and the simulation clock, so the whole sweep table must not
    // see the worker count.
    let (serial, parallel_run) = at_jobs_1_and_4(|| cache::run(Scale::Quick));
    assert_same_output(&serial, &parallel_run);
}

#[test]
fn cache_traces_are_byte_identical_across_job_counts() {
    // CacheHit/CacheMiss/CacheEvict/CacheBypass events and the cache
    // counters must order by (grid, case), never by worker completion.
    let (serial, fanned) = at_jobs_1_and_4(|| captured_dump(|| cache::run(Scale::Quick).to_csv()));
    assert!(!serial.is_empty());
    assert!(
        serial.contains("CacheBypass"),
        "cache trace is missing sweep-bypass events"
    );
    assert_eq!(serial, fanned);
}

#[test]
fn churn_experiment_is_byte_identical_across_job_counts() {
    // Tenant arrival schedules, admission decisions and SLO accounting
    // derive only from per-tenant seeded RNG streams and the epoch clock:
    // a rejection seen at --jobs 4 reproduces exactly at --jobs 1.
    let (serial, parallel_run) = at_jobs_1_and_4(|| churn::run(Scale::Quick));
    assert_same_output(&serial, &parallel_run);
}

#[test]
fn churn_traces_are_byte_identical_across_job_counts() {
    // TenantAdmit/Placement/SloViolation/TenantRetire events and the
    // per-tenant QoS metrics must order by (grid, case), never by worker
    // completion.
    let (serial, fanned) = at_jobs_1_and_4(|| captured_dump(|| churn::run(Scale::Quick).to_csv()));
    assert!(!serial.is_empty());
    assert!(
        serial.contains("TenantAdmit"),
        "churn trace is missing tenant lifecycle events"
    );
    assert_eq!(serial, fanned);
}

/// The datacenter-scale acceptance case: 1,000 nodes (3,000 datastores)
/// under flash-crowd churn, placing well over 10,000 VMDKs.
fn datacenter_churn_dump() -> (String, u64) {
    let mut placed = 0;
    let dump = captured_dump(|| {
        let reports = churn::run_churn_grid(
            vec![ChurnParams {
                nodes: 1000,
                shard_nodes: 5,
                intensity: ChurnIntensity::Flash,
                seed: 9,
                phantom_heat: false,
            }],
            Scale::Quick,
        );
        placed = reports[0].placed_vmdks;
        serde_json::to_string(&reports).expect("serializable")
    });
    (dump, placed)
}

#[test]
fn datacenter_scale_churn_is_byte_identical_across_job_counts() {
    // The tentpole acceptance scenario: a 1,000-node sharded fleet under
    // open-loop flash churn places >10k VMDKs, and the full JSON report,
    // JSONL trace and metrics snapshot are byte-identical at --jobs 1
    // and --jobs 4.
    let ((serial, placed), (fanned, _)) = at_jobs_1_and_4(datacenter_churn_dump);
    assert!(
        placed >= 10_000,
        "datacenter scenario too small: {placed} VMDKs placed"
    );
    assert_eq!(serial, fanned);
}

#[test]
fn drift_experiment_is_byte_identical_across_job_counts() {
    // Online refits must consume no simulation RNG and key only to epoch
    // boundaries: the learned corrections, drift detections and the
    // decisions they steer reproduce exactly regardless of the worker
    // count.
    let (serial, parallel_run) = at_jobs_1_and_4(|| drift::run(Scale::Quick));
    assert_same_output(&serial, &parallel_run);
}

#[test]
fn drift_traces_are_byte_identical_across_job_counts() {
    // ModelRefit/DriftDetected events and the pred_error_us metrics must
    // order by (grid, case), never by worker completion — and the online
    // arms must actually emit them.
    let (serial, fanned) = at_jobs_1_and_4(|| captured_dump(|| drift::run(Scale::Quick).to_csv()));
    assert!(!serial.is_empty());
    assert!(
        serial.contains("ModelRefit"),
        "drift trace is missing model refit events"
    );
    assert!(
        serial.contains("DriftDetected"),
        "drift trace is missing drift detection events"
    );
    assert_eq!(serial, fanned);
}

/// A small but non-trivial device scenario; returns latencies as raw bits
/// so the comparison below tolerates no floating-point slack at all.
fn ssd_scenario(seed: u64) -> Vec<u64> {
    let mut dev = SsdDevice::new(SsdConfig::small_test());
    dev.prefill(0..dev.logical_blocks() / 4);
    let mut rng = SimRng::new(seed);
    let span = dev.logical_blocks() / 4;
    let mut t = SimTime::ZERO;
    (0..500u64)
        .map(|i| {
            let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
            let c = dev.submit(&IoRequest::normal(0, rng.below(span), 2, op, t));
            t += SimDuration::from_us(30);
            c.latency.as_us_f64().to_bits()
        })
        .collect()
}

#[test]
fn random_scenario_grids_match_serial_bit_for_bit() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let mut rng = SimRng::new(0xD5);
    for round in 0..3 {
        let grid_len = 5 + round * 7;
        let seeds: Vec<u64> = (0..grid_len).map(|_| rng.next_u64()).collect();
        parallel::set_jobs(Some(1));
        let serial = parallel::map_grid(seeds.clone(), ssd_scenario);
        parallel::set_jobs(Some(1 + grid_len / 2));
        let fanned = parallel::map_grid(seeds, ssd_scenario);
        parallel::set_jobs(None);
        assert_eq!(serial, fanned, "grid of {grid_len} scenarios diverged");
    }
}
