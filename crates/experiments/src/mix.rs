//! Shared node-level experiment driver: the paper's standard mix — the
//! eight HiBench workloads on a node (or cluster) next to a SPEC co-runner
//! — under a chosen management policy.
//!
//! Two scenarios:
//!
//! * **Steady** ([`MixParams::standard`]): all eight run from the start,
//!   the initial drain settles during warm-up, and the measured window
//!   isolates contention-driven management behaviour (Table 2, Fig. 12,
//!   Fig. 17).
//! * **Arrivals** ([`MixParams::with_arrivals`]): five run from the start
//!   and three larger VMDKs *arrive* on the SSD tier mid-window (VMDK
//!   creation is the normal datacenter event Eq. 4 exists for), giving
//!   every policy genuine re-tiering work — which is where the lazy and
//!   architectural optimizations earn their keep (Fig. 13, τ sweep).

use crate::harness::Scale;
use crate::obs::{ObsOptions, ScenarioObs, TRACE_RING_CAPACITY};
use nvhsm_core::{NodeCacheConfig, NodeConfig, NodeReport, NodeSim, PolicyKind, RecoveryPolicy};
use nvhsm_fault::{CrashRate, FaultIntensity, FaultPlan, NodeFaultPlan};
use nvhsm_obs::{drain_ring_stats, shared, MetricsSnapshot, RingSink, TraceEvent};
use nvhsm_sim::SimDuration;
use nvhsm_workload::hibench::all_profiles;
use nvhsm_workload::{SpecProgram, WorkloadProfile};

/// Parameters of one mix run.
#[derive(Debug, Clone, Copy)]
pub struct MixParams {
    /// Management policy.
    pub policy: PolicyKind,
    /// SPEC co-runner (None = no memory interference).
    pub spec: Option<SpecProgram>,
    /// Node count.
    pub nodes: usize,
    /// Imbalance threshold.
    pub tau: f64,
    /// RNG seed.
    pub seed: u64,
    /// Whether three additional VMDKs arrive mid-run (creates genuine
    /// migration work for every policy — used by the migration-cost
    /// experiments). When false, the full set runs from the start and the
    /// warm-up is excluded, isolating contention-driven churn.
    pub arrivals: bool,
    /// Injected fault intensity. `Some(_)` generates a deterministic
    /// [`FaultPlan`] (seeded from `seed`) covering the whole run; `None`
    /// runs fault-free and byte-identical to builds without the fault
    /// subsystem.
    pub fault_intensity: Option<FaultIntensity>,
    /// Whole-node crash/recovery/scrub setup. `Some(_)` generates a
    /// deterministic [`NodeFaultPlan`] (seeded from `seed`) covering the
    /// whole run; `None` disables node crashes and the scrubber
    /// byte-identically to builds without them.
    pub crash: Option<CrashSetup>,
    /// Nodes per placement shard (`0` = the unsharded manager; `>= nodes`
    /// = one shard, byte-identical to unsharded — the differential-oracle
    /// configuration).
    pub shard_nodes: usize,
    /// Each NVDIMM's buffer cache ([`NodeConfig::cache`]); `None` keeps the
    /// default device cache.
    pub cache: Option<NodeCacheConfig>,
}

/// Node-crash, recovery-policy and scrubber knobs of one mix run.
#[derive(Debug, Clone, Copy)]
pub struct CrashSetup {
    /// Whole-node power-loss rate.
    pub rate: CrashRate,
    /// What journal replay does with suspended migrations.
    pub recovery: RecoveryPolicy,
    /// Background scrub rate, blocks per second (0 = scrubber off).
    pub scrub_rate: u64,
    /// Mean gap between latent block faults, ms (`None` = no latents).
    pub latent_gap_ms: Option<u64>,
}

impl MixParams {
    /// Single node with 429.mcf under `policy`, the paper's default setup;
    /// steady (no arrivals).
    pub fn standard(policy: PolicyKind) -> Self {
        MixParams {
            policy,
            spec: Some(SpecProgram::Mcf429),
            nodes: 1,
            tau: 0.5,
            seed: 42,
            arrivals: false,
            fault_intensity: None,
            crash: None,
            shard_nodes: 0,
            cache: None,
        }
    }

    /// The arrival scenario used by the migration-cost experiments
    /// (Fig. 13/17): three VMDKs arrive during the measured window.
    pub fn with_arrivals(policy: PolicyKind) -> Self {
        MixParams {
            arrivals: true,
            ..Self::standard(policy)
        }
    }
}

/// Headline metrics averaged over seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct MixSummary {
    /// Mean workload latency, µs.
    pub mean_latency_us: f64,
    /// Migration copy-activity time, seconds.
    pub migration_busy_s: f64,
    /// Migration wall time, seconds.
    pub migration_wall_s: f64,
    /// Migrations started.
    pub migrations_started: f64,
    /// Blocks moved by background copying.
    pub copied_blocks: f64,
    /// Blocks that arrived at destinations via mirrored writes.
    pub mirrored_blocks: f64,
}

/// The mix profiles: scaled down with pronounced MapReduce-stage
/// intensity phases. `scale_div` sets the working-set scaling.
pub(crate) fn mix_profiles(scale_div: u64, phase_amplitude: f64) -> Vec<WorkloadProfile> {
    all_profiles()
        .into_iter()
        .enumerate()
        .map(|(i, profile)| {
            let blocks = profile.working_set_blocks / scale_div;
            let mut p = profile.with_working_set(blocks);
            p.phase_amplitude = phase_amplitude;
            p.phase_period_s = 2.0 + 0.7 * (i % 5) as f64;
            p
        })
        .collect()
}

/// What one observed mix run captured alongside its report.
#[derive(Debug, Clone, Default)]
pub struct MixObservation {
    /// Trace events, simulation order (a suffix when `dropped > 0`).
    pub events: Vec<TraceEvent>,
    /// Final metrics registry state, when metrics capture was on.
    pub metrics: Option<MetricsSnapshot>,
    /// Events evicted from the capture ring.
    pub dropped: u64,
}

/// Runs the eight-benchmark mix and returns the full report.
pub fn run_mix(params: MixParams, scale: Scale) -> NodeReport {
    run_mix_observed(params, scale, ObsOptions::OFF).0
}

/// Runs the eight-benchmark mix with optional trace/metrics capture.
///
/// With `ObsOptions::OFF` this is exactly [`run_mix`]: no sink is ever
/// attached and the simulation takes its byte-identical no-observation path.
pub fn run_mix_observed(
    params: MixParams,
    scale: Scale,
    opts: ObsOptions,
) -> (NodeReport, MixObservation) {
    let mut cfg = NodeConfig::small();
    cfg.policy = params.policy;
    cfg.tau = params.tau;
    cfg.spec = params.spec;
    cfg.shard_nodes = params.shard_nodes;
    cfg.cache = params.cache;
    cfg.train_requests = scale.train_requests();
    if let Some(intensity) = params.fault_intensity {
        // The plan must span warm-up *and* the measured window: schedules
        // are in absolute simulation time.
        let plan_horizon = SimDuration::from_secs(12 * scale.horizon_secs());
        cfg.faults = Some(FaultPlan::generate(
            params.seed,
            params.nodes * 3,
            plan_horizon,
            intensity,
        ));
    }
    if let Some(crash) = params.crash {
        let plan_horizon = SimDuration::from_secs(12 * scale.horizon_secs());
        cfg.node_faults = Some(NodeFaultPlan::generate(
            params.seed,
            params.nodes,
            plan_horizon,
            crash.rate,
            crash.latent_gap_ms.map(SimDuration::from_ms),
        ));
        cfg.recovery = crash.recovery;
        cfg.scrub_rate = crash.scrub_rate;
    }
    let mut sim = NodeSim::with_nodes(cfg, params.nodes, params.seed);

    let sink = if opts.trace {
        Some(shared(RingSink::new(TRACE_RING_CAPACITY)))
    } else {
        None
    };
    if let Some(s) = &sink {
        sim.set_trace_sink(Some(s.clone()));
    }
    if opts.metrics {
        sim.enable_metrics();
    }

    let drain_limit = SimDuration::from_secs(6 * scale.horizon_secs());
    let report = if params.arrivals {
        // Migration-work scenario: five workloads run from the start and
        // drain to equilibrium; three larger ones then arrive on the SSD
        // tier (a natural but suboptimal landing spot), so every policy has
        // genuine re-tiering work whose cost the lazy/architectural
        // techniques cheapen.
        let profiles = mix_profiles(16, 0.85);
        let (initial, arrivals) = profiles.split_at(5);
        for p in initial {
            sim.add_workload(p.clone());
        }
        sim.run_until_quiet(drain_limit);
        sim.reset_metrics();
        // Arrivals land early; the long tail is where a good re-tiering
        // decision amortizes (the paper's migrations cost minutes and pay
        // off over hours — the same ratio must hold here).
        let window = SimDuration::from_secs(3 * scale.horizon_secs());
        let early = SimDuration::from_ms(800);
        sim.run(early);
        for (i, p) in arrivals.iter().enumerate() {
            let mut p = p.clone();
            p.working_set_blocks *= 4;
            let ssd_ds = (i % params.nodes) * 3 + 1;
            sim.add_workload_on(p, ssd_ds)
                .expect("mix VMDK fits the SSD");
            sim.run(early);
        }
        let consumed = early * (arrivals.len() as u64 + 1);
        sim.run(window - consumed)
    } else {
        // Steady scenario: all eight from the start; the warm-up runs
        // until the initial drain completes (the paper's multi-hour
        // warm-up), so the measured window isolates the contention-driven
        // management behaviour. Stationary intensity (no phases) so that
        // the only churn driver is the interference.
        for p in mix_profiles(16, 0.0) {
            sim.add_workload(p);
        }
        sim.run_until_quiet(drain_limit);
        sim.reset_metrics();
        sim.run_secs(2 * scale.horizon_secs())
    };

    let (events, dropped) = match &sink {
        Some(s) => drain_ring_stats(s),
        None => (Vec::new(), 0),
    };
    let metrics = sim.take_metrics().map(|m| m.snapshot());
    (
        report,
        MixObservation {
            events,
            metrics,
            dropped,
        },
    )
}

/// Runs many mix configurations as one scenario grid, in parallel, and
/// returns the reports in input order (see `nvhsm_sim::parallel`).
///
/// When the CLI has armed observation (see [`crate::obs`]), every case also
/// captures its own trace/metrics; captures are recorded against this
/// grid's serial and the case's input position, so the collected order is
/// independent of the worker count.
pub fn run_mix_grid(cases: Vec<MixParams>, scale: Scale) -> Vec<NodeReport> {
    let opts = crate::obs::options();
    if !opts.enabled() {
        return nvhsm_sim::parallel::map_grid(cases, move |p| run_mix(p, scale));
    }
    let grid = crate::obs::next_grid();
    let indexed: Vec<(usize, MixParams)> = cases.into_iter().enumerate().collect();
    let observed = nvhsm_sim::parallel::map_grid(indexed, move |(case, p)| {
        let (report, obs) = run_mix_observed(p, scale, opts);
        crate::obs::record(ScenarioObs {
            grid,
            case: case as u64,
            label: format!("{p:?}"),
            events: obs.events,
            metrics: obs.metrics,
            dropped: obs.dropped,
        });
        report
    });
    observed
}

/// Runs every case over every seed — one flat cases × seeds grid across
/// all cores — and averages the headline metrics per case, in case order.
pub fn run_mix_avg_grid(cases: Vec<MixParams>, scale: Scale, seeds: &[u64]) -> Vec<MixSummary> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let flat: Vec<MixParams> = cases
        .iter()
        .flat_map(|&case| {
            seeds.iter().map(move |&seed| {
                let mut p = case;
                p.seed = seed;
                p
            })
        })
        .collect();
    let reports = run_mix_grid(flat, scale);
    reports
        .chunks(seeds.len())
        .map(|chunk| {
            let mut acc = MixSummary::default();
            for r in chunk {
                acc.mean_latency_us += r.mean_latency_us;
                acc.migration_busy_s += r.migration_time.as_secs_f64();
                acc.migration_wall_s += r.migration_wall_time.as_secs_f64();
                acc.migrations_started += r.migrations_started as f64;
                acc.copied_blocks += r.copied_blocks as f64;
                acc.mirrored_blocks += r.mirrored_blocks as f64;
            }
            let n = chunk.len() as f64;
            MixSummary {
                mean_latency_us: acc.mean_latency_us / n,
                migration_busy_s: acc.migration_busy_s / n,
                migration_wall_s: acc.migration_wall_s / n,
                migrations_started: acc.migrations_started / n,
                copied_blocks: acc.copied_blocks / n,
                mirrored_blocks: acc.mirrored_blocks / n,
            }
        })
        .collect()
}

/// Runs the mix over several seeds and averages the headline metrics.
pub fn run_mix_avg(params: MixParams, scale: Scale, seeds: &[u64]) -> MixSummary {
    run_mix_avg_grid(vec![params], scale, seeds)
        .pop()
        .expect("one case in, one summary out")
}

/// The seed set for averaged runs at a given scale.
pub fn seeds_for(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![42, 1042],
        Scale::Full => vec![42, 1042, 2042, 3042],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_mix_runs_all_policies() {
        for policy in [PolicyKind::Basil, PolicyKind::BcaLazyArch] {
            let report = run_mix(MixParams::standard(policy), Scale::Quick);
            assert!(report.io_count > 1000, "{policy:?}: {}", report.io_count);
        }
    }

    #[test]
    fn averaging_reduces_to_single_run_for_one_seed() {
        let s = run_mix_avg(MixParams::standard(PolicyKind::Pesto), Scale::Quick, &[7]);
        assert!(s.mean_latency_us > 0.0);
    }
}
