//! `churn` — datacenter-scale multi-tenant serving: cluster size × shard
//! size × churn intensity.
//!
//! Not a paper artifact by number: the paper manages one rack (§6); this
//! sweep asks what its Eq. 4/5 management layer costs when the fleet grows
//! to hundreds of nodes under open-loop tenant churn — the serving-plane
//! question from the roadmap. Tenants arrive on a seeded open-loop
//! schedule ([`nvhsm_workload::tenant`]), each placing a handful of VMDKs
//! through real Eq. 4 admission (sharded or not), live for an exponential
//! lifetime while per-epoch SLO accounting runs, and depart releasing
//! their blocks. The [`ServingSim`] control plane keeps the policy brain
//! bit-exact while replacing the per-request data path with an analytic
//! latency model, which is what makes hundreds of nodes tractable.
//!
//! Shows: admission control refusing over-quota tenants with typed
//! errors, home-shard placement spilling under flash crowds, and SLO
//! violation epochs as a function of churn intensity — all byte-identical
//! across `--jobs` counts.

use crate::harness::{ExperimentResult, Row, Scale};
use crate::obs::{self, Capture, ObsOptions, Observation};
use nvhsm_core::{ServingConfig, ServingReport, ServingSim};
use nvhsm_workload::tenant::{self, ChurnAction, ChurnConfig};

/// Churn intensity presets (which [`ChurnConfig`] constructor drives the
/// arrival process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnIntensity {
    /// Steady Poisson arrivals.
    Calm,
    /// Diurnal load swings with noisy-neighbour tenants.
    Diurnal,
    /// Flash crowds: synchronized arrival bursts.
    Flash,
}

impl std::fmt::Display for ChurnIntensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnIntensity::Calm => write!(f, "calm"),
            ChurnIntensity::Diurnal => write!(f, "diurnal"),
            ChurnIntensity::Flash => write!(f, "flash"),
        }
    }
}

/// Parameters of one churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Fleet size, nodes.
    pub nodes: usize,
    /// Nodes per placement shard (`0` = unsharded).
    pub shard_nodes: usize,
    /// Arrival-process preset.
    pub intensity: ChurnIntensity,
    /// Schedule seed.
    pub seed: u64,
    /// Forward a hot/cold heat observation naming only a VMDK id the
    /// fleet never allocates before every epoch. Heat for non-candidates
    /// must be inert — the differential-oracle configuration for the
    /// [`nvhsm_core::PolicyEngine::observe_heat`] seam.
    pub phantom_heat: bool,
}

impl ChurnParams {
    /// A small sharded fleet under calm churn.
    pub fn standard() -> Self {
        ChurnParams {
            nodes: 8,
            shard_nodes: 2,
            intensity: ChurnIntensity::Calm,
            seed: 42,
            phantom_heat: false,
        }
    }

    fn churn_config(&self, scale: Scale) -> ChurnConfig {
        let mut cfg = match self.intensity {
            ChurnIntensity::Calm => ChurnConfig::calm(self.nodes, self.seed),
            ChurnIntensity::Diurnal => ChurnConfig::diurnal(self.nodes, self.seed),
            ChurnIntensity::Flash => ChurnConfig::flash(self.nodes, self.seed),
        };
        // Scale the open-loop schedule with the fleet: a fixed arrival
        // rate would leave a large fleet idle.
        cfg.arrivals_per_hour *= (self.nodes as f64 / 4.0).max(1.0);
        if scale == Scale::Quick {
            cfg.hours *= 0.5;
        }
        cfg
    }
}

/// Runs one churn case: generate the open-loop schedule, then interleave
/// admissions/retirements with management epochs in timestamp order.
pub fn run_churn(params: ChurnParams, scale: Scale) -> ServingReport {
    run_churn_observed(params, scale, ObsOptions::OFF).0
}

/// Runs one churn case with optional trace/metrics capture.
pub fn run_churn_observed(
    params: ChurnParams,
    scale: Scale,
    opts: ObsOptions,
) -> (ServingReport, Observation) {
    let churn = params.churn_config(scale);
    let schedule = tenant::generate(&churn);

    let mut cfg = ServingConfig::small(params.nodes);
    cfg.shard_nodes = params.shard_nodes;
    cfg.train_requests = scale.train_requests().min(40);
    cfg.seed = params.seed;
    let mut sim = ServingSim::new(cfg);
    let capture = Capture::new(opts);
    if let Some(sink) = capture.sink() {
        sim.set_trace_sink(sink.clone());
    }

    let horizon_s = churn.hours * 3600.0;
    let epoch_s = 60.0;
    let mut next = schedule.into_iter().peekable();
    let mut epoch_end = epoch_s;
    while epoch_end <= horizon_s + epoch_s {
        while next.peek().is_some_and(|e| e.at_s <= epoch_end) {
            let ev = next.next().expect("peeked");
            sim.set_now_s(ev.at_s);
            match ev.action {
                // Rejections are the point of admission control: typed,
                // counted in the report, never fatal.
                ChurnAction::Admit(spec) => drop(sim.admit_tenant(&spec)),
                ChurnAction::Retire(tenant) => drop(sim.retire_tenant(tenant)),
            }
        }
        if params.phantom_heat {
            sim.observe_heat(&[nvhsm_core::VmdkId(u32::MAX)]);
        }
        sim.run_epoch();
        epoch_end += epoch_s;
    }

    (sim.report(), capture.finish(Some(sim.metrics())))
}

/// Runs many churn cases as one scenario grid, in parallel, in input
/// order; byte-identical output for any `--jobs` (see [`crate::obs`]).
pub fn run_churn_grid(cases: Vec<ChurnParams>, scale: Scale) -> Vec<ServingReport> {
    obs::map_grid(cases, obs::debug_label, |p, opts| {
        run_churn_observed(p, scale, opts)
    })
}

/// (nodes, shard size) grid: unsharded small control, same fleet sharded,
/// then a fleet the unsharded scan could not sustain.
const FLEETS: [(usize, usize); 3] = [(8, 0), (8, 2), (48, 6)];
const INTENSITIES: [ChurnIntensity; 2] = [ChurnIntensity::Calm, ChurnIntensity::Flash];

/// Sweeps cluster size × shard size × churn intensity.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "churn",
        "Multi-tenant serving under open-loop tenant churn",
        vec![
            "admitted".into(),
            "retired".into(),
            "rej_quota".into(),
            "rej_cap".into(),
            "spills".into(),
            "migs".into(),
            "slo_viol".into(),
            "worst_p99_ms".into(),
        ],
    );
    let mut labels = Vec::new();
    let mut cases = Vec::new();
    for (nodes, shard_nodes) in FLEETS {
        for intensity in INTENSITIES {
            let shard = if shard_nodes == 0 {
                "flat".to_string()
            } else {
                format!("s{shard_nodes}")
            };
            labels.push(format!("n{nodes}_{shard}_{intensity}"));
            cases.push(ChurnParams {
                nodes,
                shard_nodes,
                intensity,
                ..ChurnParams::standard()
            });
        }
    }
    let reports = run_churn_grid(cases, scale);
    for (label, r) in labels.into_iter().zip(&reports) {
        result.push_row(Row::new(
            label,
            vec![
                r.admitted as f64,
                r.retired as f64,
                r.rejected_quota as f64,
                r.rejected_capacity as f64,
                r.spill_placements as f64,
                r.migrations as f64,
                r.slo_violation_epochs as f64,
                r.worst_p99_us / 1000.0,
            ],
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_churn_admits_and_retires_tenants() {
        let r = run_churn(ChurnParams::standard(), Scale::Quick);
        assert!(r.admitted > 0, "no tenants admitted: {r:?}");
        assert!(r.retired > 0, "no tenants retired: {r:?}");
        assert!(r.epochs > 0);
    }

    #[test]
    fn one_shard_fleet_matches_unsharded_byte_for_byte() {
        let flat = ChurnParams {
            shard_nodes: 0,
            ..ChurnParams::standard()
        };
        let one = ChurnParams {
            shard_nodes: flat.nodes,
            ..flat
        };
        let a = serde_json::to_string(&run_churn(flat, Scale::Quick)).unwrap();
        let b = serde_json::to_string(&run_churn(one, Scale::Quick)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn flash_crowds_stress_admission_harder_than_calm() {
        let calm = run_churn(ChurnParams::standard(), Scale::Quick);
        let flash = run_churn(
            ChurnParams {
                intensity: ChurnIntensity::Flash,
                ..ChurnParams::standard()
            },
            Scale::Quick,
        );
        // Flash arrival bursts admit at least as many tenants and push
        // the tail at least as hard (strict inequality would be fragile
        // at Quick scale).
        assert!(flash.admitted >= calm.admitted);
        assert!(flash.worst_p99_us >= calm.worst_p99_us * 0.5);
    }
}
