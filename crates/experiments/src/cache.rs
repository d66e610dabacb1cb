//! `cache` — the NVDIMM's buffer cache under migration sweeps and scan
//! pollution: cache size × migration policy × sweep-bypass on/off through
//! the full engine ([`nvhsm_core::NodeCacheConfig`] sizing each node's
//! device cache, where `fig15` drives a bare device), plus a
//! classifier-admission panel.
//!
//! **Sweep panel.** A zipf-hot workload runs against its node's NVDIMM
//! while a large cold VMDK is forcibly migrated off the same NVDIMM. With
//! the sweep bypass off, every swept block passes through the device's
//! cache: ~131k one-shot admissions flatten the working set and the epoch
//! hit ratio collapses (Fig. 15's effect, reproduced through the real
//! datapath). With the bypass on, sweep reads never touch cache contents
//! and the hit ratio holds. The CI test pins the paper-scale contrast:
//! bypass-on ≥ 2× bypass-off during the active sweep.
//!
//! **Scan panel.** No migration — instead a uniform scanner pollutes the
//! cache from the foreground at an IOPS rate the hot/cold classifier can
//! tell apart from the hot workload. With `classified_admission` on, the
//! scanner's cold verdict puts the no-admit hint on its reads, keeping
//! them out of the cache (hit-no-promote, never admitted) and cutting
//! eviction churn.

use crate::harness::{ExperimentResult, Row, Scale};
use crate::obs::{self, Capture, ObsOptions, Observation};
use nvhsm_core::{
    DatastoreId, MigrationDecision, MigrationMode, NodeCacheConfig, NodeConfig, NodeSim, PolicyKind,
};
use nvhsm_sim::SimDuration;
use nvhsm_workload::WorkloadProfile;

/// The cache-resident foreground workload: small zipf-hot working set,
/// read-mostly, phase-free (the hit ratio should move only when something
/// evicts it).
fn hot_profile(working_set: u64) -> WorkloadProfile {
    WorkloadProfile {
        name: "hot".into(),
        wr_ratio: 0.1,
        rd_rand: 1.0,
        wr_rand: 1.0,
        mean_size_blocks: 1.0,
        max_size_blocks: 1,
        iops: 2_000.0,
        working_set_blocks: working_set,
        zipf_theta: 0.9,
        phase_period_s: 0.0,
        phase_amplitude: 0.0,
    }
}

/// A big, nearly idle VMDK sharing the NVDIMM — the sweep panel's
/// migration victim. Large relative to every swept cache size, so a
/// non-bypassed sweep is guaranteed to flush the working set.
const COLD_BLOCKS: u64 = 131_072; // 512 MB

fn cold_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "cold".into(),
        iops: 2.0,
        working_set_blocks: COLD_BLOCKS,
        zipf_theta: 0.0,
        phase_period_s: 0.0,
        phase_amplitude: 0.0,
        ..hot_profile(COLD_BLOCKS)
    }
}

/// A uniform reader over a large extent at a rate the classifier scores
/// below its hot threshold — the scan panel's polluter.
fn scan_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "scan".into(),
        wr_ratio: 0.0,
        iops: 600.0,
        working_set_blocks: COLD_BLOCKS,
        zipf_theta: 0.0,
        ..hot_profile(COLD_BLOCKS)
    }
}

/// What one engine run measured.
struct CaseOutcome {
    /// Mean epoch hit ratio over the epochs the migration sweep (or scan
    /// window) was active.
    active_hit_ratio: f64,
    /// Mean epoch hit ratio over the whole measured window.
    window_hit_ratio: f64,
    /// Cache evictions in the measured window.
    evictions: f64,
    /// Mean workload latency, µs.
    mean_latency_us: f64,
}

impl CaseOutcome {
    fn values(&self) -> Vec<f64> {
        vec![
            self.active_hit_ratio,
            self.window_hit_ratio,
            self.evictions,
            self.mean_latency_us,
        ]
    }
}

/// Runs the sweep scenario: warm the hot working set, reset the window,
/// force the cold VMDK off the NVDIMM, and measure the epoch hit-ratio
/// series while the sweep runs.
fn sweep_case(
    capacity: usize,
    policy: PolicyKind,
    bypass: bool,
    scale: Scale,
    opts: ObsOptions,
) -> (CaseOutcome, Observation) {
    let mut cfg = NodeConfig::small();
    cfg.policy = policy;
    cfg.train_requests = scale.train_requests();
    cfg.cache = Some(NodeCacheConfig {
        capacity_blocks: capacity,
        sweep_bypass: bypass,
        ..NodeCacheConfig::paper_scale()
    });
    let epoch = cfg.epoch;
    let mut sim = NodeSim::new(cfg, 42);
    let capture = Capture::new(opts);
    capture.attach(&mut sim);
    // The eviction count reads the registry whether or not it is kept.
    sim.enable_metrics();
    let hot = sim
        .add_workload_on(hot_profile(3_000), 0)
        .expect("hot working set fits the NVDIMM");
    let _ = hot;
    let cold = sim
        .add_workload_on(cold_profile(), 0)
        .expect("cold VMDK fits the NVDIMM");
    sim.run(SimDuration::from_secs(2)); // warm the cache
    sim.reset_metrics();
    // Force the sweep into the measured window: the cold VMDK leaves the
    // NVDIMM for the HDD under the policy's own migration mode.
    let mode = match policy {
        PolicyKind::LightSrm => MigrationMode::Mirror,
        PolicyKind::BcaLazy | PolicyKind::BcaLazyArch => MigrationMode::Lazy,
        _ => MigrationMode::FullCopy,
    };
    sim.start_migration(MigrationDecision {
        vmdk: cold,
        src: DatastoreId(0),
        dst: DatastoreId(2),
        mode,
    });
    let report = sim.run_secs(scale.horizon_secs());
    let series: Vec<f64> = report.nvdimm_hit_ratio.iter().map(|&(_, r)| r).collect();
    // The sweep-active epochs are the leading ones: the migration started
    // at the window's first instant and ran `migration_wall_time`.
    let active_epochs = report.migration_wall_time.as_ns().div_ceil(epoch.as_ns()) as usize;
    let active = &series[..active_epochs.clamp(1, series.len())];
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let metrics = sim.metrics().expect("metrics were enabled");
    let outcome = CaseOutcome {
        active_hit_ratio: mean(active),
        window_hit_ratio: mean(&series),
        evictions: metrics.counter("cache_evictions", "NVDIMM", 0) as f64,
        mean_latency_us: report.mean_latency_us,
    };
    (outcome, capture.finish(Some(metrics)))
}

/// Runs the scan scenario: the hot workload next to a uniform scanner,
/// with classifier-driven admission on or off.
fn scan_case(classified: bool, scale: Scale, opts: ObsOptions) -> (CaseOutcome, Observation) {
    let mut cfg = NodeConfig::small();
    cfg.policy = PolicyKind::BcaLazyArch;
    cfg.train_requests = scale.train_requests();
    cfg.cache = Some(NodeCacheConfig {
        capacity_blocks: 4_096,
        classified_admission: classified,
        // Between the scanner's decayed-score equilibrium (600 IOPS ·
        // 0.2 s / (1 − 0.5) = 240) and the hot workload's (2000 · 0.2 /
        // 0.5 = 800): the hot workload classifies hot, the scanner cold.
        classifier_hot_threshold: 500.0,
        ..NodeCacheConfig::paper_scale()
    });
    let mut sim = NodeSim::new(cfg, 42);
    let capture = Capture::new(opts);
    capture.attach(&mut sim);
    sim.enable_metrics();
    sim.add_workload_on(hot_profile(4_000), 0)
        .expect("hot working set fits the NVDIMM");
    sim.add_workload_on(scan_profile(), 0)
        .expect("scan extent fits the NVDIMM");
    sim.run(SimDuration::from_secs(2)); // warm + give the classifier epochs
    sim.reset_metrics();
    let report = sim.run_secs(scale.horizon_secs());
    let series: Vec<f64> = report.nvdimm_hit_ratio.iter().map(|&(_, r)| r).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let metrics = sim.metrics().expect("metrics were enabled");
    let outcome = CaseOutcome {
        active_hit_ratio: mean(&series),
        window_hit_ratio: mean(&series),
        evictions: metrics.counter("cache_evictions", "NVDIMM", 0) as f64,
        mean_latency_us: report.mean_latency_us,
    };
    (outcome, capture.finish(Some(metrics)))
}

/// Runs the sweep and scan panels.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "cache",
        "NVDIMM buffer cache under migration sweeps and scans",
        vec![
            "active_hit_ratio".into(),
            "window_hit_ratio".into(),
            "evictions".into(),
            "mean_latency_us".into(),
        ],
    );
    // Sweep panel: cache size × migration policy × bypass on/off.
    let sizes = [("paper", 102_400usize), ("small", 4_096)];
    let policies = [
        ("bca", PolicyKind::Bca),
        ("lazyarch", PolicyKind::BcaLazyArch),
    ];
    let mut grid = Vec::new();
    for &(size_label, capacity) in &sizes {
        for &(policy_label, policy) in &policies {
            for bypass in [true, false] {
                let suffix = if bypass { "bypass" } else { "plain" };
                grid.push((
                    format!("{size_label}_{policy_label}_{suffix}"),
                    capacity,
                    policy,
                    bypass,
                ));
            }
        }
    }
    let sweep_rows = obs::map_grid(
        grid,
        |(label, ..)| label.clone(),
        |(label, capacity, policy, bypass), opts| {
            let (outcome, obs) = sweep_case(capacity, policy, bypass, scale, opts);
            ((label, outcome), obs)
        },
    );
    for (label, outcome) in &sweep_rows {
        result.push_row(Row::new(label.clone(), outcome.values()));
    }
    let sweep_ratio = |label: &str| -> f64 {
        sweep_rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, o)| o.active_hit_ratio)
            .unwrap_or(0.0)
    };
    result.note(format!(
        "paper-scale sweep (bca): hit ratio {:.2} with the structural bypass vs {:.2} without — the working-set eviction collapse and its fix, through the full engine",
        sweep_ratio("paper_bca_bypass"),
        sweep_ratio("paper_bca_plain"),
    ));

    // Scan panel: classifier-driven admission against foreground pollution.
    let scan_rows = obs::map_grid(
        vec![("scan_plain", false), ("scan_classified", true)],
        |(label, _)| label.to_string(),
        |(label, classified), opts| {
            let (outcome, obs) = scan_case(classified, scale, opts);
            ((label, outcome), obs)
        },
    );
    for (label, outcome) in &scan_rows {
        result.push_row(Row::new(*label, outcome.values()));
    }
    let scan = |label: &str| {
        scan_rows
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, o)| (o.window_hit_ratio, o.evictions))
            .unwrap_or((0.0, 0.0))
    };
    let (plain_hr, plain_ev) = scan("scan_plain");
    let (class_hr, class_ev) = scan("scan_classified");
    result.note(format!(
        "scan pollution: classifier-driven admission holds hit ratio {class_hr:.2} (vs {plain_hr:.2}) and cuts evictions to {class_ev:.0} (vs {plain_ev:.0})",
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_bypass_doubles_hit_ratio_at_paper_scale() {
        let r = run(Scale::Quick);
        let bypass = r.require("paper_bca_bypass", 0).unwrap();
        let plain = r.require("paper_bca_plain", 0).unwrap();
        assert!(
            bypass >= 2.0 * plain,
            "bypass-on sweep hit ratio {bypass:.3} is not >= 2x bypass-off {plain:.3}"
        );
        assert!(bypass > 0.5, "bypass-on hit ratio collapsed: {bypass:.3}");
    }

    #[test]
    fn classified_admission_cuts_scan_churn() {
        let r = run(Scale::Quick);
        let plain_ev = r.require("scan_plain", 2).unwrap();
        let class_ev = r.require("scan_classified", 2).unwrap();
        assert!(
            class_ev < plain_ev,
            "classified admission did not reduce evictions: {class_ev} vs {plain_ev}"
        );
        let plain_hr = r.require("scan_plain", 1).unwrap();
        let class_hr = r.require("scan_classified", 1).unwrap();
        assert!(
            class_hr >= plain_hr - 0.02,
            "classified admission hurt the hit ratio: {class_hr:.3} vs {plain_hr:.3}"
        );
    }
}
