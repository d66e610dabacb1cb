//! The `drift` experiment: online-learned performance model vs the
//! static §4 pretraining under a phase-shifting workload.
//!
//! The paper trains its regression trees once, offline, on a
//! contention-free grid. This experiment manufactures the situation that
//! breaks that assumption: five HiBench workloads run next to a 429.mcf
//! co-runner until the system settles, then every workload flips regime
//! mid-run — arrival rates multiply and the streams turn write-dominant
//! — **without** the manager's feature vectors being told (the VMDK
//! admission profiles, and hence the Eq. 2 features, stay stale). The
//! static model keeps predicting the old regime; the online source
//! detects the drift in its per-epoch error signal and refits a residual
//! correction.
//!
//! Three arms share the identical scenario and seed: the static
//! pretrained model, the online source refitting on Page–Hinkley drift,
//! and the online source refitting periodically. Scored on windowed mean
//! absolute prediction error before and after the shift, end-to-end
//! latency, and refit/drift counts.

use crate::harness::{ExperimentResult, Row, Scale};
use crate::obs::{self, Capture, ObsOptions, Observation};
use nvhsm_core::{NodeConfig, NodeSim, OnlineModelConfig, PolicyKind, RefitPolicy};
use nvhsm_sim::SimDuration;
use nvhsm_workload::SpecProgram;

/// One drift-experiment case.
#[derive(Debug, Clone, Copy)]
pub struct DriftParams {
    /// Model source: `None` = the static pretrained model, `Some` = the
    /// online-updating source with these knobs.
    pub online: Option<OnlineModelConfig>,
    /// RNG seed.
    pub seed: u64,
}

impl DriftParams {
    /// The static arm.
    pub fn static_model(seed: u64) -> Self {
        DriftParams { online: None, seed }
    }

    /// The online arm refitting on detected drift.
    pub fn on_drift(seed: u64) -> Self {
        DriftParams {
            online: Some(online_config(RefitPolicy::OnDrift)),
            seed,
        }
    }

    /// The online arm refitting on a fixed epoch cadence.
    pub fn periodic(seed: u64) -> Self {
        DriftParams {
            online: Some(online_config(RefitPolicy::Periodic)),
            seed,
        }
    }
}

/// The shared online knobs of both learning arms. Small windows and a
/// low sample floor: the node feeds a handful of observations per epoch
/// (one per resident with measurable traffic), so waiting for hundreds
/// of samples would sleep through the Quick-scale shift entirely.
fn online_config(policy: RefitPolicy) -> OnlineModelConfig {
    OnlineModelConfig {
        policy,
        lambda_us: 40.0,
        min_refit_samples: 12,
        refit_every: 4,
        ..OnlineModelConfig::default()
    }
}

/// Headline measurements of one drift run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriftOutcome {
    /// Mean absolute prediction error over the pre-shift window, µs.
    pub pre_err_us: f64,
    /// Mean absolute prediction error over the post-shift window, µs.
    pub post_err_us: f64,
    /// Mean workload latency over the measured window, µs.
    pub mean_latency_us: f64,
    /// 99th-percentile workload latency over the measured window, µs.
    pub p99_latency_us: f64,
    /// Migrations the manager started in the measured window.
    pub migrations: u64,
    /// Model refits over the whole run.
    pub refits: u64,
    /// Drift detections over the whole run.
    pub drifts: u64,
}

/// Runs one arm with optional trace/metrics capture. With
/// `ObsOptions::OFF` no sink is attached and the run takes the
/// byte-identical no-observation path.
pub fn run_drift_observed(
    params: DriftParams,
    scale: Scale,
    opts: ObsOptions,
) -> (DriftOutcome, Observation) {
    let mut cfg = NodeConfig::small();
    // BCA: Eq. 5 *predicts* NVDIMM performance from the model, so model
    // quality feeds straight into placement/balance decisions.
    cfg.policy = PolicyKind::BcaLazy;
    cfg.spec = Some(SpecProgram::Mcf429);
    cfg.train_requests = scale.train_requests();
    cfg.online_model = params.online;
    let mut sim = NodeSim::with_nodes(cfg, 1, params.seed);
    let capture = Capture::new(opts);
    capture.attach(&mut sim);

    let profiles = crate::mix::mix_profiles(16, 0.0);
    let shifted: Vec<_> = profiles
        .into_iter()
        .take(5)
        .map(|p| {
            let id = sim.add_workload(p.clone());
            (id, p)
        })
        .collect();
    sim.run_until_quiet(SimDuration::from_secs(6 * scale.horizon_secs()));
    sim.reset_metrics();

    // Pre-shift window: the regime pretraining (roughly) saw.
    let settled = sim.model_stats();
    sim.run_secs(scale.horizon_secs());
    let pre = sim.model_stats();

    // The shift: every stream multiplies its arrival rate and turns
    // write-dominant, while the admission profiles (and the features the
    // manager derives from them) stay stale.
    for (id, p) in &shifted {
        sim.retune_workload(*id, p.iops * 2.5, 0.85);
    }
    let report = sim.run_secs(2 * scale.horizon_secs());
    let post = sim.model_stats();

    let window_err = |sum0: f64, cnt0: u64, sum1: f64, cnt1: u64| {
        let n = cnt1.saturating_sub(cnt0);
        if n == 0 {
            0.0
        } else {
            (sum1 - sum0) / n as f64
        }
    };
    let outcome = DriftOutcome {
        pre_err_us: window_err(
            settled.err_sum_us,
            settled.err_count,
            pre.err_sum_us,
            pre.err_count,
        ),
        post_err_us: window_err(
            pre.err_sum_us,
            pre.err_count,
            post.err_sum_us,
            post.err_count,
        ),
        mean_latency_us: report.mean_latency_us,
        p99_latency_us: report.p99_latency_us,
        migrations: report.migrations_started,
        refits: post.refits,
        drifts: post.drifts,
    };
    (outcome, capture.finish(sim.metrics()))
}

/// Runs many drift arms as one scenario grid, in parallel, returning the
/// outcomes in input order (byte-identical regardless of `--jobs`). When
/// the CLI armed observation, every case also files its own trace/metrics
/// (see [`crate::obs`]).
pub fn run_drift_grid(cases: Vec<DriftParams>, scale: Scale) -> Vec<DriftOutcome> {
    obs::map_grid(cases, obs::debug_label, |p, opts| {
        run_drift_observed(p, scale, opts)
    })
}

/// Builds the drift table: three arms over the identical phase-shifting
/// scenario.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "drift",
        "online model vs static under a mid-run regime shift",
        vec![
            "pre_err_us".into(),
            "post_err_us".into(),
            "latency_us".into(),
            "p99_us".into(),
            "migrations".into(),
            "refits".into(),
            "drifts".into(),
        ],
    );
    let seed = 42;
    let cases = vec![
        DriftParams::static_model(seed),
        DriftParams::on_drift(seed),
        DriftParams::periodic(seed),
    ];
    let outcomes = run_drift_grid(cases, scale);
    for (label, o) in ["static", "online_drift", "online_periodic"]
        .iter()
        .zip(&outcomes)
    {
        result.push_row(Row::new(
            *label,
            vec![
                o.pre_err_us,
                o.post_err_us,
                o.mean_latency_us,
                o.p99_latency_us,
                o.migrations as f64,
                o.refits as f64,
                o.drifts as f64,
            ],
        ));
    }
    let s_post = result.value_or("static", 1, 0.0);
    let d_post = result.value_or("online_drift", 1, 0.0);
    let cut = if s_post > 0.0 {
        100.0 * (1.0 - d_post / s_post)
    } else {
        0.0
    };
    result.note(format!(
        "post-shift prediction error: static {s_post:.1} µs vs online(drift) {d_post:.1} µs \
         ({cut:.0}% cut) — the static §4 model cannot see the regime the stale features hide; \
         the online source refits a residual correction at the epoch boundary after \
         Page–Hinkley fires"
    ));
    result.note(format!(
        "p99 latency: static {:.0} µs, online(drift) {:.0} µs, online(periodic) {:.0} µs",
        result.value_or("static", 3, 0.0),
        result.value_or("online_drift", 3, 0.0),
        result.value_or("online_periodic", 3, 0.0),
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_model_cuts_post_shift_prediction_error() {
        let r = run(Scale::Quick);
        let s = r.value_or("static", 1, f64::NAN);
        let d = r.value_or("online_drift", 1, f64::NAN);
        let p = r.value_or("online_periodic", 1, f64::NAN);
        assert!(s.is_finite() && d.is_finite() && p.is_finite(), "{r:?}");
        assert!(
            d < s,
            "online(drift) should cut post-shift error: {d} vs static {s}"
        );
        assert!(
            p < s,
            "online(periodic) should cut post-shift error: {p} vs static {s}"
        );
        // The learning arms actually learned (≥1 refit), and the static
        // arm never does.
        assert!(r.value_or("online_drift", 5, 0.0) >= 1.0, "{r:?}");
        assert_eq!(r.value_or("static", 5, f64::NAN), 0.0, "{r:?}");
    }
}
