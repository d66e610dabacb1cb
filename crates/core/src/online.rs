//! Online-updating performance models with drift handling.
//!
//! The paper trains its regression tree once, offline, on a
//! contention-free synthetic grid (§4). Under phase-shifting colocation
//! the measured latency `MP` drifts away from that static prediction:
//! queueing between colocated workloads and bus contention are regimes
//! the pretraining never saw. [`OnlineModels`] closes the loop: it
//! accumulates observed (WC, MP) pairs per device kind, watches the
//! per-epoch mean absolute prediction error with a Page–Hinkley test,
//! and — at epoch boundaries only — fits a **residual-correction tree**
//! on the window (latency target = measured − base prediction), so the
//! pretrained tree keeps providing the broad shape and the refit learns
//! the current regime's systematic offset.
//!
//! Determinism: refits consume no simulation RNG. The window is a
//! bounded FIFO of observed samples, and when it outgrows the refit cap
//! the subsample is drawn by a config-seeded xorshift — so the same
//! scenario refits identically at `--jobs 1` and `--jobs 4`, and the
//! existing RNG streams (and golden traces) are untouched.

use crate::training::{kind_index, DeviceModels, ModelEvent};
use nvhsm_device::DeviceKind;
use nvhsm_model::{Dataset, Features, FlatTree, LeafModel, PerfModel, RegTreeConfig, Sample};
use std::collections::VecDeque;

/// When a refit is allowed to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitPolicy {
    /// Refit only when the Page–Hinkley statistic crosses λ.
    OnDrift,
    /// Refit every `refit_every` epochs regardless of drift.
    Periodic,
}

/// Knobs of the online model source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineModelConfig {
    /// Page–Hinkley insensitivity margin δ, µs: per-epoch error swings
    /// below this never accumulate toward a drift signal.
    pub delta_us: f64,
    /// Page–Hinkley drift threshold λ, µs: the statistic crossing this
    /// declares drift for the kind.
    pub lambda_us: f64,
    /// Per-kind observation window capacity (FIFO).
    pub window: usize,
    /// Minimum window samples before a refit may run.
    pub min_refit_samples: usize,
    /// Largest sample count one refit trains on; bigger windows are
    /// subsampled with the config-seeded xorshift.
    pub max_refit_samples: usize,
    /// For [`RefitPolicy::Periodic`]: epochs between refits (0 disables
    /// periodic refits entirely).
    pub refit_every: u32,
    /// Refit trigger policy.
    pub policy: RefitPolicy,
    /// Seed of the subsampling xorshift (independent of simulation RNG).
    pub seed: u64,
}

impl Default for OnlineModelConfig {
    fn default() -> Self {
        OnlineModelConfig {
            delta_us: 1.0,
            lambda_us: 60.0,
            window: 512,
            min_refit_samples: 24,
            max_refit_samples: 256,
            refit_every: 4,
            policy: RefitPolicy::OnDrift,
            seed: 0x5eed_0d31,
        }
    }
}

/// Per-kind online state: the observation window, the installed residual
/// correction, and the Page–Hinkley accumulators over per-epoch errors.
#[derive(Debug, Default)]
struct KindState {
    /// Observed (features, measured − base) residual samples, FIFO.
    window: VecDeque<Sample>,
    /// Installed residual-correction tree, flattened for the hot path
    /// (None = base model verbatim).
    correction: Option<FlatTree>,
    /// Current-epoch absolute-error accumulator.
    epoch_err_sum: f64,
    /// Current-epoch error count.
    epoch_err_count: u64,
    /// Page–Hinkley running mean of per-epoch errors.
    ph_mean: f64,
    /// Epochs folded into `ph_mean`.
    ph_count: u64,
    /// Page–Hinkley cumulative deviation m_t.
    ph_m: f64,
    /// Minimum of `ph_m` seen so far.
    ph_min: f64,
    /// Epochs since the last refit (for the periodic policy).
    epochs_since_refit: u32,
}

impl KindState {
    /// Page–Hinkley update with one per-epoch mean error; returns the
    /// statistic after the update.
    fn ph_update(&mut self, epoch_err: f64, delta: f64) -> f64 {
        self.ph_count += 1;
        self.ph_mean += (epoch_err - self.ph_mean) / self.ph_count as f64;
        self.ph_m += epoch_err - self.ph_mean - delta;
        self.ph_min = self.ph_min.min(self.ph_m);
        self.ph_m - self.ph_min
    }

    /// Resets the drift detector (called after a refit handles the
    /// regime change it signalled).
    fn ph_reset(&mut self) {
        self.ph_mean = 0.0;
        self.ph_count = 0;
        self.ph_m = 0.0;
        self.ph_min = 0.0;
    }
}

const KINDS: [DeviceKind; 3] = [DeviceKind::Nvdimm, DeviceKind::Ssd, DeviceKind::Hdd];

/// An online-updating model source: the pretrained [`DeviceModels`] plus a
/// per-kind learned residual correction.
#[derive(Debug)]
pub struct OnlineModels {
    base: DeviceModels,
    cfg: OnlineModelConfig,
    kinds: [KindState; 3],
}

impl OnlineModels {
    /// Wraps pretrained models with online updating.
    pub fn new(base: DeviceModels, cfg: OnlineModelConfig) -> Self {
        OnlineModels {
            base,
            cfg,
            kinds: Default::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &OnlineModelConfig {
        &self.cfg
    }

    /// Whether `kind` currently has a learned correction installed.
    pub fn has_correction(&self, kind: DeviceKind) -> bool {
        self.kinds[kind_index(kind)].correction.is_some()
    }

    /// Mean absolute residual of the *current* model over `kind`'s
    /// window, µs.
    fn window_err_us(&self, i: usize) -> f64 {
        let st = &self.kinds[i];
        if st.window.is_empty() {
            return 0.0;
        }
        let sum: f64 = st
            .window
            .iter()
            .map(|s| {
                let corr = st
                    .correction
                    .as_ref()
                    .map_or(0.0, |m| m.predict(&s.features));
                (s.latency_us - corr).abs()
            })
            .sum();
        sum / st.window.len() as f64
    }

    /// Trains a residual tree on (a deterministic subsample of) the
    /// window. The residual targets stored in the window are relative to
    /// the *base* model, so retraining replaces — never stacks —
    /// corrections.
    fn refit_kind(&mut self, i: usize) -> Option<(usize, f64, f64)> {
        let st = &self.kinds[i];
        // The emptiness check is not redundant: `min_refit_samples: 0` is
        // a legal config, and training on an empty window would panic
        // inside the tree trainer.
        if st.window.is_empty() || st.window.len() < self.cfg.min_refit_samples {
            return None;
        }
        let err_before = self.window_err_us(i);
        let mut data = Dataset::new();
        // A zero cap would train on an empty dataset (and panic inside
        // the tree trainer); treat it as "no cap".
        if self.cfg.max_refit_samples == 0
            || self.kinds[i].window.len() <= self.cfg.max_refit_samples
        {
            for s in &self.kinds[i].window {
                data.push(*s);
            }
        } else {
            // Config-seeded xorshift64* subsample: deterministic, and
            // independent of every simulation RNG stream.
            let len = self.kinds[i].window.len();
            let mut x = self.cfg.seed | 1;
            let mut picked = vec![false; len];
            let mut remaining = self.cfg.max_refit_samples;
            while remaining > 0 {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let idx = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % len as u64) as usize;
                if !picked[idx] {
                    picked[idx] = true;
                    remaining -= 1;
                }
            }
            for (s, &p) in self.kinds[i].window.iter().zip(&picked) {
                if p {
                    data.push(*s);
                }
            }
        }
        let samples = data.samples().len();
        // Shallow tree, small constant leaves: the window is hundreds of
        // samples at most, and the correction only needs the current
        // regime's systematic offset, not the base model's full shape.
        // Mean leaves keep the extra per-prediction walk to a handful of
        // compares — `predict` sits on the epoch-decision hot path with a
        // perf budget pinning it near the static path's cost, and a
        // linear leaf's dot product per call busts it for no measurable
        // accuracy gain on residual targets.
        let tree_cfg = RegTreeConfig {
            max_depth: 5,
            min_samples_leaf: 6,
            leaf_model: LeafModel::Mean,
            ..RegTreeConfig::default()
        };
        let model = PerfModel::train_with(&data, &tree_cfg);
        // Mean leaves always flatten; a None here would mean the tree
        // grew a linear leaf, and skipping the install beats panicking.
        let flat = model.tree().flatten()?;
        self.kinds[i].correction = Some(flat);
        let err_after = self.window_err_us(i);
        Some((samples, err_before, err_after))
    }

    /// Predicted latency of `kind` under `features`, µs: the base tree
    /// walk plus the kind's installed correction, if any.
    pub fn predict(&self, kind: DeviceKind, features: &Features) -> f64 {
        let base = self.base.predict_us(kind, features);
        match &self.kinds[kind_index(kind)].correction {
            // Corrections can over- or under-shoot; a latency prediction
            // below zero carries no Eq. 4/5 signal.
            Some(m) => (base + m.predict(features)).max(0.0),
            None => base,
        }
    }

    /// Feeds one observed (WC, MP) pair into `kind`'s window; returns the
    /// absolute error of the current prediction against `measured_us`,
    /// µs. Non-finite observations are ignored (error 0).
    pub fn observe(&mut self, kind: DeviceKind, features: &Features, measured_us: f64) -> f64 {
        if !measured_us.is_finite() || !features.to_array().iter().all(|v| v.is_finite()) {
            return 0.0;
        }
        let err = (self.predict(kind, features) - measured_us).abs();
        let st = &mut self.kinds[kind_index(kind)];
        st.epoch_err_sum += err;
        st.epoch_err_count += 1;
        if st.window.len() == self.cfg.window {
            st.window.pop_front();
        }
        st.window.push_back(Sample {
            features: *features,
            // Residual target: what the base model got wrong.
            latency_us: measured_us - self.base.predict_us(kind, features),
        });
        err
    }

    /// Closes the epoch: runs drift detection and any due refits,
    /// returning what happened.
    pub fn end_epoch(&mut self) -> Vec<ModelEvent> {
        let mut events = Vec::new();
        for (i, &kind) in KINDS.iter().enumerate() {
            if self.kinds[i].epoch_err_count == 0 {
                continue;
            }
            let epoch_err = self.kinds[i].epoch_err_sum / self.kinds[i].epoch_err_count as f64;
            self.kinds[i].epoch_err_sum = 0.0;
            self.kinds[i].epoch_err_count = 0;
            let stat = self.kinds[i].ph_update(epoch_err, self.cfg.delta_us);
            let drifted = stat > self.cfg.lambda_us;
            if drifted {
                events.push(ModelEvent::Drift {
                    kind,
                    stat_us: stat,
                    threshold_us: self.cfg.lambda_us,
                });
            }
            self.kinds[i].epochs_since_refit += 1;
            let due = match self.cfg.policy {
                RefitPolicy::OnDrift => drifted,
                RefitPolicy::Periodic => {
                    self.cfg.refit_every > 0
                        && self.kinds[i].epochs_since_refit >= self.cfg.refit_every
                }
            };
            if due {
                if let Some((samples, err_before_us, err_after_us)) = self.refit_kind(i) {
                    self.kinds[i].epochs_since_refit = 0;
                    self.kinds[i].ph_reset();
                    events.push(ModelEvent::Refit {
                        kind,
                        samples,
                        err_before_us,
                        err_after_us,
                    });
                }
            }
        }
        events
    }

    /// The pretrained base models (baselines, slopes, per-block costs —
    /// characteristics no online update touches).
    pub fn base(&self) -> &DeviceModels {
        &self.base
    }
}

/// The model source a [`crate::Manager`] runs with (`PP = f(WC)`, Eq. 1):
/// the static pretrained [`DeviceModels`] or the online-updating
/// [`OnlineModels`] that learns from observed (WC, MP) pairs. A plain
/// enum, because `predict` sits on the epoch-decision hot path and a
/// vtable call per candidate evaluation is measurable.
///
/// `observe` returns the absolute prediction error of the *pre-update*
/// model so callers can account error without predicting twice; refits
/// happen only inside `end_epoch`, keeping predictions stable within an
/// epoch (and the grid driver's byte-identical guarantee intact).
// Not boxed despite the size skew: exactly one ModelSource lives in
// each Manager (never in collections), and boxing either variant puts
// a pointer chase in front of every hot-path predict call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ModelSource {
    /// Pretrained once, never updated (the paper's §4 setup).
    Static(DeviceModels),
    /// Online-updating with drift detection.
    Online(OnlineModels),
}

impl ModelSource {
    /// Builds the source a node configuration asks for.
    pub fn from_config(models: DeviceModels, online: Option<OnlineModelConfig>) -> Self {
        match online {
            Some(cfg) => ModelSource::Online(OnlineModels::new(models, cfg)),
            None => ModelSource::Static(models),
        }
    }

    /// Predicted latency of `kind` under `features`, µs.
    pub fn predict(&self, kind: DeviceKind, features: &Features) -> f64 {
        match self {
            ModelSource::Static(m) => m.predict_us(kind, features),
            ModelSource::Online(m) => m.predict(kind, features),
        }
    }

    /// Feeds one observed (WC, MP) pair; returns the absolute error of
    /// the current prediction against `measured_us`, µs. The static
    /// source only measures the error.
    pub fn observe(&mut self, kind: DeviceKind, features: &Features, measured_us: f64) -> f64 {
        match self {
            ModelSource::Static(m) => (m.predict_us(kind, features) - measured_us).abs(),
            ModelSource::Online(m) => m.observe(kind, features, measured_us),
        }
    }

    /// Closes the epoch: runs drift detection and any due refits,
    /// returning what happened (always empty for the static source).
    pub fn end_epoch(&mut self) -> Vec<ModelEvent> {
        match self {
            ModelSource::Static(_) => Vec::new(),
            ModelSource::Online(m) => m.end_epoch(),
        }
    }

    /// The pretrained base models (baselines, slopes, per-block costs —
    /// characteristics no online update touches).
    pub fn base(&self) -> &DeviceModels {
        match self {
            ModelSource::Static(m) => m,
            ModelSource::Online(m) => m.base(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::pretrain_models;
    use nvhsm_sim::SimRng;

    fn probe_set(n: usize, seed: u64) -> Vec<Features> {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| Features {
                wr_ratio: rng.uniform(),
                oios: rng.uniform() * 16.0,
                ios: 1.0 + rng.uniform() * 7.0,
                wr_rand: rng.uniform(),
                rd_rand: rng.uniform(),
                free_space_ratio: rng.uniform(),
            })
            .collect()
    }

    #[test]
    fn zero_observations_predicts_bit_identical_to_static() {
        let static_m = pretrain_models(40, 7);
        let online = OnlineModels::new(pretrain_models(40, 7), OnlineModelConfig::default());
        for f in probe_set(100, 3) {
            for kind in KINDS {
                assert_eq!(
                    online.predict(kind, &f).to_bits(),
                    static_m.predict_us(kind, &f).to_bits()
                );
            }
        }
    }

    #[test]
    fn systematic_offset_is_learned_by_refit() {
        let mut online = OnlineModels::new(
            pretrain_models(40, 7),
            OnlineModelConfig {
                policy: RefitPolicy::Periodic,
                refit_every: 1,
                min_refit_samples: 16,
                ..OnlineModelConfig::default()
            },
        );
        let probes = probe_set(64, 5);
        // A constant +400 µs contention offset the static model can't see.
        let mut before = 0.0;
        for f in &probes {
            let truth = online.base().predict_us(DeviceKind::Nvdimm, f) + 400.0;
            before += online.observe(DeviceKind::Nvdimm, f, truth);
        }
        let events = online.end_epoch();
        assert!(
            events.iter().any(
                |e| matches!(e, ModelEvent::Refit { kind, .. } if *kind == DeviceKind::Nvdimm)
            ),
            "expected a refit, got {events:?}"
        );
        let mut after = 0.0;
        for f in &probes {
            let truth = online.base().predict_us(DeviceKind::Nvdimm, f) + 400.0;
            after += (online.predict(DeviceKind::Nvdimm, f) - truth).abs();
        }
        assert!(
            after < before * 0.2,
            "refit did not learn the offset: {after} vs {before}"
        );
    }

    #[test]
    fn drift_detector_fires_on_regime_change_only() {
        let mut online = OnlineModels::new(
            pretrain_models(40, 7),
            OnlineModelConfig {
                policy: RefitPolicy::OnDrift,
                lambda_us: 60.0,
                ..OnlineModelConfig::default()
            },
        );
        let probes = probe_set(32, 9);
        // Phase 1: accurate epochs — no drift events.
        for _ in 0..6 {
            for f in &probes {
                let truth = online.base().predict_us(DeviceKind::Ssd, f);
                online.observe(DeviceKind::Ssd, f, truth + 2.0);
            }
            let events = online.end_epoch();
            assert!(events.is_empty(), "false positive: {events:?}");
        }
        // Phase 2: a +300 µs regime shift — drift fires within a few
        // epochs and the refit absorbs it.
        let mut saw_drift = false;
        for _ in 0..6 {
            for f in &probes {
                let truth = online.base().predict_us(DeviceKind::Ssd, f) + 300.0;
                online.observe(DeviceKind::Ssd, f, truth);
            }
            let events = online.end_epoch();
            if events
                .iter()
                .any(|e| matches!(e, ModelEvent::Drift { kind, .. } if *kind == DeviceKind::Ssd))
            {
                saw_drift = true;
                break;
            }
        }
        assert!(saw_drift, "drift never detected after the regime change");
        assert!(online.has_correction(DeviceKind::Ssd));
    }

    #[test]
    fn refits_are_deterministic_for_a_seed() {
        let run = || {
            let mut online = OnlineModels::new(
                pretrain_models(40, 11),
                OnlineModelConfig {
                    policy: RefitPolicy::Periodic,
                    refit_every: 2,
                    window: 48,
                    max_refit_samples: 32,
                    min_refit_samples: 16,
                    ..OnlineModelConfig::default()
                },
            );
            let probes = probe_set(40, 17);
            let mut preds = Vec::new();
            for round in 0..6u64 {
                for f in &probes {
                    let truth = online.base().predict_us(DeviceKind::Ssd, f) + 50.0 * round as f64;
                    online.observe(DeviceKind::Ssd, f, truth);
                }
                online.end_epoch();
                for f in &probes {
                    preds.push(online.predict(DeviceKind::Ssd, f).to_bits());
                }
            }
            preds
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corrected_predictions_are_the_two_tree_walks_exactly() {
        let mut online = OnlineModels::new(
            pretrain_models(40, 7),
            OnlineModelConfig {
                policy: RefitPolicy::Periodic,
                refit_every: 1,
                min_refit_samples: 16,
                ..OnlineModelConfig::default()
            },
        );
        for f in probe_set(64, 5) {
            let truth = online.base().predict_us(DeviceKind::Ssd, &f) + 120.0;
            online.observe(DeviceKind::Ssd, &f, truth);
        }
        online.end_epoch();
        assert!(online.has_correction(DeviceKind::Ssd));
        for f in probe_set(50, 21) {
            let direct = (online.base().predict_us(DeviceKind::Ssd, &f)
                + online.kinds[kind_index(DeviceKind::Ssd)]
                    .correction
                    .as_ref()
                    .expect("correction installed")
                    .predict(&f))
            .max(0.0);
            // Repeated calls are bit-identical to the two-tree sum.
            assert_eq!(
                online.predict(DeviceKind::Ssd, &f).to_bits(),
                direct.to_bits()
            );
            assert_eq!(
                online.predict(DeviceKind::Ssd, &f).to_bits(),
                direct.to_bits()
            );
        }
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut online = OnlineModels::new(pretrain_models(40, 7), OnlineModelConfig::default());
        let f = Features::default();
        assert_eq!(online.observe(DeviceKind::Ssd, &f, f64::NAN), 0.0);
        let bad = Features {
            oios: f64::INFINITY,
            ..Features::default()
        };
        assert_eq!(online.observe(DeviceKind::Ssd, &bad, 10.0), 0.0);
        assert!(online.end_epoch().is_empty());
    }
}
