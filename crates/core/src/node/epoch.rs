//! The epoch driver: observation building and the per-epoch policy drive.
//!
//! Once per [`super::NodeConfig::epoch`] the engine snapshots per-device
//! observations (closing the devices' epoch counters), handles migration
//! suspensions ([`super::mirror`]), re-evaluates the lazy copy gate
//! (§5.2), and hands the observations to the policy brain through the
//! narrow [`crate::manager::PolicyEngine`] seam — the only channel
//! between simulator state and Eq. 4–7 policy arithmetic.

use super::{profile_features, NodeSim};
use crate::manager::{DeviceHealth, DeviceObservation, ResidentInfo};
use crate::migration::MigrationMode;
use crate::training::{ModelEvent, ModelObservation};
use nvhsm_cache::BufferCache;
use nvhsm_device::{DeviceKind, NvdimmDevice, StorageDevice};
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::OnlineStats;
use std::sync::Arc;

impl NodeSim {
    pub(crate) fn update_bus_utilization(&mut self) {
        if self.spec.is_empty() {
            return;
        }
        for ds in &mut self.datastores {
            if ds.device().kind() == DeviceKind::Nvdimm {
                let u = self.spec[ds.node()].utilization_at(self.now);
                ds.device_mut().set_ambient_bus_utilization(u);
            }
        }
    }

    /// Health of datastore `i` as seen by the manager: offline now →
    /// `Offline`; offline at any point in the trailing
    /// [`super::NodeConfig::degraded_cooldown`] window → `Degraded`
    /// (flapping devices stay excluded from placement until they prove
    /// stable). Only the past is consulted — the manager gets no fault
    /// oracle.
    pub(crate) fn store_health(&self, i: usize) -> DeviceHealth {
        let Some(plan) = &self.effective_faults else {
            return DeviceHealth::Healthy;
        };
        let schedule = plan.device(i);
        if schedule.offline_at(self.now) {
            DeviceHealth::Offline
        } else if schedule.offline_in(self.now - self.cfg.degraded_cooldown, self.now) {
            DeviceHealth::Degraded
        } else {
            DeviceHealth::Healthy
        }
    }

    /// Builds per-datastore observations. `roll` closes the devices'
    /// epoch counters (the manager path); `false` peeks with empty epochs
    /// (initial placement before any traffic).
    pub(crate) fn observe(&mut self, roll: bool) -> Vec<DeviceObservation> {
        let epoch_secs = self.cfg.epoch.as_secs_f64();
        let lookahead = super::LOOKAHEAD_EPOCHS as f64 * epoch_secs;
        let health: Vec<DeviceHealth> = (0..self.datastores.len())
            .map(|i| self.store_health(i))
            .collect();
        let mut out = Vec::with_capacity(self.datastores.len());
        for (i, ds) in self.datastores.iter_mut().enumerate() {
            let epoch = if roll {
                ds.device_mut().stats_mut().take_epoch(self.now)
            } else {
                nvhsm_device::DeviceStats::new().take_epoch(self.now)
            };
            let free_space = ds.device().free_space_ratio();
            let kind = ds.device().kind();
            let baseline_us = self.manager.baseline_us(kind);
            let mut residents = Vec::new();
            for w in &self.workloads {
                if w.ds != i {
                    continue;
                }
                let (count, mean) = epoch
                    .per_stream_latency_us
                    .get(&w.vmdk.id().0)
                    .map(|s| (s.count(), s.mean()))
                    .unwrap_or((0, 0.0));
                // Issue concurrency, not Little's law on the measured
                // latency — the latter would leak bus contention into the
                // OIO feature and poison the contention-free prediction.
                let rate = count as f64 / epoch_secs.max(1e-9);
                let oio = rate * baseline_us * 1e-6;
                let profile = w.vmdk.profile();
                residents.push(ResidentInfo {
                    vmdk: w.vmdk.id(),
                    size_blocks: w.vmdk.size_blocks(),
                    features: profile_features(profile, oio.max(0.01), free_space),
                    io_count: count,
                    mean_latency_us: mean,
                    live_blocks: (profile.iops * profile.mean_size_blocks * lookahead) as u64,
                });
            }
            out.push(DeviceObservation {
                ds: ds.id(),
                node: ds.node(),
                kind: ds.device().kind(),
                epoch,
                free_space,
                free_capacity_blocks: ds.largest_free_extent(),
                residents,
                health: health[i],
            });
        }
        out
    }

    /// Closes the model-feedback loop for one epoch: every resident with
    /// enough measured traffic becomes one (features, measured latency)
    /// observation, the model source updates (and possibly refits) at the
    /// epoch boundary, and refit/drift events reach the trace and metrics
    /// taps. Runs *before* the epoch decision so Eq. 4/5 arithmetic sees
    /// the refreshed predictions.
    fn feed_model(&mut self, observations: &[DeviceObservation]) {
        // Residents with fewer epoch I/Os than this carry too noisy a
        // latency mean to train on.
        const MIN_EPOCH_IOS: u64 = 8;
        let mut fed = Vec::new();
        for o in observations {
            for r in &o.residents {
                if r.io_count >= MIN_EPOCH_IOS {
                    fed.push(ModelObservation {
                        kind: o.kind,
                        features: r.features,
                        measured_us: r.mean_latency_us,
                    });
                }
            }
        }
        let before = self.manager.model_stats();
        self.manager.observe_model(&fed);
        let after = self.manager.model_stats();
        let d_count = after.err_count.saturating_sub(before.err_count);
        if d_count > 0 {
            let d_err = (after.err_sum_us - before.err_sum_us).max(0.0);
            if let Some(m) = &mut self.metrics {
                m.observe("pred_error_us", "", 0, d_err / d_count as f64);
            }
        }
        for e in self.manager.end_model_epoch() {
            match e {
                ModelEvent::Drift {
                    kind,
                    stat_us,
                    threshold_us,
                } => {
                    emit(&self.trace, || TraceEvent::DriftDetected {
                        t: self.now.as_ns(),
                        device: kind.to_string(),
                        stat_us,
                        threshold_us,
                    });
                    if let Some(m) = &mut self.metrics {
                        m.counter_inc("model_drifts", &kind.to_string(), 0);
                    }
                }
                ModelEvent::Refit {
                    kind,
                    samples,
                    err_before_us,
                    err_after_us,
                } => {
                    emit(&self.trace, || TraceEvent::ModelRefit {
                        t: self.now.as_ns(),
                        device: kind.to_string(),
                        samples: samples as u64,
                        err_before_us,
                        err_after_us,
                    });
                    if let Some(m) = &mut self.metrics {
                        m.counter_inc("model_refits", &kind.to_string(), 0);
                    }
                }
            }
        }
    }

    pub(crate) fn run_epoch(&mut self) {
        self.manage_faults();
        let observations = self.observe(true);
        self.feed_model(&observations);
        // Hot/cold classification: feed this epoch's per-resident access
        // counts, close the classifier epoch, and publish the hot set to
        // classified admission and the policy engine's candidate ordering.
        self.classify_epoch(&observations);

        // Fig. 15 bookkeeping: the NVDIMMs' cache hit ratio this epoch,
        // summed over every node.
        let (mut hits, mut misses, mut nv_reqs) = (0u64, 0u64, 0u64);
        for nv in (0..self.nodes).filter_map(|node| self.nvdimm_device(node)) {
            hits += nv.cache().hits();
            misses += nv.cache().misses();
            nv_reqs += nv.stats().lifetime_requests();
        }
        let (lh, lm) = self.last_cache_counts;
        let (dh, dm) = (hits.saturating_sub(lh), misses.saturating_sub(lm));
        self.last_cache_counts = (hits, misses);
        if dh + dm > 0 {
            Arc::make_mut(&mut self.hit_ratio_series).push((nv_reqs, dh as f64 / (dh + dm) as f64));
        }
        Arc::make_mut(&mut self.nvdimm_latency_series).push(self.nvdimm_epoch_latency.mean());
        self.nvdimm_epoch_latency = OnlineStats::new();
        Arc::make_mut(&mut self.bus_util_series).push(
            self.spec
                .first()
                .map(|s| s.utilization_at(self.now))
                .unwrap_or(0.0),
        );

        // Lazy migrations: re-evaluate the copy gate (§5.2). Copy when the
        // source is calm (cost is low), when little remains, or when the
        // migration has been pending long enough that finishing it is worth
        // more than waiting (bounded laziness).
        for m in &mut self.migrations {
            if m.active.mode == MigrationMode::Lazy {
                let Some(src_obs) = observations.get(m.active.src.0) else {
                    continue;
                };
                let src_kind = src_obs.kind;
                let baseline = self.manager.baseline_us(src_kind);
                let calm = src_obs.epoch.io_count() < 10
                    || src_obs.epoch.mean_latency_us() < 3.0 * baseline;
                let almost_done = m.active.remaining_blocks() < 1024;
                let overdue = self.now.saturating_since(m.active.started) > self.cfg.epoch * 10;
                let was = m.active.copy_enabled;
                m.active.copy_enabled = calm || almost_done || overdue;
                if m.active.copy_enabled && !was {
                    m.next_copy_at = self.now;
                }
            }
        }

        // One migration in flight per node, plus a cooldown after each
        // completion: epochs polluted by a copy's own interference never
        // reach the detector, which keeps a migration from triggering its
        // own counter-move.
        let busy = self.migrations.len() >= self.nodes || self.now < self.decision_cooldown_until;
        let decision = self.manager.epoch_decision(&observations, busy);
        self.epoch_ordinal += 1;
        {
            let diag = self.manager.last_diagnostics();
            let (imbalance, triggered, vetoed) = (diag.imbalance, diag.triggered, diag.vetoed);
            let epoch = self.epoch_ordinal;
            emit(&self.trace, || TraceEvent::ImbalanceTrigger {
                t: self.now.as_ns(),
                epoch,
                imbalance,
                triggered,
                vetoed,
            });
            if let Some(reg) = &mut self.metrics {
                reg.gauge_set("imbalance", "", 0, imbalance);
                if triggered {
                    reg.counter_inc("imbalance_triggers", "", 0);
                }
                if vetoed {
                    reg.counter_inc("imbalance_vetoes", "", 0);
                }
            }
        }
        if let Some(d) = decision {
            self.start_migration(d);
        } else if !busy {
            // No balance move this epoch: check for residents stranded on
            // a degraded store and evacuate the hottest one.
            if let Some(d) = self.manager.evacuation_decision(&observations) {
                emit(&self.trace, || TraceEvent::Evacuation {
                    t: self.now.as_ns(),
                    vmdk: d.vmdk.0,
                    src: self.datastores[d.src.0].device().kind().to_string(),
                    dst: self.datastores[d.dst.0].device().kind().to_string(),
                });
                if let Some(reg) = &mut self.metrics {
                    reg.counter_inc("evacuations", "", 0);
                }
                self.start_migration(d);
            }
        }
        // Epoch-boundary checkpoint of every node's durable state (a no-op
        // without a node fault plan).
        self.persist_durable();
    }

    pub(crate) fn nvdimm_device(&self, node: usize) -> Option<&NvdimmDevice> {
        // NVDIMMs are created first per node: datastore index = node * 3.
        let ds = self.datastores.get(node * 3)?;
        ds.device().as_any().downcast_ref::<NvdimmDevice>()
    }
}
