//! The node's side of the NVDIMM buffer cache.
//!
//! The paper's §5.3 LRFU cache lives inside the NVDIMM controller, and so
//! does the simulator's: [`nvhsm_device::NvdimmDevice`] owns the only
//! `BypassCache<LrfuCache>`, prices hits on its bus-contended path, orders
//! persistence with its barrier interval and keeps its contents across a
//! node power loss. [`NodeCacheConfig`] sizes that cache per node and
//! switches its §5.3.2 migrated-read bypass. This module holds the three
//! things the node adds on top, all of which exist only when
//! `NodeConfig.cache` is `Some`:
//!
//! * **Classifier.** A [`HotColdClassifier`] fed once per epoch with each
//!   resident's request count from the devices' per-stream stats, which
//!   include cache hits. Its hot set goes to the policy engine's Eq. 6/7
//!   candidate ordering ([`crate::manager::PolicyEngine::observe_heat`]).
//! * **Classified admission.** With
//!   [`NodeCacheConfig::classified_admission`] on, reads of a VMDK the
//!   classifier judges cold carry the request's no-admit hint: the device
//!   serves them from the cache when resident but never admits or promotes
//!   them. They stay workload traffic in the device stats, so the VMDK can
//!   turn hot again.
//! * **Taps.** After each foreground request and each migration-sweep read
//!   on an NVDIMM, the node turns the device's per-request
//!   [`nvhsm_device::CacheAccess`] summary into `CacheHit`, `CacheMiss`,
//!   `CacheBypass` and `CacheEvict` trace events and `cache_*` metrics.
//!   Untraced, unmetered runs skip the taps entirely.

use super::NodeSim;
use crate::manager::DeviceObservation;
use crate::policy::PolicyKind;
use crate::vmdk::VmdkId;
use nvhsm_cache::{BufferCache, HotColdClassifier};
use nvhsm_device::{DeviceKind, MigrationTuning, NvdimmConfig, NvdimmDevice};
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::SimTime;

/// Per-epoch multiplicative decay of the hot/cold classifier.
const CLASSIFIER_DECAY: f64 = 0.5;

/// How a node's NVDIMM buffer cache is sized and steered.
///
/// `NodeConfig.cache = None` keeps the laptop-scale 4,096-block cache with
/// the migrated-read bypass on iff the policy has the architectural
/// optimization, and no classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCacheConfig {
    /// Cache capacity in 4 KiB blocks per NVDIMM. Zero builds cacheless
    /// NVDIMMs.
    pub capacity_blocks: usize,
    /// §5.3.2 bypass: migration-sweep reads never admit, evict or promote.
    pub sweep_bypass: bool,
    /// Classifier-gated admission: reads of classifier-cold VMDKs are not
    /// admitted on miss (one-shot traffic cannot evict the working set).
    pub classified_admission: bool,
    /// Decayed-score threshold at or above which a VMDK is hot.
    pub classifier_hot_threshold: f64,
}

impl NodeCacheConfig {
    /// The paper-scale cache: 400 MB (102,400 blocks) of LRFU at λ = 0.05
    /// with the sweep bypass on, Table 4's device cache.
    pub fn paper_scale() -> Self {
        NodeCacheConfig {
            capacity_blocks: 102_400,
            sweep_bypass: true,
            classified_admission: false,
            classifier_hot_threshold: 64.0,
        }
    }

    /// The laptop-scale cache: `NvdimmConfig::small_test`'s 16 MB.
    pub fn small_test() -> Self {
        NodeCacheConfig {
            capacity_blocks: 4096,
            ..Self::paper_scale()
        }
    }
}

/// The NVDIMM every node of a `policy` run builds: `cache` sets the
/// buffer cache's capacity and migrated-read bypass, and the policy's
/// architectural optimization sets the §5.3.1 scheduling switch (and the
/// bypass when `cache` is `None`).
pub(super) fn nvdimm_config(cache: Option<&NodeCacheConfig>, policy: PolicyKind) -> NvdimmConfig {
    let arch = policy.arch_optimization();
    let mut cfg = NvdimmConfig::small_test().with_tuning(MigrationTuning {
        cache_bypass: cache.map_or(arch, |c| c.sweep_bypass),
        sched_optimization: arch,
    });
    if let Some(c) = cache {
        cfg.cache_blocks = c.capacity_blocks;
    }
    cfg
}

/// The classifier a node with `cache` runs, if any.
pub(super) fn classifier(cache: Option<&NodeCacheConfig>) -> Option<HotColdClassifier> {
    cache.map(|c| HotColdClassifier::new(CLASSIFIER_DECAY, c.classifier_hot_threshold))
}

impl NodeSim {
    /// Whether `vmdk`'s reads carry the no-admit hint: classified
    /// admission is on, the classifier has closed an epoch, and it judges
    /// `vmdk` cold.
    pub(super) fn no_admit(&self, vmdk: VmdkId) -> bool {
        match (&self.cfg.cache, &self.classifier) {
            (Some(c), Some(k)) => {
                c.classified_admission && k.epochs() > 0 && !k.is_hot(vmdk.0 as u64)
            }
            _ => false,
        }
    }

    /// The cache tap: traces and counts what datastore `ds`'s buffer cache
    /// did for the request just served there, whose first block is
    /// `block`. Observe-only, and a no-op without a cache config, without
    /// a trace or metrics tap, or off an NVDIMM.
    pub(super) fn cache_tap(&mut self, ds: usize, block: u64, at: SimTime) {
        if self.classifier.is_none() || (self.trace.is_none() && self.metrics.is_none()) {
            return;
        }
        let Some(a) = self.datastores[ds]
            .device()
            .as_any()
            .downcast_ref::<NvdimmDevice>()
            .map(NvdimmDevice::last_cache_access)
        else {
            return;
        };
        let node = self.datastores[ds].node() as u32;
        let t = at.as_ns();
        let dev = || DeviceKind::Nvdimm.to_string();
        if a.bypassed > 0 {
            emit(&self.trace, || TraceEvent::CacheBypass {
                t,
                dev: dev(),
                node,
                block,
            });
        } else if a.misses > 0 {
            emit(&self.trace, || TraceEvent::CacheMiss {
                t,
                dev: dev(),
                node,
                block,
                evicted: a.evictions > 0,
            });
        } else if a.hits > 0 {
            emit(&self.trace, || TraceEvent::CacheHit {
                t,
                dev: dev(),
                node,
                block,
            });
        }
        if let Some(victim) = a.first_victim {
            emit(&self.trace, || TraceEvent::CacheEvict {
                t,
                dev: dev(),
                node,
                block: victim,
                dirty: a.dirty_evictions > 0,
            });
        }
        self.with_metrics(ds, |m, dev, node| {
            for (name, n) in [
                ("cache_hits", a.hits),
                ("cache_misses", a.misses),
                ("cache_bypassed", a.bypassed),
                ("cache_evictions", a.evictions),
                ("cache_writebacks", a.dirty_evictions),
            ] {
                if n > 0 {
                    m.counter_add(name, dev, node, u64::from(n));
                }
            }
        });
    }

    /// Epoch hook: feeds the classifier each resident's request count,
    /// closes its epoch, publishes the hot set to the policy engine, and
    /// gauges each NVDIMM's lifetime hit ratio. A no-op without a cache
    /// config.
    pub(super) fn classify_epoch(&mut self, observations: &[DeviceObservation]) {
        let Some(classifier) = self.classifier.as_mut() else {
            return;
        };
        for o in observations {
            for r in &o.residents {
                classifier.observe(r.vmdk.0 as u64, r.io_count);
            }
        }
        classifier.end_epoch();
        let hot: Vec<VmdkId> = classifier
            .hot_ranges()
            .into_iter()
            .map(|r| VmdkId(r as u32))
            .collect();
        self.manager.observe_heat(&hot);
        if self.metrics.is_none() {
            return;
        }
        let ratios: Vec<(u32, f64)> = (0..self.nodes)
            .filter_map(|node| {
                let c = self.nvdimm_device(node)?.cache();
                let total = c.hits() + c.misses();
                (total > 0).then(|| (node as u32, c.hits() as f64 / total as f64))
            })
            .collect();
        if let Some(m) = &mut self.metrics {
            let dev = DeviceKind::Nvdimm.to_string();
            for (node, ratio) in ratios {
                m.gauge_set("cache_hit_ratio", &dev, node, ratio);
            }
        }
    }
}
