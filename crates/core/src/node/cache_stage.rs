//! The `cache_access` stage: a node-level buffer cache hoisted out of the
//! NVDIMM device model into the staged datapath.
//!
//! When enabled, each node's NVDIMM datastore is fronted by an LRFU cache
//! that sits between routing/translate and device service:
//!
//! * **Read hits** short-circuit device submission entirely and complete
//!   at the modeled DRAM-side hit latency (plus the NIC post-hop for
//!   cross-node reads).
//! * **Read misses** charge the fill through the existing fault-gated
//!   device path, then admit the filled blocks; a dirty victim's
//!   write-back is charged through the same device path (a failed
//!   write-back counts as an I/O error but never fails the foreground
//!   request).
//! * **Writes** are absorbed at the stage (dirty admission) at hit
//!   latency; every `PERSIST_INTERVAL`-th absorbed write instead flows
//!   through the device as a persist-barrier write and leaves a clean
//!   cached copy — mirroring the device model's barrier-interval persist
//!   chain one layer up.
//! * **Migration-sweep reads** ([`super::mirror`]'s copy rounds) consult
//!   the stage through a *structurally* distinct entry
//!   (`NodeSim::cache_sweep_read`): the bypass verdict comes from the
//!   migration table entry that scheduled the copy round, not from a
//!   per-request flag. With [`NodeCacheConfig::sweep_bypass`] on, sweep
//!   reads never touch cache contents (§5.3.2's Fig. 15 fix); off, they
//!   evict the working set — the collapse the `cache` experiment
//!   reproduces.
//!
//! The stage shares one [`HotColdClassifier`] with the policy layer: the
//! epoch observation builder feeds per-VMDK access counts, and the
//! per-epoch verdicts drive both cache admission (cold one-shot reads are
//! not admitted) and the Manager's Eq. 6/7 migration-candidate ordering
//! via [`crate::manager::PolicyEngine::observe_heat`].
//!
//! Disabled (`NodeConfig.cache == None` or `capacity_blocks == 0`), the
//! stage does not exist: no events, no metrics, no latency changes — the
//! differential oracle in `tests/cache_oracle.rs` pins byte-identity with
//! the pre-stage engine.

use super::datapath::BlockIo;
use super::NodeSim;
use crate::manager::{DeviceHealth, DeviceObservation};
use crate::vmdk::VmdkId;
use nvhsm_cache::{AccessClass, BufferCache, BypassCache, HotColdClassifier, LrfuCache};
use nvhsm_device::{DeviceKind, IoCompletion, IoError, IoOp, IoRequest};
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::{SimDuration, SimTime};

/// LRFU decay λ (Table 4 uses 0.05).
const LRFU_LAMBDA: f64 = 0.05;
/// Service time of a cache hit (DRAM-side, no flash involved).
const HIT_LATENCY: SimDuration = SimDuration::from_us(2);
/// Per-epoch multiplicative decay of the hot/cold classifier.
const CLASSIFIER_DECAY: f64 = 0.5;
/// Absorbed writes per persist barrier: every Nth write flows through the
/// device as an ordered persist write instead of being absorbed.
const PERSIST_INTERVAL: u32 = 8;

/// Configuration of the staged node-level buffer cache.
///
/// `capacity_blocks == 0` (or `NodeConfig.cache == None`) disables the
/// stage entirely; the engine is then byte-identical to one built without
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCacheConfig {
    /// Cache capacity in 4 KiB blocks per node. Zero disables the stage.
    pub capacity_blocks: usize,
    /// §5.3.2 structural bypass: migration-sweep reads skip the cache.
    pub sweep_bypass: bool,
    /// Classifier-gated admission: reads of classifier-cold VMDKs are not
    /// admitted on miss (one-shot traffic cannot evict the working set).
    pub classified_admission: bool,
    /// Decayed-score threshold at or above which a VMDK is hot.
    pub classifier_hot_threshold: f64,
}

impl NodeCacheConfig {
    /// The paper-scale stage: 400 MB (102,400 blocks) of LRFU at λ = 0.05
    /// with the sweep bypass on, matching Table 4's device cache.
    pub fn paper_scale() -> Self {
        NodeCacheConfig {
            capacity_blocks: 102_400,
            sweep_bypass: true,
            classified_admission: false,
            classifier_hot_threshold: 64.0,
        }
    }

    /// A laptop-scale stage matching `NvdimmConfig::small_test`'s 16 MB
    /// cache.
    pub fn small_test() -> Self {
        NodeCacheConfig {
            capacity_blocks: 4096,
            ..Self::paper_scale()
        }
    }

    /// Whether the stage exists at all.
    pub fn enabled(&self) -> bool {
        self.capacity_blocks > 0
    }
}

/// Per-node stage counters. Monotonic over the run (like the device cache
/// counters); windowed measurements difference snapshots, and the metrics
/// registry's own counters reset with [`NodeSim::reset_metrics`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageCounters {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) evictions: u64,
    pub(crate) bypassed: u64,
}

/// Runtime state of the cache stage: one LRFU cache per node (fronting
/// that node's NVDIMM datastore) plus the shared hot/cold classifier.
pub(crate) struct CacheStage {
    pub(crate) cfg: NodeCacheConfig,
    /// Indexed by node; keyed by physical block on that node's NVDIMM.
    caches: Vec<BypassCache<LrfuCache>>,
    pub(crate) counters: Vec<StageCounters>,
    writes_since_persist: Vec<u32>,
    classifier: HotColdClassifier,
    /// Requests the stage served without reaching the device this epoch,
    /// keyed by stream (== VMDK id). The device's per-stream epoch stats
    /// can't see these, so the classifier feed adds them back — otherwise
    /// a well-cached hot workload would look cold precisely because the
    /// cache is doing its job.
    epoch_hits: std::collections::BTreeMap<u32, u64>,
}

impl CacheStage {
    pub(crate) fn new(cfg: NodeCacheConfig, nodes: usize) -> Self {
        let caches = (0..nodes)
            .map(|_| BypassCache::new(LrfuCache::new(cfg.capacity_blocks, LRFU_LAMBDA)))
            .collect();
        let classifier = HotColdClassifier::new(CLASSIFIER_DECAY, cfg.classifier_hot_threshold);
        CacheStage {
            cfg,
            caches,
            counters: vec![StageCounters::default(); nodes],
            writes_since_persist: vec![0; nodes],
            classifier,
            epoch_hits: std::collections::BTreeMap::new(),
        }
    }

    /// Totals across all nodes, for the Fig. 15 series bookkeeping.
    pub(crate) fn totals(&self) -> StageCounters {
        let mut t = StageCounters::default();
        for c in &self.counters {
            t.hits += c.hits;
            t.misses += c.misses;
            t.evictions += c.evictions;
            t.bypassed += c.bypassed;
        }
        t
    }

    /// The admission class for `vmdk`'s reads: cold VMDKs use the bypass
    /// class (hit without promotion, never admitted) once the classifier
    /// has closed at least one epoch of verdicts.
    fn read_class(&self, vmdk: VmdkId) -> AccessClass {
        if self.cfg.classified_admission
            && self.classifier.epochs() > 0
            && !self.classifier.is_hot(vmdk.0 as u64)
        {
            AccessClass::Migrated
        } else {
            AccessClass::Normal
        }
    }
}

/// What one batch of stage accesses did, summed over the request's blocks.
struct AccessSummary {
    hits: u64,
    misses: u64,
    evictions: u64,
    bypassed: u64,
    /// Dirty victims owed a write-back through the device path.
    dirty_victims: Vec<u64>,
    all_hit: bool,
}

impl NodeSim {
    /// The node whose staged cache fronts datastore `ds`, when the stage
    /// is enabled and `ds` is an NVDIMM. `None` means the request takes
    /// the plain device path.
    fn staged_cache_node(&self, ds: usize) -> Option<usize> {
        let stage = self.cache.as_ref()?;
        if !stage.cfg.enabled() {
            return None;
        }
        (self.datastores[ds].device().kind() == DeviceKind::Nvdimm)
            .then(|| self.datastores[ds].node())
    }

    /// Runs `count` block accesses against node `node`'s staged cache and
    /// sums the outcomes. Pure cache bookkeeping: events, metrics and
    /// write-backs are the caller's job (keeps borrows disjoint).
    fn stage_access_blocks(
        &mut self,
        node: usize,
        first_block: u64,
        count: u32,
        write: bool,
        class: AccessClass,
    ) -> AccessSummary {
        let mut s = AccessSummary {
            hits: 0,
            misses: 0,
            evictions: 0,
            bypassed: 0,
            dirty_victims: Vec::new(),
            all_hit: true,
        };
        let Some(stage) = self.cache.as_mut() else {
            // Unreachable behind staged_cache_node; degrade to a no-op.
            debug_assert!(false, "stage_access_blocks without a cache stage");
            s.all_hit = false;
            return s;
        };
        for b in first_block..first_block + count as u64 {
            let out = stage.caches[node].access_classified(b, write, class);
            if !out.hit {
                s.all_hit = false;
            }
            // Bypassed (migrated-class) traffic never enters the hit-ratio
            // accounting — the ratio measures the cached working set, and
            // a bypassed request by definition is not part of it (matching
            // the device model's Fig. 15 semantics).
            match class {
                AccessClass::Migrated => s.bypassed += 1,
                AccessClass::Normal => {
                    if out.hit {
                        s.hits += 1;
                    } else {
                        s.misses += 1;
                    }
                }
            }
            if let Some((victim, dirty)) = out.evicted {
                s.evictions += 1;
                if dirty {
                    s.dirty_victims.push(victim);
                }
            }
        }
        let c = &mut stage.counters[node];
        c.hits += s.hits;
        c.misses += s.misses;
        c.evictions += s.evictions;
        c.bypassed += s.bypassed;
        s
    }

    /// Records a request the stage served without touching the device, so
    /// the epoch classifier feed can add it back to the device-observed
    /// I/O count for its stream.
    fn stage_note_served(&mut self, stream: u32) {
        if let Some(stage) = self.cache.as_mut() {
            *stage.epoch_hits.entry(stream).or_insert(0) += 1;
        }
    }

    /// Folds one access summary into the observability taps and charges
    /// dirty-victim write-backs through the fault-gated device path.
    fn stage_settle(&mut self, ds: usize, node: usize, s: &AccessSummary, at: SimTime) {
        if self.metrics.is_some() {
            self.with_metrics(ds, |m, dev, node| {
                if s.hits > 0 {
                    m.counter_add("cache_hits", dev, node, s.hits);
                }
                if s.misses > 0 {
                    m.counter_add("cache_misses", dev, node, s.misses);
                }
                if s.evictions > 0 {
                    m.counter_add("cache_evictions", dev, node, s.evictions);
                }
                if s.bypassed > 0 {
                    m.counter_add("cache_bypassed", dev, node, s.bypassed);
                }
            });
        }
        if s.evictions > 0 {
            let dirty = !s.dirty_victims.is_empty();
            // One event per request keeps trace volume request-granular;
            // the victim block identifies the eviction run.
            let first = s.dirty_victims.first().copied();
            emit(&self.trace, || TraceEvent::CacheEvict {
                t: at.as_ns(),
                dev: DeviceKind::Nvdimm.to_string(),
                node: node as u32,
                block: first.unwrap_or(0),
                dirty,
            });
        }
        for victim in s.dirty_victims.clone() {
            self.cache_write_back(ds, node, victim, at);
        }
    }

    /// Charges a dirty victim's flash write-back through the existing
    /// fault-gated device path. A failure counts as an I/O error but never
    /// fails the foreground request that triggered the eviction.
    fn cache_write_back(&mut self, ds: usize, node: usize, block: u64, at: SimTime) {
        let stream = 3_000_000 + node as u32;
        let req = IoRequest::migrated(stream, block, 1, IoOp::Write, at);
        match self.datastores[ds].device_mut().try_submit(&req) {
            Ok(_) => {
                self.with_metrics(ds, |m, dev, node| {
                    m.counter_inc("cache_writebacks", dev, node)
                });
            }
            Err(_) => {
                self.io_errors += 1;
                self.with_metrics(ds, |m, dev, node| m.counter_inc("io_errors", dev, node));
            }
        }
    }

    /// The `cache_access` stage. `None` means the stage does not apply
    /// (disabled, non-NVDIMM target, or the device is offline — the fault
    /// path must observe the outage, not be masked by cached data) and the
    /// caller drives the plain device path; `Some` is the request's final
    /// service result, hit-short-circuited or filled through the device.
    pub(crate) fn cache_access(
        &mut self,
        ds: usize,
        vmdk: VmdkId,
        io: &BlockIo,
        arrival: SimTime,
        home_node: usize,
    ) -> Option<Result<IoCompletion, IoError>> {
        let node = self.staged_cache_node(ds)?;
        if self.effective_faults.is_some() && self.store_health(ds) == DeviceHealth::Offline {
            return None;
        }
        match io.op {
            IoOp::Read => Some(self.cache_read(ds, node, vmdk, io, arrival, home_node)),
            IoOp::Write => Some(self.cache_write(ds, node, io, arrival, home_node)),
        }
    }

    fn cache_read(
        &mut self,
        ds: usize,
        node: usize,
        vmdk: VmdkId,
        io: &BlockIo,
        arrival: SimTime,
        home_node: usize,
    ) -> Result<IoCompletion, IoError> {
        let (class, all_cached) = {
            let Some(stage) = self.cache.as_ref() else {
                return self.service_block(ds, *io, arrival, home_node);
            };
            let all = (io.block..io.block + io.size_blocks as u64)
                .all(|b| stage.caches[node].contains(b));
            (stage.read_class(vmdk), all)
        };
        if all_cached {
            // Hit: short-circuit device submission. The payload of a
            // cross-node read still travels the wire home.
            let s = self.stage_access_blocks(node, io.block, io.size_blocks, false, class);
            debug_assert!(s.all_hit);
            // Either way the stage served real demand the device never
            // saw — the classifier must observe it, or a cold verdict
            // becomes self-sustaining (bypassed hits vanish from the
            // feed and the VMDK can never re-qualify as hot).
            self.stage_note_served(io.stream);
            if class == AccessClass::Migrated {
                emit(&self.trace, || TraceEvent::CacheBypass {
                    t: arrival.as_ns(),
                    dev: DeviceKind::Nvdimm.to_string(),
                    node: node as u32,
                    block: io.block,
                });
            } else {
                emit(&self.trace, || TraceEvent::CacheHit {
                    t: arrival.as_ns(),
                    dev: DeviceKind::Nvdimm.to_string(),
                    node: node as u32,
                    block: io.block,
                });
            }
            self.stage_settle(ds, node, &s, arrival);
            let served = arrival + HIT_LATENCY;
            let done = if node != home_node {
                self.net_transfer(node, home_node, io.size_blocks as u64 * 4096, served)
            } else {
                served
            };
            return Ok(IoCompletion::finished(arrival, done));
        }
        // Miss: the fill is the device read itself, charged through the
        // fault-gated path; admission happens only after the fill
        // succeeded, so a rejected read never populates the cache.
        let completion = self.service_block(ds, *io, arrival, home_node)?;
        let s = self.stage_access_blocks(node, io.block, io.size_blocks, false, class);
        if class == AccessClass::Migrated {
            emit(&self.trace, || TraceEvent::CacheBypass {
                t: arrival.as_ns(),
                dev: DeviceKind::Nvdimm.to_string(),
                node: node as u32,
                block: io.block,
            });
        } else {
            let evicted = s.evictions > 0;
            emit(&self.trace, || TraceEvent::CacheMiss {
                t: arrival.as_ns(),
                dev: DeviceKind::Nvdimm.to_string(),
                node: node as u32,
                block: io.block,
                evicted,
            });
        }
        self.stage_settle(ds, node, &s, completion.done);
        Ok(completion)
    }

    fn cache_write(
        &mut self,
        ds: usize,
        node: usize,
        io: &BlockIo,
        arrival: SimTime,
        home_node: usize,
    ) -> Result<IoCompletion, IoError> {
        let persist = {
            let Some(stage) = self.cache.as_mut() else {
                return self.service_block(ds, *io, arrival, home_node);
            };
            stage.writes_since_persist[node] += io.size_blocks;
            let persist = stage.writes_since_persist[node] >= PERSIST_INTERVAL;
            if persist {
                stage.writes_since_persist[node] = 0;
            }
            persist
        };
        if persist {
            // Barrier write: ordered through the device's persist chain;
            // the cache keeps a clean copy (the device holds the data).
            let completion = self.service_block(ds, *io, arrival, home_node)?;
            let s = self.stage_access_blocks(
                node,
                io.block,
                io.size_blocks,
                false,
                AccessClass::Normal,
            );
            self.stage_settle(ds, node, &s, completion.done);
            return Ok(completion);
        }
        // Absorbed write: dirty admission at the stage, completing at hit
        // latency once the payload reached the device's node.
        let submit_at = self.net_transfer(home_node, node, io.size_blocks as u64 * 4096, arrival);
        self.stage_note_served(io.stream);
        let s = self.stage_access_blocks(node, io.block, io.size_blocks, true, AccessClass::Normal);
        let done = submit_at + HIT_LATENCY;
        if s.all_hit {
            emit(&self.trace, || TraceEvent::CacheHit {
                t: arrival.as_ns(),
                dev: DeviceKind::Nvdimm.to_string(),
                node: node as u32,
                block: io.block,
            });
        } else {
            let evicted = s.evictions > 0;
            emit(&self.trace, || TraceEvent::CacheMiss {
                t: arrival.as_ns(),
                dev: DeviceKind::Nvdimm.to_string(),
                node: node as u32,
                block: io.block,
                evicted,
            });
        }
        self.stage_settle(ds, node, &s, done);
        Ok(IoCompletion::finished(arrival, done))
    }

    /// The migration sweep's structural entry into the stage: the bypass
    /// verdict comes from the migration table entry driving this copy
    /// round, not from a per-request flag. Returns the service finish time
    /// when the stage served the read (bypass hit, or a plain hit with the
    /// bypass off); `None` sends the read to the device (and, with the
    /// bypass off, the block was admitted — the §5.3 eviction storm).
    pub(crate) fn cache_sweep_read(
        &mut self,
        ds: usize,
        block: u64,
        at: SimTime,
    ) -> Option<SimTime> {
        let node = self.staged_cache_node(ds)?;
        if self.effective_faults.is_some() && self.store_health(ds) == DeviceHealth::Offline {
            return None;
        }
        if self.cache.as_ref()?.cfg.sweep_bypass {
            let s = self.stage_access_blocks(node, block, 1, false, AccessClass::Migrated);
            emit(&self.trace, || TraceEvent::CacheBypass {
                t: at.as_ns(),
                dev: DeviceKind::Nvdimm.to_string(),
                node: node as u32,
                block,
            });
            if self.metrics.is_some() {
                self.with_metrics(ds, |m, dev, node| {
                    m.counter_inc("cache_bypassed", dev, node)
                });
            }
            // A bypass hit serves the copy from cache without promotion;
            // a bypass miss reads the device without admission. Either
            // way the cache contents are untouched.
            s.hits.gt(&0).then(|| at + HIT_LATENCY)
        } else {
            let s = self.stage_access_blocks(node, block, 1, false, AccessClass::Normal);
            let hit = s.all_hit;
            if hit {
                emit(&self.trace, || TraceEvent::CacheHit {
                    t: at.as_ns(),
                    dev: DeviceKind::Nvdimm.to_string(),
                    node: node as u32,
                    block,
                });
            } else {
                let evicted = s.evictions > 0;
                emit(&self.trace, || TraceEvent::CacheMiss {
                    t: at.as_ns(),
                    dev: DeviceKind::Nvdimm.to_string(),
                    node: node as u32,
                    block,
                    evicted,
                });
            }
            self.stage_settle(ds, node, &s, at);
            hit.then(|| at + HIT_LATENCY)
        }
    }

    /// Drops every cached block of `vmdk`'s extent on datastore `ds`
    /// (without charging write-backs: the extent is being released or
    /// rolled back, so its cached bytes are dead). Call *before* the
    /// extent is removed from the datastore.
    pub(crate) fn cache_invalidate_extent(&mut self, ds: usize, vmdk: VmdkId) {
        let Some(node) = self.staged_cache_node(ds) else {
            return;
        };
        let Some(base) = self.datastores[ds].base_of(vmdk) else {
            return;
        };
        let len = self
            .workloads
            .iter()
            .find(|w| w.vmdk.id() == vmdk)
            .map(|w| w.vmdk.size_blocks())
            .unwrap_or(0);
        if let Some(stage) = self.cache.as_mut() {
            for b in base..base + len {
                stage.caches[node].invalidate(b);
            }
        }
    }

    /// Drops node `node`'s entire staged cache (volatile state lost to a
    /// power cut) and its persist-barrier progress.
    pub(crate) fn cache_drop_node(&mut self, node: usize) {
        if let Some(stage) = self.cache.as_mut() {
            if let Some(c) = stage.caches.get_mut(node) {
                let cfg = &stage.cfg;
                *c = BypassCache::new(LrfuCache::new(cfg.capacity_blocks, LRFU_LAMBDA));
            }
            if let Some(w) = stage.writes_since_persist.get_mut(node) {
                *w = 0;
            }
        }
    }

    /// Epoch hook: feeds the classifier from the observation builder's
    /// per-resident I/O counts, closes the classifier epoch, and publishes
    /// the hot set to both consumers — cache admission (via the stored
    /// verdicts) and the policy engine's migration-candidate ordering.
    pub(crate) fn cache_epoch(&mut self, observations: &[DeviceObservation]) {
        let hot = {
            let Some(stage) = self.cache.as_mut() else {
                return;
            };
            for o in observations {
                for r in &o.residents {
                    // Device stats miss stage-served requests; add them
                    // back (remove, not get: a VMDK resident on two
                    // datastores mid-migration must not double-count).
                    let served = stage.epoch_hits.remove(&r.vmdk.0).unwrap_or(0);
                    stage
                        .classifier
                        .observe(r.vmdk.0 as u64, r.io_count + served);
                }
            }
            stage.epoch_hits.clear();
            stage.classifier.end_epoch();
            stage
                .classifier
                .hot_ranges()
                .into_iter()
                .map(|r| VmdkId(r as u32))
                .collect::<Vec<_>>()
        };
        self.manager.observe_heat(&hot);
        if self.metrics.is_some() {
            let per_node: Vec<StageCounters> = self
                .cache
                .as_ref()
                .map(|s| s.counters.clone())
                .unwrap_or_default();
            if let Some(m) = &mut self.metrics {
                let dev = DeviceKind::Nvdimm.to_string();
                for (node, c) in per_node.iter().enumerate() {
                    let total = c.hits + c.misses;
                    if total > 0 {
                        m.gauge_set(
                            "cache_hit_ratio",
                            &dev,
                            node as u32,
                            c.hits as f64 / total as f64,
                        );
                    }
                }
            }
        }
    }
}
