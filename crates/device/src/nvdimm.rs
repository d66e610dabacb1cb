//! The NVDIMM device model: flash behind the DDR interface.
//!
//! The distinguishing property (paper §2.1) is that host transfers cross
//! the *shared* memory channel: ambient DRAM traffic adds contention delay
//! to every NVDIMM I/O, and NVDIMM I/O in turn disturbs DRAM traffic. The
//! device model composes:
//!
//! * the NAND backend of `nvhsm-flash` (Table 4 geometry),
//! * an LRFU buffer cache (400 MB by default, §3) with the §5.3.2 bypass
//!   and a per-request no-admit hint, reporting what it did for each
//!   request as a [`CacheAccess`] summary,
//! * an [`AnalyticBus`] for memory-channel contention (calibrated against
//!   the bank-level model in `nvhsm-mem`),
//! * an ordered persistent-write lane reproducing the §5.3.1 barrier
//!   effect, with the migration-aware scheduling switches.

use crate::fault_gate::FaultGate;
use crate::io::{DeviceKind, IoCompletion, IoError, IoOp, IoRequest};
use crate::stats::DeviceStats;
use crate::StorageDevice;
use nvhsm_cache::{AccessClass, BufferCache, BypassCache, CacheOutcome, LrfuCache};
use nvhsm_fault::DeviceFaultHook;
use nvhsm_flash::{FlashConfig, FlashDevice};
use nvhsm_mem::{AnalyticBus, DramConfig};
use nvhsm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// LRFU decay λ of the buffer cache (Table 4).
const LRFU_LAMBDA: f64 = 0.05;

/// §5.3.1/§5.3.2 switches for migration traffic handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationTuning {
    /// §5.3.2: migrated requests bypass the buffer cache.
    pub cache_bypass: bool,
    /// §5.3.1: migrated writes are scheduled free of the persistent-write
    /// ordering lane (Policy One + Two combined effect).
    pub sched_optimization: bool,
}

impl MigrationTuning {
    /// Everything off: the traditional controller.
    pub fn baseline() -> Self {
        MigrationTuning {
            cache_bypass: false,
            sched_optimization: false,
        }
    }

    /// Everything on: the paper's full architectural optimization.
    pub fn optimized() -> Self {
        MigrationTuning {
            cache_bypass: true,
            sched_optimization: true,
        }
    }
}

impl Default for MigrationTuning {
    fn default() -> Self {
        Self::baseline()
    }
}

/// NVDIMM device configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NvdimmConfig {
    /// NAND backend geometry/timing.
    pub flash: FlashConfig,
    /// Buffer cache capacity in 4 KiB blocks (400 MB ⇒ 102 400). Zero
    /// builds a cacheless device: every access goes to NAND.
    pub cache_blocks: usize,
    /// Memory-channel configuration used to derive bus timing.
    pub dram: DramConfig,
    /// Controller overhead added to every request.
    pub controller_overhead: SimDuration,
    /// Every `barrier_interval`-th persistent write acts as an ordering
    /// barrier in the persistent lane.
    pub barrier_interval: u32,
    /// Extra latency per unit of bus slowdown above idle. A block I/O is
    /// not one clean DMA burst: doorbells, descriptor fetches, completion
    /// polling and per-burst arbitration all queue behind the occupied
    /// memory-controller transaction queue (128 deep, Table 4), so
    /// contention costs far more than the 320 ns the payload itself needs.
    /// This term reproduces the magnitude of the paper's Fig. 4/5 (d)/7
    /// fluctuations.
    pub contention_sensitivity: SimDuration,
    /// Migration traffic handling.
    pub tuning: MigrationTuning,
}

impl NvdimmConfig {
    /// The paper's configuration: 256 GB NAND, 400 MB LRFU cache.
    pub fn table4() -> Self {
        NvdimmConfig {
            flash: FlashConfig::nvdimm_256g(),
            cache_blocks: 400 * 1024 * 1024 / 4096,
            dram: DramConfig::ddr3_1600(),
            controller_overhead: SimDuration::from_us(3),
            barrier_interval: 8,
            contention_sensitivity: SimDuration::from_us(60),
            tuning: MigrationTuning::baseline(),
        }
    }

    /// A scaled-down configuration for tests and fast experiments: 1 GiB
    /// NAND (same timing), 16 MiB cache (the paper's 400 MB cache scaled
    /// proportionally to the working sets used in the experiments).
    pub fn small_test() -> Self {
        NvdimmConfig {
            flash: FlashConfig::with_capacity_gib(1),
            cache_blocks: 4096,
            dram: DramConfig::ddr3_1600(),
            controller_overhead: SimDuration::from_us(3),
            barrier_interval: 8,
            contention_sensitivity: SimDuration::from_us(60),
            tuning: MigrationTuning::baseline(),
        }
    }

    /// Same configuration with different migration tuning.
    pub fn with_tuning(mut self, tuning: MigrationTuning) -> Self {
        self.tuning = tuning;
        self
    }
}

/// What the buffer cache did for the most recent request, summed over its
/// blocks: the per-submit summary a host reads to trace and count cache
/// behaviour without a second cache of its own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheAccess {
    /// Normal-class blocks found resident.
    pub hits: u32,
    /// Normal-class blocks that missed and were admitted.
    pub misses: u32,
    /// Blocks that took the bypass path (migrated with the §5.3.2 bypass
    /// on, or a no-admit read): served from the cache when resident, never
    /// admitted or promoted, and kept out of the hit ratio.
    pub bypassed: u32,
    /// Blocks evicted to make room.
    pub evictions: u32,
    /// Dirty victims among the evictions, written back to NAND.
    pub dirty_evictions: u32,
    /// The first block evicted, if any.
    pub first_victim: Option<u64>,
}

/// The NVDIMM storage device.
///
/// # Examples
///
/// ```
/// use nvhsm_device::{IoOp, IoRequest, NvdimmConfig, NvdimmDevice, StorageDevice};
/// use nvhsm_sim::SimTime;
///
/// let mut dev = NvdimmDevice::new(NvdimmConfig::small_test());
/// // Heavier ambient DRAM traffic -> slower NVDIMM I/O.
/// dev.set_ambient_bus_utilization(0.8);
/// let req = IoRequest::normal(0, 0, 1, IoOp::Read, SimTime::ZERO);
/// let busy = dev.submit(&req).latency;
/// # let _ = busy;
/// ```
#[derive(Debug)]
pub struct NvdimmDevice {
    cfg: NvdimmConfig,
    flash: FlashDevice,
    cache: BypassCache<LrfuCache>,
    bus: AnalyticBus,
    bus_util: f64,
    /// Completion horizon of the ordered persistent-write lane.
    persist_chain: SimTime,
    persist_writes_since_barrier: u32,
    stats: DeviceStats,
    write_backs: u64,
    last_access: CacheAccess,
    fault: FaultGate,
}

impl NvdimmDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if the flash or DRAM configuration is invalid.
    pub fn new(cfg: NvdimmConfig) -> Self {
        let flash = FlashDevice::new(cfg.flash.clone());
        let cache = BypassCache::new(LrfuCache::new(cfg.cache_blocks, LRFU_LAMBDA));
        let bus = AnalyticBus::new(&cfg.dram);
        NvdimmDevice {
            cfg,
            flash,
            cache,
            bus,
            bus_util: 0.0,
            persist_chain: SimTime::ZERO,
            persist_writes_since_barrier: 0,
            stats: DeviceStats::new(),
            write_backs: 0,
            last_access: CacheAccess::default(),
            fault: FaultGate::default(),
        }
    }

    /// The buffer cache (hit-ratio inspection for Fig. 15).
    pub fn cache(&self) -> &BypassCache<LrfuCache> {
        &self.cache
    }

    /// What the buffer cache did for the most recent request (empty when
    /// the fault gate rejected it).
    pub fn last_cache_access(&self) -> CacheAccess {
        self.last_access
    }

    /// Dirty write-backs performed so far.
    pub fn write_backs(&self) -> u64 {
        self.write_backs
    }

    /// The NAND backend.
    pub fn flash(&self) -> &FlashDevice {
        &self.flash
    }

    /// The cache path a read takes: the bypass path for a no-admit hint,
    /// or for migrated reads when the §5.3.2 bypass is on. Without the
    /// bypass mechanism the controller cannot tell the classes apart, so
    /// migrated reads take the normal path.
    fn read_class(&self, req: &IoRequest) -> AccessClass {
        if req.no_admit || (req.class == AccessClass::Migrated && self.cfg.tuning.cache_bypass) {
            AccessClass::Migrated
        } else {
            AccessClass::Normal
        }
    }

    /// One block's cache access, folded into the per-request summary.
    fn access_cache(&mut self, block: u64, write: bool, class: AccessClass) -> CacheOutcome {
        let outcome = self.cache.access_classified(block, write, class);
        let a = &mut self.last_access;
        match (class, outcome.hit) {
            (AccessClass::Migrated, _) => a.bypassed += 1,
            (AccessClass::Normal, true) => a.hits += 1,
            (AccessClass::Normal, false) => a.misses += 1,
        }
        if let Some((victim, dirty)) = outcome.evicted {
            a.evictions += 1;
            a.dirty_evictions += u32::from(dirty);
            a.first_victim.get_or_insert(victim);
        }
        outcome
    }

    fn handle_eviction(&mut self, evicted: Option<(u64, bool)>, now: SimTime) {
        if let Some((block, dirty)) = evicted {
            if dirty {
                // Asynchronous write-back: charged to the NAND backend but
                // not to the requester's latency.
                self.flash.write(block, now);
                self.write_backs += 1;
            }
        }
    }

    /// Protocol-level contention stall for one I/O at the current ambient
    /// utilization: `(slowdown − 1) × contention_sensitivity`.
    fn protocol_stall(&self) -> SimDuration {
        let slowdown = self.bus.slowdown(self.bus_util);
        SimDuration::from_ns_f64(
            self.cfg.contention_sensitivity.as_ns() as f64 * (slowdown - 1.0).max(0.0),
        )
    }

    fn serve_read(&mut self, req: &IoRequest) -> SimTime {
        let now = req.arrival;
        let class = self.read_class(req);
        let mut nand_done = now;
        for i in 0..req.size_blocks as u64 {
            let block = req.block + i;
            let outcome = self.access_cache(block, false, class);
            if !outcome.hit {
                nand_done = nand_done.max(self.flash.read(block, now));
            }
            self.handle_eviction(outcome.evicted, now);
        }
        // Data crosses the shared memory channel after NAND (or cache)
        // produced it; protocol transactions queue behind ambient DRAM
        // traffic.
        let bus_time = self.bus.transfer_time(req.bytes(), self.bus_util);
        nand_done + bus_time + self.protocol_stall() + self.cfg.controller_overhead
    }

    fn serve_write(&mut self, req: &IoRequest) -> SimTime {
        let now = req.arrival;
        let bus_time = self.bus.transfer_time(req.bytes(), self.bus_util);
        let data_in = now + bus_time + self.protocol_stall();

        if req.class == AccessClass::Migrated {
            // Destination-side migration writes go straight to NAND.
            let mut done = data_in;
            if self.cfg.tuning.sched_optimization {
                // Policy One + Two: free of the persistent lane, striped
                // across channels.
                for i in 0..req.size_blocks as u64 {
                    done = done.max(self.flash.write(req.block + i, data_in));
                }
            } else {
                // The conservative controller orders them behind the
                // persistent chain: writes within a barrier epoch stripe in
                // parallel, but every `barrier_interval`-th write closes an
                // epoch that the next one must wait for (Fig. 9 (a)).
                let mut epoch_done = data_in.max(self.persist_chain);
                for i in 0..req.size_blocks as u64 {
                    let start = data_in.max(self.persist_chain);
                    let w = self.flash.write(req.block + i, start);
                    epoch_done = epoch_done.max(w);
                    self.persist_writes_since_barrier += 1;
                    if self.persist_writes_since_barrier >= self.cfg.barrier_interval {
                        self.persist_writes_since_barrier = 0;
                        self.persist_chain = epoch_done;
                    }
                }
                done = epoch_done;
            }
            return done + self.cfg.controller_overhead;
        }

        // Normal writes are absorbed by the buffer cache (that is why
        // Table 1 lists ~5 µs NVDIMM writes vs 650 µs NAND programs).
        for i in 0..req.size_blocks as u64 {
            let block = req.block + i;
            let outcome = self.access_cache(block, true, AccessClass::Normal);
            self.handle_eviction(outcome.evicted, now);
        }
        // Ordered persistence lane: every barrier_interval-th write flushes
        // and extends the chain (consistency, §5.3.1).
        self.persist_writes_since_barrier += req.size_blocks;
        if self.persist_writes_since_barrier >= self.cfg.barrier_interval {
            self.persist_writes_since_barrier = 0;
            let start = data_in.max(self.persist_chain);
            self.persist_chain = self.flash.write(req.block, start);
        }
        data_in + self.cfg.controller_overhead
    }
}

impl StorageDevice for NvdimmDevice {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Nvdimm
    }

    fn submit(&mut self, req: &IoRequest) -> IoCompletion {
        self.last_access = CacheAccess::default();
        let done = match req.op {
            IoOp::Read => self.serve_read(req),
            IoOp::Write => self.serve_write(req),
        };
        let completion = IoCompletion::finished(req.arrival, done);
        self.stats.record(req, completion.latency);
        completion
    }

    fn try_submit(&mut self, req: &IoRequest) -> Result<IoCompletion, IoError> {
        // Failing windows reject before serve_* runs: the request never
        // reaches the cache, the persistent lane or NAND.
        self.last_access = CacheAccess::default();
        let disposition = self.fault.admit(DeviceKind::Nvdimm, req)?;
        let done = match req.op {
            IoOp::Read => self.serve_read(req),
            IoOp::Write => self.serve_write(req),
        };
        let completion = self
            .fault
            .finish(DeviceKind::Nvdimm, disposition, req, done);
        self.stats.record(req, completion.latency);
        Ok(completion)
    }

    fn install_fault_hook(&mut self, hook: Option<DeviceFaultHook>) {
        self.fault.install(hook);
    }

    fn install_trace_sink(&mut self, sink: Option<nvhsm_obs::SharedSink>) {
        self.fault.install_trace(sink);
    }

    fn logical_blocks(&self) -> u64 {
        self.flash.ftl().logical_pages()
    }

    fn free_space_ratio(&self) -> f64 {
        self.flash.free_space_ratio()
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DeviceStats {
        &mut self.stats
    }

    fn set_ambient_bus_utilization(&mut self, utilization: f64) {
        self.bus_util = utilization.clamp(0.0, 1.0);
    }

    fn discard_block(&mut self, block: u64) {
        self.cache.invalidate(block);
        self.flash.trim(block);
    }

    fn prefill(&mut self, blocks: std::ops::Range<u64>) {
        self.flash.prefill(blocks);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn drained_at(&self) -> SimTime {
        self.flash.drained_at().max(self.persist_chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvdimmDevice {
        NvdimmDevice::new(NvdimmConfig::small_test())
    }

    fn read(block: u64, at: SimTime) -> IoRequest {
        IoRequest::normal(0, block, 1, IoOp::Read, at)
    }

    fn write(block: u64, at: SimTime) -> IoRequest {
        IoRequest::normal(0, block, 1, IoOp::Write, at)
    }

    #[test]
    fn writes_are_fast_reads_miss_to_nand() {
        let mut d = dev();
        d.prefill(0..1000); // block 500 exists on NAND, uncached
        let w = d.submit(&write(0, SimTime::ZERO));
        // Buffered write: a few µs (Table 1's ~5 µs ballpark).
        assert!(w.latency.as_us_f64() < 10.0, "write {}", w.latency);
        // Cache hit read: fast.
        let r = d.submit(&read(0, w.done));
        assert!(r.latency.as_us_f64() < 10.0, "hit read {}", r.latency);
        // Cold read: NAND (50 µs) + transfer.
        let r2 = d.submit(&read(500, r.done));
        assert!(
            r2.latency.as_us_f64() > 50.0 && r2.latency.as_us_f64() < 100.0,
            "cold read {}",
            r2.latency
        );
    }

    #[test]
    fn bus_contention_slows_io_linearly_ish() {
        // Fig. 5 (d): NVDIMM latency vs memory intensity.
        let mut lats = Vec::new();
        for util in [0.0, 0.3, 0.6, 0.9] {
            let mut d = dev();
            d.prefill(0..1000);
            d.set_ambient_bus_utilization(util);
            let mut t = SimTime::ZERO;
            let mut sum = 0.0;
            for i in 0..200u64 {
                let c = d.submit(&read(i * 3 % 1000, t));
                sum += c.latency.as_us_f64();
                t += SimDuration::from_us(500);
            }
            lats.push(sum / 200.0);
        }
        assert!(
            lats.windows(2).all(|w| w[0] < w[1]),
            "latency not increasing with utilization: {lats:?}"
        );
    }

    /// A two-block cache over prefilled NAND, holding blocks 42 and 43
    /// (42 the older), with or without the §5.3.2 bypass.
    fn two_block_dev(cache_bypass: bool) -> NvdimmDevice {
        let mut cfg = NvdimmConfig::small_test().with_tuning(MigrationTuning {
            cache_bypass,
            sched_optimization: false,
        });
        cfg.cache_blocks = 2;
        let mut d = NvdimmDevice::new(cfg);
        d.prefill(0..100);
        d.submit(&read(42, SimTime::ZERO));
        d.submit(&read(43, SimTime::ZERO));
        d
    }

    /// The only cache outcome of the last request was one bypassed block.
    fn one_bypassed() -> CacheAccess {
        CacheAccess {
            bypassed: 1,
            ..CacheAccess::default()
        }
    }

    #[test]
    fn migrated_reads_bypass_cache_only_when_enabled() {
        let mut d = dev();
        // Baseline: migrated read inserts into the cache.
        let m = IoRequest::migrated(1, 42, 1, IoOp::Read, SimTime::ZERO);
        d.submit(&m);
        assert!(d.cache().contains(42));

        let mut d2 = NvdimmDevice::new(NvdimmConfig::small_test().with_tuning(MigrationTuning {
            cache_bypass: true,
            sched_optimization: false,
        }));
        d2.submit(&m);
        assert!(!d2.cache().contains(42));

        // With the bypass on, a sweep read of a resident block hits: no
        // NAND read, no promotion, no hit-ratio count.
        let mut d3 = two_block_dev(true);
        let (hits, drained) = (d3.cache().hits(), d3.flash().drained_at());
        let at = SimTime::from_ms(10);
        let sweep = d3.submit(&IoRequest::migrated(1, 42, 1, IoOp::Read, at));
        assert_eq!(d3.last_cache_access(), one_bypassed());
        assert_eq!(d3.flash().drained_at(), drained, "the hit read NAND");
        assert_eq!(d3.cache().hits(), hits);
        assert!(
            sweep.latency < SimDuration::from_us(10),
            "{}",
            sweep.latency
        );
        // Unpromoted, 42 is still the older block: the next admission
        // evicts it.
        d3.submit(&read(44, at));
        assert!(!d3.cache().contains(42) && d3.cache().contains(43));
    }

    #[test]
    fn no_admit_reads_neither_admit_nor_promote_but_count_as_workload() {
        // The hint works without the migration bypass.
        let mut d = two_block_dev(false);
        let at = SimTime::from_ms(10);
        let cold = |block| IoRequest {
            no_admit: true,
            ..IoRequest::normal(7, block, 1, IoOp::Read, at)
        };
        // A miss is served from NAND and not admitted.
        d.submit(&cold(40));
        assert_eq!(d.last_cache_access(), one_bypassed());
        assert!(!d.cache().contains(40));
        // A hit is served from the cache and not promoted.
        d.submit(&cold(42));
        assert_eq!(d.last_cache_access(), one_bypassed());
        d.submit(&read(44, at));
        assert!(!d.cache().contains(42) && d.cache().contains(43));
        // Both hinted reads are the stream's workload traffic.
        let e = d.stats_mut().take_epoch(SimTime::from_ms(20));
        assert_eq!(e.per_stream_latency_us[&7].count(), 2);
        assert_eq!(e.migrated_ios, 0);
    }

    #[test]
    fn migration_writes_faster_with_sched_optimization() {
        let run = |opt: bool| -> SimTime {
            let mut d =
                NvdimmDevice::new(NvdimmConfig::small_test().with_tuning(MigrationTuning {
                    cache_bypass: true,
                    sched_optimization: opt,
                }));
            // Persistent write stream creates a chain.
            let mut t = SimTime::ZERO;
            for i in 0..64u64 {
                d.submit(&write(i, t));
                t += SimDuration::from_us(10);
            }
            // Burst of migration writes.
            let mut last = SimTime::ZERO;
            for i in 0..64u64 {
                let m = IoRequest::migrated(1, 2000 + i, 1, IoOp::Write, t);
                last = d.submit(&m).done;
            }
            last
        };
        let base = run(false);
        let opt = run(true);
        assert!(
            opt < base,
            "sched optimization did not speed migration: {opt} !< {base}"
        );
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut cfg = NvdimmConfig::small_test();
        cfg.cache_blocks = 16;
        let mut d = NvdimmDevice::new(cfg);
        let mut t = SimTime::ZERO;
        for i in 0..64u64 {
            d.submit(&write(i, t));
            t += SimDuration::from_us(10);
        }
        assert!(d.write_backs() > 0);
    }

    #[test]
    fn discard_block_invalidates_everywhere() {
        let mut d = dev();
        d.submit(&write(7, SimTime::ZERO));
        d.discard_block(7);
        assert!(!d.cache().contains(7));
        assert_eq!(d.free_space_ratio(), 1.0);
    }

    #[test]
    fn fault_hook_rejects_and_stretches() {
        use nvhsm_fault::{DeviceFaultHook, DeviceFaultSchedule, FaultKind, FaultWindow};
        use nvhsm_sim::SimRng;

        let mut d = dev();
        d.prefill(0..1000);
        let schedule = DeviceFaultSchedule::from_windows(vec![
            FaultWindow {
                from: SimTime::from_ms(1),
                until: SimTime::from_ms(2),
                kind: FaultKind::Offline,
            },
            FaultWindow {
                from: SimTime::from_ms(3),
                until: SimTime::from_ms(4),
                kind: FaultKind::LatencySpike { factor: 5.0 },
            },
        ]);
        d.install_fault_hook(Some(DeviceFaultHook::new(schedule, SimRng::new(2))));

        // Healthy before the first window: same as submit would produce.
        let ok = d.try_submit(&read(500, SimTime::ZERO)).unwrap();
        assert!(ok.latency > SimDuration::ZERO);
        // Inside the offline window: rejected.
        let err = d.try_submit(&read(501, SimTime::from_ms(1))).unwrap_err();
        assert!(!err.is_retryable());
        // Inside the spike window: served, but ~5x slower than a healthy
        // cold read.
        let slow = d.try_submit(&read(502, SimTime::from_ms(3))).unwrap();
        let base = d.try_submit(&read(503, SimTime::from_ms(5))).unwrap();
        assert!(
            slow.latency.as_us_f64() > base.latency.as_us_f64() * 3.0,
            "spike {} vs base {}",
            slow.latency,
            base.latency
        );
    }

    #[test]
    fn stats_capture_mix() {
        let mut d = dev();
        d.submit(&read(0, SimTime::ZERO));
        d.submit(&write(0, SimTime::from_us(10)));
        let e = d.stats_mut().take_epoch(SimTime::from_ms(1));
        assert_eq!(e.reads, 1);
        assert_eq!(e.writes, 1);
    }
}
