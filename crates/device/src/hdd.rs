//! The SATA HDD device model.
//!
//! A single-actuator mechanical model: random accesses pay a seek plus half
//! a rotation; sequential accesses stream at the media rate. The service
//! point is one head, so everything serializes — the textbook reason HDD
//! latency rises *linearly* with the random fraction (Fig. 5 (c)) and with
//! outstanding I/Os.

use crate::fault_gate::FaultGate;
use crate::io::{DeviceKind, IoCompletion, IoError, IoRequest};
use crate::stats::DeviceStats;
use crate::StorageDevice;
use nvhsm_fault::DeviceFaultHook;
use nvhsm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// HDD configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HddConfig {
    /// Logical capacity in 4 KiB blocks.
    pub capacity_blocks: u64,
    /// Average seek time for a random access.
    pub avg_seek: SimDuration,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Sustained media transfer rate in bytes/second.
    pub media_rate: u64,
    /// Fixed command overhead (interface + controller).
    pub command_overhead: SimDuration,
}

impl HddConfig {
    /// The paper's Table 4 disk: 1 TB, 7200 rpm, SATA 6 Gb/s.
    pub fn table4() -> Self {
        HddConfig {
            capacity_blocks: 1024 * 1024 * 1024 * 1024 / 4096,
            avg_seek: SimDuration::from_ms(8),
            rpm: 7200,
            media_rate: 150_000_000,
            command_overhead: SimDuration::from_us(100),
        }
    }

    /// A small-capacity variant for tests (timing unchanged).
    pub fn small_test() -> Self {
        HddConfig {
            capacity_blocks: 4 * 1024 * 1024 * 1024 / 4096,
            ..Self::table4()
        }
    }

    /// Average rotational delay (half a revolution).
    pub fn avg_rotation(&self) -> SimDuration {
        let rev_ns = 60.0e9 / self.rpm as f64;
        SimDuration::from_ns_f64(rev_ns / 2.0)
    }
}

/// The HDD device.
///
/// # Examples
///
/// ```
/// use nvhsm_device::{HddConfig, HddDevice, IoOp, IoRequest, StorageDevice};
/// use nvhsm_sim::SimTime;
///
/// let mut dev = HddDevice::new(HddConfig::small_test());
/// let c = dev.submit(&IoRequest::normal(0, 12345, 1, IoOp::Read, SimTime::ZERO));
/// assert!(c.latency.as_ms_f64() > 5.0); // seek + rotation
/// ```
#[derive(Debug)]
pub struct HddDevice {
    cfg: HddConfig,
    head_free: SimTime,
    /// Head position proxy: per-stream cursor (for sequential detection we
    /// rely on the stream cursor; for inter-stream interference the head is
    /// the single shared resource). Linearly scanned flat vec keyed by
    /// stream, like `DeviceStats`.
    cursor: Vec<(u32, u64)>,
    stats: DeviceStats,
    fault: FaultGate,
}

impl HddDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if capacity or media rate is zero.
    pub fn new(cfg: HddConfig) -> Self {
        assert!(cfg.capacity_blocks > 0, "capacity must be non-zero");
        assert!(cfg.media_rate > 0, "media rate must be non-zero");
        HddDevice {
            cfg,
            head_free: SimTime::ZERO,
            cursor: Vec::new(),
            stats: DeviceStats::new(),
            fault: FaultGate::default(),
        }
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns_f64(bytes as f64 * 1e9 / self.cfg.media_rate as f64)
    }

    /// Mechanical service: sequential detection, seek + rotation, head
    /// serialization. Returns the fault-free finish time and advances the
    /// cursor and head horizon.
    fn service(&mut self, req: &IoRequest) -> SimTime {
        let next = req.block + req.size_blocks as u64;
        let sequential = match self.cursor.iter_mut().find(|(s, _)| *s == req.stream) {
            Some((_, cursor)) => std::mem::replace(cursor, next) == req.block,
            None => {
                self.cursor.push((req.stream, next));
                false
            }
        };

        let mechanical = if sequential {
            SimDuration::ZERO
        } else {
            self.cfg.avg_seek + self.cfg.avg_rotation()
        };
        let service = mechanical + self.transfer_time(req.bytes()) + self.cfg.command_overhead;
        let start = req.arrival.max(self.head_free);
        let done = start + service;
        self.head_free = done;
        let _ = req.op; // reads and writes are mechanically symmetric here
        done
    }
}

impl StorageDevice for HddDevice {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Hdd
    }

    fn submit(&mut self, req: &IoRequest) -> IoCompletion {
        let done = self.service(req);
        let completion = IoCompletion::finished(req.arrival, done);
        self.stats.record(req, completion.latency);
        completion
    }

    fn try_submit(&mut self, req: &IoRequest) -> Result<IoCompletion, IoError> {
        // Failing windows reject before the head moves: cursor and busy
        // horizon stay untouched.
        let disposition = self.fault.admit(DeviceKind::Hdd, req)?;
        let done = self.service(req);
        let completion = self.fault.finish(DeviceKind::Hdd, disposition, req, done);
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
        self.cfg.capacity_blocks
    }

    fn free_space_ratio(&self) -> f64 {
        1.0 // no GC dynamics on a disk
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DeviceStats {
        &mut self.stats
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn drained_at(&self) -> SimTime {
        self.head_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoOp;
    use nvhsm_sim::SimRng;

    fn dev() -> HddDevice {
        HddDevice::new(HddConfig::small_test())
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut d = dev();
        let c = d.submit(&IoRequest::normal(0, 999, 1, IoOp::Read, SimTime::ZERO));
        // 8 ms seek + 4.17 ms rotation + overhead + transfer.
        assert!(c.latency.as_ms_f64() > 12.0 && c.latency.as_ms_f64() < 13.5);
    }

    #[test]
    fn sequential_access_streams() {
        let mut d = dev();
        let c0 = d.submit(&IoRequest::normal(0, 0, 1, IoOp::Read, SimTime::ZERO));
        let c1 = d.submit(&IoRequest::normal(0, 1, 1, IoOp::Read, c0.done));
        // No seek: only transfer + overhead (~130 µs).
        assert!(c1.latency.as_us_f64() < 300.0, "{}", c1.latency);
    }

    #[test]
    fn latency_vs_randomness_is_linear() {
        // Fig. 5 (c): mean latency grows ~linearly with random fraction.
        let mut means = Vec::new();
        for rand_frac in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let mut d = dev();
            let mut rng = SimRng::new(5);
            let mut cursor = 0u64;
            let mut t = SimTime::ZERO;
            let mut sum = 0.0;
            let n = 200;
            for _ in 0..n {
                // Random probes and the sequential run are separate streams
                // so the sequential cursor survives interleaving.
                let c = if rng.chance(rand_frac) {
                    d.submit(&IoRequest::normal(
                        1,
                        rng.below(1_000_000),
                        1,
                        IoOp::Read,
                        t,
                    ))
                } else {
                    cursor += 1;
                    d.submit(&IoRequest::normal(0, cursor, 1, IoOp::Read, t))
                };
                sum += c.latency.as_ms_f64();
                t = c.done; // closed loop: OIO = 1
            }
            means.push(sum / n as f64);
        }
        // Linearity: successive increments are similar (within 35%).
        let d1 = means[2] - means[0];
        let d2 = means[4] - means[2];
        assert!(
            means.windows(2).all(|w| w[0] < w[1]),
            "not monotone {means:?}"
        );
        assert!((d1 - d2).abs() / d1.max(d2) < 0.35, "not linear: {means:?}");
    }

    #[test]
    fn single_head_serializes_requests() {
        let mut d = dev();
        let c0 = d.submit(&IoRequest::normal(0, 10, 1, IoOp::Read, SimTime::ZERO));
        let c1 = d.submit(&IoRequest::normal(1, 999_999, 1, IoOp::Read, SimTime::ZERO));
        assert!(c1.done > c0.done);
        assert!(c1.latency > c0.latency);
    }

    #[test]
    fn offline_rejection_leaves_head_untouched() {
        use nvhsm_fault::{DeviceFaultHook, DeviceFaultSchedule, FaultKind, FaultWindow};

        let mut d = dev();
        let schedule = DeviceFaultSchedule::from_windows(vec![FaultWindow {
            from: SimTime::ZERO,
            until: SimTime::from_ms(100),
            kind: FaultKind::Offline,
        }]);
        d.install_fault_hook(Some(DeviceFaultHook::new(schedule, SimRng::new(6))));

        let err = d
            .try_submit(&IoRequest::normal(
                0,
                42,
                1,
                IoOp::Read,
                SimTime::from_ms(5),
            ))
            .unwrap_err();
        assert!(!err.is_retryable());
        // The head never moved: the rejected request cost no mechanical time.
        assert_eq!(d.drained_at(), SimTime::ZERO);
        // After recovery the same request serves normally.
        let c = d
            .try_submit(&IoRequest::normal(
                0,
                42,
                1,
                IoOp::Read,
                SimTime::from_ms(100),
            ))
            .unwrap();
        assert!(c.latency.as_ms_f64() > 5.0);
    }

    #[test]
    fn oio_latency_grows_linearly() {
        // Fig. 5 (a) analogue on the HDD: latency ∝ queue depth.
        let mut means = Vec::new();
        for oio in [1u32, 2, 4, 8] {
            let mut d = dev();
            let mut rng = SimRng::new(9);
            let mut sum = 0.0;
            let mut count = 0.0;
            let mut t = SimTime::ZERO;
            for _round in 0..20 {
                let mut last = t;
                for _ in 0..oio {
                    let c = d.submit(&IoRequest::normal(
                        0,
                        rng.below(1_000_000),
                        1,
                        IoOp::Read,
                        t,
                    ));
                    sum += c.latency.as_ms_f64();
                    count += 1.0;
                    last = c.done;
                }
                t = last;
            }
            means.push(sum / count);
        }
        assert!(means.windows(2).all(|w| w[0] < w[1]), "{means:?}");
        // Doubling OIO should roughly double mean queueing latency.
        let ratio = means[3] / means[0];
        assert!(ratio > 3.0, "ratio {ratio}, means {means:?}");
    }
}
