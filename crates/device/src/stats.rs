//! Per-device workload statistics: the measurement side of the paper's
//! performance model.
//!
//! The storage manager samples each device once per management epoch and
//! obtains an [`EpochStats`]: read/write mix, random-access fractions,
//! request sizes, estimated outstanding I/Os and measured latencies (per
//! device and per workload stream) — exactly the `WC` vector of Eq. 2 plus
//! the measured performance `MP` of Eq. 3.

use crate::io::{IoOp, IoRequest};
use nvhsm_cache::AccessClass;
use nvhsm_sim::{OnlineStats, SimDuration, SimTime};
use std::collections::HashMap;

/// Rolling per-epoch accumulator kept inside each device.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    epoch_start: SimTime,
    reads: u64,
    writes: u64,
    seq_reads: u64,
    seq_writes: u64,
    read_blocks: u64,
    write_blocks: u64,
    latency: OnlineStats,
    /// Per-stream latency accumulators, keyed by stream id. A device
    /// serves only a handful of streams (its resident workloads plus the
    /// migration copy streams), so a linearly scanned flat vec beats a
    /// hash probe in the per-request hot path.
    per_stream: Vec<(u32, OnlineStats)>,
    /// Per-stream sequentiality cursors (next block if strictly
    /// sequential), same flat layout as `per_stream`.
    last_block: Vec<(u32, u64)>,
    migrated_ios: u64,
    lifetime: OnlineStats,
}

/// A closed epoch of device statistics.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch length.
    pub duration: SimDuration,
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Sequential reads among `reads`.
    pub seq_reads: u64,
    /// Sequential writes among `writes`.
    pub seq_writes: u64,
    /// Blocks read.
    pub read_blocks: u64,
    /// Blocks written.
    pub write_blocks: u64,
    /// Latency of normal-class requests, µs.
    pub latency_us: OnlineStats,
    /// Per-stream latency of normal-class requests, µs.
    pub per_stream_latency_us: HashMap<u32, OnlineStats>,
    /// Migration-class requests served (not counted in the mix features).
    pub migrated_ios: u64,
}

impl DeviceStats {
    /// Fresh statistics starting at t = 0.
    pub fn new() -> Self {
        DeviceStats::default()
    }

    /// Records one served request.
    pub fn record(&mut self, req: &IoRequest, latency: SimDuration) {
        if req.class == AccessClass::Migrated {
            self.migrated_ios += 1;
            // Migration traffic does not describe the workload: keep it out
            // of the modelled feature mix and the lifetime latency view.
            self.update_cursor(req);
            return;
        }
        self.lifetime.add(latency.as_us_f64());
        let sequential = self
            .last_block
            .iter()
            .any(|&(s, last)| s == req.stream && req.block == last);
        match req.op {
            IoOp::Read => {
                self.reads += 1;
                self.read_blocks += req.size_blocks as u64;
                if sequential {
                    self.seq_reads += 1;
                }
            }
            IoOp::Write => {
                self.writes += 1;
                self.write_blocks += req.size_blocks as u64;
                if sequential {
                    self.seq_writes += 1;
                }
            }
        }
        self.latency.add(latency.as_us_f64());
        match self.per_stream.iter_mut().find(|(s, _)| *s == req.stream) {
            Some((_, stats)) => stats.add(latency.as_us_f64()),
            None => {
                let mut stats = OnlineStats::new();
                stats.add(latency.as_us_f64());
                self.per_stream.push((req.stream, stats));
            }
        }
        self.update_cursor(req);
    }

    fn update_cursor(&mut self, req: &IoRequest) {
        let next = req.block + req.size_blocks as u64;
        match self.last_block.iter_mut().find(|(s, _)| *s == req.stream) {
            Some((_, last)) => *last = next,
            None => self.last_block.push((req.stream, next)),
        }
    }

    /// Closes the current epoch at `now` and starts a new one. Stream
    /// cursors and lifetime statistics persist across epochs.
    pub fn take_epoch(&mut self, now: SimTime) -> EpochStats {
        let stats = EpochStats {
            duration: now.saturating_since(self.epoch_start),
            reads: self.reads,
            writes: self.writes,
            seq_reads: self.seq_reads,
            seq_writes: self.seq_writes,
            read_blocks: self.read_blocks,
            write_blocks: self.write_blocks,
            latency_us: self.latency,
            // The public epoch view stays a map; it is built once per
            // epoch from the flat accumulator, off the per-request path.
            per_stream_latency_us: self.per_stream.drain(..).collect(),
            migrated_ios: self.migrated_ios,
        };
        self.epoch_start = now;
        self.reads = 0;
        self.writes = 0;
        self.seq_reads = 0;
        self.seq_writes = 0;
        self.read_blocks = 0;
        self.write_blocks = 0;
        self.latency = OnlineStats::new();
        self.migrated_ios = 0;
        stats
    }

    /// Mean normal-request latency over the device lifetime, µs.
    pub fn lifetime_mean_latency_us(&self) -> f64 {
        self.lifetime.mean()
    }

    /// Requests recorded over the device lifetime.
    pub fn lifetime_requests(&self) -> u64 {
        self.lifetime.count()
    }

    /// Clears lifetime statistics (epoch counters and stream cursors are
    /// kept). Used to discard warm-up periods before measurement.
    pub fn reset_lifetime(&mut self) {
        self.lifetime = OnlineStats::new();
    }
}

impl EpochStats {
    /// Total requests.
    pub fn io_count(&self) -> u64 {
        self.reads + self.writes
    }

    /// Write fraction among all requests (the paper's `wr_ratio`).
    pub fn wr_ratio(&self) -> f64 {
        if self.io_count() == 0 {
            0.0
        } else {
            self.writes as f64 / self.io_count() as f64
        }
    }

    /// Random fraction of reads (`rd_rand`).
    pub fn rd_rand(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            1.0 - self.seq_reads as f64 / self.reads as f64
        }
    }

    /// Random fraction of writes (`wr_rand`).
    pub fn wr_rand(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            1.0 - self.seq_writes as f64 / self.writes as f64
        }
    }

    /// Mean request size in 4 KiB blocks (`IOS`).
    pub fn mean_ios_blocks(&self) -> f64 {
        if self.io_count() == 0 {
            0.0
        } else {
            (self.read_blocks + self.write_blocks) as f64 / self.io_count() as f64
        }
    }

    /// Mean measured latency, µs (the `MP` of Eq. 3).
    pub fn mean_latency_us(&self) -> f64 {
        self.latency_us.mean()
    }

    /// Outstanding-I/O estimate by Little's law: arrival rate × mean
    /// latency (`OIOs`).
    pub fn oio(&self) -> f64 {
        if self.duration == SimDuration::ZERO || self.io_count() == 0 {
            return 0.0;
        }
        let rate = self.io_count() as f64 / self.duration.as_secs_f64();
        rate * self.mean_latency_us() * 1e-6
    }

    /// Outstanding-I/O estimate at an assumed per-request service time
    /// (µs): arrival rate × service. Use this instead of [`EpochStats::oio`]
    /// when the measured latency is polluted by something the model must
    /// NOT see (e.g. bus contention on an NVDIMM) — Little's law on the
    /// measured latency would leak that pollution into the OIO feature.
    pub fn oio_at(&self, service_us: f64) -> f64 {
        self.iops() * service_us * 1e-6
    }

    /// I/O throughput in requests per second.
    pub fn iops(&self) -> f64 {
        if self.duration == SimDuration::ZERO {
            0.0
        } else {
            self.io_count() as f64 / self.duration.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvhsm_sim::SimTime;

    fn req(stream: u32, block: u64, size: u32, op: IoOp) -> IoRequest {
        IoRequest::normal(stream, block, size, op, SimTime::ZERO)
    }

    #[test]
    fn mix_and_randomness_features() {
        let mut s = DeviceStats::new();
        // Stream 0: blocks 0,1,2 sequential reads (first is "random" — no
        // cursor yet), then a random jump.
        s.record(&req(0, 0, 1, IoOp::Read), SimDuration::from_us(10));
        s.record(&req(0, 1, 1, IoOp::Read), SimDuration::from_us(10));
        s.record(&req(0, 2, 1, IoOp::Read), SimDuration::from_us(10));
        s.record(&req(0, 100, 1, IoOp::Write), SimDuration::from_us(20));
        let e = s.take_epoch(SimTime::from_ms(1));
        assert_eq!(e.reads, 3);
        assert_eq!(e.writes, 1);
        assert_eq!(e.seq_reads, 2);
        assert!((e.wr_ratio() - 0.25).abs() < 1e-12);
        assert!((e.rd_rand() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.wr_rand(), 1.0);
        assert!((e.mean_ios_blocks() - 1.0).abs() < 1e-12);
        assert!((e.mean_latency_us() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_rollover_resets_counters_keeps_cursors() {
        let mut s = DeviceStats::new();
        s.record(&req(0, 5, 1, IoOp::Read), SimDuration::from_us(10));
        let _ = s.take_epoch(SimTime::from_ms(1));
        // Cursor survives: block 6 is sequential.
        s.record(&req(0, 6, 1, IoOp::Read), SimDuration::from_us(10));
        let e = s.take_epoch(SimTime::from_ms(2));
        assert_eq!(e.reads, 1);
        assert_eq!(e.seq_reads, 1);
        assert_eq!(e.duration, SimDuration::from_ms(1));
    }

    #[test]
    fn migrated_requests_excluded_from_mix() {
        let mut s = DeviceStats::new();
        let m = IoRequest::migrated(9, 0, 8, IoOp::Read, SimTime::ZERO);
        s.record(&m, SimDuration::from_us(50));
        s.record(&req(0, 0, 1, IoOp::Write), SimDuration::from_us(10));
        let e = s.take_epoch(SimTime::from_ms(1));
        assert_eq!(e.reads, 0);
        assert_eq!(e.writes, 1);
        assert_eq!(e.migrated_ios, 1);
        assert_eq!(e.wr_ratio(), 1.0);
    }

    #[test]
    fn oio_by_littles_law() {
        let mut s = DeviceStats::new();
        // 1000 requests in 1 ms at 100 µs each → OIO ≈ 1e6/s × 1e-4 s = 100.
        for i in 0..1000u64 {
            s.record(&req(0, i * 7, 1, IoOp::Read), SimDuration::from_us(100));
        }
        let e = s.take_epoch(SimTime::from_ms(1));
        assert!((e.oio() - 100.0).abs() < 1.0, "oio {}", e.oio());
        assert!((e.iops() - 1e6).abs() < 1e3);
    }

    #[test]
    fn per_stream_latencies_split() {
        let mut s = DeviceStats::new();
        s.record(&req(1, 0, 1, IoOp::Read), SimDuration::from_us(10));
        s.record(&req(2, 0, 1, IoOp::Read), SimDuration::from_us(30));
        let e = s.take_epoch(SimTime::from_ms(1));
        assert_eq!(e.per_stream_latency_us.len(), 2);
        assert!((e.per_stream_latency_us[&1].mean() - 10.0).abs() < 1e-12);
        assert!((e.per_stream_latency_us[&2].mean() - 30.0).abs() < 1e-12);
    }
}
