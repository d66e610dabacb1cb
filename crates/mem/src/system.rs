//! The full DRAM system: channels behind an address mapper, serving DRAM
//! line requests and NVDIMM block transfers on shared channels.

use crate::address::AddressMapper;
use crate::channel::Channel;
use crate::config::DramConfig;
use nvhsm_sim::{OnlineStats, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Kind of a DRAM line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOp {
    /// Read one cache line.
    Read,
    /// Write one cache line.
    Write,
}

/// One DRAM line request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Physical byte address.
    pub addr: u64,
    /// Read or write.
    pub op: MemOp,
}

impl MemRequest {
    /// Creates a request.
    pub fn new(addr: u64, op: MemOp) -> Self {
        MemRequest { addr, op }
    }
}

/// Result of an NVDIMM block transfer over a memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferOutcome {
    /// When the first burst hit the bus.
    pub start: SimTime,
    /// When the last burst left the bus.
    pub done: SimTime,
    /// Pure bus time the transfer would take on an idle channel.
    pub ideal: SimDuration,
}

impl TransferOutcome {
    /// Time lost to bus contention (and refresh) relative to an idle channel.
    pub fn stall(&self, submitted: SimTime) -> SimDuration {
        (self.done - submitted).saturating_sub(self.ideal)
    }
}

/// Bank-level DRAM + shared channel system.
///
/// Requests must be submitted in non-decreasing time order (activity-scan
/// simulation); interleaving DRAM traffic and NVDIMM transfers in time order
/// is exactly how the bus contention the paper studies arises.
///
/// # Examples
///
/// ```
/// use nvhsm_mem::{DramConfig, DramSystem, MemOp, MemRequest};
/// use nvhsm_sim::SimTime;
///
/// let mut sys = DramSystem::new(DramConfig::single_channel());
/// // Saturate the bus with DRAM traffic, then watch an NVDIMM page stall.
/// for i in 0..64 {
///     sys.access(MemRequest::new(i * 64, MemOp::Read), SimTime::ZERO);
/// }
/// let out = sys.nvdimm_transfer(0, 4096, SimTime::ZERO);
/// assert!(out.stall(SimTime::ZERO).as_ns() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DramSystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    dram_latency: OnlineStats,
    transfer_latency: OnlineStats,
}

impl DramSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DramConfig::validate`].
    pub fn new(cfg: DramConfig) -> Self {
        let mapper = AddressMapper::new(&cfg);
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        DramSystem {
            cfg,
            mapper,
            channels,
            dram_latency: OnlineStats::new(),
            transfer_latency: OnlineStats::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Serves one DRAM line request arriving at `now`; returns completion
    /// time.
    pub fn access(&mut self, req: MemRequest, now: SimTime) -> SimTime {
        let loc = self.mapper.decode(req.addr);
        let grant = self.channels[loc.channel].access(loc.rank, loc.bank, loc.row, now);
        self.dram_latency.add((grant.done - now).as_ns() as f64);
        grant.done
    }

    /// Transfers `bytes` of NVDIMM block I/O over `channel`, starting no
    /// earlier than `now`. The transfer is cut into line-sized bursts that
    /// contend with DRAM traffic individually.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range or `bytes` is zero.
    pub fn nvdimm_transfer(&mut self, channel: usize, bytes: u64, now: SimTime) -> TransferOutcome {
        assert!(channel < self.channels.len(), "channel out of range");
        assert!(bytes > 0, "zero-byte transfer");
        let bursts = bytes.div_ceil(self.cfg.line_bytes);
        let ch = &mut self.channels[channel];
        let mut start = None;
        let mut done = now;
        let mut cursor = now;
        for _ in 0..bursts {
            let grant = ch.nvdimm_burst(cursor);
            start.get_or_insert(grant.start);
            done = grant.done;
            cursor = grant.done;
        }
        let ideal = self.cfg.burst_time() * bursts;
        self.transfer_latency.add((done - now).as_ns() as f64);
        TransferOutcome {
            start: start.expect("at least one burst"),
            done,
            ideal,
        }
    }

    /// Mean DRAM request latency in nanoseconds.
    pub fn mean_dram_latency_ns(&self) -> f64 {
        self.dram_latency.mean()
    }

    /// Mean NVDIMM transfer latency in nanoseconds.
    pub fn mean_transfer_latency_ns(&self) -> f64 {
        self.transfer_latency.mean()
    }

    /// Number of DRAM requests served.
    pub fn dram_request_count(&self) -> u64 {
        self.dram_latency.count()
    }

    /// Per-channel row-buffer hit rate, averaged.
    pub fn row_hit_rate(&self) -> f64 {
        let sum: f64 = self.channels.iter().map(Channel::row_hit_rate).sum();
        sum / self.channels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_dram_access_is_fast() {
        let mut sys = DramSystem::new(DramConfig::ddr3_1600());
        let t0 = SimTime::from_us(1);
        let done = sys.access(MemRequest::new(4096, MemOp::Read), t0);
        let lat = done - t0;
        assert!(lat.as_ns() < 60, "idle latency {lat}");
    }

    #[test]
    fn transfer_ideal_time_matches_bandwidth() {
        let mut sys = DramSystem::new(DramConfig::single_channel());
        let out = sys.nvdimm_transfer(0, 4096, SimTime::from_us(1));
        // 4 KB at 12.8 GB/s = 320 ns = 64 bursts * 5 ns.
        assert_eq!(out.ideal.as_ns(), 320);
        // On an idle bus the realized time is close to ideal (refresh may
        // add one 110 ns window).
        assert!(out.stall(SimTime::from_us(1)).as_ns() <= 120);
    }

    #[test]
    fn contention_grows_with_dram_traffic() {
        // Fill the single channel with increasing DRAM request batches and
        // verify the NVDIMM transfer stall grows monotonically.
        let mut stalls = Vec::new();
        for batch in [0u64, 32, 128, 512] {
            let mut sys = DramSystem::new(DramConfig::single_channel());
            let now = SimTime::from_us(1);
            for i in 0..batch {
                sys.access(MemRequest::new(i * 64, MemOp::Read), now);
            }
            let out = sys.nvdimm_transfer(0, 4096, now);
            stalls.push(out.stall(now).as_ns());
        }
        assert!(
            stalls.windows(2).all(|w| w[0] <= w[1]),
            "stalls not monotone: {stalls:?}"
        );
        assert!(stalls[3] > stalls[0] + 1_000, "stalls: {stalls:?}");
    }

    #[test]
    fn transfers_delay_dram_requests() {
        let mut sys = DramSystem::new(DramConfig::single_channel());
        let now = SimTime::from_us(1);
        // A big NVDIMM transfer first...
        sys.nvdimm_transfer(0, 64 * 1024, now);
        // ...makes a subsequent DRAM access slow.
        let done = sys.access(MemRequest::new(0, MemOp::Read), now);
        assert!((done - now).as_ns() > 1_000);
    }

    #[test]
    fn sequential_addresses_hit_rows() {
        let mut sys = DramSystem::new(DramConfig::ddr3_1600());
        let mut t = SimTime::ZERO;
        for i in 0..1024u64 {
            t += SimDuration::from_ns(100);
            sys.access(MemRequest::new(i * 64, MemOp::Read), t);
        }
        assert!(sys.row_hit_rate() > 0.8, "hit rate {}", sys.row_hit_rate());
    }

    #[test]
    #[should_panic(expected = "zero-byte transfer")]
    fn zero_byte_transfer_rejected() {
        let mut sys = DramSystem::new(DramConfig::ddr3_1600());
        sys.nvdimm_transfer(0, 0, SimTime::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let mut sys = DramSystem::new(DramConfig::ddr3_1600());
        sys.access(MemRequest::new(0, MemOp::Write), SimTime::ZERO);
        sys.nvdimm_transfer(1, 4096, SimTime::ZERO);
        assert_eq!(sys.dram_request_count(), 1);
        assert!(sys.mean_dram_latency_ns() > 0.0);
        assert!(sys.mean_transfer_latency_ns() > 0.0);
    }
}
