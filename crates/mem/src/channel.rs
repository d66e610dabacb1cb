//! One memory channel: the shared data bus plus its ranks and banks.
//!
//! The channel is where DRAM DIMM bursts and NVDIMM block transfers meet:
//! both occupy the same data bus (the paper's Fig. 1), so each kind of
//! traffic delays the other. Refresh windows periodically steal the bus too.

use crate::bank::Bank;
use crate::config::DramConfig;
use nvhsm_sim::SimTime;

/// Completion report of one bus occupation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// When the data burst started on the bus.
    pub start: SimTime,
    /// When the data burst finished (request completion).
    pub done: SimTime,
}

/// A single memory channel with `ranks × banks` banks and one data bus.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_free: SimTime,
    nvdimm_bursts: u64,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(cfg: &DramConfig) -> Self {
        Channel {
            cfg: cfg.clone(),
            banks: (0..cfg.ranks * cfg.banks).map(|_| Bank::new()).collect(),
            bus_free: SimTime::ZERO,
            nvdimm_bursts: 0,
        }
    }

    fn bank_index(&self, rank: usize, bank: usize) -> usize {
        rank * self.cfg.banks + bank
    }

    /// Pushes `t` past any refresh window it falls into. Refresh commands
    /// fire every `refresh_interval` and block the channel for
    /// `refresh_row_time`.
    fn after_refresh(&self, t: SimTime) -> SimTime {
        let trefi = self.cfg.refresh_interval().as_ns();
        if trefi == 0 {
            return t;
        }
        let trfc = self.cfg.refresh_row_time.as_ns();
        let offset = t.as_ns() % trefi;
        if offset < trfc {
            SimTime::from_ns(t.as_ns() - offset + trfc)
        } else {
            t
        }
    }

    /// Performs one DRAM line access (read or write; timing symmetric in
    /// this model) on `(rank, bank, row)` arriving at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `rank`/`bank` are out of range.
    pub fn access(&mut self, rank: usize, bank: usize, row: u64, at: SimTime) -> BusGrant {
        let idx = self.bank_index(rank, bank);
        assert!(idx < self.banks.len(), "rank/bank out of range");
        let (_, cmd_latency, issue) = self.banks[idx].prepare_access(row, at, &self.cfg);
        let burst = self.cfg.burst_time();
        let earliest_data = issue + cmd_latency;
        let start = self.after_refresh(earliest_data.max(self.bus_free));
        let done = start + burst;
        self.bus_free = done;
        BusGrant { start, done }
    }

    /// Transfers one NVDIMM burst (64 B slice of a block I/O) arriving at
    /// `at`. NVDIMM bursts bypass bank timing (the NVDIMM has its own
    /// on-DIMM controller and synchronization buffer) but contend for the
    /// shared data bus exactly like DRAM bursts.
    pub fn nvdimm_burst(&mut self, at: SimTime) -> BusGrant {
        let burst = self.cfg.burst_time();
        let start = self.after_refresh(at.max(self.bus_free));
        let done = start + burst;
        self.bus_free = done;
        self.nvdimm_bursts += 1;
        BusGrant { start, done }
    }

    /// NVDIMM bursts served.
    pub fn nvdimm_bursts(&self) -> u64 {
        self.nvdimm_bursts
    }

    /// Aggregate row-buffer hit statistics across all banks.
    pub fn row_hit_rate(&self) -> f64 {
        let hits: u64 = self.banks.iter().map(Bank::hits).sum();
        let misses: u64 = self.banks.iter().map(Bank::misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> Channel {
        Channel::new(&DramConfig::ddr3_1600())
    }

    #[test]
    fn accesses_serialize_on_the_bus() {
        let mut c = chan();
        // Two simultaneous accesses to different banks still share the bus.
        let g0 = c.access(0, 0, 0, SimTime::ZERO);
        let g1 = c.access(0, 1, 0, SimTime::ZERO);
        assert!(g1.start >= g0.done);
    }

    #[test]
    fn nvdimm_bursts_queue_behind_dram() {
        let mut c = chan();
        let g0 = c.access(0, 0, 0, SimTime::ZERO);
        let g1 = c.nvdimm_burst(SimTime::ZERO);
        assert!(g1.start >= g0.done);
        assert_eq!(c.nvdimm_bursts(), 1);
    }

    #[test]
    fn dram_queues_behind_nvdimm_too() {
        let mut c = chan();
        let g0 = c.nvdimm_burst(SimTime::ZERO);
        let g1 = c.access(0, 0, 0, SimTime::ZERO);
        assert!(g1.start >= g0.done);
    }

    #[test]
    fn idle_channel_access_latency_reasonable() {
        let mut c = chan();
        // t = 3000 ns is well clear of the 110 ns refresh window that opens
        // every 7812 ns.
        let t0 = SimTime::from_ns(3_000);
        let g = c.access(0, 0, 0, t0);
        // Closed-row access: act_to_rw (14 ns) + burst (5 ns) ≈ 19 ns.
        let latency = g.done - t0;
        assert!(latency.as_ns() >= 15 && latency.as_ns() <= 30, "{latency}");
    }

    #[test]
    fn refresh_window_blocks_start() {
        let c = chan();
        // t=0 is the start of a refresh window (offset 0 < 110 ns).
        let pushed = c.after_refresh(SimTime::from_ns(50));
        assert_eq!(pushed, SimTime::from_ns(110));
        // Outside the window nothing changes.
        let t = SimTime::from_ns(500);
        assert_eq!(c.after_refresh(t), t);
    }

    #[test]
    fn row_hit_rate_counts() {
        let mut c = chan();
        c.access(0, 0, 1, SimTime::ZERO);
        c.access(0, 0, 1, SimTime::from_us(1));
        c.access(0, 0, 2, SimTime::from_us(2));
        assert!((c.row_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
