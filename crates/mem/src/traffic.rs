//! Background DRAM traffic injection.
//!
//! SPEC-like memory-intensive applications are modeled as Poisson streams of
//! line requests with configurable locality. The injector produces requests
//! in time order so they can be interleaved with NVDIMM transfers in an
//! activity-scan simulation.

use crate::system::{MemOp, MemRequest};
use nvhsm_sim::{SimDuration, SimRng, SimTime};

/// Lines (64 B) the stream's addresses range over: a 512 MiB footprint.
const FOOTPRINT_LINES: u64 = 512 * 1024 * 1024 / 64;

/// A Poisson DRAM request stream.
///
/// # Examples
///
/// ```
/// use nvhsm_mem::PoissonTraffic;
/// use nvhsm_sim::{SimRng, SimTime};
///
/// let mut t = PoissonTraffic::new(1_000_000.0, 0.3, SimRng::new(1));
/// let (when, _req) = t.next_request();
/// assert!(when > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonTraffic {
    /// Requests per second.
    rate: f64,
    /// Fraction of writes in the stream.
    write_ratio: f64,
    /// Probability that a request continues the current sequential run
    /// (drives row-buffer hit rate).
    sequential_prob: f64,
    rng: SimRng,
    clock: SimTime,
    cursor_addr: u64,
}

impl PoissonTraffic {
    /// Creates a stream with `rate` requests/second and the given write
    /// ratio, over a default 512 MiB footprint with 70 % sequential runs.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn new(rate: f64, write_ratio: f64, rng: SimRng) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "invalid traffic rate");
        PoissonTraffic {
            rate,
            write_ratio: write_ratio.clamp(0.0, 1.0),
            sequential_prob: 0.7,
            rng,
            clock: SimTime::ZERO,
            cursor_addr: 0,
        }
    }

    /// Overrides the sequential-run probability.
    pub fn with_sequential_prob(mut self, p: f64) -> Self {
        self.sequential_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Draws the next request and its arrival time (strictly increasing).
    pub fn next_request(&mut self) -> (SimTime, MemRequest) {
        let gap_ns = self.rng.exponential(1e9 / self.rate).max(1.0);
        self.clock += SimDuration::from_ns_f64(gap_ns);
        if self.rng.chance(self.sequential_prob) {
            self.cursor_addr = (self.cursor_addr + 1) % FOOTPRINT_LINES;
        } else {
            self.cursor_addr = self.rng.below(FOOTPRINT_LINES);
        }
        let op = if self.rng.chance(self.write_ratio) {
            MemOp::Write
        } else {
            MemOp::Read
        };
        (self.clock, MemRequest::new(self.cursor_addr * 64, op))
    }

    /// Skips the stream's clock forward to `at` without emitting requests
    /// (used when a phase is compute-bound and memory-idle).
    pub fn fast_forward(&mut self, at: SimTime) {
        self.clock = self.clock.max(at);
    }
}

/// Converts a desired channel utilization into a request rate for one
/// channel, given line size and bandwidth.
///
/// `utilization` is the fraction of data-bus time occupied by DRAM bursts.
pub fn rate_for_utilization(utilization: f64, line_bytes: u64, bandwidth: u64) -> f64 {
    let burst_ns = line_bytes as f64 * 1e9 / bandwidth as f64;
    (utilization.clamp(0.0, 1.0) * 1e9 / burst_ns).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_times_increase() {
        let mut t = PoissonTraffic::new(1e7, 0.3, SimRng::new(3));
        let mut last = SimTime::ZERO;
        for _ in 0..1000 {
            let (when, _) = t.next_request();
            assert!(when > last);
            last = when;
        }
    }

    #[test]
    fn realized_rate_close_to_target() {
        let rate = 1e7;
        let mut t = PoissonTraffic::new(rate, 0.0, SimRng::new(5));
        let n = 100_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = t.next_request().0;
        }
        let realized = n as f64 / last.as_secs_f64();
        assert!((realized - rate).abs() / rate < 0.05, "realized {realized}");
    }

    #[test]
    fn write_ratio_respected() {
        let mut t = PoissonTraffic::new(1e6, 0.25, SimRng::new(7));
        let writes = (0..40_000)
            .filter(|_| matches!(t.next_request().1.op, MemOp::Write))
            .count();
        let frac = writes as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn rate_for_utilization_round_trips() {
        // 50% utilization of a 12.8 GB/s channel with 64B lines:
        // burst = 5 ns, so rate = 0.5 / 5ns = 1e8 requests/s.
        let r = rate_for_utilization(0.5, 64, 12_800_000_000);
        assert!((r - 1e8).abs() / 1e8 < 1e-9, "rate {r}");
    }

    #[test]
    fn fast_forward_moves_clock() {
        let mut t = PoissonTraffic::new(1e6, 0.0, SimRng::new(9));
        t.fast_forward(SimTime::from_ms(5));
        let (when, _) = t.next_request();
        assert!(when > SimTime::from_ms(5));
    }

    #[test]
    fn sequential_prob_one_walks_linearly() {
        let mut t = PoissonTraffic::new(1e6, 0.0, SimRng::new(11)).with_sequential_prob(1.0);
        let a = t.next_request().1.addr;
        let b = t.next_request().1.addr;
        assert_eq!(b, a + 64);
    }
}
