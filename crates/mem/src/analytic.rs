//! Analytic bus-contention model, calibrated against the detailed
//! bank-level simulator.
//!
//! Device-level experiments span minutes of virtual time; driving the
//! bank-level model with per-request SPEC traffic (tens of millions of
//! requests per simulated second) would dominate runtime without changing
//! the studied behaviour. [`AnalyticBus`] captures the relationship the
//! detailed model exhibits — NVDIMM transfer slowdown as a function of DRAM
//! channel utilization — as an interpolated curve. [`calibrate`] measures
//! that curve from the detailed model; tests in this module check the two
//! agree.

use crate::config::DramConfig;
use crate::system::DramSystem;
use crate::traffic::{rate_for_utilization, PoissonTraffic};
use nvhsm_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// A piecewise-linear utilization → slowdown curve.
///
/// Slowdown is `realized_time / ideal_time ≥ 1` for an NVDIMM transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationCurve {
    /// `(utilization, slowdown)` points with strictly increasing utilization.
    points: Vec<(f64, f64)>,
}

impl CalibrationCurve {
    /// Builds a curve from `(utilization, slowdown)` samples.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given or utilizations are not
    /// strictly increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two calibration points");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "utilizations must be strictly increasing"
        );
        CalibrationCurve { points }
    }

    /// The closed-form fallback: a processor-sharing bus gives the NVDIMM a
    /// `(1 − u)` bandwidth share, i.e. slowdown `1 / (1 − u)` (clamped).
    pub fn processor_sharing() -> Self {
        let points = (0..=19)
            .map(|i| {
                let u = i as f64 * 0.05;
                (u, 1.0 / (1.0 - u.min(0.95)))
            })
            .collect();
        CalibrationCurve::new(points)
    }

    /// Interpolated slowdown at `utilization` (clamped to the curve's range).
    pub fn slowdown(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let first = self.points.first().expect("non-empty");
        let last = self.points.last().expect("non-empty");
        if u <= first.0 {
            return first.1;
        }
        if u >= last.0 {
            return last.1;
        }
        for w in self.points.windows(2) {
            let (u0, s0) = w[0];
            let (u1, s1) = w[1];
            if u <= u1 {
                let f = (u - u0) / (u1 - u0);
                return s0 + f * (s1 - s0);
            }
        }
        last.1
    }

    /// The raw calibration points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// Closed-form / calibrated bus model: how an NVDIMM transfer experiences
/// the shared memory bus. The detailed path goes through
/// [`DramSystem::nvdimm_transfer`] directly.
///
/// # Examples
///
/// ```
/// use nvhsm_mem::{AnalyticBus, DramConfig};
///
/// let bus = AnalyticBus::new(&DramConfig::ddr3_1600());
/// let idle = bus.transfer_time(4096, 0.0);
/// let busy = bus.transfer_time(4096, 0.8);
/// assert!(busy > idle * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticBus {
    line_bytes: u64,
    burst_ns: f64,
    curve: CalibrationCurve,
    /// Fixed-step samples of `curve` at `i / LUT_STEPS` for `i = 0..=LUT_STEPS`:
    /// `slowdown` is called per NVDIMM request, and indexing + one lerp beats
    /// the curve's segment scan. Derived from `curve` at construction.
    lut: Vec<f64>,
}

/// Resolution of the slowdown lookup table.
const LUT_STEPS: usize = 1024;

fn build_lut(curve: &CalibrationCurve) -> Vec<f64> {
    (0..=LUT_STEPS)
        .map(|i| curve.slowdown(i as f64 / LUT_STEPS as f64))
        .collect()
}

impl AnalyticBus {
    /// Builds the model with the processor-sharing default curve.
    pub fn new(cfg: &DramConfig) -> Self {
        Self::with_curve(cfg, CalibrationCurve::processor_sharing())
    }

    /// Builds the model with a curve measured by [`calibrate`].
    pub fn with_curve(cfg: &DramConfig, curve: CalibrationCurve) -> Self {
        AnalyticBus {
            line_bytes: cfg.line_bytes,
            burst_ns: cfg.burst_time().as_ns() as f64,
            lut: build_lut(&curve),
            curve,
        }
    }

    /// The curve in use.
    pub fn curve(&self) -> &CalibrationCurve {
        &self.curve
    }

    /// Slowdown factor at `utilization` (≥ 1), from the lookup table.
    ///
    /// Exact at every `i / LUT_STEPS` grid point — in particular
    /// `slowdown(0.0)` is the curve's own value, so an idle bus stays
    /// idle — and linearly interpolated between grid points.
    pub fn slowdown(&self, utilization: f64) -> f64 {
        let x = utilization.clamp(0.0, 1.0) * LUT_STEPS as f64;
        let i = (x as usize).min(LUT_STEPS - 1);
        let f = x - i as f64;
        let s0 = self.lut[i];
        s0 + f * (self.lut[i + 1] - s0)
    }

    /// Bus time to move `bytes` when competing DRAM traffic occupies the
    /// channel at `utilization` ∈ [0, 1).
    pub fn transfer_time(&self, bytes: u64, utilization: f64) -> SimDuration {
        let bursts = bytes.div_ceil(self.line_bytes) as f64;
        let ideal_ns = bursts * self.burst_ns;
        SimDuration::from_ns_f64(ideal_ns * self.slowdown(utilization))
    }

    /// Bus time to move `bytes` on an idle channel.
    pub fn ideal_time(&self, bytes: u64) -> SimDuration {
        let bursts = bytes.div_ceil(self.line_bytes) as f64;
        SimDuration::from_ns_f64(bursts * self.burst_ns)
    }
}

/// Measures the utilization → slowdown curve of the detailed bank-level
/// model by interleaving Poisson DRAM traffic with periodic 4 KiB NVDIMM
/// transfers on one channel.
///
/// `utilizations` must be strictly increasing values in `[0, 0.95]`.
///
/// # Panics
///
/// Panics if `utilizations` has fewer than two entries.
pub fn calibrate(cfg: &DramConfig, utilizations: &[f64], seed: u64) -> CalibrationCurve {
    assert!(utilizations.len() >= 2, "need at least two utilizations");
    let single = DramConfig {
        channels: 1,
        ..cfg.clone()
    };
    let mut points = Vec::with_capacity(utilizations.len());
    for (i, &u) in utilizations.iter().enumerate() {
        let slowdown = measure_slowdown(&single, u, seed.wrapping_add(i as u64));
        points.push((u, slowdown));
    }
    CalibrationCurve::new(points)
}

fn measure_slowdown(cfg: &DramConfig, utilization: f64, seed: u64) -> f64 {
    let mut sys = DramSystem::new(cfg.clone());
    let transfer_bytes = 4096u64;
    let transfer_gap = SimDuration::from_us(40);
    let horizon = SimTime::from_ms(4);

    let mut realized = 0.0f64;
    let mut ideal = 0.0f64;
    let mut next_transfer = SimTime::from_us(10);

    if utilization <= 0.0 {
        // No competing traffic: measure pure transfer time (still includes
        // refresh windows).
        while next_transfer < horizon {
            let out = sys.nvdimm_transfer(0, transfer_bytes, next_transfer);
            realized += (out.done - next_transfer).as_ns() as f64;
            ideal += out.ideal.as_ns() as f64;
            next_transfer += transfer_gap;
        }
        return (realized / ideal).max(1.0);
    }

    let rate = rate_for_utilization(utilization, cfg.line_bytes, cfg.bandwidth_bytes_per_sec);
    let mut traffic = PoissonTraffic::new(rate, 0.3, SimRng::new(seed));
    let (mut t_when, mut t_req) = traffic.next_request();

    loop {
        if t_when <= next_transfer {
            if t_when >= horizon {
                break;
            }
            sys.access(t_req, t_when);
            let next = traffic.next_request();
            t_when = next.0;
            t_req = next.1;
        } else {
            if next_transfer >= horizon {
                break;
            }
            let out = sys.nvdimm_transfer(0, transfer_bytes, next_transfer);
            realized += (out.done - next_transfer).as_ns() as f64;
            ideal += out.ideal.as_ns() as f64;
            next_transfer += transfer_gap;
        }
    }
    (realized / ideal).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_interpolates_and_clamps() {
        let c = CalibrationCurve::new(vec![(0.0, 1.0), (0.5, 2.0), (0.9, 10.0)]);
        assert_eq!(c.slowdown(-1.0), 1.0);
        assert_eq!(c.slowdown(0.25), 1.5);
        assert_eq!(c.slowdown(0.5), 2.0);
        assert!((c.slowdown(0.7) - 6.0).abs() < 1e-12);
        assert_eq!(c.slowdown(1.5), 10.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn curve_rejects_unsorted_points() {
        let _ = CalibrationCurve::new(vec![(0.5, 2.0), (0.1, 1.0)]);
    }

    #[test]
    fn analytic_bus_monotone_in_utilization() {
        let bus = AnalyticBus::new(&DramConfig::ddr3_1600());
        let mut last = SimDuration::ZERO;
        for i in 0..10 {
            let u = i as f64 * 0.1;
            let t = bus.transfer_time(4096, u);
            assert!(t >= last, "not monotone at u={u}");
            last = t;
        }
    }

    #[test]
    fn analytic_ideal_matches_bandwidth() {
        let bus = AnalyticBus::new(&DramConfig::ddr3_1600());
        assert_eq!(bus.ideal_time(4096).as_ns(), 320);
        assert_eq!(bus.transfer_time(4096, 0.0), bus.ideal_time(4096));
    }

    #[test]
    fn lut_slowdown_tracks_exact_curve() {
        let bus = AnalyticBus::new(&DramConfig::ddr3_1600());
        // Exact at zero (idle bus must stay idle)…
        assert_eq!(bus.slowdown(0.0), bus.curve().slowdown(0.0));
        // …and within LUT resolution everywhere else.
        for i in 0..=200 {
            let u = i as f64 / 200.0;
            let exact = bus.curve().slowdown(u);
            let lut = bus.slowdown(u);
            // Chords across the convex curve's breakpoints overshoot by up
            // to ~1e-3 relative at LUT resolution.
            assert!(
                (lut - exact).abs() <= exact * 5e-3,
                "u={u}: lut {lut} vs exact {exact}"
            );
        }
    }

    #[test]
    fn calibration_curve_is_increasing() {
        let cfg = DramConfig::ddr3_1600();
        let curve = calibrate(&cfg, &[0.0, 0.3, 0.6, 0.8], 42);
        let slowdowns: Vec<f64> = curve.points().iter().map(|p| p.1).collect();
        assert!(
            slowdowns.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "slowdowns {slowdowns:?}"
        );
        assert!(
            slowdowns[3] > 1.5,
            "high utilization barely slows: {slowdowns:?}"
        );
    }

    #[test]
    fn calibrated_curve_tracks_processor_sharing_shape() {
        // The detailed model should land in the same ballpark as the
        // processor-sharing closed form at moderate utilization.
        let cfg = DramConfig::ddr3_1600();
        let curve = calibrate(&cfg, &[0.0, 0.5], 7);
        let measured = curve.slowdown(0.5);
        let closed_form = CalibrationCurve::processor_sharing().slowdown(0.5);
        // Within 2x of each other.
        let ratio = measured / closed_form;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "measured {measured}, closed {closed_form}"
        );
    }
}
