//! Bank-level DDR3 main-memory model with shared-channel bus contention.
//!
//! This crate plays the role DRAMSim2 plays in the paper's evaluation stack:
//! it models the memory channels that DRAM DIMMs *and* NVDIMMs share
//! (Fig. 1/2 of the paper), which is where the paper's central phenomenon —
//! bus contention throttling NVDIMM I/O — comes from.
//!
//! Two levels of fidelity are provided:
//!
//! * [`DramSystem`] — a bank-level model with the paper's Table 4 timings
//!   (DDR3-1600, 4 channels, 4 ranks × 8 banks, 13.75 ns activate→read/write,
//!   18.75 ns read/write→precharge, 13.75 ns precharge, 64 ms refresh period,
//!   110 ns per-row refresh). DRAM requests are 64 B bursts; NVDIMM block
//!   transfers occupy the same data bus in 64 B bursts and therefore queue
//!   behind DRAM traffic.
//! * [`analytic::AnalyticBus`] — a utilization→contention-delay curve
//!   *calibrated against* the detailed model (see [`analytic::calibrate`]),
//!   used by device-level simulations that span minutes of virtual time
//!   where per-request DRAM simulation would be needlessly slow. The
//!   calibration is validated by tests in this crate.
//!
//! # Examples
//!
//! ```
//! use nvhsm_mem::{DramConfig, DramSystem, MemOp, MemRequest};
//! use nvhsm_sim::SimTime;
//!
//! let mut dram = DramSystem::new(DramConfig::ddr3_1600());
//! let done = dram.access(MemRequest::new(0x1000, MemOp::Read), SimTime::ZERO);
//! assert!(done > SimTime::ZERO);
//! ```

pub mod address;
pub mod analytic;
pub mod bank;
pub mod channel;
pub mod config;
pub mod system;
pub mod traffic;

pub use analytic::{AnalyticBus, CalibrationCurve};
pub use config::DramConfig;
pub use system::{DramSystem, MemOp, MemRequest, TransferOutcome};
pub use traffic::PoissonTraffic;
