//! NAND flash simulation: chips, channels, page-level FTL with garbage
//! collection, and the paper's migration-aware controller scheduling.
//!
//! This crate plays the role NANDFlashSim plays in the paper's stack — it is
//! the storage backend of both the NVDIMM and the PCIe SSD device models
//! (they share NAND geometry in Table 4: 16 channels × 4 chips, 128 pages
//! per 4 KiB-page block, 50 µs reads, 650 µs programs, 2 ms erases).
//!
//! Main entry points:
//!
//! * [`FlashDevice`] — a complete flash package: FTL + chips + channel
//!   buses, serving logical page reads/writes with GC-induced write-cliff
//!   behaviour at low free space.
//! * [`sched`] — the §5.3.1 write-scheduling simulator: persistence barriers
//!   vs. channel parallelism, *Policy One* (migrated writes ignore
//!   barriers), *Policy Two* (persistent writes prioritized), and the
//!   non-persistent barrier that bounds migrated-write delay (Fig. 9/10).
//!   Its three entry points — [`sched::simulate`],
//!   [`sched::simulate_traced`] and [`sched::simulate_detailed_traced`]
//!   (which also returns per-request completion times, for Fig. 9) —
//!   funnel through one internal simulate path, so its `BarrierDecision`
//!   trace taps fire identically however a caller drives it.
//!
//! In the node simulation this crate sits entirely inside the *device
//! service* stage of the shared data-path pipeline (`nvhsm-core`'s
//! `node::datapath`, DESIGN.md §12): requests reach it only after routing
//! and the fault gate, and its completion times feed the pipeline's single
//! latency-accounting point.
//!
//! # Examples
//!
//! ```
//! use nvhsm_flash::{FlashConfig, FlashDevice};
//! use nvhsm_sim::SimTime;
//!
//! let mut dev = FlashDevice::new(FlashConfig::small_test());
//! let done = dev.write(0, SimTime::ZERO);
//! let read_done = dev.read(0, done);
//! assert!(read_done > done);
//! ```

pub mod chip;
pub mod config;
pub mod device;
pub mod ftl;
pub mod sched;

pub use chip::Chip;
pub use config::FlashConfig;
pub use device::{FlashDevice, FlashOpKind};
pub use ftl::{FtlError, PageFtl};
pub use sched::{SchedConfig, SchedPolicy, SchedStats, WriteClass, WriteRequest};
