//! A complete flash package: FTL + chips + channel buses.
//!
//! [`FlashDevice`] serves logical 4 KiB page reads and writes with realistic
//! timing: chip array operations (one at a time per chip), per-channel data
//! bus transfers, and GC work charged in the write path. It is the backend
//! of both the NVDIMM and the SSD device models in `nvhsm-device`.

use crate::chip::{Chip, ChipOp};
use crate::config::FlashConfig;
use crate::ftl::{Lpn, PageFtl};
use nvhsm_sim::{SimDuration, SimTime};
use std::ops::Range;

/// Kind of a completed flash operation, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashOpKind {
    /// Logical page read.
    Read,
    /// Logical page write.
    Write,
}

/// A flash package with timing.
///
/// # Examples
///
/// ```
/// use nvhsm_flash::{FlashConfig, FlashDevice};
/// use nvhsm_sim::SimTime;
///
/// let mut dev = FlashDevice::new(FlashConfig::small_test());
/// let w = dev.write(3, SimTime::ZERO);
/// let r = dev.read(3, w);
/// assert!(r > w);
/// ```
#[derive(Debug, Clone)]
pub struct FlashDevice {
    cfg: FlashConfig,
    ftl: PageFtl,
    chips: Vec<Chip>,
    channel_bus_free: Vec<SimTime>,
    /// `cfg.page_transfer_time()`, paid on every bus transfer.
    page_transfer: SimDuration,
}

impl FlashDevice {
    /// Builds an empty device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FlashConfig::validate`].
    pub fn new(cfg: FlashConfig) -> Self {
        let ftl = PageFtl::new(&cfg);
        let chips = (0..cfg.channels * cfg.chips_per_channel)
            .map(|_| Chip::new())
            .collect();
        let channel_bus_free = vec![SimTime::ZERO; cfg.channels];
        FlashDevice {
            page_transfer: cfg.page_transfer_time(),
            cfg,
            ftl,
            chips,
            channel_bus_free,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// The FTL (read access for stats like free-space ratio).
    pub fn ftl(&self) -> &PageFtl {
        &self.ftl
    }

    fn channel_of(&self, chip: u32) -> usize {
        chip as usize / self.cfg.chips_per_channel
    }

    /// Occupies the channel bus for one page transfer starting no earlier
    /// than `at`; returns the transfer completion time.
    fn bus_transfer(&mut self, channel: usize, at: SimTime) -> SimTime {
        let start = at.max(self.channel_bus_free[channel]);
        let done = start + self.page_transfer;
        self.channel_bus_free[channel] = done;
        done
    }

    /// Reads logical page `lpn`, arriving at `now`; returns completion time.
    ///
    /// Unmapped pages (never written) are served from the controller without
    /// touching NAND.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` exceeds the logical space.
    pub fn read(&mut self, lpn: Lpn, now: SimTime) -> SimTime {
        match self.ftl.lookup(lpn) {
            Some(ppn) => {
                let grant = self.chips[ppn.chip as usize].execute(ChipOp::Read, now, &self.cfg);
                let channel = self.channel_of(ppn.chip);
                self.bus_transfer(channel, grant.done)
            }
            None => now + self.cfg.sync_buffer_latency,
        }
    }

    /// Writes logical page `lpn`, arriving at `now`; returns completion
    /// time. GC work (page moves + erases) triggered by this write is
    /// charged on the target chip before the program, which is what
    /// produces the write cliff at low free space.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` exceeds the logical space.
    pub fn write(&mut self, lpn: Lpn, now: SimTime) -> SimTime {
        let outcome = self.ftl.write(lpn);
        let chip_idx = outcome.ppn.chip as usize;
        let channel = self.channel_of(outcome.ppn.chip);

        // Charge GC work serially on the chip ahead of the foreground
        // program.
        if outcome.gc.is_some() {
            for _ in 0..outcome.gc.moved_pages {
                self.chips[chip_idx].execute(ChipOp::Read, now, &self.cfg);
                self.chips[chip_idx].execute(ChipOp::Program, now, &self.cfg);
            }
            for _ in 0..outcome.gc.erased_blocks {
                self.chips[chip_idx].execute(ChipOp::Erase, now, &self.cfg);
            }
        }

        // Host data crosses the channel bus into the chip register, then the
        // program runs on the chip.
        let xfer_done = self.bus_transfer(channel, now);
        self.chips[chip_idx]
            .execute(ChipOp::Program, xfer_done, &self.cfg)
            .done
    }

    /// Drops the mapping for `lpn` without touching NAND (TRIM).
    pub fn trim(&mut self, lpn: Lpn) {
        self.ftl.trim(lpn);
    }

    /// Installs content for every lpn of `lpns` without charging
    /// simulation time — used to lay down pre-existing data (e.g. a VMDK
    /// image) before a run, so later reads exercise the real NAND path
    /// instead of the unmapped fast path. See [`PageFtl::prefill`].
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the logical space.
    pub fn prefill(&mut self, lpns: Range<Lpn>) {
        self.ftl.prefill(lpns);
    }

    /// Fraction of the logical space not holding live data.
    pub fn free_space_ratio(&self) -> f64 {
        self.ftl.free_space_ratio()
    }

    /// Earliest instant every chip and bus is idle (drain horizon).
    pub fn drained_at(&self) -> SimTime {
        let chip_max = self
            .chips
            .iter()
            .map(Chip::busy_until)
            .fold(SimTime::ZERO, SimTime::max);
        self.channel_bus_free
            .iter()
            .copied()
            .fold(chip_max, SimTime::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FlashDevice {
        FlashDevice::new(FlashConfig::small_test())
    }

    #[test]
    fn read_of_written_page_takes_nand_read_time() {
        let mut d = dev();
        let w = d.write(0, SimTime::ZERO);
        let r = d.read(0, w);
        let lat = r - w;
        // read 50us + transfer ~10us (+sync).
        assert!(lat.as_us_f64() > 55.0 && lat.as_us_f64() < 70.0, "{lat}");
    }

    #[test]
    fn unmapped_read_is_controller_fast() {
        let mut d = dev();
        let r = d.read(9, SimTime::ZERO);
        assert!(r.as_ns() < 1_000, "unmapped read too slow: {r}");
    }

    #[test]
    fn write_takes_program_time() {
        let mut d = dev();
        let w = d.write(0, SimTime::ZERO);
        // transfer ~10us + program 650us.
        assert!(w.as_us_f64() > 650.0 && w.as_us_f64() < 680.0, "{w}");
    }

    #[test]
    fn parallel_writes_to_different_chips_overlap() {
        let mut d = dev();
        // Round-robin striping: 8 consecutive writes land on 8 chips.
        let mut dones = Vec::new();
        for lpn in 0..8 {
            dones.push(d.write(lpn, SimTime::ZERO));
        }
        // If they were serialized, the last would finish at ~8*660us; with
        // channel parallelism (4 channels × 2 chips) it must be far sooner.
        let last = dones.iter().max().unwrap();
        assert!(last.as_us_f64() < 2.0 * 680.0, "no parallelism: {last}");
    }

    #[test]
    fn same_chip_writes_serialize() {
        let mut d = dev();
        let chips = d.cfg.channels * d.cfg.chips_per_channel;
        // lpn 0 and lpn 0+chips hit the same chip under round-robin.
        let w0 = d.write(0, SimTime::ZERO);
        let mut w_same = SimTime::ZERO;
        for lpn in 1..=chips as u64 {
            w_same = d.write(lpn, SimTime::ZERO);
        }
        assert!(w_same > w0, "expected serialization on the same chip");
    }

    #[test]
    fn gc_cliff_shows_in_write_latency() {
        let mut cfg = FlashConfig::small_test();
        cfg.over_provisioning = 0.1;
        let mut d = FlashDevice::new(cfg);
        let logical = d.ftl().logical_pages();
        let mut now = SimTime::ZERO;
        // Mean latency of one write per lpn, each issued when the previous
        // one completes, µs.
        let mut pass = |d: &mut FlashDevice| {
            let start = now;
            for lpn in 0..logical {
                now = d.write(lpn, now);
            }
            (now - start).as_us_f64() / logical as f64
        };
        // Fill the device fully.
        let fill_mean = pass(&mut d);
        // Overwrite churn at ~0 free space triggers GC in the write path.
        let churn_mean = (pass(&mut d) + pass(&mut d)) / 2.0;
        assert!(d.ftl().gc_runs() > 0, "no GC ran");
        assert!(
            churn_mean > fill_mean,
            "write cliff missing: {churn_mean} <= {fill_mean}"
        );
    }

    #[test]
    fn trim_keeps_reads_unmapped() {
        let mut d = dev();
        let w = d.write(4, SimTime::ZERO);
        d.trim(4);
        let r = d.read(4, w);
        assert!((r - w).as_ns() < 1_000);
        assert_eq!(d.free_space_ratio(), 1.0);
    }

    #[test]
    fn drained_at_covers_all_components() {
        let mut d = dev();
        let w = d.write(0, SimTime::ZERO);
        assert!(d.drained_at() >= w);
    }
}
