//! Flash package geometry and timing configuration.
//!
//! Defaults reproduce Table 4 of the paper: 16 flash channels of 4 NAND
//! chips each, 128 pages per block, 4 KiB pages, 50 µs page read, 650 µs
//! page program, 2 ms block erase, 52 ns synchronization-buffer access and
//! 4096-deep request/command queues.

use nvhsm_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Geometry + timing of a flash package (NVDIMM backend or SSD backend).
///
/// # Examples
///
/// ```
/// use nvhsm_flash::FlashConfig;
/// let cfg = FlashConfig::nvdimm_256g();
/// assert_eq!(cfg.channels, 16);
/// assert_eq!(cfg.total_physical_pages(), 256 * 1024 * 1024 / 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashConfig {
    /// Number of flash channels.
    pub channels: usize,
    /// NAND chips (ways) per channel.
    pub chips_per_channel: usize,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_bytes: u32,
    /// Blocks per chip.
    pub blocks_per_chip: u32,
    /// Page read (cell → register) latency.
    pub read_latency: SimDuration,
    /// Page program (register → cell) latency.
    pub program_latency: SimDuration,
    /// Block erase latency.
    pub erase_latency: SimDuration,
    /// Synchronization-buffer access latency per command.
    pub sync_buffer_latency: SimDuration,
    /// Channel bus bandwidth in bytes/second (page transfer to/from chip
    /// register).
    pub channel_bandwidth: u64,
    /// Fraction of physical capacity reserved as over-provisioning
    /// (invisible to the logical space).
    pub over_provisioning: f64,
    /// GC trigger: start reclaiming when a channel's free blocks drop below
    /// this count.
    pub gc_low_watermark: u32,
    /// Request queue depth (admission limit for the device).
    pub request_queue_depth: usize,
}

impl FlashConfig {
    /// The paper's 256 GB NVDIMM backend.
    pub fn nvdimm_256g() -> Self {
        Self::with_capacity_gib(256)
    }

    /// The paper's 512 GB SSD backend.
    pub fn ssd_512g() -> Self {
        Self::with_capacity_gib(512)
    }

    /// Table 4 timing/geometry with an arbitrary physical capacity.
    ///
    /// # Panics
    ///
    /// Panics if `gib` is zero.
    pub fn with_capacity_gib(gib: u64) -> Self {
        assert!(gib > 0, "capacity must be non-zero");
        let channels = 16usize;
        let chips_per_channel = 4usize;
        let pages_per_block = 128u32;
        let page_bytes = 4096u32;
        let bytes = gib * 1024 * 1024 * 1024;
        let pages = bytes / page_bytes as u64;
        let blocks = pages / pages_per_block as u64;
        let blocks_per_chip = (blocks / (channels * chips_per_channel) as u64) as u32;
        FlashConfig {
            channels,
            chips_per_channel,
            pages_per_block,
            page_bytes,
            blocks_per_chip,
            read_latency: SimDuration::from_us(50),
            program_latency: SimDuration::from_us(650),
            erase_latency: SimDuration::from_ms(2),
            sync_buffer_latency: SimDuration::from_ns(52),
            // ONFI-class channel: 400 MB/s → a 4 KiB page moves in ~10 µs.
            channel_bandwidth: 400_000_000,
            over_provisioning: 0.07,
            gc_low_watermark: 2,
            request_queue_depth: 4096,
        }
    }

    /// A deliberately tiny geometry for fast unit tests: 4 channels × 2
    /// chips × 16 blocks × 16 pages (4 MiB physical).
    pub fn small_test() -> Self {
        FlashConfig {
            channels: 4,
            chips_per_channel: 2,
            pages_per_block: 16,
            page_bytes: 4096,
            blocks_per_chip: 16,
            read_latency: SimDuration::from_us(50),
            program_latency: SimDuration::from_us(650),
            erase_latency: SimDuration::from_ms(2),
            sync_buffer_latency: SimDuration::from_ns(52),
            channel_bandwidth: 400_000_000,
            over_provisioning: 0.2,
            gc_low_watermark: 2,
            request_queue_depth: 4096,
        }
    }

    /// Total physical pages across all chips.
    pub fn total_physical_pages(&self) -> u64 {
        self.channels as u64
            * self.chips_per_channel as u64
            * self.blocks_per_chip as u64
            * self.pages_per_block as u64
    }

    /// Logical pages exposed to the host (physical minus over-provisioning).
    pub fn logical_pages(&self) -> u64 {
        (self.total_physical_pages() as f64 * (1.0 - self.over_provisioning)) as u64
    }

    /// Time to move one page over the channel bus.
    pub fn page_transfer_time(&self) -> SimDuration {
        SimDuration::from_ns_f64(self.page_bytes as f64 * 1e9 / self.channel_bandwidth as f64)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.chips_per_channel == 0 {
            return Err("channels and chips_per_channel must be non-zero".into());
        }
        if self.pages_per_block == 0 || self.blocks_per_chip == 0 || self.page_bytes == 0 {
            return Err("geometry fields must be non-zero".into());
        }
        if !(0.0..1.0).contains(&self.over_provisioning) {
            return Err("over_provisioning must be in [0, 1)".into());
        }
        if self.blocks_per_chip <= self.gc_low_watermark {
            return Err("blocks_per_chip must exceed gc_low_watermark".into());
        }
        if self.channel_bandwidth == 0 {
            return Err("channel_bandwidth must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        Self::nvdimm_256g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_nvdimm_geometry() {
        let cfg = FlashConfig::nvdimm_256g();
        assert_eq!(cfg.channels, 16);
        assert_eq!(cfg.chips_per_channel, 4);
        assert_eq!(cfg.pages_per_block, 128);
        assert_eq!(cfg.page_bytes, 4096);
        assert_eq!(cfg.read_latency, SimDuration::from_us(50));
        assert_eq!(cfg.program_latency, SimDuration::from_us(650));
        assert_eq!(cfg.erase_latency, SimDuration::from_ms(2));
        assert_eq!(cfg.sync_buffer_latency, SimDuration::from_ns(52));
        cfg.validate().unwrap();
        // 256 GiB / 4 KiB pages.
        assert_eq!(cfg.total_physical_pages(), 67_108_864);
    }

    #[test]
    fn ssd_has_double_capacity() {
        assert_eq!(
            FlashConfig::ssd_512g().total_physical_pages(),
            2 * FlashConfig::nvdimm_256g().total_physical_pages()
        );
    }

    #[test]
    fn logical_capacity_reflects_over_provisioning() {
        let cfg = FlashConfig::small_test();
        let logical = cfg.logical_pages();
        let physical = cfg.total_physical_pages();
        assert!(logical < physical);
        assert!((logical as f64 / physical as f64 - 0.8).abs() < 0.01);
    }

    #[test]
    fn page_transfer_time_from_bandwidth() {
        let cfg = FlashConfig::small_test();
        // 4096 B at 400 MB/s = 10.24 µs.
        assert_eq!(cfg.page_transfer_time().as_ns(), 10_240);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = FlashConfig::small_test();
        cfg.over_provisioning = 1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = FlashConfig::small_test();
        cfg.blocks_per_chip = cfg.gc_low_watermark;
        assert!(cfg.validate().is_err());

        let mut cfg = FlashConfig::small_test();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());
    }
}
