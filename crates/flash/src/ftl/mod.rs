//! Page-level flash translation layer with greedy garbage collection.
//!
//! The FTL keeps a page-granularity logical→physical map (the paper adopts
//! the page-level FTL of Ban's NFTL line of work in both the SSD and the
//! NVDIMM controller), stripes writes round-robin across chips for channel
//! parallelism, and reclaims space with a greedy min-valid-cost victim
//! policy. When free space runs low, GC runs in the write path — which is
//! exactly the *write cliff* that the model's `free_space_ratio` feature
//! (Eq. 2 of the paper) exists to capture.
//!
//! The FTL itself is pure bookkeeping: it returns *what work happened*
//! (pages moved, blocks erased) and the device model charges the time.
//! [`PageFtl::prefill`] lays down a whole lpn range at once, leaving the
//! state one [`PageFtl::write`] per lpn would leave.

mod prefill;

use crate::config::FlashConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Logical page number.
pub type Lpn = u64;

/// FTL construction / write errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// The configuration failed [`FlashConfig::validate`].
    InvalidConfig(String),
    /// The geometry's physical page count exceeds `u32` addressing.
    GeometryTooLarge,
    /// The device genuinely ran out of physical space (cannot happen while
    /// over-provisioning holds).
    OutOfSpace,
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::InvalidConfig(why) => write!(f, "invalid flash config: {why}"),
            FtlError::GeometryTooLarge => write!(f, "geometry too large for u32 ppn"),
            FtlError::OutOfSpace => write!(f, "device out of physical space"),
        }
    }
}

impl std::error::Error for FtlError {}

const INVALID: u32 = u32::MAX;

/// A physical page location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ppn {
    /// Global chip index (`channel * chips_per_channel + way`).
    pub chip: u32,
    /// Block index within the chip.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// Garbage-collection work performed inside a write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcWork {
    /// Valid pages relocated (each costs a read + a program on the chip).
    pub moved_pages: u32,
    /// Blocks erased.
    pub erased_blocks: u32,
}

impl GcWork {
    /// Whether any GC work happened.
    pub fn is_some(&self) -> bool {
        self.moved_pages > 0 || self.erased_blocks > 0
    }
}

/// Outcome of a logical write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Where the new data landed.
    pub ppn: Ppn,
    /// GC work that had to run first (on the same chip).
    pub gc: GcWork,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Free,
    Open,
    Full,
}

/// Page-level FTL over the geometry in a [`FlashConfig`].
///
/// # Examples
///
/// ```
/// use nvhsm_flash::{FlashConfig, PageFtl};
///
/// let mut ftl = PageFtl::new(&FlashConfig::small_test());
/// let out = ftl.write(7);
/// assert_eq!(ftl.lookup(7), Some(out.ppn));
/// assert!(ftl.free_space_ratio() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PageFtl {
    cfg: FlashConfig,
    /// lpn → packed physical page index.
    map: Vec<u32>,
    /// physical page index → lpn.
    rmap: Vec<u32>,
    /// per-block count of valid pages.
    block_valid: Vec<u16>,
    block_state: Vec<BlockState>,
    /// per-chip free block stacks.
    free_blocks: Vec<Vec<u32>>,
    /// per-chip open block and its next write page.
    open: Vec<Option<(u32, u32)>>,
    next_chip: usize,
    live_pages: u64,
    gc_runs: u64,
    gc_moved: u64,
    /// Per-block erase counts (wear). The paper defers wear *leveling* to
    /// future work; we track wear so the deferral is measurable.
    erase_counts: Vec<u32>,
}

impl PageFtl {
    /// Builds an empty FTL.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FlashConfig::validate`] or its
    /// physical page count exceeds `u32` addressing; use [`PageFtl::try_new`]
    /// to handle those as errors.
    pub fn new(cfg: &FlashConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(ftl) => ftl,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds an empty FTL, rejecting invalid configurations.
    ///
    /// # Errors
    ///
    /// [`FtlError::InvalidConfig`] if the configuration fails
    /// [`FlashConfig::validate`]; [`FtlError::GeometryTooLarge`] if the
    /// physical page count exceeds `u32` addressing.
    pub fn try_new(cfg: &FlashConfig) -> Result<Self, FtlError> {
        cfg.validate().map_err(FtlError::InvalidConfig)?;
        let phys_pages = cfg.total_physical_pages();
        if phys_pages >= INVALID as u64 {
            return Err(FtlError::GeometryTooLarge);
        }
        let chips = cfg.channels * cfg.chips_per_channel;
        let total_blocks = chips as u32 * cfg.blocks_per_chip;
        Ok(PageFtl {
            cfg: cfg.clone(),
            map: vec![INVALID; cfg.logical_pages() as usize],
            rmap: vec![INVALID; phys_pages as usize],
            block_valid: vec![0; total_blocks as usize],
            block_state: vec![BlockState::Free; total_blocks as usize],
            free_blocks: (0..chips)
                .map(|_| (0..cfg.blocks_per_chip).rev().collect())
                .collect(),
            open: vec![None; chips],
            next_chip: 0,
            live_pages: 0,
            gc_runs: 0,
            gc_moved: 0,
            erase_counts: vec![0; total_blocks as usize],
        })
    }

    fn chips(&self) -> usize {
        self.cfg.channels * self.cfg.chips_per_channel
    }

    fn block_index(&self, chip: u32, block: u32) -> usize {
        (chip * self.cfg.blocks_per_chip + block) as usize
    }

    fn pack(&self, ppn: Ppn) -> u32 {
        (self.block_index(ppn.chip, ppn.block) as u32) * self.cfg.pages_per_block + ppn.page
    }

    fn unpack(&self, packed: u32) -> Ppn {
        let block_global = packed / self.cfg.pages_per_block;
        let page = packed % self.cfg.pages_per_block;
        Ppn {
            chip: block_global / self.cfg.blocks_per_chip,
            block: block_global % self.cfg.blocks_per_chip,
            page,
        }
    }

    /// Number of logical pages exposed.
    pub fn logical_pages(&self) -> u64 {
        self.map.len() as u64
    }

    /// Looks up the physical location of `lpn`.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the logical range.
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        let packed = self.map[lpn as usize];
        (packed != INVALID).then(|| self.unpack(packed))
    }

    /// Fraction of the logical space not holding live data (the model's
    /// `free_space_ratio` feature).
    pub fn free_space_ratio(&self) -> f64 {
        1.0 - self.live_pages as f64 / self.map.len() as f64
    }

    /// Live (mapped) logical pages.
    pub fn live_pages(&self) -> u64 {
        self.live_pages
    }

    /// Number of GC invocations so far.
    pub fn gc_runs(&self) -> u64 {
        self.gc_runs
    }

    /// Valid pages relocated by GC so far.
    pub fn gc_moved_pages(&self) -> u64 {
        self.gc_moved
    }

    /// Total block erases performed.
    pub fn total_erases(&self) -> u64 {
        self.erase_counts.iter().map(|&c| c as u64).sum()
    }

    /// Highest per-block erase count (the wear hot spot a leveling scheme
    /// would need to address).
    pub fn max_erase_count(&self) -> u32 {
        self.erase_counts.iter().copied().max().unwrap_or(0)
    }

    /// Wear imbalance: max erase count over the mean (1.0 = perfectly
    /// level). Greedy GC without leveling lets this grow — the effect the
    /// paper's future-work note is about.
    pub fn wear_imbalance(&self) -> f64 {
        let total = self.total_erases();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.erase_counts.len() as f64;
        self.max_erase_count() as f64 / mean.max(f64::MIN_POSITIVE)
    }

    fn invalidate(&mut self, packed: u32) {
        let ppn = self.unpack(packed);
        let bi = self.block_index(ppn.chip, ppn.block);
        debug_assert!(self.block_valid[bi] > 0);
        self.block_valid[bi] -= 1;
        self.rmap[packed as usize] = INVALID;
    }

    /// Allocates the next physical page on `chip`, opening a fresh block if
    /// needed. Returns `None` if the chip has no free block to open.
    fn allocate_on(&mut self, chip: usize) -> Option<Ppn> {
        let (block, page) = match self.open[chip] {
            Some(open) => open,
            None => {
                let block = self.free_blocks[chip].pop()?;
                let bi = self.block_index(chip as u32, block);
                self.block_state[bi] = BlockState::Open;
                (block, 0)
            }
        };
        let ppn = Ppn {
            chip: chip as u32,
            block,
            page,
        };
        let next = page + 1;
        if next == self.cfg.pages_per_block {
            let bi = self.block_index(chip as u32, block);
            self.block_state[bi] = BlockState::Full;
            self.open[chip] = None;
        } else {
            self.open[chip] = Some((block, next));
        }
        Some(ppn)
    }

    fn bind(&mut self, lpn: Lpn, ppn: Ppn) {
        let packed = self.pack(ppn);
        let bi = self.block_index(ppn.chip, ppn.block);
        self.block_valid[bi] += 1;
        self.rmap[packed as usize] = lpn as u32;
        self.map[lpn as usize] = packed;
    }

    /// Greedy GC on `chip`: reclaim until the free-block count reaches the
    /// watermark or no victim with reclaimable space exists.
    fn collect(&mut self, chip: usize) -> GcWork {
        let mut work = GcWork::default();
        let watermark = self.cfg.gc_low_watermark as usize;
        while self.free_blocks[chip].len() < watermark {
            let Some(victim) = self.pick_victim(chip) else {
                break;
            };
            let vi = self.block_index(chip as u32, victim);
            // Relocate every valid page of the victim into the open block.
            for page in 0..self.cfg.pages_per_block {
                let packed = (vi as u32) * self.cfg.pages_per_block + page;
                let lpn = self.rmap[packed as usize];
                if lpn == INVALID {
                    continue;
                }
                self.invalidate(packed);
                // Invariant: a victim is only picked when reclaiming it
                // gains space (valid < pages_per_block), so the open block
                // plus the watermark-held free blocks always have room for
                // every valid page being relocated.
                let Some(dest) = self.allocate_on(chip) else {
                    unreachable!("GC invariant violated: no room to relocate a valid page")
                };
                self.bind(lpn as Lpn, dest);
                work.moved_pages += 1;
                self.gc_moved += 1;
            }
            debug_assert_eq!(self.block_valid[vi], 0);
            self.block_state[vi] = BlockState::Free;
            self.free_blocks[chip].push(victim);
            self.erase_counts[vi] += 1;
            work.erased_blocks += 1;
            self.gc_runs += 1;
        }
        work
    }

    /// Picks the full block with the fewest valid pages, provided reclaiming
    /// it gains space (valid < pages_per_block).
    fn pick_victim(&self, chip: usize) -> Option<u32> {
        let mut best: Option<(u32, u16)> = None;
        for block in 0..self.cfg.blocks_per_chip {
            let bi = self.block_index(chip as u32, block);
            if self.block_state[bi] != BlockState::Full {
                continue;
            }
            let valid = self.block_valid[bi];
            if valid as u32 >= self.cfg.pages_per_block {
                continue;
            }
            match best {
                Some((_, v)) if v <= valid => {}
                _ => best = Some((block, valid)),
            }
        }
        best.map(|(b, _)| b)
    }

    /// Writes `lpn`, returning where it landed and any GC work performed.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range or the device is truly out of space
    /// (cannot happen while over-provisioning holds); use
    /// [`PageFtl::try_write`] to handle the latter as an error.
    pub fn write(&mut self, lpn: Lpn) -> WriteOutcome {
        match self.try_write(lpn) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Writes `lpn` like [`PageFtl::write`], but surfaces exhaustion as an
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if no physical page can be allocated even
    /// after GC — possible only when over-provisioning is misconfigured.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the logical range (an addressing bug at
    /// the caller, not a device state).
    pub fn try_write(&mut self, lpn: Lpn) -> Result<WriteOutcome, FtlError> {
        assert!((lpn as usize) < self.map.len(), "lpn out of range");
        let chip = self.next_chip;
        self.next_chip = (self.next_chip + 1) % self.chips();

        let mut gc = GcWork::default();
        if self.free_blocks[chip].len() < self.cfg.gc_low_watermark as usize {
            gc = self.collect(chip);
        }

        // Allocate before touching the old mapping so a failed write leaves
        // the FTL state untouched (GC work, if any, already happened and is
        // harmless).
        let ppn = self.allocate_on(chip).ok_or(FtlError::OutOfSpace)?;
        let old = self.map[lpn as usize];
        if old != INVALID {
            self.invalidate(old);
        } else {
            self.live_pages += 1;
        }
        self.bind(lpn, ppn);
        Ok(WriteOutcome { ppn, gc })
    }

    /// Drops the mapping for `lpn` (e.g. the block was migrated away).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of range.
    pub fn trim(&mut self, lpn: Lpn) {
        assert!((lpn as usize) < self.map.len(), "lpn out of range");
        let old = self.map[lpn as usize];
        if old != INVALID {
            self.invalidate(old);
            self.map[lpn as usize] = INVALID;
            self.live_pages -= 1;
        }
    }

    /// Internal consistency check used by tests: recomputes live pages and
    /// per-block valid counts from the maps.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut live = 0u64;
        for (lpn, &packed) in self.map.iter().enumerate() {
            if packed == INVALID {
                continue;
            }
            live += 1;
            if self.rmap[packed as usize] != lpn as u32 {
                return Err(format!("map/rmap disagree for lpn {lpn}"));
            }
        }
        if live != self.live_pages {
            return Err(format!(
                "live pages {} but map holds {live}",
                self.live_pages
            ));
        }
        let mut valid = vec![0u16; self.block_valid.len()];
        for (ppi, &lpn) in self.rmap.iter().enumerate() {
            if lpn == INVALID {
                continue;
            }
            let bi = ppi as u32 / self.cfg.pages_per_block;
            valid[bi as usize] += 1;
            if self.map[lpn as usize] != ppi as u32 {
                return Err(format!("rmap/map disagree for ppi {ppi}"));
            }
        }
        if valid != self.block_valid {
            return Err("block valid counts drifted".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ftl() -> PageFtl {
        PageFtl::new(&FlashConfig::small_test())
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut c = FlashConfig::small_test();
        c.channels = 0;
        assert!(matches!(
            PageFtl::try_new(&c),
            Err(FtlError::InvalidConfig(_))
        ));
    }

    #[test]
    fn try_write_reports_out_of_space_without_corrupting_state() {
        // With zero over-provisioning the logical space covers every
        // physical page, so once every lpn is written GC has no slack left
        // and the next overwrite must fail cleanly.
        let mut c = FlashConfig::small_test();
        c.over_provisioning = 0.0;
        let mut f = PageFtl::try_new(&c).unwrap();
        for lpn in 0..f.logical_pages() {
            f.try_write(lpn).unwrap();
        }
        let before = f.lookup(0);
        assert!(matches!(f.try_write(0), Err(FtlError::OutOfSpace)));
        // A failed write must leave the old mapping intact.
        assert_eq!(f.lookup(0), before);
        f.check_invariants().unwrap();
    }

    #[test]
    fn fresh_ftl_is_empty() {
        let f = ftl();
        assert_eq!(f.live_pages(), 0);
        assert_eq!(f.free_space_ratio(), 1.0);
        assert_eq!(f.lookup(0), None);
        f.check_invariants().unwrap();
    }

    #[test]
    fn write_then_lookup() {
        let mut f = ftl();
        let out = f.write(5);
        assert_eq!(f.lookup(5), Some(out.ppn));
        assert_eq!(f.live_pages(), 1);
        f.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let mut f = ftl();
        let a = f.write(5).ppn;
        let b = f.write(5).ppn;
        assert_ne!(a, b, "out-of-place update");
        assert_eq!(f.live_pages(), 1);
        f.check_invariants().unwrap();
    }

    #[test]
    fn trim_releases_space() {
        let mut f = ftl();
        f.write(5);
        f.trim(5);
        assert_eq!(f.lookup(5), None);
        assert_eq!(f.live_pages(), 0);
        assert_eq!(f.free_space_ratio(), 1.0);
        f.trim(5); // idempotent
        f.check_invariants().unwrap();
    }

    #[test]
    fn writes_stripe_across_chips() {
        let mut f = ftl();
        let chips: Vec<u32> = (0..8).map(|lpn| f.write(lpn).ppn.chip).collect();
        // small_test has 8 chips: round robin touches each once.
        let mut sorted = chips.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "chips used: {chips:?}");
    }

    #[test]
    fn filling_device_triggers_gc() {
        let mut f = ftl();
        let logical = f.logical_pages();
        // Write the whole logical space twice over: forces GC.
        for round in 0..2 {
            for lpn in 0..logical {
                f.write(lpn);
            }
            let _ = round;
        }
        assert!(f.gc_runs() > 0, "no GC after overwriting everything");
        f.check_invariants().unwrap();
    }

    #[test]
    fn gc_never_loses_data() {
        let mut f = ftl();
        let logical = f.logical_pages();
        for lpn in 0..logical {
            f.write(lpn);
        }
        // Overwrite half the space repeatedly to churn GC.
        for _ in 0..4 {
            for lpn in 0..logical / 2 {
                f.write(lpn);
            }
        }
        assert!(f.gc_runs() > 0);
        for lpn in 0..logical {
            assert!(f.lookup(lpn).is_some(), "lost lpn {lpn}");
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn low_free_space_means_more_gc_work() {
        // Fill to 50% vs 95% and compare GC pages moved during a random
        // overwrite burst: the write cliff. (Random targets matter: cyclic
        // overwrites leave GC victims fully invalid and free to reclaim.)
        let mut work = Vec::new();
        for fill in [0.5f64, 0.95] {
            let mut f = ftl();
            let mut rng = nvhsm_sim::SimRng::new(99);
            let logical = f.logical_pages();
            let filled = (logical as f64 * fill) as u64;
            for lpn in 0..filled {
                f.write(lpn);
            }
            let before = f.gc_moved_pages();
            for _ in 0..3 * filled {
                f.write(rng.below(filled));
            }
            work.push(f.gc_moved_pages() - before);
            f.check_invariants().unwrap();
        }
        assert!(
            work[1] > work[0].max(1) * 2,
            "no write cliff: gc moved {work:?}"
        );
    }

    #[test]
    fn wear_is_tracked_and_skewed_without_leveling() {
        let mut f = ftl();
        let mut rng = nvhsm_sim::SimRng::new(3);
        let logical = f.logical_pages();
        let hot = logical / 8;
        for lpn in 0..logical {
            f.write(lpn);
        }
        // Skewed overwrites: only the hot range churns.
        for _ in 0..6 * hot {
            f.write(rng.below(hot));
        }
        assert!(f.total_erases() > 0);
        assert!(
            f.wear_imbalance() > 1.5,
            "greedy GC without leveling should skew wear: {}",
            f.wear_imbalance()
        );
        f.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "lpn out of range")]
    fn out_of_range_write_rejected() {
        let mut f = ftl();
        let logical = f.logical_pages();
        f.write(logical);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random write/trim sequences preserve all FTL invariants and the
        /// semantics of a flat address space.
        #[test]
        fn prop_ftl_matches_flat_model(ops in proptest::collection::vec((0u64..512, proptest::bool::ANY), 1..2000)) {
            let mut f = ftl();
            let logical = f.logical_pages();
            let mut model = vec![false; logical as usize];
            for (lpn, is_write) in ops {
                let lpn = lpn % logical;
                if is_write {
                    f.write(lpn);
                    model[lpn as usize] = true;
                } else {
                    f.trim(lpn);
                    model[lpn as usize] = false;
                }
            }
            f.check_invariants().unwrap();
            for (lpn, &mapped) in model.iter().enumerate() {
                prop_assert_eq!(f.lookup(lpn as u64).is_some(), mapped);
            }
            let live = model.iter().filter(|&&m| m).count() as u64;
            prop_assert_eq!(f.live_pages(), live);
        }
    }
}
