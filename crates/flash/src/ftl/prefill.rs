//! Bulk prefill: lays down a whole lpn range at once.
//!
//! Pretraining fills scratch devices to 20 % and 90 %, and every VMDK
//! placement installs its image, so set-up writes hundreds of thousands of
//! pages before any request is served. [`PageFtl::prefill`] leaves exactly
//! the state one [`PageFtl::write`] per lpn, in range order, would leave.
//!
//! While no GC has ever run, each chip has opened its blocks in index
//! order and filled each in page order, so chip `c`'s `j`-th allocation is
//! packed page `c · blocks_per_chip · pages_per_block + j`. A range of
//! unmapped lpns that keeps every chip at or above the GC watermark is then
//! laid out in closed form: the map in one pass in lpn order, the reverse
//! map in one pass chip by chip. Anything else is written one
//! [`PageFtl::write`] at a time.

use super::{BlockState, Lpn, PageFtl, INVALID};
use std::ops::Range;

impl PageFtl {
    /// Writes every lpn of `lpns` in order, as if by one
    /// [`PageFtl::write`] per lpn: same map, same physical placement, same
    /// GC work and counters.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the logical space, or if the device
    /// runs out of physical space (as [`PageFtl::write`] does).
    ///
    /// # Examples
    ///
    /// ```
    /// use nvhsm_flash::{FlashConfig, PageFtl};
    ///
    /// let cfg = FlashConfig::small_test();
    /// let mut bulk = PageFtl::new(&cfg);
    /// let mut paged = PageFtl::new(&cfg);
    /// bulk.prefill(0..1_000);
    /// for lpn in 0..1_000 {
    ///     paged.write(lpn);
    /// }
    /// assert_eq!(bulk, paged);
    /// ```
    pub fn prefill(&mut self, lpns: Range<Lpn>) {
        if lpns.is_empty() {
            return;
        }
        assert!(lpns.end <= self.logical_pages(), "lpn out of range");
        if !self.lay_out(&lpns) {
            for lpn in lpns {
                self.write(lpn);
            }
        }
    }

    /// Pages allocated on `chip` so far. Valid only while no GC has run.
    fn allocated_on(&self, chip: usize) -> usize {
        let ppb = self.cfg.pages_per_block as usize;
        match self.open[chip] {
            Some((block, page)) => block as usize * ppb + page as usize,
            None => (self.cfg.blocks_per_chip as usize - self.free_blocks[chip].len()) * ppb,
        }
    }

    /// The closed-form path. Returns `false`, touching nothing, unless no
    /// GC has ever run, no lpn of the range is mapped, and every chip still
    /// has `gc_low_watermark` free blocks at each of its allocations.
    fn lay_out(&mut self, lpns: &Range<Lpn>) -> bool {
        if self.gc_runs != 0 {
            return false;
        }
        let start = lpns.start as usize;
        let n = (lpns.end - lpns.start) as usize;
        if self.live_pages > 0 && self.map[start..start + n].iter().any(|&p| p != INVALID) {
            return false;
        }
        let chips = self.chips();
        let ppb = self.cfg.pages_per_block as usize;
        let bpc = self.cfg.blocks_per_chip as usize;
        let watermark = self.cfg.gc_low_watermark as usize;
        let opened = |allocations: usize| allocations.div_ceil(ppb);
        // Range offset `k` lands on the `k`-th chip of the round robin and
        // every `chips`-th offset after it: (chip, allocated, new pages).
        let plan: Vec<(usize, usize, usize)> = (0..chips.min(n))
            .map(|k| {
                let chip = (self.next_chip + k) % chips;
                let m = n / chips + usize::from(k < n % chips);
                (chip, self.allocated_on(chip), m)
            })
            .collect();
        // `write` checks the watermark before each allocation, so the last
        // check sees the blocks opened by the first `m - 1` pages.
        let no_gc = plan
            .iter()
            .all(|&(_, j, m)| opened(j + m) <= bpc && opened(j + m - 1) + watermark <= bpc);
        if !no_gc {
            return false;
        }
        // Each table is written in its own order, so both are swept once:
        // row `t` of `chips` consecutive lpns maps to every chip's first
        // new page plus `t`, and chip `k`'s `m` new pages hold the lpns
        // `start + k + t · chips`.
        let firsts: Vec<u32> = plan
            .iter()
            .map(|&(chip, j, _)| (chip * bpc * ppb + j) as u32)
            .collect();
        for (t, row) in self.map[start..start + n].chunks_mut(chips).enumerate() {
            for (slot, &first) in row.iter_mut().zip(&firsts) {
                *slot = first + t as u32;
            }
        }
        for (k, (&(chip, j, m), &first)) in plan.iter().zip(&firsts).enumerate() {
            let first = first as usize;
            for (t, slot) in self.rmap[first..first + m].iter_mut().enumerate() {
                *slot = (start + k + t * chips) as u32;
            }
            let end = j + m;
            for block in j / ppb..opened(end) {
                let (lo, hi) = ((block * ppb).max(j), ((block + 1) * ppb).min(end));
                let bi = chip * bpc + block;
                self.block_valid[bi] += (hi - lo) as u16;
                self.block_state[bi] = if hi == (block + 1) * ppb {
                    BlockState::Full
                } else {
                    BlockState::Open
                };
            }
            self.open[chip] = (end % ppb != 0).then(|| ((end / ppb) as u32, (end % ppb) as u32));
            self.free_blocks[chip].truncate(bpc - opened(end));
        }
        self.live_pages += n as u64;
        self.next_chip = (self.next_chip + n) % chips;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlashConfig;
    use proptest::prelude::*;

    /// A step of the history an FTL goes through before the prefill.
    #[derive(Debug, Clone)]
    enum Op {
        Write(Lpn),
        Trim(Lpn),
        /// Writes `len` lpns from `start`, wrapping at the logical end; a
        /// long fill overwrites enough to run GC.
        Fill(Lpn, u64),
        /// Trims `len` lpns from `start`, wrapping at the logical end.
        TrimRange(Lpn, u64),
        /// Fills `len` lpns from `start`, then trims them: pages get
        /// allocated and invalidated, so GC has victims, yet nothing stays
        /// mapped.
        Churn(Lpn, u64),
    }

    /// How long the prefilled range is.
    #[derive(Debug, Clone, Copy)]
    enum Len {
        Pages(u64),
        /// Within 2 pages of the write that first runs GC from the range
        /// start: `d - 2` pages past the last write without GC.
        NearGc(u64),
    }

    fn small() -> PageFtl {
        PageFtl::new(&FlashConfig::small_test())
    }

    fn replay(f: &mut PageFtl, ops: &[Op]) {
        let logical = f.logical_pages();
        let fill = |f: &mut PageFtl, start: Lpn, len: u64| {
            for i in 0..len {
                f.write((start + i) % logical);
            }
        };
        let trim = |f: &mut PageFtl, start: Lpn, len: u64| {
            for i in 0..len {
                f.trim((start + i) % logical);
            }
        };
        for op in ops {
            match *op {
                Op::Write(lpn) => fill(f, lpn, 1),
                Op::Trim(lpn) => trim(f, lpn, 1),
                Op::Fill(start, len) => fill(f, start, len),
                Op::TrimRange(start, len) => trim(f, start, len),
                Op::Churn(start, len) => {
                    fill(f, start, len);
                    trim(f, start, len);
                }
            }
        }
    }

    /// Pages written one by one from `start` before the first write that
    /// runs GC (the rest of the logical space if none does).
    fn pages_before_gc(f: &PageFtl, start: Lpn) -> u64 {
        let mut f = f.clone();
        let logical = f.logical_pages();
        (start..logical)
            .position(|lpn| f.write(lpn).gc.is_some())
            .map_or(logical - start, |n| n as u64)
    }

    /// Prefills `lpns` on a clone of `f` and writes them one by one on
    /// another; the two must agree field for field.
    fn bulk_and_paged(f: &PageFtl, lpns: Range<Lpn>) -> (PageFtl, PageFtl) {
        let mut bulk = f.clone();
        let mut paged = f.clone();
        bulk.prefill(lpns.clone());
        for lpn in lpns {
            paged.write(lpn);
        }
        (bulk, paged)
    }

    fn op_strategy(logical: u64) -> impl Strategy<Value = Op> {
        (0u8..5, 0..logical, 1..2 * logical).prop_map(move |(kind, lpn, n)| match kind {
            0 => Op::Write(lpn),
            1 => Op::Trim(lpn),
            2 => Op::Fill(lpn, n),
            3 => Op::TrimRange(lpn, n % logical),
            _ => Op::Churn(lpn, n % logical),
        })
    }

    /// Range lengths, a fifth each: empty, shorter than the 8 chips, a few
    /// blocks' worth (mostly ending mid-block), long, and around the first
    /// GC.
    fn len_strategy(logical: u64) -> impl Strategy<Value = Len> {
        (0u8..5, 1u64..8, 8u64..300, 300..logical + 1, 0u64..5).prop_map(
            |(kind, short, mid, long, near)| match kind {
                0 => Len::Pages(0),
                1 => Len::Pages(short),
                2 => Len::Pages(mid),
                3 => Len::Pages(long),
                _ => Len::NearGc(near),
            },
        )
    }

    #[test]
    fn pristine_prefill_of_the_whole_space_matches_per_page_writes() {
        let f = small();
        let (bulk, paged) = bulk_and_paged(&f, 0..f.logical_pages());
        assert_eq!(bulk, paged);
        assert_eq!(bulk.gc_runs(), 0);
        bulk.check_invariants().unwrap();
    }

    /// Field-by-field equality. `assert_eq!` on the whole FTL would print
    /// tables of a million entries on failure; this names the field and,
    /// for the two maps, the first index that differs.
    fn assert_same(bulk: &PageFtl, paged: &PageFtl, what: &str) {
        let first_diff = |a: &[u32], b: &[u32]| a.iter().zip(b).position(|(x, y)| x != y);
        assert_eq!(first_diff(&bulk.map, &paged.map), None, "{what}: map");
        assert_eq!(first_diff(&bulk.rmap, &paged.rmap), None, "{what}: rmap");
        let counters = |f: &PageFtl| (f.next_chip, f.live_pages, f.gc_runs, f.gc_moved);
        assert_eq!(counters(bulk), counters(paged), "{what}: counters");
        assert_eq!(bulk.open, paged.open, "{what}: open blocks");
        for (field, same) in [
            ("valid counts", bulk.block_valid == paged.block_valid),
            ("block states", bulk.block_state == paged.block_state),
            ("free stacks", bulk.free_blocks == paged.free_blocks),
            ("erase counts", bulk.erase_counts == paged.erase_counts),
            ("another field", bulk == paged),
        ] {
            assert!(same, "{what}: {field}");
        }
    }

    #[test]
    fn pretraining_geometries_match_per_page_writes() {
        // The scratch NVDIMM's 1 GiB and the scratch SSD's 2 GiB: 64 chips,
        // 128 pages per block, 32 and 64 blocks per chip.
        for gib in [1, 2] {
            let pristine = PageFtl::new(&FlashConfig::with_capacity_gib(gib));
            let logical = pristine.logical_pages();
            for fill in [0.2, 0.9] {
                let filled = (logical as f64 * fill) as u64;
                let (bulk, paged) = bulk_and_paged(&pristine, 0..filled);
                assert_same(&bulk, &paged, &format!("{gib} GiB, {fill} fill"));
                assert_eq!(bulk.gc_runs(), 0);
                bulk.check_invariants().unwrap();
            }
            // 37 chips one page ahead of the rest, then 1,562 rows of 64
            // lpns and 31 more.
            let mut stepped = pristine;
            replay(&mut stepped, &vec![Op::Churn(logical - 1, 1); 37]);
            let (bulk, paged) = bulk_and_paged(&stepped, 33_333..133_332);
            assert_same(&bulk, &paged, &format!("{gib} GiB, odd range"));
            bulk.check_invariants().unwrap();
        }
    }

    #[test]
    fn empty_range_changes_nothing() {
        let mut f = small();
        f.write(3);
        let before = f.clone();
        f.prefill(10..10);
        assert_eq!(f, before);
    }

    #[test]
    #[should_panic(expected = "lpn out of range")]
    fn range_past_the_logical_end_is_rejected() {
        let mut f = small();
        let logical = f.logical_pages();
        f.prefill(logical - 1..logical + 1);
    }

    #[test]
    fn closed_form_boundary_matches_per_page_writes() {
        // Write then trim 1,000 lpns: 125 pages allocated per chip, no GC
        // yet, and full blocks with nothing valid for GC to reclaim. Then
        // sweep range lengths across the one where the first chip's
        // watermark check would run GC.
        let mut f = small();
        replay(&mut f, &[Op::Fill(0, 1_000), Op::TrimRange(0, 1_000)]);
        assert_eq!(f.gc_runs(), 0);
        let mut saw_gc = [false, false];
        for len in 760..860 {
            let (bulk, paged) = bulk_and_paged(&f, 100..100 + len);
            assert_eq!(bulk, paged, "len {len}");
            bulk.check_invariants().unwrap();
            saw_gc[usize::from(paged.gc_runs() > 0)] = true;
        }
        assert_eq!(saw_gc, [true, true], "the sweep must straddle the first GC");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `prefill(range)` leaves every FTL field as per-page writes
        /// would, after any history of writes, trims and GC-running fills,
        /// from any round-robin phase.
        #[test]
        fn prop_prefill_matches_per_page_writes(
            ops in proptest::collection::vec(op_strategy(1_638), 0..5),
            phase in 0u64..8,
            start in 0u64..1_638,
            len in len_strategy(1_638),
        ) {
            let mut f = small();
            let logical = f.logical_pages();
            prop_assert_eq!(logical, 1_638);
            replay(&mut f, &ops);
            // Step the round robin to any phase without mapping anything.
            replay(&mut f, &vec![Op::Churn(logical - 1, 1); phase as usize]);
            let len = match len {
                Len::Pages(n) => n,
                Len::NearGc(d) => (pages_before_gc(&f, start) + d).saturating_sub(2),
            };
            let end = (start + len).min(logical);
            let (bulk, paged) = bulk_and_paged(&f, start..end);
            prop_assert_eq!(&bulk, &paged);
            bulk.check_invariants().unwrap();
        }
    }
}
