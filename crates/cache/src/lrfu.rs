//! The LRFU replacement policy (Lee et al., 2001).
//!
//! Every cached block carries a *Combined Recency and Frequency* (CRF)
//! value. On a reference at logical time `t`, the block's CRF becomes
//! `1 + crf_old · 2^(−λ (t − t_last))`: each historical reference
//! contributes a weight that halves every `1/λ` references. The victim is
//! the block with the smallest CRF. `λ → 0` degenerates to LFU (pure
//! counts), large `λ` degenerates to LRU (only the last reference matters).
//!
//! Ordering trick: comparing CRFs "now" is equivalent to comparing
//! `log2(crf) + λ · t_last`, which is constant between updates — so the
//! victim order needs no global decay sweeps. Ties in rank fall to the
//! lower block id.
//!
//! Bounded window: a CRF sums weights `2^(−λk)` over distinct ages `k`, so
//! it stays below `C = 1 / (1 − 2^−λ)` and the rank lies in
//! `[λ·last, λ·last + log2 C)` (Lee et al. make the same observation).
//! Two residents whose last references are `D = ⌈log2(C) / λ⌉` or more
//! accesses apart are therefore ordered by recency alone (`D` = 98 at
//! λ = 0.05), and the victim is always among the residents referenced
//! fewer than `D + 2` accesses after the oldest one; the extra 2 is a
//! margin for rounding in the rank. Residents sit on an intrusive recency
//! list, and only that prefix of the list, the *window*, is kept sorted by
//! `(rank bits, block)`. Each access sets `last` for one entry, so the
//! window never holds more than `D + 2` entries, whatever the capacity. A
//! hit outside the window is an O(1) move to the list's tail with no rank
//! computed; a miss evicts the window's first item, and the window then
//! grows along the list. λ = 0 makes `D` infinite: the window is the whole
//! cache, sorted by count, so every λ stays exact.

use crate::{BufferCache, CacheOutcome};
use std::collections::VecDeque;

/// Marks a missing slot: a block with no resident entry in the block
/// index, or the end of the recency list.
const NIL: u32 = u32::MAX;

/// A resident block's replacement state, stored in the slab.
#[derive(Debug, Clone, Copy)]
struct Entry {
    crf: f64,
    last: u64,
    block: u64,
    /// Order-preserving bits of the rank (see `rank_bits`); kept current
    /// only while the entry is in the window.
    key: u64,
    /// Recency-list neighbours: the next older and next newer resident.
    older: u32,
    newer: u32,
    dirty: bool,
    in_window: bool,
}

/// One window item: the eviction order `(key, block)` plus the slab slot of
/// the entry it stands for.
#[derive(Debug, Clone, Copy)]
struct WindowItem {
    key: u64,
    block: u64,
    slot: u32,
}

impl WindowItem {
    fn order(&self) -> (u64, u64) {
        (self.key, self.block)
    }
}

/// LRFU buffer cache.
///
/// Resident entries live in a slab, linked oldest to newest by last
/// reference; the block → slot index is a dense table that grows to the
/// highest block id ever admitted (4 bytes per block id, within the block
/// space of the device the cache fronts). Lookups, `contains`,
/// `invalidate` and misses that do not admit never grow it.
///
/// # Examples
///
/// ```
/// use nvhsm_cache::{BufferCache, LrfuCache};
/// let mut c = LrfuCache::new(100, 0.3);
/// c.access(7, false);
/// assert!(c.contains(7));
/// ```
#[derive(Debug, Clone)]
pub struct LrfuCache {
    capacity: usize,
    lambda: f64,
    /// `D + 2`: a resident is in the window when its last reference came
    /// fewer than this many accesses after the oldest resident's.
    span: u64,
    clock: u64,
    /// Slab of entries; the slots in `free` hold no resident.
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// Ends of the recency list.
    oldest: u32,
    newest: u32,
    /// The oldest resident outside the window, [`NIL`] when every resident
    /// is in it.
    frontier: u32,
    /// The window, sorted by `(key, block)`: the front is the victim.
    window: VecDeque<WindowItem>,
    /// Block id → slab slot, [`NIL`] when not resident.
    slot_of: Vec<u32>,
    hits: u64,
    misses: u64,
}

/// Maps the eviction rank `log2(crf) + λ·last` to order-preserving bits.
fn rank_bits(crf: f64, last: u64, lambda: f64) -> u64 {
    let rank = crf.log2() + lambda * last as f64;
    // rank can be slightly negative (crf < 1 never happens on insert, but
    // guard anyway): shift into positive territory before bit-casting.
    let shifted = rank + 1024.0;
    debug_assert!(shifted > 0.0);
    shifted.to_bits()
}

/// The window span `D + 2` for decay `lambda`, with `D = ⌈log2(C) / λ⌉`
/// and `C = 1 / (1 − 2^−λ)`; unbounded (`u64::MAX`) at λ = 0.
fn window_span(lambda: f64) -> u64 {
    // 1 − 2^−λ, without cancellation at small λ.
    let one_minus_decay = -(-lambda * std::f64::consts::LN_2).exp_m1();
    // log2(C) / λ; infinite at λ = 0, which the saturating cast maps to
    // u64::MAX.
    let d = (-one_minus_decay.log2() / lambda).ceil();
    (d as u64).saturating_add(2)
}

impl LrfuCache {
    /// Creates a cache holding up to `capacity` blocks with decay `lambda`.
    ///
    /// A zero capacity is legal and yields a cache that never admits:
    /// every access is a miss with no eviction: a cacheless device.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite, or if `capacity`
    /// does not fit the cache's 32-bit slot numbers.
    pub fn new(capacity: usize, lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be a non-negative finite number"
        );
        assert!(
            capacity < NIL as usize,
            "capacity must fit 32-bit slot numbers"
        );
        // The slab grows with residency: reserving `capacity` up front
        // measurably raised peak RSS (DESIGN.md §13, "LRFU index").
        LrfuCache {
            capacity,
            lambda,
            span: window_span(lambda),
            clock: 0,
            entries: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            frontier: NIL,
            window: VecDeque::new(),
            slot_of: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The decay parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The slab slot holding `block`, or [`NIL`].
    fn slot(&self, block: u64) -> u32 {
        usize::try_from(block)
            .ok()
            .and_then(|i| self.slot_of.get(i).copied())
            .unwrap_or(NIL)
    }

    /// Points `block`'s index cell at `slot`, growing the table on first
    /// admission of a block id past its end.
    fn set_slot(&mut self, block: u64, slot: u32) {
        let i = usize::try_from(block).expect("block id must fit the address space");
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1, NIL);
        }
        self.slot_of[i] = slot;
    }

    fn touch(&mut self, slot: u32, write: bool) {
        if self.entries[slot as usize].in_window {
            self.leave_window(slot);
        }
        let entry = &mut self.entries[slot as usize];
        let elapsed = (self.clock - entry.last) as f64;
        entry.crf = 1.0 + entry.crf * 2f64.powf(-self.lambda * elapsed);
        entry.last = self.clock;
        entry.dirty |= write;
        self.unlink(slot);
        self.push_newest(slot);
        self.fill_window();
    }

    /// Drops `slot`'s item from the window; its key is still the one it
    /// entered with.
    fn leave_window(&mut self, slot: u32) {
        let entry = &mut self.entries[slot as usize];
        entry.in_window = false;
        let order = (entry.key, entry.block);
        // The front item, the next victim, needs no search.
        if self.window.front().is_some_and(|item| item.slot == slot) {
            self.window.pop_front();
        } else {
            let pos = self
                .window
                .binary_search_by(|item| item.order().cmp(&order))
                .expect("an entry marked in the window has an item there");
            self.window.remove(pos);
        }
    }

    /// Takes `slot` off the recency list.
    fn unlink(&mut self, slot: u32) {
        let Entry { older, newer, .. } = self.entries[slot as usize];
        match older {
            NIL => self.oldest = newer,
            older => self.entries[older as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.entries[newer as usize].older = older,
        }
        if self.frontier == slot {
            self.frontier = newer;
        }
    }

    /// Appends `slot`, just referenced, at the newest end of the recency
    /// list, outside the window until `fill_window` takes it in.
    fn push_newest(&mut self, slot: u32) {
        let entry = &mut self.entries[slot as usize];
        entry.older = self.newest;
        entry.newer = NIL;
        match self.newest {
            NIL => self.oldest = slot,
            newest => self.entries[newest as usize].newer = slot,
        }
        self.newest = slot;
        if self.frontier == NIL {
            self.frontier = slot;
        }
    }

    /// Moves residents from the frontier into the window while their last
    /// reference lies within `span` of the oldest resident's.
    fn fill_window(&mut self) {
        if self.oldest == NIL {
            return;
        }
        let oldest_last = self.entries[self.oldest as usize].last;
        while self.frontier != NIL {
            let slot = self.frontier;
            let entry = &mut self.entries[slot as usize];
            if entry.last - oldest_last >= self.span {
                break;
            }
            entry.key = rank_bits(entry.crf, entry.last, self.lambda);
            entry.in_window = true;
            self.frontier = entry.newer;
            let item = WindowItem {
                key: entry.key,
                block: entry.block,
                slot,
            };
            // The newest reference usually ranks last: search from the back.
            let mut pos = self.window.len();
            while pos > 0 && self.window[pos - 1].order() > item.order() {
                pos -= 1;
            }
            self.window.insert(pos, item);
        }
    }

    /// Takes the resident in `slot`, already out of the window, off the
    /// recency list and the block index and frees its slot; returns its
    /// dirty flag.
    fn release(&mut self, slot: u32) -> bool {
        let Entry { block, dirty, .. } = self.entries[slot as usize];
        self.slot_of[block as usize] = NIL;
        self.unlink(slot);
        self.free.push(slot);
        dirty
    }
}

impl BufferCache for LrfuCache {
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        let slot = self.slot(block);
        if slot != NIL {
            self.touch(slot, write);
            self.hits += 1;
            return CacheOutcome::hit();
        }
        self.misses += 1;
        if self.capacity == 0 {
            // Never admits: the disabled configuration is a pure pass-through.
            return CacheOutcome::miss(None);
        }
        let evicted = if self.len() >= self.capacity {
            let victim = self
                .window
                .pop_front()
                .expect("a non-empty cache has a non-empty window");
            self.entries[victim.slot as usize].in_window = false;
            Some((victim.block, self.release(victim.slot)))
        } else {
            None
        };
        let entry = Entry {
            crf: 1.0,
            last: self.clock,
            block,
            key: 0,
            older: NIL,
            newer: NIL,
            dirty: write,
            in_window: false,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.set_slot(block, slot);
        self.push_newest(slot);
        self.fill_window();
        CacheOutcome::miss(evicted)
    }

    fn invalidate(&mut self, block: u64) -> Option<bool> {
        let slot = self.slot(block);
        if slot == NIL {
            return None;
        }
        if self.entries[slot as usize].in_window {
            self.leave_window(slot);
        }
        let dirty = self.release(slot);
        self.fill_window();
        Some(dirty)
    }

    fn contains(&self, block: u64) -> bool {
        self.slot(block) != NIL
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bypass::{AccessClass, BypassCache};
    use crate::lfu::LfuCache;
    use crate::lru::LruCache;
    use nvhsm_sim::SimRng;

    #[test]
    fn capacity_never_exceeded() {
        let mut c = LrfuCache::new(8, 0.5);
        for b in 0..100 {
            c.access(b, false);
            assert!(c.len() <= 8);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn high_lambda_behaves_like_lru() {
        // λ large: only recency matters. Trace: fill 1..=3, re-touch 1,
        // insert 4 -> LRU evicts 2.
        let mut c = LrfuCache::new(3, 8.0);
        for b in [1, 2, 3, 1] {
            c.access(b, false);
        }
        let out = c.access(4, false);
        assert_eq!(out.evicted, Some((2, false)));
    }

    #[test]
    fn low_lambda_behaves_like_lfu() {
        // λ = 0: pure frequency. Block 1 referenced 3x, 2 and 3 once;
        // inserting 4 evicts the least frequent (tie 2/3 -> earliest rank).
        let mut c = LrfuCache::new(3, 0.0);
        for b in [1, 1, 1, 2, 3] {
            c.access(b, false);
        }
        let out = c.access(4, false);
        let victim = out.evicted.unwrap().0;
        assert!(victim == 2 || victim == 3, "victim {victim}");
        assert!(c.contains(1));
    }

    #[test]
    fn lambda_extremes_match_reference_policies_on_random_trace() {
        // λ→1 (strong decay) should track LRU closely; λ=0 is exactly LFU
        // by hit/miss counts on any trace with deterministic tie-breaks
        // being the only divergence. We compare hit counts within a small
        // tolerance.
        let mut rng = SimRng::new(42);
        let trace: Vec<u64> = (0..20_000).map(|_| rng.below(400)).collect();

        let mut lrfu_hi = LrfuCache::new(64, 10.0);
        let mut lru = LruCache::new(64);
        let mut lrfu_lo = LrfuCache::new(64, 0.0);
        let mut lfu = LfuCache::new(64);
        for &b in &trace {
            lrfu_hi.access(b, false);
            lru.access(b, false);
            lrfu_lo.access(b, false);
            lfu.access(b, false);
        }
        let close = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b.max(1) as f64) < 0.05;
        assert!(
            close(lrfu_hi.hits(), lru.hits()),
            "λ→∞: lrfu {} vs lru {}",
            lrfu_hi.hits(),
            lru.hits()
        );
        assert!(
            close(lrfu_lo.hits(), lfu.hits()),
            "λ=0: lrfu {} vs lfu {}",
            lrfu_lo.hits(),
            lfu.hits()
        );
    }

    #[test]
    fn scan_resistance_between_extremes() {
        // A live hot set interleaved with a one-shot scan that inserts
        // faster than the hot set is re-touched: LRU's recency-only rule
        // evicts hot blocks (re-touch gap 64 > capacity 32 insertions),
        // while LRFU's frequency component keeps them.
        let capacity = 32;
        let mut lrfu = LrfuCache::new(capacity, 0.01);
        let mut lru = LruCache::new(capacity);
        // Warm the hot set of 16 blocks.
        for round in 0..20 {
            for b in 0..16u64 {
                lrfu.access(b, false);
                lru.access(b, false);
                let _ = round;
            }
        }
        // Interleave: 1 hot touch, then 3 scan inserts.
        let mut scan = 1000u64;
        for round in 0..8 {
            for b in 0..16u64 {
                lrfu.access(b, false);
                lru.access(b, false);
                for _ in 0..3 {
                    lrfu.access(scan, false);
                    lru.access(scan, false);
                    scan += 1;
                }
            }
            let _ = round;
        }
        let lrfu_kept = (0..16u64).filter(|&b| lrfu.contains(b)).count();
        let lru_kept = (0..16u64).filter(|&b| lru.contains(b)).count();
        assert!(
            lrfu_kept > lru_kept,
            "lrfu kept {lrfu_kept}, lru kept {lru_kept}"
        );
    }

    #[test]
    fn invalidate_removes_from_order_index() {
        let mut c = LrfuCache::new(2, 0.5);
        c.access(1, true);
        c.access(2, false);
        assert_eq!(c.invalidate(1), Some(true));
        // Inserting two more must evict 2 (not the ghost of 1).
        let out3 = c.access(3, false);
        assert!(out3.evicted.is_none());
        let out4 = c.access(4, false);
        assert_eq!(out4.evicted, Some((2, false)));
    }

    #[test]
    fn probes_of_unseen_blocks_never_grow_the_block_index() {
        // Only admission may grow the dense index: misses that do not
        // admit, `contains`, `invalidate` and bypass probes must leave it
        // sized by the blocks actually admitted.
        let far = 1 << 40;
        let mut off = LrfuCache::new(0, 0.05);
        assert!(!off.access(far, true).hit);
        assert!(off.slot_of.is_empty());

        let mut c = BypassCache::new(LrfuCache::new(4, 0.05));
        for b in 0..3 {
            c.access(b, false);
        }
        let admitted = c.inner().slot_of.len();
        assert_eq!(admitted, 3);
        assert!(!c.contains(far));
        assert_eq!(c.invalidate(far), None);
        assert_eq!(c.invalidate(9), None);
        for b in [9, 1_000, far, u64::MAX] {
            let out = c.access_classified(b, true, AccessClass::Migrated);
            assert!(!out.hit);
        }
        assert_eq!(c.inner().slot_of.len(), admitted);
        assert_eq!(c.len(), 3);
    }

    /// Checks the recency list, the window and the block index against
    /// each other.
    fn assert_consistent(c: &LrfuCache) {
        let mut list = Vec::new();
        let mut slot = c.oldest;
        while slot != NIL {
            list.push(slot);
            slot = c.entries[slot as usize].newer;
        }
        assert_eq!(list.len(), c.len());
        assert_eq!(list.last().copied().unwrap_or(NIL), c.newest);
        let lasts: Vec<u64> = list.iter().map(|&s| c.entries[s as usize].last).collect();
        assert!(lasts.windows(2).all(|w| w[0] < w[1]), "list out of order");
        // The window is the prefix of the list within `span` of the
        // oldest resident, and the frontier is the first resident after it.
        let width = lasts
            .iter()
            .take_while(|&&last| last - lasts[0] < c.span)
            .count();
        assert_eq!(c.window.len(), width);
        assert_eq!(list.get(width).copied().unwrap_or(NIL), c.frontier);
        for (i, &slot) in list.iter().enumerate() {
            let e = c.entries[slot as usize];
            assert_eq!(e.in_window, i < width);
            assert_eq!(c.slot(e.block), slot);
        }
        assert!(c
            .window
            .iter()
            .zip(c.window.iter().skip(1))
            .all(|(a, b)| a.order() < b.order()));
        for item in &c.window {
            let e = c.entries[item.slot as usize];
            assert!(e.in_window && e.block == item.block);
            assert_eq!(item.key, rank_bits(e.crf, e.last, c.lambda));
        }
    }

    #[test]
    fn window_is_the_sorted_prefix_of_the_recency_list() {
        // D + 2 at each λ: infinite, Table 4's 98 + 2, 9 + 2 and 1 + 2.
        for (lambda, span) in [(0.0, u64::MAX), (0.05, 100), (0.3, 11), (10.0, 3)] {
            assert_eq!(window_span(lambda), span, "λ {lambda}");
            let mut rng = SimRng::new(7);
            let mut c = LrfuCache::new(150, lambda);
            for _ in 0..3_000 {
                let b = rng.below(300);
                if rng.below(8) == 0 {
                    c.invalidate(b);
                } else {
                    c.access(b * b / 300, rng.below(4) == 0);
                }
                assert_consistent(&c);
                assert!(c.window.len() as u64 <= span);
            }
        }
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = LrfuCache::new(0, 0.5);
        for b in 0..8u64 {
            let out = c.access(b, false);
            assert!(!out.hit);
            assert_eq!(out.evicted, None);
        }
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 8);
    }
}
