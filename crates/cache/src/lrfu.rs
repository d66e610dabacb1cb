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
//! victim order needs no global decay sweeps. It is kept as an indexed
//! binary min-heap over `(rank bits, block)`: each resident entry records
//! its heap position, so a touch re-sifts one item in place and the victim
//! is always the root. Ties in rank fall to the lower block id.

use crate::{BufferCache, CacheOutcome};

/// Marks a block with no resident entry in the block index.
const ABSENT: u32 = u32::MAX;

/// A resident block's replacement state, stored in the slab.
#[derive(Debug, Clone, Copy)]
struct Entry {
    crf: f64,
    last: u64,
    /// Position of this entry's item in the heap.
    heap_pos: u32,
    dirty: bool,
}

/// One heap item: the eviction order `(key, block)` plus the slab slot of
/// the entry it stands for.
#[derive(Debug, Clone, Copy)]
struct HeapItem {
    /// Order-preserving bits of the f64 rank, see `rank_bits`.
    key: u64,
    block: u64,
    slot: u32,
}

impl HeapItem {
    fn order(&self) -> (u64, u64) {
        (self.key, self.block)
    }
}

/// LRFU buffer cache.
///
/// Resident entries live in a slab; the block → slot index is a dense
/// table that grows to the highest block id ever admitted (4 bytes per
/// block id, within the block space of the device the cache fronts).
/// Lookups, `contains`, `invalidate` and misses that do not admit never
/// grow it.
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
    clock: u64,
    /// Slab of resident entries, densely packed: `len()` is its length.
    entries: Vec<Entry>,
    /// Min-heap of resident entries by `(key, block)`; the root is the
    /// eviction victim.
    heap: Vec<HeapItem>,
    /// Block id → slab slot, [`ABSENT`] when not resident.
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
            capacity < ABSENT as usize,
            "capacity must fit 32-bit slot numbers"
        );
        // Slab and heap grow with residency: reserving `capacity` up front
        // measurably raised peak RSS (DESIGN.md §13, "LRFU index").
        LrfuCache {
            capacity,
            lambda,
            clock: 0,
            entries: Vec::new(),
            heap: Vec::new(),
            slot_of: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The decay parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The slab slot holding `block`, or [`ABSENT`].
    fn slot(&self, block: u64) -> u32 {
        usize::try_from(block)
            .ok()
            .and_then(|i| self.slot_of.get(i).copied())
            .unwrap_or(ABSENT)
    }

    /// Points `block`'s index cell at `slot`, growing the table on first
    /// admission of a block id past its end.
    fn set_slot(&mut self, block: u64, slot: u32) {
        let i = usize::try_from(block).expect("block id must fit the address space");
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1, ABSENT);
        }
        self.slot_of[i] = slot;
    }

    fn touch(&mut self, slot: u32, write: bool) {
        let entry = &mut self.entries[slot as usize];
        let elapsed = (self.clock - entry.last) as f64;
        entry.crf = 1.0 + entry.crf * 2f64.powf(-self.lambda * elapsed);
        entry.last = self.clock;
        entry.dirty |= write;
        let key = rank_bits(entry.crf, entry.last, self.lambda);
        let pos = entry.heap_pos as usize;
        self.heap[pos].key = key;
        self.resift(pos);
    }

    /// Writes `item` at heap position `pos` and records the position in
    /// its entry.
    fn place(&mut self, pos: usize, item: HeapItem) {
        self.heap[pos] = item;
        self.entries[item.slot as usize].heap_pos = pos as u32;
    }

    /// Restores heap order around `pos` after its key changed in either
    /// direction.
    fn resift(&mut self, pos: usize) {
        let pos = self.sift_up(pos);
        self.sift_down(pos);
    }

    fn sift_up(&mut self, mut pos: usize) -> usize {
        let item = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if above.order() <= item.order() {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, item);
        pos
    }

    fn sift_down(&mut self, mut pos: usize) {
        let item = self.heap[pos];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].order() < self.heap[left].order() {
                right
            } else {
                left
            };
            let below = self.heap[child];
            if item.order() <= below.order() {
                break;
            }
            self.place(pos, below);
            pos = child;
        }
        self.place(pos, item);
    }
}

impl BufferCache for LrfuCache {
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        let slot = self.slot(block);
        if slot != ABSENT {
            self.touch(slot, write);
            self.hits += 1;
            return CacheOutcome::hit();
        }
        self.misses += 1;
        if self.capacity == 0 {
            // Never admits: the disabled configuration is a pure pass-through.
            return CacheOutcome::miss(None);
        }
        let entry = Entry {
            crf: 1.0,
            last: self.clock,
            heap_pos: 0,
            dirty: write,
        };
        let key = rank_bits(1.0, self.clock, self.lambda);
        if self.entries.len() >= self.capacity {
            // Full (so the heap is non-empty): the root is the victim. The
            // newcomer takes over its slab slot and its place at the root.
            let victim = self.heap[0];
            let dirty = self.entries[victim.slot as usize].dirty;
            self.slot_of[victim.block as usize] = ABSENT;
            self.entries[victim.slot as usize] = entry;
            self.set_slot(block, victim.slot);
            self.heap[0] = HeapItem {
                key,
                block,
                slot: victim.slot,
            };
            self.sift_down(0);
            return CacheOutcome::miss(Some((victim.block, dirty)));
        }
        let slot = self.entries.len() as u32;
        self.entries.push(entry);
        self.set_slot(block, slot);
        self.heap.push(HeapItem { key, block, slot });
        self.sift_up(self.heap.len() - 1);
        CacheOutcome::miss(None)
    }

    fn invalidate(&mut self, block: u64) -> Option<bool> {
        let slot = self.slot(block);
        if slot == ABSENT {
            return None;
        }
        self.slot_of[block as usize] = ABSENT;
        // Unlink the heap item: the last item fills its hole and re-sifts.
        let pos = self.entries[slot as usize].heap_pos as usize;
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos < last {
            self.place(pos, self.heap[pos]);
            self.resift(pos);
        }
        // Compact the slab: the last entry moves into the freed slot.
        let removed = self.entries.swap_remove(slot as usize);
        if let Some(moved) = self.entries.get(slot as usize) {
            let item = &mut self.heap[moved.heap_pos as usize];
            item.slot = slot;
            self.slot_of[item.block as usize] = slot;
        }
        Some(removed.dirty)
    }

    fn contains(&self, block: u64) -> bool {
        self.slot(block) != ABSENT
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
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
