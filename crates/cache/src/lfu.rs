//! Least-frequently-used replacement, the λ → 0 endpoint of LRFU.

use crate::{BufferCache, CacheOutcome};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u64,
    seq: u64,
    dirty: bool,
}

/// LFU buffer cache with least-recent tie-breaking.
///
/// # Examples
///
/// ```
/// use nvhsm_cache::{BufferCache, LfuCache};
/// let mut c = LfuCache::new(2);
/// c.access(1, false);
/// c.access(1, false);
/// c.access(2, false);
/// let out = c.access(3, false); // 2 has the lowest count
/// assert_eq!(out.evicted, Some((2, false)));
/// ```
#[derive(Debug, Clone)]
pub struct LfuCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<u64, Entry>,
    /// (count, seq) → block; first entry is the victim.
    order: BTreeMap<(u64, u64), u64>,
    hits: u64,
    misses: u64,
}

impl LfuCache {
    /// Creates a cache holding up to `capacity` blocks.
    ///
    /// A zero capacity is legal and yields a cache that never admits:
    /// every access is a miss with no eviction: a cacheless device.
    pub fn new(capacity: usize) -> Self {
        LfuCache {
            capacity,
            clock: 0,
            entries: HashMap::with_capacity(capacity),
            order: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl BufferCache for LfuCache {
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&block) {
            self.hits += 1;
            self.order.remove(&(entry.count, entry.seq));
            entry.count += 1;
            entry.seq = self.clock;
            entry.dirty |= write;
            self.order.insert((entry.count, entry.seq), block);
            return CacheOutcome::hit();
        }
        self.misses += 1;
        if self.capacity == 0 {
            // Never admits: the disabled configuration is a pure pass-through.
            return CacheOutcome::miss(None);
        }
        let evicted = if self.entries.len() >= self.capacity {
            // Invariant: entries and order always index the same set, so a
            // full cache has a first-ordered victim. Guarded rather than
            // unwrapped so a bookkeeping bug degrades instead of panicking
            // on the request path.
            let victim = self.order.iter().next().map(|(&key, &block)| (key, block));
            debug_assert!(victim.is_some(), "full cache must have an order entry");
            match victim {
                Some((key, victim)) => {
                    self.order.remove(&key);
                    let dirty = self.entries.remove(&victim).is_some_and(|e| e.dirty);
                    Some((victim, dirty))
                }
                None => None,
            }
        } else {
            None
        };
        let entry = Entry {
            count: 1,
            seq: self.clock,
            dirty: write,
        };
        self.order.insert((entry.count, entry.seq), block);
        self.entries.insert(block, entry);
        CacheOutcome::miss(evicted)
    }

    fn invalidate(&mut self, block: u64) -> Option<bool> {
        let entry = self.entries.remove(&block)?;
        self.order.remove(&(entry.count, entry.seq));
        Some(entry.dirty)
    }

    fn contains(&self, block: u64) -> bool {
        self.entries.contains_key(&block)
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

    #[test]
    fn evicts_lowest_count() {
        let mut c = LfuCache::new(3);
        for b in [1, 1, 1, 2, 2, 3] {
            c.access(b, false);
        }
        assert_eq!(c.access(4, false).evicted, Some((3, false)));
    }

    #[test]
    fn tie_breaks_least_recent() {
        let mut c = LfuCache::new(2);
        c.access(1, false);
        c.access(2, false);
        // Both count 1; 1 is older.
        assert_eq!(c.access(3, false).evicted, Some((1, false)));
    }

    #[test]
    fn frequent_block_survives_scans() {
        let mut c = LfuCache::new(4);
        for _ in 0..10 {
            c.access(42, false);
        }
        for b in 100..200u64 {
            c.access(b, false);
        }
        assert!(c.contains(42));
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = LfuCache::new(0);
        for b in 0..8u64 {
            let out = c.access(b, true);
            assert!(!out.hit);
            assert_eq!(out.evicted, None);
        }
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 8);
    }

    #[test]
    fn counts_persist_across_promotions() {
        let mut c = LfuCache::new(2);
        c.access(1, false);
        c.access(1, false);
        c.access(2, false);
        c.access(2, false);
        c.access(2, false);
        // 1 has count 2, 2 has count 3 -> inserting 3 evicts 1.
        assert_eq!(c.access(3, false).evicted, Some((1, false)));
    }
}
