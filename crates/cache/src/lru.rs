//! Least-recently-used replacement, the λ → 1 endpoint of LRFU.

use crate::{BufferCache, CacheOutcome};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    dirty: bool,
}

/// LRU buffer cache.
///
/// # Examples
///
/// ```
/// use nvhsm_cache::{BufferCache, LruCache};
/// let mut c = LruCache::new(2);
/// c.access(1, false);
/// c.access(2, false);
/// c.access(1, false);            // 1 is now most recent
/// let out = c.access(3, false);  // evicts 2
/// assert_eq!(out.evicted, Some((2, false)));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<u64, Entry>,
    /// seq → block; first entry is least recent.
    order: BTreeMap<u64, u64>,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Creates a cache holding up to `capacity` blocks.
    ///
    /// A zero capacity is legal and yields a cache that never admits:
    /// every access is a miss with no eviction: a cacheless device.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            clock: 0,
            entries: HashMap::with_capacity(capacity),
            order: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl BufferCache for LruCache {
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&block) {
            self.hits += 1;
            self.order.remove(&entry.seq);
            entry.seq = self.clock;
            entry.dirty |= write;
            self.order.insert(self.clock, block);
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
            let victim = self.order.iter().next().map(|(&seq, &block)| (seq, block));
            debug_assert!(victim.is_some(), "full cache must have an order entry");
            match victim {
                Some((seq, victim)) => {
                    self.order.remove(&seq);
                    let dirty = self.entries.remove(&victim).is_some_and(|e| e.dirty);
                    Some((victim, dirty))
                }
                None => None,
            }
        } else {
            None
        };
        self.entries.insert(
            block,
            Entry {
                seq: self.clock,
                dirty: write,
            },
        );
        self.order.insert(self.clock, block);
        CacheOutcome::miss(evicted)
    }

    fn invalidate(&mut self, block: u64) -> Option<bool> {
        let entry = self.entries.remove(&block)?;
        self.order.remove(&entry.seq);
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
    fn evicts_least_recent() {
        let mut c = LruCache::new(3);
        for b in [1, 2, 3] {
            c.access(b, false);
        }
        c.access(1, false); // order now 2,3,1
        assert_eq!(c.access(4, false).evicted, Some((2, false)));
        assert_eq!(c.access(5, false).evicted, Some((3, false)));
    }

    #[test]
    fn write_marks_dirty_until_evicted() {
        let mut c = LruCache::new(1);
        c.access(9, false);
        c.access(9, true); // hit promotes and dirties
        let out = c.access(10, false);
        assert_eq!(out.evicted, Some((9, true)));
    }

    #[test]
    fn sequential_scan_larger_than_capacity_never_hits() {
        let mut c = LruCache::new(16);
        for round in 0..3 {
            for b in 0..64u64 {
                let out = c.access(b, false);
                assert!(!out.hit, "round {round} block {b} hit unexpectedly");
            }
        }
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = LruCache::new(0);
        for b in 0..8u64 {
            let out = c.access(b, b % 2 == 0);
            assert!(!out.hit);
            assert_eq!(out.evicted, None);
        }
        assert_eq!(c.len(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 8);
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = LruCache::new(16);
        for b in 0..10u64 {
            c.access(b, false);
        }
        c.reset_counters();
        for _ in 0..5 {
            for b in 0..10u64 {
                assert!(c.access(b, false).hit);
            }
        }
        assert_eq!(c.misses(), 0);
    }
}
