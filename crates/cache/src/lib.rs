//! Buffer-cache algorithms for the NVDIMM controller.
//!
//! The paper's NVDIMM device carries an on-controller buffer cache managed
//! with **LRFU** (Lee et al., *IEEE ToC* 2001) — the policy spectrum that
//! subsumes LRU (λ → 1) and LFU (λ → 0). Migration sweeps read entire
//! VMDKs through the device; without help, those one-shot reads evict the
//! working set and the hit ratio collapses (Fig. 15). §5.3.2's fix is the
//! **bypass** path: classified migrated requests go straight between flash
//! and the memory controller, never touching the cache — implemented here
//! as [`BypassCache`].
//!
//! All policies implement the [`BufferCache`] trait so the NVDIMM device
//! model and the experiments can swap them freely. The simulator runs one
//! buffer cache per NVDIMM, a `BypassCache<LrfuCache>` owned by the device
//! model; [`HotColdClassifier`] is the per-VMDK heat signal the node
//! simulation derives from that device's traffic. [`BypassCache`]'s
//! no-promote path also serves the device's no-admit reads.
//!
//! # Examples
//!
//! ```
//! use nvhsm_cache::{BufferCache, LrfuCache};
//!
//! let mut c = LrfuCache::new(2, 0.5);
//! assert!(!c.access(1, false).hit);
//! assert!(c.access(1, false).hit);
//! c.access(2, true);
//! c.access(3, false); // evicts someone
//! assert_eq!(c.len(), 2);
//! ```

pub mod bypass;
pub mod classifier;
pub mod lfu;
pub mod lrfu;
pub mod lru;

pub use bypass::{AccessClass, BypassCache};
pub use classifier::HotColdClassifier;
pub use lfu::LfuCache;
pub use lrfu::LrfuCache;
pub use lru::LruCache;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// A block evicted to make room, with its dirty flag (the device model
    /// charges a flash write-back for dirty victims).
    pub evicted: Option<(u64, bool)>,
}

impl CacheOutcome {
    /// A plain hit.
    pub fn hit() -> Self {
        CacheOutcome {
            hit: true,
            evicted: None,
        }
    }

    /// A miss with an optional eviction.
    pub fn miss(evicted: Option<(u64, bool)>) -> Self {
        CacheOutcome {
            hit: false,
            evicted,
        }
    }
}

/// A fixed-capacity block buffer cache.
///
/// Implementations track their own hit/miss counters; `access` is the one
/// hot-path operation: look up `block`, promote it under the policy, insert
/// on miss (evicting if full), and mark dirty on writes.
pub trait BufferCache {
    /// Accesses `block`; `write` marks the cached copy dirty.
    fn access(&mut self, block: u64, write: bool) -> CacheOutcome;

    /// Removes `block` if present, returning whether it was dirty.
    fn invalidate(&mut self, block: u64) -> Option<bool>;

    /// Whether `block` is currently cached.
    fn contains(&self, block: u64) -> bool;

    /// Maximum number of blocks held.
    fn capacity(&self) -> usize;

    /// Number of blocks currently held.
    fn len(&self) -> usize;

    /// Whether the cache holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits observed so far.
    fn hits(&self) -> u64;

    /// Misses observed so far.
    fn misses(&self) -> u64;

    /// Hit ratio over all accesses (0 when no accesses yet).
    fn hit_ratio(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Resets the hit/miss counters (contents are kept).
    fn reset_counters(&mut self);
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise(mut c: Box<dyn BufferCache>) {
        assert!(c.is_empty());
        assert!(!c.access(1, false).hit);
        assert!(c.access(1, false).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
        c.reset_counters();
        assert_eq!(c.hits(), 0);
        assert!(c.contains(1));
        assert_eq!(c.invalidate(1), Some(false));
        assert!(!c.contains(1));
    }

    #[test]
    fn all_policies_satisfy_the_contract() {
        exercise(Box::new(LrfuCache::new(4, 0.5)));
        exercise(Box::new(LruCache::new(4)));
        exercise(Box::new(LfuCache::new(4)));
    }

    #[test]
    fn dirty_eviction_reported() {
        for mut c in [
            Box::new(LrfuCache::new(1, 0.5)) as Box<dyn BufferCache>,
            Box::new(LruCache::new(1)),
            Box::new(LfuCache::new(1)),
        ] {
            c.access(1, true);
            let out = c.access(2, false);
            assert_eq!(out.evicted, Some((1, true)));
        }
    }
}
