//! Differential oracle for `LrfuCache`: the shipped cache (slab, recency
//! list, sorted victim window, dense block index) against the ordered-map
//! LRFU it replaced, kept here verbatim as the reference. Random access /
//! invalidate / bypass traces must produce the same outcome, victim and
//! dirty flag, residency, length and counters after every operation.

use nvhsm_cache::{AccessClass, BufferCache, BypassCache, LrfuCache};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The `BTreeMap`/`HashMap` LRFU, unchanged apart from dropping the
/// `lambda` accessor and the public-API docs.
mod btree {
    use nvhsm_cache::{BufferCache, CacheOutcome};
    use std::collections::{BTreeMap, HashMap};

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        crf: f64,
        last: u64,
        /// Ordered index key (bits of the f64 rank, see `rank_bits`).
        key: u64,
        dirty: bool,
    }

    /// LRFU buffer cache.
    #[derive(Debug, Clone)]
    pub struct LrfuCache {
        capacity: usize,
        lambda: f64,
        clock: u64,
        entries: HashMap<u64, Entry>,
        /// (rank bits, block) → (); first element is the eviction victim.
        order: BTreeMap<(u64, u64), ()>,
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
        pub fn new(capacity: usize, lambda: f64) -> Self {
            assert!(
                lambda >= 0.0 && lambda.is_finite(),
                "lambda must be a non-negative finite number"
            );
            LrfuCache {
                capacity,
                lambda,
                clock: 0,
                entries: HashMap::with_capacity(capacity),
                order: BTreeMap::new(),
                hits: 0,
                misses: 0,
            }
        }

        fn touch(&mut self, block: u64, write: bool) -> bool {
            let Some(entry) = self.entries.get_mut(&block) else {
                return false;
            };
            self.order.remove(&(entry.key, block));
            let elapsed = (self.clock - entry.last) as f64;
            entry.crf = 1.0 + entry.crf * 2f64.powf(-self.lambda * elapsed);
            entry.last = self.clock;
            entry.key = rank_bits(entry.crf, entry.last, self.lambda);
            entry.dirty |= write;
            self.order.insert((entry.key, block), ());
            true
        }

        fn evict(&mut self) -> Option<(u64, bool)> {
            let (&(key, block), _) = self.order.iter().next()?;
            self.order.remove(&(key, block));
            // Invariant: entries and order always index the same set. Guarded
            // rather than unwrapped so a bookkeeping bug degrades instead of
            // panicking on the request path.
            let entry = self.entries.remove(&block);
            debug_assert!(entry.is_some(), "order entry must have a backing entry");
            Some((block, entry.is_some_and(|e| e.dirty)))
        }
    }

    impl BufferCache for LrfuCache {
        fn access(&mut self, block: u64, write: bool) -> CacheOutcome {
            self.clock += 1;
            if self.touch(block, write) {
                self.hits += 1;
                return CacheOutcome::hit();
            }
            self.misses += 1;
            if self.capacity == 0 {
                // Never admits: the disabled configuration is a pure pass-through.
                return CacheOutcome::miss(None);
            }
            let evicted = if self.entries.len() >= self.capacity {
                self.evict()
            } else {
                None
            };
            let entry = Entry {
                crf: 1.0,
                last: self.clock,
                key: rank_bits(1.0, self.clock, self.lambda),
                dirty: write,
            };
            self.order.insert((entry.key, block), ());
            self.entries.insert(block, entry);
            CacheOutcome::miss(evicted)
        }

        fn invalidate(&mut self, block: u64) -> Option<bool> {
            let entry = self.entries.remove(&block)?;
            self.order.remove(&(entry.key, block));
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
}

/// One step of a trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A normal-class access through the replacement policy.
    Access(u64, bool),
    /// A migrated-class probe through `BypassCache`.
    Bypass(u64, bool),
    /// Invalidation of an arbitrary block (resident or not).
    Invalidate(u64),
    /// Invalidation of the `n`-th resident block (mod the resident
    /// count), in ascending block order: lands anywhere in the eviction
    /// order.
    InvalidateResident(usize),
}

/// Decodes a raw `(kind, value, write)` draw over blocks `0..universe`:
/// accesses 8 : bypass probes 2 : invalidations 1 : resident
/// invalidations 1.
fn decode(universe: u64, (kind, value, write): (u8, u64, bool)) -> Op {
    match kind {
        0..=7 => Op::Access(value % universe, write),
        8..=9 => Op::Bypass(value % universe, write),
        10 => Op::Invalidate(value % universe),
        _ => Op::InvalidateResident(value as usize),
    }
}

/// The λ regimes: LFU-like, Table 4's 0.05, the property tests' 0.3, and
/// LRU-like.
const LAMBDAS: [f64; 4] = [0.0, 0.05, 0.3, 10.0];

/// Runs `ops` through the shipped cache and the reference, comparing every
/// observable after every step.
fn assert_matches_reference(capacity: usize, lambda: f64, universe: u64, ops: &[Op]) {
    let mut fast = BypassCache::new(LrfuCache::new(capacity, lambda));
    let mut reference = BypassCache::new(btree::LrfuCache::new(capacity, lambda));
    let ctx = |step: usize, op: Op| format!("capacity {capacity}, λ {lambda}, step {step}: {op:?}");
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(block, write) => {
                let got = fast.access(block, write);
                let want = reference.access(block, write);
                assert_eq!(got, want, "{}", ctx(step, op));
            }
            Op::Bypass(block, write) => {
                let got = fast.access_classified(block, write, AccessClass::Migrated);
                let want = reference.access_classified(block, write, AccessClass::Migrated);
                assert_eq!(got, want, "{}", ctx(step, op));
            }
            Op::Invalidate(block) => {
                let got = fast.invalidate(block);
                assert_eq!(got, reference.invalidate(block), "{}", ctx(step, op));
            }
            Op::InvalidateResident(n) => {
                let resident: Vec<u64> = (0..universe).filter(|&b| reference.contains(b)).collect();
                if !resident.is_empty() {
                    let block = resident[n % resident.len()];
                    let got = fast.invalidate(block);
                    assert!(got.is_some(), "{}: resident {block} missing", ctx(step, op));
                    assert_eq!(got, reference.invalidate(block), "{}", ctx(step, op));
                }
            }
        }
        assert_eq!(fast.len(), reference.len(), "len: {}", ctx(step, op));
        assert_eq!(fast.hits(), reference.hits(), "hits: {}", ctx(step, op));
        assert_eq!(
            fast.misses(),
            reference.misses(),
            "misses: {}",
            ctx(step, op)
        );
        assert_eq!(fast.bypassed(), reference.bypassed());
        assert_eq!(fast.bypass_hits(), reference.bypass_hits());
        for b in 0..universe {
            assert_eq!(
                fast.contains(b),
                reference.contains(b),
                "contains({b}): {}",
                ctx(step, op)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random traces at every λ regime agree with the reference step by
    /// step. Capacity is 0 or 1 in a quarter of the cases each way and
    /// 2..=64 otherwise; blocks come from a universe a little over twice
    /// the capacity, so hits, evictions and resident invalidations all
    /// occur.
    #[test]
    fn prop_lrfu_matches_btree_reference(
        shape in (0u8..8, 2usize..65, 0usize..4),
        raw in proptest::collection::vec((0u8..12, 0u64..1 << 32, proptest::bool::ANY), 0..600),
    ) {
        let (selector, wide, lambda) = shape;
        let capacity = match selector {
            0 => 0,
            1 => 1,
            _ => wide,
        };
        let universe = 2 * capacity as u64 + 4;
        let ops: Vec<Op> = raw.into_iter().map(|r| decode(universe, r)).collect();
        assert_matches_reference(capacity, LAMBDAS[lambda], universe, &ops);
    }

    /// λ = 0 makes a block's rank its reference count, so blocks touched
    /// equally often tie and the lower block id must go first. Rounds that
    /// each touch all 40 blocks once, in a random order, keep counts level;
    /// every victim must be the lowest `(count, block)` among residents,
    /// and the run must match the reference.
    #[test]
    fn prop_lambda_zero_ties_break_on_block_id(
        capacity in 1usize..24,
        rounds in proptest::collection::vec(
            proptest::collection::vec(0u64..1 << 32, 40..41),
            1..6,
        ),
    ) {
        let mut trace = Vec::new();
        for keys in &rounds {
            let mut round: Vec<u64> = (0..40).collect();
            round.sort_by_key(|&b| (keys[b as usize], b));
            trace.extend(round);
        }
        let mut fast = LrfuCache::new(capacity, 0.0);
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &block in &trace {
            let expected_victim = if fast.len() >= capacity && !fast.contains(block) {
                counts.iter().map(|(&b, &n)| (n, b)).min().map(|(_, b)| b)
            } else {
                None
            };
            let out = fast.access(block, false);
            assert_eq!(out.evicted.map(|(b, _)| b), expected_victim);
            if let Some((victim, _)) = out.evicted {
                counts.remove(&victim);
            }
            *counts.entry(block).or_insert(0) += 1;
        }
        let ops: Vec<Op> = trace.iter().map(|&b| Op::Access(b, false)).collect();
        assert_matches_reference(capacity, 0.0, 40, &ops);
    }

    /// Fill the cache with skewed reference counts (so ranks spread), then
    /// invalidate residents anywhere in the eviction order while new blocks
    /// keep evicting.
    #[test]
    fn prop_mid_heap_invalidations_match_reference(
        capacity in 2usize..65,
        lambda in 0usize..4,
        warm in proptest::collection::vec(0u64..1 << 32, 0..400),
        churn in proptest::collection::vec((proptest::bool::ANY, 0u64..1 << 32, proptest::bool::ANY), 0..300),
    ) {
        let cap = capacity as u64;
        let mut ops: Vec<Op> = (0..cap).map(|b| Op::Access(b, true)).collect();
        // Squaring skews the draw toward low blocks: uneven counts.
        ops.extend(warm.iter().map(|&r| Op::Access((r % cap) * (r % cap) / cap, false)));
        ops.extend(churn.iter().map(|&(invalidate, r, write)| {
            if invalidate {
                Op::InvalidateResident(r as usize)
            } else {
                Op::Access(r % 160, write)
            }
        }));
        assert_matches_reference(capacity, LAMBDAS[lambda], 160, &ops);
    }
}

proptest! {
    // Each case runs a few thousand steps over a universe of up to 2,048
    // blocks, so fewer cases than above.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Caches wider than any victim window (at most 100 entries, at
    /// λ = 0.05), under traffic that reaches the window's edge. Uniform
    /// single references over four times the capacity miss and evict. A
    /// burst of 12 references lifts a block's CRF near its bound, so an
    /// aging burst outranks single references made up to ~65 accesses
    /// after it, and victims fall deep inside the window. Bursts go to
    /// squared (low-skewed) blocks, which stay hot and hit at the tail.
    /// Hits and resident invalidations land on both sides of the edge. The
    /// trace grows with the capacity so the cache turns over.
    #[test]
    fn prop_wide_caches_match_reference_across_the_window_edge(
        capacity in 128usize..513,
        lambda in 0usize..4,
        raw in proptest::collection::vec((0u8..12, 0u64..1 << 32, proptest::bool::ANY), 1324..1325),
    ) {
        let universe = 4 * capacity as u64;
        let mut ops = Vec::new();
        for &(kind, r, write) in raw.iter().take(2 * capacity + 300) {
            let skewed = (r % universe) * (r % universe) / universe;
            match kind {
                0..=3 => ops.push(Op::Access(r % universe, write)),
                4..=5 => ops.extend([Op::Access(skewed, write); 12]),
                6..=7 => ops.push(Op::Access(skewed, write)),
                8..=9 => ops.push(Op::Bypass(skewed, write)),
                10 => ops.push(Op::Invalidate(skewed)),
                _ => ops.push(Op::InvalidateResident(r as usize)),
            }
        }
        assert_matches_reference(capacity, LAMBDAS[lambda], universe, &ops);
    }
}

#[test]
fn lambda_zero_single_reference_ties_evict_the_lowest_block() {
    let mut c = LrfuCache::new(4, 0.0);
    for b in [9, 3, 7, 5] {
        c.access(b, false);
    }
    assert_eq!(c.access(1, false).evicted, Some((3, false)));
    assert_eq!(c.access(2, false).evicted, Some((1, false)));
    c.access(5, false);
    // 5 now has two references: the single-reference blocks go first,
    // lowest id first.
    assert_eq!(c.access(11, false).evicted, Some((2, false)));
    assert_eq!(c.access(12, false).evicted, Some((7, false)));
}
