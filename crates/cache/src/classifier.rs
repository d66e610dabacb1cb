//! Exponential-decay hot/cold classification over block ranges.
//!
//! One signal, two consumers: per-epoch access counts (fed from the epoch
//! observation builder) decay exponentially so that sustained activity
//! keeps a range hot while one-shot bursts cool off within a few epochs.
//! The verdicts drive both cache admission (reads of a cold VMDK carry a
//! no-admit hint to the NVDIMM's buffer cache) and the Manager's
//! migration-candidate ordering (classifier-hot VMDKs are preferred by
//! Eq. 6/7 selection).
//!
//! Determinism: scores live in a `BTreeMap` keyed by range id, no RNG is
//! consumed, and all arithmetic is a pure fold over the observed counts —
//! identical inputs yield identical verdicts at any worker count.

use std::collections::BTreeMap;

/// Scores below this after decay are dropped so retired ranges do not
/// accumulate forever.
const PRUNE_EPSILON: f64 = 1e-6;

/// Per-epoch hot/cold verdicts over block ranges (one range per VMDK).
///
/// # Examples
///
/// ```
/// use nvhsm_cache::HotColdClassifier;
/// let mut c = HotColdClassifier::new(0.5, 8.0);
/// c.observe(3, 100);
/// c.end_epoch();
/// assert!(c.is_hot(3));
/// // A one-shot burst cools off once it stops recurring.
/// for _ in 0..8 {
///     c.end_epoch();
/// }
/// assert!(!c.is_hot(3));
/// ```
#[derive(Debug, Clone)]
pub struct HotColdClassifier {
    /// Multiplicative per-epoch decay in `(0, 1)`.
    decay: f64,
    /// Score at or above which a range is hot.
    hot_threshold: f64,
    /// range id → decayed access score. BTreeMap for deterministic walks.
    scores: BTreeMap<u64, f64>,
    /// Counts observed this epoch, folded into `scores` at `end_epoch`.
    pending: BTreeMap<u64, u64>,
    epochs: u64,
}

impl HotColdClassifier {
    /// Builds a classifier with per-epoch `decay` and `hot_threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is not in `(0, 1)` or `hot_threshold` is not a
    /// positive finite number.
    pub fn new(decay: f64, hot_threshold: f64) -> Self {
        assert!(decay > 0.0 && decay < 1.0, "decay must be in (0, 1)");
        assert!(
            hot_threshold > 0.0 && hot_threshold.is_finite(),
            "hot_threshold must be positive and finite"
        );
        HotColdClassifier {
            decay,
            hot_threshold,
            scores: BTreeMap::new(),
            pending: BTreeMap::new(),
            epochs: 0,
        }
    }

    /// Records `accesses` against `range` for the current epoch.
    pub fn observe(&mut self, range: u64, accesses: u64) {
        if accesses == 0 {
            return;
        }
        *self.pending.entry(range).or_insert(0) += accesses;
    }

    /// Closes the epoch: decays every score, folds in the pending counts,
    /// and prunes ranges that have cooled to nothing. Verdicts are stable
    /// between `end_epoch` calls.
    pub fn end_epoch(&mut self) {
        self.epochs += 1;
        let pending = std::mem::take(&mut self.pending);
        for score in self.scores.values_mut() {
            *score *= self.decay;
        }
        for (range, count) in pending {
            *self.scores.entry(range).or_insert(0.0) += count as f64;
        }
        self.scores.retain(|_, s| *s >= PRUNE_EPSILON);
    }

    /// Whether `range`'s decayed score is at or above the hot threshold.
    pub fn is_hot(&self, range: u64) -> bool {
        self.scores
            .get(&range)
            .is_some_and(|s| *s >= self.hot_threshold)
    }

    /// The decayed score of `range` (zero when untracked).
    pub fn score(&self, range: u64) -> f64 {
        self.scores.get(&range).copied().unwrap_or(0.0)
    }

    /// All hot ranges in ascending id order (deterministic).
    pub fn hot_ranges(&self) -> Vec<u64> {
        self.scores
            .iter()
            .filter(|(_, s)| **s >= self.hot_threshold)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Drops all state for `range` (e.g. the VMDK was deleted).
    pub fn retire(&mut self, range: u64) {
        self.scores.remove(&range);
        self.pending.remove(&range);
    }

    /// Number of ranges still carrying a score.
    pub fn tracked(&self) -> usize {
        self.scores.len()
    }

    /// Number of closed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_traffic_stays_hot_one_shot_cools() {
        let mut c = HotColdClassifier::new(0.5, 10.0);
        for _ in 0..6 {
            c.observe(1, 20); // steady
            c.end_epoch();
        }
        c.observe(2, 100); // burst
        c.end_epoch();
        assert!(c.is_hot(1));
        assert!(c.is_hot(2));
        for _ in 0..5 {
            c.observe(1, 20);
            c.end_epoch();
        }
        assert!(c.is_hot(1), "steady range must stay hot");
        assert!(!c.is_hot(2), "burst must cool: score {}", c.score(2));
    }

    #[test]
    fn verdicts_stable_within_an_epoch() {
        let mut c = HotColdClassifier::new(0.5, 5.0);
        c.observe(7, 50);
        assert!(!c.is_hot(7), "pending counts must not leak mid-epoch");
        c.end_epoch();
        assert!(c.is_hot(7));
        c.observe(7, 1_000); // not folded until end_epoch
        assert!((c.score(7) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cold_ranges_are_pruned() {
        let mut c = HotColdClassifier::new(0.5, 5.0);
        c.observe(1, 8);
        c.end_epoch();
        assert_eq!(c.tracked(), 1);
        for _ in 0..64 {
            c.end_epoch();
        }
        assert_eq!(c.tracked(), 0, "decayed-out range must be pruned");
        assert_eq!(c.score(1), 0.0);
    }

    #[test]
    fn hot_ranges_sorted_and_retire_drops_state() {
        let mut c = HotColdClassifier::new(0.9, 1.0);
        for r in [9, 2, 5] {
            c.observe(r, 10);
        }
        c.end_epoch();
        assert_eq!(c.hot_ranges(), vec![2, 5, 9]);
        c.retire(5);
        assert_eq!(c.hot_ranges(), vec![2, 9]);
        assert!(!c.is_hot(5));
    }
}
