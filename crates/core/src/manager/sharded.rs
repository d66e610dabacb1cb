//! Sharded placement and balancing for datacenter-scale clusters.
//!
//! The plain [`Manager`] walks every datastore for Eq. 4 placement and
//! Eq. 5 imbalance — O(N) observations with an O(N) inner loop per
//! placement candidate, fine for the paper's three nodes and hopeless for
//! thousands. [`ShardedPolicyEngine`] partitions nodes into fixed-size
//! shards and restricts every model-driven scan to one shard:
//!
//! * **Placement (Eq. 4)** runs on the arriving workload's home shard,
//!   found by binary search over the node-sorted observations; when the
//!   home shard rejects (no feasible store, or every candidate would trip
//!   the τ preview), a *spill* path ranks the remaining shards by a cheap
//!   measured-load summary (no model calls) and retries the full Eq. 4
//!   scan on the best candidates in order. The scan does O(shard) model
//!   work and O(shard²) additions; the spill path's shard split and
//!   summary pass are O(N) arithmetic.
//! * **Imbalance (Eq. 5)** picks the *hot shard* — the shard holding the
//!   highest measured per-store latency among loaded, healthy stores —
//!   and runs the inner manager's full detection + cost/benefit gate on
//!   that shard's observations only.
//! * **Evacuation** handles each degraded store within its own shard,
//!   falling back to a whole-cluster scan only when the shard has no
//!   healthy destination (rare: a shard-wide outage).
//!
//! ## Documented Eq. 5 tolerance
//!
//! Within the hot shard, Δ/max is computed exactly as the unsharded
//! manager would over that slice. Because the shard-local minimum is at
//! least the global minimum, the shard-local imbalance is a *lower bound*
//! on the global Δ/max: the sharded detector is conservative (it never
//! reports more imbalance than a global scan would), and it underestimates
//! by at most `(min_shard − min_global) / max` — the spread of per-shard
//! minima. A trigger seen sharded would also fire globally. The
//! `multi_shard_imbalance_is_a_conservative_lower_bound` test pins this.
//!
//! ## One-shard oracle
//!
//! When the observations span at most one shard, every trait method
//! delegates to the inner [`Manager`] with the *identical* argument slice,
//! so a `ShardedPolicyEngine` covering the whole cluster in one shard is
//! byte-identical to the unsharded manager by construction (the
//! differential-oracle suite in `tests/sharded_oracle.rs` checks the full
//! report/trace surface end to end).
//!
//! Observations must arrive sorted by node — the layout `NodeSim` and
//! `ServingSim` produce (datastores grouped per node, nodes ascending).
//! This makes each shard a contiguous slice, so no copying is needed.

use super::{DeviceObservation, EpochDiagnostics, Manager, MigrationDecision, NetworkCosts};
use crate::datastore::DatastoreId;
use crate::manager::{DeviceHealth, PolicyEngine, ResidentInfo};
use nvhsm_device::DeviceKind;
use std::cell::Cell;
use std::ops::Range;

/// Cheap per-shard load summary, computed from measured epoch statistics
/// only (no model predictions): the spill path's ranking key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSummary {
    /// Shard ordinal.
    pub shard: usize,
    /// Datastores observed in the shard.
    pub stores: usize,
    /// Stores currently available for placement (healthy).
    pub available: usize,
    /// Largest free extent over the shard's available stores, blocks.
    pub max_free_blocks: u64,
    /// Request-weighted mean measured latency over loaded, available
    /// stores, µs (0 when idle).
    pub mean_latency_us: f64,
    /// Total requests the shard served in the epoch.
    pub io_count: u64,
    /// Whether any store is degraded (evacuation work pending).
    pub degraded: bool,
}

/// Mirrors `DeviceObservation::counts_for_imbalance`: loaded (≥ 10
/// requests) *and* healthy. Kept in sync so the hot-shard choice agrees
/// with what the inner manager will compute on the chosen slice.
fn steers_imbalance(o: &DeviceObservation) -> bool {
    o.epoch.io_count() >= 10 && o.health.available()
}

/// Whether `observations` are grouped by ascending node, the layout every
/// shard slice relies on.
fn sorted_by_node(observations: &[DeviceObservation]) -> bool {
    observations.windows(2).all(|w| w[0].node <= w[1].node)
}

/// Splits `observations` (sorted by node) into per-shard contiguous
/// ranges, `nodes_per_shard` nodes each. O(N) index arithmetic.
pub(super) fn shard_ranges(
    observations: &[DeviceObservation],
    nodes_per_shard: usize,
) -> Vec<Range<usize>> {
    debug_assert!(
        sorted_by_node(observations),
        "observations must be sorted by node for contiguous shard slices"
    );
    let mut ranges: Vec<Range<usize>> = Vec::new();
    if observations.is_empty() {
        return ranges;
    }
    let mut start = 0usize;
    for i in 1..observations.len() {
        if observations[i].node / nodes_per_shard != observations[start].node / nodes_per_shard {
            ranges.push(start..i);
            start = i;
        }
    }
    ranges.push(start..observations.len());
    ranges
}

/// Computes the per-shard summaries of one observation set. Exposed for
/// the spill path, the serving-plane report, and the shard-scan bench.
pub fn shard_summaries(
    observations: &[DeviceObservation],
    nodes_per_shard: usize,
) -> Vec<ShardSummary> {
    shard_ranges(observations, nodes_per_shard)
        .into_iter()
        .map(|r| {
            let slice = &observations[r.clone()];
            let shard = slice[0].node / nodes_per_shard;
            let mut s = ShardSummary {
                shard,
                stores: slice.len(),
                available: 0,
                max_free_blocks: 0,
                mean_latency_us: 0.0,
                io_count: 0,
                degraded: false,
            };
            let mut weighted = 0.0;
            let mut weight = 0u64;
            for o in slice {
                s.io_count += o.epoch.io_count();
                s.degraded |= o.health == DeviceHealth::Degraded;
                if o.health.available() {
                    s.available += 1;
                    s.max_free_blocks = s.max_free_blocks.max(o.free_capacity_blocks);
                }
                if steers_imbalance(o) {
                    let lat = o.epoch.mean_latency_us();
                    if lat.is_finite() {
                        weighted += lat * o.epoch.io_count() as f64;
                        weight += o.epoch.io_count();
                    }
                }
            }
            if weight > 0 {
                s.mean_latency_us = weighted / weight as f64;
            }
            s
        })
        .collect()
}

/// A [`PolicyEngine`] that partitions the cluster into fixed-size node
/// shards and keeps every Eq. 4/5 model scan O(shard), not O(cluster).
///
/// Wraps an unsharded [`Manager`]; all Eq. 4–7 arithmetic (including
/// debounce state and the model source) lives in the inner manager and is
/// driven with per-shard observation slices.
#[derive(Debug)]
pub struct ShardedPolicyEngine {
    inner: Manager,
    nodes_per_shard: usize,
    /// Placements the home shard rejected that a spill shard satisfied.
    /// `Cell`: placement is a `&self` trait method.
    spill_placements: Cell<u64>,
}

impl ShardedPolicyEngine {
    /// Wraps `inner`, partitioning nodes into shards of `nodes_per_shard`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_shard` is zero (a zero-node shard is
    /// meaningless; callers express "unsharded" by not constructing this
    /// type, or by a shard at least as large as the cluster).
    pub fn new(inner: Manager, nodes_per_shard: usize) -> Self {
        assert!(nodes_per_shard > 0, "nodes_per_shard must be positive");
        ShardedPolicyEngine {
            inner,
            nodes_per_shard,
            spill_placements: Cell::new(0),
        }
    }

    /// Shard size in nodes.
    pub fn nodes_per_shard(&self) -> usize {
        self.nodes_per_shard
    }

    /// The wrapped unsharded manager.
    pub fn inner(&self) -> &Manager {
        &self.inner
    }

    /// Placements satisfied outside the arriving workload's home shard.
    pub fn spill_placements(&self) -> u64 {
        self.spill_placements.get()
    }
}

impl PolicyEngine for ShardedPolicyEngine {
    fn set_network(&mut self, net: NetworkCosts) {
        self.inner.set_network(net);
    }

    fn initial_placement_from(
        &self,
        observations: &[DeviceObservation],
        new_workload: &ResidentInfo,
        home: Option<usize>,
    ) -> Option<DatastoreId> {
        debug_assert!(
            sorted_by_node(observations),
            "observations must be sorted by node for contiguous shard slices"
        );
        let shard_of = |o: &DeviceObservation| o.node / self.nodes_per_shard;
        if observations.first().map(shard_of) == observations.last().map(shard_of) {
            // At most one shard covers everything: identical to the
            // unsharded scan.
            return self
                .inner
                .initial_placement_from(observations, new_workload, home);
        }
        // The home shard's slice, by binary search over the node-sorted
        // observations. Workloads with no declared home shard (or whose
        // home shard has no stores) start at the first shard — a
        // deterministic choice; the spill path covers the rest.
        let shard_slice = |s: usize| {
            observations.partition_point(|o| shard_of(o) < s)
                ..observations.partition_point(|o| shard_of(o) <= s)
        };
        let home_range = home
            .map(|h| shard_slice(h / self.nodes_per_shard))
            .filter(|r| !r.is_empty())
            .unwrap_or_else(|| shard_slice(shard_of(&observations[0])));
        if let Some(ds) =
            self.inner
                .initial_placement_from(&observations[home_range.clone()], new_workload, home)
        {
            return Some(ds);
        }
        // Home shard rejected: rank the other shards by the cheap measured
        // summary (lightest load first, capacity-feasible only) and retry
        // the Eq. 4 scan there. Deterministic order: load, then ordinal.
        let ranges = shard_ranges(observations, self.nodes_per_shard);
        let summaries = shard_summaries(observations, self.nodes_per_shard);
        let mut spill: Vec<usize> = (0..ranges.len())
            .filter(|&i| {
                ranges[i] != home_range
                    && summaries[i].available > 0
                    && summaries[i].max_free_blocks >= new_workload.size_blocks
            })
            .collect();
        spill.sort_by(|&a, &b| {
            summaries[a]
                .mean_latency_us
                .total_cmp(&summaries[b].mean_latency_us)
                .then(a.cmp(&b))
        });
        for i in spill {
            if let Some(ds) = self.inner.initial_placement_from(
                &observations[ranges[i].clone()],
                new_workload,
                home,
            ) {
                self.spill_placements.set(self.spill_placements.get() + 1);
                return Some(ds);
            }
        }
        None
    }

    fn epoch_decision(
        &mut self,
        observations: &[DeviceObservation],
        migration_active: bool,
    ) -> Option<MigrationDecision> {
        let ranges = shard_ranges(observations, self.nodes_per_shard);
        if ranges.len() <= 1 {
            return self.inner.epoch_decision(observations, migration_active);
        }
        // Hot shard: the one holding the highest measured latency among
        // stores that steer Eq. 5. Measured (not model-predicted) so the
        // selection is O(N) arithmetic; the model runs only on the chosen
        // slice. First-wins tie-break keeps the choice deterministic.
        let mut hot = 0usize;
        let mut hot_lat = f64::NEG_INFINITY;
        for (i, r) in ranges.iter().enumerate() {
            let lat = observations[r.clone()]
                .iter()
                .filter(|o| steers_imbalance(o))
                .map(|o| {
                    let l = o.epoch.mean_latency_us();
                    if l.is_finite() {
                        l
                    } else {
                        0.0
                    }
                })
                .fold(f64::NEG_INFINITY, f64::max);
            if lat > hot_lat {
                hot_lat = lat;
                hot = i;
            }
        }
        self.inner
            .epoch_decision(&observations[ranges[hot].clone()], migration_active)
    }

    fn evacuation_decision(&self, observations: &[DeviceObservation]) -> Option<MigrationDecision> {
        let ranges = shard_ranges(observations, self.nodes_per_shard);
        if ranges.len() <= 1 {
            return self.inner.evacuation_decision(observations);
        }
        let mut any_degraded = false;
        for r in &ranges {
            let slice = &observations[r.clone()];
            if !slice.iter().any(|o| o.health == DeviceHealth::Degraded) {
                continue;
            }
            any_degraded = true;
            if let Some(d) = self.inner.evacuation_decision(slice) {
                return Some(d);
            }
        }
        if any_degraded {
            // Rare fallback: a degraded store whose whole shard offers no
            // healthy destination (e.g. a shard-wide outage) escalates to
            // the global scan rather than stranding its residents.
            return self.inner.evacuation_decision(observations);
        }
        None
    }

    fn last_diagnostics(&self) -> &EpochDiagnostics {
        self.inner.last_diagnostics()
    }

    fn baseline_us(&self, kind: DeviceKind) -> f64 {
        self.inner.models().baseline_us(kind)
    }

    // The model is cluster-global (one tree per device *kind*, not per
    // shard), so observation feeding and epoch closing delegate to the
    // inner manager with the full observation set — sharding changes
    // which stores an epoch decision scans, never what the model learns.
    fn observe_model(&mut self, observations: &[crate::training::ModelObservation]) {
        self.inner.observe_model(observations);
    }

    fn end_model_epoch(&mut self) -> Vec<crate::training::ModelEvent> {
        self.inner.end_model_epoch()
    }

    fn model_stats(&self) -> crate::training::ModelSourceStats {
        self.inner.model_stats()
    }

    // Heat verdicts are cluster-global like the model: the classifier
    // scores VMDKs, not shards, so the full hot set reaches the inner
    // manager regardless of which slice an epoch decision later scans.
    fn observe_heat(&mut self, hot: &[crate::vmdk::VmdkId]) {
        self.inner.observe_heat(hot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::training::pretrain_models;
    use nvhsm_device::EpochStats;
    use nvhsm_model::Features;
    use nvhsm_sim::{OnlineStats, SimDuration};

    /// One synthesized observation with a given measured latency and load.
    fn obs(ds: usize, node: usize, kind: DeviceKind, lat_us: f64, free: u64) -> DeviceObservation {
        let mut latency_us = OnlineStats::new();
        latency_us.add(lat_us);
        DeviceObservation {
            ds: DatastoreId(ds),
            node,
            kind,
            epoch: EpochStats {
                duration: SimDuration::from_ms(200),
                reads: 70,
                writes: 30,
                seq_reads: 35,
                seq_writes: 15,
                read_blocks: 140,
                write_blocks: 60,
                latency_us,
                per_stream_latency_us: Default::default(),
                migrated_ios: 0,
            },
            free_space: 0.5,
            free_capacity_blocks: free,
            residents: vec![ResidentInfo {
                vmdk: crate::vmdk::VmdkId(ds as u32),
                size_blocks: 64,
                features: Features {
                    wr_ratio: 0.3,
                    oios: 1.0,
                    ios: 2.0,
                    wr_rand: 0.5,
                    rd_rand: 0.5,
                    free_space_ratio: 0.5,
                },
                io_count: 100,
                mean_latency_us: lat_us,
                live_blocks: 64,
            }],
            health: DeviceHealth::Healthy,
        }
    }

    /// Four nodes, one SSD store each, measured latencies 10/20/30/1000 µs.
    fn fleet() -> Vec<DeviceObservation> {
        [10.0, 20.0, 30.0, 1000.0]
            .iter()
            .enumerate()
            .map(|(n, &l)| obs(n, n, DeviceKind::Ssd, l, 1_000_000))
            .collect()
    }

    fn manager() -> Manager {
        Manager::new(PolicyKind::Pesto, 0.5, pretrain_models(20, 7))
    }

    /// τ = 1 disables the Eq. 4 imbalance preview (Δ/max never exceeds 1),
    /// so placement-routing tests see sharding decisions only.
    fn permissive_manager() -> Manager {
        Manager::new(PolicyKind::Pesto, 1.0, pretrain_models(20, 7))
    }

    #[test]
    fn single_shard_placement_delegates_exactly() {
        let fleet = fleet();
        let w = fleet[0].residents[0].clone();
        let inner = manager();
        let plain = manager();
        let sharded = ShardedPolicyEngine::new(inner, 8); // one shard covers all
        assert_eq!(
            PolicyEngine::initial_placement_from(&sharded, &fleet, &w, Some(0)),
            plain.initial_placement_from(&fleet, &w, Some(0)),
        );
        assert_eq!(sharded.spill_placements(), 0);
    }

    /// A load-balanced fleet: no shard trips the Eq. 4 τ preview, so
    /// placement outcomes isolate the sharding logic.
    fn balanced_fleet() -> Vec<DeviceObservation> {
        [100.0, 110.0, 90.0, 95.0]
            .iter()
            .enumerate()
            .map(|(n, &l)| obs(n, n, DeviceKind::Ssd, l, 1_000_000))
            .collect()
    }

    #[test]
    fn placement_stays_in_home_shard_when_feasible() {
        let fleet = balanced_fleet();
        let w = fleet[0].residents[0].clone();
        let sharded = ShardedPolicyEngine::new(permissive_manager(), 2); // shards {0,1}, {2,3}
        let ds = PolicyEngine::initial_placement_from(&sharded, &fleet, &w, Some(2))
            .expect("home shard has capacity");
        assert!(ds.0 >= 2, "placed on {ds:?}, outside home shard");
        assert_eq!(sharded.spill_placements(), 0);
    }

    #[test]
    fn spill_path_places_on_lightest_other_shard() {
        let mut fleet = balanced_fleet();
        // Home shard {2,3} has no capacity at all.
        fleet[2].free_capacity_blocks = 0;
        fleet[3].free_capacity_blocks = 0;
        let w = fleet[0].residents[0].clone();
        let sharded = ShardedPolicyEngine::new(permissive_manager(), 2);
        let ds = PolicyEngine::initial_placement_from(&sharded, &fleet, &w, Some(2))
            .expect("spill shard has capacity");
        assert!(ds.0 < 2, "expected a spill placement, got {ds:?}");
        assert_eq!(sharded.spill_placements(), 1);
    }

    #[test]
    fn admission_is_refused_when_no_shard_has_capacity() {
        let mut fleet = fleet();
        for o in &mut fleet {
            o.free_capacity_blocks = 1;
        }
        let w = fleet[0].residents[0].clone();
        let sharded = ShardedPolicyEngine::new(manager(), 2);
        assert_eq!(
            PolicyEngine::initial_placement_from(&sharded, &fleet, &w, Some(0)),
            None
        );
    }

    #[test]
    fn hot_shard_selection_finds_the_global_maximum() {
        let fleet = fleet();
        let mut sharded = ShardedPolicyEngine::new(manager(), 2);
        // First call arms the debounce; second may act. Either way the
        // diagnostics must describe the shard holding the 1000 µs store.
        let _ = PolicyEngine::epoch_decision(&mut sharded, &fleet, false);
        let diag = PolicyEngine::last_diagnostics(&sharded);
        assert!(
            diag.normalized_perf.iter().any(|(ds, _)| ds.0 == 3),
            "hot shard must contain store 3: {:?}",
            diag.normalized_perf
        );
        assert!(
            diag.normalized_perf.iter().all(|(ds, _)| ds.0 >= 2),
            "scan leaked outside the hot shard: {:?}",
            diag.normalized_perf
        );
    }

    #[test]
    fn multi_shard_imbalance_is_a_conservative_lower_bound() {
        // The documented Eq. 5 tolerance: shard-local Δ/max never exceeds
        // the global Δ/max, and underestimates by at most
        // (min_shard − min_global) / max.
        let fleet = fleet();
        let mut global = manager();
        let _ = global.epoch_decision(&fleet, false);
        let global_imb = global.last_diagnostics().imbalance;

        let mut sharded = ShardedPolicyEngine::new(manager(), 2);
        let _ = PolicyEngine::epoch_decision(&mut sharded, &fleet, false);
        let shard_imb = PolicyEngine::last_diagnostics(&sharded).imbalance;

        assert!(
            shard_imb <= global_imb + 1e-12,
            "sharded detector over-reported: shard {shard_imb} > global {global_imb}"
        );
        // Hot shard is {30, 1000}: min_shard = 30, min_global = 10,
        // max = 1000 — the bound on the underestimate.
        let tolerance = (30.0 - 10.0) / 1000.0;
        assert!(
            shard_imb >= global_imb - tolerance - 1e-12,
            "underestimate {shard_imb} exceeded the documented tolerance \
             {tolerance} below global {global_imb}"
        );
    }

    #[test]
    fn evacuation_prefers_shard_local_and_escalates_when_stranded() {
        let mut fleet = fleet();
        fleet[2].health = DeviceHealth::Degraded;
        let sharded = ShardedPolicyEngine::new(manager(), 2);
        let d = PolicyEngine::evacuation_decision(&sharded, &fleet).expect("evacuates");
        assert_eq!(d.src, DatastoreId(2));
        assert_eq!(d.dst, DatastoreId(3), "destination should be shard-local");

        // Whole home shard down: the fallback must reach across shards.
        fleet[3].health = DeviceHealth::Offline;
        let d = PolicyEngine::evacuation_decision(&sharded, &fleet).expect("escalates");
        assert_eq!(d.src, DatastoreId(2));
        assert!(d.dst.0 < 2, "expected a cross-shard evacuation destination");
    }

    #[test]
    fn summaries_aggregate_load_and_capacity_per_shard() {
        let mut fleet = fleet();
        fleet[1].health = DeviceHealth::Degraded;
        let s = shard_summaries(&fleet, 2);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].shard, s[1].shard), (0, 1));
        assert_eq!(s[0].stores, 2);
        assert_eq!(s[0].available, 1);
        assert!(s[0].degraded);
        assert!(!s[1].degraded);
        assert_eq!(s[1].max_free_blocks, 1_000_000);
        // Shard 1's request-weighted latency: stores at 30 and 1000 µs with
        // equal request counts.
        assert!((s[1].mean_latency_us - 515.0).abs() < 1e-9);
    }
}
