//! Differential oracle for Eq. 4 placement.
//!
//! The references below are the quadratic scans the shipping code
//! replaced: [`reference_placement`] re-evaluates every bystander store's
//! Eq. 5 performance once per candidate and builds the imbalance preview
//! as a vector, and [`reference_sharded_placement`] splits the whole
//! observation set into shard ranges to find the home shard. A proptest
//! runs both sides over random node-sorted observation sets and requires
//! identical answers (and identical spill accounting).

use super::sharded::shard_ranges;
use super::*;
use crate::training::pretrain_models;
use nvhsm_sim::{OnlineStats, SimDuration};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The Eq. 4 scan with one bystander evaluation per candidate.
fn reference_placement(
    m: &Manager,
    observations: &[DeviceObservation],
    new_workload: &ResidentInfo,
    home: Option<usize>,
) -> Option<DatastoreId> {
    let mut best: Option<(DatastoreId, f64)> = None;
    for (i, obs) in observations.iter().enumerate() {
        if !obs.health.available() || obs.free_capacity_blocks < new_workload.size_blocks {
            continue;
        }
        let with_new =
            m.what_if_us(obs, new_workload, true) + home.map_or(0.0, |h| m.hop_us(h, obs));
        if !with_new.is_finite() {
            // The model has no usable estimate for this candidate;
            // placing on it would be a blind bet.
            continue;
        }
        // Average system performance if placed here (Eq. 4).
        let mut total = 0.0;
        let mut norms = Vec::with_capacity(observations.len());
        for (j, other) in observations.iter().enumerate() {
            let p = if j == i {
                with_new
            } else if other.health.available() {
                // A NaN estimate (zero-IO epoch) contributes no signal.
                let p = m.device_perf_us(other);
                if p.is_finite() {
                    p
                } else {
                    0.0
                }
            } else {
                // A degraded store's measured latency reflects its
                // faults; it neither helps nor hurts a placement
                // elsewhere.
                0.0
            };
            total += p;
            // Idle devices do not participate in the imbalance
            // preview — an empty tier is an opportunity, not a hot
            // spot.
            if j == i || other.counts_for_imbalance() {
                norms.push(p);
            }
        }
        let avg = total / observations.len() as f64;
        // §5.1.1: reject candidates whose placement would immediately
        // trip the imbalance detector (raw-latency imbalance).
        let max_n = norms.iter().cloned().fold(0.0f64, f64::max);
        let min_n = norms.iter().cloned().fold(f64::INFINITY, f64::min);
        let imbalance = if max_n > 0.0 && norms.len() > 1 {
            (max_n - min_n) / max_n
        } else {
            0.0
        };
        if imbalance > m.tau {
            continue;
        }
        if best.is_none_or(|(_, b)| avg < b) {
            best = Some((obs.ds, avg));
        }
    }
    best.map(|(ds, _)| ds)
}

/// The sharded routing that splits every observation into shard ranges
/// to find the home shard, over [`reference_placement`]. Returns the
/// placement and whether it spilled out of the home shard.
fn reference_sharded_placement(
    engine: &ShardedPolicyEngine,
    observations: &[DeviceObservation],
    new_workload: &ResidentInfo,
    home: Option<usize>,
) -> (Option<DatastoreId>, bool) {
    let (inner, nodes_per_shard) = (engine.inner(), engine.nodes_per_shard());
    let ranges = shard_ranges(observations, nodes_per_shard);
    if ranges.len() <= 1 {
        // One shard covers everything: identical to the unsharded scan.
        return (
            reference_placement(inner, observations, new_workload, home),
            false,
        );
    }
    // Workloads with no declared home shard start at shard 0 — a
    // deterministic choice; the spill path covers the rest.
    let home_shard = home
        .map(|h| h / nodes_per_shard)
        .and_then(|s| {
            ranges
                .iter()
                .position(|r| observations[r.start].node / nodes_per_shard == s)
        })
        .unwrap_or(0);
    if let Some(ds) = reference_placement(
        inner,
        &observations[ranges[home_shard].clone()],
        new_workload,
        home,
    ) {
        return (Some(ds), false);
    }
    // Home shard rejected: rank the other shards by the cheap measured
    // summary (lightest load first, capacity-feasible only) and retry
    // the Eq. 4 scan there. Deterministic order: load, then ordinal.
    let summaries = shard_summaries(observations, nodes_per_shard);
    let mut spill: Vec<usize> = (0..ranges.len())
        .filter(|&i| {
            i != home_shard
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
        if let Some(ds) =
            reference_placement(inner, &observations[ranges[i].clone()], new_workload, home)
        {
            return (Some(ds), true);
        }
    }
    (None, false)
}

/// The arriving VMDK's size; free capacities are drawn on both sides.
const ARRIVAL_BLOCKS: u64 = 1_000;

/// Pretrained once per test binary; every case clones it.
fn models() -> DeviceModels {
    static MODELS: OnceLock<DeviceModels> = OnceLock::new();
    MODELS.get_or_init(|| pretrain_models(20, 7)).clone()
}

/// A measured latency: usually finite, one draw in nine NaN (a store
/// whose samples carry no usable value).
fn latency() -> impl Strategy<Value = f64> {
    (0u8..9, 5.0f64..5_000.0).prop_map(|(k, lat)| if k == 0 { f64::NAN } else { lat })
}

fn features() -> impl Strategy<Value = Features> {
    (
        0.0f64..1.0,
        0.0f64..16.0,
        1.0f64..8.0,
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(wr_ratio, oios, ios, wr_rand, rd_rand)| Features {
            wr_ratio,
            oios,
            ios,
            wr_rand,
            rd_rand,
            free_space_ratio: 0.5,
        })
}

/// A resident with or without I/O in the epoch.
fn resident() -> impl Strategy<Value = ResidentInfo> {
    (
        0u32..64,
        features(),
        proptest::bool::ANY,
        1u64..500,
        latency(),
    )
        .prop_map(
            |(id, features, active, ios, mean_latency_us)| ResidentInfo {
                vmdk: VmdkId(id),
                size_blocks: 500,
                features,
                io_count: if active { ios } else { 0 },
                mean_latency_us,
                live_blocks: 4_000,
            },
        )
}

/// One store, minus its node and id: kind, health (two in three
/// healthy), epoch request count (idle, under the 10-request Eq. 5 floor,
/// or loaded), measured latency, free capacity on either side of the
/// arrival's size, and residents.
fn store() -> impl Strategy<Value = DeviceObservation> {
    (
        (0usize..3, 0u8..6),
        (0u8..3, 1u64..10, 10u64..2_000),
        latency(),
        0u64..2 * ARRIVAL_BLOCKS,
        0.0f64..1.0,
        proptest::collection::vec(resident(), 0..4),
    )
        .prop_map(
            |((kind, health), (load, few, many), lat, free, free_space, residents)| {
                let kind = [DeviceKind::Nvdimm, DeviceKind::Ssd, DeviceKind::Hdd][kind];
                let health = match health {
                    0 => DeviceHealth::Degraded,
                    1 => DeviceHealth::Offline,
                    _ => DeviceHealth::Healthy,
                };
                let ios = [0, few, many][usize::from(load)];
                let mut latency_us = OnlineStats::new();
                // An idle store has either no samples (mean 0) or a NaN one.
                if ios > 0 || lat.is_nan() {
                    latency_us.add(lat);
                }
                let writes = ios / 3;
                DeviceObservation {
                    ds: DatastoreId(0),
                    node: 0,
                    kind,
                    epoch: EpochStats {
                        duration: SimDuration::from_ms(200),
                        reads: ios - writes,
                        writes,
                        seq_reads: (ios - writes) / 2,
                        seq_writes: writes / 2,
                        read_blocks: 2 * (ios - writes),
                        write_blocks: 2 * writes,
                        latency_us,
                        per_stream_latency_us: Default::default(),
                        migrated_ios: 0,
                    },
                    free_space,
                    free_capacity_blocks: free,
                    residents,
                    health,
                }
            },
        )
}

/// A node-sorted observation set: each store sits 0–2 nodes after the
/// previous one, so nodes hold several stores and some shards none.
fn fleet() -> impl Strategy<Value = Vec<DeviceObservation>> {
    (
        0usize..3,
        proptest::collection::vec((0usize..3, store()), 0..24),
    )
        .prop_map(|(first_node, stores)| {
            let mut node = first_node;
            stores
                .into_iter()
                .enumerate()
                .map(|(i, (step, mut o))| {
                    node += step;
                    o.ds = DatastoreId(i);
                    o.node = node;
                    o
                })
                .collect()
        })
}

fn arrival() -> impl Strategy<Value = ResidentInfo> {
    (features(), 1u64..500).prop_map(|(features, io_count)| ResidentInfo {
        vmdk: VmdkId(1_000),
        size_blocks: ARRIVAL_BLOCKS,
        features,
        io_count,
        mean_latency_us: 120.0,
        live_blocks: 8_000,
    })
}

/// The engine settings: policy, hop cost (0 or 120 µs), τ, shard size
/// (1–5 nodes) and home node. A home past the last store's node, or in a
/// gap between stores, names a shard with no observations.
fn settings() -> impl Strategy<Value = (PolicyKind, f64, f64, usize, Option<usize>)> {
    (
        0usize..PolicyKind::ALL.len(),
        proptest::bool::ANY,
        0usize..3,
        1usize..6,
        (proptest::bool::ANY, 0usize..60),
    )
        .prop_map(|(policy, hop, tau, nodes_per_shard, (homed, home))| {
            (
                PolicyKind::ALL[policy],
                if hop { 120.0 } else { 0.0 },
                [0.3, 0.8, 1.0][tau],
                nodes_per_shard,
                homed.then_some(home),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The flat and sharded Eq. 4 placements equal the references on every
    /// policy, health mix, hop cost, τ, shard size and home: the same
    /// datastore (or the same refusal), and a spill counted exactly when
    /// the reference spilled.
    #[test]
    fn placement_matches_the_quadratic_reference(
        observations in fleet(),
        w in arrival(),
        settings in settings(),
    ) {
        let (policy, hop_us, tau, nodes_per_shard, home) = settings;
        let net = NetworkCosts { hop_us, per_block_us: 0.0 };
        let mut flat = Manager::new(policy, tau, models());
        flat.set_network(net);
        prop_assert_eq!(
            flat.initial_placement_from(&observations, &w, home),
            reference_placement(&flat, &observations, &w, home)
        );

        let mut sharded =
            ShardedPolicyEngine::new(Manager::new(policy, tau, models()), nodes_per_shard);
        sharded.set_network(net);
        let (want, spilled) = reference_sharded_placement(&sharded, &observations, &w, home);
        prop_assert_eq!(
            PolicyEngine::initial_placement_from(&sharded, &observations, &w, home),
            want
        );
        prop_assert_eq!(sharded.spill_placements(), u64::from(spilled));
    }
}
