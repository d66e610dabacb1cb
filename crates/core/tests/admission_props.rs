//! Property tests for serving-plane admission control.
//!
//! Random tenant churn — arbitrary demands, quotas, fleet shapes and
//! shard sizes — must never violate the three contracts the serving
//! plane is built on:
//!
//! 1. no store is ever filled past its capacity, no tenant past its
//!    quota (admission control cannot over-admit);
//! 2. every refused admission is a typed [`PlacementError`] — no panic,
//!    and a refusal leaves the ledgers exactly as they were (a tenant id
//!    that is still live is refused, never admitted a second time);
//! 3. per-tenant served-I/O counters decompose exactly: summed over
//!    tenants they equal the summed per-store totals.

use nvhsm_core::node::PlacementError;
use nvhsm_core::{ServingConfig, ServingSim};
use nvhsm_workload::tenant::{TenantClass, TenantSpec, VmdkDemand};
use proptest::prelude::*;

fn demand_strategy() -> impl Strategy<Value = VmdkDemand> {
    (
        1_000u64..60_000,
        10.0f64..300.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(blocks, iops, wr_ratio, rd_rand, wr_rand)| VmdkDemand {
            blocks,
            iops,
            wr_ratio,
            rd_rand,
            wr_rand,
            mean_size_blocks: 8.0,
        })
}

fn spec_strategy(nodes: usize) -> impl Strategy<Value = TenantSpec> {
    (
        0u32..64,
        0..nodes,
        proptest::collection::vec(demand_strategy(), 1..4),
        proptest::bool::ANY,
    )
        .prop_map(|(tenant, home_node, vmdks, noisy)| TenantSpec {
            tenant,
            home_node,
            slo_us: 2_000.0,
            class: if noisy {
                TenantClass::Noisy
            } else {
                TenantClass::Standard
            },
            vmdks,
        })
}

/// A serving fleet sized so that both admissions and rejections happen
/// under the generated load.
fn sim(nodes: usize, shard_nodes: usize) -> ServingSim {
    let mut cfg = ServingConfig::small(nodes);
    cfg.shard_nodes = shard_nodes;
    cfg.tier_blocks = [40_000, 120_000, 300_000];
    cfg.tenant_quota_blocks = 100_000;
    cfg.train_requests = 20;
    ServingSim::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn churn_never_over_admits_and_rejections_are_typed(
        specs in proptest::collection::vec(spec_strategy(6), 1..24),
        shard_nodes in 0usize..4,
        retire_mask in proptest::collection::vec(proptest::bool::ANY, 24..25),
        skip_retire_mask in proptest::collection::vec(proptest::bool::ANY, 24..25),
    ) {
        let mut sim = sim(6, shard_nodes);
        for (i, spec) in specs.iter().enumerate() {
            // Duplicate tenant ids occur in the stream. Unless the step
            // skips it, retire first so the admission sees a fresh id
            // (re-admission is a new life); a still-live id is refused.
            let skip_retire = skip_retire_mask.get(i).copied().unwrap_or(false);
            let live = sim.tenant_usage().contains_key(&spec.tenant);
            if !skip_retire {
                sim.retire_tenant(spec.tenant);
            }
            let duplicate = skip_retire && live;
            let before = sim.store_usage();
            let before_tenants = sim.tenant_usage();
            match sim.admit_tenant(spec) {
                Err(PlacementError::TenantAlreadyAdmitted { tenant }) => {
                    prop_assert!(duplicate, "tenant {} refused as live", tenant);
                    prop_assert_eq!(tenant, spec.tenant);
                    prop_assert_eq!(&sim.store_usage(), &before,
                        "duplicate refusal touched the stores");
                    prop_assert_eq!(&sim.tenant_usage(), &before_tenants,
                        "duplicate refusal touched the tenants");
                }
                _ if duplicate => {
                    prop_assert!(false, "live tenant {} was not refused", spec.tenant);
                }
                Ok(()) => {
                    let quota = 100_000;
                    prop_assert!(
                        spec.total_blocks() <= quota,
                        "over-quota tenant admitted: {} > {quota}",
                        spec.total_blocks()
                    );
                }
                Err(PlacementError::TenantOverQuota { tenant, .. }) => {
                    prop_assert_eq!(tenant, spec.tenant);
                    prop_assert_eq!(&sim.store_usage(), &before,
                        "quota refusal touched the ledgers");
                }
                Err(PlacementError::NoFeasibleDatastore { .. }) => {
                    prop_assert_eq!(&sim.store_usage(), &before,
                        "capacity refusal leaked a partial placement");
                }
                Err(other) => {
                    prop_assert!(false, "unexpected rejection type: {}", other);
                }
            }
            // Global invariants hold after every single step.
            for (used, capacity) in sim.store_usage() {
                prop_assert!(used <= capacity, "store over capacity: {used} > {capacity}");
            }
            for (tenant, blocks) in sim.tenant_usage() {
                prop_assert!(blocks <= 100_000, "tenant {tenant} over quota: {blocks}");
            }
            if retire_mask.get(i).copied().unwrap_or(false) {
                sim.retire_tenant(spec.tenant);
            }
        }
        // Full teardown releases every block.
        let tenants: Vec<u32> = sim.tenant_usage().keys().copied().collect();
        for t in tenants {
            sim.retire_tenant(t);
        }
        prop_assert!(sim.store_usage().iter().all(|&(used, _)| used == 0),
            "retiring every tenant must empty every store");
    }

    #[test]
    fn served_counters_decompose_exactly(
        specs in proptest::collection::vec(spec_strategy(4), 1..12),
        epochs in 1usize..4,
        shard_nodes in 0usize..3,
    ) {
        let mut sim = sim(4, shard_nodes);
        for spec in &specs {
            sim.retire_tenant(spec.tenant);
            let _ = sim.admit_tenant(spec);
        }
        for _ in 0..epochs {
            sim.run_epoch();
        }
        let snap = sim.metrics().snapshot();
        let (mut by_tenant, mut by_store) = (0u64, 0u64);
        for c in &snap.counters {
            if c.key.name == "served_ios" {
                match c.key.device.as_str() {
                    "tenant" => by_tenant += c.value,
                    "store" => by_store += c.value,
                    other => prop_assert!(false, "unexpected served_ios device label {}", other),
                }
            }
        }
        prop_assert_eq!(by_tenant, by_store,
            "per-tenant served I/O must sum exactly to per-store totals");
    }
}
