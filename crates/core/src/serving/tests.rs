//! Control-plane serving tests: admission rollback, SLO accounting,
//! churn determinism, and capacity invariants under spill.

use super::*;
use nvhsm_obs::{drain_ring, shared, RingSink};
use nvhsm_workload::tenant::TenantClass;

fn spec(tenant: u32, home: usize, blocks: u64, iops: f64, slo_us: f64) -> TenantSpec {
    TenantSpec {
        tenant,
        home_node: home,
        slo_us,
        class: TenantClass::Standard,
        vmdks: vec![VmdkDemand {
            blocks,
            iops,
            wr_ratio: 0.3,
            rd_rand: 0.5,
            wr_rand: 0.5,
            mean_size_blocks: 8.0,
        }],
    }
}

#[test]
fn quota_gate_rejects_with_typed_error_and_clean_ledgers() {
    let mut sim = ServingSim::new(ServingConfig::small(2));
    let err = sim
        .admit_tenant(&spec(7, 0, 999_999_999, 50.0, 2000.0))
        .unwrap_err();
    assert!(matches!(
        err,
        PlacementError::TenantOverQuota { tenant: 7, .. }
    ));
    assert!(sim.store_usage().iter().all(|&(used, _)| used == 0));
    assert_eq!(sim.report().rejected_quota, 1);
}

#[test]
fn admission_is_all_or_nothing() {
    let mut cfg = ServingConfig::small(1);
    cfg.tier_blocks = [1_000, 1_000, 1_000];
    cfg.tenant_quota_blocks = 10_000;
    let mut sim = ServingSim::new(cfg);
    // Two VMDKs: the first fits anywhere, the second fits nowhere.
    let mut s = spec(1, 0, 900, 20.0, 2000.0);
    s.vmdks.push(VmdkDemand {
        blocks: 5_000,
        ..s.vmdks[0]
    });
    let err = sim.admit_tenant(&s).unwrap_err();
    assert!(matches!(err, PlacementError::NoFeasibleDatastore { .. }));
    assert!(
        sim.store_usage().iter().all(|&(used, _)| used == 0),
        "rollback must release the sibling placement"
    );
    assert_eq!(sim.report().live_vmdks, 0);
}

#[test]
fn retire_releases_every_block() {
    let mut sim = ServingSim::new(ServingConfig::small(2));
    sim.admit_tenant(&spec(3, 1, 20_000, 80.0, 2000.0)).unwrap();
    let held: u64 = sim.store_usage().iter().map(|&(u, _)| u).sum();
    assert_eq!(held, 20_000);
    assert!(sim.retire_tenant(3));
    let held: u64 = sim.store_usage().iter().map(|&(u, _)| u).sum();
    assert_eq!(held, 0);
    assert!(!sim.retire_tenant(3), "double retire must be a no-op");
}

#[test]
fn a_live_tenant_cannot_be_admitted_twice() {
    let mut sim = ServingSim::new(ServingConfig::small(2));
    let mut s = spec(1, 0, 3_000, 60.0, 2000.0);
    s.vmdks.push(s.vmdks[0]);
    sim.admit_tenant(&s).unwrap();
    let (stores, tenants) = (sim.store_usage(), sim.tenant_usage());
    let err = sim.admit_tenant(&s).unwrap_err();
    assert!(matches!(
        err,
        PlacementError::TenantAlreadyAdmitted { tenant: 1 }
    ));
    assert_eq!(sim.store_usage(), stores, "refusal touched the stores");
    assert_eq!(sim.tenant_usage(), tenants, "refusal touched the tenants");
    assert_eq!(sim.report().admitted, 1);
    // Retiring the tenant must release every block it was granted, and
    // the epoch after must find no VMDK without an owner.
    assert!(sim.retire_tenant(1));
    sim.run_epoch();
    assert!(sim.store_usage().iter().all(|&(used, _)| used == 0));
}

#[test]
fn slo_violation_traces_on_onset_only() {
    let sink = shared(RingSink::new(256));
    let mut sim = ServingSim::new(ServingConfig::small(1));
    sim.set_trace_sink(sink.clone());
    // An SLO below the NVDIMM baseline is unconditionally violated.
    sim.admit_tenant(&spec(9, 0, 4_000, 200.0, 0.01)).unwrap();
    for _ in 0..4 {
        sim.run_epoch();
    }
    sim.retire_tenant(9);
    let events = drain_ring(&sink);
    let onsets = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SloViolation { .. }))
        .count();
    assert_eq!(onsets, 1, "4 violating epochs must trace one onset");
    assert_eq!(sim.report().slo_violation_epochs, 4);
    let retire = events.iter().find_map(|e| match e {
        TraceEvent::TenantRetire { violations, .. } => Some(*violations),
        _ => None,
    });
    assert_eq!(retire, Some(4));
}

#[test]
fn tenant_served_counters_sum_to_store_totals() {
    let mut sim = ServingSim::new(ServingConfig::small(2));
    for t in 0..6 {
        sim.admit_tenant(&spec(
            t,
            t as usize,
            5_000 + 1_000 * t as u64,
            30.0 + t as f64,
            2000.0,
        ))
        .unwrap();
    }
    for _ in 0..3 {
        sim.run_epoch();
    }
    let snap = sim.metrics().snapshot();
    let (mut by_tenant, mut by_store) = (0u64, 0u64);
    for c in &snap.counters {
        if c.key.name == "served_ios" {
            match c.key.device.as_str() {
                "tenant" => by_tenant += c.value,
                "store" => by_store += c.value,
                other => panic!("unexpected served_ios device {other}"),
            }
        }
    }
    assert!(by_tenant > 0);
    assert_eq!(by_tenant, by_store);
}

#[test]
fn sharded_serving_runs_and_reports_spills() {
    let mut cfg = ServingConfig::small(6);
    cfg.shard_nodes = 2;
    cfg.tier_blocks = [2_000, 4_000, 8_000];
    let mut sim = ServingSim::new(cfg);
    let mut admitted = 0;
    // Every tenant calls node 0 home: the home shard (nodes 0–1)
    // fills quickly and later arrivals must spill across shards.
    for t in 0..40 {
        if sim.admit_tenant(&spec(t, 0, 3_000, 60.0, 2000.0)).is_ok() {
            admitted += 1;
        }
    }
    sim.run_epoch();
    let r = sim.report();
    assert_eq!(r.admitted, admitted);
    assert!(
        r.spill_placements > 0,
        "tight home shards must overflow into neighbours: {r:?}"
    );
    // Capacity invariant even under spill.
    assert!(sim.store_usage().iter().all(|&(u, c)| u <= c));
}
