//! `cluster` — cross-node migration over the modeled interconnect: node
//! count × NIC bandwidth × policy.
//!
//! Not a paper artifact by number: the paper's multi-node runs (§6) use
//! three nodes on a real 1 GbE network. This sweep reproduces that setup on
//! the deterministic interconnect of `nvhsm_core::net` and shows the two
//! claims the model must support: (a) with one node — or an effectively
//! infinite link — the cluster path is byte-identical to the single-node
//! simulation, and (b) as the link narrows, the manager's Eq. 4/5/6 network
//! terms suppress cross-node traffic instead of thrashing the wire.
//!
//! Each case also admits one deliberately oversized VMDK, exercising the
//! typed [`nvhsm_core::PlacementError`] rejection path end to end.

use crate::harness::{ExperimentResult, Row, Scale};
use crate::mix::{mix_profiles, MixObservation};
use crate::obs::{ObsOptions, ScenarioObs, TRACE_RING_CAPACITY};
use nvhsm_core::{ClusterReport, NodeConfig, NodeSim, PolicyKind};
use nvhsm_obs::{drain_ring_stats, shared, RingSink};
use nvhsm_sim::SimDuration;

/// Parameters of one cluster run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterParams {
    /// Node count.
    pub nodes: usize,
    /// NIC bandwidth, bytes/s.
    pub bandwidth: u64,
    /// Management policy.
    pub policy: PolicyKind,
    /// RNG seed.
    pub seed: u64,
    /// Nodes per placement shard (`0` = unsharded; `>= nodes` = one
    /// shard, byte-identical to unsharded — the differential-oracle
    /// configuration).
    pub shard_nodes: usize,
}

/// An effectively infinite link: wire time rounds to ~0 for any transfer
/// the simulation can produce.
pub const INFINITE_BANDWIDTH: u64 = u64::MAX;

/// 1 GbE and 100 MbE payload bandwidths, bytes/s.
const GBE: u64 = 125_000_000;
const MBE100: u64 = 12_500_000;

impl ClusterParams {
    /// The paper's three-node / 1 GbE arrangement.
    pub fn standard(policy: PolicyKind) -> Self {
        ClusterParams {
            nodes: 3,
            bandwidth: GBE,
            policy,
            seed: 42,
            shard_nodes: 0,
        }
    }
}

/// Oversized VMDK working set, blocks — larger than any single datastore,
/// so Eq. 4 admission must reject it (the typed error path).
const WHALE_BLOCKS: u64 = 4_000_000;

/// Drives the cluster scenario on an engine: five mix workloads admitted
/// via Eq. 4, all homed on node 0 (a hot node next to idle peers — the
/// Eq. 5 imbalance the paper's multi-node runs exercise), a warm-up drain,
/// then three larger VMDKs arriving on node 0's SSD — re-tiering work whose
/// best destination may sit across the wire. Returns the measured-window
/// report and the window length (for link-utilization normalization).
fn drive(sim: &mut NodeSim, _nodes: usize, scale: Scale) -> (nvhsm_core::NodeReport, SimDuration) {
    let profiles = mix_profiles(16, 0.85);
    let (initial, arrivals) = profiles.split_at(5);
    for p in initial {
        sim.add_workload_placed_from(p.clone(), Some(0))
            .expect("the scaled-down mix fits a fresh cluster");
    }
    sim.run_until_quiet(SimDuration::from_secs(6 * scale.horizon_secs()));
    sim.reset_metrics();

    let window = SimDuration::from_secs(3 * scale.horizon_secs());
    let early = SimDuration::from_ms(800);
    sim.run(early);
    // The whale arrives mid-window: no datastore can hold it; the admission
    // must surface as a typed rejection (counted in the report), not a panic.
    let whale = profiles[0].clone().with_working_set(WHALE_BLOCKS);
    assert!(sim.add_workload_placed(whale).is_err(), "whale fits?");
    for p in arrivals {
        let mut p = p.clone();
        p.working_set_blocks *= 4;
        sim.add_workload_on(p, 1).expect("scaled VMDK fits the SSD");
        sim.run(early);
    }
    let consumed = early * (arrivals.len() as u64 + 1);
    let report = sim.run(window - consumed);
    (report, window)
}

fn node_config(params: ClusterParams, scale: Scale) -> NodeConfig {
    let mut cfg = NodeConfig::small();
    cfg.policy = params.policy;
    cfg.train_requests = scale.train_requests();
    cfg.nic_bandwidth = params.bandwidth;
    cfg.shard_nodes = params.shard_nodes;
    cfg
}

/// Runs one cluster case and returns its report plus the measured window.
pub fn run_cluster(params: ClusterParams, scale: Scale) -> (ClusterReport, SimDuration) {
    let (r, _, w) = run_cluster_observed(params, scale, ObsOptions::OFF);
    (r, w)
}

/// Runs one cluster case with optional trace/metrics capture.
pub fn run_cluster_observed(
    params: ClusterParams,
    scale: Scale,
    opts: ObsOptions,
) -> (ClusterReport, MixObservation, SimDuration) {
    let nodes = params.nodes;
    let mut sim = NodeSim::with_nodes(node_config(params, scale), nodes, params.seed);

    let sink = if opts.trace {
        Some(shared(RingSink::new(TRACE_RING_CAPACITY)))
    } else {
        None
    };
    if let Some(s) = &sink {
        sim.set_trace_sink(Some(s.clone()));
    }
    if opts.metrics {
        sim.enable_metrics();
    }

    let (report, window) = drive(&mut sim, nodes, scale);
    let links = sim.link_stats();

    let (events, dropped) = match &sink {
        Some(s) => drain_ring_stats(s),
        None => (Vec::new(), 0),
    };
    let metrics = sim.take_metrics().map(|m| m.snapshot());
    (
        ClusterReport {
            report,
            nodes,
            links,
        },
        MixObservation {
            events,
            metrics,
            dropped,
        },
        window,
    )
}

/// Runs many cluster cases as one scenario grid, in parallel, in input
/// order; captures trace/metrics per case when the CLI armed observation
/// (byte-identical output for any `--jobs`, see [`crate::obs`]).
pub fn run_cluster_grid(
    cases: Vec<ClusterParams>,
    scale: Scale,
) -> Vec<(ClusterReport, SimDuration)> {
    let opts = crate::obs::options();
    if !opts.enabled() {
        return nvhsm_sim::parallel::map_grid(cases, move |p| run_cluster(p, scale));
    }
    let grid = crate::obs::next_grid();
    let indexed: Vec<(usize, ClusterParams)> = cases.into_iter().enumerate().collect();
    nvhsm_sim::parallel::map_grid(indexed, move |(case, p)| {
        let (report, obs, window) = run_cluster_observed(p, scale, opts);
        crate::obs::record(ScenarioObs {
            grid,
            case: case as u64,
            label: format!("{p:?}"),
            events: obs.events,
            metrics: obs.metrics,
            dropped: obs.dropped,
        });
        (report, window)
    })
}

const POLICIES: [PolicyKind; 2] = [PolicyKind::Bca, PolicyKind::BcaLazy];

/// (label stem, nodes, bandwidth): the single-node control, then three
/// nodes from an effectively free link down to a painful one.
const CONFIGS: [(&str, usize, u64); 4] = [
    ("n1_inf", 1, INFINITE_BANDWIDTH),
    ("n3_inf", 3, INFINITE_BANDWIDTH),
    ("n3_1g", 3, GBE),
    ("n3_100m", 3, MBE100),
];

/// Sweeps node count × NIC bandwidth × policy.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "cluster",
        "Cross-node migration over the modeled interconnect",
        vec![
            "mean_lat_us".into(),
            "p99_ms".into(),
            "migs".into(),
            "remote_migs".into(),
            "net_mb".into(),
            "max_link_util".into(),
            "rejected".into(),
        ],
    );
    let mut labels = Vec::new();
    let mut cases = Vec::new();
    for (stem, nodes, bandwidth) in CONFIGS {
        for policy in POLICIES {
            labels.push(format!("{stem}_{policy}"));
            cases.push(ClusterParams {
                nodes,
                bandwidth,
                ..ClusterParams::standard(policy)
            });
        }
    }
    let reports = run_cluster_grid(cases, scale);
    for (label, (r, window)) in labels.into_iter().zip(&reports) {
        result.push_row(Row::new(
            label,
            vec![
                r.report.mean_latency_us,
                r.report.p99_latency_us / 1000.0,
                r.report.migrations_started as f64,
                r.report.remote_migrations as f64,
                r.report.net_bytes as f64 / (1024.0 * 1024.0),
                r.max_link_utilization(*window),
                r.report.placements_rejected as f64,
            ],
        ));
    }
    result.note(
        "n1_inf is the single-node control: a one-node cluster never touches \
         the interconnect and is byte-identical to NodeSim"
            .to_owned(),
    );
    result.note(
        "every case admits one oversized VMDK; rejected = 1 is the Eq. 4 \
         typed-rejection path working (no panic, admission continues)"
            .to_owned(),
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_node_cluster_is_byte_identical_to_single_node_path() {
        let params = ClusterParams {
            nodes: 1,
            bandwidth: INFINITE_BANDWIDTH,
            ..ClusterParams::standard(PolicyKind::Bca)
        };
        let (via_cluster, _) = run_cluster(params, Scale::Quick);
        assert!(via_cluster.links.iter().all(|l| l.tx.bytes == 0));

        let mut cfg = NodeConfig::small();
        cfg.policy = PolicyKind::Bca;
        cfg.train_requests = Scale::Quick.train_requests();
        cfg.nic_bandwidth = INFINITE_BANDWIDTH;
        let mut plain = NodeSim::new(cfg, params.seed);
        let (direct, _) = drive(&mut plain, 1, Scale::Quick);

        let a = serde_json::to_string(&via_cluster.report).unwrap();
        let b = serde_json::to_string(&direct).unwrap();
        assert_eq!(a, b, "one-node cluster diverged from the node path");
    }

    #[test]
    fn sweep_rejects_the_whale_everywhere_and_moves_data_across_nodes() {
        let r = run(Scale::Quick);
        assert_eq!(r.rows.len(), 8);
        for row in &r.rows {
            assert_eq!(row.values[6], 1.0, "{}: whale not rejected", row.label);
            assert!(row.values[0] > 0.0, "{}: no latency", row.label);
        }
        // The single-node controls never touch the wire.
        for policy in POLICIES {
            let label = format!("n1_inf_{policy}");
            assert_eq!(r.value(&label, 3), Some(0.0), "{label}: remote migs");
            assert_eq!(r.value(&label, 4), Some(0.0), "{label}: net bytes");
        }
        // At least one multi-node case exercises the interconnect.
        let net: f64 = r
            .rows
            .iter()
            .filter(|row| !row.label.starts_with("n1"))
            .map(|row| row.values[4])
            .sum();
        assert!(net > 0.0, "no cluster case moved bytes over the wire");
    }
}
