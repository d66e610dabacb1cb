//! Multi-node cluster reports (the paper's "multiple nodes" tests).
//!
//! A cluster is [`NodeSim::with_nodes`] with more than one node: each
//! server node carries NVDIMM + SSD + HDD, as in Fig. 1, and one storage
//! manager migrates VMDKs across nodes over the interconnect in
//! [`crate::net`]. Copy rounds and mirrored writes traverse a modeled
//! full-duplex link (bandwidth, latency and in-flight window, FIFO
//! contention), and the manager folds the hop cost into its placement and
//! balancing arithmetic. [`ClusterReport`] pairs the engine's report with
//! per-link statistics.
//!
//! # Examples
//!
//! ```
//! use nvhsm_core::{ClusterReport, NodeConfig, NodeSim};
//! use nvhsm_sim::SimDuration;
//! use nvhsm_workload::hibench::{profile, Benchmark};
//!
//! let mut sim = NodeSim::with_nodes(NodeConfig::small(), 3, 7);
//! sim.add_workload(profile(Benchmark::Bayes));
//! let span = SimDuration::from_secs(1);
//! let report = ClusterReport {
//!     report: sim.run(span),
//!     nodes: sim.nodes(),
//!     links: sim.link_stats(),
//! };
//! assert!(report.max_link_utilization(span) >= 0.0);
//! ```
//!
//! [`NodeSim::with_nodes`]: crate::NodeSim::with_nodes

use crate::net::NodeLinkStats;
use crate::node::NodeReport;
use nvhsm_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Cluster run results (a [`NodeReport`] with per-node convenience views).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// The underlying engine report (devices carry their node index).
    pub report: NodeReport,
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node interconnect statistics (both directions of each link).
    pub links: Vec<NodeLinkStats>,
}

impl ClusterReport {
    /// The busiest link direction's utilization over a measured window of
    /// `span`: max over nodes and directions of busy-time / span.
    pub fn max_link_utilization(&self, span: SimDuration) -> f64 {
        let span_ns = span.as_ns().max(1) as f64;
        self.links
            .iter()
            .flat_map(|l| [l.tx.busy, l.rx.busy])
            .map(|busy| busy.as_ns() as f64 / span_ns)
            .fold(0.0, f64::max)
    }

    /// Mean device latency per node, µs.
    pub fn per_node_mean_latency_us(&self) -> Vec<f64> {
        (0..self.nodes)
            .map(|n| {
                let devs: Vec<_> = self
                    .report
                    .devices
                    .iter()
                    .filter(|d| d.node == n && d.io_count > 0)
                    .collect();
                if devs.is_empty() {
                    0.0
                } else {
                    devs.iter().map(|d| d.mean_latency_us).sum::<f64>() / devs.len() as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeConfig, NodeSim};
    use nvhsm_workload::hibench::{all_profiles, profile, Benchmark};

    fn quick(seed: u64) -> NodeSim {
        let mut cfg = NodeConfig::small();
        cfg.train_requests = 30;
        NodeSim::with_nodes(cfg, 3, seed)
    }

    #[test]
    fn cluster_spreads_workloads_across_nodes() {
        let mut sim = quick(3);
        let ids: Vec<_> = all_profiles()
            .into_iter()
            .map(|p| sim.add_workload(p))
            .collect();
        let nodes: std::collections::HashSet<usize> = ids
            .iter()
            .filter_map(|&v| sim.placement_of(v))
            .map(|ds| ds / 3)
            .collect();
        assert!(nodes.len() >= 2, "all VMDKs on one node: {nodes:?}");
    }

    #[test]
    fn cluster_report_has_per_node_view() {
        let mut sim = quick(5);
        sim.add_workload(profile(Benchmark::Sort));
        sim.add_workload(profile(Benchmark::Bayes));
        let report = ClusterReport {
            report: sim.run_secs(1),
            nodes: sim.nodes(),
            links: sim.link_stats(),
        };
        let per_node = report.per_node_mean_latency_us();
        assert_eq!(per_node.len(), 3);
        assert!(per_node.iter().any(|&l| l > 0.0));
    }
}
