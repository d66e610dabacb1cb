//! Benchmark support crate.
//!
//! The Criterion benchmarks live in `benches/`, and both feed the perf gate
//! (`scripts/perf_gate.sh`) and the `BENCH_driver.json` snapshot
//! (`scripts/bench_snapshot.sh`):
//!
//! * `driver` — the scenario-parallel driver, model pretraining (every
//!   simulator's set-up) and the per-request kernels the driver leans on
//!   (event-queue drain, model prediction, the LRFU buffer
//!   cache, the bus-slowdown lookup table, report building, journal
//!   replay, sharded placement), one full mix scenario, and grid
//!   throughput at 1 vs all workers.
//! * `datapath` — one virtual second of a node through the staged data
//!   path: bare, instrumented, and with a cross-node mirror.
//!
//! This lib only hosts shared helpers for those benches.

use nvhsm_core::{NodeConfig, NodeSim, PolicyKind};
use nvhsm_workload::hibench::{profile, Benchmark};

/// Builds a small, ready-to-run node simulation for end-to-end benches.
pub fn bench_node(policy: PolicyKind, seed: u64) -> NodeSim {
    let mut cfg = NodeConfig::small();
    cfg.policy = policy;
    cfg.train_requests = 30;
    let mut sim = NodeSim::new(cfg, seed);
    for b in [Benchmark::Sort, Benchmark::Bayes, Benchmark::Pagerank] {
        let p = profile(b);
        let blocks = p.working_set_blocks / 16;
        sim.add_workload(p.with_working_set(blocks));
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_node_runs() {
        let mut sim = bench_node(PolicyKind::Bca, 7);
        let report = sim.run_secs(1);
        assert!(report.io_count > 0);
    }
}
