//! The paper's multi-node scenario: a three-node cluster running all eight
//! HiBench workloads next to 429.mcf, compared across management policies.
//!
//! Run with: `cargo run --release --example bigdata_cluster`

use nvdimm_hsm::core::{NodeConfig, NodeSim, PolicyKind};
use nvdimm_hsm::workload::hibench::all_profiles;
use nvdimm_hsm::workload::SpecProgram;

fn run_policy(policy: PolicyKind) -> (f64, u64, f64) {
    let mut cfg = NodeConfig::small();
    cfg.policy = policy;
    cfg.spec = Some(SpecProgram::Mcf429);
    cfg.train_requests = 40;
    let mut sim = NodeSim::with_nodes(cfg, 3, 7);
    for profile in all_profiles() {
        let scaled = profile.working_set_blocks / 16;
        sim.add_workload(profile.with_working_set(scaled));
    }
    let report = sim.run_secs(6);
    (
        report.mean_latency_us,
        report.migrations_started,
        report.migration_time.as_secs_f64(),
    )
}

fn main() {
    println!("three-node cluster, eight HiBench workloads + 429.mcf\n");
    println!(
        "{:<16} {:>14} {:>12} {:>14}",
        "policy", "mean lat (µs)", "migrations", "mig time (s)"
    );
    for policy in [
        PolicyKind::Basil,
        PolicyKind::Pesto,
        PolicyKind::LightSrm,
        PolicyKind::Bca,
        PolicyKind::BcaLazy,
        PolicyKind::BcaLazyArch,
    ] {
        let (lat, migs, mig_s) = run_policy(policy);
        println!("{policy:<16} {lat:>14.1} {migs:>12} {mig_s:>14.2}");
    }
    println!("\n(the BCA family should migrate less and sit at lower latency)");
}
