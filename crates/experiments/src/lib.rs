//! Experiment harnesses reproducing every table and figure of the paper's
//! motivation (§3–4) and evaluation (§6) sections.
//!
//! Each module exposes a `run(scale) -> ExperimentResult` that regenerates
//! one artifact; the `experiments` binary prints them as tables/series.
//! Scenario grids fan out through [`obs`]'s `map_grid`, the one path that
//! files each case's `--trace`/`--metrics` capture.
//! `Scale::Quick` shrinks horizons for CI-friendly runtimes, `Scale::Full`
//! is the default for result-quality runs.
//!
//! | id | artifact |
//! |----|----------|
//! | `table1` | Table 1 — device latency/capacity comparison |
//! | `table2` | Table 2 — migration overhead under memory interference |
//! | `fig4`   | Fig. 4 — NVDIMM latency tracks memory traffic |
//! | `fig5`   | Fig. 5 — device latency vs OIOs / randomness / intensity |
//! | `table3` | Table 3 + Fig. 6 — regression-tree construction example |
//! | `fig7`   | Fig. 7 — model verification (±5 %) |
//! | `fig9`   | Fig. 9 — the worked scheduling example (RA..RH) |
//! | `fig10`  | Fig. 10 — non-persistent barrier bounds over-delay |
//! | `fig12`  | Fig. 12 — BCA vs baselines, four workload mixes |
//! | `tau`    | §6.2.1 — τ sweep |
//! | `fig13`  | Fig. 13 — migration time, lazy migration |
//! | `fig14`  | Fig. 14 — scheduling policies speedup |
//! | `fig15`  | Fig. 15 — cache bypassing hit ratio |
//! | `fig16`  | Fig. 16 — scheduling + bypassing combined |
//! | `fig17`  | Fig. 17 — everything combined |
//! | `placement` | §5.1.1 ablation — Eq. 4 initial placement vs random |
//! | `characterization` | Table 5 — realized workload characteristics |
//! | `faults`  | robustness sweep — availability & migration recovery under injected faults |
//! | `cluster` | cross-node migration — node count × NIC bandwidth × policy over the modeled interconnect |
//! | `crash`   | whole-node power loss — crash rate × recovery policy × scrub rate |
//! | `churn`   | multi-tenant serving — cluster size × shard size × open-loop tenant churn |
//! | `drift`   | online-learned performance model — static vs online source under a mid-run regime shift |
//! | `cache`   | staged buffer cache — cache size × migration policy × sweep bypass, plus classifier-driven admission |

pub mod cache;
pub mod characterization;
pub mod churn;
pub mod cluster;
pub mod crash;
pub mod drift;
pub mod faults;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig9;
pub mod harness;
pub mod mix;
pub mod obs;
pub mod placement;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tau;

pub use harness::{ExperimentResult, Row, Scale};

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 23] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "table3",
    "fig7",
    "fig10",
    "fig12",
    "tau",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "placement",
    "characterization",
    "fig9",
    "faults",
    "cluster",
    "crash",
    "churn",
    "drift",
    "cache",
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error message for unknown ids.
pub fn run_experiment(id: &str, scale: Scale) -> Result<ExperimentResult, String> {
    match id {
        "table1" => Ok(table1::run(scale)),
        "table2" => Ok(table2::run(scale)),
        "fig4" => Ok(fig4::run(scale)),
        "fig5" => Ok(fig5::run(scale)),
        "table3" => Ok(table3::run(scale)),
        "fig7" => Ok(fig7::run(scale)),
        "fig9" => Ok(fig9::run(scale)),
        "fig10" => Ok(fig10::run(scale)),
        "fig12" => Ok(fig12::run(scale)),
        "tau" => Ok(tau::run(scale)),
        "fig13" => Ok(fig13::run(scale)),
        "fig14" => Ok(fig14::run(scale)),
        "fig15" => Ok(fig15::run(scale)),
        "fig16" => Ok(fig16::run(scale)),
        "fig17" => Ok(fig17::run(scale)),
        "placement" => Ok(placement::run(scale)),
        "characterization" => Ok(characterization::run(scale)),
        "faults" => Ok(faults::run(scale)),
        "cluster" => Ok(cluster::run(scale)),
        "crash" => Ok(crash::run(scale)),
        "churn" => Ok(churn::run(scale)),
        "drift" => Ok(drift::run(scale)),
        "cache" => Ok(cache::run(scale)),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            ALL_EXPERIMENTS.join(", ")
        )),
    }
}
