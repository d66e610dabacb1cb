//! NVDIMM-based heterogeneous storage hierarchy management — the paper's
//! core contribution (§5), plus the baselines it compares against and the
//! node/cluster simulation loops that drive the evaluation (§6).
//!
//! Components:
//!
//! * [`vmdk`] / [`datastore`] — virtual machine disks and the devices they
//!   live on, with block allocation and address translation.
//! * [`training`] — offline pretraining of the §4 performance model, one
//!   per device tier, on the synthetic workload grid.
//! * [`manager`] — the management brain run once per epoch: per-device
//!   performance estimation (Eq. 5: *predicted* for NVDIMMs under BCA,
//!   measured for the baselines), imbalance detection with threshold τ,
//!   candidate selection, and the cost/benefit gate (Eq. 6/7).
//! * [`migration`] — migration execution: full copy, LightSRM-style I/O
//!   mirroring, and the paper's lazy migration (mirroring + bitmap +
//!   cost/benefit-gated background copy).
//! * [`policy`] — the six policies under evaluation: BASIL, Pesto,
//!   LightSRM, BCA, BCA+lazy, BCA+lazy+architectural optimization.
//! * [`node`] — [`NodeSim`]: one server node with NVDIMM + SSD + HDD,
//!   big-data workloads, SPEC-like memory interference, and a management
//!   loop. Every request flows through the staged data-path pipeline in
//!   [`node::datapath`] (routing → translate → NIC hop → fault-gated
//!   device service with retry → accounting), shared verbatim by the
//!   local and cross-node paths; the manager plugs in behind the
//!   [`manager::PolicyEngine`] seam.
//! * [`net`] — the deterministic cluster interconnect: one full-duplex
//!   link per node with FIFO contention and a bounded in-flight window.
//! * [`cluster`] — [`ClusterReport`]: a multi-node [`NodeSim`] run with
//!   cross-node migrations over the [`net`] interconnect, plus per-link
//!   statistics.
//!
//! # Examples
//!
//! ```
//! use nvhsm_core::{NodeConfig, NodeSim, PolicyKind};
//! use nvhsm_workload::hibench::{profile, Benchmark};
//!
//! let mut cfg = NodeConfig::small();
//! cfg.policy = PolicyKind::BcaLazy;
//! let mut sim = NodeSim::new(cfg, 42);
//! sim.add_workload(profile(Benchmark::Sort));
//! let report = sim.run_secs(1);
//! assert!(report.io_count > 0);
//! ```

pub mod cluster;
pub mod datastore;
pub mod manager;
pub mod migration;
pub mod net;
pub mod node;
pub mod online;
pub mod policy;
pub mod serving;
pub mod training;
pub mod vmdk;

pub use cluster::ClusterReport;
pub use datastore::{Datastore, DatastoreId};
pub use manager::{
    shard_summaries, Manager, MigrationDecision, NetworkCosts, PolicyEngine, ShardSummary,
    ShardedPolicyEngine,
};
pub use migration::{Bitmap, MigrationMode};
pub use net::{Interconnect, LinkStats, NicConfig, NodeLinkStats};
pub use node::{
    IoOutcome, MigrationEvent, NodeCacheConfig, NodeConfig, NodeReport, NodeSim, PlacementError,
    RecoveryPolicy,
};
pub use online::{ModelSource, OnlineModelConfig, OnlineModels, RefitPolicy};
pub use policy::PolicyKind;
pub use serving::{ServingConfig, ServingReport, ServingSim};
pub use training::{pretrain_models, ModelEvent, ModelObservation, ModelSourceStats};
pub use vmdk::{Vmdk, VmdkId};
