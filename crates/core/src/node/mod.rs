//! The server-node simulation: NVDIMM + SSD + HDD datastores, big-data
//! workloads, SPEC-like memory interference, and the epoch-driven storage
//! manager — the engine behind the paper's §6 experiments.
//!
//! The engine is activity-scan based: workload generators, the background
//! migration copier and epoch boundaries are merged in time order; each
//! I/O is served immediately by the addressed device (whose internal
//! busy-until horizons model queueing). It supports multiple nodes — the
//! cluster experiments wrap it — with cross-node migration traffic going
//! through a NIC model.
//!
//! # The staged I/O pipeline
//!
//! Every workload request flows through one shared [`datapath`], used
//! identically by the local and cross-node paths (see `DESIGN.md` §12 for
//! the full stage diagram):
//!
//! ```text
//! admission ─ routing ─ translate ─ NIC hop ─ fault gate ─ device ─ retry
//!     │          │                   (write)     (nvhsm-fault)        │
//!     │          └ bitmap/mirror state           ┌────────────────────┘
//!     │                                NIC hop (read) ─ accounting ─ taps
//!     └ Eq. 4 placement via [`manager::PolicyEngine`]     (one stage) (obs)
//! ```
//!
//! The submodules mirror the stages: [`datapath`] (routing, NIC hops and
//! the single latency-accounting stage), [`retry`] (fault gate driving and
//! backoff), [`mirror`] (migration copy rounds, suspend/resume/abort),
//! [`epoch`] (observation building and the per-epoch policy drive through
//! the narrow [`crate::manager::PolicyEngine`] seam), [`cache`] (the
//! NVDIMM cache's configuration, the hot/cold classifier and the cache
//! taps; the cache itself is inside the device) and [`report`]
//! (accumulator snapshots).

pub mod cache;
pub mod datapath;
pub mod epoch;
pub mod mirror;
pub mod recovery;
pub mod report;
pub mod retry;
pub mod scrub;

#[cfg(test)]
mod tests;

use crate::datastore::{Datastore, DatastoreId};
use crate::manager::{Manager, NetworkCosts, PolicyEngine, ResidentInfo};
use crate::migration::ActiveMigration;
use crate::net::{Interconnect, NicConfig, NodeLinkStats};
use crate::policy::PolicyKind;
use crate::training::pretrain_models;
use crate::vmdk::{Vmdk, VmdkId};
use nvhsm_cache::HotColdClassifier;
use nvhsm_device::{HddConfig, HddDevice, NvdimmDevice, SsdConfig, SsdDevice};
use nvhsm_fault::{FaultPlan, NodeFaultPlan};
use nvhsm_model::Features;
use nvhsm_obs::{emit, MetricsRegistry, SharedSink, TraceEvent};
use nvhsm_sim::{EventQueue, Histogram, OnlineStats, SimDuration, SimRng, SimTime};
use nvhsm_workload::{IoGenerator, SpecProgram, SpecTraffic, WorkloadProfile};
use std::collections::BTreeSet;
use std::sync::Arc;

pub use cache::NodeCacheConfig;
pub use datapath::IoOutcome;
pub use recovery::RecoveryPolicy;
pub use report::{DeviceReport, MigrationEvent, NodeReport, PlacementError};

/// Eq. 7 lookahead for `Q_live`, in epochs.
const LOOKAHEAD_EPOCHS: u32 = 50;
/// Cross-node NIC one-way latency.
const NIC_LATENCY: SimDuration = SimDuration::from_us(100);
/// Bounded in-flight window per NIC transmit direction (see
/// [`crate::net::NicConfig::window`]).
const NIC_WINDOW: u32 = 32;

/// Node simulation configuration. Every node carries the same laptop-scale
/// devices: a 1 GiB NVDIMM, a 2 GiB SSD and a 4 GiB HDD, all with Table 4
/// timing.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Management policy.
    pub policy: PolicyKind,
    /// Imbalance threshold τ.
    pub tau: f64,
    /// Management epoch length.
    pub epoch: SimDuration,
    /// Memory-intensive co-runner (sets NVDIMM ambient bus utilization).
    pub spec: Option<SpecProgram>,
    /// Requests per training-grid point for model pretraining.
    pub train_requests: usize,
    /// Cross-node NIC bandwidth, bytes/s.
    pub nic_bandwidth: u64,
    /// Deterministic fault plan, indexed by datastore. `None` runs the
    /// fault-free simulation byte-identically to builds without the fault
    /// subsystem.
    pub faults: Option<FaultPlan>,
    /// How long a suspended migration may wait for its endpoints to come
    /// back before it is aborted and rolled back to the source.
    pub abort_grace: SimDuration,
    /// How long a datastore stays `Degraded` (excluded from placement and
    /// balancing, eligible for evacuation) after its last offline window.
    pub degraded_cooldown: SimDuration,
    /// Node-granularity power-loss plan (outages take every device on the
    /// node offline and drop its volatile state) plus latent block faults
    /// for the scrubber. `None` disables whole-node crash simulation
    /// byte-identically to builds without it.
    pub node_faults: Option<NodeFaultPlan>,
    /// What replay does with journaled migrations once their endpoints
    /// recover from a node crash.
    pub recovery: RecoveryPolicy,
    /// Background scrub rate in blocks per second; 0 disables the
    /// scrubber.
    pub scrub_rate: u64,
    /// Nodes per placement/balancing shard. `0` runs the unsharded
    /// [`Manager`]; any positive value wraps it in a
    /// [`crate::ShardedPolicyEngine`] so Eq. 4/5 scans are O(shard). A
    /// value ≥ the node count yields one shard and is byte-identical to
    /// the unsharded manager (the differential-oracle tests pin this).
    pub shard_nodes: usize,
    /// Online model updating: `Some` wraps the pretrained models in an
    /// [`crate::OnlineModels`] source that learns residual corrections
    /// from observed epoch latencies and refits on drift. `None` keeps
    /// the paper's static §4 setup, byte-identical to builds without the
    /// online subsystem.
    pub online_model: Option<crate::online::OnlineModelConfig>,
    /// Each NVDIMM's buffer cache (see [`cache`]). `Some` sets its
    /// capacity and migrated-read bypass and adds the hot/cold classifier,
    /// classified admission and the cache trace/metrics taps; `None` keeps
    /// the default 4,096-block device cache without them.
    pub cache: Option<NodeCacheConfig>,
}

impl NodeConfig {
    /// The laptop-scale configuration: BCA at τ = 0.5 with 200 ms epochs.
    pub fn small() -> Self {
        NodeConfig {
            policy: PolicyKind::Bca,
            tau: 0.5,
            epoch: SimDuration::from_ms(200),
            spec: None,
            train_requests: 60,
            nic_bandwidth: 125_000_000, // 1 Gb/s
            faults: None,
            abort_grace: SimDuration::from_ms(400),
            degraded_cooldown: SimDuration::from_ms(1000),
            node_faults: None,
            recovery: RecoveryPolicy::Resume,
            scrub_rate: 0,
            shard_nodes: 0,
            online_model: None,
            cache: None,
        }
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// One workload admitted to the simulation: its VMDK, generator and
/// accounting state.
struct WorkloadState {
    vmdk: Vmdk,
    generator: IoGenerator,
    ds: usize,
    /// The node running the workload's compute. I/O against a datastore on
    /// any other node crosses the interconnect.
    home_node: usize,
    next: (SimTime, nvhsm_workload::GenRequest),
    latency: OnlineStats,
}

/// One migration in flight: the shared state machine plus the copier's
/// next scheduled round.
pub(crate) struct MigrationRun {
    active: ActiveMigration,
    next_copy_at: SimTime,
}

/// The node/cluster simulation engine.
pub struct NodeSim {
    cfg: NodeConfig,
    datastores: Vec<Datastore>,
    /// The per-epoch policy brain, behind the narrow
    /// [`PolicyEngine`] seam: the engine can ask for placements and epoch
    /// decisions but cannot reach into Eq. 4/5 internals, and the policy
    /// code never sees simulator state beyond its observations.
    manager: Box<dyn PolicyEngine>,
    workloads: Vec<WorkloadState>,
    /// Workload wake-ups: one `(arrival, index)` entry per admitted
    /// workload, always mirroring `workloads[i].next.0`. Replaces the old
    /// per-iteration scan over every workload in [`NodeSim::run`].
    ready: EventQueue<u32>,
    /// Reused batch buffer for same-timestamp wake-ups in [`NodeSim::run`].
    ready_buf: Vec<(SimTime, u32)>,
    spec: Vec<SpecTraffic>,
    net: Interconnect,
    nodes: usize,
    migrations: Vec<MigrationRun>,
    /// No new decisions until this instant: epochs right after a migration
    /// reflect the copy's own interference, not steady state.
    decision_cooldown_until: SimTime,
    now: SimTime,
    next_epoch: SimTime,
    next_util_update: SimTime,
    rng: SimRng,
    next_vmdk: u32,
    // Accumulators.
    migrations_started: u64,
    migrations_completed: u64,
    migration_busy: SimDuration,
    migration_wall: SimDuration,
    copied_blocks: u64,
    mirrored_blocks: u64,
    io_errors: u64,
    retries: u64,
    served_requests: u64,
    failed_requests: u64,
    migrations_aborted: u64,
    migrations_resumed: u64,
    blocks_lost: u64,
    remote_migrations: u64,
    placements_rejected: u64,
    latency_hist: Histogram,
    hit_ratio_series: Arc<Vec<(u64, f64)>>,
    nvdimm_latency_series: Arc<Vec<f64>>,
    bus_util_series: Arc<Vec<f64>>,
    migration_log: Arc<Vec<MigrationEvent>>,
    last_cache_counts: (u64, u64),
    nvdimm_epoch_latency: OnlineStats,
    // Whole-node crash/recovery state. `effective_faults` is the composed
    // device plan (cfg.faults with node outages overlaid as offline
    // windows) that every fault consumer reads; with no node plan it is a
    // clone of cfg.faults, keeping behavior byte-identical.
    effective_faults: Option<FaultPlan>,
    crashed: Vec<bool>,
    node_events: Vec<recovery::NodeEvent>,
    node_event_cursor: usize,
    durable: Vec<recovery::DurableNodeState>,
    node_crashes: u64,
    replays: u64,
    recovery_time: SimDuration,
    // Scrubber state.
    next_scrub_at: SimTime,
    scrub_ws: usize,
    scrub_offsets: Vec<u64>,
    corrupt: Vec<BTreeSet<u64>>,
    latent_cursor: Vec<usize>,
    scrub_scanned: u64,
    scrub_detected: u64,
    scrub_repaired: u64,
    scrub_errors: u64,
    // Observability. Both default to off; the simulation's numeric results
    // are identical either way.
    trace: Option<SharedSink>,
    metrics: Option<MetricsRegistry>,
    epoch_ordinal: u64,
    /// The hot/cold classifier; `Some` iff `cfg.cache` is.
    classifier: Option<HotColdClassifier>,
}

impl NodeSim {
    /// Builds a single-node simulation.
    pub fn new(cfg: NodeConfig, seed: u64) -> Self {
        Self::with_nodes(cfg, 1, seed)
    }

    /// Builds a simulation with `nodes` nodes, each carrying one NVDIMM,
    /// one SSD and one HDD datastore.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_nodes(cfg: NodeConfig, nodes: usize, seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut rng = SimRng::new(seed);
        let models = pretrain_models(cfg.train_requests, rng.next_u64());
        let source = crate::online::ModelSource::from_config(models, cfg.online_model);
        let mut manager: Box<dyn PolicyEngine> = if cfg.shard_nodes > 0 {
            Box::new(crate::manager::ShardedPolicyEngine::new(
                Manager::with_source(cfg.policy, cfg.tau, source),
                cfg.shard_nodes,
            ))
        } else {
            Box::new(Manager::with_source(cfg.policy, cfg.tau, source))
        };
        // Fold the interconnect into the manager's what-if arithmetic: one
        // hop costs the propagation latency plus one block's wire time, and
        // each migrated block costs its wire time (Eq. 6 extension). With
        // one node these terms never apply; with an effectively infinite
        // link they round to ~0.
        let per_block_us = 4096.0 * 1e6 / cfg.nic_bandwidth as f64;
        manager.set_network(NetworkCosts {
            hop_us: NIC_LATENCY.as_us_f64() + per_block_us,
            per_block_us,
        });

        let nvdimm_cfg = cache::nvdimm_config(cfg.cache.as_ref(), cfg.policy);
        let mut datastores = Vec::new();
        for node in 0..nodes {
            datastores.push(Datastore::new(
                DatastoreId(datastores.len()),
                Box::new(NvdimmDevice::new(nvdimm_cfg.clone())),
                node,
            ));
            datastores.push(Datastore::new(
                DatastoreId(datastores.len()),
                Box::new(SsdDevice::new(SsdConfig::small_test())),
                node,
            ));
            datastores.push(Datastore::new(
                DatastoreId(datastores.len()),
                Box::new(HddDevice::new(HddConfig::small_test())),
                node,
            ));
        }
        let net = Interconnect::new(
            NicConfig {
                bandwidth: cfg.nic_bandwidth,
                latency: NIC_LATENCY,
                window: NIC_WINDOW,
            },
            nodes,
        );
        // Compose the effective device fault plan: node-granularity power
        // loss takes every device on the node offline, so each node's
        // outage windows are overlaid onto its three device schedules.
        // Without a node plan this is a straight clone of cfg.faults,
        // keeping fault-free and device-fault-only runs byte-identical.
        let effective_faults = match &cfg.node_faults {
            None => cfg.faults.clone(),
            Some(plan) => {
                let schedules = (0..nodes * 3)
                    .map(|i| {
                        let dev = cfg
                            .faults
                            .as_ref()
                            .map(|p| p.device(i).clone())
                            .unwrap_or_default();
                        dev.overlay_offline(plan.node(i / 3).outages())
                    })
                    .collect();
                let seed = cfg.faults.as_ref().map(|p| p.seed()).unwrap_or(plan.seed());
                Some(FaultPlan::from_schedules(schedules, seed))
            }
        };
        if let Some(plan) = &effective_faults {
            // Hook RNGs derive from the plan seed and the datastore index
            // only, so fault draws never perturb the simulation's own RNG
            // streams (and vice versa) — the backbone of cross-worker
            // replay determinism.
            for (i, ds) in datastores.iter_mut().enumerate() {
                ds.device_mut().install_fault_hook(Some(plan.hook_for(i)));
            }
        }
        let node_events = cfg
            .node_faults
            .as_ref()
            .map(|p| recovery::node_events_from(p, nodes))
            .unwrap_or_default();
        let next_scrub_at = if cfg.scrub_rate > 0 {
            SimTime::ZERO + scrub::scrub_interval(cfg.scrub_rate)
        } else {
            SimTime::MAX
        };
        let spec = cfg
            .spec
            .map(|p| {
                (0..nodes)
                    .map(|n| {
                        // Stagger phases across nodes.
                        let period = SimDuration::from_ms(2000 + 300 * n as u64);
                        SpecTraffic::with_period(p, period)
                    })
                    .collect()
            })
            .unwrap_or_default();

        let epoch = cfg.epoch;
        let classifier = cache::classifier(cfg.cache.as_ref());
        NodeSim {
            cfg,
            datastores,
            manager,
            workloads: Vec::new(),
            ready: EventQueue::new(),
            ready_buf: Vec::new(),
            spec,
            net,
            nodes,
            migrations: Vec::new(),
            decision_cooldown_until: SimTime::ZERO,
            now: SimTime::ZERO,
            next_epoch: SimTime::ZERO + epoch,
            next_util_update: SimTime::ZERO,
            rng,
            next_vmdk: 0,
            migrations_started: 0,
            migrations_completed: 0,
            migration_busy: SimDuration::ZERO,
            migration_wall: SimDuration::ZERO,
            copied_blocks: 0,
            mirrored_blocks: 0,
            io_errors: 0,
            retries: 0,
            served_requests: 0,
            failed_requests: 0,
            migrations_aborted: 0,
            migrations_resumed: 0,
            blocks_lost: 0,
            remote_migrations: 0,
            placements_rejected: 0,
            latency_hist: Histogram::new(),
            hit_ratio_series: Arc::new(Vec::new()),
            nvdimm_latency_series: Arc::new(Vec::new()),
            bus_util_series: Arc::new(Vec::new()),
            migration_log: Arc::new(Vec::new()),
            last_cache_counts: (0, 0),
            nvdimm_epoch_latency: OnlineStats::new(),
            effective_faults,
            crashed: vec![false; nodes],
            node_events,
            node_event_cursor: 0,
            durable: vec![recovery::DurableNodeState::default(); nodes],
            node_crashes: 0,
            replays: 0,
            recovery_time: SimDuration::ZERO,
            next_scrub_at,
            scrub_ws: 0,
            scrub_offsets: Vec::new(),
            corrupt: vec![BTreeSet::new(); nodes * 3],
            latent_cursor: vec![0; nodes],
            scrub_scanned: 0,
            scrub_detected: 0,
            scrub_repaired: 0,
            scrub_errors: 0,
            trace: None,
            metrics: None,
            epoch_ordinal: 0,
            classifier,
        }
    }

    /// Attaches (or clears) a trace sink. The sink receives node-level
    /// events (retries, migration phase transitions, placement and
    /// imbalance decisions) and is also installed into every datastore's
    /// device, which reports submit/complete and fault-gate outcomes.
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        for ds in &mut self.datastores {
            ds.device_mut().install_trace_sink(sink.clone());
        }
        self.trace = sink;
    }

    /// Enables the metrics registry (counters, gauges and latency
    /// histograms keyed by device and node).
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(MetricsRegistry::new());
    }

    /// The metrics registry, if [`NodeSim::enable_metrics`] was called.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Takes the metrics registry out, leaving metrics enabled but empty.
    pub fn take_metrics(&mut self) -> Option<MetricsRegistry> {
        self.metrics.replace(MetricsRegistry::new())
    }

    /// Device-kind label and node index of datastore `ds`, the key pair
    /// metrics are registered under.
    fn obs_key(&self, ds: usize) -> (String, u32) {
        (
            self.datastores[ds].device().kind().to_string(),
            self.datastores[ds].node() as u32,
        )
    }

    /// Runs `f` against the metrics registry when metrics are enabled; the
    /// key strings for datastore `ds` are only built when a registry exists,
    /// keeping the disabled path allocation-free.
    fn with_metrics(&mut self, ds: usize, f: impl FnOnce(&mut MetricsRegistry, &str, u32)) {
        if self.metrics.is_some() {
            let (dev, node) = self.obs_key(ds);
            if let Some(m) = &mut self.metrics {
                f(m, &dev, node);
            }
        }
    }

    /// The policy engine's model-source statistics so far (observations
    /// fed, drifts, refits, mean absolute prediction error) — cumulative
    /// over the whole run, so windowed measurements difference two
    /// snapshots.
    pub fn model_stats(&self) -> crate::training::ModelSourceStats {
        self.manager.model_stats()
    }

    /// Per-node interconnect link statistics.
    pub fn link_stats(&self) -> Vec<NodeLinkStats> {
        self.net.link_stats()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The datastores (inspection).
    pub fn datastores(&self) -> &[Datastore] {
        &self.datastores
    }

    /// Adds a workload, placing its VMDK randomly among the datastores
    /// with room (the paper's §6.2 initial arrangement: "randomly, but in
    /// a greedy manner so as to keep a space-balanced arrangement" —
    /// random across tiers, skipping full devices).
    ///
    /// # Panics
    ///
    /// Panics if no datastore can hold the VMDK.
    pub fn add_workload(&mut self, profile: WorkloadProfile) -> VmdkId {
        let blocks = profile.working_set_blocks;
        let feasible: Vec<usize> = self
            .datastores
            .iter()
            .enumerate()
            .filter(|(_, d)| d.largest_free_extent() >= blocks)
            .map(|(i, _)| i)
            .collect();
        assert!(!feasible.is_empty(), "no datastore can hold the VMDK");
        let ds = feasible[self.rng.below(feasible.len() as u64) as usize];
        let home = self.datastores[ds].node();
        match self.add_workload_with_home(profile, ds, home) {
            Ok(id) => id,
            // Feasibility was pre-checked against the largest free extent.
            Err(e) => unreachable!("feasible datastore rejected the VMDK: {e}"),
        }
    }

    /// Adds a workload using the policy's initial-placement logic (Eq. 4
    /// for the BCA family). Admission is graceful: when no datastore can
    /// hold the VMDK the workload is rejected with a [`PlacementError`]
    /// and counted, not panicked on.
    pub fn add_workload_placed(
        &mut self,
        profile: WorkloadProfile,
    ) -> Result<VmdkId, PlacementError> {
        self.add_workload_placed_from(profile, None)
    }

    /// Like [`NodeSim::add_workload_placed`], but the workload's compute
    /// runs on `home` node: Eq. 4 charges the interconnect hop to remote
    /// candidates, and all of the admitted workload's I/O against a
    /// non-home datastore crosses the NIC.
    pub fn add_workload_placed_from(
        &mut self,
        profile: WorkloadProfile,
        home: Option<usize>,
    ) -> Result<VmdkId, PlacementError> {
        let info = ResidentInfo {
            vmdk: VmdkId(u32::MAX),
            size_blocks: profile.working_set_blocks,
            features: profile_features(&profile, 1.0, 0.5),
            io_count: 0,
            mean_latency_us: 0.0,
            live_blocks: (profile.iops
                * profile.mean_size_blocks
                * self.cfg.epoch.as_secs_f64()
                * LOOKAHEAD_EPOCHS as f64) as u64,
        };
        let observations = self.observe(false);
        let Some(DatastoreId(ds)) = self
            .manager
            .initial_placement_from(&observations, &info, home)
        else {
            self.placements_rejected += 1;
            if let Some(m) = &mut self.metrics {
                m.counter_inc("placements_rejected", "", 0);
            }
            return Err(PlacementError::NoFeasibleDatastore {
                size_blocks: profile.working_set_blocks,
            });
        };
        let home = home.unwrap_or_else(|| self.datastores[ds].node());
        let id = self.add_workload_with_home(profile, ds, home)?;
        emit(&self.trace, || TraceEvent::Placement {
            t: self.now.as_ns(),
            vmdk: id.0,
            dst: self.datastores[ds].device().kind().to_string(),
        });
        Ok(id)
    }

    /// Adds a workload on an explicit datastore. When the datastore cannot
    /// hold the VMDK the admission fails with a typed
    /// [`PlacementError::DatastoreFull`] — callers pinning a placement
    /// decide for themselves whether a setup mistake is fatal.
    pub fn add_workload_on(
        &mut self,
        profile: WorkloadProfile,
        ds: usize,
    ) -> Result<VmdkId, PlacementError> {
        let home = self.datastores[ds].node();
        self.add_workload_with_home(profile, ds, home)
    }

    fn add_workload_with_home(
        &mut self,
        profile: WorkloadProfile,
        ds: usize,
        home_node: usize,
    ) -> Result<VmdkId, PlacementError> {
        let id = VmdkId(self.next_vmdk);
        let vmdk = Vmdk::new(id, profile.clone());
        if self.datastores[ds].place(id, vmdk.size_blocks()).is_none() {
            return Err(PlacementError::DatastoreFull {
                ds,
                size_blocks: vmdk.size_blocks(),
            });
        }
        self.next_vmdk += 1;
        let mut generator = IoGenerator::new(profile, self.rng.fork());
        generator.fast_forward(self.now);
        let next = generator.next_request();
        self.ready.push(next.0, self.workloads.len() as u32);
        self.workloads.push(WorkloadState {
            vmdk,
            generator,
            ds,
            home_node,
            next,
            latency: OnlineStats::new(),
        });
        Ok(id)
    }

    /// Retunes a running workload's arrival rate and write ratio in place
    /// — a MapReduce-style phase transition mid-run (the drift
    /// experiment's regime shifts). The generator keeps its RNG stream
    /// and clock; only the stream parameters change. The VMDK's admission
    /// profile (and hence the Eq. 2 feature vector the manager sees) is
    /// deliberately left alone: the characterization lagging the stream
    /// is exactly the regime the online model source exists to absorb.
    /// Returns `false` when `vmdk` is unknown.
    pub fn retune_workload(&mut self, vmdk: VmdkId, iops: f64, wr_ratio: f64) -> bool {
        let Some(w) = self.workloads.iter_mut().find(|w| w.vmdk.id() == vmdk) else {
            return false;
        };
        w.generator.set_iops(iops);
        w.generator.set_wr_ratio(wr_ratio);
        true
    }

    /// Where `vmdk` currently lives (destination while migrating).
    pub fn placement_of(&self, vmdk: VmdkId) -> Option<usize> {
        self.workloads
            .iter()
            .find(|w| w.vmdk.id() == vmdk)
            .map(|w| w.ds)
    }

    /// Runs the simulation for `secs` of virtual time and reports.
    pub fn run_secs(&mut self, secs: u64) -> NodeReport {
        self.run(SimDuration::from_secs(secs))
    }

    /// Runs until the system goes quiet — no migration in flight and none
    /// started during a whole probe chunk — or `max` elapses. Used to let
    /// the initial placement drain before measurement, like the paper's
    /// multi-hour warm-up.
    pub fn run_until_quiet(&mut self, max: SimDuration) {
        let deadline = self.now + max;
        let chunk = SimDuration::from_ms(500);
        let mut quiet_chunks = 0;
        loop {
            let started_before = self.migrations_started;
            self.run(chunk);
            if self.migrations.is_empty() && self.migrations_started == started_before {
                quiet_chunks += 1;
                // Cooldown pauses can masquerade as quiet for a chunk or
                // two; require sustained silence.
                if quiet_chunks >= 4 {
                    return;
                }
            } else {
                quiet_chunks = 0;
            }
            if self.now >= deadline {
                return;
            }
        }
    }

    /// Number of migrations currently in flight.
    pub fn active_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Discards accumulated metrics (latency, migration counters, series)
    /// while keeping all simulation state. Use after a warm-up period, the
    /// way the paper excludes the initial-placement phase from its plots.
    pub fn reset_metrics(&mut self) {
        for ds in &mut self.datastores {
            ds.device_mut().stats_mut().reset_lifetime();
        }
        for w in &mut self.workloads {
            w.latency = OnlineStats::new();
        }
        self.migrations_started = 0;
        self.migrations_completed = 0;
        self.migration_busy = SimDuration::ZERO;
        self.migration_wall = SimDuration::ZERO;
        self.copied_blocks = 0;
        self.mirrored_blocks = 0;
        self.io_errors = 0;
        self.retries = 0;
        self.served_requests = 0;
        self.failed_requests = 0;
        self.migrations_aborted = 0;
        self.migrations_resumed = 0;
        self.blocks_lost = 0;
        self.remote_migrations = 0;
        self.placements_rejected = 0;
        self.node_crashes = 0;
        self.replays = 0;
        self.recovery_time = SimDuration::ZERO;
        self.scrub_scanned = 0;
        self.scrub_detected = 0;
        self.scrub_repaired = 0;
        self.scrub_errors = 0;
        // Traffic counters restart with the measured window; the wire's
        // queueing state (busy-until, in-flight window) carries over.
        self.net.reset_stats();
        self.latency_hist = Histogram::new();
        // Fresh Arcs instead of clear(): if an earlier report still shares
        // the old series, clearing through make_mut would first deep-copy
        // data that is about to be discarded anyway.
        self.hit_ratio_series = Arc::new(Vec::new());
        self.nvdimm_latency_series = Arc::new(Vec::new());
        self.bus_util_series = Arc::new(Vec::new());
        self.migration_log = Arc::new(Vec::new());
        self.nvdimm_epoch_latency = OnlineStats::new();
        if self.metrics.is_some() {
            // Warm-up metrics are discarded along with the other
            // accumulators; the registry stays enabled.
            self.metrics = Some(MetricsRegistry::new());
        }
        for m in &mut self.migrations {
            // In-flight migrations' clocks restart so their pre-reset
            // portions are not charged to the measured window.
            m.active.started = self.now;
        }
    }

    /// Runs the simulation for `span` of virtual time and reports.
    ///
    /// Each loop iteration is one wake-up instant `t`, and everything due
    /// at `t` is processed in a fixed priority order — utilization update,
    /// epoch boundary, migration copy rounds, then all workload requests
    /// in workload-index order (batch-drained from the calendar queue in
    /// one call). The order matches the retired one-event-per-iteration
    /// loop exactly: serving never re-arms anything at `t` (generators
    /// advance strictly, copy rounds reschedule past `now`), and the only
    /// same-instant cascade — an epoch decision starting a migration due
    /// immediately — is covered by checking migrations after the epoch.
    pub fn run(&mut self, span: SimDuration) -> NodeReport {
        let until = self.now + span;
        loop {
            // Next wake-up: workload request, epoch boundary, migration
            // copy round, or utilization update.
            let mut t = self.next_epoch.min(self.next_util_update);
            for m in &self.migrations {
                if m.active.copy_enabled && !m.active.suspended() {
                    t = t.min(m.next_copy_at);
                }
            }
            if let Some(wt) = self.ready.next_time() {
                t = t.min(wt);
            }
            if let Some(ne) = self.next_node_event() {
                t = t.min(ne);
            }
            t = t.min(self.next_scrub_at);
            if t >= until {
                break;
            }
            self.now = t;

            // Node power events first: a crash at t must dark its node
            // before the same instant's epoch or copy work runs.
            self.process_node_events();
            if t == self.next_util_update {
                self.update_bus_utilization();
                self.next_util_update = t + self.cfg.epoch / 4;
            }
            if t == self.next_epoch {
                self.run_epoch();
                self.next_epoch = t + self.cfg.epoch;
            }
            while let Some(mi) = self
                .migrations
                .iter()
                .position(|m| m.active.copy_enabled && !m.active.suspended() && m.next_copy_at == t)
            {
                self.copy_round(mi);
            }
            if t == self.next_scrub_at {
                self.scrub_tick();
                self.next_scrub_at = t + scrub::scrub_interval(self.cfg.scrub_rate);
            }
            let mut batch = std::mem::take(&mut self.ready_buf);
            batch.clear();
            self.ready.drain_due(t, &mut batch);
            // Same-instant arrivals are served in workload-index order,
            // matching the retired loop's first-minimum scan.
            batch.sort_unstable_by_key(|&(_, wi)| wi);
            for &(_, wi) in &batch {
                self.serve_workload(wi as usize);
            }
            self.ready_buf = batch;
        }
        self.now = until;
        self.finish_report(until)
    }
}

/// Builds the Eq. 2 feature vector of a workload from its profile plus the
/// measured OIO and the device's free space.
fn profile_features(profile: &WorkloadProfile, oio: f64, free_space: f64) -> Features {
    Features {
        wr_ratio: profile.wr_ratio,
        oios: oio,
        ios: profile.mean_size_blocks,
        wr_rand: profile.wr_rand,
        rd_rand: profile.rd_rand,
        free_space_ratio: free_space,
    }
}
