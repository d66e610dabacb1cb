//! Report types and the end-of-run accumulator snapshot, plus the typed
//! admission errors the pipeline surfaces.

use super::NodeSim;
use crate::migration::MigrationMode;
use crate::vmdk::VmdkId;
use nvhsm_device::DeviceKind;
use nvhsm_sim::{OnlineStats, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-device section of a [`NodeReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device tier.
    pub kind: DeviceKind,
    /// Node index.
    pub node: usize,
    /// Normal-class requests served.
    pub io_count: u64,
    /// Mean latency of normal-class requests, µs.
    pub mean_latency_us: f64,
}

/// Result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeReport {
    /// Policy that ran.
    pub policy: String,
    /// Total normal-class requests served.
    pub io_count: u64,
    /// Mean latency across all workload requests, µs.
    pub mean_latency_us: f64,
    /// Per-device breakdown.
    pub devices: Vec<DeviceReport>,
    /// Migrations the manager started.
    pub migrations_started: u64,
    /// Migrations that completed within the run.
    pub migrations_completed: u64,
    /// Total migration copy activity (busy) time: the Fig. 13 metric.
    /// Mirrored writes and gated-idle stretches of lazy migrations do not
    /// count.
    pub migration_time: SimDuration,
    /// Total migration wall-clock time, start to finish (unfinished
    /// migrations count until the horizon).
    pub migration_wall_time: SimDuration,
    /// Blocks moved by background copying.
    pub copied_blocks: u64,
    /// Blocks that reached destinations via mirrored writes.
    pub mirrored_blocks: u64,
    /// Fraction of workload requests that eventually completed (1.0 with
    /// no fault plan): served / (served + failed).
    pub availability: f64,
    /// 99th-percentile workload latency, µs, over every served request.
    pub p99_latency_us: f64,
    /// Device-level I/O errors surfaced to the host (before retries).
    pub io_errors: u64,
    /// Requests resubmitted after a transient error.
    pub retries: u64,
    /// Workload requests that failed after exhausting retries/fallbacks.
    pub failed_requests: u64,
    /// Migrations aborted and rolled back to their source.
    pub migrations_aborted: u64,
    /// Migrations suspended by an outage and later resumed from their
    /// bitmap.
    pub migrations_resumed: u64,
    /// Blocks whose only up-to-date copy became unrecoverable. The abort
    /// protocol only runs with both endpoints reachable, so this must stay
    /// zero.
    pub blocks_lost: u64,
    /// Migrations whose endpoints lived on different nodes.
    pub remote_migrations: u64,
    /// Whole-node power-loss events processed.
    pub node_crashes: u64,
    /// Journal replay passes completed (one per node recovery).
    pub replays: u64,
    /// Total crash-to-ReplayComplete recovery time across all replays.
    pub recovery_time: SimDuration,
    /// Blocks probed by the background scrubber.
    pub scrub_scanned: u64,
    /// Latent-corrupt blocks the scrubber detected.
    pub scrub_detected: u64,
    /// Detected blocks repaired (from the migration mirror or in place).
    pub scrub_repaired: u64,
    /// Scrub probes that failed at the device (retries exhausted/offline).
    pub scrub_errors: u64,
    /// Policy-driven admissions rejected because no datastore could hold
    /// the VMDK.
    pub placements_rejected: u64,
    /// Payload bytes the run put on the cross-node interconnect.
    pub net_bytes: u64,
    /// (features, measured latency) pairs fed to the model source.
    pub model_observations: u64,
    /// Page–Hinkley drift detections across all device kinds (always 0
    /// for the static source).
    pub model_drifts: u64,
    /// Online model refits across all device kinds (always 0 for the
    /// static source).
    pub model_refits: u64,
    /// Mean absolute prediction error over every model observation, µs —
    /// measured against the model in force when each observation arrived.
    pub model_pred_err_us: f64,
    /// NVDIMM buffer-cache hit ratio per epoch, as (cumulative NVDIMM
    /// requests, hit ratio) — Fig. 15's axes.
    ///
    /// The series fields are `Arc`-shared with the simulator rather than
    /// deep-copied: building a report is O(1) in series length, and the
    /// simulator copies-on-write only if it keeps running while a report
    /// is still held.
    pub nvdimm_hit_ratio: Arc<Vec<(u64, f64)>>,
    /// NVDIMM mean workload latency per epoch, µs (Fig. 4/7 time series).
    pub nvdimm_latency_series: Arc<Vec<f64>>,
    /// NVDIMM ambient bus utilization per epoch (Fig. 4's second axis).
    pub bus_utilization_series: Arc<Vec<f64>>,
    /// Every migration the manager started in the measured window.
    pub migration_log: Arc<Vec<MigrationEvent>>,
}

/// One entry of the migration log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationEvent {
    /// When the migration started.
    pub started: SimTime,
    /// The VMDK moved.
    pub vmdk: VmdkId,
    /// Source datastore index.
    pub src: usize,
    /// Destination datastore index.
    pub dst: usize,
    /// Migration mode.
    pub mode: MigrationMode,
}

/// Why an admission request could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// Every available datastore's largest free extent is smaller than the
    /// VMDK (or the placement policy found no finite candidate).
    NoFeasibleDatastore {
        /// Size of the VMDK that was rejected, blocks.
        size_blocks: u64,
    },
    /// The explicitly requested datastore cannot hold the VMDK.
    DatastoreFull {
        /// The datastore that was asked to host the VMDK.
        ds: usize,
        /// Size of the VMDK that was rejected, blocks.
        size_blocks: u64,
    },
    /// Admission control refused the request: granting it would push the
    /// tenant past its capacity quota (over-admission protection for the
    /// multi-tenant serving plane).
    TenantOverQuota {
        /// The tenant whose admission was refused.
        tenant: u32,
        /// Blocks the admission asked for.
        requested_blocks: u64,
        /// The tenant's total capacity quota, blocks.
        quota_blocks: u64,
    },
    /// The tenant is already live: a second admission under its id would
    /// orphan the first one's VMDKs.
    TenantAlreadyAdmitted {
        /// The live tenant's id.
        tenant: u32,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoFeasibleDatastore { size_blocks } => {
                write!(f, "no datastore can hold a {size_blocks}-block VMDK")
            }
            PlacementError::DatastoreFull { ds, size_blocks } => {
                write!(f, "datastore {ds} cannot hold a {size_blocks}-block VMDK")
            }
            PlacementError::TenantOverQuota {
                tenant,
                requested_blocks,
                quota_blocks,
            } => {
                write!(
                    f,
                    "tenant {tenant} requested {requested_blocks} blocks past \
                     its {quota_blocks}-block quota"
                )
            }
            PlacementError::TenantAlreadyAdmitted { tenant } => {
                write!(f, "tenant {tenant} is already admitted")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

impl NodeSim {
    pub(crate) fn finish_report(&mut self, until: SimTime) -> NodeReport {
        let mut devices = Vec::new();
        let mut io_count = 0;
        for ds in &self.datastores {
            let stats = ds.device().stats();
            devices.push(DeviceReport {
                kind: ds.device().kind(),
                node: ds.node(),
                io_count: stats.lifetime_requests(),
                mean_latency_us: stats.lifetime_mean_latency_us(),
            });
            io_count += stats.lifetime_requests();
        }
        let mut latency = OnlineStats::new();
        for w in &self.workloads {
            latency.merge(&w.latency);
        }
        let mut migration_wall = self.migration_wall;
        for m in &self.migrations {
            migration_wall += until.saturating_since(m.active.started);
        }
        let model_stats = self.manager.model_stats();
        NodeReport {
            policy: self.cfg.policy.to_string(),
            io_count,
            mean_latency_us: latency.mean(),
            devices,
            migrations_started: self.migrations_started,
            migrations_completed: self.migrations_completed,
            migration_time: self.migration_busy,
            migration_wall_time: migration_wall,
            copied_blocks: self.copied_blocks,
            mirrored_blocks: self.mirrored_blocks
                + self
                    .migrations
                    .iter()
                    .map(|m| m.active.mirrored_blocks)
                    .sum::<u64>(),
            availability: {
                let attempts = self.served_requests + self.failed_requests;
                if attempts == 0 {
                    1.0
                } else {
                    self.served_requests as f64 / attempts as f64
                }
            },
            p99_latency_us: self.latency_hist.p99(),
            io_errors: self.io_errors,
            retries: self.retries,
            failed_requests: self.failed_requests,
            migrations_aborted: self.migrations_aborted,
            migrations_resumed: self.migrations_resumed,
            blocks_lost: self.blocks_lost,
            remote_migrations: self.remote_migrations,
            node_crashes: self.node_crashes,
            replays: self.replays,
            recovery_time: self.recovery_time,
            scrub_scanned: self.scrub_scanned,
            scrub_detected: self.scrub_detected,
            scrub_repaired: self.scrub_repaired,
            scrub_errors: self.scrub_errors,
            placements_rejected: self.placements_rejected,
            net_bytes: self.net.total_bytes(),
            model_observations: model_stats.observations,
            model_drifts: model_stats.drifts,
            model_refits: model_stats.refits,
            model_pred_err_us: model_stats.mean_abs_err_us(),
            // O(1) handle copies — see the NodeReport field docs.
            nvdimm_hit_ratio: Arc::clone(&self.hit_ratio_series),
            nvdimm_latency_series: Arc::clone(&self.nvdimm_latency_series),
            bus_utilization_series: Arc::clone(&self.bus_util_series),
            migration_log: Arc::clone(&self.migration_log),
        }
    }
}
