//! Typed trace events.
//!
//! One enum covers every instrumented layer: device submit/complete and
//! fault-gate outcomes, node-level retry/backoff and mirrored-write
//! fallback, the five migration phase transitions, manager placement and
//! imbalance decisions, and flash-controller barrier scheduling. Variants
//! carry only plain data (integers, floats, short strings) so events can
//! outlive the simulator state that produced them, and field names are kept
//! short because golden trace files check these lines in verbatim.
//!
//! Serialized form is externally tagged JSON, one event per line:
//!
//! ```text
//! {"IoSubmit":{"t":1000,"dev":"SSD","stream":3,"block":96,"len":8,"op":"W"}}
//! ```

use serde::{Deserialize, Serialize};

/// Fault-gate outcome classes (mirrors `nvhsm_device::IoError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Retryable error: the request failed but the device still responds.
    Transient,
    /// The device is inside an offline window; nothing can be served.
    Offline,
}

/// One structured trace event. All timestamps `t` are simulated
/// nanoseconds except the barrier events, which use the flash
/// controller's native microsecond clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A request entered a device (fault gate passed).
    IoSubmit {
        /// Simulated time, ns.
        t: u64,
        /// Device kind label (`NVDIMM` / `SSD` / `HDD`).
        dev: String,
        /// Workload stream id.
        stream: u32,
        /// First 4 KiB block.
        block: u64,
        /// Request length in blocks.
        len: u32,
        /// `R` or `W`.
        op: String,
    },
    /// A request finished service on a device.
    IoComplete {
        /// Simulated time the request completed, ns.
        t: u64,
        /// Device kind label.
        dev: String,
        /// Workload stream id.
        stream: u32,
        /// Service latency, ns.
        latency_ns: u64,
    },
    /// The fault gate rejected a request.
    IoFault {
        /// Simulated time, ns.
        t: u64,
        /// Device kind label.
        dev: String,
        /// Outcome class.
        kind: FaultKind,
    },
    /// The node re-queued a failed request with backoff.
    Retry {
        /// Simulated time of the retry decision, ns.
        t: u64,
        /// Resident VMDK the request belongs to.
        vmdk: u32,
        /// 1-based retry attempt number.
        attempt: u32,
        /// Backoff delay before re-submission, ns.
        backoff_ns: u64,
    },
    /// A mirrored write fell back to the migration source.
    MirrorFallback {
        /// Simulated time, ns.
        t: u64,
        /// Migrating VMDK.
        vmdk: u32,
        /// Device the write fell back to.
        dst: String,
    },
    /// Migration copy began.
    MigrationStart {
        /// Simulated time, ns.
        t: u64,
        /// Migrating VMDK.
        vmdk: u32,
        /// Source datastore device label.
        src: String,
        /// Destination datastore device label.
        dst: String,
        /// Copy mode (`FullCopy` / `Mirror` / `Lazy`).
        mode: String,
        /// Total blocks to move.
        blocks: u64,
    },
    /// Migration copy paused (endpoint offline).
    MigrationSuspend {
        /// Simulated time, ns.
        t: u64,
        /// Migrating VMDK.
        vmdk: u32,
        /// Blocks copied so far.
        copied: u64,
    },
    /// Migration copy resumed from the dirty-block bitmap.
    MigrationResume {
        /// Simulated time, ns.
        t: u64,
        /// Migrating VMDK.
        vmdk: u32,
        /// Blocks still to copy.
        remaining: u64,
    },
    /// Migration aborted; destination-only writes rolled back.
    MigrationAbort {
        /// Simulated time, ns.
        t: u64,
        /// Migrating VMDK.
        vmdk: u32,
        /// Dirty blocks written back to the source.
        rolled_back: u64,
    },
    /// Migration finished; resident now lives on the destination.
    MigrationCutover {
        /// Simulated time, ns.
        t: u64,
        /// Migrated VMDK.
        vmdk: u32,
        /// Blocks moved by the copy engine.
        copied: u64,
        /// Writes mirrored to both endpoints during the copy.
        mirrored: u64,
        /// Stale-source writes recorded for lazy mode.
        stale: u64,
    },
    /// Initial placement decision for a resident.
    Placement {
        /// Simulated time, ns.
        t: u64,
        /// Placed VMDK.
        vmdk: u32,
        /// Chosen datastore device label.
        dst: String,
    },
    /// Eq. 5 imbalance evaluation at an epoch boundary.
    ImbalanceTrigger {
        /// Simulated time, ns.
        t: u64,
        /// Epoch ordinal.
        epoch: u64,
        /// Measured imbalance metric.
        imbalance: f64,
        /// Whether the threshold fired.
        triggered: bool,
        /// Whether a cost-benefit veto cancelled the migration.
        vetoed: bool,
    },
    /// A degraded device's resident is being evacuated.
    Evacuation {
        /// Simulated time, ns.
        t: u64,
        /// Evacuated VMDK.
        vmdk: u32,
        /// Degraded source device label.
        src: String,
        /// Destination device label.
        dst: String,
    },
    /// A batch of migration blocks crossed the node interconnect.
    NetTransfer {
        /// Simulated time the batch was handed to the NIC, ns.
        t: u64,
        /// Sending node.
        src_node: u32,
        /// Receiving node.
        dst_node: u32,
        /// Payload bytes put on the wire.
        bytes: u64,
        /// Blocks in the batch.
        blocks: u32,
    },
    /// A migration whose endpoints live on different nodes began.
    RemoteMigrationStart {
        /// Simulated time, ns.
        t: u64,
        /// Migrating VMDK.
        vmdk: u32,
        /// Node holding the source datastore.
        src_node: u32,
        /// Node holding the destination datastore.
        dst_node: u32,
        /// Total blocks to move over the interconnect.
        blocks: u64,
    },
    /// A cross-node migration finished its cutover.
    RemoteMigrationCutover {
        /// Simulated time, ns.
        t: u64,
        /// Migrated VMDK.
        vmdk: u32,
        /// Node holding the source datastore.
        src_node: u32,
        /// Node holding the destination datastore.
        dst_node: u32,
        /// Bytes the migration put on the interconnect overall.
        net_bytes: u64,
    },
    /// A whole node lost power; every device on it went dark and all
    /// volatile node state (in-flight copy progress, queued requests) was
    /// dropped.
    NodeCrash {
        /// Simulated time of the power loss, ns.
        t: u64,
        /// Crashed node.
        node: u32,
        /// Active migrations touching the node that were suspended.
        suspended: u32,
    },
    /// Power returned and the node began replaying its durable state.
    ReplayStart {
        /// Simulated time, ns.
        t: u64,
        /// Recovering node.
        node: u32,
        /// Journaled migration entries found in durable state.
        journaled: u32,
    },
    /// Durable-state replay finished; the node is serving again.
    ReplayComplete {
        /// Simulated time replay finished (crash instant + replay cost), ns.
        t: u64,
        /// Recovered node.
        node: u32,
        /// Migrations resumed from their journaled bitmaps.
        resumed: u32,
        /// Migrations rolled back per the abort recovery policy.
        aborted: u32,
    },
    /// The scrubber found a latent-corrupt block and rewrote it.
    ScrubRepair {
        /// Simulated time of the repair, ns.
        t: u64,
        /// Device holding the corrupt block.
        dev: String,
        /// Node the device lives on.
        node: u32,
        /// Scrubbed VMDK.
        vmdk: u32,
        /// `true` when the good copy came from the migration mirror,
        /// `false` for an in-place rewrite.
        mirror: bool,
    },
    /// A tenant was admitted to the serving plane: its quota was granted
    /// and all of its VMDKs were placed.
    TenantAdmit {
        /// Simulated time, ns.
        t: u64,
        /// Admitted tenant.
        tenant: u32,
        /// VMDKs placed for the tenant.
        vmdks: u32,
        /// Total blocks the tenant's VMDKs occupy.
        blocks: u64,
    },
    /// A tenant departed: its VMDKs were removed and its quota released.
    TenantRetire {
        /// Simulated time, ns.
        t: u64,
        /// Retired tenant.
        tenant: u32,
        /// Epochs the tenant spent in SLO violation over its lifetime.
        violations: u64,
    },
    /// A tenant's p99 latency exceeded its SLO this epoch (emitted on the
    /// violation *onset*; consecutive violating epochs are counted in
    /// metrics, not re-emitted).
    SloViolation {
        /// Simulated time, ns.
        t: u64,
        /// Violating tenant.
        tenant: u32,
        /// The tenant's p99 latency this epoch, µs.
        p99_us: f64,
        /// The tenant's SLO bound, µs.
        slo_us: f64,
    },
    /// The flash scheduler dispatched a request past the barrier check.
    BarrierDispatch {
        /// Controller clock, µs.
        t: u64,
        /// Scheduling policy label (`baseline` / `p1` / `p2` / ...).
        policy: String,
        /// Request id.
        req: u64,
        /// `true` for migration-class requests.
        migrated: bool,
        /// `true` when the no-postponement barrier boosted a starved
        /// migration request to the front.
        boosted: bool,
    },
    /// Policy Two discarded a migration write aliased by a newer host
    /// write.
    BarrierDiscard {
        /// Controller clock, µs.
        t: u64,
        /// Scheduling policy label.
        policy: String,
        /// Discarded request id.
        req: u64,
    },
    /// The online model's windowed prediction-error statistic crossed its
    /// threshold for one device tier.
    DriftDetected {
        /// Simulated time, ns.
        t: u64,
        /// Affected device tier label (`nvdimm` / `ssd` / `hdd`).
        device: String,
        /// Page–Hinkley statistic at the crossing, µs.
        stat_us: f64,
        /// The configured drift threshold λ, µs.
        threshold_us: f64,
    },
    /// The staged buffer cache served a read without touching the device.
    CacheHit {
        /// Simulated time, ns.
        t: u64,
        /// Device kind label of the backing datastore.
        dev: String,
        /// Node the cache's datastore lives on.
        node: u32,
        /// The 4 KiB block served from cache.
        block: u64,
    },
    /// The staged buffer cache missed; the fill was charged to the device.
    CacheMiss {
        /// Simulated time, ns.
        t: u64,
        /// Device kind label of the backing datastore.
        dev: String,
        /// Node the cache's datastore lives on.
        node: u32,
        /// The missed 4 KiB block.
        block: u64,
        /// `true` when admitting the fill evicted a victim.
        evicted: bool,
    },
    /// The staged buffer cache evicted a block to admit a fill.
    CacheEvict {
        /// Simulated time, ns.
        t: u64,
        /// Device kind label of the backing datastore.
        dev: String,
        /// Node the cache's datastore lives on.
        node: u32,
        /// The evicted 4 KiB block.
        block: u64,
        /// `true` when the victim was dirty (a flash write-back was
        /// charged through the fault-gated device path).
        dirty: bool,
    },
    /// A migration-sweep access skipped the staged cache structurally.
    CacheBypass {
        /// Simulated time, ns.
        t: u64,
        /// Device kind label of the backing datastore.
        dev: String,
        /// Node the cache's datastore lives on.
        node: u32,
        /// The bypassed 4 KiB block.
        block: u64,
    },
    /// The online model installed a refit correction for one device tier.
    ModelRefit {
        /// Simulated time, ns.
        t: u64,
        /// Affected device tier label (`nvdimm` / `ssd` / `hdd`).
        device: String,
        /// Window samples the refit trained on.
        samples: u64,
        /// Mean absolute prediction error over the window before the
        /// refit, µs.
        err_before_us: f64,
        /// Mean absolute prediction error over the window after the
        /// refit, µs.
        err_after_us: f64,
    },
}

impl TraceEvent {
    /// Short kind label (`"IoSubmit"`, `"MigrationAbort"`, ...) for
    /// filtering and metrics keys.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::IoSubmit { .. } => "IoSubmit",
            TraceEvent::IoComplete { .. } => "IoComplete",
            TraceEvent::IoFault { .. } => "IoFault",
            TraceEvent::Retry { .. } => "Retry",
            TraceEvent::MirrorFallback { .. } => "MirrorFallback",
            TraceEvent::MigrationStart { .. } => "MigrationStart",
            TraceEvent::MigrationSuspend { .. } => "MigrationSuspend",
            TraceEvent::MigrationResume { .. } => "MigrationResume",
            TraceEvent::MigrationAbort { .. } => "MigrationAbort",
            TraceEvent::MigrationCutover { .. } => "MigrationCutover",
            TraceEvent::Placement { .. } => "Placement",
            TraceEvent::ImbalanceTrigger { .. } => "ImbalanceTrigger",
            TraceEvent::Evacuation { .. } => "Evacuation",
            TraceEvent::NetTransfer { .. } => "NetTransfer",
            TraceEvent::RemoteMigrationStart { .. } => "RemoteMigrationStart",
            TraceEvent::RemoteMigrationCutover { .. } => "RemoteMigrationCutover",
            TraceEvent::NodeCrash { .. } => "NodeCrash",
            TraceEvent::ReplayStart { .. } => "ReplayStart",
            TraceEvent::ReplayComplete { .. } => "ReplayComplete",
            TraceEvent::ScrubRepair { .. } => "ScrubRepair",
            TraceEvent::TenantAdmit { .. } => "TenantAdmit",
            TraceEvent::TenantRetire { .. } => "TenantRetire",
            TraceEvent::SloViolation { .. } => "SloViolation",
            TraceEvent::BarrierDispatch { .. } => "BarrierDispatch",
            TraceEvent::BarrierDiscard { .. } => "BarrierDiscard",
            TraceEvent::DriftDetected { .. } => "DriftDetected",
            TraceEvent::CacheHit { .. } => "CacheHit",
            TraceEvent::CacheMiss { .. } => "CacheMiss",
            TraceEvent::CacheEvict { .. } => "CacheEvict",
            TraceEvent::CacheBypass { .. } => "CacheBypass",
            TraceEvent::ModelRefit { .. } => "ModelRefit",
        }
    }
}
