//! Whole-node crash and durable-state recovery.
//!
//! Each node owns a simulated durable state set — the migration journal
//! (per-VMDK location bitmap + copy cursor, the paper's §5.2 NVDIMM-held
//! bitmap), the placement table and per-VMDK residency — refreshed by
//! `NodeSim::persist_durable` at every epoch boundary and migration
//! start. The split between durable and volatile state follows write-ahead
//! semantics: dirty-bit tracking and stale-write invalidations are
//! synchronous durable updates (applied by the datapath as the writes
//! land), while background-copy progress is only checkpointed lazily — see
//! [`crate::migration::ActiveMigration::crash_restore`] for the exact
//! restore rule that keeps `blocks_lost == 0` structural.
//!
//! A [`nvhsm_fault::NodeFaultPlan`] outage maps to two events processed by
//! the engine's wake-up loop:
//!
//! * **crash** (outage start) — the node goes dark, every migration
//!   touching it suspends, and migrations whose destination lives on the
//!   node immediately lose their volatile copy progress (restored from the
//!   journal, conservatively);
//! * **recover** (outage end) — power returns, the node replays its
//!   journal (`NodeCrash → ReplayStart → MigrationResume`/`MigrationAbort`
//!   `→ ReplayComplete` in the trace), and suspended migrations whose
//!   endpoints are all healthy again are resumed or rolled back per the
//!   configured [`RecoveryPolicy`].
//!
//! Replay costs simulated time — a fixed base plus a per-byte charge for
//! re-reading the journaled bitmaps — so recovery time is a measurable
//! output, not an instant flag flip.

use super::NodeSim;
use crate::migration::Bitmap;
use nvhsm_fault::NodeFaultPlan;
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What replay does with a journaled migration once every endpoint is
/// healthy again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Resume from the journaled bitmap: blocks already at the destination
    /// stay valid on persistent media, the copier continues from the
    /// restored cursor.
    Resume,
    /// Roll the migration back: dirty blocks are written back to the
    /// source and the destination placement is discarded.
    Abort,
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryPolicy::Resume => write!(f, "resume"),
            RecoveryPolicy::Abort => write!(f, "abort"),
        }
    }
}

/// One journaled migration checkpoint: the durable snapshot of the §5.2
/// location bitmap plus the background-copy cursor.
#[derive(Debug, Clone)]
pub(crate) struct JournalEntry {
    pub(crate) bitmap: Bitmap,
    pub(crate) cursor: u64,
}

/// The simulated durable state of one node. Everything here survives a
/// power loss; everything *not* here (in-flight copy progress since the
/// last persist, queued requests) is volatile and lost at the crash
/// instant.
#[derive(Debug, Clone, Default)]
pub(crate) struct DurableNodeState {
    /// Migration journal keyed by VMDK id: the last checkpoint of every
    /// migration whose destination datastore lives on this node.
    pub(crate) journal: BTreeMap<u32, JournalEntry>,
    /// Durable placement table: `(vmdk, datastore)` residency pairs on
    /// this node at the last persist. Device extents live on persistent
    /// media, so replay audits rather than rebuilds this table.
    pub(crate) placements: Vec<(u32, usize)>,
    /// When the state was last persisted.
    pub(crate) persisted_at: SimTime,
}

/// Kind of one node power event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeEventKind {
    /// Power lost.
    Crash,
    /// Power restored; the outage began at `since`.
    Recover {
        /// Outage start — the crash instant recovery time is measured from.
        since: SimTime,
    },
}

/// One node power event, precomputed from the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeEvent {
    pub(crate) at: SimTime,
    pub(crate) node: usize,
    pub(crate) kind: NodeEventKind,
}

/// Flattens a node fault plan into a time-ordered event stream. Ties are
/// broken by node index, with crashes before recoveries so that a
/// back-to-back outage (`[a, b)` then `[b, c)`) reads as one continuous
/// dark period.
pub(crate) fn node_events_from(plan: &NodeFaultPlan, nodes: usize) -> Vec<NodeEvent> {
    let mut events = Vec::new();
    for node in 0..nodes {
        for &(from, until) in plan.node(node).outages() {
            events.push(NodeEvent {
                at: from,
                node,
                kind: NodeEventKind::Crash,
            });
            events.push(NodeEvent {
                at: until,
                node,
                kind: NodeEventKind::Recover { since: from },
            });
        }
    }
    events.sort_by_key(|e| {
        (
            e.at,
            matches!(e.kind, NodeEventKind::Recover { .. }) as u8,
            e.node,
        )
    });
    events
}

/// Fixed base cost of a replay pass (journal open, table walk).
const REPLAY_BASE: SimDuration = SimDuration::from_us(10);

impl NodeSim {
    /// The next pending node power event, if any.
    pub(crate) fn next_node_event(&self) -> Option<SimTime> {
        self.node_events.get(self.node_event_cursor).map(|e| e.at)
    }

    /// Processes every node power event due at the current instant.
    pub(crate) fn process_node_events(&mut self) {
        while let Some(ev) = self.node_events.get(self.node_event_cursor).copied() {
            if ev.at > self.now {
                break;
            }
            self.node_event_cursor += 1;
            match ev.kind {
                NodeEventKind::Crash => self.crash_node(ev.node),
                NodeEventKind::Recover { since } => self.recover_node(ev.node, since),
            }
        }
    }

    /// Checkpoints every node's durable state: residency/placement tables
    /// plus one journal entry per unsuspended migration, keyed to the
    /// node holding the migration's destination (where the §5.2 bitmap
    /// lives). Called at epoch boundaries and migration starts; a no-op
    /// without a node fault plan so fault-free runs stay byte-identical.
    pub(crate) fn persist_durable(&mut self) {
        if self.node_events.is_empty() {
            return;
        }
        let now = self.now;
        for d in &mut self.durable {
            d.placements.clear();
            d.persisted_at = now;
        }
        for (i, ds) in self.datastores.iter().enumerate() {
            let node = ds.node();
            let durable = &mut self.durable[node];
            for vmdk in ds.residents() {
                durable.placements.push((vmdk.0, i));
            }
        }
        for mi in 0..self.migrations.len() {
            let dst = self.migrations[mi].active.dst.0;
            let Some(node) = self.datastores.get(dst).map(|d| d.node()) else {
                continue;
            };
            if self.crashed[node] {
                continue; // a dark node cannot persist
            }
            let a = &self.migrations[mi].active;
            self.durable[node].journal.insert(
                a.vmdk.0,
                JournalEntry {
                    bitmap: a.bitmap.clone(),
                    cursor: a.cursor,
                },
            );
        }
    }

    /// Drops `vmdk`'s journal entries everywhere (migration finished or
    /// rolled back — there is nothing left to replay).
    pub(crate) fn journal_remove(&mut self, vmdk: u32) {
        for d in &mut self.durable {
            d.journal.remove(&vmdk);
        }
    }

    /// Power loss on `node`: mark it dark, suspend every migration
    /// touching it, and rebuild the location map of migrations whose
    /// destination (and therefore volatile copy state) lived on the node
    /// from the journaled checkpoint.
    fn crash_node(&mut self, node: usize) {
        self.crashed[node] = true;
        self.node_crashes += 1;
        let now = self.now;
        let mut suspended = 0u32;
        for mi in 0..self.migrations.len() {
            let (src, dst) = (
                self.migrations[mi].active.src.0,
                self.migrations[mi].active.dst.0,
            );
            let src_node = self.datastores[src].node();
            let dst_node = self.datastores[dst].node();
            if src_node != node && dst_node != node {
                continue;
            }
            if !self.migrations[mi].active.suspended() {
                self.suspend_migration(mi, now);
                suspended += 1;
            }
            if dst_node == node {
                // Volatile copy progress is gone with the power; restore
                // the bitmap conservatively from the durable journal.
                let vmdk = self.migrations[mi].active.vmdk.0;
                let entry = self.durable[node]
                    .journal
                    .get(&vmdk)
                    .map(|e| (e.bitmap.clone(), e.cursor));
                self.migrations[mi]
                    .active
                    .crash_restore(entry.as_ref().map(|(b, c)| (b, *c)));
            }
        }
        emit(&self.trace, || TraceEvent::NodeCrash {
            t: now.as_ns(),
            node: node as u32,
            suspended,
        });
        if let Some(m) = &mut self.metrics {
            m.counter_inc("node_crashes", "", node as u32);
        }
    }

    /// Power restored on `node`: replay the journal, then resume or roll
    /// back suspended migrations touching the node per the recovery
    /// policy — but only those whose every endpoint is healthy again; the
    /// rest stay parked for the epoch-boundary fault manager.
    fn recover_node(&mut self, node: usize, since: SimTime) {
        self.crashed[node] = false;
        let t = self.now;
        let journaled = self.durable[node].journal.len() as u32;
        emit(&self.trace, || TraceEvent::ReplayStart {
            t: t.as_ns(),
            node: node as u32,
            journaled,
        });
        // Replay walks every journaled bitmap once: a fixed base plus one
        // nanosecond per journaled byte.
        let journal_bytes: u64 = self.durable[node]
            .journal
            .values()
            .map(|e| e.bitmap.footprint_bytes())
            .sum();
        let done = t + REPLAY_BASE + SimDuration::from_ns(journal_bytes);

        let (mut resumed, mut aborted) = (0u32, 0u32);
        let policy = self.cfg.recovery;
        let mut i = 0;
        while i < self.migrations.len() {
            let a = &self.migrations[i].active;
            if !a.suspended() {
                i += 1;
                continue;
            }
            let (src, dst) = (a.src.0, a.dst.0);
            let (src_node, dst_node) = (self.datastores[src].node(), self.datastores[dst].node());
            if src_node != node && dst_node != node {
                i += 1;
                continue;
            }
            let endpoint_down = self.crashed[src_node]
                || self.crashed[dst_node]
                || self.effective_faults.as_ref().is_some_and(|p| {
                    p.device(src).offline_at(done) || p.device(dst).offline_at(done)
                });
            if endpoint_down {
                i += 1; // the other endpoint is still dark: keep waiting
                continue;
            }
            match policy {
                RecoveryPolicy::Resume => {
                    let m = &mut self.migrations[i];
                    m.active.resume();
                    m.next_copy_at = done;
                    self.migrations_resumed += 1;
                    resumed += 1;
                    let (vmdk, remaining) = (m.active.vmdk.0, m.active.remaining_blocks());
                    emit(&self.trace, || TraceEvent::MigrationResume {
                        t: done.as_ns(),
                        vmdk,
                        remaining,
                    });
                    self.with_metrics(dst, |m, dev, n| m.counter_inc("migrations_resumed", dev, n));
                    i += 1;
                }
                RecoveryPolicy::Abort => {
                    aborted += 1;
                    self.abort_migration(i); // removes the entry; don't advance
                }
            }
        }
        self.replays += 1;
        self.recovery_time += done.saturating_since(since);
        emit(&self.trace, || TraceEvent::ReplayComplete {
            t: done.as_ns(),
            node: node as u32,
            resumed,
            aborted,
        });
        if let Some(m) = &mut self.metrics {
            m.counter_inc("replays", "", node as u32);
            m.observe(
                "recovery_ms",
                "",
                node as u32,
                done.saturating_since(since).as_ms_f64(),
            );
        }
    }
}
