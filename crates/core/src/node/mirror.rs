//! The mirror/migration hooks of the pipeline: background copy rounds,
//! cutover, suspend/resume-from-bitmap, and abort-with-rollback.
//!
//! Migration traffic rides the same mechanisms as workload I/O — copy
//! rounds submit `migrated`-class requests to the devices and move their
//! payloads across the interconnect through `NodeSim::net_transfer` —
//! but is driven by the copy scheduler (duty-cycled for mirror mode,
//! cost/benefit-gated for lazy mode, see [`super::epoch`]) rather than by
//! workload generators. The shared [`crate::migration::ActiveMigration`]
//! state machine keeps the bitmap/dirty bits the routing stage
//! ([`super::datapath`]) consults.

use super::{MigrationRun, NodeSim};
use crate::manager::{DeviceHealth, MigrationDecision};
use crate::migration::{ActiveMigration, MigrationMode};
use nvhsm_device::{IoOp, IoRequest};
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::{SimDuration, SimTime};
use std::sync::Arc;

use super::report::MigrationEvent;

/// Blocks in flight per background-copy round.
const MIGRATION_BATCH: u32 = 64;

impl NodeSim {
    /// Suspends migration `mi` at `at`, emitting the suspend event exactly
    /// once per suspension (repeat calls while already suspended keep the
    /// original timestamp and stay silent).
    pub(crate) fn suspend_migration(&mut self, mi: usize, at: SimTime) {
        let was_suspended = self.migrations[mi].active.suspended();
        self.migrations[mi].active.suspend(at);
        if !was_suspended {
            let (vmdk, copied) = (
                self.migrations[mi].active.vmdk.0,
                self.migrations[mi].active.copied_blocks,
            );
            emit(&self.trace, || TraceEvent::MigrationSuspend {
                t: at.as_ns(),
                vmdk,
                copied,
            });
        }
    }

    /// One background-copy round of migration `mi`: up to
    /// `MIGRATION_BATCH` blocks read from the source, moved across the
    /// interconnect (when the endpoints straddle nodes) and written to the
    /// destination. An offline endpoint parks the migration; its bitmap
    /// survives for a later resume.
    pub(crate) fn copy_round(&mut self, mi: usize) {
        let m = &mut self.migrations[mi];
        let src = m.active.src.0;
        let dst = m.active.dst.0;
        let vmdk = m.active.vmdk;
        let stream = 1_000_000 + vmdk.0;
        let mut batch = Vec::with_capacity(MIGRATION_BATCH as usize);
        for _ in 0..MIGRATION_BATCH {
            match m.active.next_copy_block() {
                Some(b) => batch.push(b),
                None => break,
            }
        }
        if batch.is_empty() {
            self.finish_migration(mi);
            return;
        }
        let src_node = self.datastores[src].node();
        let dst_node = self.datastores[dst].node();
        let cross_node = src_node != dst_node;
        let mut round_done = self.now;
        let mut round_blocks = 0u32;
        for offset in batch {
            let Some(src_block) = self.datastores[src].translate(vmdk, offset) else {
                continue;
            };
            // A migrated-class read: with the §5.3.2 bypass on, the
            // NVDIMM's cache serves resident blocks without touching its
            // contents; with it off, the sweep churns the cache — the
            // eviction storm of Fig. 15.
            let read = IoRequest::migrated(stream, src_block, 1, IoOp::Read, self.now);
            let read_done = match self.datastores[src].device_mut().try_submit(&read) {
                Ok(c) => c.done,
                Err(e) => {
                    self.io_errors += 1;
                    self.with_metrics(src, |m, dev, node| m.counter_inc("io_errors", dev, node));
                    if !e.is_retryable() {
                        // Source offline: park the migration; its bitmap
                        // survives for a later resume.
                        self.suspend_migration(mi, e.at());
                        break;
                    }
                    continue; // bit stays clear; a later round re-copies it
                }
            };
            self.cache_tap(src, src_block, self.now);
            let write_at = self.net_transfer(src_node, dst_node, 4096, read_done);
            let Some(dst_block) = self.datastores[dst].translate(vmdk, offset) else {
                continue;
            };
            let write = IoRequest::migrated(stream, dst_block, 1, IoOp::Write, write_at);
            let w = match self.datastores[dst].device_mut().try_submit(&write) {
                Ok(c) => c,
                Err(e) => {
                    self.io_errors += 1;
                    self.with_metrics(dst, |m, dev, node| m.counter_inc("io_errors", dev, node));
                    if !e.is_retryable() {
                        self.suspend_migration(mi, e.at());
                        break;
                    }
                    continue;
                }
            };
            round_done = round_done.max(w.done);
            self.migrations[mi].active.record_copied(offset);
            self.copied_blocks += 1;
            round_blocks += 1;
        }
        if cross_node && round_blocks > 0 {
            self.migrations[mi].active.net_blocks += round_blocks as u64;
            let t = self.now.as_ns();
            emit(&self.trace, || TraceEvent::NetTransfer {
                t,
                src_node: src_node as u32,
                dst_node: dst_node as u32,
                bytes: round_blocks as u64 * 4096,
                blocks: round_blocks,
            });
        }
        self.migration_busy += round_done.saturating_since(self.now);
        if self.migrations[mi].active.suspended() {
            return; // the epoch manager decides between resume and abort
        }
        if self.migrations[mi].active.complete() {
            self.finish_migration(mi);
        } else {
            let m = &mut self.migrations[mi];
            let round = round_done.saturating_since(self.now);
            m.next_copy_at = match m.active.mode {
                // Mirror mode (LightSRM) trickles the background copy at a
                // 25% duty cycle — redirection already serves the hot data,
                // so the disk moves leisurely.
                MigrationMode::Mirror => round_done + round * 3,
                _ => round_done.max(self.now + SimDuration::from_us(100)),
            };
        }
    }

    /// Cutover: the destination becomes the VMDK's home, the source copy
    /// is released, and the balance detector cools down so the copy's own
    /// interference never triggers a counter-move.
    pub(crate) fn finish_migration(&mut self, mi: usize) {
        let m = self.migrations.remove(mi);
        // Let the system re-equilibrate before judging balance again.
        self.decision_cooldown_until = self.now + self.cfg.epoch * 3;
        let vmdk = m.active.vmdk;
        let src = m.active.src.0;
        let dst = m.active.dst.0;
        self.migration_wall += self.now.saturating_since(m.active.started);
        self.migrations_completed += 1;
        self.mirrored_blocks += m.active.mirrored_blocks;
        emit(&self.trace, || TraceEvent::MigrationCutover {
            t: self.now.as_ns(),
            vmdk: vmdk.0,
            copied: m.active.copied_blocks,
            mirrored: m.active.mirrored_blocks,
            stale: m.active.invalidated_blocks,
        });
        let (src_node, dst_node) = (self.datastores[src].node(), self.datastores[dst].node());
        if src_node != dst_node {
            emit(&self.trace, || TraceEvent::RemoteMigrationCutover {
                t: self.now.as_ns(),
                vmdk: vmdk.0,
                src_node: src_node as u32,
                dst_node: dst_node as u32,
                net_bytes: m.active.net_blocks * 4096,
            });
        }
        self.with_metrics(dst, |m, dev, node| {
            m.counter_inc("migrations_completed", dev, node)
        });
        if self.datastores[src].hosts(vmdk) {
            self.datastores[src].remove(vmdk);
        }
        for w in &mut self.workloads {
            if w.vmdk.id() == vmdk {
                w.ds = dst;
            }
        }
        // Nothing left to replay for this migration.
        self.journal_remove(vmdk.0);
    }

    /// Starts a migration immediately, bypassing the manager's decision
    /// loop. The manager calls this internally; tests and harnesses use it
    /// to force a specific migration into a known window (e.g. a scheduled
    /// device outage). A no-op when the VMDK is already migrating.
    pub fn start_migration(&mut self, decision: MigrationDecision) {
        if decision.src.0 >= self.datastores.len() || decision.dst.0 >= self.datastores.len() {
            return; // harness passed a datastore that does not exist
        }
        if self
            .migrations
            .iter()
            .any(|m| m.active.vmdk == decision.vmdk)
        {
            return; // already on the move
        }
        let dst = decision.dst.0;
        let Some(w) = self.workloads.iter().find(|w| w.vmdk.id() == decision.vmdk) else {
            return;
        };
        let blocks = w.vmdk.size_blocks();
        if self.datastores[dst].place(decision.vmdk, blocks).is_none() {
            return;
        }
        self.migrations_started += 1;
        Arc::make_mut(&mut self.migration_log).push(MigrationEvent {
            started: self.now,
            vmdk: decision.vmdk,
            src: decision.src.0,
            dst,
            mode: decision.mode,
        });
        emit(&self.trace, || TraceEvent::MigrationStart {
            t: self.now.as_ns(),
            vmdk: decision.vmdk.0,
            src: self.datastores[decision.src.0].device().kind().to_string(),
            dst: self.datastores[dst].device().kind().to_string(),
            mode: format!("{:?}", decision.mode),
            blocks,
        });
        let src_node = self.datastores[decision.src.0].node();
        let dst_node = self.datastores[dst].node();
        if src_node != dst_node {
            self.remote_migrations += 1;
            emit(&self.trace, || TraceEvent::RemoteMigrationStart {
                t: self.now.as_ns(),
                vmdk: decision.vmdk.0,
                src_node: src_node as u32,
                dst_node: dst_node as u32,
                blocks,
            });
            self.with_metrics(dst, |m, dev, node| {
                m.counter_inc("remote_migrations", dev, node)
            });
        }
        self.with_metrics(dst, |m, dev, node| {
            m.counter_inc("migrations_started", dev, node)
        });
        let mut active = ActiveMigration::new(
            decision.vmdk,
            decision.src,
            decision.dst,
            decision.mode,
            blocks,
            self.now,
        );
        if decision.mode == MigrationMode::FullCopy {
            active.copy_enabled = true;
        }
        self.migrations.push(MigrationRun {
            active,
            next_copy_at: self.now,
        });
        // Journal the fresh migration before any copy round runs: a crash
        // before the first checkpoint must still find the empty bitmap.
        self.persist_durable();
    }

    /// Aborts a suspended migration: dirty blocks (whose only current copy
    /// is at the destination) are written back to the source, the
    /// destination placement is discarded, and the source stays
    /// authoritative. Callers must ensure both endpoints are reachable.
    pub(crate) fn abort_migration(&mut self, mi: usize) {
        let m = self.migrations.remove(mi);
        let vmdk = m.active.vmdk;
        let src = m.active.src.0;
        let dst = m.active.dst.0;
        self.migration_wall += self.now.saturating_since(m.active.started);
        self.migrations_aborted += 1;
        self.mirrored_blocks += m.active.mirrored_blocks;
        let stream = 2_000_000 + vmdk.0;
        let mut at = self.now;
        let mut rolled_back = 0u64;
        for offset in m.active.dirty_blocks() {
            let (Some(src_block), Some(dst_block)) = (
                self.datastores[src].translate(vmdk, offset),
                self.datastores[dst].translate(vmdk, offset),
            ) else {
                self.blocks_lost += 1;
                continue;
            };
            let read = IoRequest::migrated(stream, dst_block, 1, IoOp::Read, at);
            let write_back = self.submit_generous(dst, read).and_then(|r| {
                let write = IoRequest::migrated(stream, src_block, 1, IoOp::Write, r.done);
                self.submit_generous(src, write)
            });
            match write_back {
                Some(w) => {
                    at = w.done;
                    rolled_back += 1;
                }
                None => self.blocks_lost += 1,
            }
        }
        if self.datastores[dst].hosts(vmdk) {
            self.datastores[dst].remove(vmdk);
        }
        emit(&self.trace, || TraceEvent::MigrationAbort {
            t: self.now.as_ns(),
            vmdk: vmdk.0,
            rolled_back,
        });
        self.with_metrics(dst, |m, dev, node| {
            m.counter_inc("migrations_aborted", dev, node);
            m.counter_add("rolled_back_blocks", dev, node, rolled_back);
        });
        // The rolled-back copy was real interference; cool down as after a
        // completed migration.
        self.decision_cooldown_until = self.now + self.cfg.epoch * 3;
        self.journal_remove(vmdk.0);
    }

    /// Epoch-boundary fault handling: suspend migrations with an offline
    /// endpoint; once both endpoints are back, resume from the bitmap if
    /// the outage was short, abort and roll back if it overstayed
    /// [`super::NodeConfig::abort_grace`].
    pub(crate) fn manage_faults(&mut self) {
        if self.effective_faults.is_none() {
            return;
        }
        let health: Vec<DeviceHealth> = (0..self.datastores.len())
            .map(|i| self.store_health(i))
            .collect();
        let now = self.now;
        for mi in 0..self.migrations.len() {
            let endpoint_down = health[self.migrations[mi].active.src.0] == DeviceHealth::Offline
                || health[self.migrations[mi].active.dst.0] == DeviceHealth::Offline;
            if endpoint_down && !self.migrations[mi].active.suspended() {
                self.suspend_migration(mi, now);
            }
        }
        let mut i = 0;
        while i < self.migrations.len() {
            let (src, dst, since) = {
                let a = &self.migrations[i].active;
                match a.suspended_at {
                    Some(t) => (a.src.0, a.dst.0, t),
                    None => {
                        i += 1;
                        continue;
                    }
                }
            };
            if health[src] == DeviceHealth::Offline || health[dst] == DeviceHealth::Offline {
                i += 1; // still down: keep waiting (blocks are safe, just dark)
                continue;
            }
            if self.now.saturating_since(since) <= self.cfg.abort_grace {
                let t_ns = self.now.as_ns();
                let m = &mut self.migrations[i];
                m.active.resume();
                m.next_copy_at = self.now;
                self.migrations_resumed += 1;
                let (vmdk, remaining) = (m.active.vmdk.0, m.active.remaining_blocks());
                emit(&self.trace, || TraceEvent::MigrationResume {
                    t: t_ns,
                    vmdk,
                    remaining,
                });
                self.with_metrics(dst, |m, dev, node| {
                    m.counter_inc("migrations_resumed", dev, node)
                });
                i += 1;
            } else {
                self.abort_migration(i); // removes the entry; don't advance
            }
        }
    }
}
