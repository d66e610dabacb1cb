//! The background scrubber: a paced integrity tenant on the staged
//! datapath.
//!
//! Latent faults (media bit rot, injected by the node fault plan's
//! [`nvhsm_fault::LatentFault`] stream) silently corrupt device blocks; no
//! foreground request notices them. The scrubber walks every resident
//! VMDK's blocks at [`super::NodeConfig::scrub_rate`] blocks per second,
//! probing them through the same `route_request → service_block →
//! complete_request` stages as workload I/O — but as a migration-class
//! tenant, so Policy One/Two barrier scheduling treats scrub reads as
//! background traffic, and its latency interference on foreground I/O is a
//! measured output rather than a free flag.
//!
//! A probe that lands on a corrupt block triggers a repair: when the block
//! is routed to a migration destination and the source still holds a valid
//! replica (`!dirty`), the repair reads the mirror and rewrites the
//! destination (`mirror = true` in the [`TraceEvent::ScrubRepair`] event);
//! otherwise the device rewrites the block in place from its internal
//! redundancy. Scrub accounting (scanned/detected/repaired counters, the
//! `scrub_latency_us` histogram) is kept apart from workload stats by the
//! `datapath::Tenant` discriminator, so scrubbing never pollutes
//! availability or foreground latency percentiles.

use super::datapath::{route_request, BlockIo, IoOutcome, Tenant};
use nvhsm_device::{IoOp, IoRequest};
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::{SimDuration, SimTime};
use nvhsm_workload::{GenOp, GenRequest};

use super::NodeSim;

/// Blocks probed per scrub tick.
const SCRUB_BATCH: u32 = 8;

/// Time between scrub ticks at `rate` blocks per second: one batch every
/// `SCRUB_BATCH / rate` seconds.
pub(super) fn scrub_interval(rate: u64) -> SimDuration {
    SimDuration::from_ns((SCRUB_BATCH as u64).saturating_mul(1_000_000_000) / rate.max(1))
}

impl NodeSim {
    /// Materializes every latent fault due by now into the per-datastore
    /// corrupt-block sets. Latents are silent until a scrub probe visits
    /// them, so lazily advancing the cursors at each tick is exact.
    fn inject_latents(&mut self) {
        let Some(plan) = &self.cfg.node_faults else {
            return;
        };
        let now = self.now;
        for node in 0..self.nodes {
            let latents = plan.node(node).latents();
            let cursor = &mut self.latent_cursor[node];
            while let Some(l) = latents.get(*cursor) {
                if l.at > now {
                    break;
                }
                *cursor += 1;
                let ds = node * 3 + (l.slot as usize).min(2);
                if let Some(store) = self.datastores.get(ds) {
                    let cap = store.capacity_blocks();
                    if cap > 0 {
                        let block = ((l.frac * cap as f64) as u64).min(cap - 1);
                        self.corrupt[ds].insert(block);
                    }
                }
            }
        }
    }

    /// One scrub tick: probe up to `SCRUB_BATCH` blocks, round-robin
    /// across resident workloads with a per-workload offset cursor.
    /// Workloads on dark (crashed) nodes are skipped — a powered-off
    /// device can be neither scanned nor repaired.
    pub(crate) fn scrub_tick(&mut self) {
        self.inject_latents();
        let n = self.workloads.len();
        if n == 0 {
            return;
        }
        if self.scrub_offsets.len() < n {
            self.scrub_offsets.resize(n, 0);
        }
        for _ in 0..SCRUB_BATCH {
            let wi = self.scrub_ws % n;
            self.scrub_ws = self.scrub_ws.wrapping_add(1);
            self.scrub_probe(wi);
        }
    }

    /// Probes one block of workload `wi` through the staged datapath and
    /// repairs it if it turned out latent-corrupt.
    fn scrub_probe(&mut self, wi: usize) {
        let vmdk = self.workloads[wi].vmdk.id();
        let size = self.workloads[wi].vmdk.size_blocks();
        let home_ds = self.workloads[wi].ds;
        let home_node = self.workloads[wi].home_node;
        if size == 0 {
            return;
        }
        let offset = self.scrub_offsets[wi] % size;
        self.scrub_offsets[wi] = (offset + 1) % size;

        let route = route_request(home_ds, vmdk, IoOp::Read, offset, &self.migrations);
        let target_node = self.datastores[route.target_ds].node();
        if self.crashed[target_node] || self.crashed[home_node] {
            return;
        }
        let Some(block) = self.datastores[route.target_ds].translate(vmdk, offset) else {
            return;
        };
        let stream = 3_000_000 + vmdk.0;
        let io = BlockIo {
            stream,
            block,
            size_blocks: 1,
            op: IoOp::Read,
            migrated: true,
            no_admit: false,
        };
        let probe = GenRequest {
            offset,
            size_blocks: 1,
            op: GenOp::Read,
        };
        let arrival = self.now;
        let outcome = match self.service_block(route.target_ds, io, arrival, home_node) {
            Ok(completion) => IoOutcome::Served {
                ds: route.target_ds,
                completion,
                via_fallback: false,
            },
            Err(error) => IoOutcome::Failed { error },
        };
        let served_at = match &outcome {
            IoOutcome::Served { completion, .. } => Some(completion.done),
            _ => None,
        };
        self.complete_request(Tenant::Scrub, &probe, home_node, &route, outcome);
        let Some(done) = served_at else {
            return;
        };
        if self.corrupt[route.target_ds].remove(&block) {
            self.scrub_detected += 1;
            self.scrub_repair(wi, route.target_ds, offset, block, stream, done);
        }
    }

    /// Repairs one detected-corrupt block. Preference order: re-copy from
    /// the migration mirror when the probe was served by a migration
    /// destination whose source still holds a valid replica, else rewrite
    /// in place from device-internal redundancy. A failed repair write
    /// leaves the block corrupt for a later pass.
    fn scrub_repair(
        &mut self,
        wi: usize,
        target_ds: usize,
        offset: u64,
        block: u64,
        stream: u32,
        at: SimTime,
    ) {
        let vmdk = self.workloads[wi].vmdk.id();
        // Mirror repair: valid source replica exists iff the probe hit the
        // destination of a migration and the block is not dirty (a dirty
        // block's only good copy is the destination itself).
        let mirror_src = self
            .migrations
            .iter()
            .find(|m| m.active.vmdk == vmdk && m.active.dst.0 == target_ds)
            .filter(|m| !(offset < m.active.dirty.len() && m.active.dirty.get(offset)))
            .map(|m| m.active.src.0);
        let write_at = match mirror_src {
            Some(src) => {
                let Some(src_block) = self.datastores[src].translate(vmdk, offset) else {
                    return;
                };
                let read = IoRequest::migrated(stream, src_block, 1, IoOp::Read, at);
                match self.datastores[src].device_mut().try_submit(&read) {
                    Ok(r) => {
                        let src_node = self.datastores[src].node();
                        let dst_node = self.datastores[target_ds].node();
                        self.net_transfer(src_node, dst_node, 4096, r.done)
                    }
                    Err(_) => return,
                }
            }
            None => at,
        };
        let write = IoRequest::migrated(stream, block, 1, IoOp::Write, write_at);
        if self.datastores[target_ds]
            .device_mut()
            .try_submit(&write)
            .is_err()
        {
            // Leave the block corrupt; a later scrub pass retries.
            self.corrupt[target_ds].insert(block);
            return;
        }
        self.scrub_repaired += 1;
        let t = self.now.as_ns();
        let mirror = mirror_src.is_some();
        emit(&self.trace, || TraceEvent::ScrubRepair {
            t,
            dev: self.datastores[target_ds].device().kind().to_string(),
            node: self.datastores[target_ds].node() as u32,
            vmdk: vmdk.0,
            mirror,
        });
        self.with_metrics(target_ds, |m, dev, node| {
            m.counter_inc("scrub_repairs", dev, node)
        });
    }
}
