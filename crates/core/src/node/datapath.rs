//! The staged data path shared by the local and cross-node I/O paths.
//!
//! Every workload request flows through the same explicit stages,
//! regardless of whether its datastore sits on the workload's home node or
//! behind the interconnect:
//!
//! 1. **Routing** (`route_request`) — a pure function from the request
//!    (op, offset) and the migration table to a `Route`: which datastore
//!    serves the request, and which bitmap bookkeeping a success must
//!    apply. During a mirror/lazy migration writes go to the destination
//!    and reads follow the bitmap; suspended migrations pin traffic to the
//!    source.
//! 2. **Translate** — VMDK offset → physical block on the routed
//!    datastore. A miss drops the request ([`IoOutcome::Dropped`]).
//! 3. **Service** (`NodeSim::service_block`) — the NIC pre-hop for
//!    writes, the device submission behind the fault gate with
//!    retry/backoff ([`super::retry`]), the NIC post-hop for reads, and
//!    the *single* latency-accounting stage: end-to-end latency is the
//!    device service time of the final attempt plus the wire hops, folded
//!    in additively. Same-node hops are zero, so the local path is the
//!    degenerate case of the same arithmetic.
//! 4. **Fallback** — a destination failure during a mirror/lazy migration
//!    suspends the migration and re-drives stages 2–3 against the source
//!    replica ([`IoOutcome::Served`] with `via_fallback`).
//! 5. **Completion** (`NodeSim::complete_request`) — accounting
//!    (latency stats, histograms, backpressure), mirror/stale bitmap
//!    bookkeeping, and the observability taps.
//!
//! `NodeSim::serve_workload` is the thin driver that strings the stages
//! together; the cluster path reuses it unchanged because node boundaries
//! only enter through the hop times of stage 3.

use super::{MigrationRun, NodeSim};
use crate::migration::MigrationMode;
use crate::vmdk::VmdkId;
use nvhsm_device::{DeviceKind, IoCompletion, IoError, IoOp, IoRequest};
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::{SimDuration, SimTime};
use nvhsm_workload::{GenOp, GenRequest};

/// Closed-loop backpressure threshold: a request slower than this stalls
/// its workload until completion.
const BACKPRESSURE: SimDuration = SimDuration::from_ms(20);

/// Routing decision for one workload request (the admission & routing
/// stage): which datastore serves it, and which migration bookkeeping the
/// completion stage must apply once the I/O succeeds. The flags carry the
/// migration index themselves, so bookkeeping can never consult a
/// different migration than the one that routed the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    /// Datastore the request is sent to.
    pub(crate) target_ds: usize,
    /// The non-full-copy migration of this VMDK, if one is in flight
    /// (drives the suspend-on-destination-failure check).
    pub(crate) migration: Option<usize>,
    /// A successful write must set the written bitmap bits (mirrored
    /// write to the migration destination).
    pub(crate) mirror_route: Option<usize>,
    /// A successful write must clear the written bitmap bits (write to
    /// the source while the migration is suspended).
    pub(crate) stale_write: Option<usize>,
    /// Source datastore still holding a valid copy: destination failures
    /// fall back here.
    pub(crate) fallback_src: Option<usize>,
}

/// Routes one request of `vmdk` (whose authoritative datastore is
/// `home_ds`) against the migration table. Pure: reads the bitmap/dirty
/// state but mutates nothing, so the routing rules are unit-testable in
/// isolation.
pub(crate) fn route_request(
    home_ds: usize,
    vmdk: VmdkId,
    op: IoOp,
    offset: u64,
    migrations: &[MigrationRun],
) -> Route {
    let mut route = Route {
        target_ds: home_ds,
        migration: None,
        mirror_route: None,
        stale_write: None,
        fallback_src: None,
    };
    let mig = migrations
        .iter()
        .position(|m| m.active.vmdk == vmdk && m.active.mode != MigrationMode::FullCopy);
    route.migration = mig;
    if let Some(mi) = mig {
        let m = &migrations[mi].active;
        let at_dst = offset < m.bitmap.len() && m.bitmap.get(offset);
        let dirty = offset < m.dirty.len() && m.dirty.get(offset);
        if m.suspended() {
            // The destination is (or was just) unreachable: the source
            // copy is authoritative for everything it still holds.
            match op {
                IoOp::Write => {
                    route.target_ds = m.src.0;
                    route.stale_write = Some(mi);
                }
                IoOp::Read => {
                    // Only dirty blocks live solely at the destination;
                    // copied blocks still have a valid source replica.
                    route.target_ds = if dirty { m.dst.0 } else { m.src.0 };
                }
            }
        } else {
            match op {
                IoOp::Write => {
                    route.target_ds = m.dst.0;
                    route.mirror_route = Some(mi);
                    route.fallback_src = Some(m.src.0);
                }
                IoOp::Read => {
                    route.target_ds = if at_dst { m.dst.0 } else { m.src.0 };
                    if at_dst && !dirty {
                        route.fallback_src = Some(m.src.0);
                    }
                }
            }
        }
    }
    route
}

/// What became of one workload request after it traversed the pipeline.
#[derive(Debug, Clone, Copy)]
pub enum IoOutcome {
    /// The request completed, on the routed datastore or (during a
    /// migration whose destination failed) on the source replica.
    Served {
        /// Datastore that actually served the request.
        ds: usize,
        /// Device completion with end-to-end latency (wire hops included).
        completion: IoCompletion,
        /// The routed datastore failed and the source replica served the
        /// request instead.
        via_fallback: bool,
    },
    /// The request failed after exhausting retries and fallbacks.
    Failed {
        /// The final device error.
        error: IoError,
    },
    /// The routed datastore has no mapping for the block (defensive; the
    /// request is dropped without touching a device).
    Dropped,
}

/// The device-addressed form of one request: what is left after routing
/// picked the datastore and translation resolved the physical block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockIo {
    pub(crate) stream: u32,
    pub(crate) block: u64,
    pub(crate) size_blocks: u32,
    pub(crate) op: IoOp,
    /// Submit with the migration access class: background tenants (the
    /// scrubber) are scheduled behind foreground I/O by Policy One/Two.
    pub(crate) migrated: bool,
    /// Carry the no-admit hint (a read of a classifier-cold VMDK, see
    /// [`super::cache`]).
    pub(crate) no_admit: bool,
}

/// Who a completed request belongs to — the completion stage keeps
/// workload accounting (latency stats, availability, backpressure) apart
/// from background-tenant accounting (scrub progress and interference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tenant {
    /// A foreground workload request, by workload index.
    Workload(usize),
    /// A background scrub probe.
    Scrub,
}

impl NodeSim {
    /// Moves `bytes` across the interconnect, returning the arrival time.
    /// Same-node transfers are free and unrecorded.
    pub(crate) fn net_transfer(
        &mut self,
        src_node: usize,
        dst_node: usize,
        bytes: u64,
        at: SimTime,
    ) -> SimTime {
        if src_node == dst_node {
            return at;
        }
        let arrival = self.net.transfer(src_node, dst_node, bytes, at);
        if let Some(m) = &mut self.metrics {
            m.counter_add("net_tx_bytes", "NIC", src_node as u32, bytes);
            m.counter_add("net_rx_bytes", "NIC", dst_node as u32, bytes);
        }
        arrival
    }

    /// The service stage, and the one place end-to-end request latency is
    /// computed: NIC pre-hop (write payloads travel to the device before
    /// it sees the request) → fault-gated device submission with
    /// retry/backoff → NIC post-hop (read payloads travel back after the
    /// device completes). The hops fold into the completion additively —
    /// `latency = hop_pre + device service + hop_post` — so a same-node
    /// request (both hops zero) is priced by exactly the same arithmetic
    /// as a cross-node one. A served foreground request passes the cache
    /// tap.
    pub(crate) fn service_block(
        &mut self,
        ds: usize,
        io: BlockIo,
        arrival: SimTime,
        home_node: usize,
    ) -> Result<IoCompletion, IoError> {
        let bytes = io.size_blocks as u64 * 4096;
        let target_node = self.datastores[ds].node();
        let submit_at = match io.op {
            IoOp::Write => self.net_transfer(home_node, target_node, bytes, arrival),
            IoOp::Read => arrival,
        };
        let hop_pre = submit_at.saturating_since(arrival);
        let mut req = if io.migrated {
            IoRequest::migrated(io.stream, io.block, io.size_blocks, io.op, submit_at)
        } else {
            IoRequest::normal(io.stream, io.block, io.size_blocks, io.op, submit_at)
        };
        req.no_admit = io.no_admit;
        let mut completion = self.submit_with_retry(ds, &req)?;
        if !io.migrated {
            self.cache_tap(ds, io.block, arrival);
        }
        if target_node != home_node && io.op == IoOp::Read {
            let done = self.net_transfer(target_node, home_node, bytes, completion.done);
            completion.latency += done.saturating_since(completion.done);
            completion.done = done;
        }
        completion.latency += hop_pre;
        Ok(completion)
    }

    /// Drives one routed request through translate → service → fallback
    /// and reports what happened. A destination failure during a
    /// mirror/lazy migration suspends the migration (traffic stays on the
    /// source until the epoch manager resumes or aborts it) before the
    /// fallback attempt.
    fn drive_request(
        &mut self,
        vmdk: VmdkId,
        gen: &GenRequest,
        op: IoOp,
        arrival: SimTime,
        home_node: usize,
        route: &Route,
    ) -> IoOutcome {
        let Some(block) = self.datastores[route.target_ds].translate(vmdk, gen.offset) else {
            return IoOutcome::Dropped;
        };
        let io = BlockIo {
            stream: vmdk.0,
            block,
            size_blocks: gen.size_blocks,
            op,
            migrated: false,
            no_admit: op == IoOp::Read && self.no_admit(vmdk),
        };
        match self.service_block(route.target_ds, io, arrival, home_node) {
            Ok(completion) => IoOutcome::Served {
                ds: route.target_ds,
                completion,
                via_fallback: false,
            },
            Err(e) => {
                if let Some(mi) = route.migration {
                    if !e.is_retryable() && route.target_ds == self.migrations[mi].active.dst.0 {
                        self.suspend_migration(mi, e.at());
                    }
                }
                if let Some(src) = route.fallback_src {
                    if let Some(src_block) = self.datastores[src].translate(vmdk, gen.offset) {
                        let fallback = BlockIo {
                            block: src_block,
                            ..io
                        };
                        if let Ok(completion) =
                            self.service_block(src, fallback, arrival, home_node)
                        {
                            return IoOutcome::Served {
                                ds: src,
                                completion,
                                via_fallback: true,
                            };
                        }
                    }
                }
                IoOutcome::Failed { error: e }
            }
        }
    }

    /// The accounting tap of the completion stage: latency statistics,
    /// histogram, per-device metrics, and the closed-loop backpressure
    /// stall.
    fn record_served(&mut self, wi: usize, target_ds: usize, completion: &IoCompletion) {
        self.served_requests += 1;
        self.workloads[wi]
            .latency
            .add(completion.latency.as_us_f64());
        self.latency_hist.add(completion.latency.as_us_f64());
        if self.datastores[target_ds].device().kind() == DeviceKind::Nvdimm {
            self.nvdimm_epoch_latency
                .add(completion.latency.as_us_f64());
        }
        self.with_metrics(target_ds, |m, dev, node| {
            m.counter_inc("requests", dev, node);
            m.observe("latency_us", dev, node, completion.latency.as_us_f64());
        });
        if completion.latency > BACKPRESSURE {
            self.workloads[wi].generator.fast_forward(completion.done);
        }
    }

    /// The per-tenant half of the completion accounting: workload requests
    /// feed the foreground latency/availability stats, scrub probes feed
    /// the scrub progress and interference metrics instead.
    fn record_completion(&mut self, tenant: Tenant, target_ds: usize, completion: &IoCompletion) {
        match tenant {
            Tenant::Workload(wi) => self.record_served(wi, target_ds, completion),
            Tenant::Scrub => {
                self.scrub_scanned += 1;
                self.with_metrics(target_ds, |m, dev, node| {
                    m.observe(
                        "scrub_latency_us",
                        dev,
                        node,
                        completion.latency.as_us_f64(),
                    );
                });
            }
        }
    }

    /// The completion stage: accounting plus the mirror/stale bitmap
    /// bookkeeping the route demanded. Bookkeeping happens only after the
    /// I/O succeeded, so a rejected mirrored write never marks its blocks
    /// as present at the destination. The `tenant` discriminator keeps
    /// background scrub probes out of the foreground workload statistics.
    pub(crate) fn complete_request(
        &mut self,
        tenant: Tenant,
        gen: &GenRequest,
        home_node: usize,
        route: &Route,
        outcome: IoOutcome,
    ) {
        match outcome {
            IoOutcome::Served {
                ds,
                completion,
                via_fallback: false,
            } => {
                self.record_completion(tenant, ds, &completion);
                if let Some(mi) = route.mirror_route.or(route.stale_write) {
                    let target_node = self.datastores[ds].node();
                    let m = &mut self.migrations[mi].active;
                    for b in gen.offset..gen.offset + gen.size_blocks as u64 {
                        if b >= m.bitmap.len() {
                            continue;
                        }
                        if route.mirror_route.is_some() {
                            m.record_mirrored_write(b);
                        } else {
                            m.record_stale_write(b);
                        }
                    }
                    if route.mirror_route.is_some() && target_node != home_node {
                        // Mirrored writes that landed on a remote
                        // destination travelled the wire.
                        m.net_blocks += gen.size_blocks as u64;
                    }
                }
            }
            IoOutcome::Served {
                ds,
                completion,
                via_fallback: true,
            } => {
                self.record_completion(tenant, ds, &completion);
                if let (Some(mi), Tenant::Workload(wi)) = (route.mirror_route, tenant) {
                    let vmdk = self.workloads[wi].vmdk.id();
                    emit(&self.trace, || TraceEvent::MirrorFallback {
                        t: completion.done.as_ns(),
                        vmdk: vmdk.0,
                        dst: self.datastores[ds].device().kind().to_string(),
                    });
                    self.with_metrics(ds, |m, dev, node| {
                        m.counter_inc("mirror_fallbacks", dev, node)
                    });
                    // The write landed on the source instead: any
                    // destination copies of these blocks are stale and
                    // must be re-copied.
                    let m = &mut self.migrations[mi].active;
                    for b in gen.offset..gen.offset + gen.size_blocks as u64 {
                        if b < m.bitmap.len() {
                            m.record_stale_write(b);
                        }
                    }
                }
            }
            IoOutcome::Failed { .. } => match tenant {
                Tenant::Workload(_) => {
                    self.failed_requests += 1;
                    self.with_metrics(route.target_ds, |m, dev, node| {
                        m.counter_inc("failed_requests", dev, node)
                    });
                }
                Tenant::Scrub => self.scrub_errors += 1,
            },
            IoOutcome::Dropped => {}
        }
    }

    /// The pipeline driver for one workload request: route → drive →
    /// complete, then schedule the workload's next request and finish any
    /// mirror-mode migration whose bitmap filled up purely by writes.
    pub(crate) fn serve_workload(&mut self, wi: usize) {
        let (arrival, gen) = self.workloads[wi].next;
        let vmdk = self.workloads[wi].vmdk.id();
        let op = match gen.op {
            GenOp::Read => IoOp::Read,
            GenOp::Write => IoOp::Write,
        };
        let home_node = self.workloads[wi].home_node;
        let route = route_request(
            self.workloads[wi].ds,
            vmdk,
            op,
            gen.offset,
            &self.migrations,
        );
        // A request whose compute node or target device node is powered
        // off fails immediately — there is no machine to retry from — and
        // dents availability without churning the device retry path.
        let target_node = self.datastores[route.target_ds].node();
        if self.crashed[home_node] || self.crashed[target_node] {
            self.failed_requests += 1;
            self.with_metrics(route.target_ds, |m, dev, node| {
                m.counter_inc("failed_requests", dev, node)
            });
            let next = self.workloads[wi].generator.next_request();
            self.workloads[wi].next = next;
            self.ready.push(next.0, wi as u32);
            return;
        }
        let outcome = self.drive_request(vmdk, &gen, op, arrival, home_node, &route);
        if matches!(outcome, IoOutcome::Dropped) {
            // Should not happen; drop the request defensively.
            let next = self.workloads[wi].generator.next_request();
            self.workloads[wi].next = next;
            self.ready.push(next.0, wi as u32);
            return;
        }
        self.complete_request(Tenant::Workload(wi), &gen, home_node, &route, outcome);
        let next = self.workloads[wi].generator.next_request();
        self.workloads[wi].next = next;
        self.ready.push(next.0, wi as u32);

        // Mirror-mode migrations whose bitmaps filled up purely by writes
        // complete here.
        while let Some(mi) = self
            .migrations
            .iter()
            .position(|m| m.active.complete() && !m.active.suspended())
        {
            self.finish_migration(mi);
        }
    }
}
