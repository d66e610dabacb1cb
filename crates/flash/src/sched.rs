//! Migration-aware write scheduling for destination NVDIMMs (§5.3.1).
//!
//! NVDIMMs serving as persistent store must respect write barriers: a write
//! after a barrier may not be issued until every write before the barrier
//! has completed, which throttles the flash channel parallelism the device
//! otherwise has (Fig. 9 (a) of the paper). Migrated data is different —
//! its source copy still exists until the migration commits, so ordering
//! does not matter for crash consistency. The paper exploits that with two
//! policies plus a starvation guard:
//!
//! * **Policy One** — migrated writes are scheduled regardless of barriers
//!   (Fig. 9 (b)).
//! * **Policy Two** — persistent writes are prioritized over migrated
//!   writes, draining the dependency chain that gates the next epoch
//!   (Fig. 9 (c)); a migrated write reordered behind a persistent write to
//!   the same location is discarded (its data will be re-read from the
//!   source).
//! * **Non-persistent barrier** — a migrated write that keeps being passed
//!   over is boosted after a configurable delay, bounding the over-delay
//!   problem of Fig. 10.
//!
//! The simulator here is a focused model of the NVDIMM write path: each
//! flash channel has `chips_per_channel` servers with a fixed
//! transfer+program service time, and a barrier stream partitions requests
//! into epochs.

use nvhsm_obs::{emit, SharedSink, TraceEvent};
use nvhsm_sim::{EventQueue, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Class of a write request reaching the NVDIMM controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteClass {
    /// A write belonging to the persistent store: ordered by barriers.
    Persistent,
    /// A write carrying migrated data: recoverable from its source mirror.
    Migrated,
}

/// One write request in the scheduling trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteRequest {
    /// Request identifier (unique within a trace).
    pub id: u64,
    /// Persistent or migrated.
    pub class: WriteClass,
    /// Destination flash channel.
    pub channel: usize,
    /// Barrier epoch this request belongs to (barriers increment the epoch).
    pub epoch: u32,
    /// When the request reaches the controller.
    pub arrival: SimTime,
    /// Target page address, used for the Policy-Two alias discard.
    pub addr: u64,
}

/// Scheduling policy under evaluation (Fig. 14 compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Barriers constrain every request (the controller cannot tell classes
    /// apart); FCFS among eligible requests.
    Baseline,
    /// Policy One only: migrated writes ignore barriers.
    PolicyOne,
    /// Policy Two only: persistent writes prioritized, alias discard.
    PolicyTwo,
    /// Policy One + Policy Two.
    Both,
    /// Policy One + Policy Two + the non-persistent barrier delay bound.
    BothNpBarrier,
}

impl SchedPolicy {
    fn migrated_exempt(self) -> bool {
        matches!(
            self,
            SchedPolicy::PolicyOne | SchedPolicy::Both | SchedPolicy::BothNpBarrier
        )
    }

    fn persistent_priority(self) -> bool {
        matches!(
            self,
            SchedPolicy::PolicyTwo | SchedPolicy::Both | SchedPolicy::BothNpBarrier
        )
    }

    fn class_aware(self) -> bool {
        !matches!(self, SchedPolicy::Baseline)
    }

    fn np_barrier(self) -> bool {
        matches!(self, SchedPolicy::BothNpBarrier)
    }
}

/// Configuration of the scheduling simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Flash channels.
    pub channels: usize,
    /// Chip servers per channel.
    pub chips_per_channel: usize,
    /// Transfer + program time per write.
    pub service: SimDuration,
    /// Non-persistent-barrier boost threshold: a migrated write waiting
    /// longer than this is prioritized.
    pub np_barrier_delay: SimDuration,
}

impl SchedConfig {
    /// Table 4-flavoured defaults: 16 channels × 4 chips, ~660 µs service
    /// (650 µs program + 10 µs transfer), 2 ms starvation bound.
    pub fn table4() -> Self {
        SchedConfig {
            channels: 16,
            chips_per_channel: 4,
            service: SimDuration::from_us(660),
            np_barrier_delay: SimDuration::from_ms(2),
        }
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self::table4()
    }
}

/// Outcome of scheduling one trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Completion time of the last request.
    pub makespan: SimDuration,
    /// Mean latency (arrival → completion) of persistent writes, µs.
    pub persistent_mean_us: f64,
    /// Mean latency of migrated writes, µs (discarded ones excluded).
    pub migrated_mean_us: f64,
    /// Maximum migrated-write latency, µs (the Fig. 10 over-delay metric).
    pub migrated_max_us: f64,
    /// Requests served.
    pub completed: u64,
    /// Migrated writes discarded by the Policy-Two alias rule.
    pub discarded: u64,
    /// Served writes per second of makespan.
    pub throughput_iops: f64,
}

#[derive(Debug, Clone, Copy)]
struct Tracked {
    req: WriteRequest,
    done: Option<SimTime>,
    discarded: bool,
}

/// Simulates a write trace under `policy`, also returning each request's
/// completion time (µs, trace order; `None` = discarded by the alias rule).
/// Barrier decisions are traced as in [`simulate_traced`].
///
/// # Panics
///
/// Panics if any request addresses a channel outside the configuration or
/// the trace is empty.
pub fn simulate_detailed_traced(
    cfg: &SchedConfig,
    requests: &[WriteRequest],
    policy: SchedPolicy,
    trace: &Option<SharedSink>,
) -> (SchedStats, Vec<Option<f64>>) {
    simulate_inner(cfg, requests, policy, trace)
}

/// Simulates a write trace under `policy`, emitting a `BarrierDispatch`
/// event for every request handed to a chip server and a `BarrierDiscard`
/// event for every migrated write killed by the Policy-Two alias rule.
///
/// With `trace` set to `None` this is exactly [`simulate`].
///
/// # Panics
///
/// Panics if any request addresses a channel outside the configuration or
/// the trace is empty.
pub fn simulate_traced(
    cfg: &SchedConfig,
    requests: &[WriteRequest],
    policy: SchedPolicy,
    trace: &Option<SharedSink>,
) -> SchedStats {
    simulate_inner(cfg, requests, policy, trace).0
}

/// Simulates a write trace under `policy`.
///
/// # Panics
///
/// Panics if any request addresses a channel outside the configuration or
/// the trace is empty.
///
/// # Examples
///
/// ```
/// use nvhsm_flash::sched::{simulate, SchedConfig, SchedPolicy, WriteClass, WriteRequest};
/// use nvhsm_sim::SimTime;
///
/// let reqs = vec![
///     WriteRequest { id: 0, class: WriteClass::Persistent, channel: 0, epoch: 0,
///                    arrival: SimTime::ZERO, addr: 0 },
///     WriteRequest { id: 1, class: WriteClass::Migrated, channel: 1, epoch: 1,
///                    arrival: SimTime::ZERO, addr: 64 },
/// ];
/// let base = simulate(&SchedConfig::table4(), &reqs, SchedPolicy::Baseline);
/// let p1 = simulate(&SchedConfig::table4(), &reqs, SchedPolicy::PolicyOne);
/// assert!(p1.makespan <= base.makespan);
/// ```
pub fn simulate(cfg: &SchedConfig, requests: &[WriteRequest], policy: SchedPolicy) -> SchedStats {
    simulate_inner(cfg, requests, policy, &None).0
}

fn simulate_inner(
    cfg: &SchedConfig,
    requests: &[WriteRequest],
    policy: SchedPolicy,
    trace: &Option<SharedSink>,
) -> (SchedStats, Vec<Option<f64>>) {
    assert!(!requests.is_empty(), "empty trace");
    assert!(
        requests.iter().all(|r| r.channel < cfg.channels),
        "request channel out of range"
    );

    let n = requests.len();
    let mut tracked: Vec<Tracked> = requests
        .iter()
        .map(|&req| Tracked {
            req,
            done: None,
            discarded: false,
        })
        .collect();

    let max_epoch = requests.iter().map(|r| r.epoch).max().unwrap_or(0) as usize;
    // Outstanding request counts per epoch: all classes, and persistent only.
    let mut open_any = vec![0u64; max_epoch + 1];
    let mut open_persistent = vec![0u64; max_epoch + 1];
    for r in requests {
        open_any[r.epoch as usize] += 1;
        if r.class == WriteClass::Persistent {
            open_persistent[r.epoch as usize] += 1;
        }
    }

    // Per-channel pending request indices. Unordered: dispatch picks by
    // the (rank, arrival, id) key, never by queue position.
    let mut pending: Vec<Vec<usize>> = vec![Vec::new(); cfg.channels];
    let mut arrivals: Vec<usize> = (0..n).collect();
    arrivals.sort_by_key(|&i| (requests[i].arrival, requests[i].id));

    let mut servers: Vec<SimTime> = vec![SimTime::ZERO; cfg.channels * cfg.chips_per_channel];

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Arrival(usize),
        Completion { req: usize, server: usize },
    }

    // Every request contributes one arrival and at most one completion.
    let mut events = EventQueue::with_capacity(2 * n);
    for &i in &arrivals {
        events.push(requests[i].arrival, Event::Arrival(i));
    }

    let min_open = |open: &[u64]| -> u32 {
        open.iter()
            .position(|&c| c > 0)
            .map(|e| e as u32)
            .unwrap_or(u32::MAX)
    };

    let mut completed = 0u64;
    let mut discarded = 0u64;
    let mut last_done = SimTime::ZERO;

    // All events due at one instant are batch-drained in one call, then
    // applied in (time, seq) order — exactly the order the retired
    // pop-per-iteration loop produced, since anything pushed while the
    // batch is in flight carries a higher sequence number and lands in a
    // later drain.
    let mut batch: Vec<(SimTime, Event)> = Vec::new();
    while let Some(now) = events.next_time() {
        batch.clear();
        events.drain_due(now, &mut batch);
        for &(_, ev) in batch.iter() {
            match ev {
                Event::Arrival(i) => {
                    pending[requests[i].channel].push(i);
                }
                Event::Completion { req, server } => {
                    let t = &mut tracked[req];
                    t.done = Some(now);
                    last_done = last_done.max(now);
                    completed += 1;
                    open_any[t.req.epoch as usize] -= 1;
                    if t.req.class == WriteClass::Persistent {
                        open_persistent[t.req.epoch as usize] -= 1;
                    }
                    let _ = server;
                }
            }

            // Dispatch after every event (the trace records dispatch order,
            // so batching must not reorder it). One sweep saturates every
            // channel: the barrier frontiers are constant while no event is
            // applied — alias discards decrement only `open_any`, and the
            // only policy reading the any-frontier (Baseline) never
            // discards — and dispatching on one channel touches no other
            // channel's servers or queue, so a second sweep would find
            // nothing. That lets the frontier scans hoist out of the
            // channel loop instead of re-running per fixpoint round.
            let frontier_any = min_open(&open_any);
            let frontier_persistent = min_open(&open_persistent);
            let eligible = |t: &Tracked| -> bool {
                let e = t.req.epoch;
                match t.req.class {
                    WriteClass::Persistent => {
                        if policy.class_aware() {
                            e <= frontier_persistent
                        } else {
                            e <= frontier_any
                        }
                    }
                    WriteClass::Migrated => {
                        if policy.migrated_exempt() {
                            true
                        } else if policy.class_aware() {
                            e <= frontier_persistent
                        } else {
                            e <= frontier_any
                        }
                    }
                }
            };

            for (ch, chq) in pending.iter_mut().enumerate() {
                if chq.is_empty() {
                    continue;
                }
                // Keep dispatching while this channel has a free chip.
                while let Some(server) = (0..cfg.chips_per_channel)
                    .map(|w| ch * cfg.chips_per_channel + w)
                    .find(|&s| servers[s] <= now)
                {
                    // Best eligible pending request on this channel.
                    let pick = {
                        let mut best: Option<(u8, SimTime, usize, usize)> = None;
                        for (pos, &ri) in chq.iter().enumerate() {
                            let t = &tracked[ri];
                            if t.discarded || t.done.is_some() || !eligible(t) {
                                continue;
                            }
                            // Priority rank: 0 = dispatch first.
                            let starved = policy.np_barrier()
                                && t.req.class == WriteClass::Migrated
                                && now.saturating_since(t.req.arrival) >= cfg.np_barrier_delay;
                            let rank = if starved {
                                0
                            } else if policy.persistent_priority() {
                                match t.req.class {
                                    WriteClass::Persistent => 1,
                                    WriteClass::Migrated => 2,
                                }
                            } else {
                                1
                            };
                            let key = (rank, t.req.arrival, ri, pos);
                            if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
                                best = Some(key);
                            }
                        }
                        best
                    };
                    let Some((rank, _, ri, pos)) = pick else {
                        break;
                    };

                    // Policy-Two alias discard: dispatching a persistent
                    // write past earlier-arrived migrated writes to the same
                    // address kills those migrated writes.
                    let mut discarded_here = false;
                    if policy.persistent_priority()
                        && rank == 1
                        && tracked[ri].req.class == WriteClass::Persistent
                    {
                        let p_arrival = tracked[ri].req.arrival;
                        let p_addr = tracked[ri].req.addr;
                        for &other in chq.iter() {
                            if other == ri {
                                continue;
                            }
                            let o = &mut tracked[other];
                            if !o.discarded
                                && o.done.is_none()
                                && o.req.class == WriteClass::Migrated
                                && o.req.arrival < p_arrival
                                && o.req.addr == p_addr
                            {
                                o.discarded = true;
                                o.done = Some(now);
                                discarded += 1;
                                discarded_here = true;
                                open_any[o.req.epoch as usize] -= 1;
                                let req_id = o.req.id;
                                emit(trace, || TraceEvent::BarrierDiscard {
                                    t: now.as_ns() / 1_000,
                                    policy: format!("{policy:?}"),
                                    req: req_id,
                                });
                            }
                        }
                    }

                    // The pick key (rank, arrival, id) never looks at queue
                    // position, so O(1) swap_remove is order-safe here.
                    chq.swap_remove(pos);
                    if discarded_here {
                        // Prune dead entries so later scans stop re-skipping
                        // them.
                        chq.retain(|&o| !tracked[o].discarded);
                    }
                    servers[server] = now + cfg.service;
                    events.push(now + cfg.service, Event::Completion { req: ri, server });
                    let picked = &tracked[ri].req;
                    let (req_id, migrated) = (picked.id, picked.class == WriteClass::Migrated);
                    emit(trace, || TraceEvent::BarrierDispatch {
                        t: now.as_ns() / 1_000,
                        policy: format!("{policy:?}"),
                        req: req_id,
                        migrated,
                        boosted: rank == 0,
                    });
                }
            }
        }
    }

    let mut p_stats = nvhsm_sim::OnlineStats::new();
    let mut m_stats = nvhsm_sim::OnlineStats::new();
    let mut m_max = 0.0f64;
    for t in &tracked {
        let Some(done) = t.done else { continue };
        if t.discarded {
            continue;
        }
        let lat_us = (done - t.req.arrival).as_us_f64();
        match t.req.class {
            WriteClass::Persistent => p_stats.add(lat_us),
            WriteClass::Migrated => {
                m_stats.add(lat_us);
                m_max = m_max.max(lat_us);
            }
        }
    }

    let makespan = last_done.saturating_since(SimTime::ZERO);
    // `completed` counts completion events; discarded requests never emit
    // one, so the two counters are already disjoint.
    let served = completed;
    let completions: Vec<Option<f64>> = tracked
        .iter()
        .map(|t| {
            if t.discarded {
                None
            } else {
                t.done.map(|d| d.as_us_f64())
            }
        })
        .collect();
    (
        SchedStats {
            makespan,
            persistent_mean_us: p_stats.mean(),
            migrated_mean_us: m_stats.mean(),
            migrated_max_us: m_max,
            completed: served,
            discarded,
            throughput_iops: if makespan > SimDuration::ZERO {
                served as f64 / makespan.as_secs_f64()
            } else {
                0.0
            },
        },
        completions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvhsm_sim::SimRng;

    fn mixed_trace(
        n: usize,
        migrated_frac: f64,
        channels: usize,
        barrier_every: usize,
        seed: u64,
    ) -> Vec<WriteRequest> {
        let mut rng = SimRng::new(seed);
        let mut out = Vec::with_capacity(n);
        let mut epoch = 0u32;
        for i in 0..n {
            if i > 0 && i % barrier_every == 0 {
                epoch += 1;
            }
            out.push(WriteRequest {
                id: i as u64,
                class: if rng.chance(migrated_frac) {
                    WriteClass::Migrated
                } else {
                    WriteClass::Persistent
                },
                channel: rng.below(channels as u64) as usize,
                epoch,
                arrival: SimTime::from_us(i as u64 * 5),
                addr: rng.below(4096) * 4096,
            });
        }
        out
    }

    fn cfg() -> SchedConfig {
        SchedConfig::table4()
    }

    #[test]
    fn figure9_example_policy_one_overlaps_migrated() {
        // Eight writes RA..RH, barriers after RA, after RD, after RE.
        // RA,RB,RE,RF persistent; RC,RD,RG,RH migrated.
        // Channels: RA,RB,RD,RE,RF,RH -> FC0; RC,RG -> FC1.
        let mk = |id, class, channel, epoch| WriteRequest {
            id,
            class,
            channel,
            epoch,
            arrival: SimTime::ZERO,
            addr: id * 4096,
        };
        use WriteClass::{Migrated as M, Persistent as P};
        let reqs = vec![
            mk(0, P, 0, 0), // RA
            mk(1, P, 0, 1), // RB
            mk(2, M, 1, 1), // RC
            mk(3, M, 0, 1), // RD
            mk(4, P, 0, 2), // RE
            mk(5, P, 0, 3), // RF
            mk(6, M, 1, 3), // RG
            mk(7, M, 0, 3), // RH
        ];
        let scfg = SchedConfig {
            channels: 2,
            chips_per_channel: 1,
            service: SimDuration::from_us(100),
            np_barrier_delay: SimDuration::from_ms(1),
        };
        let base = simulate(&scfg, &reqs, SchedPolicy::Baseline);
        let p1 = simulate(&scfg, &reqs, SchedPolicy::PolicyOne);
        // FC0 carries six writes, so its serial service time bounds the
        // makespan either way; the win is that migrated writes (RC, RG on
        // FC1; RD, RH on FC0) start early instead of waiting for barriers.
        assert!(p1.makespan <= base.makespan, "p1 {p1:?} vs base {base:?}");
        assert!(
            p1.migrated_mean_us < base.migrated_mean_us,
            "p1 {p1:?} vs base {base:?}"
        );
    }

    #[test]
    fn all_requests_complete_under_every_policy() {
        let reqs = mixed_trace(400, 0.4, 16, 8, 11);
        for policy in [
            SchedPolicy::Baseline,
            SchedPolicy::PolicyOne,
            SchedPolicy::PolicyTwo,
            SchedPolicy::Both,
            SchedPolicy::BothNpBarrier,
        ] {
            let stats = simulate(&cfg(), &reqs, policy);
            assert_eq!(
                stats.completed + stats.discarded,
                reqs.len() as u64,
                "{policy:?} lost requests"
            );
        }
    }

    #[test]
    fn policy_one_beats_baseline_on_mixed_traffic() {
        let reqs = mixed_trace(600, 0.5, 16, 6, 13);
        let base = simulate(&cfg(), &reqs, SchedPolicy::Baseline);
        let p1 = simulate(&cfg(), &reqs, SchedPolicy::PolicyOne);
        assert!(
            p1.makespan < base.makespan,
            "P1 {} !< base {}",
            p1.makespan,
            base.makespan
        );
    }

    #[test]
    fn both_policies_at_least_as_good_as_each_alone() {
        let reqs = mixed_trace(600, 0.5, 16, 6, 17);
        let p1 = simulate(&cfg(), &reqs, SchedPolicy::PolicyOne);
        let p2 = simulate(&cfg(), &reqs, SchedPolicy::PolicyTwo);
        let both = simulate(&cfg(), &reqs, SchedPolicy::Both);
        assert!(both.makespan <= p1.makespan.max(p2.makespan) + SimDuration::from_ms(1));
    }

    #[test]
    fn policy_two_prioritizes_persistent_latency() {
        // Large epochs relative to server count create queueing, which is
        // where persistent-first priority pays off.
        let reqs = mixed_trace(1200, 0.5, 4, 200, 19);
        let base = simulate(&cfg(), &reqs, SchedPolicy::Baseline);
        let p2 = simulate(&cfg(), &reqs, SchedPolicy::PolicyTwo);
        assert!(
            p2.persistent_mean_us < base.persistent_mean_us,
            "P2 persistent {} !< base {}",
            p2.persistent_mean_us,
            base.persistent_mean_us
        );
    }

    #[test]
    fn np_barrier_bounds_migrated_over_delay() {
        // Heavy persistent stream + few migrated: under Both, migrated can
        // starve; the non-persistent barrier caps their wait.
        let mut reqs = mixed_trace(800, 0.05, 4, 100, 23);
        // Funnel everything into few channels to create contention.
        for r in &mut reqs {
            r.channel %= 2;
        }
        let scfg = SchedConfig {
            channels: 2,
            chips_per_channel: 1,
            service: SimDuration::from_us(200),
            np_barrier_delay: SimDuration::from_ms(1),
        };
        let both = simulate(&scfg, &reqs, SchedPolicy::Both);
        let np = simulate(&scfg, &reqs, SchedPolicy::BothNpBarrier);
        assert!(
            np.migrated_max_us < both.migrated_max_us,
            "np {} !< both {}",
            np.migrated_max_us,
            both.migrated_max_us
        );
    }

    #[test]
    fn alias_discard_kills_stale_migrated_writes() {
        use WriteClass::{Migrated as M, Persistent as P};
        // Migrated write to addr 0 arrives first; persistent write to the
        // same address gets dispatched first under Policy Two => discard.
        // A long queue in front keeps the migrated write pending at the
        // moment the persistent one jumps it.
        let mut reqs = vec![WriteRequest {
            id: 0,
            class: P,
            channel: 0,
            epoch: 0,
            arrival: SimTime::ZERO,
            addr: 99 * 4096,
        }];
        reqs.push(WriteRequest {
            id: 1,
            class: M,
            channel: 0,
            epoch: 0,
            arrival: SimTime::from_us(1),
            addr: 0,
        });
        reqs.push(WriteRequest {
            id: 2,
            class: P,
            channel: 0,
            epoch: 0,
            arrival: SimTime::from_us(2),
            addr: 0,
        });
        let scfg = SchedConfig {
            channels: 1,
            chips_per_channel: 1,
            service: SimDuration::from_us(100),
            np_barrier_delay: SimDuration::from_secs(1),
        };
        let stats = simulate(&scfg, &reqs, SchedPolicy::PolicyTwo);
        assert_eq!(stats.discarded, 1, "{stats:?}");
    }

    #[test]
    fn single_request_latency_is_service_time() {
        let reqs = vec![WriteRequest {
            id: 0,
            class: WriteClass::Persistent,
            channel: 0,
            epoch: 0,
            arrival: SimTime::ZERO,
            addr: 0,
        }];
        let stats = simulate(&cfg(), &reqs, SchedPolicy::Baseline);
        assert_eq!(stats.makespan, cfg().service);
        assert_eq!(stats.completed, 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_trace(max: usize) -> impl Strategy<Value = Vec<WriteRequest>> {
        proptest::collection::vec(
            (
                proptest::bool::ANY, // migrated?
                0usize..4,           // channel
                0u32..6,             // epoch
                0u64..2_000,         // arrival us
                0u64..64,            // addr block
            ),
            1..max,
        )
        .prop_map(|items| {
            items
                .into_iter()
                .enumerate()
                .map(
                    |(i, (migrated, channel, epoch, arrival, addr))| WriteRequest {
                        id: i as u64,
                        class: if migrated {
                            WriteClass::Migrated
                        } else {
                            WriteClass::Persistent
                        },
                        channel,
                        epoch,
                        arrival: SimTime::from_us(arrival),
                        addr: addr * 4096,
                    },
                )
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every request is either served or discarded, under every policy,
        /// for arbitrary traces — the scheduler never loses or duplicates
        /// work.
        #[test]
        fn prop_conservation_across_policies(trace in arb_trace(120)) {
            let cfg = SchedConfig {
                channels: 4,
                chips_per_channel: 2,
                service: SimDuration::from_us(100),
                np_barrier_delay: SimDuration::from_ms(1),
            };
            for policy in [
                SchedPolicy::Baseline,
                SchedPolicy::PolicyOne,
                SchedPolicy::PolicyTwo,
                SchedPolicy::Both,
                SchedPolicy::BothNpBarrier,
            ] {
                let stats = simulate(&cfg, &trace, policy);
                prop_assert_eq!(
                    stats.completed + stats.discarded,
                    trace.len() as u64,
                    "{:?} lost requests", policy
                );
                // Only class-aware prioritizing policies may discard.
                if !policy.persistent_priority() {
                    prop_assert_eq!(stats.discarded, 0);
                }
                prop_assert!(stats.makespan >= cfg.service);
            }
        }

        /// Policy One never hurts migrated-write latency relative to the
        /// baseline (exemption only removes constraints).
        #[test]
        fn prop_policy_one_helps_migrated(trace in arb_trace(80)) {
            prop_assume!(trace.iter().any(|r| r.class == WriteClass::Migrated));
            let cfg = SchedConfig {
                channels: 4,
                chips_per_channel: 2,
                service: SimDuration::from_us(100),
                np_barrier_delay: SimDuration::from_ms(1),
            };
            let base = simulate(&cfg, &trace, SchedPolicy::Baseline);
            let p1 = simulate(&cfg, &trace, SchedPolicy::PolicyOne);
            prop_assert!(p1.migrated_mean_us <= base.migrated_mean_us + 1e-6);
        }
    }
}
