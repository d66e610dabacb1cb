//! Benchmarks of the scenario-parallel driver and the hot-path kernels it
//! leans on: the event-queue wake-up loop, model pretraining (every
//! simulator's set-up) and its largest FTL prefill, device-model
//! prediction (static and online), the LRFU buffer cache (warm hit, bypass
//! probe, miss-and-evict and paper-scale hits), the bus-slowdown lookup
//! table, O(1) report building, the serving plane's per-tenant metric
//! writes and Eq. 4 placement scans, one full mix scenario, and grid
//! throughput at 1 vs all workers.
//!
//! `scripts/bench_snapshot.sh` runs this with `CRITERION_JSON_OUT` set and
//! packages the results as `BENCH_driver.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nvhsm_cache::{AccessClass, BufferCache, BypassCache, LrfuCache};
use nvhsm_core::manager::{NetworkCosts, PolicyEngine, ResidentInfo};
use nvhsm_core::migration::ActiveMigration;
use nvhsm_core::training::pretrain_models;
use nvhsm_core::{
    shard_summaries, DatastoreId, Manager, MigrationMode, NodeConfig, NodeSim, OnlineModelConfig,
    OnlineModels, PolicyKind, RefitPolicy, ServingConfig, ServingSim, ShardedPolicyEngine, VmdkId,
};
use nvhsm_device::{DeviceKind, IoOp, IoRequest, SsdConfig, SsdDevice, StorageDevice};
use nvhsm_experiments::mix::{run_mix, MixParams};
use nvhsm_experiments::Scale;
use nvhsm_flash::{FlashConfig, PageFtl};
use nvhsm_mem::{AnalyticBus, DramConfig};
use nvhsm_model::Features;
use nvhsm_obs::MetricsRegistry;
use nvhsm_sim::rng::Zipf;
use nvhsm_sim::{parallel, EventQueue, SimDuration, SimRng, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    // NodeSim's wake-up queue as `mix_arrivals` drives it: ten workloads,
    // one pending wake-up each, every one re-armed at an exponential gap
    // (mean 1 ms) once it drains. One iteration is 4,096 wake-ups, each a
    // `next_time` + `drain_due`. The gaps are drawn up front so the row
    // times the queue, not the RNG.
    const WORKLOADS: u32 = 10;
    const WAKEUPS: usize = 4096;
    let mut rng = SimRng::new(1);
    let gaps: Vec<SimDuration> = (0..WAKEUPS)
        .map(|_| SimDuration::from_ns_f64(rng.exponential(1e6)).max(SimDuration::from_ns(1)))
        .collect();
    c.bench_function("driver/event_queue_ready_10", |b| {
        let mut batch: Vec<(SimTime, u32)> = Vec::with_capacity(WORKLOADS as usize);
        let mut next_gap = gaps.iter().cycle();
        b.iter(|| {
            let mut q = EventQueue::new();
            for wi in 0..WORKLOADS {
                q.push(SimTime::ZERO + *next_gap.next().unwrap(), wi);
            }
            let mut acc = 0u64;
            for _ in 0..WAKEUPS {
                let now = q.next_time().expect("every workload stays armed");
                batch.clear();
                q.drain_due(now, &mut batch);
                for &(t, wi) in &batch {
                    acc = acc.wrapping_add(u64::from(wi));
                    q.push(t + *next_gap.next().unwrap(), wi);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_pretrain(c: &mut Criterion) {
    // One serial pretraining call at the quick scale perfbench and the
    // experiments train at: what every `NodeSim` and `ServingSim` pays in
    // set-up. The first call in a process also runs the sequential-read
    // calibration; it runs here, before timing starts.
    parallel::set_jobs(Some(1));
    black_box(pretrain_models(40, 7));
    c.bench_function("driver/pretrain_models_40", |b| {
        b.iter(|| black_box(pretrain_models(40, 7)))
    });
    parallel::set_jobs(None);
}

fn bench_ftl_prefill(c: &mut Criterion) {
    // The largest fill pretraining does: the scratch SSD's FTL (2 GiB, 64
    // chips, 128 pages per block) built fresh and prefilled to 90 %. One
    // iteration allocates the tables, lays the range out and drops them.
    let cfg = FlashConfig::with_capacity_gib(2);
    let filled = (cfg.logical_pages() as f64 * 0.9) as u64;
    c.bench_function("driver/ftl_prefill_2gib_90", |b| {
        b.iter(|| {
            let mut ftl = PageFtl::new(&cfg);
            ftl.prefill(0..filled);
            ftl
        })
    });
}

fn bench_predict(c: &mut Criterion) {
    let models = pretrain_models(40, 7);
    let mut rng = SimRng::new(8);
    let probes: Vec<Features> = (0..64)
        .map(|_| Features {
            wr_ratio: rng.uniform(),
            oios: rng.uniform() * 16.0,
            ios: 1.0 + rng.uniform() * 7.0,
            wr_rand: rng.uniform(),
            rd_rand: rng.uniform(),
            free_space_ratio: rng.uniform(),
        })
        .collect();
    // An epoch decision predicts each resident's feature vector once per
    // candidate move it evaluates, so every vector is looked up many times
    // per epoch. Model that: 8 passes over the probe set per iteration.
    const PASSES: usize = 8;
    c.bench_function("driver/predict_uncached_64x8", |b| {
        let model = models.model(DeviceKind::Ssd);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..PASSES {
                for f in &probes {
                    acc += model.predict(f);
                }
            }
            black_box(acc)
        })
    });
    // The online source with a learned correction installed: the worst
    // case the epoch-decision hot path can hit (base tree walk plus one
    // residual-tree walk per prediction).
    let mut online = OnlineModels::new(
        pretrain_models(40, 7),
        OnlineModelConfig {
            policy: RefitPolicy::Periodic,
            refit_every: 1,
            min_refit_samples: 16,
            ..OnlineModelConfig::default()
        },
    );
    for f in &probes {
        let truth = online.base().predict_us(DeviceKind::Ssd, f) + 150.0;
        online.observe(DeviceKind::Ssd, f, truth);
    }
    online.end_epoch();
    assert!(online.has_correction(DeviceKind::Ssd));
    c.bench_function("driver/predict_online_64x8", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..PASSES {
                for f in &probes {
                    acc += online.predict(DeviceKind::Ssd, f);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_cache_probe(c: &mut Criterion) {
    // The staged datapath probes the node's buffer cache on every
    // foreground request before device submission, so the warm-hit probe
    // is a per-request kernel like the model prediction above. Same
    // shape: 64 resident blocks, 8 passes per iteration.
    const PASSES: usize = 8;
    const WORKING_SET: u64 = 64;
    c.bench_function("driver/cache_hit_64x8", |b| {
        let mut cache = BypassCache::new(LrfuCache::new(512, 0.05));
        for blk in 0..WORKING_SET {
            cache.access_classified(blk, false, AccessClass::Normal);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..PASSES {
                for blk in 0..WORKING_SET {
                    let out = cache.access_classified(blk, false, AccessClass::Normal);
                    hits += out.hit as u64;
                }
            }
            black_box(hits)
        })
    });
    // The sweep side of Fig. 15: migration-class probes take the bypass
    // branch, touching counters but never the replacement state.
    c.bench_function("driver/cache_bypass_64x8", |b| {
        let mut cache = BypassCache::new(LrfuCache::new(512, 0.05));
        for blk in 0..WORKING_SET {
            cache.access_classified(blk, false, AccessClass::Normal);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..PASSES {
                for blk in 0..WORKING_SET {
                    let out = cache.access_classified(blk, false, AccessClass::Migrated);
                    hits += out.hit as u64;
                }
            }
            black_box(hits)
        })
    });
    // The miss side: `mix_steady`'s device cache (4,096 blocks, λ = 0.05)
    // sees HiBench streams far wider than itself, so most accesses evict
    // the window minimum and admit — the path neither probe above takes.
    // Each iteration replays the next 4,096 accesses of a 64k trace drawn
    // uniformly over 4× capacity (one write in four): once warm, about
    // three accesses in four miss and evict.
    const MISS_CAPACITY: u64 = 4096;
    let mut rng = SimRng::new(11);
    let trace: Vec<(u64, bool)> = (0..16 * MISS_CAPACITY)
        .map(|_| (rng.below(4 * MISS_CAPACITY), rng.below(4) == 0))
        .collect();
    c.bench_function("driver/lrfu_miss_4k", |b| {
        let mut cache = LrfuCache::new(MISS_CAPACITY as usize, 0.05);
        for &(blk, write) in &trace {
            cache.access(blk, write);
        }
        let mut window = trace.chunks(MISS_CAPACITY as usize).cycle();
        b.iter(|| {
            let mut evictions = 0u64;
            for &(blk, write) in window.next().expect("cycle of a non-empty trace") {
                evictions += cache.access(blk, write).evicted.is_some() as u64;
            }
            black_box(evictions)
        })
    });
    // The hit side at paper scale: `mix_arrivals`' NVDIMM caches hold
    // 102,400 blocks and hit 95–98 % per epoch, mostly on residents far
    // from the eviction window. A Zipf (θ = 0.99) trace over 1.5 times the
    // capacity, its ranks scattered over a 1 GiB device's 2^18 blocks by
    // an odd multiplier (a bijection mod 2^18), warms the cache with 1M
    // accesses; each sample replays another 1M-access trace, 4,096
    // accesses per iteration, from a copy of the warm cache.
    const PAPER_CAPACITY: usize = 102_400;
    let zipf = Zipf::new(3 * PAPER_CAPACITY / 2, 0.99);
    let mut rng = SimRng::new(13);
    let mut draw = |n: usize| -> Vec<(u64, bool)> {
        (0..n)
            .map(|_| {
                let rank = zipf.sample(&mut rng) as u64;
                let block = rank.wrapping_mul(0x9E37_79B9) & ((1 << 18) - 1);
                (block, rng.below(4) == 0)
            })
            .collect()
    };
    let mut warm = LrfuCache::new(PAPER_CAPACITY, 0.05);
    for (blk, write) in draw(1 << 20) {
        warm.access(blk, write);
    }
    let trace = draw(1 << 20);
    let mut probe = warm.clone();
    probe.reset_counters();
    for &(blk, write) in &trace {
        probe.access(blk, write);
    }
    assert!(
        probe.hit_ratio() >= 0.9,
        "hit ratio {} is below the regime this row stands for",
        probe.hit_ratio()
    );
    c.bench_function("driver/lrfu_hit_102k", |b| {
        let mut cache = warm.clone();
        let mut window = trace.chunks(4096).cycle();
        b.iter(|| {
            let mut hits = 0u64;
            for &(blk, write) in window.next().expect("cycle of a non-empty trace") {
                hits += cache.access(blk, write).hit as u64;
            }
            black_box(hits)
        })
    });
}

fn bench_bus_lut(c: &mut Criterion) {
    let bus = AnalyticBus::new(&DramConfig::ddr3_1600());
    c.bench_function("driver/bus_slowdown_lut_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1000 {
                acc += bus.slowdown(i as f64 / 1000.0);
            }
            black_box(acc)
        })
    });
}

fn bench_report_build(c: &mut Criterion) {
    // The series are Arc-shared into the report, so building one is O(1)
    // in series length; this measures exactly the end-of-run path.
    let mut cfg = NodeConfig::small();
    cfg.policy = PolicyKind::Bca;
    cfg.train_requests = 40;
    let mut sim = NodeSim::new(cfg, 42);
    for p in nvhsm_workload::hibench::all_profiles().into_iter().take(3) {
        let blocks = p.working_set_blocks / 16;
        sim.add_workload(p.with_working_set(blocks));
    }
    sim.run_secs(2);
    c.bench_function("driver/report_build", |b| {
        b.iter(|| black_box(sim.run(SimDuration::ZERO)))
    });
}

fn bench_replay_journal(c: &mut Criterion) {
    // The crash-recovery hot kernel: rebuilding a suspended migration's
    // location map from the journaled checkpoint. 256 Ki blocks (a 1 GiB
    // VMDK) with half the copy done at checkpoint time, further progress
    // and scattered dirty/stale traffic lost to the crash.
    const BLOCKS: u64 = 262_144;
    let mut m = ActiveMigration::new(
        VmdkId(0),
        DatastoreId(0),
        DatastoreId(1),
        MigrationMode::Mirror,
        BLOCKS,
        SimTime::ZERO,
    );
    let mut rng = SimRng::new(3);
    for _ in 0..BLOCKS / 2 {
        if let Some(b) = m.next_copy_block() {
            m.record_copied(b);
        }
    }
    let journal = (m.bitmap.clone(), m.cursor);
    for _ in 0..BLOCKS / 4 {
        if let Some(b) = m.next_copy_block() {
            m.record_copied(b);
        }
    }
    for _ in 0..4_096 {
        m.record_mirrored_write(rng.below(BLOCKS));
        m.record_stale_write(rng.below(BLOCKS));
    }
    let crashed = m;
    c.bench_function("driver/replay_journal_256k", |b| {
        b.iter(|| {
            let mut m = crashed.clone();
            let dropped = m.crash_restore(Some((&journal.0, journal.1)));
            black_box((m.bitmap.count_set(), dropped))
        })
    });
}

fn bench_shard_scan(c: &mut Criterion) {
    // The serving-plane placement kernel at datacenter scale: a warm
    // 1,000-node fleet (3,000 datastores) with load spread across it, one
    // arriving VMDK to place. The sharded engine binary-searches its home
    // shard (5 nodes = 15 stores) and scans only that, since the home
    // shard accepts (the summary table is built only to spill); the flat
    // manager scans all 3,000 stores: one Eq. 5 evaluation per store, then
    // the O(slice²) sum and imbalance preview over the candidates.
    let mut cfg = ServingConfig::small(1000);
    cfg.train_requests = 20;
    let mut sim = ServingSim::new(cfg);
    for t in 0..600u32 {
        let spec = nvhsm_workload::tenant::TenantSpec {
            tenant: t,
            home_node: (t as usize * 37) % 1000,
            slo_us: 2_000.0,
            class: nvhsm_workload::tenant::TenantClass::Standard,
            vmdks: vec![nvhsm_workload::tenant::VmdkDemand {
                blocks: 20_000,
                iops: 120.0,
                wr_ratio: 0.3,
                rd_rand: 0.6,
                wr_rand: 0.4,
                mean_size_blocks: 8.0,
            }],
        };
        let _ = sim.admit_tenant(&spec);
    }
    sim.run_epoch();
    let obs = sim.observations();

    let net = NetworkCosts {
        hop_us: 120.0,
        per_block_us: 0.0,
    };
    let mut sharded = ShardedPolicyEngine::new(
        Manager::new(PolicyKind::Pesto, 1.0, pretrain_models(20, 11)),
        5,
    );
    sharded.set_network(net);
    let mut flat = Manager::new(PolicyKind::Pesto, 1.0, pretrain_models(20, 11));
    flat.set_network(net);

    let base = 120.0;
    let arrival = ResidentInfo {
        vmdk: VmdkId(1_000_000),
        size_blocks: 20_000,
        features: Features {
            wr_ratio: 0.3,
            oios: 120.0 * base * 1e-6,
            ios: 8.0,
            wr_rand: 0.4,
            rd_rand: 0.6,
            free_space_ratio: 1.0,
        },
        io_count: 7_200,
        mean_latency_us: base,
        live_blocks: 57_600,
    };

    c.bench_function("driver/shard_summaries_3k_stores", |b| {
        b.iter(|| black_box(shard_summaries(obs, 5)))
    });
    c.bench_function("driver/placement_scan_1k_sharded", |b| {
        b.iter(|| black_box(sharded.initial_placement_from(obs, &arrival, Some(500))))
    });
    // Baseline: the O(cluster) scan sharding replaces.
    c.bench_function("driver/placement_scan_1k_flat", |b| {
        b.iter(|| black_box(flat.initial_placement_from(obs, &arrival, Some(500))))
    });
}

fn bench_metrics_settle(c: &mut Criterion) {
    // `ServingSim::settle_qos` writes one gauge and one counter per live
    // tenant every epoch. The registry holds 4,096 tenants' keys beside
    // the lifecycle counters admissions leave behind and per-store
    // totals; one iteration is one settle pass over every tenant.
    const TENANTS: u32 = 4096;
    let mut reg = MetricsRegistry::new();
    for t in 0..TENANTS {
        reg.counter_inc("tenant_admitted", "", t);
        reg.counter_inc("tenant_slo_epochs", "", t);
        reg.gauge_set("tenant_p99_us", "", t, 0.0);
        reg.counter_add("served_ios", "tenant", t, 0);
    }
    for s in 0..1152 {
        reg.counter_add("served_ios", "store", s, 1);
    }
    c.bench_function("driver/metrics_settle_4k", |b| {
        let mut epoch = 0.0;
        b.iter(|| {
            epoch += 1.0;
            for t in 0..TENANTS {
                reg.gauge_set("tenant_p99_us", "", t, epoch + f64::from(t));
                reg.counter_add("served_ios", "tenant", t, 7_200);
            }
            black_box(reg.counter("served_ios", "tenant", TENANTS - 1))
        })
    });
}

/// A deliberately small device-level scenario for grid-throughput runs.
fn small_scenario(seed: u64) -> f64 {
    let mut dev = SsdDevice::new(SsdConfig::small_test());
    dev.prefill(0..dev.logical_blocks() / 4);
    let mut rng = SimRng::new(seed);
    let mut t = SimTime::ZERO;
    let mut sum = 0.0;
    let span = dev.logical_blocks() / 4;
    for i in 0..2_000u64 {
        let op = if i % 4 == 0 { IoOp::Write } else { IoOp::Read };
        let c = dev.submit(&IoRequest::normal(0, rng.below(span), 2, op, t));
        sum += c.latency.as_us_f64();
        t += SimDuration::from_us(30);
    }
    sum
}

fn bench_grid(c: &mut Criterion) {
    const TASKS: usize = 16;
    let mut group = c.benchmark_group("driver");
    group.sample_size(10);
    group.bench_function("grid_16_jobs1", |b| {
        parallel::set_jobs(Some(1));
        b.iter(|| {
            let out = parallel::map_grid((0..TASKS as u64).collect(), small_scenario);
            black_box(out)
        });
        parallel::set_jobs(None);
    });
    group.bench_function("grid_16_jobs_all", |b| {
        parallel::set_jobs(None);
        b.iter(|| {
            let out = parallel::map_grid((0..TASKS as u64).collect(), small_scenario);
            black_box(out)
        })
    });
    group.finish();
}

fn bench_single_scenario(c: &mut Criterion) {
    // One full standard-mix scenario at Quick scale: the unit of work the
    // driver fans out. Quick covers 8 simulated seconds of measured window,
    // so ns/iter ÷ 8e3 gives ns per simulated millisecond.
    let mut group = c.benchmark_group("driver");
    group.sample_size(2);
    group.bench_function("single_scenario_quick_8sim_s", |b| {
        b.iter(|| black_box(run_mix(MixParams::standard(PolicyKind::Bca), Scale::Quick)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_pretrain,
    bench_ftl_prefill,
    bench_predict,
    bench_cache_probe,
    bench_bus_lut,
    bench_report_build,
    bench_replay_journal,
    bench_metrics_settle,
    bench_shard_scan,
    bench_grid,
    bench_single_scenario
);
criterion_main!(benches);
