//! Property tests for the metrics layer: histogram algebra (merge
//! associativity, quantile monotonicity, bucket-boundary resolution),
//! registry snapshot/restore round-trips, and the registry's key order
//! against a flat `BTreeMap<MetricKey, _>` reference.

use nvhsm_obs::{MetricKey, MetricsRegistry, MetricsSnapshot};
use nvhsm_sim::Histogram;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn hist_of(xs: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &x in xs {
        h.add(x);
    }
    h
}

/// The bucket-exact state of a histogram: count, quantiles and max are all
/// integer/bucket arithmetic, so equality is exact. The Welford mean is
/// checked separately with a floating tolerance (merge order perturbs the
/// last bits).
fn fingerprint(h: &Histogram) -> (u64, f64, f64, f64, Option<f64>) {
    (h.count(), h.p50(), h.p95(), h.p99(), h.max())
}

fn mean_close(a: &Histogram, b: &Histogram) -> bool {
    (a.mean() - b.mean()).abs() <= 1e-9 * (1.0 + a.mean().abs())
}

proptest! {
    /// Merging in either association order yields the same histogram:
    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn prop_histogram_merge_associative(
        xs in proptest::collection::vec(0.5f64..1e7, 0..120),
        ys in proptest::collection::vec(0.5f64..1e7, 0..120),
        zs in proptest::collection::vec(0.5f64..1e7, 0..120),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
        prop_assert!(mean_close(&left, &right));
    }

    /// Merging two histograms matches adding all samples to one.
    #[test]
    fn prop_histogram_merge_equals_sequential(
        xs in proptest::collection::vec(0.5f64..1e7, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut merged = hist_of(&xs[..split]);
        merged.merge(&hist_of(&xs[split..]));
        let whole = hist_of(&xs);
        prop_assert_eq!(fingerprint(&merged), fingerprint(&whole));
        prop_assert!(mean_close(&merged, &whole));
    }

    /// Quantiles are monotone in p for any sample set, and p50/p95/p99 come
    /// out ordered in the registry summary.
    #[test]
    fn prop_quantiles_monotone(
        xs in proptest::collection::vec(1.0f64..1e8, 1..250),
    ) {
        let mut r = MetricsRegistry::new();
        for &x in &xs {
            r.observe("latency_us", "SSD", 0, x);
        }
        let s = &r.summaries()[0];
        prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{s:?}");
        let h = r.histogram("latency_us", "SSD", 0).unwrap();
        let mut last = 0.0;
        for p in [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= last, "p{p} gave {v} < {last}");
            last = v;
        }
    }

    /// A single sample sitting exactly on a log-bucket boundary
    /// (`10^(k/80)`, the 80-buckets-per-decade edge) reads back within the
    /// histogram's ~±1 bucket relative resolution from every quantile.
    #[test]
    fn prop_bucket_boundary_values_resolve(k in 0u32..560) {
        let value = 10f64.powf(k as f64 / 80.0);
        let mut h = Histogram::new();
        h.add(value);
        // One bucket spans a factor of 10^(1/80); boundary values may land
        // on either side of the edge, so allow 1.5 bucket widths of error.
        let tol = 10f64.powf(1.5 / 80.0);
        for p in [1.0, 50.0, 99.0] {
            let est = h.percentile(p);
            prop_assert!(
                est >= value / tol && est <= value * tol,
                "boundary 10^({k}/80) = {value} estimated as {est} at p{p}"
            );
        }
    }

    /// snapshot → JSON → restore reproduces every counter, gauge and
    /// histogram fingerprint.
    #[test]
    fn prop_registry_snapshot_restore_round_trip(
        counters in proptest::collection::vec((0u32..4, 0u32..3, 1u64..1000), 0..12),
        gauges in proptest::collection::vec((0u32..4, 0u32..3, -1e6f64..1e6), 0..12),
        samples in proptest::collection::vec((0u32..2, 1.0f64..1e6), 0..60),
    ) {
        const NAMES: [&str; 4] = ["io_errors", "retries", "mirror_fallbacks", "imbalance"];
        const DEVICES: [&str; 3] = ["NVDIMM", "SSD", "HDD"];
        let mut r = MetricsRegistry::new();
        for &(n, d, v) in &counters {
            r.counter_add(NAMES[n as usize], DEVICES[d as usize], d, v);
        }
        for &(n, d, v) in &gauges {
            r.gauge_set(NAMES[n as usize], DEVICES[d as usize], d, v);
        }
        for &(d, v) in &samples {
            r.observe("latency_us", DEVICES[d as usize], 0, v);
        }

        let text = serde_json::to_string(&r.snapshot()).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        let restored = MetricsRegistry::restore(&back);

        for &(n, d, _) in &counters {
            prop_assert_eq!(
                restored.counter(NAMES[n as usize], DEVICES[d as usize], d),
                r.counter(NAMES[n as usize], DEVICES[d as usize], d)
            );
        }
        for &(n, d, _) in &gauges {
            prop_assert_eq!(
                restored.gauge(NAMES[n as usize], DEVICES[d as usize], d),
                r.gauge(NAMES[n as usize], DEVICES[d as usize], d)
            );
        }
        for dev in DEVICES {
            let (a, b) = (
                r.histogram("latency_us", dev, 0),
                restored.histogram("latency_us", dev, 0),
            );
            match (a, b) {
                (Some(a), Some(b)) => prop_assert_eq!(fingerprint(a), fingerprint(b)),
                (None, None) => {}
                _ => prop_assert!(false, "histogram presence diverged for {}", dev),
            }
        }
        // The report built from the restored registry is byte-identical.
        prop_assert_eq!(
            serde_json::to_string(&restored.report()).unwrap(),
            serde_json::to_string(&r.report()).unwrap()
        );
    }
}

/// Names that are prefixes of each other, so a nested table that ordered
/// by anything but bytewise string order would misplace them.
const NAMES: [&str; 6] = [
    "io",
    "io_errors",
    "io_errors_x",
    "latency_us",
    "l",
    "served_ios",
];
/// Every device label the simulator writes, plus `""`.
const DEVICES: [&str; 7] = ["", "HDD", "NIC", "NVDIMM", "SSD", "store", "tenant"];

/// One random registry write: kind (counter, gauge, histogram), name,
/// device, node and value.
type Write = (u8, usize, usize, u32, f64);

fn writes() -> impl Strategy<Value = Vec<Write>> {
    let node = (0u8..4, 0u32..4, 0u32..u32::MAX).prop_map(|(k, small, any)| match k {
        0 => u32::MAX,
        1 => any,
        _ => small,
    });
    proptest::collection::vec(
        (0u8..3, 0..NAMES.len(), 0..DEVICES.len(), node, 1.0f64..1e6),
        0..80,
    )
}

/// A flat-keyed reference registry: today's observable order.
#[derive(Default)]
struct Reference {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl Reference {
    fn apply(&mut self, reg: &mut MetricsRegistry, ws: &[Write]) {
        for &(kind, n, d, node, v) in ws {
            let (name, device) = (NAMES[n], DEVICES[d]);
            let key = MetricKey::new(name, device, node);
            match kind {
                0 => {
                    reg.counter_add(name, device, node, v as u64);
                    *self.counters.entry(key).or_insert(0) += v as u64;
                }
                1 => {
                    reg.gauge_set(name, device, node, v);
                    self.gauges.insert(key, v);
                }
                _ => {
                    reg.observe(name, device, node, v);
                    self.histograms.entry(key).or_default().add(v);
                }
            }
        }
    }

    fn merge(&mut self, other: &Reference) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Asserts that every listing of `reg` names exactly this reference's
    /// keys, in its order, with its values.
    fn check(&self, reg: &MetricsRegistry) {
        let snap = reg.snapshot();
        let counters: Vec<(MetricKey, u64)> = snap
            .counters
            .iter()
            .map(|c| (c.key.clone(), c.value))
            .collect();
        let want: Vec<(MetricKey, u64)> =
            self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect();
        assert_eq!(counters, want);
        let gauges: Vec<(MetricKey, f64)> = snap
            .gauges
            .iter()
            .map(|g| (g.key.clone(), g.value))
            .collect();
        let want: Vec<(MetricKey, f64)> =
            self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect();
        assert_eq!(gauges, want);
        let hists: Vec<(MetricKey, u64)> = snap
            .histograms
            .iter()
            .map(|h| (h.key.clone(), h.hist.count()))
            .collect();
        let want: Vec<(MetricKey, u64)> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.count()))
            .collect();
        assert_eq!(hists, want);

        let report = reg.report();
        assert_eq!(report.counters, snap.counters);
        assert_eq!(report.gauges, snap.gauges);
        let summaries = reg.summaries();
        assert_eq!(report.histograms, summaries);
        let summary_keys: Vec<MetricKey> = summaries
            .iter()
            .map(|s| MetricKey::new(&s.name, &s.device, s.node))
            .collect();
        let want: Vec<MetricKey> = self.histograms.keys().cloned().collect();
        assert_eq!(summary_keys, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `snapshot()`, `report()` and `summaries()` list exactly the keys of
    /// a flat `BTreeMap<MetricKey, _>` fed the same writes, in its order —
    /// also after `merge` and `restore`. This order is what keeps the
    /// `--metrics` JSON byte-identical.
    #[test]
    fn prop_registry_lists_keys_in_metric_key_order(a in writes(), b in writes()) {
        let (mut reg_a, mut ref_a) = (MetricsRegistry::new(), Reference::default());
        ref_a.apply(&mut reg_a, &a);
        ref_a.check(&reg_a);

        let (mut reg_b, mut ref_b) = (MetricsRegistry::new(), Reference::default());
        ref_b.apply(&mut reg_b, &b);
        reg_a.merge(&reg_b);
        ref_a.merge(&ref_b);
        ref_a.check(&reg_a);

        let restored = MetricsRegistry::restore(&reg_a.snapshot());
        ref_a.check(&restored);
    }
}
