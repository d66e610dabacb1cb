//! Metrics registry: counters, gauges and latency histograms keyed by
//! metric name, device and node.
//!
//! The registry reuses [`nvhsm_sim::Histogram`] — the workspace's single
//! log-bucketed histogram with one definition of p50/p95/p99 — rather than
//! introducing a second quantile implementation. Values live in nested
//! `BTreeMap`s (name → device → node) so every snapshot and report
//! iterates in a deterministic order: [`MetricKey`]'s.

use nvhsm_sim::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Registry key: metric name plus the (device, node) pair it describes.
///
/// Node-global metrics use an empty device label; single-node scenarios use
/// node 0.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricKey {
    /// Metric name, e.g. `io_errors` or `latency_us`.
    pub name: String,
    /// Device kind label (`NVDIMM` / `SSD` / `HDD`) or `""` for node-level.
    pub device: String,
    /// Node id (0 for single-node scenarios).
    pub node: u32,
}

impl MetricKey {
    /// Builds a key; `device` may be empty for node-level metrics.
    pub fn new(name: &str, device: &str, node: u32) -> Self {
        MetricKey {
            name: name.to_string(),
            device: device.to_string(),
            node,
        }
    }
}

/// One metric kind's values, nested `name → device → node`.
///
/// Walking the nesting visits keys in [`MetricKey`]'s derived order (name,
/// then device, then node), the order one flat `BTreeMap<MetricKey, _>`
/// would give. A write compares strings only among the few dozen names and
/// the handful of device labels; the thousands of per-tenant keys under
/// one name are `u32` compares (DESIGN.md §10).
type Table<V> = BTreeMap<String, BTreeMap<String, BTreeMap<u32, V>>>;

/// Applies `f` to the value under `(name, device, node)`, creating it with
/// `V::default()` first. Allocates only for a name or device label the
/// table has not seen yet.
fn update<V: Default>(
    table: &mut Table<V>,
    name: &str,
    device: &str,
    node: u32,
    f: impl FnOnce(&mut V),
) {
    let devices = match table.get_mut(name) {
        Some(devices) => devices,
        None => table.entry(name.to_owned()).or_default(),
    };
    let nodes = match devices.get_mut(device) {
        Some(nodes) => nodes,
        None => devices.entry(device.to_owned()).or_default(),
    };
    f(nodes.entry(node).or_default());
}

/// The value under `(name, device, node)`, if recorded.
fn lookup<'t, V>(table: &'t Table<V>, name: &str, device: &str, node: u32) -> Option<&'t V> {
    table.get(name)?.get(device)?.get(&node)
}

/// Every `(name, device, node, value)` of a table, in key order.
fn entries<V>(table: &Table<V>) -> impl Iterator<Item = (&str, &str, u32, &V)> {
    table.iter().flat_map(|(name, devices)| {
        devices.iter().flat_map(move |(device, nodes)| {
            nodes
                .iter()
                .map(move |(&node, v)| (name.as_str(), device.as_str(), node, v))
        })
    })
}

/// Counters, gauges and latency histograms for one simulation scenario.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Table<u64>,
    gauges: Table<f64>,
    histograms: Table<Histogram>,
}

/// One histogram's quantile summary (all quantiles come from
/// [`Histogram::p50`]/[`Histogram::p95`]/[`Histogram::p99`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSummary {
    /// Metric name.
    pub name: String,
    /// Device kind label or `""`.
    pub device: String,
    /// Node id.
    pub node: u32,
    /// Sample count.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// Serializable full state of a registry; restoring it reproduces the
/// registry exactly (including histogram bucket counts).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(key, value)` pairs in key order.
    pub counters: Vec<CounterEntry>,
    /// `(key, value)` pairs in key order.
    pub gauges: Vec<GaugeEntry>,
    /// `(key, histogram)` pairs in key order.
    pub histograms: Vec<HistogramEntry>,
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Registry key.
    pub key: MetricKey,
    /// Monotonic count.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Registry key.
    pub key: MetricKey,
    /// Last set value.
    pub value: f64,
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Registry key.
    pub key: MetricKey,
    /// Full histogram state.
    pub hist: Histogram,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a monotonic counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, device: &str, node: u32, delta: u64) {
        update(&mut self.counters, name, device, node, |c| *c += delta);
    }

    /// Convenience for `counter_add(..., 1)`.
    pub fn counter_inc(&mut self, name: &str, device: &str, node: u32) {
        self.counter_add(name, device, node, 1);
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, device: &str, node: u32, value: f64) {
        update(&mut self.gauges, name, device, node, |g| *g = value);
    }

    /// Records one sample into a latency histogram, creating it on first
    /// use.
    pub fn observe(&mut self, name: &str, device: &str, node: u32, value: f64) {
        update(&mut self.histograms, name, device, node, |h| h.add(value));
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str, device: &str, node: u32) -> u64 {
        lookup(&self.counters, name, device, node)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a gauge (`None` if never set).
    pub fn gauge(&self, name: &str, device: &str, node: u32) -> Option<f64> {
        lookup(&self.gauges, name, device, node).copied()
    }

    /// The histogram behind a metric, if any samples were recorded.
    pub fn histogram(&self, name: &str, device: &str, node: u32) -> Option<&Histogram> {
        lookup(&self.histograms, name, device, node)
    }

    /// Merges another registry into this one (counters add, gauges take
    /// the other's value, histograms merge bucket-wise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, device, node, &v) in entries(&other.counters) {
            update(&mut self.counters, name, device, node, |c| *c += v);
        }
        for (name, device, node, &v) in entries(&other.gauges) {
            update(&mut self.gauges, name, device, node, |g| *g = v);
        }
        for (name, device, node, h) in entries(&other.histograms) {
            update(&mut self.histograms, name, device, node, |mine| {
                mine.merge(h)
            });
        }
    }

    /// Quantile summaries of every histogram, in key order.
    pub fn summaries(&self) -> Vec<QuantileSummary> {
        entries(&self.histograms)
            .map(|(name, device, node, h)| QuantileSummary {
                name: name.to_owned(),
                device: device.to_owned(),
                node,
                count: h.count(),
                mean: h.mean(),
                p50: h.p50(),
                p95: h.p95(),
                p99: h.p99(),
                max: h.max().unwrap_or(0.0),
            })
            .collect()
    }

    /// Full serializable state, in key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: entries(&self.counters)
                .map(|(name, device, node, &value)| CounterEntry {
                    key: MetricKey::new(name, device, node),
                    value,
                })
                .collect(),
            gauges: entries(&self.gauges)
                .map(|(name, device, node, &value)| GaugeEntry {
                    key: MetricKey::new(name, device, node),
                    value,
                })
                .collect(),
            histograms: entries(&self.histograms)
                .map(|(name, device, node, h)| HistogramEntry {
                    key: MetricKey::new(name, device, node),
                    hist: h.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a registry from a snapshot.
    pub fn restore(snapshot: &MetricsSnapshot) -> Self {
        let mut reg = MetricsRegistry::new();
        for CounterEntry { key, value } in &snapshot.counters {
            update(&mut reg.counters, &key.name, &key.device, key.node, |c| {
                *c = *value
            });
        }
        for GaugeEntry { key, value } in &snapshot.gauges {
            update(&mut reg.gauges, &key.name, &key.device, key.node, |g| {
                *g = *value
            });
        }
        for HistogramEntry { key, hist } in &snapshot.histograms {
            update(&mut reg.histograms, &key.name, &key.device, key.node, |h| {
                *h = hist.clone()
            });
        }
        reg
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Serializable report of a registry: raw counters and gauges plus
/// quantile summaries (not full buckets) for histograms. This is what
/// `--metrics` dumps next to the `--json` experiment output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Counters in key order.
    pub counters: Vec<CounterEntry>,
    /// Gauges in key order.
    pub gauges: Vec<GaugeEntry>,
    /// Histogram quantile summaries in key order.
    pub histograms: Vec<QuantileSummary>,
}

impl MetricsRegistry {
    /// Compact report for human/JSON consumption.
    pub fn report(&self) -> MetricsReport {
        let snap = self.snapshot();
        MetricsReport {
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: self.summaries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.counter_inc("io_errors", "SSD", 0);
        r.counter_add("io_errors", "SSD", 0, 2);
        r.counter_inc("io_errors", "HDD", 0);
        assert_eq!(r.counter("io_errors", "SSD", 0), 3);
        assert_eq!(r.counter("io_errors", "HDD", 0), 1);
        assert_eq!(r.counter("io_errors", "NVDIMM", 0), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.gauge("imbalance", "", 0), None);
        r.gauge_set("imbalance", "", 0, 0.4);
        r.gauge_set("imbalance", "", 0, 0.7);
        assert_eq!(r.gauge("imbalance", "", 0), Some(0.7));
    }

    #[test]
    fn histograms_route_through_shared_quantiles() {
        let mut r = MetricsRegistry::new();
        for i in 1..=1000 {
            r.observe("latency_us", "SSD", 0, i as f64);
        }
        let h = r.histogram("latency_us", "SSD", 0).unwrap();
        assert_eq!(h.p99(), h.percentile(99.0));
        let s = &r.summaries()[0];
        assert_eq!(s.count, 1000);
        assert_eq!(s.p99, h.p99());
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("retries", "", 1, 5);
        r.gauge_set("health", "SSD", 1, 2.0);
        for v in [10.0, 200.0, 3000.0] {
            r.observe("latency_us", "HDD", 1, v);
        }
        let snap = r.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        let restored = MetricsRegistry::restore(&back);
        assert_eq!(restored.counter("retries", "", 1), 5);
        assert_eq!(restored.gauge("health", "SSD", 1), Some(2.0));
        let (a, b) = (
            r.histogram("latency_us", "HDD", 1).unwrap(),
            restored.histogram("latency_us", "HDD", 1).unwrap(),
        );
        assert_eq!(a.count(), b.count());
        assert_eq!(a.p99(), b.p99());
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("ios", "SSD", 0, 2);
        b.counter_add("ios", "SSD", 0, 3);
        b.gauge_set("health", "SSD", 0, 1.0);
        a.observe("latency_us", "SSD", 0, 10.0);
        b.observe("latency_us", "SSD", 0, 1000.0);
        a.merge(&b);
        assert_eq!(a.counter("ios", "SSD", 0), 5);
        assert_eq!(a.gauge("health", "SSD", 0), Some(1.0));
        assert_eq!(a.histogram("latency_us", "SSD", 0).unwrap().count(), 2);
    }
}
