//! Observation plumbing for the experiment CLI (`--trace` / `--metrics`).
//!
//! Experiments fan scenarios out over worker threads (`nvhsm_sim::parallel`),
//! so trace collection cannot simply share one sink: event interleaving
//! across scenarios would depend on the worker count. Instead every scenario
//! records into its own private `RingSink`, and the collector orders the
//! finished captures by `(grid, case)` — the grid serial is assigned on the
//! (serial) experiment thread before the fan-out, the case index is the
//! scenario's position in its grid. The rendered JSONL is therefore
//! byte-identical for `--jobs 1` and `--jobs 8`.
//!
//! This module is the one capture path. A grid driver hands its cases to
//! `map_grid`, which takes the serial, fans out, and files each case's
//! [`Observation`]; the per-case runner arms a `Capture` from the options
//! it is given, attaches it to its simulator and finishes it into that
//! `Observation`. Serial scheduler runs use `with_sched_trace`. A new
//! per-scenario channel is one more field on `Capture` and `Observation`.
//!
//! Observation is process-global but scoped: [`set_observation`] arms it for
//! one experiment run, [`take_observations`] drains the captures. With
//! observation off (the default) no serial is taken, no sink is built and
//! the simulators run their byte-identical no-sink path.

use nvhsm_core::NodeSim;
use nvhsm_obs::{
    drain_ring_stats, shared, MetricsRegistry, MetricsReport, MetricsSnapshot, RingSink,
    SharedSink, TraceEvent,
};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-scenario trace buffer capacity. A ring keeps the *last* N events, so
/// long runs degrade to a suffix (with [`Observation::dropped`] recording
/// the truncation) instead of unbounded memory.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// What the current experiment run should capture.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Capture trace events per scenario.
    pub trace: bool,
    /// Capture the metrics registry per scenario.
    pub metrics: bool,
}

impl ObsOptions {
    /// Observation disabled: the zero-cost default.
    pub const OFF: ObsOptions = ObsOptions {
        trace: false,
        metrics: false,
    };

    /// Whether any capture is requested.
    pub fn enabled(self) -> bool {
        self.trace || self.metrics
    }
}

/// One scenario's capture, filed under its grid, case and label.
#[derive(Debug, Clone)]
pub struct ScenarioObs {
    /// Serial of the grid (fan-out) this scenario belonged to.
    pub grid: u64,
    /// Position within the grid.
    pub case: u64,
    /// Human-readable scenario description.
    pub label: String,
    /// What the scenario captured.
    pub obs: Observation,
}

/// JSONL header line written before each scenario's events in a trace file.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioHeader {
    /// Experiment id the scenario ran under.
    pub experiment: String,
    /// Grid serial.
    pub grid: u64,
    /// Case index within the grid.
    pub case: u64,
    /// Scenario label.
    pub label: String,
    /// Number of event lines that follow.
    pub events: u64,
    /// Events lost to the ring cap (0 = the trace is complete).
    pub dropped: u64,
}

/// Per-experiment metrics dump (`--metrics`).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsDump {
    /// Experiment id.
    pub experiment: String,
    /// One entry per observed scenario, grid order.
    pub scenarios: Vec<ScenarioMetrics>,
}

/// One scenario's metrics in a [`MetricsDump`].
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMetrics {
    /// Scenario label.
    pub label: String,
    /// Counters, gauges and latency quantile summaries.
    pub report: MetricsReport,
}

static OPTIONS: Mutex<ObsOptions> = Mutex::new(ObsOptions::OFF);
static GRID_SERIAL: AtomicU64 = AtomicU64::new(0);
static COLLECTED: Mutex<Vec<ScenarioObs>> = Mutex::new(Vec::new());

/// Arms (or disarms) observation for the next experiment run and clears any
/// previous captures.
pub fn set_observation(opts: ObsOptions) {
    *OPTIONS.lock().expect("obs options poisoned") = opts;
    GRID_SERIAL.store(0, Ordering::SeqCst);
    COLLECTED.lock().expect("obs collector poisoned").clear();
}

fn options() -> ObsOptions {
    *OPTIONS.lock().expect("obs options poisoned")
}

/// Allocates the next grid serial. Called on the serial experiment thread
/// *before* a fan-out, so serials are independent of the worker count.
fn next_grid() -> u64 {
    GRID_SERIAL.fetch_add(1, Ordering::SeqCst)
}

/// Files one finished scenario capture. Safe from grid workers; ordering
/// is restored by [`take_observations`].
fn record(grid: u64, case: u64, label: String, obs: Observation) {
    let filed = ScenarioObs {
        grid,
        case,
        label,
        obs,
    };
    COLLECTED
        .lock()
        .expect("obs collector poisoned")
        .push(filed);
}

/// Drains all captures recorded since the last [`set_observation`], ordered
/// by `(grid, case)`.
pub fn take_observations() -> Vec<ScenarioObs> {
    let mut out = std::mem::take(&mut *COLLECTED.lock().expect("obs collector poisoned"));
    out.sort_by_key(|o| (o.grid, o.case));
    out
}

/// What one scenario captured alongside its result.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Trace events, simulation order (a suffix when `dropped > 0`).
    pub events: Vec<TraceEvent>,
    /// Final metrics registry state, when metrics capture was on.
    pub metrics: Option<MetricsSnapshot>,
    /// Events evicted from the capture ring.
    pub dropped: u64,
}

/// One scenario's capture while it runs: its private trace ring when
/// tracing is armed, and whether its metrics registry is kept.
pub(crate) struct Capture {
    sink: Option<SharedSink>,
    metrics: bool,
}

impl Capture {
    /// Arms a capture for `opts`. With [`ObsOptions::OFF`] it holds no
    /// sink and keeps no registry.
    pub(crate) fn new(opts: ObsOptions) -> Self {
        Capture {
            sink: opts
                .trace
                .then(|| shared(RingSink::new(TRACE_RING_CAPACITY))),
            metrics: opts.metrics,
        }
    }

    /// The trace sink to hand a simulator: `None` unless tracing is armed.
    pub(crate) fn sink(&self) -> &Option<SharedSink> {
        &self.sink
    }

    /// Attaches the sink to `sim` and enables its metrics registry, each
    /// only when armed; unarmed, `sim` keeps its no-observation path.
    pub(crate) fn attach(&self, sim: &mut NodeSim) {
        if let Some(sink) = &self.sink {
            sim.set_trace_sink(Some(sink.clone()));
        }
        if self.metrics {
            sim.enable_metrics();
        }
    }

    /// Drains the ring, and snapshots `metrics` when metrics capture is
    /// armed.
    pub(crate) fn finish(self, metrics: Option<&MetricsRegistry>) -> Observation {
        let (events, dropped) = match &self.sink {
            Some(sink) => drain_ring_stats(sink),
            None => (Vec::new(), 0),
        };
        Observation {
            events,
            metrics: metrics
                .filter(|_| self.metrics)
                .map(MetricsRegistry::snapshot),
            dropped,
        }
    }
}

/// The label of a case whose `Debug` form describes it.
pub(crate) fn debug_label<C: std::fmt::Debug>(case: &C) -> String {
    format!("{case:?}")
}

/// Runs `cases` as one scenario grid through
/// [`nvhsm_sim::parallel::map_grid`] and returns the results in input
/// order. `run` gets each case with the armed options. When observation
/// is armed, each case's capture is filed under this grid's serial, its
/// input position and `label(&case)`; otherwise no serial is taken and no
/// label formatted.
pub(crate) fn map_grid<C, R>(
    cases: Vec<C>,
    label: impl Fn(&C) -> String + Sync,
    run: impl Fn(C, ObsOptions) -> (R, Observation) + Sync,
) -> Vec<R>
where
    C: Send,
    R: Send,
{
    let opts = options();
    let grid = opts.enabled().then(next_grid);
    let indexed: Vec<(u64, C)> = (0..).zip(cases).collect();
    nvhsm_sim::parallel::map_grid(indexed, |(case, c)| {
        let label = grid.map(|_| label(&c));
        let (result, obs) = run(c, opts);
        if let (Some(grid), Some(label)) = (grid, label) {
            record(grid, case, label, obs);
        }
        result
    })
}

/// Runs `f` with a trace sink when tracing is armed, recording the captured
/// events as one single-case grid under `label`. The serial form of
/// `map_grid`, for one scheduler run at a time (fig9, fig10).
pub(crate) fn with_sched_trace<R>(label: String, f: impl FnOnce(&Option<SharedSink>) -> R) -> R {
    let opts = options();
    if !opts.trace {
        return f(&None);
    }
    let capture = Capture::new(opts);
    let result = f(capture.sink());
    record(next_grid(), 0, label, capture.finish(None));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    // Observation state is process-global; tests touching it must not
    // interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn off_by_default_and_sched_scope_passes_none() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_observation(ObsOptions::OFF);
        assert!(!options().enabled());
        let saw_sink = with_sched_trace("t".into(), |sink| sink.is_some());
        assert!(!saw_sink);
        // Disarmed scopes record nothing (grids from other tests may have
        // raced in; only our label matters).
        assert!(take_observations().iter().all(|o| o.label != "t"));
    }

    #[test]
    fn captures_sort_by_grid_then_case() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_observation(ObsOptions {
            trace: true,
            metrics: false,
        });
        let g = next_grid();
        for case in [2u64, 0, 1] {
            record(g, case, format!("c{case}"), Observation::default());
        }
        let got = take_observations();
        // Other tests may run grids concurrently; look only at our grid.
        let cases: Vec<u64> = got.iter().filter(|o| o.grid == g).map(|o| o.case).collect();
        assert_eq!(cases, vec![0, 1, 2]);
        set_observation(ObsOptions::OFF);
    }

    /// A `map_grid` runner: emits one event into its capture and keeps a
    /// one-counter registry; returns ten times the case and the options
    /// it was handed.
    fn capture_case(case: u32, opts: ObsOptions) -> ((u32, ObsOptions), Observation) {
        let capture = Capture::new(opts);
        nvhsm_obs::emit(capture.sink(), || TraceEvent::TenantRetire {
            t: 0,
            tenant: case,
            violations: 0,
        });
        let mut registry = MetricsRegistry::new();
        registry.counter_inc("cases", "", case);
        ((case * 10, opts), capture.finish(Some(&registry)))
    }

    #[test]
    fn map_grid_files_one_capture_per_case_only_when_armed() {
        let _guard = TEST_LOCK.lock().unwrap();
        // Other unit tests run grids concurrently; only our labels count.
        let ours = |o: &ScenarioObs| o.label.starts_with("map_grid/");
        let label = |c: &u32| format!("map_grid/{c}");

        let off = ObsOptions::OFF;
        set_observation(off);
        let out = map_grid(vec![3u32, 1, 2], label, capture_case);
        assert_eq!(out, [(30, off), (10, off), (20, off)]);
        assert!(!take_observations().iter().any(ours));
        assert_eq!(GRID_SERIAL.load(Ordering::SeqCst), 0, "a serial was taken");

        for (trace, metrics) in [(true, false), (false, true), (true, true)] {
            let opts = ObsOptions { trace, metrics };
            set_observation(opts);
            let out = map_grid(vec![3u32, 1, 2], label, capture_case);
            assert_eq!(out, [(30, opts), (10, opts), (20, opts)]);
            let got: Vec<ScenarioObs> = take_observations().into_iter().filter(ours).collect();
            let filed: Vec<(u64, &str)> = got.iter().map(|o| (o.case, o.label.as_str())).collect();
            assert_eq!(
                filed,
                [(0, "map_grid/3"), (1, "map_grid/1"), (2, "map_grid/2")],
                "{opts:?}"
            );
            for o in &got {
                assert_eq!(o.grid, got[0].grid, "{opts:?}: cases split across grids");
                assert_eq!(o.obs.events.len(), usize::from(trace), "{opts:?}");
                assert_eq!(o.obs.metrics.is_some(), metrics, "{opts:?}");
                assert_eq!(o.obs.dropped, 0);
            }
        }
        set_observation(ObsOptions::OFF);
    }
}
