//! Observability layer: structured trace events, pluggable sinks, and a
//! metrics registry for the NVDIMM heterogeneous-storage simulator.
//!
//! The simulator is deterministic, so a recorded trace is a *total ordering*
//! of internal behaviour: every I/O submission, fault-gate outcome, retry,
//! migration phase transition, placement decision, imbalance trigger and
//! flash-barrier scheduling decision, in the exact order the simulation
//! produced them. That makes traces both a debugging instrument and a
//! regression oracle (see `tests/golden_traces.rs` at the workspace root).
//!
//! Design rules:
//!
//! * **Zero cost when disabled.** Producers hold an `Option<SharedSink>`
//!   that defaults to `None`; the [`emit`] helper checks the option *before*
//!   constructing the event, so the disabled path is one branch and the
//!   simulation's numeric results are byte-identical with or without the
//!   layer compiled in.
//! * **Plain-data events.** [`TraceEvent`] carries only integers, floats and
//!   short strings — no references into simulator state — so sinks can
//!   serialize, buffer or drop events without lifetime coupling.
//! * **Deterministic rendering.** JSONL output goes through the workspace's
//!   deterministic `serde_json` (insertion-order maps, shortest round-trip
//!   floats), so equal event sequences produce equal bytes.
//!
//! In the node simulation the taps hang off fixed points of the shared
//! data-path pipeline (`nvhsm-core`'s `node::datapath`, DESIGN.md §12) —
//! chiefly the completion/accounting stage — so a trace line's position
//! identifies the stage that emitted it.

mod event;
mod metrics;
mod sink;

pub use event::{FaultKind, TraceEvent};
pub use metrics::{
    CounterEntry, GaugeEntry, HistogramEntry, MetricKey, MetricsRegistry, MetricsReport,
    MetricsSnapshot, QuantileSummary,
};
pub use sink::{
    drain_ring, drain_ring_stats, emit, shared, to_jsonl, NullSink, RingSink, SharedSink, TraceSink,
};
