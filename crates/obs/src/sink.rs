//! Trace sinks: where emitted events go.
//!
//! Producers hold an `Option<SharedSink>`; [`emit`] checks it before the
//! event is even constructed, so an unattached producer pays one branch per
//! potential event and allocates nothing. Sinks are `Send` (behind a mutex)
//! because scenario-parallel grids move whole simulations across worker
//! threads; within one scenario the sink is only ever touched by that
//! scenario's thread, so the lock is uncontended.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Destination for trace events.
pub trait TraceSink: Send {
    /// Receives one event. Called in simulation order.
    fn record(&mut self, event: &TraceEvent);

    /// Downcast hook so callers can recover a concrete sink (e.g. drain a
    /// [`RingSink`] after a run) from a [`SharedSink`] trait object.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// A sink shared between every producer of one simulation scenario.
pub type SharedSink = Arc<Mutex<dyn TraceSink>>;

/// Wraps a sink for sharing across the producers of one scenario.
pub fn shared<S: TraceSink + 'static>(sink: S) -> SharedSink {
    Arc::new(Mutex::new(sink))
}

/// Emits an event to an optional sink, building the event only if a sink
/// is attached. This is the zero-cost-when-disabled gate every producer
/// goes through.
#[inline]
pub fn emit<F: FnOnce() -> TraceEvent>(sink: &Option<SharedSink>, make: F) {
    if let Some(s) = sink {
        let event = make();
        s.lock().expect("trace sink poisoned").record(&event);
    }
}

/// Discards everything. Useful to measure tracing overhead without I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Keeps the last `capacity` events in memory — a flight recorder for
/// tests and post-mortem inspection of long runs.
#[derive(Debug)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Takes the buffered events out, oldest first.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Drains the events out of a [`SharedSink`] that wraps a [`RingSink`].
///
/// # Panics
///
/// Panics if the sink is not a `RingSink`.
pub fn drain_ring(sink: &SharedSink) -> Vec<TraceEvent> {
    drain_ring_stats(sink).0
}

/// Like [`drain_ring`], but also returns how many events the ring evicted
/// — callers that cap trace memory can report the truncation instead of
/// silently presenting a partial trace as complete.
///
/// # Panics
///
/// Panics if the sink is not a `RingSink`.
pub fn drain_ring_stats(sink: &SharedSink) -> (Vec<TraceEvent>, u64) {
    let mut guard = sink.lock().expect("trace sink poisoned");
    let ring = guard
        .as_any()
        .downcast_mut::<RingSink>()
        .expect("sink is not a RingSink");
    let dropped = ring.dropped();
    (ring.take(), dropped)
}

/// Renders a slice of events to a JSONL string (used by golden tests and
/// the per-scenario trace collection in experiment grids).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("trace events always serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultKind;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::IoFault {
            t,
            dev: "SSD".into(),
            kind: FaultKind::Transient,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = RingSink::new(2);
        for t in 0..5 {
            r.record(&ev(t));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let got = r.take();
        assert_eq!(got, vec![ev(3), ev(4)]);
        assert!(r.is_empty());
    }

    #[test]
    fn jsonl_round_trips_through_serde() {
        let original = ev(42);
        let line = serde_json::to_string(&original).unwrap();
        let back: TraceEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn emit_skips_event_construction_without_sink() {
        let mut built = false;
        emit(&None, || {
            built = true;
            ev(0)
        });
        assert!(!built, "event closure must not run with no sink attached");
    }

    #[test]
    fn emit_records_through_shared_sink() {
        let sink = shared(RingSink::new(8));
        let opt = Some(Arc::clone(&sink));
        emit(&opt, || ev(1));
        emit(&opt, || ev(2));
        assert_eq!(drain_ring(&sink), vec![ev(1), ev(2)]);
    }
}
