//! The original binary-heap event queue, kept only as the ordering oracle.
//!
//! [`HeapEventQueue`] is the implementation [`EventQueue`](super::EventQueue)
//! replaced. The property tests drive both queues with identical operation
//! sequences and assert identical output streams, so it carries just the
//! operations those tests compare.

use super::Entry;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A time-ordered queue of simulation events backed by a binary heap.
///
/// Same contract as [`EventQueue`](super::EventQueue): non-decreasing time
/// order, FIFO within one timestamp.
pub(super) struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> HeapEventQueue<E> {
    pub(super) fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(super) fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    pub(super) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    pub(super) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub(super) fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        let entry = self.heap.peek_mut()?;
        if entry.time <= now {
            let e = std::collections::binary_heap::PeekMut::pop(entry);
            Some((e.time, e.event))
        } else {
            None
        }
    }

    pub(super) fn drain_due(&mut self, now: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let mut n = 0usize;
        while let Some(e) = self.pop_due(now) {
            out.push(e);
            n += 1;
        }
        n
    }

    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }
}
