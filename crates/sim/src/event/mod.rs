//! A deterministic time-ordered event queue.
//!
//! Events come out in non-decreasing time order and, within one timestamp,
//! in FIFO order of insertion: the `(time, seq)` total order, where `seq`
//! is a monotone insertion counter. Every experiment in the workspace must
//! be exactly reproducible from its seed, so that order is part of the
//! contract, not an accident of the implementation.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

#[cfg(test)]
mod tests;

/// One scheduled event with its insertion sequence number.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// Events popped from the queue come out in non-decreasing time order and,
/// within one timestamp, in FIFO order of insertion.
///
/// A binary heap over `(time, seq)`. The simulators keep few events
/// pending: `NodeSim` holds one wake-up per workload, and the flash
/// scheduler, the largest queue any caller builds, one arrival or
/// completion per request of its trace.
///
/// # Examples
///
/// ```
/// use nvhsm_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(10), 'b');
/// q.push(SimTime::from_ns(5), 'a');
/// q.push(SimTime::from_ns(10), 'c');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes every event due at or before `now`, appending them to `out`
    /// in pop order, and returns how many were drained.
    pub fn drain_due(&mut self, now: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let before = out.len();
        while let Some(top) = self.heap.peek_mut() {
            if top.time > now {
                break;
            }
            let e = PeekMut::pop(top);
            out.push((e.time, e.event));
        }
        out.len() - before
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}
