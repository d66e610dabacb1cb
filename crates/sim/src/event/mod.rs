//! Deterministic time-ordered event queues.
//!
//! Two implementations share one contract — events come out in
//! non-decreasing time order and, within one timestamp, in FIFO order of
//! insertion (the `(time, seq)` total order):
//!
//! * [`EventQueue`] — a hierarchical bucketed calendar queue (a 256-slot
//!   time wheel with a binary-heap overflow level). This is the queue every
//!   simulator uses: pops are O(1) amortized because the wheel turns
//!   near-term events into array traffic, and [`EventQueue::drain_due`]
//!   hands whole same-timestamp batches out in one call. Wheel entries
//!   live in one arena (`pool`) threaded by intrusive per-slot lists with
//!   a free list, so steady-state pushes and wheel turns are allocation
//!   free — no per-slot buffers to malloc.
//! * `HeapEventQueue` — the original `BinaryHeap` implementation, compiled
//!   only into this crate's tests as the ordering oracle for the
//!   equivalence property tests.
//!
//! The determinism matters: every experiment in the workspace must be
//! exactly reproducible from its seed, so the two queues are required (and
//! property-tested) to produce byte-identical event streams for identical
//! push/pop sequences.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[cfg(test)]
mod heap;
#[cfg(test)]
mod tests;

/// Wheel slots per rotation. With [`SHIFT`]-bit buckets the wheel spans
/// `SLOTS << SHIFT` ns (~1.05 ms) before events spill to the overflow heap.
const SLOTS: usize = 256;
const SLOT_MASK: usize = SLOTS - 1;
/// log2 of the bucket width: 4096 ns per slot. Chosen so that one
/// management sub-epoch's worth of I/O events (device service times are
/// single-digit µs to ms) lands inside one wheel rotation.
const SHIFT: u32 = 12;
/// Null arena index, terminating both the per-slot lists and the free list.
const NIL: u32 = u32::MAX;

/// Absolute bucket index of a timestamp.
#[inline]
fn bucket(time: SimTime) -> u64 {
    time.as_ns() >> SHIFT
}

/// One scheduled event with its insertion sequence number.
#[derive(Debug, Clone)]
pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
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

/// One arena node: a wheel entry threaded onto its slot's intrusive list.
/// `event` is `Some` while the node is live and `None` once the node has
/// been drained and parked on the free list (`next` then threads the free
/// list instead of a slot list).
#[derive(Debug, Clone)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// A time-ordered queue of simulation events.
///
/// Events popped from the queue come out in non-decreasing time order and,
/// within one timestamp, in FIFO order of insertion.
///
/// Internally a two-level calendar queue: a 256-slot time wheel of 4096 ns
/// buckets holds everything within ~1.05 ms of the earliest pending event,
/// and a binary-heap overflow level holds the far future. The earliest
/// bucket's entries sit in a dedicated sorted buffer (`cur`), so
/// [`EventQueue::peek`] and [`EventQueue::next_time`] are O(1) `&self`
/// reads; every other wheel entry lives in one shared arena threaded by
/// per-slot singly-linked lists, so pushing never allocates per slot.
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
    /// Head arena index per wheel slot ([`NIL`] = empty). Empty until the
    /// first push (keeps `new()` allocation free); exactly [`SLOTS`]
    /// entries afterwards.
    heads: Vec<u32>,
    /// Occupancy bitmap over `heads`: bit i set iff slot i has a list.
    occ: [u64; 4],
    /// Absolute bucket index of the current slot — the bucket whose
    /// entries are staged in `cur`. The current slot never owns a list.
    base_k: u64,
    /// The current bucket's entries, sorted descending by `(time, seq)` so
    /// the earliest pending event is `cur.last()`. Invariant: non-empty
    /// exactly when the queue is non-empty.
    cur: Vec<Entry<E>>,
    /// Arena backing the per-slot lists. Drained nodes are recycled
    /// through `free`, so the queue reaches a steady state where pushes
    /// and wheel turns perform no allocation at all.
    pool: Vec<Node<E>>,
    /// Head of the free-node list through the arena, [`NIL`] if none.
    free: u32,
    /// Conservative upper bound on the largest bucket of any arena entry.
    /// Lets [`EventQueue::rebase_to`] skip its eviction walk when nothing
    /// can lie past the new horizon (the overwhelmingly common case).
    wheel_max_k: u64,
    /// Overflow level: entries whose bucket lies at or past
    /// `base_k + SLOTS`, in `Entry`'s inverted `(time, seq)` order.
    far: BinaryHeap<Entry<E>>,
    len: usize,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heads: Vec::new(),
            occ: [0; 4],
            base_k: 0,
            cur: Vec::new(),
            pool: Vec::new(),
            free: NIL,
            wheel_max_k: 0,
            far: BinaryHeap::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events. The wheel
    /// is allocated eagerly, and `capacity` sizes both the arena (where
    /// near-term events land) and the overflow level (where bulk schedules
    /// of far-future events — e.g. a whole arrival trace — land).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        q.ensure_slots();
        q.pool.reserve(capacity);
        q.far.reserve(capacity);
        q
    }

    #[inline]
    fn ensure_slots(&mut self) {
        if self.heads.is_empty() {
            self.heads.resize(SLOTS, NIL);
        }
    }

    #[inline]
    fn occ_set(&mut self, idx: usize) {
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn occ_clear(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Links `e` onto the list of its slot, recycling a free node if one
    /// exists. Requires `base_k < bucket(e.time) < base_k + SLOTS`.
    #[inline]
    fn link(&mut self, k: u64, e: Entry<E>) {
        let idx = k as usize & SLOT_MASK;
        let next = self.heads[idx];
        let i = if self.free != NIL {
            let i = self.free;
            let n = &mut self.pool[i as usize];
            self.free = n.next;
            n.time = e.time;
            n.seq = e.seq;
            n.next = next;
            n.event = Some(e.event);
            i
        } else {
            let i = self.pool.len();
            assert!(i < NIL as usize, "event queue wheel overflow");
            self.pool.push(Node {
                time: e.time,
                seq: e.seq,
                next,
                event: Some(e.event),
            });
            i as u32
        };
        self.heads[idx] = i;
        self.occ_set(idx);
        if k > self.wheel_max_k {
            self.wheel_max_k = k;
        }
    }

    /// Unlinks slot `idx`'s whole list into `cur` (unsorted), parking the
    /// nodes on the free list.
    fn collect_slot(&mut self, idx: usize) {
        let mut i = self.heads[idx];
        self.heads[idx] = NIL;
        self.occ_clear(idx);
        while i != NIL {
            let n = &mut self.pool[i as usize];
            let nx = n.next;
            let event = n.event.take().expect("live node on a slot list");
            self.cur.push(Entry {
                time: n.time,
                seq: n.seq,
                event,
            });
            n.next = self.free;
            self.free = i;
            i = nx;
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Entry { time, seq, event });
    }

    fn insert(&mut self, e: Entry<E>) {
        let k = bucket(e.time);
        if self.len == 0 {
            // Empty queue: re-anchor the wheel at the pushed bucket.
            self.ensure_slots();
            self.base_k = k;
            self.wheel_max_k = k;
            self.cur.push(e);
            self.len = 1;
            return;
        }
        self.len += 1;
        if k < self.base_k {
            // The push lands before the wheel's origin: move the origin
            // back. Rare in simulator use (origins only move back when a
            // push is earlier than every pending event).
            self.rebase_to(k);
        }
        if k == self.base_k {
            // The current bucket stays sorted descending by (time, seq) so
            // peek/pop stay O(1): binary-search the insertion point.
            let key = (e.time, e.seq);
            let pos = self.cur.partition_point(|x| (x.time, x.seq) > key);
            self.cur.insert(pos, e);
        } else if k < self.base_k + SLOTS as u64 {
            self.link(k, e);
        } else {
            self.far.push(e);
        }
    }

    /// Moves the wheel's origin back to bucket `k < base_k`.
    ///
    /// A bucket's ring index `b & SLOT_MASK` does not depend on the
    /// origin, so arena entries whose bucket stays inside the new horizon
    /// `k + SLOTS` are already in the right slot and need no work at all.
    /// Only two fixups remain: entries at or past the new horizon must
    /// spill to the overflow level (skipped entirely unless `wheel_max_k`
    /// says one might exist), and the old current bucket's staged entries
    /// must return to the wheel (or the overflow) since they are no longer
    /// current. Overflow entries stay put — the horizon only shrank.
    fn rebase_to(&mut self, k: u64) {
        let horizon = k + SLOTS as u64;
        if self.wheel_max_k >= horizon {
            // Some list entry may now lie past the horizon: walk the
            // occupied slots and evict those entries to the overflow heap.
            // This also guarantees the new current slot's list is empty —
            // any bucket colliding with `k`'s ring index is `k + 256m`,
            // which is past the horizon.
            for idx in 0..SLOTS {
                let mut i = self.heads[idx];
                if i == NIL {
                    continue;
                }
                self.heads[idx] = NIL;
                self.occ_clear(idx);
                let mut keep = NIL;
                while i != NIL {
                    let n = &mut self.pool[i as usize];
                    let nx = n.next;
                    if bucket(n.time) >= horizon {
                        let event = n.event.take().expect("live node on a slot list");
                        let entry = Entry {
                            time: n.time,
                            seq: n.seq,
                            event,
                        };
                        n.next = self.free;
                        self.free = i;
                        self.far.push(entry);
                    } else {
                        n.next = keep;
                        keep = i;
                    }
                    i = nx;
                }
                if keep != NIL {
                    self.heads[idx] = keep;
                    self.occ_set(idx);
                }
            }
            self.wheel_max_k = horizon - 1;
        }
        self.base_k = k;
        // The old current bucket is no longer current: its staged entries
        // go back onto the wheel (their bucket is strictly between the new
        // origin and, possibly, past the horizon).
        let mut staged = std::mem::take(&mut self.cur);
        for e in staged.drain(..) {
            let ek = bucket(e.time);
            debug_assert!(ek > k, "rebase target must precede all wheel entries");
            if ek < horizon {
                self.link(ek, e);
            } else {
                self.far.push(e);
            }
        }
        // Hand the buffer back so the staging area keeps its capacity.
        self.cur = staged;
        // `cur` is now empty and the new current slot has no list, ready
        // for the push that triggered this.
    }

    /// Ring distance from the current slot to the next occupied slot, if
    /// any other slot is occupied.
    fn next_occupied_distance(&self) -> Option<u64> {
        let cur = self.base_k as usize & SLOT_MASK;
        let w0 = cur >> 6;
        let bit = cur & 63;
        // Bits strictly above `cur` within its own word.
        let above = self.occ[w0] & !(((1u64 << bit) - 1) | (1u64 << bit));
        if above != 0 {
            let idx = (w0 << 6) + above.trailing_zeros() as usize;
            return Some((idx - cur) as u64);
        }
        for step in 1..=4usize {
            let w = (w0 + step) & 3;
            let mut m = self.occ[w];
            if step == 4 {
                // Wrapped back to the starting word: only bits at or below
                // `cur` remain unexamined (the `cur` bit itself is clear —
                // the current slot never owns a list).
                m &= ((1u64 << bit) - 1) | (1u64 << bit);
            }
            if m != 0 {
                let idx = (w << 6) + m.trailing_zeros() as usize;
                return Some(((idx + SLOTS - cur) & SLOT_MASK) as u64);
            }
        }
        None
    }

    /// Turns the wheel to the next non-empty bucket after the current one
    /// emptied, pulling newly-in-horizon overflow entries into the wheel
    /// and staging + sorting the new current bucket. Requires `len > 0`
    /// and `cur` empty.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty());
        match self.next_occupied_distance() {
            Some(d) => self.base_k += d,
            None => {
                // Wheel empty: jump straight to the earliest far bucket.
                let e = self.far.peek().expect("len > 0 with an empty wheel");
                self.base_k = bucket(e.time);
            }
        }
        // Every slot between the old and new origin was empty, so pulled
        // entries (whose buckets lie past the old horizon) can never mix
        // into a slot still holding older entries.
        let horizon = self.base_k + SLOTS as u64;
        while self.far.peek().is_some_and(|e| bucket(e.time) < horizon) {
            let e = self.far.pop().expect("peeked entry");
            let ek = bucket(e.time);
            if ek == self.base_k {
                self.cur.push(e);
            } else {
                self.link(ek, e);
            }
        }
        self.collect_slot(self.base_k as usize & SLOT_MASK);
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        debug_assert!(!self.cur.is_empty(), "advance landed on an empty bucket");
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // `cur` is non-empty exactly when the queue is, so no len check.
        let e = self.cur.pop()?;
        self.len -= 1;
        if self.cur.is_empty() && self.len > 0 {
            self.advance();
        }
        Some((e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.cur.last().map(|e| e.time)
    }

    /// A reference to the earliest pending event, if any.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.cur.last().map(|e| (e.time, &e.event))
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.cur.last().is_some_and(|e| e.time <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Removes every event due at or before `now`, appending them to `out`
    /// in pop order, and returns how many were drained.
    ///
    /// Equivalent to `while let Some(e) = self.pop_due(now) { out.push(e) }`,
    /// but drains whole calendar buckets in bulk: a simulator waking up at
    /// `now` gets its entire same-timestamp batch in one call instead of
    /// paying one ordered removal per event.
    pub fn drain_due(&mut self, now: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let mut n = 0usize;
        // The staged bucket is sorted descending, so its maximum is at the
        // front: if even that is due, the whole bucket drains in one move.
        while self.cur.first().is_some_and(|e| e.time <= now) {
            let taken = self.cur.len();
            n += taken;
            self.len -= taken;
            out.extend(self.cur.drain(..).rev().map(|e| (e.time, e.event)));
            if self.len == 0 {
                return n;
            }
            self.advance();
        }
        // Only a tail of the staged bucket (if anything) is due.
        while self.cur.last().is_some_and(|e| e.time <= now) {
            let e = self.cur.pop().expect("checked non-empty");
            self.len -= 1;
            n += 1;
            out.push((e.time, e.event));
        }
        n
    }

    /// Reserves capacity for at least `additional` more events in both
    /// wheel levels (the arena and the overflow heap), and allocates the
    /// wheel if this queue has never held one.
    pub fn reserve(&mut self, additional: usize) {
        self.ensure_slots();
        self.pool.reserve(additional);
        self.far.reserve(additional);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events.
    ///
    /// The sequence counter is deliberately **not** reset: `(time, seq)`
    /// stays a total order over the queue's whole lifetime, so events
    /// pushed after a `clear()` can never tie-break ahead of anything that
    /// existed before it. Resetting would be observable — a same-timestamp
    /// interleaving of pre- and post-clear pushes is impossible with a
    /// monotone counter and possible without one.
    pub fn clear(&mut self) {
        self.heads.iter_mut().for_each(|h| *h = NIL);
        self.occ = [0; 4];
        self.cur.clear();
        self.pool.clear();
        self.free = NIL;
        self.wheel_max_k = 0;
        self.far.clear();
        self.len = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        // Bulk schedules mostly land in the overflow level; reserving up
        // front keeps the heap from regrowing once per push.
        self.reserve(iter.size_hint().0);
        for (t, e) in iter {
            self.push(t, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}
