use super::*;
use crate::time::SimDuration;
use proptest::prelude::*;

#[test]
fn pops_in_time_order() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_ns(30), 3);
    q.push(SimTime::from_ns(10), 1);
    q.push(SimTime::from_ns(20), 2);
    assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
    assert_eq!(q.pop(), Some((SimTime::from_ns(20), 2)));
    assert_eq!(q.pop(), Some((SimTime::from_ns(30), 3)));
    assert_eq!(q.pop(), None);
}

#[test]
fn fifo_within_one_timestamp() {
    let mut q = EventQueue::new();
    for i in 0..100 {
        q.push(SimTime::from_ns(7), i);
    }
    for i in 0..100 {
        assert_eq!(q.pop().unwrap().1, i);
    }
}

/// Near and far-future pushes interleaved, spanning many milliseconds.
#[test]
fn far_future_events_pop_in_order() {
    let mut q = EventQueue::new();
    let step = SimDuration::from_us(100);
    let mut t = SimTime::ZERO;
    let mut expect = Vec::new();
    for i in 0..500u32 {
        let at = if i % 3 == 0 { t } else { t + step * 37 };
        q.push(at, i);
        expect.push((at, i));
        t += step;
    }
    expect.sort_by_key(|&(at, i)| (at, i)); // push index == seq order here
    let got: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(got, expect);
}

#[test]
fn push_earlier_than_everything_pending_pops_first() {
    let mut q = EventQueue::new();
    q.push(SimTime::from_ns(50_000_000), 'z');
    q.push(SimTime::from_ns(40_000_000), 'y');
    q.push(SimTime::from_ns(100), 'a');
    q.push(SimTime::from_ns(100), 'b');
    assert_eq!(q.next_time(), Some(SimTime::from_ns(100)));
    assert_eq!(q.pop(), Some((SimTime::from_ns(100), 'a')));
    assert_eq!(q.pop(), Some((SimTime::from_ns(100), 'b')));
    assert_eq!(q.pop(), Some((SimTime::from_ns(40_000_000), 'y')));
    assert_eq!(q.pop(), Some((SimTime::from_ns(50_000_000), 'z')));
    assert_eq!(q.pop(), None);
}

#[test]
fn drain_due_batches_whole_timestamps() {
    let mut q = EventQueue::new();
    for i in 0..10 {
        q.push(SimTime::from_ns(100), i);
    }
    for i in 10..15 {
        q.push(SimTime::from_ns(200), i);
    }
    let mut out = Vec::new();
    let n = q.drain_due(SimTime::from_ns(100), &mut out);
    assert_eq!(n, 10);
    assert_eq!(
        out,
        (0..10)
            .map(|i| (SimTime::from_ns(100), i))
            .collect::<Vec<_>>()
    );
    assert_eq!(q.len(), 5);
    out.clear();
    assert_eq!(q.drain_due(SimTime::from_ns(199), &mut out), 0);
    assert_eq!(q.drain_due(SimTime::from_ns(200), &mut out), 5);
    assert!(q.is_empty());
}

/// One scripted operation for the model check.
#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
    DrainDue(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Pushes weighted 3:1:1 against the consuming operations so the queue
    // holds substantial state when pops and drains hit it.
    (0u8..5, 0u64..2_000_000).prop_map(|(kind, t)| match kind {
        0..=2 => Op::Push(t),
        3 => Op::Pop,
        _ => Op::DrainDue(t),
    })
}

/// The reference the random operation sequences are checked against:
/// pending events in a `Vec` sorted by `(time, push order)`.
#[derive(Default)]
struct SortedVecModel(Vec<(SimTime, u32)>);

impl SortedVecModel {
    fn push(&mut self, time: SimTime, id: u32) {
        // A later push sorts after every pending event at the same time.
        let at = self.0.partition_point(|&(t, _)| t <= time);
        self.0.insert(at, (time, id));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }

    fn drain_due(&mut self, now: SimTime, out: &mut Vec<(SimTime, u32)>) -> usize {
        let due = self.0.partition_point(|&(t, _)| t <= now);
        out.extend(self.0.drain(..due));
        due
    }

    fn next_time(&self) -> Option<SimTime> {
        self.0.first().map(|&(t, _)| t)
    }
}

/// Drives the queue and the sorted-`Vec` model through `ops`, with every
/// timestamp mapped through `at`, and asserts identical outputs, `len` and
/// `next_time` after every step and identical tails at the end.
fn check_against_model(ops: &[Op], at: impl Fn(u64) -> SimTime) {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut model = SortedVecModel::default();
    let mut id = 0u32;
    for op in ops {
        match *op {
            Op::Push(t) => {
                q.push(at(t), id);
                model.push(at(t), id);
                id += 1;
            }
            Op::Pop => assert_eq!(q.pop(), model.pop()),
            Op::DrainDue(now) => {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                assert_eq!(
                    q.drain_due(at(now), &mut a),
                    model.drain_due(at(now), &mut b)
                );
                assert_eq!(a, b);
            }
        }
        assert_eq!(q.next_time(), model.next_time());
        assert_eq!(q.len(), model.0.len());
    }
    let tail: Vec<(SimTime, u32)> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(tail, model.0);
}

proptest! {
    /// Popped times are monotone non-decreasing regardless of push order,
    /// and same-time events keep their insertion order.
    #[test]
    fn prop_monotone_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(id > lid);
                }
            }
            last = Some((t, id));
        }
    }

    /// The queue returns exactly the multiset of events pushed.
    #[test]
    fn prop_conservation(times in proptest::collection::vec(0u64..50, 0..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_ns(t), t);
        }
        let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut expect = times.clone();
        popped.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(popped, expect);
    }

    /// Random push/pop/drain_due sequences over uniform timestamps match
    /// the sorted-`Vec` model step for step.
    #[test]
    fn prop_matches_sorted_vec_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        check_against_model(&ops, SimTime::from_ns);
    }

    /// The same check with timestamps quantized onto seven instants, so
    /// ties (the simulators' same-instant batches) dominate.
    #[test]
    fn prop_matches_sorted_vec_model_clustered(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        check_against_model(&ops, |t| SimTime::from_ns((t % 7) * 50_000));
    }
}
