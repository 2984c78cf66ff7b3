//! The seed's `BinaryHeap`-based event queue, the oracle for
//! `tq_sim::EventQueue` and `tq_sim::TagQueue`: both must deliver the
//! exact `(time, event)` stream this queue does. The seed serving models
//! in [`super::queueing`] run on it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tq_core::Nanos;

struct Entry<E> {
    time: Nanos,
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
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for Entry<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("time", &self.time)
            .field("seq", &self.seq)
            .field("event", &self.event)
            .finish()
    }
}

/// The seed's deterministic future-event list (generic binary heap).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: Nanos,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with capacity for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            last_popped: Nanos::ZERO,
            popped: 0,
        }
    }

    /// Schedules `event` at absolute virtual time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped time.
    pub fn push(&mut self, time: Nanos, event: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled into the past: {time} < now {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event with its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.time >= self.last_popped, "heap violated time order");
            self.last_popped = e.time;
            self.popped += 1;
            (e.time, e.event)
        })
    }

    /// Total events delivered over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| e.time)
    }

    /// The virtual time of the most recently popped event.
    pub fn now(&self) -> Nanos {
        self.last_popped
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
        EventQueue::new()
    }
}

/// The surface of a `tq_sim` queue that [`assert_matches`] drives, with
/// 16-bit events (what a `TagQueue` carries).
pub trait Queue {
    /// Schedules `event` at `time`.
    fn push(&mut self, time: Nanos, event: u16);
    /// Removes the earliest event.
    fn pop(&mut self) -> Option<(Nanos, u16)>;
    /// Pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool;
    /// Time of the earliest pending event.
    fn peek_time(&self) -> Option<Nanos>;
    /// Time of the last popped event.
    fn now(&self) -> Nanos;
    /// Events delivered so far.
    fn popped(&self) -> u64;
}

impl Queue for tq_sim::EventQueue<u16> {
    fn push(&mut self, time: Nanos, event: u16) {
        tq_sim::EventQueue::push(self, time, event)
    }
    fn pop(&mut self) -> Option<(Nanos, u16)> {
        tq_sim::EventQueue::pop(self)
    }
    fn len(&self) -> usize {
        tq_sim::EventQueue::len(self)
    }
    fn is_empty(&self) -> bool {
        tq_sim::EventQueue::is_empty(self)
    }
    fn peek_time(&self) -> Option<Nanos> {
        tq_sim::EventQueue::peek_time(self)
    }
    fn now(&self) -> Nanos {
        tq_sim::EventQueue::now(self)
    }
    fn popped(&self) -> u64 {
        tq_sim::EventQueue::popped(self)
    }
}

impl Queue for tq_sim::TagQueue {
    fn push(&mut self, time: Nanos, event: u16) {
        tq_sim::TagQueue::push(self, time, event)
    }
    fn pop(&mut self) -> Option<(Nanos, u16)> {
        tq_sim::TagQueue::pop(self)
    }
    fn len(&self) -> usize {
        tq_sim::TagQueue::len(self)
    }
    fn is_empty(&self) -> bool {
        tq_sim::TagQueue::is_empty(self)
    }
    fn peek_time(&self) -> Option<Nanos> {
        tq_sim::TagQueue::peek_time(self)
    }
    fn now(&self) -> Nanos {
        tq_sim::TagQueue::now(self)
    }
    fn popped(&self) -> u64 {
        tq_sim::TagQueue::popped(self)
    }
}

/// Drives `fast` (empty) and a seed queue through the same script and
/// asserts they agree at every step. Step `i` is `(pop, delta)`: pop the
/// earliest event if `pop` and the queue is not empty, else push event
/// `i` at `delta` ns after the current time. Then both queues drain.
/// Each pop must return the same `(time, event)`, and after each step
/// the lengths, next times and current times must agree, as must the
/// delivered counts at the end.
///
/// # Panics
///
/// Panics at the first disagreement, or if the script is longer than
/// the 16-bit event space.
pub fn assert_matches(fast: &mut impl Queue, script: impl IntoIterator<Item = (bool, u64)>) {
    let mut slow = EventQueue::new();
    for (i, (pop, delta)) in script.into_iter().enumerate() {
        if pop && !fast.is_empty() {
            assert_eq!(fast.pop(), slow.pop(), "step {i}: popped events differ");
        } else {
            let event = u16::try_from(i).expect("script longer than the event space");
            let t = fast.now() + Nanos::from_nanos(delta);
            fast.push(t, event);
            slow.push(t, event);
        }
        assert_eq!(fast.len(), slow.len(), "step {i}: lengths differ");
        assert_eq!(
            fast.peek_time(),
            slow.peek_time(),
            "step {i}: next times differ"
        );
        assert_eq!(fast.now(), slow.now(), "step {i}: current times differ");
    }
    loop {
        let a = fast.pop();
        assert_eq!(a, slow.pop(), "drain: popped events differ");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(fast.popped(), slow.popped());
}
