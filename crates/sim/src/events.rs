//! The virtual-time event queues.
//!
//! Future-event lists keyed by `(time, sequence)`: the monotonically
//! increasing sequence number makes simultaneous events pop in insertion
//! order, which is what makes whole simulations bit-for-bit reproducible
//! across runs and platforms. Both queues pack that order into one
//! unique `u128` key; the seed's `BinaryHeap` queue, kept in the
//! integration tests as `tq_integration::oracle::events`, pins both to
//! the same stream. Their layouts differ with their depth:
//!
//! * [`EventQueue`] (a rack server's inbox) has no bound, so it is a
//!   keying of [`tq_core::heap::KeyHeap`] with O(log n) pushes.
//! * [`TagQueue`], the serving engines' list, holds at most one event
//!   per worker and per dispatcher core plus the next arrival: 18 in
//!   `sim_sweep`, 69 at most in the tree. At that depth a sorted array,
//!   whose push counts and shifts without a data-dependent branch,
//!   beats the heap's sifts (DESIGN.md "Packed event keys").

use tq_core::heap::{pack, KeyHeap};
use tq_core::Nanos;

/// Recovers the timestamp from a packed key.
#[inline(always)]
fn key_time(key: u128) -> Nanos {
    Nanos::from_nanos((key >> 64) as u64)
}

/// A deterministic future-event list for discrete-event simulation.
///
/// Events scheduled for the same instant are delivered in the order they
/// were pushed (FIFO tie-breaking).
///
/// # Example
///
/// ```
/// use tq_core::Nanos;
/// use tq_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Nanos::from_nanos(5), "b");
/// q.push(Nanos::from_nanos(5), "c");
/// q.push(Nanos::from_nanos(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Keyed `time << 64 | seq`.
    heap: KeyHeap<E>,
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
            heap: KeyHeap::with_capacity(cap),
            last_popped: Nanos::ZERO,
            popped: 0,
        }
    }

    /// Schedules `event` at absolute virtual time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped time: scheduling
    /// into the past is always a model bug and silently reordering it would
    /// corrupt causality.
    pub fn push(&mut self, time: Nanos, event: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled into the past: {time} < now {}",
            self.last_popped
        );
        let key = pack(time.as_nanos(), self.heap.pushed());
        self.heap.push(key, event);
    }

    /// Bulk-schedules a batch of events, preserving batch order among
    /// simultaneous entries (same FIFO contract as repeated [`push`]es).
    ///
    /// When the queue is empty and the batch's times are ascending — the
    /// shape of a window's worth of inter-shard messages landing in a
    /// drained inbox — the whole batch is appended in one pass
    /// ([`KeyHeap::push_largest`]): no sift work is done at all. Any
    /// other shape falls back to per-event pushes (still correct, just
    /// not O(1) per event).
    ///
    /// [`push`]: EventQueue::push
    ///
    /// # Panics
    ///
    /// Panics if any event's time is earlier than the last popped time.
    pub fn extend_sorted<I: IntoIterator<Item = (Nanos, E)>>(&mut self, batch: I) {
        let mut it = batch.into_iter();
        if self.is_empty() {
            // Append while the run stays ascending; keys assigned in
            // batch order keep FIFO ties intact.
            let mut last = self.last_popped;
            for (time, event) in it.by_ref() {
                if time < last {
                    // Order broke mid-batch (or `time` predates the last
                    // pop): the appended prefix is a valid heap, so
                    // regular pushes — with their past-check — finish.
                    self.push(time, event);
                    break;
                }
                last = time;
                let key = pack(time.as_nanos(), self.heap.pushed());
                self.heap.push_largest(key, event);
            }
        }
        for (time, event) in it {
            self.push(time, event);
        }
    }

    /// Removes and returns the earliest event with its timestamp, advancing
    /// the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let (key, event) = self.heap.pop()?;
        let time = key_time(key);
        debug_assert!(time >= self.last_popped, "heap violated time order");
        self.last_popped = time;
        self.popped += 1;
        Some((time, event))
    }

    /// Total events delivered over the queue's lifetime — the
    /// simulation's work counter (events/sec in the perf harness).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek_key().map(key_time)
    }

    /// The virtual time of the most recently popped event.
    pub fn now(&self) -> Nanos {
        self.last_popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending (the simulation has quiesced).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Number of low key bits carrying the event tag in a [`TagQueue`].
const TAG_BITS: u32 = 16;

/// A deterministic future-event list for 16-bit event tags — the serving
/// engines' hot path.
///
/// Same ordering contract as [`EventQueue`] (`(time, sequence)`, FIFO
/// among simultaneous events), but the payload rides in the packed key
/// itself: `time << 64 | seq << 16 | tag`. The sequence number occupies
/// the bits above the tag, so ties between simultaneous events break by
/// insertion order exactly as in [`EventQueue`] and the seed queue.
///
/// Capacity: the `cap` pending events it was created for (a push shifts
/// every key that pops after the new one). Tags are 16 bits (engines
/// encode "event kind + worker index" in them) and the sequence counter
/// has 48 bits — ~2.8 × 10¹⁴ pushes, far beyond any simulation run.
#[derive(Debug)]
pub struct TagQueue {
    /// Pending keys in descending order: the next event is the last.
    keys: Vec<u128>,
    pushed: u64,
    last_popped: Nanos,
    popped: u64,
}

impl TagQueue {
    /// Creates an empty queue for at most `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        TagQueue {
            keys: Vec::with_capacity(cap),
            pushed: 0,
            last_popped: Nanos::ZERO,
            popped: 0,
        }
    }

    /// Schedules the event `tag` at absolute virtual time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped time (scheduling
    /// into the past is always a model bug), or — in debug builds — if
    /// the queue already holds the `cap` events it was created for or
    /// the 48-bit sequence space is exhausted.
    #[inline(always)]
    pub fn push(&mut self, time: Nanos, tag: u16) {
        assert!(
            time >= self.last_popped,
            "event scheduled into the past: {time} < now {}",
            self.last_popped
        );
        debug_assert!(self.keys.len() < self.keys.capacity(), "queue full");
        let seq = self.pushed;
        debug_assert!(seq < 1 << (64 - TAG_BITS), "sequence space exhausted");
        self.pushed += 1;
        let key = pack(time.as_nanos(), (seq << TAG_BITS) | tag as u64);
        // Keys are unique, so the ones above `key` are exactly those that
        // pop after it. Count them all, with no early exit.
        let at = self.keys.iter().map(|&k| usize::from(k > key)).sum();
        self.keys.insert(at, key);
    }

    /// Removes and returns the earliest event as `(time, tag)`, advancing
    /// the queue's notion of "now".
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Nanos, u16)> {
        let key = self.keys.pop()?;
        let time = key_time(key);
        debug_assert!(time >= self.last_popped, "queue violated time order");
        self.last_popped = time;
        self.popped += 1;
        Some((time, key as u16))
    }

    /// Total events delivered over the queue's lifetime — the
    /// simulation's work counter (events/sec in the perf harness).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.keys.last().copied().map(key_time)
    }

    /// The virtual time of the most recently popped event.
    pub fn now(&self) -> Nanos {
        self.last_popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no events are pending (the simulation has quiesced).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(30), 3);
        q.push(Nanos::from_nanos(10), 1);
        q.push(Nanos::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Nanos::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(5), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos::from_nanos(5));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(10), ());
        q.pop();
        q.push(Nanos::from_nanos(9), ());
    }

    #[test]
    fn same_instant_as_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(10), 1);
        q.pop();
        q.push(Nanos::from_nanos(10), 2); // zero-delay follow-up event
        assert_eq!(q.pop(), Some((Nanos::from_nanos(10), 2)));
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Nanos::from_nanos(3), ());
        q.push(Nanos::from_nanos(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(1)));
    }

    #[test]
    fn extend_sorted_matches_pushes() {
        // Sorted batch into an empty queue (the bulk fast path), unsorted
        // batch (fallback), and a batch into a non-empty queue must all
        // behave exactly like the equivalent push loop.
        let batches: [&[u64]; 3] = [&[1, 2, 2, 5, 9], &[5, 1, 9, 2, 2], &[4, 4, 8]];
        for (i, batch) in batches.iter().enumerate() {
            let mut bulk = EventQueue::with_capacity(4);
            let mut loop_q = EventQueue::with_capacity(4);
            if i == 2 {
                bulk.push(Nanos::from_nanos(6), 999);
                loop_q.push(Nanos::from_nanos(6), 999);
            }
            bulk.extend_sorted(batch.iter().map(|&t| (Nanos::from_nanos(t), t)));
            for &t in batch.iter() {
                loop_q.push(Nanos::from_nanos(t), t);
            }
            loop {
                let (a, b) = (bulk.pop(), loop_q.pop());
                assert_eq!(a, b, "batch {i} diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn extend_sorted_rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(10), 0);
        q.pop();
        q.extend_sorted([(Nanos::from_nanos(9), 1)]);
    }

    #[test]
    fn tag_queue_ties_pop_fifo() {
        let mut q = TagQueue::with_capacity(100);
        let t = Nanos::from_nanos(7);
        for i in 0..100u16 {
            q.push(t, i);
        }
        let order: Vec<u16> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn full_tag_queues_pop_in_key_order() {
        // Full at `sim_sweep`'s bound (16 workers, one dispatcher, the
        // arrival), at a 64-worker server's and at the tree's largest:
        // times pushed out of order with ties among them, each tie in
        // push order.
        for n in [18u16, 65, 69] {
            let mut q = TagQueue::with_capacity(n.into());
            let times: Vec<u64> = (0..u64::from(n)).map(|i| (i * 7) % 5).collect();
            for (tag, &t) in times.iter().enumerate() {
                q.push(Nanos::from_nanos(t), tag as u16);
            }
            assert_eq!(q.len(), n.into());
            let mut want: Vec<(Nanos, u16)> = times
                .iter()
                .enumerate()
                .map(|(tag, &t)| (Nanos::from_nanos(t), tag as u16))
                .collect();
            want.sort();
            let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(got, want, "fill {n}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "queue full")]
    fn tag_queue_rejects_a_push_past_its_capacity() {
        let mut q = TagQueue::with_capacity(2);
        for t in 0..3 {
            q.push(Nanos::from_nanos(t), 0);
        }
    }
}
