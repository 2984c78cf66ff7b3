//! Lock-free single-producer single-consumer rings.
//!
//! The dispatcher forwards each request "to the least loaded worker via a
//! lockless ring buffer" (§4). One producer (the submitting thread) and
//! one consumer (the worker's scheduler loop) share a fixed-capacity
//! Lamport queue; head and tail live on separate cache lines so the two
//! sides never false-share.
//!
//! ## Cached positions, wrapped slots and batched transfer
//!
//! Each side keeps a private *cached* copy of the other side's index
//! (producer caches the consumer's head, consumer caches the producer's
//! tail). The cache is a lower bound on the true value — both indices
//! only grow — so it is always safe to act on: the producer refreshes its
//! cached head with an `Acquire` load only when the cache says the ring
//! is full, and the consumer refreshes its cached tail only when the
//! cache says the ring is empty. A burst of pushes or pops therefore
//! costs one `Acquire` refresh and one `Release` publish per *burst*
//! instead of per item ([`Producer::push_batch`]/[`Consumer::pop_batch`]),
//! and even the single-item ops skip the cross-core load entirely while
//! the cache has slack. The protocol (including stale cached positions)
//! is model-checked exhaustively in `tests/ring_interleavings.rs`.
//!
//! Each side also keeps its own index *wrapped*: the producer its
//! `tail % cap`, the consumer its `head % cap`, advanced a slot at a time
//! and reset to 0 when it reaches `cap`. No push or pop divides, whatever
//! the capacity (any `cap ≥ 1`; it is not rounded up to a power of two).
//! The shared `head`/`tail` stay unwrapped counters, so full and empty
//! are told apart by their difference alone.

use crossbeam::utils::CachePadded;
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next slot the producer writes (monotonically increasing).
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer reads.
    head: CachePadded<AtomicUsize>,
}

// SAFETY: the ring transfers T values between exactly two threads; every
// slot is written by the producer before the tail release-store makes it
// visible, and read by the consumer before the head release-store recycles
// it. T only needs Send.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: the two sides share `&Shared<T>` but never a slot: between the
// tail and head hand-offs above exactly one of them touches a given
// `UnsafeCell`, and `head`/`tail`/`cap` are atomics or immutable. No `&T`
// is ever handed to both threads, so `T: Send` suffices here too.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // By the time the last Arc drops, both sides are gone: we have
        // exclusive access and may drain undelivered items.
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        for i in head..tail {
            // Cold: the one `%` left in the ring.
            let slot = &self.buf[i % self.cap];
            // SAFETY: slots in [head, tail) hold initialized values.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// Producer half; owned by the dispatcher. Not `Sync`: the cached head
/// position lives in a `Cell`, which is exactly as single-threaded as
/// the single-producer contract already required.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// The consumer's head as last observed — a lower bound on the true
    /// head, refreshed (one `Acquire` load) only when the ring looks full.
    cached_head: Cell<usize>,
    /// The slot the next push writes: `tail % cap`.
    slot: Cell<usize>,
}

/// Consumer half; owned by a worker. Not `Sync` (see [`Producer`]).
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// The producer's tail as last observed — a lower bound on the true
    /// tail, refreshed (one `Acquire` load) only when the ring looks
    /// empty.
    cached_tail: Cell<usize>,
    /// The slot the next pop reads: `head % cap`.
    slot: Cell<usize>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").field("cap", &self.shared.cap).finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").field("cap", &self.shared.cap).finish()
    }
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spsc").field("cap", &self.cap).finish()
    }
}

/// Creates a ring holding up to `cap` in-flight items.
///
/// # Panics
///
/// Panics if `cap` is zero.
pub fn spsc<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    assert!(cap > 0, "ring capacity must be positive");
    let shared = Arc::new(Shared {
        buf: (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        cap,
        tail: CachePadded::new(AtomicUsize::new(0)),
        head: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            cached_head: Cell::new(0),
            slot: Cell::new(0),
        },
        Consumer {
            shared,
            cached_tail: Cell::new(0),
            slot: Cell::new(0),
        },
    )
}

/// The slot after `slot` in a ring of `cap`: a compare and a reset, not
/// a divide.
#[inline]
fn next_slot(slot: usize, cap: usize) -> usize {
    let next = slot + 1;
    if next == cap {
        0
    } else {
        next
    }
}

impl<T: Send> Producer<T> {
    /// The next push's slot, checked against the tail it must wrap.
    #[inline]
    fn checked_slot(&self, tail: usize) -> usize {
        let slot = self.slot.get();
        debug_assert_eq!(slot, tail % self.shared.cap, "producer slot drifted");
        slot
    }

    /// Free slots by the cached head, refreshing the cache (the one
    /// `Acquire` load of the consumer's index) only when it reports
    /// fewer than `want` free slots.
    #[inline]
    fn free_slots(&self, tail: usize, want: usize) -> usize {
        let mut free = self.shared.cap - (tail - self.cached_head.get());
        if free < want {
            self.cached_head
                .set(self.shared.head.load(Ordering::Acquire));
            free = self.shared.cap - (tail - self.cached_head.get());
        }
        free
    }

    /// Enqueues `item`, or returns it if the ring is full (backpressure —
    /// the dispatcher retries, which is what bounds worker queues).
    pub fn push(&self, item: T) -> Result<(), T> {
        let s = &*self.shared;
        let tail = s.tail.load(Ordering::Relaxed);
        if self.free_slots(tail, 1) == 0 {
            return Err(item);
        }
        let slot = self.checked_slot(tail);
        // SAFETY: `slot` is `tail % cap`, which is not visible to the
        // consumer until the release store below, and the producer is
        // unique. The cached head is a lower bound on the true head, so
        // `free_slots > 0` guarantees the consumer is done with this slot.
        unsafe { (*s.buf[slot].get()).write(item) };
        self.slot.set(next_slot(slot, s.cap));
        s.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Enqueues a prefix of `items` (in order, from the front), removing
    /// the pushed items from the buffer and returning how many were
    /// pushed. The whole burst costs one `Acquire` refresh of the
    /// consumer's head (at most) and exactly one `Release` publish —
    /// items become visible to the consumer all at once. Returns 0 when
    /// the ring is full (the remainder stays in `items`).
    pub fn push_batch(&self, items: &mut Vec<T>) -> usize {
        let s = &*self.shared;
        if items.is_empty() {
            return 0;
        }
        let tail = s.tail.load(Ordering::Relaxed);
        let n = self.free_slots(tail, items.len()).min(items.len());
        if n == 0 {
            return 0;
        }
        let mut slot = self.checked_slot(tail);
        for item in items.drain(..n) {
            // SAFETY: `slot` wraps positions [tail, tail + n), which are
            // unpublished and — by the free-slot bound — recycled by the
            // consumer.
            unsafe { (*s.buf[slot].get()).write(item) };
            slot = next_slot(slot, s.cap);
        }
        self.slot.set(slot);
        s.tail.store(tail + n, Ordering::Release);
        n
    }

    /// [`Producer::push_batch`] for `Copy` items: pushes a prefix of the
    /// slice without consuming it, returning how many were pushed. Lets a
    /// caller that still needs the un-pushed suffix (and per-item ids of
    /// the pushed prefix, e.g. for audit logging) avoid a drain.
    pub fn push_batch_copy(&self, items: &[T]) -> usize
    where
        T: Copy,
    {
        let s = &*self.shared;
        if items.is_empty() {
            return 0;
        }
        let tail = s.tail.load(Ordering::Relaxed);
        let n = self.free_slots(tail, items.len()).min(items.len());
        let mut slot = self.checked_slot(tail);
        for item in &items[..n] {
            // SAFETY: as in `push_batch`.
            unsafe { (*s.buf[slot].get()).write(*item) };
            slot = next_slot(slot, s.cap);
        }
        if n > 0 {
            self.slot.set(slot);
            s.tail.store(tail + n, Ordering::Release);
        }
        n
    }

    /// Items currently in flight.
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail.load(Ordering::Relaxed) - s.head.load(Ordering::Acquire)
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Consumer<T> {
    /// The next pop's slot, checked against the head it must wrap.
    #[inline]
    fn checked_slot(&self, head: usize) -> usize {
        let slot = self.slot.get();
        debug_assert_eq!(slot, head % self.shared.cap, "consumer slot drifted");
        slot
    }

    /// Items available by the cached tail, refreshing the cache (the one
    /// `Acquire` load of the producer's index) only when it reports none.
    #[inline]
    fn available(&self, head: usize) -> usize {
        let mut avail = self.cached_tail.get() - head;
        if avail == 0 {
            self.cached_tail
                .set(self.shared.tail.load(Ordering::Acquire));
            avail = self.cached_tail.get() - head;
        }
        avail
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        if self.available(head) == 0 {
            return None;
        }
        let slot = self.checked_slot(head);
        // SAFETY: `slot` is `head % cap`. The cached tail is a lower bound
        // on the published tail, so this slot's value is initialized; the
        // consumer is unique, and the release store below recycles it.
        let item = unsafe { (*s.buf[slot].get()).assume_init_read() };
        self.slot.set(next_slot(slot, s.cap));
        s.head.store(head + 1, Ordering::Release);
        Some(item)
    }

    /// Dequeues up to `max` items into `out` (appending, in FIFO order),
    /// returning how many were moved. The whole burst costs one `Acquire`
    /// refresh of the producer's tail (at most) and exactly one `Release`
    /// recycle of the consumed slots.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        let n = self.available(head).min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        let mut slot = self.checked_slot(head);
        for _ in 0..n {
            // SAFETY: `slot` wraps positions [head, head + n), which are
            // published (cached tail is a lower bound on the true tail)
            // and not yet recycled.
            out.push(unsafe { (*s.buf[slot].get()).assume_init_read() });
            slot = next_slot(slot, s.cap);
        }
        self.slot.set(slot);
        s.head.store(head + n, Ordering::Release);
        n
    }

    /// Items currently in flight.
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail.load(Ordering::Acquire) - s.head.load(Ordering::Relaxed)
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn fifo_order() {
        let (p, c) = spsc(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let (p, c) = spsc(2);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.push(3), Err(3));
        assert_eq!(c.pop(), Some(1));
        p.push(3).unwrap();
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
    }

    #[test]
    fn wraps_around_many_times() {
        let (p, c) = spsc(4);
        for i in 0..10_000u64 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn len_tracks_in_flight() {
        let (p, c) = spsc(4);
        assert!(p.is_empty() && c.is_empty());
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c.len(), 2);
        c.pop();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn push_batch_fills_to_capacity_and_keeps_remainder() {
        let (p, c) = spsc(4);
        let mut items: Vec<u64> = (0..6).collect();
        assert_eq!(p.push_batch(&mut items), 4);
        assert_eq!(items, vec![4, 5], "unpushed suffix stays in the buffer");
        assert_eq!(p.push_batch(&mut items), 0, "full ring pushes nothing");
        assert_eq!(c.pop(), Some(0));
        assert_eq!(p.push_batch(&mut items), 1);
        assert_eq!(items, vec![5]);
    }

    #[test]
    fn pop_batch_respects_max_and_appends() {
        let (p, c) = spsc(8);
        for i in 0..6 {
            p.push(i).unwrap();
        }
        let mut out = vec![99u64];
        assert_eq!(c.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![99, 0, 1, 2, 3]);
        assert_eq!(c.pop_batch(&mut out, 10), 2);
        assert_eq!(out, vec![99, 0, 1, 2, 3, 4, 5]);
        assert_eq!(c.pop_batch(&mut out, 10), 0);
    }

    #[test]
    fn push_batch_copy_pushes_prefix_without_consuming() {
        let (p, c) = spsc(3);
        let items: Vec<u64> = vec![7, 8, 9, 10];
        assert_eq!(p.push_batch_copy(&items), 3);
        assert_eq!(items.len(), 4, "slice variant leaves the buffer intact");
        assert_eq!(c.pop(), Some(7));
        assert_eq!(p.push_batch_copy(&items[3..]), 1);
        assert_eq!(c.pop(), Some(8));
        assert_eq!(c.pop(), Some(9));
        assert_eq!(c.pop(), Some(10));
    }

    /// Mixed single and batched operations on both sides preserve FIFO
    /// order and lose nothing, across thread boundaries, under ring
    /// pressure (capacity far below the transfer size).
    #[test]
    fn cross_thread_mixed_batch_transfer_is_lossless_fifo() {
        let (p, c) = spsc(32);
        const N: u64 = 100_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut buf: Vec<u64> = Vec::new();
            while next < N || !buf.is_empty() {
                // Alternate batch sizes 1..=9, mixing push and push_batch.
                let want = (next % 9 + 1) as usize;
                while buf.len() < want && next < N {
                    buf.push(next);
                    next += 1;
                }
                if buf.len() == 1 {
                    if let Ok(()) = p.push(buf[0]) {
                        buf.clear();
                    }
                } else {
                    p.push_batch(&mut buf);
                }
                std::hint::spin_loop();
            }
        });
        let mut expected = 0u64;
        let mut out: Vec<u64> = Vec::new();
        while expected < N {
            out.clear();
            // Alternate single pops with batched pops of varying size.
            if expected.is_multiple_of(3) {
                if let Some(v) = c.pop() {
                    out.push(v);
                }
            } else {
                c.pop_batch(&mut out, (expected % 7 + 1) as usize);
            }
            for &v in &out {
                assert_eq!(v, expected, "items must arrive in order");
                expected += 1;
            }
            std::hint::spin_loop();
        }
        producer.join().unwrap();
    }

    #[test]
    fn cross_thread_transfer_is_lossless() {
        let (p, c) = spsc(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut item = i;
                loop {
                    match p.push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected, "items must arrive in order");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn undelivered_items_are_dropped_not_leaked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (p, c) = spsc(8);
            p.push(Counted).unwrap();
            p.push(Counted).unwrap();
            drop(c.pop()); // one delivered and dropped
            drop((p, c)); // one still in the ring
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn batched_undelivered_items_are_dropped_not_leaked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted(#[allow(dead_code)] u8);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (p, c) = spsc(8);
            let mut batch = vec![Counted(0), Counted(1), Counted(2)];
            assert_eq!(p.push_batch(&mut batch), 3);
            let mut out = Vec::new();
            c.pop_batch(&mut out, 1);
            drop(out); // one delivered and dropped
            drop((p, c)); // two still in the ring
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    /// One call on the ring.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `n` single pushes.
        Push(usize),
        /// `n` single pops.
        Pop(usize),
        PushBatch(usize),
        PushBatchCopy(usize),
        PopBatch(usize),
    }

    impl Op {
        /// The call `kind` (0..5) of size `raw` scaled to `cap`: up to one
        /// and a half rings, so a run crosses the wrap at every capacity.
        fn at(kind: u8, raw: u32, cap: usize) -> Op {
            let n = raw as usize % (cap + cap / 2 + 2);
            match kind {
                0 => Op::Push(n),
                1 => Op::Pop(n),
                2 => Op::PushBatch(n),
                3 => Op::PushBatchCopy(n),
                _ => Op::PopBatch(n),
            }
        }
    }

    /// Each side's wrapped slot is its index modulo the capacity.
    fn assert_slots(p: &Producer<u64>, c: &Consumer<u64>) {
        let s = &*p.shared;
        let (tail, head) = (
            s.tail.load(Ordering::Relaxed),
            s.head.load(Ordering::Relaxed),
        );
        assert_eq!(p.slot.get(), tail % s.cap, "producer slot at tail {tail}");
        assert_eq!(c.slot.get(), head % s.cap, "consumer slot at head {head}");
    }

    proptest! {
        /// Every push and pop path against a `VecDeque`: same items in
        /// the same order, same counts, and the slot invariant after
        /// every call.
        #[test]
        fn ring_is_a_bounded_fifo(calls in prop::collection::vec((0u8..5, any::<u32>()), 1..40)) {
            for cap in [1, 2, 3, 7, 1000, 1024] {
                let ops = calls.iter().map(|&(kind, raw)| Op::at(kind, raw, cap));
                run_against_model(cap, ops)?;
            }
        }
    }

    /// Runs `ops` on a ring of `cap` and on a `VecDeque`, checking after
    /// every call.
    fn run_against_model(cap: usize, ops: impl Iterator<Item = Op>) -> Result<(), String> {
        let (p, c) = spsc::<u64>(cap);
        let mut model = VecDeque::new();
        let mut next = 0u64;
        let mut fresh = |n: usize| -> Vec<u64> {
            next += n as u64;
            (next - n as u64..next).collect()
        };
        for op in ops {
            let free = cap - model.len();
            match op {
                Op::Push(n) => {
                    for item in fresh(n) {
                        let full = model.len() == cap;
                        prop_assert_eq!(p.push(item).is_err(), full);
                        if !full {
                            model.push_back(item);
                        }
                    }
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        prop_assert_eq!(c.pop(), model.pop_front());
                    }
                }
                Op::PushBatch(n) => {
                    let mut items = fresh(n);
                    let want = items.clone();
                    let pushed = p.push_batch(&mut items);
                    prop_assert_eq!(pushed, n.min(free));
                    prop_assert_eq!(&items[..], &want[pushed..]);
                    model.extend(&want[..pushed]);
                }
                Op::PushBatchCopy(n) => {
                    let items = fresh(n);
                    let pushed = p.push_batch_copy(&items);
                    prop_assert_eq!(pushed, n.min(free));
                    model.extend(&items[..pushed]);
                }
                Op::PopBatch(n) => {
                    let mut out = vec![u64::MAX];
                    let popped = c.pop_batch(&mut out, n);
                    // The consumer's cached tail may lag the pushes since
                    // it last looked: a batch takes what it shows, and
                    // looks again only when that is nothing.
                    prop_assert!(popped <= n.min(model.len()));
                    prop_assert_eq!(popped == 0, n == 0 || model.is_empty());
                    let want: Vec<u64> = model.drain(..popped).collect();
                    prop_assert_eq!(&out[1..], &want[..]);
                }
            }
            prop_assert_eq!(p.len(), model.len());
            prop_assert_eq!(c.len(), model.len());
            assert_slots(&p, &c);
        }
        Ok(())
    }

    /// After the indices have wrapped, dropping the ring drops exactly
    /// the items still in it, each once.
    #[test]
    fn dropping_a_wrapped_ring_drops_the_items_in_flight() {
        use std::sync::Mutex;
        static DROPPED: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        #[derive(Debug)]
        struct Tagged(u32);
        impl Drop for Tagged {
            fn drop(&mut self) {
                DROPPED.lock().unwrap().push(self.0);
            }
        }
        let (p, c) = spsc(3);
        let mut batch: Vec<Tagged> = (0..2).map(Tagged).collect();
        assert_eq!(p.push_batch(&mut batch), 2);
        let mut out = Vec::new();
        assert_eq!(c.pop_batch(&mut out, 2), 2);
        // Slots 2, 0, 1: the batch crosses the end of the buffer.
        let mut batch: Vec<Tagged> = (2..5).map(Tagged).collect();
        assert_eq!(p.push_batch(&mut batch), 3);
        out.push(c.pop().unwrap());
        p.push(Tagged(5)).unwrap();
        drop(out);
        let delivered = std::mem::take(&mut *DROPPED.lock().unwrap());
        assert_eq!(delivered, [0, 1, 2]);
        assert_eq!(
            (p.shared.head.load(Ordering::Relaxed), p.slot.get()),
            (3, 0)
        );
        drop((p, c));
        assert_eq!(*DROPPED.lock().unwrap(), [3, 4, 5]);
    }
}
