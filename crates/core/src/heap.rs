//! The min-queue whose depth has no bound.
//!
//! Both halves of TQ take a minimum: a simulator its next event, a
//! ranked worker its next job. Where the queue can grow without limit
//! (a rack server's inbox, a worker's resident jobs under overload),
//! [`KeyHeap`] is that datapath, with O(log n) pushes, and
//! `tq_sim::EventQueue` and [`RankQueue`](crate::policy::RankQueue) are
//! keyings of it — each packs its order into one `u128` key and pushes
//! that with its payload:
//!
//! | queue | key |
//! |---|---|
//! | `EventQueue<E>` | `time << 64 \| seq` |
//! | `RankQueue<T>` | `rank << 64 \| seq` |
//!
//! (The serving engines' `tq_sim::TagQueue` is bounded by the core count
//! and is a sorted array instead: DESIGN.md "Packed event keys".)
//!
//! `seq` is [`KeyHeap::pushed`], so keys are unique and equal times or
//! ranks pop in push order. Unique keys make the pop order a total order
//! that no layout choice below can change. Two choices make it several
//! times cheaper per operation than `std::collections::BinaryHeap` at
//! simulation queue depths (tens of entries):
//!
//! * **Packed keys.** Every comparison is one integer compare instead of
//!   a lexicographic one, and keys sit next to their payloads in a flat
//!   `Vec`.
//! * **4-ary layout + front slot.** The heap is 4-ary (shallower, and
//!   sift-downs touch cache-adjacent children), and the current minimum
//!   is held in a dedicated *front slot* outside the heap. A push smaller
//!   than everything queued (a fresh job when every queued one has run,
//!   under least-attained service) lands in the front slot and is popped
//!   again without ever touching the heap.

/// Packs two words into one key that orders by `hi`, then by `lo`.
#[inline(always)]
pub fn pack(hi: u64, lo: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

/// A min-heap over unique `u128` keys, each carrying a payload `T`.
///
/// # Example
///
/// ```
/// use tq_core::heap::{pack, KeyHeap};
///
/// let mut h = KeyHeap::with_capacity(4);
/// h.push(pack(5, h.pushed()), "b");
/// h.push(pack(5, h.pushed()), "c");
/// h.push(pack(1, h.pushed()), "a");
/// let order: Vec<_> = std::iter::from_fn(|| h.pop()).map(|(_, v)| v).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct KeyHeap<T> {
    /// Fast-path slot. Invariant: when `Some`, its key is strictly
    /// smaller than every key in `heap` (strict because keys are unique).
    front: Option<(u128, T)>,
    /// 4-ary min-heap over keys: children of `i` are `4i+1 ..= 4i+4`,
    /// parent of `i` is `(i-1)/4`.
    heap: Vec<(u128, T)>,
    pushed: u64,
}

impl<T> KeyHeap<T> {
    /// Creates an empty heap with capacity for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        KeyHeap {
            front: None,
            heap: Vec::with_capacity(cap),
            pushed: 0,
        }
    }

    /// Keys pushed over the heap's lifetime: the sequence number the
    /// keyings pack below their order so keys are unique and ties FIFO.
    #[inline(always)]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Queues `item` under `key`, which must differ from every key queued.
    #[inline(always)]
    pub fn push(&mut self, key: u128, item: T) {
        self.pushed += 1;
        match self.front {
            Some((front, _)) if key < front => {
                // A new minimum demotes the old front into the heap.
                let old = self.front.take().expect("front checked Some");
                self.sift_up(old);
                self.front = Some((key, item));
            }
            None if self.heap.first().is_none_or(|(k, _)| key < *k) => {
                self.front = Some((key, item));
            }
            _ => self.sift_up((key, item)),
        }
    }

    /// Appends `item` under `key`, which must be larger than every key
    /// queued, without sifting: it is already in heap order. An
    /// ascending run into an empty heap is a heap, so a sorted batch
    /// loads in O(1) per entry.
    #[inline]
    pub fn push_largest(&mut self, key: u128, item: T) {
        debug_assert!(self.front.as_ref().is_none_or(|(k, _)| *k < key));
        debug_assert!(self.heap.is_empty() || self.heap[(self.heap.len() - 1) / 4].0 < key);
        self.pushed += 1;
        self.heap.push((key, item));
    }

    /// Removes and returns the entry with the smallest key.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(u128, T)> {
        match self.front.take() {
            Some(min) => Some(min),
            None => self.pop_heap(),
        }
    }

    /// The smallest key queued, without removing it.
    pub fn peek_key(&self) -> Option<u128> {
        self.front.as_ref().or(self.heap.first()).map(|(k, _)| *k)
    }

    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// Whether nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    #[inline]
    fn sift_up(&mut self, item: (u128, T)) {
        self.heap.push(item);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[i].0 < self.heap[parent].0 {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn pop_heap(&mut self) -> Option<(u128, T)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let item = self.heap.pop().expect("heap checked non-empty");
        let n = n - 1;
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let last = (first + 4).min(n);
            let mut min = first;
            for c in first + 1..last {
                if self.heap[c].0 < self.heap[min].0 {
                    min = c;
                }
            }
            if self.heap[min].0 < self.heap[i].0 {
                self.heap.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `item` at `hi` with the heap's own sequence number.
    fn push<T>(h: &mut KeyHeap<T>, hi: u64, item: T) {
        let key = pack(hi, h.pushed());
        h.push(key, item);
    }

    fn drain<T>(h: &mut KeyHeap<T>) -> Vec<T> {
        std::iter::from_fn(|| h.pop()).map(|(_, v)| v).collect()
    }

    #[test]
    fn front_slot_fast_path_chain() {
        // pop → push(successor that is the new minimum) → pop never
        // reorders: the successor must come out before the far entry.
        let mut h = KeyHeap::with_capacity(4);
        push(&mut h, 1_000_000, "far");
        push(&mut h, 1, "start");
        let mut t = 1u64;
        let mut hops = 0;
        loop {
            let (key, v) = h.pop().expect("non-empty");
            if v == "far" {
                assert_eq!(key >> 64, 1_000_000);
                break;
            }
            assert_eq!(key >> 64, t as u128);
            hops += 1;
            if t < 100 {
                t += 1;
                push(&mut h, t, "hop");
            }
        }
        assert_eq!(hops, 100);
        assert!(h.is_empty());
    }

    #[test]
    fn front_slot_demotes_on_earlier_push() {
        // Pushing successively smaller keys keeps popping globally
        // sorted even though each push displaces the front slot.
        let mut h = KeyHeap::with_capacity(4);
        for t in (1..=50u64).rev() {
            push(&mut h, t, t);
        }
        assert_eq!(drain(&mut h), (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn accepts_decreasing_keys() {
        // The heap has no notion of "now": a key may be smaller than
        // one already popped (a rank queue's ranks go down).
        let mut h = KeyHeap::with_capacity(0);
        push(&mut h, 10, 10u32);
        assert_eq!(h.pop().map(|(_, v)| v), Some(10));
        push(&mut h, 3, 3);
        push(&mut h, 1, 1);
        assert_eq!(h.peek_key().map(|k| k >> 64), Some(1));
        assert_eq!(drain(&mut h), [1, 3]);
    }

    #[test]
    fn bulk_append_then_a_smaller_push_pops_in_key_order() {
        // An ascending run appended unsifted, then a push below all of
        // it: the push takes the front slot and the run follows in order.
        let mut h = KeyHeap::with_capacity(16);
        for t in [2u64, 2, 3, 5, 8, 8, 13, 21, 34] {
            h.push_largest(pack(t, h.pushed()), t);
        }
        push(&mut h, 1, 1);
        push(&mut h, 8, 80);
        assert_eq!(h.len(), 11);
        assert_eq!(h.peek_key().map(|k| k >> 64), Some(1));
        assert_eq!(drain(&mut h), [1, 2, 2, 3, 5, 8, 8, 80, 13, 21, 34]);
        assert_eq!(h.pushed(), 11);
    }
}
