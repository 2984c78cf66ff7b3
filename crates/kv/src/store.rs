//! The key-value store facade.
//!
//! Wraps the skip list with the two operations the paper's RocksDB
//! workload issues — GET and SCAN — plus deterministic population and
//! optional access tracing for the Figure 15 reuse-distance study.

use crate::skiplist::{Cursor, SkipList, Visit};
use crate::trace::AccessTrace;

/// Bytes of synthetic address space per skip-list arena slot. A stride of
/// the trace model (a node header + key + tower in two cache lines, as a
/// pointer-linked memtable would lay them out), not a claim about where
/// `SkipList` keeps a node's parts; values are addressed in a separate
/// region.
const NODE_STRIDE: u64 = 128;

/// An in-memory ordered KV store with RocksDB-shaped operations.
///
/// # Example
///
/// ```
/// use tq_kv::KvStore;
///
/// let mut store = KvStore::new(1);
/// store.populate(1_000, 32);
/// assert_eq!(store.len(), 1_000);
/// assert!(store.get(&KvStore::nth_key(999)).is_some());
/// ```
#[derive(Debug)]
pub struct KvStore {
    list: SkipList,
    value_size: usize,
}

impl KvStore {
    /// Creates an empty store; `seed` fixes skip-list tower heights.
    pub fn new(seed: u64) -> Self {
        KvStore {
            list: SkipList::new(seed),
            value_size: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The canonical key of entry `i` (big-endian, so numeric order is
    /// byte order).
    pub fn nth_key(i: u64) -> Vec<u8> {
        Self::nth_key_bytes(i).to_vec()
    }

    /// [`KvStore::nth_key`] without the allocation.
    pub fn nth_key_bytes(i: u64) -> [u8; 8] {
        i.to_be_bytes()
    }

    /// Fills the store with `n` entries of `value_size`-byte values,
    /// keyed [`KvStore::nth_key`]`(0..n)`.
    pub fn populate(&mut self, n: u64, value_size: usize) {
        self.value_size = value_size;
        let entries = usize::try_from(n).expect("entry count fits in memory");
        self.list
            .reserve(entries, entries.saturating_mul(8 + value_size));
        let mut v = vec![0u8; value_size];
        for i in 0..n {
            v.fill((i % 251) as u8);
            self.list.insert(Self::nth_key_bytes(i), &v);
        }
    }

    /// Inserts one entry.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.list.insert(key, value);
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.list.get(key)
    }

    /// Range scan: up to `count` entries with keys ≥ `start`.
    pub fn scan(&self, start: &[u8], count: usize) -> Vec<(&[u8], &[u8])> {
        let mut out = Vec::with_capacity(count.min(self.len()));
        let mut cur = self.list.cursor_before(start);
        self.list
            .walk(&mut cur, count, &mut |k, v| out.push((k, v)));
        out
    }

    /// Where a resumable scan of keys ≥ `start` begins: one descent.
    pub fn cursor_before(&self, start: &[u8]) -> Cursor {
        self.list.cursor_before(start)
    }

    /// The next entry of a resumable scan: one pointer hop (see [`Cursor`]).
    #[inline(always)]
    pub fn cursor_next(&self, cur: &mut Cursor) -> Option<(&[u8], &[u8])> {
        self.list.cursor_next(cur)
    }

    /// The next ≤ `n` entries of a resumable scan, handed to `visit` in
    /// order; returns how many (see [`SkipList::walk`]).
    #[inline(always)]
    pub fn walk<'a>(&'a self, cur: &mut Cursor, n: usize, visit: &mut impl Visit<'a>) -> usize {
        self.list.walk(cur, n, visit)
    }

    /// GET with a synthetic memory-access trace: descent node touches,
    /// value copy, and the reused comparator/staging working set.
    pub fn get_with_trace(&self, key: &[u8], trace: &mut AccessTrace) -> Option<&[u8]> {
        let value_base = self.value_region_base();
        let mut last = 0;
        let result = self.list.get_traced(key, &mut |node| {
            // Node header + key: two lines at the node's arena address;
            // then the comparator's working line — reused every visit,
            // the source of small intra-job reuse distances.
            let addr = node as u64 * NODE_STRIDE;
            trace.touch(addr);
            trace.touch(addr + 64);
            trace.touch(u64::MAX - 1024); // comparator scratch
            last = node as u64;
        });
        if let Some(v) = result {
            // A hit's last visit is the node it found: the value's address
            // comes from that index, never from where the bytes really are.
            trace.touch_range(value_base + last * 64, v.len() as u64);
        }
        result
    }

    /// SCAN with a synthetic trace: one pointer-walk touch per entry,
    /// value copy, and the staging buffer every output engine reuses
    /// (4 KiB ring — those accesses dominate and have small reuse
    /// distances, matching the paper's Figure 15 observation that even
    /// SCAN has substantial intra-job locality).
    pub fn scan_with_trace(
        &self,
        start: &[u8],
        count: usize,
        trace: &mut AccessTrace,
    ) -> Vec<(&[u8], &[u8])> {
        let value_base = self.value_region_base();
        let staging_base = u64::MAX - (1 << 16);
        let mut staged: u64 = 0;
        let out = self.list.scan_traced(start, count, &mut |node| {
            trace.touch(node as u64 * NODE_STRIDE);
        });
        for (i, (_, v)) in out.iter().enumerate() {
            // Copy the value into the 4 KiB staging ring: read value
            // lines, write staging lines (which wrap and get reused).
            trace.touch_range(value_base + (i as u64) * 256, v.len() as u64);
            let len = (v.len() as u64).max(1);
            for _ in 0..len.div_ceil(64) {
                trace.touch(staging_base + (staged % 4096));
                staged += 64;
            }
            // Comparator/iterator state each step.
            trace.touch(u64::MAX - 1024);
        }
        out
    }

    fn value_region_base(&self) -> u64 {
        (self.list.arena_len() as u64 + 1) * NODE_STRIDE
    }

    #[cfg(test)]
    pub(crate) fn list(&self) -> &SkipList {
        &self.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> KvStore {
        let mut s = KvStore::new(9);
        s.populate(n, 100);
        s
    }

    #[test]
    fn populate_and_get() {
        let s = filled(5_000);
        assert_eq!(s.len(), 5_000);
        let v = s.get(&KvStore::nth_key(4_321)).expect("present");
        assert_eq!(v.len(), 100);
        assert!(s.get(&KvStore::nth_key(5_000)).is_none());
    }

    #[test]
    fn scan_is_ordered_prefix() {
        let s = filled(1_000);
        let entries = s.scan(&KvStore::nth_key(500), 10);
        assert_eq!(entries.len(), 10);
        for (i, (k, _)) in entries.iter().enumerate() {
            assert_eq!(*k, KvStore::nth_key(500 + i as u64).as_slice());
        }
    }

    #[test]
    fn scan_truncates_at_end() {
        let s = filled(100);
        let entries = s.scan(&KvStore::nth_key(95), 10);
        assert_eq!(entries.len(), 5);
    }

    #[test]
    fn get_trace_is_short() {
        let s = filled(100_000);
        let mut t = AccessTrace::new();
        s.get_with_trace(&KvStore::nth_key(54_321), &mut t).unwrap();
        assert!(!t.is_empty());
        // A GET's footprint is O(log n) nodes + one value: well under a
        // thousand line touches.
        assert!(t.len() < 1_000, "GET touched {} lines", t.len());
    }

    #[test]
    fn traces_depend_on_the_seed_alone() {
        // Two stores alive at once, so no two of their allocations share an
        // address: a trace that leaked a real pointer would differ.
        let (a, b) = (filled(20_000), filled(20_000));
        let (mut ta, mut tb) = (AccessTrace::new(), AccessTrace::new());
        for i in 0..200u64 {
            let key = KvStore::nth_key((i * 977) % 20_000);
            assert!(a.get_with_trace(&key, &mut ta).is_some());
            assert!(b.get_with_trace(&key, &mut tb).is_some());
        }
        assert_eq!(ta.lines(), tb.lines());
    }

    #[test]
    fn scan_trace_reuses_staging_buffer() {
        let s = filled(10_000);
        let mut t = AccessTrace::new();
        let got = s.scan_with_trace(&KvStore::nth_key(0), 500, &mut t);
        assert_eq!(got.len(), 500);
        // The 4 KiB staging ring (64 lines) must be re-touched many times.
        let staging_lines: std::collections::HashSet<u64> = t
            .lines()
            .iter()
            .copied()
            .filter(|&l| l >= (u64::MAX - (1 << 16)) / 64 - 1)
            .collect();
        assert!(
            staging_lines.len() <= 66,
            "staging region should stay 4KiB: {} distinct lines",
            staging_lines.len()
        );
    }

    #[test]
    fn put_overrides() {
        let mut s = filled(10);
        s.put(KvStore::nth_key(3), vec![9; 4]);
        assert_eq!(s.get(&KvStore::nth_key(3)), Some(&[9u8, 9, 9, 9][..]));
    }
}
