//! An arena-based probabilistic skip list.
//!
//! The classic Pugh structure RocksDB uses for its memtable: towers of
//! forward pointers with geometrically distributed heights give expected
//! O(log n) point lookups and O(1)-per-entry ordered iteration — exactly
//! the access pattern split (short descent vs. long pointer walk) that
//! makes GETs microsecond-scale and SCANs hundreds of microseconds.
//!
//! Nodes live in an arena (`Vec`) and link by index, which keeps the
//! implementation safe Rust and — useful for the cache study — gives
//! every node a stable synthetic "address" for access tracing.
//!
//! It also makes a walk resumable: a [`Cursor`] is the arena index of the
//! last entry yielded (the head sentinel before the first) — four `Copy`
//! bytes, no borrow. The arena is append-only (nodes never move or go;
//! an overwrite swaps the value in place), so an index is valid for the
//! list's life and needs no generation check. A resumed walk follows
//! `next[0]` as it is *now*: exactly the entries a fresh seek of "first
//! key > last key yielded" returns, whatever was inserted in between.

use std::fmt;

/// Maximum tower height (enough for billions of entries at p = 1/4).
pub const MAX_HEIGHT: usize = 16;

/// Sentinel index meaning "no next node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: Vec<u8>,
    value: Vec<u8>,
    /// Forward pointers, one per level; length = tower height.
    next: Vec<u32>,
}

/// A resumable position in a level-0 walk: just after one entry (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor(u32);

/// An ordered map from byte keys to byte values.
///
/// # Example
///
/// ```
/// use tq_kv::SkipList;
///
/// let mut sl = SkipList::new(7);
/// sl.insert(b"b".to_vec(), b"2".to_vec());
/// sl.insert(b"a".to_vec(), b"1".to_vec());
/// assert_eq!(sl.get(b"a"), Some(&b"1"[..]));
/// let keys: Vec<&[u8]> = sl.iter_from(b"a").map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![&b"a"[..], &b"b"[..]]);
/// ```
#[derive(Clone)]
pub struct SkipList {
    /// Arena; index 0 is the head sentinel (empty key, full height).
    nodes: Vec<Node>,
    /// Current maximum occupied height.
    height: usize,
    len: usize,
    rng: u64,
}

impl SkipList {
    /// Creates an empty list whose tower heights derive from `seed`.
    pub fn new(seed: u64) -> Self {
        SkipList {
            nodes: vec![Node {
                key: Vec::new(),
                value: Vec::new(),
                next: vec![NIL; MAX_HEIGHT],
            }],
            height: 1,
            len: 0,
            rng: seed | 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or replaces; returns the previous value if the key existed.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        let mut update = [0u32; MAX_HEIGHT];
        let found = self.find_update_path(&key, &mut update);
        if let Some(idx) = found {
            let old = std::mem::replace(&mut self.nodes[idx as usize].value, value);
            return Some(old);
        }
        let h = self.random_height();
        if h > self.height {
            // Splice from the head at newly-occupied levels.
            update[self.height..h].fill(0);
            self.height = h;
        }
        let idx = self.nodes.len() as u32;
        let mut next = Vec::with_capacity(h);
        for (level, &pred) in update.iter().enumerate().take(h) {
            next.push(self.nodes[pred as usize].next[level]);
        }
        self.nodes.push(Node { key, value, next });
        for (level, &pred) in update.iter().enumerate().take(h) {
            self.nodes[pred as usize].next[level] = idx;
        }
        self.len += 1;
        None
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.get_traced(key, &mut |_| {})
    }

    /// Point lookup that reports every arena index visited during the
    /// descent (head excluded) — the raw material for access traces.
    pub fn get_traced(&self, key: &[u8], visit: &mut impl FnMut(u32)) -> Option<&[u8]> {
        let mut cur = self.seek(key, visit);
        match self.cursor_next(&mut cur) {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    /// One descent: the position just after the last key below `start`.
    pub fn cursor_before(&self, start: &[u8]) -> Cursor {
        self.seek(start, &mut |_| {})
    }

    /// One `next[0]` hop: yields the entry after `cur` and moves `cur`
    /// onto it, or returns `None` at the end and leaves `cur` where it is.
    pub fn cursor_next(&self, cur: &mut Cursor) -> Option<(&[u8], &[u8])> {
        let next = self.nodes[cur.0 as usize].next[0];
        if next == NIL {
            return None;
        }
        *cur = Cursor(next);
        let node = &self.nodes[next as usize];
        Some((node.key.as_slice(), node.value.as_slice()))
    }

    /// Iterates entries with keys ≥ `start`, in order.
    pub fn iter_from(&self, start: &[u8]) -> IterFrom<'_> {
        IterFrom {
            list: self,
            cursor: self.cursor_before(start),
        }
    }

    /// Like [`SkipList::iter_from`], reporting each visited arena index.
    pub fn scan_traced(
        &self,
        start: &[u8],
        count: usize,
        visit: &mut impl FnMut(u32),
    ) -> Vec<(&[u8], &[u8])> {
        let mut cur = self.seek(start, visit);
        let walk = std::iter::from_fn(|| self.cursor_next(&mut cur).inspect(|_| visit(cur.0)));
        walk.take(count).collect()
    }

    /// Descends to the last node with key < `key` (or the head), reporting visits.
    fn seek(&self, key: &[u8], visit: &mut impl FnMut(u32)) -> Cursor {
        let mut pred = 0u32; // head
        for level in (0..self.height).rev() {
            loop {
                let next = self.nodes[pred as usize].next[level];
                if next == NIL {
                    break;
                }
                visit(next);
                if self.nodes[next as usize].key.as_slice() < key {
                    pred = next;
                } else {
                    break;
                }
            }
        }
        Cursor(pred)
    }

    /// Finds predecessors at every level; returns the node index if the
    /// exact key already exists.
    fn find_update_path(&self, key: &[u8], update: &mut [u32; MAX_HEIGHT]) -> Option<u32> {
        let mut pred = 0u32;
        for level in (0..self.height).rev() {
            loop {
                let next = self.nodes[pred as usize].next[level];
                if next == NIL || self.nodes[next as usize].key.as_slice() >= key {
                    break;
                }
                pred = next;
            }
            update[level] = pred;
        }
        let first = self.nodes[pred as usize].next[0];
        (first != NIL && self.nodes[first as usize].key == key).then_some(first)
    }

    /// Geometric tower height with p = 1/4, capped at [`MAX_HEIGHT`].
    fn random_height(&mut self) -> usize {
        // SplitMix64 step.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut h = 1;
        // Two random bits per level: promote with probability 1/4.
        while h < MAX_HEIGHT && (z & 0b11) == 0 {
            z >>= 2;
            h += 1;
        }
        h
    }

    /// The number of arena slots (for synthetic address assignment).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }
}

impl fmt::Debug for SkipList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len)
            .field("height", &self.height)
            .finish()
    }
}

/// Ordered iterator returned by [`SkipList::iter_from`].
#[derive(Debug)]
pub struct IterFrom<'a> {
    list: &'a SkipList,
    cursor: Cursor,
}

impl<'a> Iterator for IterFrom<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.list.cursor_next(&mut self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    #[test]
    fn insert_get_roundtrip() {
        let mut sl = SkipList::new(1);
        for i in 0..1000u32 {
            sl.insert(i.to_be_bytes().to_vec(), (i * 2).to_be_bytes().to_vec());
        }
        assert_eq!(sl.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(
                sl.get(&i.to_be_bytes()),
                Some((i * 2).to_be_bytes().as_slice())
            );
        }
        assert_eq!(sl.get(&1001u32.to_be_bytes()), None);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut sl = SkipList::new(1);
        assert_eq!(sl.insert(b"k".to_vec(), b"v1".to_vec()), None);
        assert_eq!(sl.insert(b"k".to_vec(), b"v2".to_vec()), Some(b"v1".to_vec()));
        assert_eq!(sl.len(), 1);
        assert_eq!(sl.get(b"k"), Some(&b"v2"[..]));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut sl = SkipList::new(3);
        // Insert in reverse to exercise ordering.
        for i in (0..500u32).rev() {
            sl.insert(i.to_be_bytes().to_vec(), vec![]);
        }
        let keys: Vec<Vec<u8>> = sl.iter_from(&[]).map(|(k, _)| k.to_vec()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn iter_from_seeks_to_lower_bound() {
        let mut sl = SkipList::new(3);
        for i in [10u32, 20, 30] {
            sl.insert(i.to_be_bytes().to_vec(), vec![]);
        }
        let first = sl.iter_from(&15u32.to_be_bytes()).next().unwrap();
        assert_eq!(first.0, 20u32.to_be_bytes().as_slice());
    }

    #[test]
    fn get_traced_visits_log_n_nodes() {
        let mut sl = SkipList::new(5);
        for i in 0..100_000u32 {
            sl.insert(i.to_be_bytes().to_vec(), vec![0u8; 8]);
        }
        let mut visits = 0usize;
        sl.get_traced(&54_321u32.to_be_bytes(), &mut |_| visits += 1);
        assert!(
            visits < 200,
            "descent visited {visits} nodes in a 100k list (expected O(log n))"
        );
    }

    #[test]
    fn scan_traced_returns_count_entries() {
        let mut sl = SkipList::new(5);
        for i in 0..1_000u32 {
            sl.insert(i.to_be_bytes().to_vec(), vec![1]);
        }
        let mut visits = Vec::new();
        let got = sl.scan_traced(&100u32.to_be_bytes(), 50, &mut |i| visits.push(i));
        assert_eq!(got.len(), 50);
        assert_eq!(got[0].0, 100u32.to_be_bytes().as_slice());
        assert!(visits.len() >= 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut sl = SkipList::new(99);
            for i in 0..200u32 {
                sl.insert(i.to_be_bytes().to_vec(), vec![i as u8]);
            }
            sl.arena_len()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn slicing_a_traced_scan_adds_no_visits() {
        let mut sl = SkipList::new(5);
        for i in 0..5_000u32 {
            sl.insert(i.to_be_bytes().to_vec(), vec![1]);
        }
        let start = 100u32.to_be_bytes();
        let mut whole = Vec::new();
        let want = sl.scan_traced(&start, 2_000, &mut |i| whole.push(i));
        assert_eq!(want.len(), 2_000);

        // The same scan re-entered every 32 entries from a saved cursor:
        // one descent, then exactly the unsliced walk's node sequence
        // (re-seeking per slice, as the parent did, adds 62 descents).
        let mut sliced = Vec::new();
        let mut got = Vec::new();
        let mut saved = sl.seek(&start, &mut |i| sliced.push(i));
        let descent = sliced.len();
        while got.len() < 2_000 {
            let mut cur = saved; // a slice resumes from four saved bytes
            for _ in 0..32.min(2_000 - got.len()) {
                got.push(sl.cursor_next(&mut cur).expect("5000 keys"));
                sliced.push(cur.0);
            }
            saved = cur;
        }
        assert_eq!(got, want);
        assert_eq!(sliced, whole);
        assert_eq!(sliced.len(), descent + 2_000);
    }

    #[test]
    fn exhausted_cursors_stay_exhausted() {
        let mut sl = SkipList::new(5);
        assert_eq!(sl.cursor_next(&mut sl.cursor_before(b"")), None);
        for i in 0..100u32 {
            sl.insert(i.to_be_bytes().to_vec(), vec![1]);
        }
        // A start key past the last key.
        let mut cur = sl.cursor_before(&100u32.to_be_bytes());
        let at_end = cur;
        assert_eq!(sl.cursor_next(&mut cur), None);
        assert_eq!(sl.cursor_next(&mut cur), None);
        assert_eq!(cur, at_end);
        assert_eq!(sl.iter_from(&100u32.to_be_bytes()).count(), 0);
        // A walk that runs off the end stops on the last entry.
        let mut cur = sl.cursor_before(&90u32.to_be_bytes());
        let mut n = 0;
        while sl.cursor_next(&mut cur).is_some() {
            n += 1;
        }
        assert_eq!((n, cur), (10, at_end));
        assert_eq!(sl.cursor_next(&mut cur), None);
        assert_eq!(cur, at_end);
        // count == 0 reads nothing, at the end or anywhere else.
        assert!(sl.scan_traced(b"", 0, &mut |_| ()).is_empty());
        assert_eq!(sl.iter_from(b"").take(0).count(), 0);
    }

    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    fn pairs(max: usize) -> impl Strategy<Value = Pairs> {
        let bytes = || prop::collection::vec(any::<u8>(), 0..8);
        prop::collection::vec((bytes(), bytes()), 0..max)
    }

    proptest! {
        #[test]
        fn behaves_like_btreemap(
            ops in pairs(200),
            start in prop::collection::vec(any::<u8>(), 0..8),
            walk in prop::collection::vec((0usize..40, pairs(6)), 0..12),
        ) {
            let mut sl = SkipList::new(42);
            let mut model = BTreeMap::new();
            for (k, v) in &ops {
                let expect = model.insert(k.clone(), v.clone());
                let got = sl.insert(k.clone(), v.clone());
                prop_assert_eq!(got, expect);
            }
            prop_assert_eq!(sl.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(sl.get(k), Some(v.as_slice()));
            }
            // Full iteration matches the model's order.
            let got: Vec<_> = sl.iter_from(&[]).map(|(k, _)| k.to_vec()).collect();
            let expect: Vec<_> = model.keys().cloned().collect();
            prop_assert_eq!(got, expect);

            // A cursor walk from `start`, stopped after each `hops` and
            // resumed after `inserts` (new keys and overwrites) landed,
            // yields what re-seeking "first key > last yielded" would:
            // no duplicate, no reorder, no key skipped that was present
            // when its turn came, overwritten values as they are now.
            // Before the first hop the cursor sits after the last key
            // below `start`, so `last` starts there.
            let mut cur = sl.cursor_before(&start);
            let below = (Bound::Unbounded, Bound::Excluded(start.as_slice()));
            let mut last = model.range::<[u8], _>(below).next_back().map(|(k, _)| k.clone());
            for (hops, inserts) in &walk {
                for _ in 0..*hops {
                    let above = last.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
                    let expect = model.range::<[u8], _>((above, Bound::Unbounded)).next();
                    let got = sl.cursor_next(&mut cur);
                    prop_assert_eq!(got, expect.map(|(k, v)| (k.as_slice(), v.as_slice())));
                    if let Some((k, _)) = got {
                        last = Some(k.to_vec());
                    }
                }
                for (k, v) in inserts {
                    let expect = model.insert(k.clone(), v.clone());
                    prop_assert_eq!(sl.insert(k.clone(), v.clone()), expect);
                }
            }
        }
    }
}
