//! An arena-based probabilistic skip list.
//!
//! The classic Pugh structure RocksDB uses for its memtable: towers of
//! forward pointers with geometrically distributed heights give expected
//! O(log n) point lookups and O(1)-per-entry ordered iteration — exactly
//! the access pattern split (short descent vs. long pointer walk) that
//! makes GETs microsecond-scale and SCANs hundreds of microseconds.
//!
//! Nodes live in five packed arenas (`Vec`s) and link by index: safe Rust,
//! no allocation per node, and — useful for the cache study — a stable
//! synthetic "address" for every node in an access trace:
//!
//! - `next0`: every node's level-0 link, dense and in an array of its
//!   own — 4 bytes a node, 32 KB for 8192 keys. A list loaded in key
//!   order keeps each node's successor in the next slot, so `next0[i] ==
//!   i + 1` over long runs, and [`SkipList::walk`] reads a run as an
//!   array: it checks eight links in one compare, then the eight records'
//!   spans in one branch, and hands the eight entries on as one
//!   [`Chunk`] with no load depending on a link. Where a run breaks (a
//!   key inserted out of order) it falls back to hopping, where each link
//!   is the only load the next hop depends on: the chain stays in L1 and
//!   the loads of each node's record come off it and overlap.
//! - `prefix`: every node's first 8 key bytes as a big-endian `u64`,
//!   zero-padded. Two prefixes that differ order their keys as the byte
//!   strings do (a zero pad sorts a key below its extensions), so a
//!   descent, and the binary search of a list in key order (below),
//!   compare `u64`s out of one dense array. On a tie they compare lengths
//!   (a key of at most 8 bytes is then a prefix of the other) and read
//!   key bytes only where both keys run past 8 bytes.
//! - `recs`: a 16-byte record a node: where its entry starts, its key and
//!   value lengths, and where its tower is.
//! - `links`: the links of levels ≥ 1, each node's tower contiguous.
//! - `bytes`: every entry's key, its value right after it.
//!
//! An entry is one span of `bytes`: `key .. key + key_len + value_len`,
//! the key then the value. A record is valid when that span lies in
//! `bytes`, and that one range check (one compare, no overflow: the three
//! `u32`s add in `usize`) is all a reader needs before it splits the span
//! after the key. An overwrite keeps the span whole: a value no longer
//! than the old one is written in place after the key, a longer one is
//! appended with a fresh copy of its key and the record re-pointed at it.
//!
//! Beside them, `tail` holds the last node at every level. An insert of a
//! key above every key in the list (what loading a store in key order
//! does for every key, RocksDB's sequential-insert hint) links after
//! `tail` and skips the descent; any other insert descends once.
//!
//! While every new node has been linked after the one in the slot before
//! it, `in_order` is set: `next0[i] == i + 1` over the whole list, so node
//! `i` holds the `i`-th smallest key and arena order is key order. A load
//! in key order (`populate`, any sorted bulk load) leaves a list so.
//! There [`SkipList::cursor_before`] and [`SkipList::get`] skip the
//! descent's ~30 dependent node visits and halve `1..=len` instead, one
//! prefix compare a probe. The first insert linked anywhere else clears
//! the flag for good, and both descend as before. The traced readers
//! (`get_traced`, `scan_traced`) and `insert` always descend, so traces
//! and tower layouts do not depend on the flag.
//!
//! It also makes a walk resumable: a [`Cursor`] is the arena index of the
//! last entry yielded (the head sentinel before the first) — four `Copy`
//! bytes, no borrow. The arenas are append-only (nodes never move or go;
//! an overwrite re-points a record at most, by the rule above), so an
//! index is valid for the list's life and needs no generation check. A
//! resumed walk follows `next0` as it is *now*: exactly the entries a
//! fresh seek of "first key > last key yielded" returns, whatever was
//! inserted in between.

use std::fmt;
use std::hint::select_unpredictable;

/// Maximum tower height (enough for billions of entries at p = 1/4).
pub const MAX_HEIGHT: usize = 16;

/// Sentinel index meaning "no next node".
const NIL: u32 = u32::MAX;

/// The one `usize → u32` conversion, for every node index, arena offset and
/// length: it fits and is not [`NIL`], or the panic comes before any link.
fn index(n: usize) -> u32 {
    match u32::try_from(n) {
        Ok(i) if i != NIL => i,
        _ => panic!("tq-kv skip list arena is full"),
    }
}

/// Where one node's parts are in the arenas.
#[derive(Debug, Clone, Copy, Default)]
struct Rec {
    /// Offset in `bytes` of the key; the value follows it (module docs).
    key: u32,
    key_len: u32,
    value_len: u32,
    /// Offset in `links` of the level-1 link; levels 2.. follow it.
    tower: u32,
}

impl Rec {
    /// The entry's key and value bytes together: its span's length.
    #[inline(always)]
    fn len(&self) -> usize {
        self.key_len as usize + self.value_len as usize
    }

    /// One past the entry's last byte in `bytes`: its span's end.
    #[inline(always)]
    fn end(&self) -> usize {
        self.key as usize + self.len()
    }
}

/// The key and value of `rec`: its span of `bytes`, split after the key.
/// Panics where the span runs past `bytes`, which no record's does: each
/// is written with its bytes.
#[inline(always)]
fn split<'a>(bytes: &'a [u8], rec: &Rec) -> (&'a [u8], &'a [u8]) {
    bytes[rec.key as usize..rec.end()].split_at(rec.key_len as usize)
}

/// `arena`'s slots from `from` on, [`CHUNK`] at a time (none past its end).
#[inline(always)]
fn chunks<T>(arena: &[T], from: usize) -> &[[T; CHUNK]] {
    arena.get(from..).unwrap_or_default().as_chunks().0
}

/// A resumable position in a level-0 walk: just after one entry (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor(u32);

/// Entries in a [`Chunk`]: the links [`SkipList::walk`] checks in one compare.
pub const CHUNK: usize = 8;

/// [`CHUNK`] entries in a row that [`SkipList::walk`] read as an array,
/// every record's span already checked to lie in the list's bytes.
#[derive(Debug, Clone, Copy)]
pub struct Chunk<'a> {
    bytes: &'a [u8],
    recs: &'a [Rec; CHUNK],
}

impl<'a> Chunk<'a> {
    /// The key and value of entry `j` (`0..CHUNK`, in key order).
    #[inline(always)]
    pub fn entry(&self, j: usize) -> (&'a [u8], &'a [u8]) {
        split(self.bytes, &self.recs[j])
    }

    /// Each entry's key length plus value length, in key order: what its
    /// record says, with no load of its bytes.
    #[inline(always)]
    pub fn lens(&self) -> [u64; CHUNK] {
        self.recs.each_ref().map(|rec| rec.len() as u64)
    }
}

/// What [`SkipList::walk`] hands its entries to, in key order: one at a
/// time where it hops, a [`Chunk`] at a time where it reads a run as an
/// array. Any `FnMut(key, value)` is one, taking a chunk entry by entry.
pub trait Visit<'a> {
    /// The next entry.
    fn entry(&mut self, key: &'a [u8], value: &'a [u8]);

    /// The next [`CHUNK`] entries; by default [`Visit::entry`] for each.
    #[inline(always)]
    fn chunk(&mut self, chunk: Chunk<'a>) {
        for j in 0..CHUNK {
            let (key, value) = chunk.entry(j);
            self.entry(key, value);
        }
    }
}

impl<'a, F: FnMut(&'a [u8], &'a [u8])> Visit<'a> for F {
    #[inline(always)]
    fn entry(&mut self, key: &'a [u8], value: &'a [u8]) {
        self(key, value)
    }
}

/// An ordered map from byte keys to byte values.
///
/// # Example
///
/// ```
/// use tq_kv::SkipList;
///
/// let mut sl = SkipList::new(7);
/// sl.insert(b"b", b"2");
/// sl.insert(b"a", b"1");
/// assert_eq!(sl.get(b"a"), Some(&b"1"[..]));
/// let keys: Vec<&[u8]> = sl.iter_from(b"a").map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![&b"a"[..], &b"b"[..]]);
/// ```
#[derive(Clone)]
pub struct SkipList {
    /// The five arenas (module docs); node 0 is the head sentinel (empty key, full height).
    next0: Vec<u32>,
    prefix: Vec<u64>,
    recs: Vec<Rec>,
    links: Vec<u32>,
    bytes: Vec<u8>,
    /// The last node at every level (the head where there is none): an
    /// appending insert's update path.
    tail: [u32; MAX_HEIGHT],
    /// Whether arena order is key order: `next0[i] == i + 1` over the
    /// whole list (module docs). Cleared for good by the first insert
    /// that links a new node after any node but the last slot.
    in_order: bool,
    /// Current maximum occupied height.
    height: usize,
    rng: u64,
}

impl SkipList {
    /// Creates an empty list whose tower heights derive from `seed`.
    pub fn new(seed: u64) -> Self {
        SkipList {
            next0: vec![NIL],
            prefix: vec![0],
            recs: vec![Rec::default()],
            links: vec![NIL; MAX_HEIGHT - 1],
            bytes: Vec::new(),
            tail: [0; MAX_HEIGHT],
            in_order: true,
            height: 1,
            rng: seed | 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.recs.len() - 1 // every node but the head
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserves room for `nodes` more entries holding `bytes` more key and
    /// value bytes.
    pub(crate) fn reserve(&mut self, nodes: usize, bytes: usize) {
        self.next0.reserve(nodes);
        self.prefix.reserve(nodes);
        self.recs.reserve(nodes);
        // A tower has 1/3 of a link above level 0 on average (p = 1/4).
        self.links.reserve(nodes / 3 + MAX_HEIGHT);
        self.bytes.reserve(bytes);
    }

    /// Inserts or replaces; returns the previous value if the key existed.
    pub fn insert(&mut self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> Option<Vec<u8>> {
        let (key, value) = (key.as_ref(), value.as_ref());
        let want = prefix_of(key);
        // Above the last key, `tail` is the path a descent would find.
        let update = if self.below(self.tail[0], key, want) {
            self.tail
        } else {
            self.descend(key, &mut |_| {})
        };
        let mut at = Cursor(update[0]);
        if let Some((_, old)) = self.cursor_next(&mut at).filter(|&(k, _)| k == key) {
            let (old, len) = (old.to_vec(), index(value.len()));
            let rec = &mut self.recs[at.0 as usize];
            // The value stays right after its key (module docs).
            if value.len() > old.len() {
                rec.key = index(self.bytes.len());
                self.bytes.extend_from_slice(key);
                self.bytes.extend_from_slice(value);
            } else {
                let at = rec.key as usize + key.len();
                self.bytes[at..][..value.len()].copy_from_slice(value);
            }
            rec.value_len = len;
            return Some(old);
        }
        let h = self.random_height();
        let idx = index(self.recs.len());
        let rec = Rec {
            key: index(self.bytes.len()),
            key_len: index(key.len()),
            value_len: index(value.len()),
            tower: index(self.links.len()),
        };
        self.height = self.height.max(h); // `update` is the head at newly-occupied levels
        self.bytes.extend_from_slice(key);
        self.bytes.extend_from_slice(value);
        self.recs.push(rec);
        self.prefix.push(want);
        self.in_order &= update[0] + 1 == idx;
        // Each predecessor's link becomes the new node's, then points at
        // it; a node linked in before `NIL` is its level's new tail.
        let after = std::mem::replace(&mut self.next0[update[0] as usize], idx);
        self.next0.push(after);
        if after == NIL {
            self.tail[0] = idx;
        }
        for (level, &pred) in update.iter().enumerate().take(h).skip(1) {
            let link = self.recs[pred as usize].tower as usize + level - 1;
            let after = std::mem::replace(&mut self.links[link], idx);
            self.links.push(after);
            if after == NIL {
                self.tail[level] = idx;
            }
        }
        None
    }

    /// Point lookup: [`SkipList::cursor_before`], then one hop.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let mut cur = self.cursor_before(key);
        match self.cursor_next(&mut cur) {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        }
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

    /// The position just after the last key below `start`: a binary
    /// search over the arena while it is in key order, else one descent.
    pub fn cursor_before(&self, start: &[u8]) -> Cursor {
        if self.in_order {
            self.halve(start)
        } else {
            self.seek(start, &mut |_| {})
        }
    }

    /// [`SkipList::seek`] on a list in key order, where node `i` holds the
    /// `i`-th smallest key: the last node `below` the key (the head for
    /// none), found by one binary search over `1..=len`. Each probe is one
    /// `below`, so a run of keys that tie in their prefix costs no more
    /// than any other.
    fn halve(&self, key: &[u8]) -> Cursor {
        let want = prefix_of(key);
        // A key of at most 8 bytes not ending in a zero byte ties in its
        // padded prefix only with itself and its extensions, none of them
        // below it: there `below` is its prefix compare alone, and the
        // probe of the key's own node takes no branch to a tie.
        if key.len() <= 8 && key.last() != Some(&0) {
            self.halve_by(|node| self.prefix[node] < want)
        } else {
            self.halve_by(|node| self.below(node as u32, key, want))
        }
    }

    /// [`SkipList::halve`]'s search, for a `below` that holds on `1..=p`
    /// and on no later node: returns `p` (0 for none).
    #[inline(always)]
    fn halve_by(&self, below: impl Fn(usize) -> bool) -> Cursor {
        // The answer is in `lo..=lo + n`; `lo` is the head or below the key.
        let (mut lo, mut n) = (0, self.len());
        while n > 0 {
            let half = n - n / 2;
            let mid = lo + half;
            // A conditional move, not a branch: each probe's outcome is a
            // coin toss the predictor would lose half the time.
            lo = select_unpredictable(below(mid), mid, lo);
            n -= half;
        }
        Cursor(lo as u32)
    }

    /// One `next0` hop: yields the entry after `cur` and moves `cur`
    /// onto it, or returns `None` at the end and leaves `cur` where it is.
    /// Always inlined, with [`SkipList::entry`]: a caller's walk is then
    /// loads, not calls (`#[inline]` alone left it out of line in a caller
    /// with many call sites).
    #[inline(always)]
    pub fn cursor_next(&self, cur: &mut Cursor) -> Option<(&[u8], &[u8])> {
        let next = self.next0[cur.0 as usize];
        if next == NIL {
            return None;
        }
        *cur = Cursor(next);
        Some(self.entry(next))
    }

    /// Hands `visit` the next ≤ `n` entries after `cur`, in order, moves
    /// `cur` onto the last one and returns how many it handed: exactly
    /// what `n` [`SkipList::cursor_next`] calls yield, on any list.
    ///
    /// Where the next [`CHUNK`] level-0 links run through consecutive slots
    /// (`next0[at + j] == at + j + 1`, as a load in key order leaves them)
    /// it checks all eight at once, then all eight records' spans at once,
    /// and hands those slots on as one [`Chunk`]. The first chunk that
    /// breaks the run, or holds a record whose span runs past `bytes`,
    /// ends that phase, and the rest of the window hops one entry at a
    /// time (module docs); the hop panics on such a record, as
    /// [`SkipList::cursor_next`] does. Always inlined, as the hop is.
    #[inline(always)]
    pub fn walk<'a>(&'a self, cur: &mut Cursor, n: usize, visit: &mut impl Visit<'a>) -> usize {
        let start = cur.0 as usize;
        let mut at = start;
        // The array phase walks `next0` from the cursor's slot and `recs`
        // from the slot after it, a chunk of each a step, in lockstep, with
        // no bounds check a step. It counts in slots: `at - start` entries
        // handed.
        let (links, recs) = (chunks(&self.next0, at), chunks(&self.recs, at + 1));
        for (links, recs) in links.iter().zip(recs).take(n / CHUNK) {
            // Every link compared, no short circuit: one vector compare.
            // `at + 8` is a slot of `next0`, so no `u32` here wraps.
            let base = at as u32;
            let run = (0..CHUNK).fold(true, |run, j| run & (links[j] == base + j as u32 + 1));
            if !run {
                break;
            }
            // Every span checked, no short circuit: one branch a chunk.
            // `end - (len + 1)` wraps to a value with its top bit set
            // exactly where a span lies in the bytes (no length nears
            // 2⁶³), so the AND of the eight has it set where all do. Each
            // end adds its key to the span's length, the sum a fold reads
            // (`Chunk::lens`): summed in another order, the compiler held
            // the key and value lengths apart and spilled them.
            let over = self.bytes.len() + 1;
            let lens = recs.each_ref().map(Rec::len);
            let fit = (0..CHUNK).fold(!0, |fit, j| {
                fit & (recs[j].key as usize + lens[j]).wrapping_sub(over)
            });
            if (fit as isize) >= 0 {
                break;
            }
            visit.chunk(Chunk {
                bytes: &self.bytes,
                recs,
            });
            at += CHUNK;
        }
        let mut done = at - start;
        // The hop of `cursor_next`, on a `usize` index: a `u32` cursor
        // re-widened every hop put a move on the chain of dependent loads.
        while done < n {
            let next = self.next0[at];
            if next == NIL {
                break;
            }
            at = next as usize;
            let (k, v) = self.entry(next);
            visit.entry(k, v);
            done += 1;
        }
        *cur = Cursor(at as u32);
        done
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

    /// The key and value of `node`.
    #[inline(always)]
    fn entry(&self, node: u32) -> (&[u8], &[u8]) {
        split(&self.bytes, &self.recs[node as usize])
    }

    /// The node after `node` at `level`, which `node`'s tower reaches.
    fn next(&self, node: u32, level: usize) -> u32 {
        match level {
            0 => self.next0[node as usize],
            _ => self.links[self.recs[node as usize].tower as usize + level - 1],
        }
    }

    /// Descends to the last node with key < `key` (or the head), reporting visits.
    fn seek(&self, key: &[u8], visit: &mut impl FnMut(u32)) -> Cursor {
        Cursor(self.descend(key, visit)[0])
    }

    /// [`SkipList::seek`]'s descent: the last node with key < `key` at
    /// every level, the head at those above the occupied height.
    fn descend(&self, key: &[u8], visit: &mut impl FnMut(u32)) -> [u32; MAX_HEIGHT] {
        let want = prefix_of(key);
        let mut path = [0u32; MAX_HEIGHT]; // head
        let mut pred = 0u32;
        for level in (0..self.height).rev() {
            loop {
                let next = self.next(pred, level);
                if next == NIL {
                    break;
                }
                visit(next);
                if !self.below(next, key, want) {
                    break;
                }
                pred = next;
            }
            path[level] = pred;
        }
        path
    }

    /// Whether `node`'s key sorts below `key`, whose prefix is `want`:
    /// the prefixes decide unless they tie (module docs).
    #[inline(always)]
    fn below(&self, node: u32, key: &[u8], want: u64) -> bool {
        let have = self.prefix[node as usize];
        if have == want {
            self.tie_below(node, key)
        } else {
            have < want
        }
    }

    /// [`SkipList::below`] where the prefixes tie. With their first 8
    /// bytes equal (zero pads included), a key of at most 8 bytes is a
    /// prefix of the other, so the shorter sorts first; only two keys
    /// longer than 8 bytes need their bytes compared.
    #[inline(always)]
    fn tie_below(&self, node: u32, key: &[u8]) -> bool {
        let have = self.recs[node as usize].key_len as usize;
        if have.min(key.len()) <= 8 {
            have < key.len()
        } else {
            self.entry(node).0 < key
        }
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
        self.recs.len()
    }
}

/// A key's first 8 bytes as a big-endian `u64`, zero-padded.
fn prefix_of(key: &[u8]) -> u64 {
    match key.first_chunk::<8>() {
        Some(&first) => u64::from_be_bytes(first),
        None => {
            let mut first = [0u8; 8];
            first[..key.len()].copy_from_slice(key);
            u64::from_be_bytes(first)
        }
    }
}

impl fmt::Debug for SkipList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            .field("len", &self.len())
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
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Bound;

    #[test]
    fn insert_get_roundtrip() {
        let mut sl = SkipList::new(1);
        for i in 0..1000u32 {
            sl.insert(i.to_be_bytes(), (i * 2).to_be_bytes());
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
        assert_eq!(sl.insert(b"k", b"v1"), None);
        assert_eq!(sl.insert(b"k", b"v2"), Some(b"v1".to_vec()));
        assert_eq!(sl.len(), 1);
        assert_eq!(sl.get(b"k"), Some(&b"v2"[..]));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut sl = SkipList::new(3);
        // Insert in reverse to exercise ordering.
        for i in (0..500u32).rev() {
            sl.insert(i.to_be_bytes(), b"");
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
            sl.insert(i.to_be_bytes(), b"");
        }
        let first = sl.iter_from(&15u32.to_be_bytes()).next().unwrap();
        assert_eq!(first.0, 20u32.to_be_bytes().as_slice());
    }

    #[test]
    fn get_traced_visits_log_n_nodes() {
        let mut sl = SkipList::new(5);
        for i in 0..100_000u32 {
            sl.insert(i.to_be_bytes(), vec![0u8; 8]);
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
            sl.insert(i.to_be_bytes(), vec![1]);
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
                sl.insert(i.to_be_bytes(), vec![i as u8]);
            }
            sl.arena_len()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn slicing_a_traced_scan_adds_no_visits() {
        let mut sl = SkipList::new(5);
        for i in 0..5_000u32 {
            sl.insert(i.to_be_bytes(), vec![1]);
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
            sl.insert(i.to_be_bytes(), vec![1]);
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

    /// What `walk` handed over, and how: where each chunk began among the
    /// entries, recorded before any of its bytes are read.
    #[derive(Default)]
    struct Handed<'a> {
        entries: Vec<(&'a [u8], &'a [u8])>,
        chunks: Vec<usize>,
    }

    impl<'a> Visit<'a> for Handed<'a> {
        fn entry(&mut self, key: &'a [u8], value: &'a [u8]) {
            self.entries.push((key, value));
        }

        fn chunk(&mut self, chunk: Chunk<'a>) {
            self.chunks.push(self.entries.len());
            let lens = chunk.lens();
            for (j, len) in lens.into_iter().enumerate() {
                let (key, value) = chunk.entry(j);
                assert_eq!(len, (key.len() + value.len()) as u64, "lens()[{j}]");
                self.entry(key, value);
            }
        }
    }

    /// Whether the `CHUNK` links from slot `at` run through consecutive slots.
    fn runs_on(sl: &SkipList, at: usize) -> bool {
        (0..CHUNK).all(|j| sl.next0.get(at + j) == Some(&(at as u32 + j as u32 + 1)))
    }

    /// `walk` against `n` `cursor_next` calls, from every cursor the list
    /// has (the head and every node) and for every `n` in `0..=40` and two
    /// past the end: the same entries in the same order, the same count
    /// and the same final cursor. The cursors near the end give windows
    /// that stop at `NIL` and chunks that reach the last arena slot or
    /// cannot fit before it. And the array phase is taken wherever it can
    /// be: chunks from the window's start on, for as long as a whole
    /// chunk is left to hand and its links run.
    fn assert_walk_is_hops(sl: &SkipList) {
        for start in 0..sl.arena_len() as u32 {
            for n in (0..=40).chain([sl.len() + 1, usize::MAX]) {
                let mut hop = Cursor(start);
                let want: Vec<_> = std::iter::from_fn(|| sl.cursor_next(&mut hop))
                    .take(n)
                    .collect();
                let (mut cur, mut got) = (Cursor(start), Handed::default());
                let count = sl.walk(&mut cur, n, &mut got);
                assert_eq!(got.entries, want, "from {start}, n = {n}");
                assert_eq!(count, want.len(), "from {start}, n = {n}");
                assert_eq!(cur, hop, "from {start}, n = {n}");
                let chunks = got.chunks.len();
                let array: Vec<usize> = (0..chunks).map(|c| c * CHUNK).collect();
                assert_eq!(got.chunks, array, "from {start}, n = {n}");
                let at = start as usize + chunks * CHUNK;
                assert!(
                    n - chunks * CHUNK < CHUNK || !runs_on(sl, at),
                    "from {start}, n = {n}: hopped from slot {at} on a run"
                );
            }
        }
    }

    /// The slots where `next0` does not run on: node `i` links to `i + 1`
    /// everywhere else.
    fn breaks(sl: &SkipList) -> Vec<u32> {
        let last = sl.arena_len() as u32 - 1;
        (0..last)
            .filter(|&i| sl.next0[i as usize] != i + 1)
            .collect()
    }

    /// How a list under the walk tests is loaded.
    #[derive(Debug, Clone)]
    enum Load {
        /// Keys `0..m` appended in order: one run.
        Ascending(u32),
        /// Keys `0..m` inserted in a seeded shuffle's order.
        Shuffled(u32, u64),
        /// Even keys `2..=2m` appended, then `2i + 1` inserted for each
        /// listed `i`: the node holding key `2i` (node `i`, the head for 0)
        /// then links to a node out of the run.
        Broken(u32, Vec<u32>),
        /// Keys `0..m` appended, then the listed ones written with longer
        /// values: a key below `m` moves its record to new bytes and keeps
        /// its links, one above it appends.
        Grown(u32, Vec<u32>),
        /// The listed keys, inserted in the order given.
        Keys(Vec<Vec<u8>>),
    }

    fn build(load: &Load) -> SkipList {
        let key = |i: u32| i.to_be_bytes();
        let mut sl = SkipList::new(7);
        match load {
            Load::Ascending(m) => {
                (0..*m).for_each(|i| assert!(sl.insert(key(i), key(i)).is_none()))
            }
            Load::Shuffled(m, seed) => {
                let mut keys: Vec<u32> = (0..*m).collect();
                let mut x = seed | 1;
                for i in (1..keys.len()).rev() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    keys.swap(i, (x % (i as u64 + 1)) as usize);
                }
                keys.into_iter()
                    .for_each(|i| assert!(sl.insert(key(i), [1]).is_none()));
            }
            Load::Broken(m, after) => {
                (1..=*m).for_each(|i| assert!(sl.insert(key(2 * i), [2]).is_none()));
                for &i in after {
                    sl.insert(key(2 * i + 1), [3]);
                }
            }
            Load::Grown(m, grown) => {
                (0..*m).for_each(|i| assert!(sl.insert(key(i), [4]).is_none()));
                for &i in grown {
                    sl.insert(key(i), vec![5; 4 + i as usize % 9]);
                }
            }
            Load::Keys(keys) => keys.iter().for_each(|k| {
                sl.insert(k, [6]);
            }),
        }
        sl
    }

    /// The halving seek against the descent, for every key of `sl`, each
    /// key one byte up and one byte down from it, the empty key and a key
    /// above the last: `cursor_before` lands where `seek` does, and `get`
    /// finds what `get_traced` does.
    fn assert_seek_is_the_descent(sl: &SkipList) {
        let mut probes = vec![Vec::new(), vec![0xFF; 13]];
        for (k, _) in sl.iter_from(b"") {
            probes.push(k.to_vec());
            probes.push([k, &[0]].concat());
            probes.push([k, &[0xFF; 13]].concat());
            if let Some((&last, rest)) = k.split_last() {
                probes.push(rest.to_vec());
                for near in [last.checked_add(1), last.checked_sub(1)]
                    .into_iter()
                    .flatten()
                {
                    probes.push([rest, &[near]].concat());
                }
            }
        }
        for probe in &probes {
            let descent = sl.seek(probe, &mut |_| {});
            assert_eq!(sl.cursor_before(probe), descent, "cursor_before({probe:?})");
            assert_eq!(
                sl.get(probe),
                sl.get_traced(probe, &mut |_| {}),
                "get({probe:?})"
            );
        }
    }

    #[test]
    fn in_order_holds_until_an_insert_lands_out_of_order() {
        let mut sl = SkipList::new(3);
        assert!(sl.in_order);
        // The empty key links after the head, whose key it equals.
        sl.insert(b"", b"0");
        assert!(sl.in_order);
        for k in [&b"a"[..], b"a\0", b"b"] {
            sl.insert(k, b"1");
        }
        assert!(sl.in_order);
        // An overwrite adds no node, whatever the value's length.
        assert_eq!(sl.insert(b"a\0", b"a longer value"), Some(b"1".to_vec()));
        assert!(sl.in_order);
        assert_eq!(sl.get(b"a\0"), Some(&b"a longer value"[..]));
        assert_eq!(sl.get(b""), Some(&b"0"[..]));
        assert_seek_is_the_descent(&sl);
        let copy = sl.clone();
        assert!(copy.in_order);
        assert_seek_is_the_descent(&copy);
        // One key between two others: node 5 linked after node 3.
        sl.insert(b"a\0\0", b"2");
        assert!(!sl.in_order);
        assert_invariants(&sl);
        assert_seek_is_the_descent(&sl);
        // Cleared for good: an append after it does not set it again.
        sl.insert(b"c", b"3");
        assert!(!sl.in_order);
        assert!(copy.in_order, "a clone keeps its own flag");
        let mut store = crate::KvStore::new(42);
        store.populate(8_192, 64);
        assert!(store.list().in_order, "populate loads in key order");
    }

    #[test]
    fn walk_hands_what_hops_do_on_runs_and_where_they_break() {
        // One run: every link is its slot's successor.
        let sl = build(&Load::Ascending(100));
        assert!(breaks(&sl).is_empty());
        assert_walk_is_hops(&sl);
        // A run broken at each of a chunk's eight links (the head's chunk
        // and a later one), and at two neighbouring links.
        for p in 0..8 {
            let sl = build(&Load::Broken(100, vec![p, 40 + p, 41 + p]));
            assert_eq!(breaks(&sl)[..3], [p, 40 + p, 41 + p]);
            assert_walk_is_hops(&sl);
        }
        // Out of order throughout: a break at almost every link.
        let sl = build(&Load::Shuffled(100, 42));
        assert!(breaks(&sl).len() > 80);
        assert_walk_is_hops(&sl);
        // Grown values are read from where the records point now.
        let sl = build(&Load::Grown(100, (0..100).step_by(3).collect()));
        assert!(breaks(&sl).is_empty());
        assert_eq!(sl.get(&3u32.to_be_bytes()), Some(&[5u8; 7][..]));
        assert_walk_is_hops(&sl);
        // The empty list: the head's cursor stays where it is.
        assert_walk_is_hops(&build(&Load::Ascending(0)));
    }

    /// An overwrite keeps the value right after its key: one that grows it
    /// appends key and value afresh and re-points the record, one that
    /// does not writes the value in place. Every reader sees the new value.
    #[test]
    fn overwrites_keep_the_value_after_its_key() {
        let mut sl = build(&Load::Ascending(40));
        let key = 20u32.to_be_bytes();
        let node = 21; // key k is node k + 1
        let was = sl.recs[node];
        for (value, grows) in [
            (&[7u8; 9][..], true),
            (&[8; 9][..], false),
            (&[9; 2][..], false),
            (&[6; 11][..], true),
        ] {
            let (bytes, rec) = (sl.bytes.len(), sl.recs[node]);
            sl.insert(key, value);
            let now = sl.recs[node];
            if grows {
                assert_eq!(now.key as usize, bytes, "re-pointed at the appended copy");
                assert_eq!(sl.bytes.len(), bytes + key.len() + value.len());
            } else {
                assert_eq!(now.key, rec.key, "written in place");
                assert_eq!(sl.bytes.len(), bytes);
            }
            assert_eq!((now.key_len, now.tower), (was.key_len, was.tower));
            assert_eq!(now.end(), now.key as usize + key.len() + value.len());
            assert_eq!(sl.get(&key), Some(value));
            assert_eq!(sl.iter_from(&key).next(), Some((&key[..], value)));
            let mut cur = sl.cursor_before(&16u32.to_be_bytes());
            let mut got = Handed::default();
            assert_eq!(sl.walk(&mut cur, CHUNK, &mut got), CHUNK);
            assert_eq!(got.chunks, [0], "a run of eight read as a chunk");
            assert_eq!(got.entries[4], (&key[..], value));
            assert_invariants(&sl);
            assert_walk_is_hops(&sl);
        }
    }

    /// A record whose span runs past `bytes` (none can, short of a bug in
    /// `insert`) fails its chunk's check: the chunk is not handed, and the
    /// hop hands the entries before the record, then panics on it. So no
    /// record's entry is handed on before its span is checked, whichever
    /// of a chunk's eight slots it sits in.
    #[test]
    fn a_chunk_with_a_record_past_the_bytes_falls_to_the_hop() {
        for p in 0..CHUNK {
            let mut sl = build(&Load::Ascending(40));
            sl.recs[1 + CHUNK + p].value_len = sl.bytes.len() as u32;
            let mut got = Handed::default();
            let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sl.walk(&mut Cursor(0), 40, &mut got)
            }));
            assert!(
                walk.is_err(),
                "slot {p}: the walk handed a record past the bytes"
            );
            assert_eq!(got.chunks, [0], "slot {p}: only the first chunk is whole");
            assert_eq!(
                got.entries.len(),
                CHUNK + p,
                "slot {p}: hops up to the record"
            );
        }
    }

    #[test]
    fn index_reserves_nil_and_refuses_to_wrap() {
        assert_eq!(index(u32::MAX as usize - 1), u32::MAX - 1);
        for n in [u32::MAX as usize, u32::MAX as usize + 1] {
            let panic = std::panic::catch_unwind(|| index(n)).expect_err("must not fit");
            assert_eq!(
                panic.downcast_ref::<&str>(),
                Some(&"tq-kv skip list arena is full")
            );
        }
    }

    /// Taken from the three-`Vec`s-a-node layout before the arenas replaced
    /// it: heights, arena indices and link order are what Figure 15 and
    /// Table 2 are made of, and a storage change must not move them.
    #[test]
    fn visit_sequences_match_the_golden() {
        let mut sl = SkipList::new(5);
        for i in 0..100_000u32 {
            sl.insert(i.to_be_bytes(), [0u8; 8]);
        }
        let mut get = Vec::new();
        sl.get_traced(&54_321u32.to_be_bytes(), &mut |i| get.push(i));
        assert_eq!(
            get,
            [
                16695, 95376, 57481, 20680, 24107, 24583, 24755, 27163, 28962, 37853, 40528, 42014,
                45711, 52554, 57094, 54381, 53252, 53392, 53640, 53902, 54017, 54102, 54315, 54381,
                54381, 54339, 54318, 54320, 54322, 54321, 54322
            ]
        );
        let mut scan = Vec::new();
        sl.scan_traced(&100u32.to_be_bytes(), 2_000, &mut |i| scan.push(i));
        assert_eq!(scan.len(), 2_027);
        let mut head = vec![
            16695, 16695, 16695, 13779, 3044, 553, 370, 81, 210, 103, 82, 87, 103, 88,
        ];
        head.extend(89..=101); // the descent's last level-0 steps, up to key 100
        head.extend(101..=137); // then the walk: key k is node k + 1
        assert_eq!(scan[..64], head);
    }

    #[test]
    fn overwrites_of_any_length_are_seen_through_every_reader() {
        let mut sl = SkipList::new(11);
        for i in 0..10u8 {
            sl.insert([i], [i; 4]);
        }
        // A walk paused one entry before key 5: just after key 4.
        let mut paused = sl.cursor_before(&[4]);
        sl.cursor_next(&mut paused).expect("key 4");
        let mut old = vec![5u8; 4];
        // Longer, equal, shorter, empty — then longer again, out of the hole.
        for new in [
            &b"longer than four"[..],
            b"equal to it 1234",
            b"short",
            b"",
            b"grown",
        ] {
            assert_eq!(sl.insert([5], new), Some(old));
            old = new.to_vec();
            assert_eq!(sl.get(&[5]), Some(new));
            assert_eq!(sl.iter_from(&[5]).next(), Some((&[5][..], new)));
            let mut resumed = paused;
            assert_eq!(sl.cursor_next(&mut resumed), Some((&[5][..], new)));
            // The node did not move: old cursors still name the same places.
            assert_eq!(paused, sl.cursor_before(&[5]));
            assert_eq!(resumed, sl.cursor_before(&[6]));
            // Neighbours keep their own bytes.
            assert_eq!(sl.get(&[4]), Some(&[4u8; 4][..]));
            assert_eq!(sl.get(&[6]), Some(&[6u8; 4][..]));
        }
        assert_eq!((sl.len(), sl.arena_len()), (10, 11));
    }

    /// What the arenas beside `next0` must agree on after every insert:
    /// `tail[l]` is the last node a walk of level `l` reaches (the head
    /// on an empty level), every record's span lies in `bytes`, `prefix`
    /// is the first 8 bytes of the key the record points at, and
    /// `in_order` says exactly whether `next0` is the chain `i → i + 1`
    /// ending in `NIL`.
    fn assert_invariants(sl: &SkipList) {
        let chain = (0..sl.arena_len()).all(|i| {
            let next = if i + 1 == sl.arena_len() {
                NIL
            } else {
                i as u32 + 1
            };
            sl.next0[i] == next
        });
        assert_eq!(sl.in_order, chain, "in_order");
        for level in 0..MAX_HEIGHT {
            let mut last = 0;
            while sl.next(last, level) != NIL {
                last = sl.next(last, level);
            }
            assert_eq!(sl.tail[level], last, "tail at level {level}");
        }
        for (node, rec) in sl.recs.iter().enumerate() {
            assert!(
                rec.end() <= sl.bytes.len(),
                "node {node}'s span runs past the bytes"
            );
            let key = &sl.bytes[rec.key as usize..][..rec.key_len as usize];
            assert_eq!(sl.prefix[node], prefix_of(key), "node {node}'s prefix");
        }
    }

    /// Prefixes order keys exactly as their bytes do, zero pads included.
    #[test]
    fn prefixes_that_differ_order_keys_as_bytes() {
        let keys: [&[u8]; 8] = [
            b"",
            b"\0",
            b"\0\0\0\0\0\0\0\0\0",
            b"a",
            b"a\0",
            b"a\0\x01",
            b"abcdefgh",
            b"abcdefgh\0",
        ];
        for a in keys {
            for b in keys {
                let (pa, pb) = (prefix_of(a), prefix_of(b));
                if pa != pb {
                    assert_eq!(pa < pb, a < b, "{a:?} {b:?}");
                }
            }
        }
    }

    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    /// 0..12 bytes over an alphabet with both extremes, so keys tie in
    /// the padded prefix, are prefixes of each other and run past 8 bytes.
    fn key() -> impl Strategy<Value = Vec<u8>> {
        let byte = (0usize..4).prop_map(|i| [0x00u8, 0x01, 0x80, 0xFF][i]);
        prop::collection::vec(byte, 0..12)
    }

    fn value() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(any::<u8>(), 0..8)
    }

    fn pairs(max: usize) -> impl Strategy<Value = Pairs> {
        prop::collection::vec((key(), value()), 0..max)
    }

    /// One step of a load that mostly appends.
    #[derive(Debug, Clone)]
    enum Step {
        /// Sorted keys; each one above the list's last key appends.
        Run(Vec<Vec<u8>>),
        /// One key anywhere, usually below the last: a descent.
        Middle(Vec<u8>, Vec<u8>),
        /// A new value for the last key: a descent that overwrites.
        OverwriteLast(Vec<u8>),
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let run = prop::collection::vec(key(), 0..24).prop_map(|mut keys| {
            keys.sort();
            Step::Run(keys)
        });
        let step = prop_oneof![
            run,
            (key(), value()).prop_map(|(k, v)| Step::Middle(k, v)),
            value().prop_map(Step::OverwriteLast),
        ];
        prop::collection::vec(step, 0..40)
    }

    fn loads() -> impl Strategy<Value = Load> {
        let listed = || prop::collection::vec(0u32..80, 0..12);
        prop_oneof![
            (0u32..80).prop_map(Load::Ascending),
            (0u32..80, any::<u64>()).prop_map(|(m, seed)| Load::Shuffled(m, seed)),
            (0u32..80, listed()).prop_map(|(m, after)| Load::Broken(m, after)),
            (0u32..80, listed()).prop_map(|(m, grown)| Load::Grown(m, grown)),
        ]
    }

    /// Ascending loads of keys that tie in their 8-byte prefix: those
    /// `key` draws, with keys under 8 bytes whose zero pad makes their
    /// prefixes equal (`a`, `a\0`) and keys that run past 8 bytes.
    fn tied() -> impl Strategy<Value = Load> {
        prop::collection::vec(key(), 0..48).prop_map(|keys| {
            let mut keys: BTreeSet<Vec<u8>> = keys.into_iter().collect();
            for k in [
                &b"a"[..],
                b"a\0",
                b"a\0\0",
                b"abcdefg",
                b"abcdefgh",
                b"abcdefgh\0",
                b"abcdefgh\x01",
            ] {
                keys.insert(k.to_vec());
            }
            Load::Keys(keys.into_iter().collect())
        })
    }

    proptest! {
        /// The halving seek lands where the descent does, on a list in key
        /// order and (by falling back to the descent) on any other.
        #[test]
        fn cursor_before_is_the_descent(load in prop_oneof![loads(), tied()]) {
            let sl = build(&load);
            assert_invariants(&sl);
            if matches!(load, Load::Ascending(_) | Load::Keys(_)) {
                prop_assert!(sl.in_order);
            }
            assert_seek_is_the_descent(&sl);
        }

        /// `walk` is `n` hops, whatever the list's runs look like.
        #[test]
        fn walk_is_hops(load in loads()) {
            assert_walk_is_hops(&build(&load));
        }

        #[test]
        fn behaves_like_btreemap(
            ops in pairs(200),
            start in key(),
            walk in prop::collection::vec((0usize..40, pairs(6)), 0..12),
        ) {
            let mut sl = SkipList::new(42);
            let mut model = BTreeMap::new();
            for (k, v) in &ops {
                let expect = model.insert(k.clone(), v.clone());
                let got = sl.insert(k.clone(), v.clone());
                prop_assert_eq!(got, expect);
                assert_invariants(&sl);
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
                    assert_invariants(&sl);
                }
            }
        }

        /// Ascending runs (the append path), middle inserts after them
        /// (a `tail` that must survive a descent) and overwrites of the
        /// last key (an append refused for a key equal to the last).
        #[test]
        fn appends_interleaved_with_descents_behave_like_btreemap(
            steps in steps(),
            seed in any::<u64>(),
        ) {
            let mut sl = SkipList::new(seed);
            let mut model = BTreeMap::new();
            for step in steps {
                let last = model.keys().next_back().cloned();
                let inserts: Pairs = match step {
                    Step::Run(keys) => keys
                        .into_iter()
                        .filter(|k| last.as_ref().is_none_or(|last| k > last))
                        .map(|k| (k, b"run".to_vec()))
                        .collect(),
                    Step::Middle(k, v) => vec![(k, v)],
                    Step::OverwriteLast(v) => last.map(|k| (k, v)).into_iter().collect(),
                };
                for (k, v) in inserts {
                    let expect = model.insert(k.clone(), v.clone());
                    prop_assert_eq!(sl.insert(k, v), expect);
                    assert_invariants(&sl);
                }
            }
            let got: Vec<_> = sl.iter_from(&[]).map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            let expect: Vec<_> = model.clone().into_iter().collect();
            prop_assert_eq!(got, expect);
            for (k, v) in &model {
                prop_assert_eq!(sl.get(k), Some(v.as_slice()));
            }
        }
    }
}
