//! # Tiny Quanta key-value store
//!
//! An in-memory ordered key-value store standing in for the RocksDB
//! memtable the paper serves (§5.1): a hand-built probabilistic
//! [`skiplist`] under a [`KvStore`] facade offering the two operations
//! the RocksDB workload issues — point `GET`s (≈1 µs) and long range
//! `SCAN`s (hundreds of µs).
//!
//! The store can record a synthetic [`trace`] of the memory locations an
//! operation touches, which the cache-model crate turns into the
//! reuse-distance histograms of Figure 15.
//!
//! ## Example
//!
//! ```
//! use tq_kv::KvStore;
//!
//! let mut store = KvStore::new(42);
//! store.populate(10_000, 64);
//! let key = KvStore::nth_key(123);
//! assert!(store.get(&key).is_some());
//! let entries = store.scan(&key, 100);
//! assert_eq!(entries.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod skiplist;
pub mod store;
pub mod trace;

pub use skiplist::{Chunk, Cursor, SkipList, Visit, CHUNK};
pub use store::KvStore;
pub use trace::AccessTrace;
