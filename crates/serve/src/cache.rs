//! Content-addressed cache of loaded machines.
//!
//! The key is a digest of `(canonical payload bytes, scheme label,
//! compression-config CSR)` — exactly the inputs that determine the
//! compiled image and the machine's initial state. A hit skips
//! compilation *and* machine setup entirely: the cached value is a
//! [`Snapshot`] taken right after load, and every run (first or
//! retried) warm-starts from a restored copy, which the snapshot
//! bit-identity guarantee makes indistinguishable from a cold start.
//!
//! Eviction is FIFO with a bounded capacity, so a hostile tenant
//! cannot balloon the cache; all counters are deterministic because
//! lookups and inserts happen on the coordinator in job-ID order.

use crate::clock::splitmix64;
use hwst128::exec::BlockCache;
use hwst128::sim::Snapshot;
use std::collections::{HashMap, VecDeque};

/// A content digest over the inputs that determine a compiled image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

/// Digests the given byte slices (order-sensitive, length-prefixed so
/// `["ab","c"]` and `["a","bc"]` differ) into a [`CacheKey`].
pub fn cache_key(parts: &[&[u8]]) -> CacheKey {
    // FNV-1a over the length-prefixed concatenation, finished with a
    // splitmix64 avalanche.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for part in parts {
        for b in (part.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in *part {
            eat(b);
        }
    }
    let mut s = h;
    CacheKey(splitmix64(&mut s))
}

/// One cached machine: the post-load snapshot that warm-starts every
/// subsequent run of the same `(payload, scheme, compcfg)`, plus the
/// decoded-block cache the first (fast-engine) run populated, so warm
/// starts skip block decoding as well as compilation and load.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The post-load machine state.
    pub snapshot: Snapshot,
    /// The decoded blocks from the populating run (empty when that run
    /// was traced: traced runs profile on the reference interpreter,
    /// which never decodes). Cloning is cheap: blocks are `Arc`-shared.
    pub blocks: BlockCache,
}

/// The bounded FIFO cache.
#[derive(Debug, Default)]
pub struct ImageCache {
    capacity: usize,
    map: HashMap<u64, CachedRun>,
    order: VecDeque<u64>,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

impl ImageCache {
    /// An empty cache holding at most `capacity` entries (0 disables
    /// caching: every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ImageCache {
            capacity,
            ..Self::default()
        }
    }

    /// Looks up `key`, counting the hit or miss.
    pub fn lookup(&mut self, key: CacheKey) -> Option<&CachedRun> {
        match self.map.get(&key.0) {
            Some(run) => {
                self.hits += 1;
                Some(run)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `run` under `key` unless present, evicting the oldest
    /// entry if the cache is full.
    pub fn insert(&mut self, key: CacheKey, run: CachedRun) {
        if self.capacity == 0 || self.map.contains_key(&key.0) {
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                self.evictions += 1;
            }
        }
        self.map.insert(key.0, run);
        self.order.push_back(key.0);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst128::prelude::*;

    fn snapshot() -> Snapshot {
        let prog = Program::from_instrs(0x1_0000, vec![Instr::Ecall]);
        Machine::new(prog, SafetyConfig::default()).snapshot()
    }

    #[test]
    fn keys_separate_parts_and_contents() {
        let a = cache_key(&[b"ab", b"c"]);
        let b = cache_key(&[b"a", b"bc"]);
        let c = cache_key(&[b"ab", b"c"]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(cache_key(&[b"x"]), cache_key(&[b"y"]));
    }

    #[test]
    fn fifo_eviction_is_bounded() {
        let mut cache = ImageCache::new(2);
        for i in 0..4u64 {
            cache.insert(
                CacheKey(i),
                CachedRun {
                    snapshot: snapshot(),
                    blocks: BlockCache::new(),
                },
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions, 2);
        assert!(cache.lookup(CacheKey(0)).is_none(), "oldest evicted");
        assert!(cache.lookup(CacheKey(3)).is_some(), "newest kept");
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ImageCache::new(0);
        cache.insert(
            CacheKey(1),
            CachedRun {
                snapshot: snapshot(),
                blocks: BlockCache::new(),
            },
        );
        assert!(cache.is_empty());
        assert!(cache.lookup(CacheKey(1)).is_none());
    }
}
