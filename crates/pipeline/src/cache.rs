//! Set-associative cache model.

/// Geometry and latency parameters for a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Extra cycles on a miss (fill from the next level).
    pub miss_penalty: u64,
}

impl Default for CacheConfig {
    /// A Rocket-class 16 KiB, 4-way, 64 B-line D-cache with a ~20-cycle
    /// fill from the outer memory system.
    fn default() -> Self {
        CacheConfig {
            sets: 64,
            ways: 4,
            line_bytes: 64,
            miss_penalty: 20,
        }
    }
}

/// A set-associative, LRU, write-allocate cache model. Only hit/miss
/// timing is modelled; data lives in the simulator's memory.
///
/// # Example
///
/// ```
/// use hwst_pipeline::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::default());
/// assert_eq!(c.access(0x1000), 20, "cold miss pays the fill penalty");
/// assert_eq!(c.access(0x1008), 0, "same line now hits");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)` — the geometry is power-of-two, so the line
    /// number is a shift, not a division.
    line_shift: u32,
    /// `sets - 1`, the set-index mask.
    set_mask: usize,
    /// Flat `sets × ways` tag array in row-major order. Within a row the
    /// front is MRU; empty ways hold [`EMPTY`] (a line number no real
    /// address reaches: it would need a 1-byte line at the very top of
    /// the address space). One row fits in a host cache line for every
    /// realistic associativity, which is what makes the model's
    /// per-access cost a handful of compares.
    tags: Box<[u64]>,
    hits: u64,
    misses: u64,
}

/// Sentinel tag for an empty way.
const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or `ways`
    /// is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways > 0, "associativity must be nonzero");
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: cfg.sets - 1,
            tags: vec![EMPTY; cfg.sets * cfg.ways].into_boxed_slice(),
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Performs an access; returns the *extra* stall cycles (0 on hit,
    /// `miss_penalty` on miss).
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        let line = addr >> self.line_shift;
        let set = (line as usize) & self.set_mask;
        let ways = &mut self.tags[set * self.cfg.ways..][..self.cfg.ways];
        // One pass from the front shifts each tag one way back until the
        // line turns up (a hit, which ends the shift in the line's old
        // way) or the back tag falls off (a miss, evicting the LRU line
        // or a sentinel while the set is still filling). Either way the
        // line ends up at the front and the rest keep their LRU order.
        // A real line never equals the sentinel, so empty ways can't
        // false-hit.
        let mut carry = line;
        for way in ways.iter_mut() {
            let tag = std::mem::replace(way, carry);
            if tag == line {
                self.hits += 1;
                return 0;
            }
            carry = tag;
        }
        self.misses += 1;
        self.cfg.miss_penalty
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_locality_hits() {
        let mut c = Cache::new(CacheConfig::default());
        assert_eq!(c.access(0), 20);
        for a in (8..64).step_by(8) {
            assert_eq!(c.access(a), 0, "address {a} should hit");
        }
        assert_eq!(c.stats(), (7, 1));
    }

    #[test]
    fn conflict_eviction_is_lru() {
        // 1 set, 2 ways: three conflicting lines thrash.
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 64,
            miss_penalty: 10,
        };
        let mut c = Cache::new(cfg);
        assert_eq!(c.access(0), 10); // A miss
        assert_eq!(c.access(64), 10); // B miss
        assert_eq!(c.access(0), 0); // A hit (MRU now A)
        assert_eq!(c.access(128), 10); // C evicts B (LRU)
        assert_eq!(c.access(0), 0); // A still resident
        assert_eq!(c.access(64), 10); // B was evicted
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        Cache::new(CacheConfig {
            sets: 3,
            ways: 1,
            line_bytes: 64,
            miss_penalty: 1,
        });
    }
}
