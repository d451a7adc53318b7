//! The keybuffer: a TLB-like cache of lock→key mappings.

/// The HWST128 keybuffer (paper §3.5): a small fully-associative LRU
/// buffer that "will keep a record of the most recent key loaded from the
/// lock". When `tchk` executes and the pointer's lock matches a buffered
/// entry, the buffered key is used instead of loading the lock_location
/// from memory — bypassing the D-cache access entirely.
///
/// The buffer is **cleared whenever a pointer is freed** so it always
/// holds current temporal metadata (the paper's coherence rule; a freed
/// lock's key changes, and a stale hit would miss a use-after-free).
///
/// # Example
///
/// ```
/// use hwst_pipeline::KeyBuffer;
///
/// let mut kb = KeyBuffer::new(4);
/// assert_eq!(kb.lookup(0x9000), None);
/// kb.fill(0x9000, 42);
/// assert_eq!(kb.lookup(0x9000), Some(42));
/// kb.clear(); // a pointer was freed somewhere
/// assert_eq!(kb.lookup(0x9000), None);
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuffer {
    /// `(lock, key)` pairs in LRU order (front = MRU). Empty capacity
    /// means the keybuffer is disabled (every lookup misses).
    entries: Vec<(u64, u64)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    clears: u64,
}

impl KeyBuffer {
    /// Creates a keybuffer with the given number of entries. A capacity
    /// of 0 disables it (the A1 ablation's baseline point).
    pub fn new(capacity: usize) -> Self {
        KeyBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
            clears: 0,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the key cached for `lock`, promoting the entry to MRU on
    /// a hit.
    pub fn lookup(&mut self, lock: u64) -> Option<u64> {
        match self.entries.iter().position(|&(l, _)| l == lock) {
            Some(pos) => {
                let e = self.entries.remove(pos);
                self.entries.insert(0, e);
                self.hits += 1;
                Some(e.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records the key loaded from memory for `lock` (called after a
    /// `tchk` miss completes its key load).
    pub fn fill(&mut self, lock: u64, key: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|&(l, _)| l == lock) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (lock, key));
    }

    /// Clears every entry — invoked whenever any pointer is freed.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.clears += 1;
    }

    /// Fault-injection hook: plants a (possibly stale or wrong)
    /// `lock → key` entry as if it had been filled by a past `tchk`.
    /// Subject to the same capacity rules as [`fill`](Self::fill) — a
    /// disabled buffer cannot hold poison. The keybuffer is a *timing*
    /// structure in this model (`tchk` semantics always read the
    /// lock_location from memory), so a poisoned entry can perturb cycle
    /// counts but must never change what `tchk` detects; the resilience
    /// campaigns verify exactly that.
    pub fn poison(&mut self, lock: u64, key: u64) {
        self.fill(lock, key);
    }

    /// `(hits, misses, clears)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.clears)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction() {
        let mut kb = KeyBuffer::new(2);
        kb.fill(1, 10);
        kb.fill(2, 20);
        assert_eq!(kb.lookup(1), Some(10)); // 1 becomes MRU
        kb.fill(3, 30); // evicts 2
        assert_eq!(kb.lookup(2), None);
        assert_eq!(kb.lookup(1), Some(10));
        assert_eq!(kb.lookup(3), Some(30));
    }

    #[test]
    fn refill_updates_value() {
        let mut kb = KeyBuffer::new(2);
        kb.fill(1, 10);
        kb.fill(1, 11);
        assert_eq!(kb.lookup(1), Some(11));
        // No duplicate entries were created.
        kb.fill(2, 20);
        kb.fill(3, 30);
        assert_eq!(kb.lookup(1), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut kb = KeyBuffer::new(0);
        kb.fill(1, 10);
        assert_eq!(kb.lookup(1), None);
        assert_eq!(kb.stats().1, 1);
    }

    #[test]
    fn poison_plants_and_clear_flushes_it() {
        let mut kb = KeyBuffer::new(4);
        kb.poison(0x9000, 0xdead);
        assert_eq!(kb.lookup(0x9000), Some(0xdead));
        // The coherence rule applies to poison too: any free flushes it.
        kb.clear();
        assert_eq!(kb.lookup(0x9000), None);
        // A disabled buffer cannot hold poison.
        let mut off = KeyBuffer::new(0);
        off.poison(0x9000, 0xdead);
        assert_eq!(off.lookup(0x9000), None);
    }

    #[test]
    fn clear_on_free_is_total() {
        let mut kb = KeyBuffer::new(8);
        for i in 0..8 {
            kb.fill(i, i * 10);
        }
        kb.clear();
        for i in 0..8 {
            assert_eq!(kb.lookup(i), None);
        }
        assert_eq!(kb.stats().2, 1);
    }
}
