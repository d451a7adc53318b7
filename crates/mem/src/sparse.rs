//! Sparse paged memory.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_BITS;

/// TLB sentinel: no address shifts down to this page number, so the
/// empty TLB can never produce a false hit.
const NO_PAGE: u64 = u64::MAX;

/// A sparse, byte-addressable 64-bit memory backed by 4 KiB pages
/// allocated on first touch.
///
/// All multi-byte accesses are little-endian, matching RV64. Reads of
/// untouched memory return zero (the proxy kernel zero-fills pages), so
/// the model never faults on wild reads — protection is the job of the
/// safety machinery above it, which is exactly what is being evaluated.
///
/// # Example
///
/// ```
/// use hwst_mem::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write_u32(0x1000, 0xdeadbeef);
/// assert_eq!(m.read_u32(0x1000), 0xdeadbeef);
/// assert_eq!(m.read_u8(0x1003), 0xde); // little-endian
/// assert_eq!(m.read_u64(0x8000_0000), 0, "untouched memory reads zero");
/// ```
#[derive(Debug, Clone)]
pub struct SparseMemory {
    /// Page frames in touch order. Frames are never removed or
    /// reordered, so a frame index, once issued, stays valid for the
    /// memory's lifetime — which is what lets the TLB below be a plain
    /// `(page, frame)` pair with no invalidation protocol.
    frames: Vec<Box<[u8; PAGE_SIZE as usize]>>,
    /// Page number → frame index.
    index: HashMap<u64, u32>,
    /// Direct-mapped 4-entry TLB for the `*_le_fast` bulk paths: the
    /// last page resolved per (hashed) page-number class. Four entries
    /// cover the typical working mix — code-adjacent data, stack,
    /// heap and shadow region — where one entry thrashes on
    /// pointer-chasing workloads. Interior mutability keeps
    /// `read_le_fast` a `&self` method; a stale entry is impossible
    /// (frames are append-only) and the sentinel page makes empty slots
    /// a guaranteed miss.
    tlb: [Cell<(u64, u32)>; 4],
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self {
            frames: Vec::new(),
            index: HashMap::new(),
            tlb: [const { Cell::new((NO_PAGE, 0)) }; 4],
        }
    }
}

/// The TLB slot for a page number: low bits folded so that regions
/// separated by large power-of-two strides (user vs shadow) land in
/// different slots.
#[inline]
fn tlb_slot(page: u64) -> usize {
    ((page ^ (page >> 7) ^ (page >> 29)) & 3) as usize
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `page` through the TLB, filling it on a miss. `None`
    /// when the page was never touched.
    #[inline]
    fn frame(&self, page: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let slot = &self.tlb[tlb_slot(page)];
        let (tp, ti) = slot.get();
        if tp == page {
            return self.frames.get(ti as usize).map(|p| &**p);
        }
        let &i = self.index.get(&page)?;
        slot.set((page, i));
        self.frames.get(i as usize).map(|p| &**p)
    }

    /// Resolves `page` through the TLB for writing, allocating the
    /// frame on first touch.
    #[inline]
    fn frame_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let si = tlb_slot(page);
        let (tp, ti) = self.tlb[si].get();
        let i = if tp == page {
            ti
        } else {
            let i = match self.index.get(&page) {
                Some(&i) => i,
                None => {
                    let i = self.frames.len() as u32;
                    self.frames.push(Box::new([0u8; PAGE_SIZE as usize]));
                    self.index.insert(page, i);
                    i
                }
            };
            self.tlb[si].set((page, i));
            i
        };
        &mut self.frames[i as usize]
    }

    /// Number of 4 KiB pages touched so far (resident set of the model).
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Number of resident pages whose base address lies in `[lo, hi)` —
    /// used to measure e.g. the shadow region's footprint separately
    /// from user memory.
    pub fn resident_pages_in(&self, lo: u64, hi: u64) -> usize {
        self.index
            .keys()
            .filter(|&&p| {
                let base = p << PAGE_BITS;
                base >= lo && base < hi
            })
            .count()
    }

    /// Number of *nonzero* bytes stored in `[lo, hi)` — a byte-granular
    /// footprint measure (4 KiB page residency is too coarse to see,
    /// e.g., the difference between 16- and 32-byte metadata records).
    pub fn nonzero_bytes_in(&self, lo: u64, hi: u64) -> u64 {
        let mut n = 0;
        for (&page, &fi) in &self.index {
            let base = page << PAGE_BITS;
            if base + PAGE_SIZE <= lo || base >= hi {
                continue;
            }
            for (i, &b) in self.frames[fi as usize].iter().enumerate() {
                let a = base + i as u64;
                if b != 0 && a >= lo && a < hi {
                    n += 1;
                }
            }
        }
        n
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.index.get(&(addr >> PAGE_BITS)) {
            Some(&i) => self.frames[i as usize][(addr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        let page = self.frame_mut(addr >> PAGE_BITS);
        page[(addr & (PAGE_SIZE - 1)) as usize] = val;
    }

    /// Reads `n <= 8` bytes little-endian into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn read_le(&self, addr: u64, n: u64) -> u64 {
        assert!(n <= 8, "read_le supports at most 8 bytes");
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `n <= 8` bytes of `val` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn write_le(&mut self, addr: u64, n: u64, val: u64) {
        assert!(n <= 8, "write_le supports at most 8 bytes");
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    /// Reads `n <= 8` bytes little-endian into a `u64`, resolving the
    /// page once when the access stays inside it (the common case).
    ///
    /// Semantically identical to [`read_le`](Self::read_le) — accesses
    /// straddling a page boundary fall back to the byte loop, and reads
    /// of untouched pages return zero without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn read_le_fast(&self, addr: u64, n: u64) -> u64 {
        assert!(n <= 8, "read_le supports at most 8 bytes");
        let off = addr & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            match self.frame(addr >> PAGE_BITS) {
                Some(p) => {
                    let mut v = 0u64;
                    for i in 0..n as usize {
                        v |= (p[off as usize + i] as u64) << (8 * i);
                    }
                    v
                }
                None => 0,
            }
        } else {
            self.read_le(addr, n)
        }
    }

    /// Writes the low `n <= 8` bytes of `val` little-endian, resolving
    /// the page once when the access stays inside it.
    ///
    /// Semantically identical to [`write_le`](Self::write_le); accesses
    /// straddling a page boundary fall back to the byte loop.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn write_le_fast(&mut self, addr: u64, n: u64, val: u64) {
        assert!(n <= 8, "write_le supports at most 8 bytes");
        let off = addr & (PAGE_SIZE - 1);
        if off + n <= PAGE_SIZE {
            let page = self.frame_mut(addr >> PAGE_BITS);
            for i in 0..n as usize {
                page[off as usize + i] = (val >> (8 * i)) as u8;
            }
        } else {
            self.write_le(addr, n, val);
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        self.read_le(addr, 2) as u16
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, val: u16) {
        self.write_le(addr, 2, val as u64);
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_le(addr, 4, val as u64);
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_le(addr, 8, val);
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }

    /// Flips one bit of the 64-bit word at `addr` — the fault-injection
    /// hook behind the LMSM shadow-word corruption campaigns. The word is
    /// read, XOR-ed with `1 << (bit % 64)` and written back, so a flip of
    /// a previously untouched word allocates its page like any write.
    pub fn flip_word_bit(&mut self, addr: u64, bit: u32) {
        let v = self.read_u64(addr);
        self.write_u64(addr, v ^ (1u64 << (bit % 64)));
    }

    /// Addresses of every *nonzero* 8-byte-aligned word in `[lo, hi)`,
    /// in ascending address order. Used by fault-injection campaigns to
    /// pick a deterministic corruption target; the explicit sort makes
    /// the result independent of `HashMap` iteration order.
    pub fn nonzero_word_addrs_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut pages: Vec<u64> = self
            .index
            .keys()
            .copied()
            .filter(|&p| {
                let base = p << PAGE_BITS;
                base < hi && base + (PAGE_SIZE - 1) >= lo
            })
            .collect();
        pages.sort_unstable();
        let mut out = Vec::new();
        for page in pages {
            // Scan the frame directly: one lookup per page, not eight
            // per word.
            let Some(frame) = self.frame(page) else {
                continue;
            };
            let base = page << PAGE_BITS;
            for (i, word) in frame.chunks_exact(8).enumerate() {
                let a = base + 8 * i as u64;
                if a >= lo && a < hi && word != [0; 8] {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Zeroes `len` bytes starting at `addr` (page-granular fast path).
    pub fn zero(&mut self, addr: u64, len: u64) {
        for i in 0..len {
            // Skip pages that were never touched: they already read zero.
            let a = addr.wrapping_add(i);
            if self.index.contains_key(&(a >> PAGE_BITS)) {
                self.write_u8(a, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_zero_and_stays_sparse() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u64(u64::MAX - 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u64(0x100, 0x0807_0605_0403_0201);
        for i in 0..8 {
            assert_eq!(m.read_u8(0x100 + i), (i + 1) as u8);
        }
        assert_eq!(m.read_u32(0x100), 0x0403_0201);
        assert_eq!(m.read_u16(0x106), 0x0807);
    }

    #[test]
    fn resident_pages_in_ranges() {
        let mut m = SparseMemory::new();
        m.write_u64(0x1000, 1);
        m.write_u64(0x2000, 1);
        m.write_u64(0x10_0000, 1);
        assert_eq!(m.resident_pages_in(0, 0x10_0000), 2);
        assert_eq!(m.resident_pages_in(0x10_0000, u64::MAX), 1);
        assert_eq!(m.resident_pages_in(0x5000, 0x6000), 0);
    }

    #[test]
    fn nonzero_bytes_counts_exactly() {
        let mut m = SparseMemory::new();
        m.write_u64(0x1000, 0x00ff_00ff_00ff_00ff);
        assert_eq!(m.nonzero_bytes_in(0, u64::MAX), 4);
        // LE bytes of the value: ff 00 ff 00 ff 00 ff 00.
        assert_eq!(m.nonzero_bytes_in(0x1002, 0x1005), 2);
        m.write_u8(0x1001, 0); // already-zero byte stays zero
        assert_eq!(m.nonzero_bytes_in(0, u64::MAX), 4);
        m.write_u8(0x1000, 0); // clearing a set byte is observed
        assert_eq!(m.nonzero_bytes_in(0, u64::MAX), 3);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE - 4; // straddles the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bytes_round_trip() {
        let mut m = SparseMemory::new();
        let data = b"hello shadow memory";
        m.write_bytes(0x2000, data);
        assert_eq!(m.read_bytes(0x2000, data.len()), data);
    }

    #[test]
    fn zero_clears_touched_pages_only() {
        let mut m = SparseMemory::new();
        m.write_u64(0x3000, u64::MAX);
        m.zero(0x3000, 8);
        assert_eq!(m.read_u64(0x3000), 0);
        // Zeroing untouched space allocates nothing.
        let before = m.resident_pages();
        m.zero(0x10_0000, 64);
        assert_eq!(m.resident_pages(), before);
    }

    #[test]
    #[should_panic(expected = "at most 8 bytes")]
    fn read_le_rejects_wide_access() {
        SparseMemory::new().read_le(0, 9);
    }

    #[test]
    fn flip_word_bit_toggles() {
        let mut m = SparseMemory::new();
        m.flip_word_bit(0x1000, 3);
        assert_eq!(m.read_u64(0x1000), 8);
        m.flip_word_bit(0x1000, 3);
        assert_eq!(m.read_u64(0x1000), 0);
        // Shift amount is reduced mod 64, never panics.
        m.flip_word_bit(0x1000, 64);
        assert_eq!(m.read_u64(0x1000), 1);
    }

    #[test]
    fn fast_paths_match_byte_loops() {
        let mut m = SparseMemory::new();
        // Seed a few pages with a recognisable pattern via the slow path.
        for i in 0..64u64 {
            m.write_u8(0x1000 + i, (i as u8).wrapping_mul(7).wrapping_add(1));
        }
        for addr in [0x1000u64, 0x1003, 0x101f, 0x103d] {
            for n in 0..=8u64 {
                assert_eq!(
                    m.read_le_fast(addr, n),
                    m.read_le(addr, n),
                    "read {addr:#x} n={n}"
                );
            }
        }
        // Fast writes land exactly where slow writes would.
        let mut fast = SparseMemory::new();
        let mut slow = SparseMemory::new();
        for (i, addr) in [0x2000u64, 0x2005, 0x2ffb].iter().enumerate() {
            let val = 0x1122_3344_5566_7788u64.rotate_left(i as u32 * 9);
            for n in 1..=8u64 {
                fast.write_le_fast(addr + n * 16, n, val);
                slow.write_le(addr + n * 16, n, val);
            }
        }
        assert_eq!(
            fast.read_bytes(0x2000, 0x1100),
            slow.read_bytes(0x2000, 0x1100)
        );
    }

    #[test]
    fn fast_paths_handle_page_straddles() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE - 3; // 3 bytes in page 0, 5 in page 1
        m.write_le_fast(addr, 8, 0x8877_6655_4433_2211);
        assert_eq!(m.read_le_fast(addr, 8), 0x8877_6655_4433_2211);
        assert_eq!(m.read_le(addr, 8), 0x8877_6655_4433_2211);
        assert_eq!(m.resident_pages(), 2);
        // An exactly page-ending access takes the single-page path.
        assert_eq!(
            m.read_le_fast(PAGE_SIZE - 8, 8),
            m.read_le(PAGE_SIZE - 8, 8)
        );
    }

    #[test]
    fn fast_reads_of_untouched_memory_allocate_nothing() {
        let m = SparseMemory::new();
        assert_eq!(m.read_le_fast(0x5000, 8), 0);
        assert_eq!(m.read_le_fast(PAGE_SIZE - 2, 8), 0, "straddling read");
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 8 bytes")]
    fn read_le_fast_rejects_wide_access() {
        SparseMemory::new().read_le_fast(0, 9);
    }

    #[test]
    fn nonzero_word_addrs_are_sorted_and_bounded() {
        let mut m = SparseMemory::new();
        m.write_u64(0x9_0000, 7);
        m.write_u64(0x1000, 1);
        m.write_u64(0x1008, 0); // zero word: not reported
        m.write_u64(0x2000, 2);
        assert_eq!(
            m.nonzero_word_addrs_in(0, u64::MAX),
            vec![0x1000, 0x2000, 0x9_0000]
        );
        assert_eq!(m.nonzero_word_addrs_in(0x1001, 0x9_0000), vec![0x2000]);
        assert!(m.nonzero_word_addrs_in(0x10_0000, u64::MAX).is_empty());
        // A nonzero byte anywhere in a word reports the word, and the
        // last page of the address space scans without overflow.
        m.write_u8(0x2017, 1);
        m.write_u8(u64::MAX - 8, 3);
        assert_eq!(
            m.nonzero_word_addrs_in(0x1001, u64::MAX),
            vec![0x2000, 0x2010, 0x9_0000, u64::MAX - 15]
        );
    }
}
