//! Sparse paged memory.

use std::cell::Cell;
use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_BITS;

/// TLB sentinel: no address shifts down to this page number, so the
/// empty TLB can never produce a false hit.
const NO_PAGE: u64 = u64::MAX;

/// TLB entries (a power of two).
const TLB_ENTRIES: usize = 16;

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
/// m.write_u64(0x1000, 0x0123_4567_89ab_cdef);
/// assert_eq!(m.read_u64(0x1000), 0x0123_4567_89ab_cdef);
/// assert_eq!(m.read_u8(0x1007), 0x01); // little-endian
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
    /// Direct-mapped TLB for the `*_le_fast` paths: the last page
    /// resolved per slot ([`tlb_slot`]), so a hit skips the SipHash
    /// lookup in `index`. A Fig. 4 kernel run touches 3–25 pages (data,
    /// stack, heap, lock table, shadow region); over a perfbench `sweep`
    /// pass four entries missed on about one fast access in seven,
    /// sixteen on about one in a hundred. Interior mutability keeps
    /// `read_le_fast` a `&self` method; a stale entry is impossible
    /// (frames are append-only) and the sentinel page makes empty slots
    /// a guaranteed miss.
    tlb: [Cell<(u64, u32)>; TLB_ENTRIES],
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self {
            frames: Vec::new(),
            index: HashMap::new(),
            tlb: [const { Cell::new((NO_PAGE, 0)) }; TLB_ENTRIES],
        }
    }
}

/// The TLB slot for a page number: the top bits of its Fibonacci hash,
/// which every bit of the page number feeds, so neighbouring pages and
/// regions a large power-of-two stride apart (user vs shadow) spread
/// over the slots.
#[inline]
fn tlb_slot(page: u64) -> usize {
    (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - TLB_ENTRIES.trailing_zeros())) as usize
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
        let (tp, ti) = self.tlb[tlb_slot(page)].get();
        let i = if tp == page { ti } else { self.tlb_fill(page)? };
        self.frames.get(i as usize).map(|p| &**p)
    }

    /// Resolves `page` through the TLB for writing, allocating the
    /// frame on first touch.
    #[inline]
    fn frame_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let (tp, ti) = self.tlb[tlb_slot(page)].get();
        let i = if tp == page {
            ti
        } else {
            self.tlb_fill_mut(page)
        };
        &mut self.frames[i as usize]
    }

    /// The TLB miss path of [`frame`](Self::frame), kept out of line so
    /// the hit path inlines: `page`'s frame index from `index`, cached
    /// in its slot, or `None` for an untouched page.
    #[cold]
    #[inline(never)]
    fn tlb_fill(&self, page: u64) -> Option<u32> {
        let &i = self.index.get(&page)?;
        self.tlb[tlb_slot(page)].set((page, i));
        Some(i)
    }

    /// The TLB miss path of [`frame_mut`](Self::frame_mut), allocating
    /// the frame on first touch.
    #[cold]
    #[inline(never)]
    fn tlb_fill_mut(&mut self, page: u64) -> u32 {
        let i = match self.index.get(&page) {
            Some(&i) => i,
            None => {
                let i = self.frames.len() as u32;
                self.frames.push(Box::new([0u8; PAGE_SIZE as usize]));
                self.index.insert(page, i);
                i
            }
        };
        self.tlb[tlb_slot(page)].set((page, i));
        i
    }

    /// Number of 4 KiB pages touched so far (resident set of the model).
    pub fn resident_pages(&self) -> usize {
        self.index.len()
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
    /// page once through the TLB and reading widths 1, 2, 4 and 8 as one
    /// whole word.
    ///
    /// Semantically identical to [`read_le`](Self::read_le), which
    /// serves the other widths and accesses straddling a page boundary;
    /// reads of untouched pages return zero without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn read_le_fast(&self, addr: u64, n: u64) -> u64 {
        assert!(n <= 8, "read_le supports at most 8 bytes");
        match n {
            8 => self.read_word::<8>(addr),
            4 => self.read_word::<4>(addr),
            2 => self.read_word::<2>(addr),
            1 => self.read_word::<1>(addr),
            _ => self.read_le_cold(addr, n),
        }
    }

    /// Writes the low `n <= 8` bytes of `val` little-endian, resolving
    /// the page once through the TLB and writing widths 1, 2, 4 and 8 as
    /// one whole word.
    ///
    /// Semantically identical to [`write_le`](Self::write_le), which
    /// serves the other widths and accesses straddling a page boundary.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    #[inline]
    pub fn write_le_fast(&mut self, addr: u64, n: u64, val: u64) {
        assert!(n <= 8, "write_le supports at most 8 bytes");
        match n {
            8 => self.write_word::<8>(addr, val),
            4 => self.write_word::<4>(addr, val),
            2 => self.write_word::<2>(addr, val),
            1 => self.write_word::<1>(addr, val),
            _ => self.write_le_cold(addr, n, val),
        }
    }

    /// The `N`-byte little-endian word at `addr`, zero-extended.
    #[inline(always)]
    fn read_word<const N: usize>(&self, addr: u64) -> u64 {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off + N > PAGE_SIZE as usize {
            return self.read_le_cold(addr, N as u64);
        }
        let Some(page) = self.frame(addr >> PAGE_BITS) else {
            return 0;
        };
        let mut word = [0u8; 8];
        word[..N].copy_from_slice(&page[off..off + N]);
        u64::from_le_bytes(word)
    }

    /// Writes the low `N` bytes of `val` little-endian at `addr`.
    #[inline(always)]
    fn write_word<const N: usize>(&mut self, addr: u64, val: u64) {
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        if off + N > PAGE_SIZE as usize {
            self.write_le_cold(addr, N as u64, val);
        } else {
            let page = self.frame_mut(addr >> PAGE_BITS);
            page[off..off + N].copy_from_slice(&val.to_le_bytes()[..N]);
        }
    }

    /// [`read_le`](Self::read_le) for the fast path's rare cases (page
    /// straddles and widths other than 1, 2, 4 and 8), kept out of line
    /// so that the common case inlines into its caller.
    #[cold]
    #[inline(never)]
    fn read_le_cold(&self, addr: u64, n: u64) -> u64 {
        self.read_le(addr, n)
    }

    /// [`write_le`](Self::write_le) for the fast path's rare cases.
    #[cold]
    #[inline(never)]
    fn write_le_cold(&mut self, addr: u64, n: u64, val: u64) {
        self.write_le(addr, n, val);
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_le(addr, 8, val);
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
        assert_eq!(m.read_le(0x100, 4), 0x0403_0201);
        assert_eq!(m.read_le(0x106, 2), 0x0807);
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
        // Page 1 holds a byte pattern, page 5 was never touched; page 2
        // and page 6, which the straddling accesses reach, are untouched.
        let mut seeded = SparseMemory::new();
        for i in 0..PAGE_SIZE {
            seeded.write_u8(PAGE_SIZE + i, (i as u8).wrapping_mul(7).wrapping_add(1));
        }
        let offsets = [0, 1, 7].into_iter().chain(PAGE_SIZE - 9..PAGE_SIZE);
        for addr in offsets.flat_map(|off| [PAGE_SIZE + off, 5 * PAGE_SIZE + off]) {
            for n in 0..=8u64 {
                assert_eq!(
                    seeded.read_le_fast(addr, n),
                    seeded.read_le(addr, n),
                    "read {addr:#x} n={n}"
                );
                let val = 0x1122_3344_5566_7788u64.rotate_left((addr + n) as u32);
                let mut fast = seeded.clone();
                let mut slow = seeded.clone();
                fast.write_le_fast(addr, n, val);
                slow.write_le(addr, n, val);
                for a in addr - 8..addr + 16 {
                    assert_eq!(
                        fast.read_u8(a),
                        slow.read_u8(a),
                        "byte {a:#x} after write {addr:#x} n={n}"
                    );
                }
                assert_eq!(
                    fast.resident_pages(),
                    slow.resident_pages(),
                    "pages after write {addr:#x} n={n}"
                );
            }
        }
    }

    #[test]
    fn tlb_evictions_keep_pages_apart() {
        // Forty live pages, more than the TLB holds, the first eight of
        // them sharing one slot.
        let shared = tlb_slot(3);
        let mut pages: Vec<u64> = (3..).filter(|&p| tlb_slot(p) == shared).take(8).collect();
        pages.extend((100..132).map(|p| p * 0x1_0001));
        assert!(pages.len() > TLB_ENTRIES);
        let mut m = SparseMemory::new();
        for round in 0..3u64 {
            for (i, &p) in pages.iter().enumerate() {
                m.write_le_fast((p << PAGE_BITS) + 8 * round, 8, p ^ round);
                // Read back an earlier page, usually from another slot.
                let q = pages[i * 7 % (i + 1)];
                let a = (q << PAGE_BITS) + 8 * round;
                assert_eq!(m.read_le_fast(a, 8), m.read_le(a, 8), "page {q:#x}");
            }
            for &p in pages.iter().rev() {
                let a = (p << PAGE_BITS) + 8 * round;
                assert_eq!(m.read_le_fast(a, 8), p ^ round, "page {p:#x}");
                assert_eq!(m.read_le_fast(a + 4, 4), (p ^ round) >> 32);
            }
        }
        assert_eq!(m.resident_pages(), pages.len());

        // An untouched page whose slot holds a live page reads zero and
        // allocates nothing.
        let untouched = (pages[7] + 1..)
            .find(|&p| tlb_slot(p) == shared && !pages.contains(&p))
            .unwrap();
        let (live, cold) = ((pages[7] << PAGE_BITS) + 16, (untouched << PAGE_BITS) + 16);
        assert_eq!(m.read_le_fast(live, 8), pages[7] ^ 2);
        assert_eq!(m.read_le_fast(cold, 8), 0);
        assert_eq!(m.resident_pages(), pages.len());
        // Writing it evicts the live page without touching its frame.
        m.write_le_fast(cold, 8, 1);
        assert_eq!(m.read_le_fast(live, 8), pages[7] ^ 2);
        assert_eq!(m.read_le_fast(cold, 8), 1);
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
