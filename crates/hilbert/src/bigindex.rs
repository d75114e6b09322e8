//! A compact big-endian bit string used as a wide integer key.
//!
//! Hilbert indices in VOLAP routinely exceed 64 bits (TPC-DS with expanded
//! hierarchical IDs needs ~130 bits; the paper's 64-dimension experiment
//! needs several hundred), but never exceed a few machine words. `BigIndex`
//! stores the bits most-significant-first in `u64` limbs so that, for keys of
//! equal bit width, lexicographic limb comparison equals numeric comparison.
//!
//! Storage is inline for up to [`INLINE_LIMBS`] limbs (256 bits — every
//! realistic schema, including TPC-DS at ~130 bits), so the ingest hot path
//! computes keys without touching the heap; wider indices spill to a `Vec`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Limbs stored inline before spilling to the heap.
pub const INLINE_LIMBS: usize = 4;

/// Limb storage: a fixed inline buffer for the common case, a heap vector
/// beyond it. All accessors go through `as_slice`, so the two layouts are
/// indistinguishable to the rest of the crate.
#[derive(Clone)]
enum Limbs {
    Inline { buf: [u64; INLINE_LIMBS], len: u8 },
    Heap(Vec<u64>),
}

impl Limbs {
    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Limbs::Inline { buf, len } => &buf[..*len as usize],
            Limbs::Heap(v) => v,
        }
    }

    #[inline]
    fn push(&mut self, limb: u64) {
        match self {
            Limbs::Inline { buf, len } => {
                if (*len as usize) < INLINE_LIMBS {
                    buf[*len as usize] = limb;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_LIMBS * 2);
                    v.extend_from_slice(buf);
                    v.push(limb);
                    *self = Limbs::Heap(v);
                }
            }
            Limbs::Heap(v) => v.push(limb),
        }
    }

    #[inline]
    fn last_mut(&mut self) -> Option<&mut u64> {
        match self {
            Limbs::Inline { buf, len } => {
                if *len == 0 {
                    None
                } else {
                    Some(&mut buf[*len as usize - 1])
                }
            }
            Limbs::Heap(v) => v.last_mut(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        self.as_slice()[i]
    }
}

impl Default for Limbs {
    fn default() -> Self {
        Limbs::Inline {
            buf: [0; INLINE_LIMBS],
            len: 0,
        }
    }
}

/// A fixed-width unsigned integer built by appending bit groups
/// most-significant-first.
///
/// Ordering: shorter bit widths compare *less* than longer ones; equal widths
/// compare numerically. Within one VOLAP tree every key has the same width,
/// so ordering is purely numeric there.
#[derive(Clone, Default)]
pub struct BigIndex {
    limbs: Limbs,
    bit_len: u32,
}

impl BigIndex {
    /// An empty (0-bit) index.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty index with capacity reserved for `bits` total bits. Widths
    /// up to `64 * INLINE_LIMBS` use the inline buffer and never allocate.
    pub fn with_bit_capacity(bits: u32) -> Self {
        let limb_count = bits.div_ceil(64) as usize;
        if limb_count <= INLINE_LIMBS {
            Self::new()
        } else {
            Self {
                limbs: Limbs::Heap(Vec::with_capacity(limb_count)),
                bit_len: 0,
            }
        }
    }

    /// The zero value of width `bits`.
    pub fn zero(bits: u32) -> Self {
        let limb_count = bits.div_ceil(64) as usize;
        let limbs = if limb_count <= INLINE_LIMBS {
            Limbs::Inline {
                buf: [0; INLINE_LIMBS],
                len: limb_count as u8,
            }
        } else {
            Limbs::Heap(vec![0; limb_count])
        };
        Self {
            limbs,
            bit_len: bits,
        }
    }

    /// Total number of bits appended so far.
    #[inline]
    pub fn bit_len(&self) -> u32 {
        self.bit_len
    }

    /// Heap bytes used by the limb storage (for the paper's space-overhead
    /// accounting). Zero while the index fits the inline buffer.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match &self.limbs {
            Limbs::Inline { .. } => 0,
            Limbs::Heap(v) => v.capacity() * 8,
        }
    }

    /// Reset to the empty (0-bit) index, keeping any heap capacity. Lets a
    /// caller reuse one `BigIndex` as a scratch output across a batch.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.limbs {
            Limbs::Inline { len, .. } => *len = 0,
            Limbs::Heap(v) => v.clear(),
        }
        self.bit_len = 0;
    }

    /// Append the low `nbits` bits of `value` below the current bits
    /// (i.e. the first `push_bits` call contributes the most significant
    /// bits).
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 64` or `value` has bits above `nbits`.
    pub fn push_bits(&mut self, value: u64, nbits: u32) {
        assert!(nbits <= 64, "cannot push more than 64 bits at once");
        if nbits == 0 {
            return;
        }
        debug_assert!(
            nbits == 64 || value < (1u64 << nbits),
            "value {value} wider than {nbits} bits"
        );
        let used = self.bit_len % 64;
        let free = if used == 0 { 0 } else { 64 - used };
        if free == 0 {
            // Start a new limb, value left-aligned.
            self.limbs.push(if nbits == 64 {
                value
            } else {
                value << (64 - nbits)
            });
        } else if nbits <= free {
            let limb = self.limbs.last_mut().expect("non-empty when bits used");
            *limb |= value << (free - nbits);
        } else {
            let hi = nbits - free; // bits that overflow into the next limb
            let limb = self.limbs.last_mut().expect("non-empty when bits used");
            *limb |= value >> hi;
            self.limbs.push(value << (64 - hi));
        }
        self.bit_len += nbits;
    }

    /// Extract `nbits` bits starting at bit offset `start` (offset 0 is the
    /// most significant bit), returned right-aligned in a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the stored width or `nbits > 64`.
    pub fn extract_bits(&self, start: u32, nbits: u32) -> u64 {
        assert!(nbits <= 64, "cannot extract more than 64 bits at once");
        assert!(
            start + nbits <= self.bit_len,
            "bit range {start}..{} exceeds width {}",
            start + nbits,
            self.bit_len
        );
        if nbits == 0 {
            return 0;
        }
        let limb_idx = (start / 64) as usize;
        let offset = start % 64;
        let avail = 64 - offset;
        if nbits <= avail {
            let shifted = self.limbs.get(limb_idx) << offset;
            shifted >> (64 - nbits)
        } else {
            let hi_bits = avail;
            let lo_bits = nbits - avail;
            let hi = (self.limbs.get(limb_idx) << offset) >> (64 - hi_bits);
            let lo = self.limbs.get(limb_idx + 1) >> (64 - lo_bits);
            (hi << lo_bits) | lo
        }
    }

    /// Raw limbs, most significant first. The final limb is left-aligned.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        self.limbs.as_slice()
    }

    /// Rebuild from raw parts (used by shard deserialization). Limb counts
    /// within [`INLINE_LIMBS`] are copied into the inline buffer.
    pub fn from_raw(limbs: Vec<u64>, bit_len: u32) -> Self {
        assert_eq!(
            limbs.len(),
            bit_len.div_ceil(64) as usize,
            "limb count mismatch"
        );
        if !bit_len.is_multiple_of(64) {
            if let Some(last) = limbs.last() {
                let pad = 64 - bit_len % 64;
                assert_eq!(last & ((1u64 << pad) - 1), 0, "padding bits must be zero");
            }
        }
        let limbs = if limbs.len() <= INLINE_LIMBS {
            let mut buf = [0u64; INLINE_LIMBS];
            buf[..limbs.len()].copy_from_slice(&limbs);
            Limbs::Inline {
                buf,
                len: limbs.len() as u8,
            }
        } else {
            Limbs::Heap(limbs)
        };
        Self { limbs, bit_len }
    }
}

impl PartialEq for BigIndex {
    fn eq(&self, other: &Self) -> bool {
        self.bit_len == other.bit_len && self.limbs() == other.limbs()
    }
}

impl Eq for BigIndex {}

impl Hash for BigIndex {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
        self.bit_len.hash(state);
    }
}

impl Ord for BigIndex {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bit_len
            .cmp(&other.bit_len)
            .then_with(|| self.limbs().cmp(other.limbs()))
    }
}

impl PartialOrd for BigIndex {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigIndex[{}b:", self.bit_len)?;
        for limb in self.limbs() {
            write!(f, " {limb:016x}")?;
        }
        write!(f, "]")
    }
}

impl From<u64> for BigIndex {
    fn from(v: u64) -> Self {
        let mut b = Self::with_bit_capacity(64);
        b.push_bits(v, 64);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_extract_aligned() {
        let mut b = BigIndex::new();
        b.push_bits(0xDEAD, 16);
        b.push_bits(0xBEEF, 16);
        b.push_bits(0xCAFEBABE, 32);
        assert_eq!(b.bit_len(), 64);
        assert_eq!(b.extract_bits(0, 64), 0xDEADBEEFCAFEBABE);
        assert_eq!(b.extract_bits(16, 16), 0xBEEF);
    }

    #[test]
    fn push_across_limb_boundary() {
        let mut b = BigIndex::new();
        b.push_bits(0x1FFFFFFFFFFFFF, 53); // 53 bits
        b.push_bits(0b101, 3);
        b.push_bits(0x3FFF, 14); // crosses the 64-bit boundary at offset 56
        assert_eq!(b.bit_len(), 70);
        assert_eq!(b.extract_bits(0, 53), 0x1FFFFFFFFFFFFF);
        assert_eq!(b.extract_bits(53, 3), 0b101);
        assert_eq!(b.extract_bits(56, 14), 0x3FFF);
    }

    #[test]
    fn extract_across_limb_boundary() {
        let mut b = BigIndex::new();
        b.push_bits(u64::MAX, 64);
        b.push_bits(0, 64);
        assert_eq!(b.extract_bits(60, 8), 0b1111_0000);
    }

    #[test]
    fn ordering_is_numeric_for_equal_widths() {
        let mk = |hi: u64, lo: u64| {
            let mut b = BigIndex::new();
            b.push_bits(hi, 40);
            b.push_bits(lo, 40);
            b
        };
        assert!(mk(1, 0) > mk(0, u64::MAX >> 24));
        assert!(mk(5, 7) < mk(5, 8));
        assert_eq!(mk(3, 3), mk(3, 3));
    }

    #[test]
    fn shorter_width_sorts_first() {
        let mut a = BigIndex::new();
        a.push_bits(u64::MAX, 64);
        let mut b = BigIndex::new();
        b.push_bits(0, 64);
        b.push_bits(0, 1);
        assert!(a < b);
    }

    #[test]
    fn zero_and_max() {
        let z = BigIndex::zero(130);
        let m = BigIndex::from_raw(vec![u64::MAX, u64::MAX, 0b11 << 62], 130);
        assert_eq!(z.bit_len(), 130);
        assert_eq!(m.bit_len(), 130);
        assert!(z < m);
        assert_eq!(m.extract_bits(0, 64), u64::MAX);
        assert_eq!(m.extract_bits(64, 64), u64::MAX);
        assert_eq!(m.extract_bits(128, 2), 0b11);
    }

    #[test]
    fn from_raw_roundtrip() {
        let mut b = BigIndex::new();
        b.push_bits(0xABCD, 16);
        b.push_bits(0x1234, 70 - 16);
        let r = BigIndex::from_raw(b.limbs().to_vec(), b.bit_len());
        assert_eq!(r, b);
    }

    #[test]
    #[should_panic(expected = "padding bits must be zero")]
    fn from_raw_rejects_dirty_padding() {
        BigIndex::from_raw(vec![u64::MAX], 10);
    }

    #[test]
    fn zero_width_pushes_are_noops() {
        let mut b = BigIndex::new();
        b.push_bits(0, 0);
        assert_eq!(b.bit_len(), 0);
        b.push_bits(7, 3);
        b.push_bits(0, 0);
        assert_eq!(b.extract_bits(0, 3), 7);
    }

    #[test]
    fn inline_storage_covers_256_bits() {
        // TPC-DS keys (~130 bits) and anything up to 4 limbs must not
        // allocate; the 5th limb spills to the heap.
        let mut b = BigIndex::new();
        for i in 0..4u64 {
            b.push_bits(i, 64);
            assert_eq!(b.heap_bytes(), 0, "{} bits should be inline", b.bit_len());
        }
        b.push_bits(1, 1);
        assert!(b.heap_bytes() > 0, "5 limbs must spill to the heap");
        assert_eq!(b.bit_len(), 257);
        assert_eq!(b.extract_bits(64, 64), 1);
        assert_eq!(b.extract_bits(256, 1), 1);
    }

    #[test]
    fn spill_preserves_contents_across_boundary() {
        // Push in odd-sized groups so the spill happens mid-group.
        let mut b = BigIndex::new();
        let mut total = 0u32;
        let mut i = 0u64;
        while total < 300 {
            let n = 13 + (i % 7) as u32;
            b.push_bits(i % (1 << n), n);
            total += n;
            i += 1;
        }
        assert_eq!(b.bit_len(), total);
        // Re-extract everything and compare.
        let mut total2 = 0u32;
        let mut j = 0u64;
        while total2 < 300 {
            let n = 13 + (j % 7) as u32;
            assert_eq!(b.extract_bits(total2, n), j % (1 << n));
            total2 += n;
            j += 1;
        }
    }

    #[test]
    fn clear_resets_and_allows_reuse() {
        let mut b = BigIndex::new();
        b.push_bits(0xFFFF, 16);
        b.clear();
        assert_eq!(b.bit_len(), 0);
        b.push_bits(0xAB, 8);
        assert_eq!(b.extract_bits(0, 8), 0xAB);
        assert_eq!(b, BigIndex::from_raw(vec![0xABu64 << 56], 8));
    }

    #[test]
    fn eq_and_ord_agree_across_storage_layouts() {
        // The same value built inline and via from_raw must be equal, and a
        // heap-spilled value must still order correctly.
        let mut inline = BigIndex::new();
        inline.push_bits(42, 64);
        inline.push_bits(7, 64);
        let raw = BigIndex::from_raw(vec![42, 7], 128);
        assert_eq!(inline, raw);
        let mut wide_lo = BigIndex::from_raw(vec![u64::MAX; 5], 320);
        let wide_hi = BigIndex::from_raw(vec![u64::MAX; 5], 320);
        assert!(wide_lo.heap_bytes() > 0);
        assert_eq!(wide_lo, wide_hi);
        wide_lo.clear();
        for i in 0..5 {
            wide_lo.push_bits(if i == 4 { 0 } else { u64::MAX }, 64);
        }
        assert!(wide_lo < wide_hi);
    }
}
