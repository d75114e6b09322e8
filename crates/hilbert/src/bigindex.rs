//! The bit layout of an index wider than one word.
//!
//! Hilbert indices in VOLAP routinely exceed 64 bits (TPC-DS with expanded
//! hierarchical IDs needs 130 bits; the paper's 64-dimension experiment
//! needs 512), so an index is a slice of `u64` words holding its bits most
//! significant first: bit 0 is the top bit of `words[0]`, and the last
//! word's unused low bits are zero. For indices of one width, comparing the
//! word slices lexicographically is comparing the numbers.

/// Write the low `nbits <= 64` bits of `value` at bit `*pos` of `words`
/// and advance `*pos` past them. The bits written to must be zero.
#[inline]
pub fn push_bits(words: &mut [u64], pos: &mut u32, value: u64, nbits: u32) {
    if nbits == 0 {
        return;
    }
    debug_assert!(
        nbits == 64 || value >> nbits == 0,
        "value wider than {nbits} bits"
    );
    let (word, free) = ((*pos / 64) as usize, 64 - *pos % 64);
    if nbits <= free {
        words[word] |= value << (free - nbits);
    } else {
        words[word] |= value >> (nbits - free);
        words[word + 1] |= value << (64 - (nbits - free));
    }
    *pos += nbits;
}

/// Read `nbits <= 64` bits starting at bit `start` of `words`,
/// right-aligned.
#[inline]
pub fn extract_bits(words: &[u64], start: u32, nbits: u32) -> u64 {
    if nbits == 0 {
        return 0;
    }
    let (word, off) = ((start / 64) as usize, start % 64);
    let mut v = words[word] << off;
    if off + nbits > 64 {
        v |= words[word + 1] >> (64 - off);
    }
    v >> (64 - nbits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Push `groups` of `(value, bits)` into `words` from bit 0.
    fn pushed(words: &mut [u64], groups: &[(u64, u32)]) -> u32 {
        let mut pos = 0;
        for &(v, n) in groups {
            push_bits(words, &mut pos, v, n);
        }
        pos
    }

    #[test]
    fn push_and_extract_aligned() {
        let mut w = [0u64];
        let pos = pushed(&mut w, &[(0xDEAD, 16), (0xBEEF, 16), (0xCAFEBABE, 32)]);
        assert_eq!(pos, 64);
        assert_eq!(extract_bits(&w, 0, 64), 0xDEADBEEFCAFEBABE);
        assert_eq!(extract_bits(&w, 16, 16), 0xBEEF);
    }

    #[test]
    fn push_across_limb_boundary() {
        let mut w = [0u64; 2];
        // 53 + 3 bits, then 14 that cross the word boundary at offset 56.
        let pos = pushed(
            &mut w,
            &[(0x1F_FFFF_FFFF_FFFF, 53), (0b101, 3), (0x3FFF, 14)],
        );
        assert_eq!(pos, 70);
        assert_eq!(extract_bits(&w, 0, 53), 0x1F_FFFF_FFFF_FFFF);
        assert_eq!(extract_bits(&w, 53, 3), 0b101);
        assert_eq!(extract_bits(&w, 56, 14), 0x3FFF);
        assert_eq!(w[1] << 6, 0, "unused low bits stay zero");
    }

    #[test]
    fn extract_across_limb_boundary() {
        let mut w = [0u64; 2];
        pushed(&mut w, &[(u64::MAX, 64), (0, 64)]);
        assert_eq!(extract_bits(&w, 60, 8), 0b1111_0000);
    }

    #[test]
    fn ordering_is_numeric_for_equal_widths() {
        let mk = |hi: u64, lo: u64| {
            let mut w = [0u64; 2];
            pushed(&mut w, &[(hi, 40), (lo, 40)]);
            w
        };
        assert!(mk(1, 0) > mk(0, u64::MAX >> 24));
        assert!(mk(5, 7) < mk(5, 8));
        assert_eq!(mk(3, 3), mk(3, 3));
    }

    #[test]
    fn zero_and_max() {
        let z = [0u64; 3];
        let mut m = [0u64; 3];
        pushed(&mut m, &[(u64::MAX, 64), (u64::MAX, 64), (0b11, 2)]);
        assert_eq!(m, [u64::MAX, u64::MAX, 0b11 << 62]);
        assert!(z < m);
        assert_eq!(extract_bits(&m, 0, 64), u64::MAX);
        assert_eq!(extract_bits(&m, 64, 64), u64::MAX);
        assert_eq!(extract_bits(&m, 128, 2), 0b11);
    }

    #[test]
    fn zero_width_pushes_are_noops() {
        let mut w = [0u64];
        assert_eq!(pushed(&mut w, &[(0, 0)]), 0);
        assert_eq!(pushed(&mut w, &[(7, 3), (0, 0)]), 3);
        assert_eq!(extract_bits(&w, 0, 3), 7);
        assert_eq!(extract_bits(&w, 3, 0), 0);
    }

    #[test]
    fn spill_preserves_contents_across_boundary() {
        // Push in odd-sized groups so word boundaries fall mid-group.
        let groups: Vec<(u64, u32)> = (0..20u64)
            .map(|i| {
                let n = 13 + (i % 7) as u32;
                (i % (1 << n), n)
            })
            .collect();
        let mut w = [0u64; 5];
        let total = pushed(&mut w, &groups);
        assert_eq!(total, groups.iter().map(|g| g.1).sum::<u32>());
        let mut at = 0;
        for (v, n) in groups {
            assert_eq!(extract_bits(&w, at, n), v);
            at += n;
        }
    }
}
