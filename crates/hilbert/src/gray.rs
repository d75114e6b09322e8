//! Gray-code primitives used by the Hilbert curve construction.
//!
//! Definitions follow Hamilton's technical report *Compact Hilbert Indices*
//! (Dalhousie CS-2006-07) and the IPL 2008 paper. All words are `u64` with
//! the curve's dimension count `n <= 64` significant bits.

/// The binary reflected Gray code: `gc(i) = i ^ (i >> 1)`.
#[inline]
pub fn gray_code(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// Inverse of [`gray_code`] for a `g` of at most `n` bits: `⌈log2 n⌉`
/// shift-xor steps.
#[inline]
pub fn gray_code_inverse(g: u64, n: u32) -> u64 {
    let mut i = g;
    let mut shift = 1;
    while shift < n {
        i ^= i >> shift;
        shift <<= 1;
    }
    i
}

/// The *intra* sub-hypercube direction `d(w)` for the `w`-th sub-cube of an
/// order-1 curve in `n` dimensions, for an `n`-bit `w`: the number of
/// trailing set bits of `w` (odd `w`) or of `w - 1` (even `w`), modulo `n`.
/// That count is at most `n`, so the modulus is one compare. Branch-free:
/// `w` is the curve's next sub-cube, which no predictor guesses.
#[inline]
pub fn direction(w: u64, n: u32) -> u32 {
    let g = w.wrapping_sub(!w & 1).trailing_ones();
    let g = if w == 0 { 0 } else { g };
    if g >= n {
        g - n
    } else {
        g
    }
}

/// The entry point `e(w)` of the `w`-th sub-cube of an order-1 curve:
/// the Gray code of `2⌊(w - 1) / 2⌋`, and 0 for `w = 0`.
#[inline]
pub fn entry(w: u64) -> u64 {
    gray_code(w.saturating_sub(1) & !1)
}

/// Gray-code rank (Hamilton, Algorithm 4): pack the bits of `w` located at
/// positions where `mask` is set, preserving their relative order. Walks
/// the set bits of `mask` only, lowest first.
#[inline]
pub fn gray_rank(mask: u64, w: u64) -> u64 {
    let (mut r, mut m, mut k) = (0u64, mask, 0u32);
    while m != 0 {
        r |= ((w >> m.trailing_zeros()) & 1) << k;
        k += 1;
        m &= m - 1;
    }
    r
}

/// Inverse Gray-code rank (Hamilton, Algorithm 5).
///
/// Reconstructs `w` such that `gray_rank(mask, w) == r` and, for every
/// position `k` where `mask` is clear, the bit of `gc(w)` equals the bit of
/// `pi` (the pattern forced by the current curve orientation).
#[inline]
pub fn gray_rank_inverse(mask: u64, pi: u64, r: u64, n: u32) -> u64 {
    let mut w = 0u64;
    let mut g = 0u64;
    let mut j = mask.count_ones();
    for k in (0..n).rev() {
        // Bit k+1 of w (0 when k == n-1).
        let hi = if k + 1 >= n { 0 } else { (w >> (k + 1)) & 1 };
        if (mask >> k) & 1 == 1 {
            j -= 1;
            let bit = (r >> j) & 1;
            w |= bit << k;
            g |= (bit ^ hi) << k;
        } else {
            let bit = (pi >> k) & 1;
            g |= bit << k;
            w |= (bit ^ hi) << k;
        }
    }
    debug_assert_eq!(gray_code(w), g);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_code_roundtrip() {
        for i in 0..4096u64 {
            assert_eq!(gray_code_inverse(gray_code(i), 64), i);
        }
        assert_eq!(gray_code_inverse(gray_code(u64::MAX), 64), u64::MAX);
    }

    #[test]
    fn gray_code_single_bit_changes() {
        for i in 0..4095u64 {
            let diff = gray_code(i) ^ gray_code(i + 1);
            assert_eq!(diff.count_ones(), 1);
            assert_eq!(diff, 1 << i.trailing_ones());
        }
    }

    /// The compare-based modulus agrees with Hamilton's definition,
    /// `tsb(w or w - 1) % n`, on every `n`-bit word.
    #[test]
    fn direction_matches_its_definition() {
        for n in 1..=8u32 {
            for w in 0..(1u64 << n) {
                let tsb = if w == 0 {
                    0
                } else if w & 1 == 0 {
                    (w - 1).trailing_ones()
                } else {
                    w.trailing_ones()
                };
                assert_eq!(direction(w, n), tsb % n, "w={w:b} n={n}");
            }
        }
        assert_eq!(direction(u64::MAX, 64), 0);
    }

    #[test]
    fn entry_points_are_even_gray_codes() {
        // e(w) must be a vertex the order-1 curve can enter: all entry points
        // have even Gray-code inverse.
        for w in 0..64u64 {
            assert_eq!(gray_code_inverse(entry(w), 64) % 2, 0);
        }
    }

    #[test]
    fn rank_packs_masked_bits() {
        // mask selects bits 0 and 2 of a 3-bit word.
        let mask = 0b101;
        assert_eq!(gray_rank(mask, 0b000), 0b00);
        assert_eq!(gray_rank(mask, 0b001), 0b01);
        assert_eq!(gray_rank(mask, 0b100), 0b10);
        assert_eq!(gray_rank(mask, 0b101), 0b11);
        assert_eq!(gray_rank(mask, 0b111), 0b11);
    }

    #[test]
    fn rank_inverse_restores_free_bits() {
        let n = 5u32;
        for mask in 0..32u64 {
            for w in 0..32u64 {
                let r = gray_rank(mask, w);
                let pi = gray_code(w) & !mask;
                let back = gray_rank_inverse(mask, pi, r, n);
                assert_eq!(back, w, "mask={mask:05b} w={w:05b} r={r:b} pi={pi:05b}");
            }
        }
    }

    #[test]
    fn full_mask_rank_is_identity() {
        for w in 0..256u64 {
            assert_eq!(gray_rank(0xff, w), w);
            assert_eq!(gray_rank_inverse(0xff, 0, w, 8), w);
        }
    }
}
