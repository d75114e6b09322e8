//! Compact Hilbert indices for domains with unequal side lengths.
//!
//! This crate implements the machinery behind the *Hilbert PDC tree* of the
//! VOLAP paper (Dehne et al., CLUSTER 2016): the compact Hilbert index of
//! Hamilton & Rau-Chaplin ("Compact Hilbert indices: Space-filling curves for
//! domains with unequal side lengths", Information Processing Letters 105(5),
//! 2008).
//!
//! A point in an `n`-dimensional grid where dimension `j` has side length
//! `2^{m_j}` is mapped to an index of exactly `M = Σ m_j` bits, preserving the
//! visit order of the ordinary Hilbert curve on the enclosing hypercube of
//! side `2^{max m_j}`. Compactness matters to VOLAP because every leaf row
//! and every directory slot stores a Hilbert value; with hierarchical TPC-DS
//! IDs the enclosing-cube index would waste several words per row.
//!
//! An index is a fixed number of `u64` words, [`HilbertCurve::limbs`] =
//! `⌈M / 64⌉`, fixed by the curve: bits most significant first, the last
//! word's unused low bits zero. For one curve, comparing two indices as word
//! slices (`<` on `[u64]`) is therefore comparing them as numbers, and a
//! caller can keep many indices in one flat `Vec<u64>` at that stride.
//!
//! The crate provides:
//!
//! * [`bigindex`] — the bit layout of an index across its words: append
//!   and read bit groups most significant first.
//! * [`gray`] — Gray-code primitives (code, inverse, entry/direction tables,
//!   Gray-code ranking) used by the curve construction.
//! * [`HilbertCurve`] — a reusable curve descriptor for a fixed list of
//!   per-dimension bit widths, with [`HilbertCurve::index_into`] (point →
//!   compact index, written into the caller's words without allocating) and
//!   [`HilbertCurve::point`] (compact index → point).
//!
//! # Example
//!
//! ```
//! use volap_hilbert::HilbertCurve;
//!
//! // Three dimensions with side lengths 2^4, 2^2 and 2^7.
//! let curve = HilbertCurve::new(&[4, 2, 7]);
//! assert_eq!(curve.total_bits(), 13);
//! assert_eq!(curve.limbs(), 1);
//! let h = curve.index(&[3, 1, 100]);
//! assert_eq!(curve.point(&h), vec![3, 1, 100]);
//! ```

pub mod bigindex;
pub mod gray;

use bigindex::{extract_bits, push_bits};
use gray::{direction, entry, gray_code, gray_code_inverse, gray_rank, gray_rank_inverse};

/// Most dimensions a curve takes.
pub const MAX_DIMS: usize = 64;

/// Most words an index takes: [`MAX_DIMS`] dimensions of 64 bits each.
pub const MAX_LIMBS: usize = MAX_DIMS;

/// `SPREAD[b]` moves bit `k` of the byte `b` to bit `8k`: the table behind
/// the bit-plane transpose of [`bit_planes`].
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            t[b] |= ((b as u64 >> k) & 1) << (8 * k);
            k += 1;
        }
        b += 1;
    }
    t
};

/// A reusable Hilbert-curve descriptor for a fixed set of per-dimension bit
/// widths.
///
/// Construction pre-computes the per-iteration *extract masks* (which
/// dimensions still contribute bits at a given precision level), so that
/// computing an index touches no heap at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HilbertCurve {
    /// Bits per dimension (`m_j`). Dimension count `n == bits.len()`.
    bits: Vec<u32>,
    /// `max(m_j)`: the number of curve iterations.
    max_bits: u32,
    /// `Σ m_j`: the exact bit width of every produced index.
    total_bits: u32,
    /// `masks[i]` has bit `j` set iff dimension `j` is active at iteration
    /// for bit position `i` (i.e. `m_j > i`). Indexed by bit position,
    /// **not** by iteration order.
    masks: Vec<u64>,
}

impl HilbertCurve {
    /// Create a curve for dimensions with the given bit widths.
    ///
    /// # Panics
    ///
    /// Panics if there are no dimensions, more than [`MAX_DIMS`], or any
    /// width is 0 or exceeds 64 (the per-dimension coordinate type is `u64`).
    pub fn new(bits: &[u32]) -> Self {
        let n = bits.len();
        assert!(n >= 1, "HilbertCurve requires at least one dimension");
        assert!(n <= MAX_DIMS, "HilbertCurve supports at most 64 dimensions");
        for (j, &b) in bits.iter().enumerate() {
            assert!(
                (1..=64).contains(&b),
                "dimension {j} has invalid bit width {b} (must be 1..=64)"
            );
        }
        let max_bits = bits.iter().copied().max().unwrap();
        let total_bits: u32 = bits.iter().sum();
        let masks = (0..max_bits)
            .map(|i| {
                bits.iter().enumerate().fold(
                    0u64,
                    |m, (j, &b)| {
                        if b > i {
                            m | (1u64 << j)
                        } else {
                            m
                        }
                    },
                )
            })
            .collect();
        Self {
            bits: bits.to_vec(),
            max_bits,
            total_bits,
            masks,
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.bits.len()
    }

    /// Exact bit width of every index produced by [`Self::index`].
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Words per index: `⌈total_bits / 64⌉`, at most [`MAX_LIMBS`].
    #[inline]
    pub fn limbs(&self) -> usize {
        self.total_bits.div_ceil(64) as usize
    }

    /// Compute the compact Hilbert index of `point` as [`Self::limbs`]
    /// fresh words.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::index_into`].
    pub fn index(&self, point: &[u64]) -> Vec<u64> {
        let mut h = vec![0; self.limbs()];
        self.index_into(point, &mut h);
        h
    }

    /// Compute the compact Hilbert index of `point` into `out`, most
    /// significant bit first, overwriting all of it. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dims()`, `out.len() != self.limbs()`,
    /// or any coordinate exceeds its dimension's side length.
    pub fn index_into(&self, point: &[u64], out: &mut [u64]) {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        assert_eq!(out.len(), self.limbs(), "index word count mismatch");
        for (j, (&p, &b)) in point.iter().zip(&self.bits).enumerate() {
            assert!(
                b == 64 || p < (1u64 << b),
                "coordinate {p} out of range for dimension {j} ({b} bits)"
            );
        }
        let n = self.dims() as u32;
        // Coordinates are in range, so a dimension's bits above its width
        // are zero: plane `i` needs no extract mask.
        let planes = bit_planes(point);
        out.fill(0);
        let mut pos = 0;
        // Orientation state of the current sub-hypercube: entry point `e` and
        // intra-cube direction `d`, per Hamilton's formulation.
        let mut e: u64 = 0;
        let mut d: u32 = if n >= 2 { 1 } else { 0 };
        for i in (0..self.max_bits as usize).rev() {
            let mu = rotr(self.masks[i], d, n);
            // Transform into the local frame: T_{(e,d)}(l) = rotr(l ^ e, d).
            let w = gray_code_inverse(rotr(planes[i] ^ e, d, n), n);
            push_bits(out, &mut pos, gray_rank(mu, w), mu.count_ones());
            (e, d) = descend(e, d, w, n);
        }
        debug_assert_eq!(pos, self.total_bits);
    }

    /// Invert a compact Hilbert index back into its point.
    ///
    /// # Panics
    ///
    /// Panics if `h` does not have exactly [`Self::limbs`] words.
    pub fn point(&self, h: &[u64]) -> Vec<u64> {
        assert_eq!(h.len(), self.limbs(), "index word count mismatch");
        let n = self.dims() as u32;
        let mut p = vec![0u64; self.dims()];
        let mut e: u64 = 0;
        let mut d: u32 = if n >= 2 { 1 } else { 0 };
        let mut cursor = 0u32;
        for i in (0..self.max_bits).rev() {
            let mu = rotr(self.masks[i as usize], d, n);
            let free = mu.count_ones();
            let pi = rotr(e, d, n) & !mu & mask_n(n);
            let r = extract_bits(h, cursor, free);
            cursor += free;
            let w = gray_rank_inverse(mu, pi, r, n);
            let l = rotl(gray_code(w), d, n) ^ e;
            for (j, pj) in p.iter_mut().enumerate() {
                if self.bits[j] > i {
                    *pj |= ((l >> j) & 1) << i;
                }
            }
            (e, d) = descend(e, d, w, n);
        }
        p
    }

    /// Compute the ordinary (non-compact) Hilbert index on the enclosing
    /// hypercube of side `2^{max m_j}`: `n * max_bits` bits, in as many
    /// words as that takes, laid out like a compact index.
    ///
    /// Exposed for testing: the compact index must order points identically
    /// to this one.
    pub fn enclosing_index(&self, point: &[u64]) -> Vec<u64> {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        let n = self.dims() as u32;
        let mut h = vec![0; (n * self.max_bits).div_ceil(64) as usize];
        let mut pos = 0;
        let planes = bit_planes(point);
        let mut e: u64 = 0;
        let mut d: u32 = if n >= 2 { 1 } else { 0 };
        for i in (0..self.max_bits as usize).rev() {
            let w = gray_code_inverse(rotr(planes[i] ^ e, d, n), n);
            push_bits(&mut h, &mut pos, w, n);
            (e, d) = descend(e, d, w, n);
        }
        h
    }
}

/// Transpose `point` into bit planes: bit `j` of plane `i` is bit `i` of
/// coordinate `j`. Eight coordinates at a time, one spread-table lookup per
/// coordinate byte lays a byte's bits out one per output byte, and each
/// output byte is then one byte of a plane.
#[inline]
fn bit_planes(point: &[u64]) -> [u64; 64] {
    let mut planes = [0u64; 64];
    for (g, group) in point.chunks(8).enumerate() {
        let top = group.iter().fold(0, |a, &p| a | p);
        for c in 0..(64 - top.leading_zeros()).div_ceil(8) as usize {
            let mut acc = 0u64;
            for (t, &p) in group.iter().enumerate() {
                acc |= SPREAD[((p >> (8 * c)) & 0xff) as usize] << t;
            }
            for (k, plane) in planes[8 * c..8 * c + 8].iter_mut().enumerate() {
                *plane |= ((acc >> (8 * k)) & 0xff) << (8 * g);
            }
        }
    }
    planes
}

/// Move the orientation state into sub-cube `w`: the new entry point and
/// direction (`d + d(w) + 1 < 2n`, so the modulus is one compare).
#[inline]
fn descend(e: u64, d: u32, w: u64, n: u32) -> (u64, u32) {
    let e = e ^ rotl(entry(w), d, n);
    let d = d + direction(w, n) + 1;
    (e, if d >= n { d - n } else { d })
}

/// Mask of the low `n` bits (`n <= 64`).
#[inline]
fn mask_n(n: u32) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Rotate the low `n` bits of `x` right by `r` (`r < n`). Branch-free: for
/// `r = 0` the left shift moves every bit above the mask (or, for `n = 64`,
/// is by 0).
#[inline]
fn rotr(x: u64, r: u32, n: u32) -> u64 {
    let x = x & mask_n(n);
    ((x >> r) | (x << ((n - r) & 63))) & mask_n(n)
}

/// Rotate the low `n` bits of `x` left by `r` (`r < n`), branch-free like
/// [`rotr`].
#[inline]
fn rotl(x: u64, r: u32, n: u32) -> u64 {
    let x = x & mask_n(n);
    ((x << r) | (x >> ((n - r) & 63))) & mask_n(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Enumerate every point of the (bits) grid.
    fn all_points(bits: &[u32]) -> Vec<Vec<u64>> {
        let mut pts: Vec<Vec<u64>> = vec![vec![]];
        for &b in bits {
            let side = 1u64 << b;
            pts = pts
                .into_iter()
                .flat_map(|p| {
                    (0..side).map(move |v| {
                        let mut q = p.clone();
                        q.push(v);
                        q
                    })
                })
                .collect();
        }
        pts
    }

    /// The index of `p` on a curve of at most 64 bits, as a number.
    fn value(curve: &HilbertCurve, p: &[u64]) -> u64 {
        extract_bits(&curve.index(p), 0, curve.total_bits())
    }

    fn check_bijection(bits: &[u32]) {
        let curve = HilbertCurve::new(bits);
        let total = 1u64 << curve.total_bits();
        let mut seen = BTreeSet::new();
        for p in all_points(bits) {
            let v = value(&curve, &p);
            assert!(seen.insert(v), "duplicate index {v} for point {p:?}");
            assert_eq!(
                curve.point(&curve.index(&p)),
                p,
                "round-trip failed for {p:?}"
            );
        }
        assert_eq!(seen.len() as u64, total);
        assert_eq!(*seen.iter().next().unwrap(), 0);
        assert_eq!(*seen.iter().next_back().unwrap(), total - 1);
    }

    #[test]
    fn bijective_equal_sides() {
        check_bijection(&[3, 3]);
        check_bijection(&[2, 2, 2]);
        check_bijection(&[2, 2, 2, 2]);
    }

    #[test]
    fn bijective_unequal_sides() {
        check_bijection(&[4, 2]);
        check_bijection(&[1, 5]);
        check_bijection(&[3, 1, 2]);
        check_bijection(&[1, 1, 4, 2]);
        check_bijection(&[5, 1]);
    }

    #[test]
    fn bijective_one_dimension() {
        check_bijection(&[6]);
        // In one dimension the Hilbert index is the identity.
        let curve = HilbertCurve::new(&[6]);
        for v in 0..64u64 {
            assert_eq!(value(&curve, &[v]), v);
        }
    }

    /// The defining locality property of a Hilbert curve: on an
    /// equal-side-length grid, consecutive indices are adjacent cells.
    #[test]
    fn adjacency_equal_sides() {
        for bits in [&[3u32, 3][..], &[2, 2, 2][..], &[1, 1, 1, 1][..]] {
            let curve = HilbertCurve::new(bits);
            let total = 1u64 << curve.total_bits();
            let mut cells = vec![vec![]; total as usize];
            for p in all_points(bits) {
                let v = value(&curve, &p);
                cells[v as usize] = p;
            }
            for w in cells.windows(2) {
                let dist: u64 = w[0].iter().zip(&w[1]).map(|(a, b)| a.abs_diff(*b)).sum();
                assert_eq!(
                    dist, 1,
                    "cells {:?} and {:?} are consecutive on the curve but not adjacent",
                    w[0], w[1]
                );
            }
        }
    }

    /// Compactness correctness (Hamilton & Rau-Chaplin Thm. 1): the compact
    /// index orders points exactly as the ordinary Hilbert index on the
    /// enclosing hypercube does.
    #[test]
    fn compact_preserves_enclosing_order() {
        for bits in [&[4u32, 2][..], &[1, 5][..], &[3, 1, 2][..], &[2, 4, 1][..]] {
            let curve = HilbertCurve::new(bits);
            let mut pts = all_points(bits);
            let mut by_compact = pts.clone();
            by_compact.sort_by_key(|p| curve.index(p));
            pts.sort_by_key(|p| curve.enclosing_index(p));
            assert_eq!(by_compact, pts, "order mismatch for bits {bits:?}");
        }
    }

    #[test]
    fn wide_indices_are_stable() {
        // 20 dimensions x 7 bits = 140-bit indices: three words, the last
        // holding 12 bits.
        let bits = vec![7u32; 20];
        let curve = HilbertCurve::new(&bits);
        assert_eq!(curve.total_bits(), 140);
        assert_eq!(curve.limbs(), 3);
        let p: Vec<u64> = (0..20).map(|j| (j * 13 % 128) as u64).collect();
        let h = curve.index(&p);
        assert_eq!(h[2] << 12, 0, "unused low bits of the last word are zero");
        assert_eq!(curve.point(&h), p);
    }

    #[test]
    fn index_into_reuses_scratch() {
        let curve = HilbertCurve::new(&[4, 2, 7]);
        let mut out = [u64::MAX];
        for p in [[3u64, 1, 100], [0, 0, 0], [15, 3, 127], [8, 2, 64]] {
            curve.index_into(&p, &mut out);
            assert_eq!(out[..], curve.index(&p)[..]);
        }
        // 64 dimensions of 64 bits: the widest curve, every plane in use.
        let wide = HilbertCurve::new(&[64; MAX_DIMS]);
        assert_eq!(wide.limbs(), MAX_LIMBS);
        let mut out = [u64::MAX; MAX_LIMBS];
        for s in 0..4u64 {
            let p: Vec<u64> = (0..64)
                .map(|j| (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s)
                .collect();
            wide.index_into(&p, &mut out);
            assert_eq!(wide.point(&out), p);
        }
    }

    #[test]
    fn bit_planes_transpose_the_point() {
        let p: Vec<u64> = (0..19)
            .map(|j| (j as u64 * 0x0123_4567_89AB_CDEF) >> (j % 5))
            .collect();
        let planes = bit_planes(&p);
        for (i, &plane) in planes.iter().enumerate() {
            for (j, &c) in p.iter().enumerate() {
                assert_eq!((plane >> j) & 1, (c >> i) & 1, "plane {i}, coordinate {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_coordinates() {
        HilbertCurve::new(&[2, 2]).index(&[4, 0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_wrong_arity() {
        HilbertCurve::new(&[2, 2]).index(&[1]);
    }
}
