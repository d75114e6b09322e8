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
//! side `2^{max m_j}`. Compactness matters to VOLAP because every tree node
//! stores its maximum Hilbert value; with hierarchical TPC-DS IDs the
//! enclosing-cube index would waste several words per node.
//!
//! The crate provides:
//!
//! * [`gray`] — Gray-code primitives (code, inverse, entry/direction tables,
//!   Gray-code ranking) used by the curve construction.
//! * [`BigIndex`] — an ordered, heap-compact big-endian bit string used to
//!   hold indices wider than 64 bits (TPC-DS needs ~130 bits; the paper's
//!   64-dimension sweep needs several hundred).
//! * [`HilbertCurve`] — a reusable curve descriptor for a fixed list of
//!   per-dimension bit widths, with [`HilbertCurve::index`] (point → compact
//!   index) and [`HilbertCurve::point`] (compact index → point).
//!
//! # Example
//!
//! ```
//! use volap_hilbert::HilbertCurve;
//!
//! // Three dimensions with side lengths 2^4, 2^2 and 2^7.
//! let curve = HilbertCurve::new(&[4, 2, 7]);
//! assert_eq!(curve.total_bits(), 13);
//! let h = curve.index(&[3, 1, 100]);
//! assert_eq!(curve.point(&h), vec![3, 1, 100]);
//! ```

pub mod bigindex;
pub mod gray;

pub use bigindex::BigIndex;

use gray::{direction, entry, gray_code, gray_code_inverse, gray_rank, gray_rank_inverse};

/// A reusable Hilbert-curve descriptor for a fixed set of per-dimension bit
/// widths.
///
/// Construction pre-computes the per-iteration *extract masks* (which
/// dimensions still contribute bits at a given precision level), so that
/// computing indices in a hot loop touches no allocations besides the output
/// [`BigIndex`].
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
    /// Panics if there are no dimensions, more than 64 dimensions, or any
    /// width is 0 or exceeds 64 (the per-dimension coordinate type is `u64`).
    pub fn new(bits: &[u32]) -> Self {
        let n = bits.len();
        assert!(n >= 1, "HilbertCurve requires at least one dimension");
        assert!(n <= 64, "HilbertCurve supports at most 64 dimensions");
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

    /// Per-dimension bit widths.
    #[inline]
    pub fn bit_widths(&self) -> &[u32] {
        &self.bits
    }

    /// Exact bit width of every index produced by [`Self::index`].
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Compute the compact Hilbert index of `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dims()` or any coordinate exceeds its
    /// dimension's side length.
    pub fn index(&self, point: &[u64]) -> BigIndex {
        let mut h = BigIndex::with_bit_capacity(self.total_bits);
        self.index_into(point, &mut h);
        h
    }

    /// Compute the compact Hilbert index of `point` into `out`, reusing its
    /// storage. `out` is cleared first; on return it holds exactly
    /// [`Self::total_bits`] bits. This is the allocation-free entry point for
    /// batch key computation (the caller keeps one scratch `BigIndex` per
    /// batch).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::index`].
    pub fn index_into(&self, point: &[u64], out: &mut BigIndex) {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        for (j, (&p, &b)) in point.iter().zip(&self.bits).enumerate() {
            assert!(
                b == 64 || p < (1u64 << b),
                "coordinate {p} out of range for dimension {j} ({b} bits)"
            );
        }
        let n = self.dims() as u32;
        let h = out;
        h.clear();
        // Orientation state of the current sub-hypercube: entry point `e` and
        // intra-cube direction `d`, per Hamilton's formulation.
        let mut e: u64 = 0;
        let mut d: u32 = if n >= 2 { 1 } else { 0 };
        for i in (0..self.max_bits).rev() {
            let mu = rotr(self.masks[i as usize], d, n);
            // Gather bit `i` of every coordinate into an n-bit word.
            let mut l: u64 = 0;
            for (j, &p) in point.iter().enumerate() {
                if self.bits[j] > i {
                    l |= ((p >> i) & 1) << j;
                }
            }
            // Transform into the local frame: T_{(e,d)}(l) = rotr(l ^ e, d).
            let t = rotr(l ^ e, d, n);
            let w = gray_code_inverse(t);
            let r = gray_rank(mu, w, n);
            h.push_bits(r, mu.count_ones());
            e ^= rotl(entry(w), d, n);
            d = (d + direction(w, n) + 1) % n;
        }
        debug_assert_eq!(h.bit_len(), self.total_bits);
    }

    /// Invert a compact Hilbert index back into its point.
    ///
    /// # Panics
    ///
    /// Panics if `h` does not have exactly [`Self::total_bits`] bits.
    pub fn point(&self, h: &BigIndex) -> Vec<u64> {
        assert_eq!(
            h.bit_len(),
            self.total_bits,
            "index bit width does not match curve"
        );
        let n = self.dims() as u32;
        let mut p = vec![0u64; self.dims()];
        let mut e: u64 = 0;
        let mut d: u32 = if n >= 2 { 1 } else { 0 };
        let mut cursor = 0u32;
        for i in (0..self.max_bits).rev() {
            let mu = rotr(self.masks[i as usize], d, n);
            let free = mu.count_ones();
            let pi = rotr(e, d, n) & !mu & mask_n(n);
            let r = h.extract_bits(cursor, free);
            cursor += free;
            let w = gray_rank_inverse(mu, pi, r, n);
            let l = rotl(gray_code(w), d, n) ^ e;
            for (j, pj) in p.iter_mut().enumerate() {
                if self.bits[j] > i {
                    *pj |= ((l >> j) & 1) << i;
                }
            }
            e ^= rotl(entry(w), d, n);
            d = (d + direction(w, n) + 1) % n;
        }
        p
    }

    /// Compute the ordinary (non-compact) Hilbert index on the enclosing
    /// hypercube of side `2^{max m_j}`, as a [`BigIndex`] of
    /// `n * max_bits` bits.
    ///
    /// Exposed for testing and benchmarking: the compact index must order
    /// points identically to this one.
    pub fn enclosing_index(&self, point: &[u64]) -> BigIndex {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        let n = self.dims() as u32;
        let mut h = BigIndex::with_bit_capacity(n * self.max_bits);
        let mut e: u64 = 0;
        let mut d: u32 = if n >= 2 { 1 } else { 0 };
        for i in (0..self.max_bits).rev() {
            let mut l: u64 = 0;
            for (j, &p) in point.iter().enumerate() {
                l |= ((p >> i) & 1) << j;
            }
            let t = rotr(l ^ e, d, n);
            let w = gray_code_inverse(t);
            h.push_bits(w, n);
            e ^= rotl(entry(w), d, n);
            d = (d + direction(w, n) + 1) % n;
        }
        h
    }
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

/// Rotate the low `n` bits of `x` right by `r` (`r < n`).
#[inline]
fn rotr(x: u64, r: u32, n: u32) -> u64 {
    let x = x & mask_n(n);
    if r == 0 {
        return x;
    }
    ((x >> r) | (x << (n - r))) & mask_n(n)
}

/// Rotate the low `n` bits of `x` left by `r` (`r < n`).
#[inline]
fn rotl(x: u64, r: u32, n: u32) -> u64 {
    if r == 0 {
        return x & mask_n(n);
    }
    rotr(x, n - r, n)
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

    fn check_bijection(bits: &[u32]) {
        let curve = HilbertCurve::new(bits);
        let total = 1u64 << curve.total_bits();
        let mut seen = BTreeSet::new();
        for p in all_points(bits) {
            let h = curve.index(&p);
            let v = h.extract_bits(0, curve.total_bits());
            assert!(seen.insert(v), "duplicate index {v} for point {p:?}");
            assert_eq!(curve.point(&h), p, "round-trip failed for {p:?}");
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
            assert_eq!(curve.index(&[v]).extract_bits(0, 6), v);
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
                let h = curve.index(&p).extract_bits(0, curve.total_bits());
                cells[h as usize] = p;
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
        // 20 dimensions x 7 bits = 140-bit indices: exercises multi-limb
        // BigIndex arithmetic.
        let bits = vec![7u32; 20];
        let curve = HilbertCurve::new(&bits);
        assert_eq!(curve.total_bits(), 140);
        let p: Vec<u64> = (0..20).map(|j| (j * 13 % 128) as u64).collect();
        let h = curve.index(&p);
        assert_eq!(h.bit_len(), 140);
        assert_eq!(curve.point(&h), p);
    }

    #[test]
    fn index_into_reuses_scratch() {
        let curve = HilbertCurve::new(&[4, 2, 7]);
        let mut scratch = BigIndex::new();
        for p in [[3u64, 1, 100], [0, 0, 0], [15, 3, 127], [8, 2, 64]] {
            curve.index_into(&p, &mut scratch);
            assert_eq!(scratch, curve.index(&p));
        }
        // Wide curve: scratch spills once, then stays reusable.
        let bits = vec![7u32; 20];
        let wide = HilbertCurve::new(&bits);
        let mut scratch = BigIndex::new();
        for s in 0..4u64 {
            let p: Vec<u64> = (0..20).map(|j| (j * 13 + s) % 128).collect();
            wide.index_into(&p, &mut scratch);
            assert_eq!(scratch, wide.index(&p));
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
