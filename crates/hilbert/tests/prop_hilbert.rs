//! Property-based tests for the compact Hilbert machinery.

use proptest::prelude::*;
use volap_hilbert::bigindex::{extract_bits, push_bits};
use volap_hilbert::HilbertCurve;

/// Strategy: a small width vector whose total bits stay enumerable.
fn small_widths() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..=4, 1..=4)
        .prop_filter("enumerable domain", |w| w.iter().sum::<u32>() <= 12)
}

/// Strategy: an arbitrary (point, widths) pair with up to 64 dimensions.
fn wide_point() -> impl Strategy<Value = (Vec<u32>, Vec<u64>)> {
    prop::collection::vec(1u32..=16, 1..=64).prop_flat_map(|widths| {
        let coords: Vec<BoxedStrategy<u64>> = widths
            .iter()
            .map(|&b| (0u64..(1u64 << b)).boxed())
            .collect();
        (Just(widths), coords)
    })
}

proptest! {
    /// Exhaustive bijectivity for random small domains: every index in
    /// [0, 2^M) is hit exactly once.
    #[test]
    fn compact_index_is_bijective(widths in small_widths()) {
        let curve = HilbertCurve::new(&widths);
        let total: u32 = widths.iter().sum();
        let mut seen = vec![false; 1usize << total];
        let mut point = vec![0u64; widths.len()];
        // Odometer over the whole domain.
        loop {
            let h = curve.index(&point);
            prop_assert_eq!(h.len(), 1);
            prop_assert_eq!(h[0] << total, 0, "bits below the index are zero");
            let v = extract_bits(&h, 0, total) as usize;
            prop_assert!(!seen[v], "index {} visited twice", v);
            seen[v] = true;
            // increment odometer
            let mut d = 0;
            loop {
                if d == widths.len() {
                    for s in &seen {
                        prop_assert!(*s);
                    }
                    return Ok(());
                }
                point[d] += 1;
                if point[d] < (1u64 << widths[d]) {
                    break;
                }
                point[d] = 0;
                d += 1;
            }
        }
    }

    /// index/point round-trip at arbitrary dimensionality and widths, and
    /// `index_into` over a dirty buffer equals `index`.
    #[test]
    fn index_point_roundtrip((widths, coords) in wide_point()) {
        let curve = HilbertCurve::new(&widths);
        let h = curve.index(&coords);
        prop_assert_eq!(h.len(), widths.iter().sum::<u32>().div_ceil(64) as usize);
        prop_assert_eq!(curve.point(&h), coords.clone());
        let mut dirty = vec![u64::MAX; h.len()];
        curve.index_into(&coords, &mut dirty);
        prop_assert_eq!(dirty, h);
    }

    /// The compact index orders points exactly as the enclosing-cube
    /// Hilbert index does (Hamilton & Rau-Chaplin's defining theorem).
    #[test]
    fn compact_order_matches_enclosing(widths in small_widths(), seed in 0u64..1_000_000) {
        let curve = HilbertCurve::new(&widths);
        // Two pseudo-random points from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let p: Vec<u64> = widths.iter().map(|&b| next() % (1u64 << b)).collect();
        let q: Vec<u64> = widths.iter().map(|&b| next() % (1u64 << b)).collect();
        let compact = curve.index(&p).cmp(&curve.index(&q));
        let enclosing = curve.enclosing_index(&p).cmp(&curve.enclosing_index(&q));
        prop_assert_eq!(compact, enclosing);
    }

    /// push/extract are mutually inverse for arbitrary chunkings.
    #[test]
    fn bigindex_push_extract(chunks in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 1..12)) {
        let total: u32 = chunks.iter().map(|c| c.1).sum();
        let mut words = vec![0u64; total.div_ceil(64) as usize];
        let mut pos = 0;
        let mut expected = Vec::new();
        for &(v, bits) in &chunks {
            let v = if bits == 64 { v } else { v & ((1u64 << bits) - 1) };
            push_bits(&mut words, &mut pos, v, bits);
            expected.push((v, bits));
        }
        prop_assert_eq!(pos, total);
        let mut offset = 0;
        for (v, bits) in expected {
            prop_assert_eq!(extract_bits(&words, offset, bits), v);
            offset += bits;
        }
    }

    /// Word-slice ordering at equal widths equals numeric ordering of the
    /// underlying big-endian bit strings.
    #[test]
    fn bigindex_order_is_numeric(a in 0u64..1 << 40, b in 0u64..1 << 40, hi in 0u64..8) {
        let mk = |hi: u64, lo: u64| {
            let mut w = [0u64; 2];
            let mut pos = 0;
            push_bits(&mut w, &mut pos, hi, 24);
            push_bits(&mut w, &mut pos, lo, 40);
            push_bits(&mut w, &mut pos, 0, 1);
            w
        };
        let x = mk(hi, a);
        let y = mk(hi, b);
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        let z = mk(hi + 1, a);
        prop_assert!(z > y);
    }
}
