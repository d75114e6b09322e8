//! Property-based tests for the compact Hilbert machinery.

use proptest::prelude::*;
use volap_hilbert::{BigIndex, HilbertCurve};

/// The pre-inline `Vec`-backed bit string: a straight re-implementation of
/// `push_bits` over a plain `Vec<u64>`, kept as the reference model for the
/// inline-storage representation.
#[derive(Default, Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct VecModel {
    // Field order matters: the derived `Ord` compares `bit_len` first, then
    // limbs — the same shorter-width-sorts-first rule as `BigIndex`.
    bit_len: u32,
    limbs: Vec<u64>,
}

impl VecModel {
    fn push_bits(&mut self, value: u64, nbits: u32) {
        if nbits == 0 {
            return;
        }
        let used = self.bit_len % 64;
        let free = if used == 0 { 0 } else { 64 - used };
        if free == 0 {
            self.limbs.push(if nbits == 64 {
                value
            } else {
                value << (64 - nbits)
            });
        } else if nbits <= free {
            *self.limbs.last_mut().unwrap() |= value << (free - nbits);
        } else {
            let hi = nbits - free;
            *self.limbs.last_mut().unwrap() |= value >> hi;
            self.limbs.push(value << (64 - hi));
        }
        self.bit_len += nbits;
    }
}

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
            prop_assert_eq!(h.bit_len(), total);
            let v = h.extract_bits(0, total) as usize;
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

    /// index/point round-trip at arbitrary dimensionality and widths.
    #[test]
    fn index_point_roundtrip((widths, coords) in wide_point()) {
        let curve = HilbertCurve::new(&widths);
        let h = curve.index(&coords);
        prop_assert_eq!(h.bit_len(), widths.iter().sum::<u32>());
        prop_assert_eq!(curve.point(&h), coords);
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

    /// BigIndex push/extract are mutually inverse for arbitrary chunkings.
    #[test]
    fn bigindex_push_extract(chunks in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 1..12)) {
        let mut b = BigIndex::new();
        let mut expected = Vec::new();
        for &(v, bits) in &chunks {
            let v = if bits == 64 { v } else { v & ((1u64 << bits) - 1) };
            b.push_bits(v, bits);
            expected.push((v, bits));
        }
        let mut offset = 0;
        for (v, bits) in expected {
            prop_assert_eq!(b.extract_bits(offset, bits), v);
            offset += bits;
        }
        prop_assert_eq!(b.bit_len(), offset);
        // Raw round-trip.
        let r = BigIndex::from_raw(b.limbs().to_vec(), b.bit_len());
        prop_assert_eq!(r, b);
    }

    /// The inline-limb representation is observationally identical to the
    /// `Vec` representation: same limbs, same width, same ordering — across
    /// the inline→heap spill boundary (chunk counts up to 12 reach ~768
    /// bits, well past the 4-limb inline buffer).
    #[test]
    fn inline_storage_matches_vec_model(
        chunks_a in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 1..12),
        chunks_b in prop::collection::vec((0u64..u64::MAX, 1u32..=64), 1..12),
    ) {
        let build = |chunks: &[(u64, u32)]| {
            let mut real = BigIndex::new();
            let mut model = VecModel::default();
            for &(v, bits) in chunks {
                let v = if bits == 64 { v } else { v & ((1u64 << bits) - 1) };
                real.push_bits(v, bits);
                model.push_bits(v, bits);
            }
            (real, model)
        };
        let (ra, ma) = build(&chunks_a);
        let (rb, mb) = build(&chunks_b);
        prop_assert_eq!(ra.limbs(), &ma.limbs[..]);
        prop_assert_eq!(ra.bit_len(), ma.bit_len);
        prop_assert_eq!(ra.cmp(&rb), ma.cmp(&mb));
        prop_assert_eq!(ra == rb, ma == mb);
        // heap_bytes is zero exactly while the value fits the inline buffer.
        prop_assert_eq!(ra.heap_bytes() == 0, ma.limbs.len() <= 4);
        // from_raw on the model's limbs reproduces the real value.
        prop_assert_eq!(BigIndex::from_raw(ma.limbs, ma.bit_len), ra);
    }

    /// BigIndex ordering at equal widths equals numeric ordering of the
    /// underlying big-endian bit strings.
    #[test]
    fn bigindex_order_is_numeric(a in 0u64..1 << 40, b in 0u64..1 << 40, hi in 0u64..8) {
        let mk = |hi: u64, lo: u64| {
            let mut x = BigIndex::new();
            x.push_bits(hi, 24);
            x.push_bits(lo, 40);
            x
        };
        let x = mk(hi, a);
        let y = mk(hi, b);
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        let z = mk(hi + 1, a);
        prop_assert!(z > y);
    }
}
