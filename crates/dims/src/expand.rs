//! The Figure-3 hierarchical-ID expansion and Hilbert key mapping.

use crate::item::Item;
use crate::schema::Schema;
use volap_hilbert::{BigIndex, HilbertCurve};

/// Maps items to compact Hilbert keys, optionally applying the paper's
/// level expansion (Figure 3).
///
/// The problem the expansion solves: hierarchy levels have different bit
/// widths in different dimensions (a `Month` needs 4 bits, a `City` 6), so
/// the raw per-dimension ordinals give levels *different numeric weight* in
/// different dimensions. Keys higher in the tree are expressed at higher
/// hierarchy levels, and a Hilbert order computed on raw ordinals loses
/// locality for them. The fix: shift each level's bits left so that the
/// level spans the same numeric range in every dimension (the maximum width
/// of that level across dimensions), then compute a *compact* Hilbert index
/// over the widened coordinates. Only the Hilbert key sees the expansion —
/// tree keys and queries keep the raw ordinals.
///
/// With `expand == false` this degenerates to the Hilbert R-tree mapping
/// (raw ordinals), which the paper uses as a baseline.
#[derive(Debug, Clone)]
pub struct HilbertMapper {
    curve: HilbertCurve,
    /// Per dimension, per level: `(src_shift, bits, dst_shift)` — move
    /// `bits` bits of the ordinal at `src_shift` to `dst_shift` in the
    /// expanded coordinate.
    plan: Vec<Vec<(u32, u32, u32)>>,
    expand: bool,
}

impl HilbertMapper {
    /// Build a mapper for `schema`; `expand` selects the Figure-3 level
    /// expansion (true for the Hilbert PDC tree, false for the Hilbert
    /// R-tree baseline).
    pub fn new(schema: &Schema, expand: bool) -> Self {
        let mut widths = Vec::with_capacity(schema.dims());
        let mut plan = Vec::with_capacity(schema.dims());
        for dim in schema.dimensions() {
            if !expand {
                widths.push(dim.total_bits());
                plan.push(vec![(0, dim.total_bits(), 0)]);
                continue;
            }
            // Expanded width: each level widened to the schema-wide maximum
            // for that level.
            let exp_width: u32 = (1..=dim.depth()).map(|l| schema.max_level_bits(l)).sum();
            assert!(exp_width <= 64, "expanded dimension exceeds 64 bits");
            let mut level_plan = Vec::with_capacity(dim.depth());
            let mut dst_below = exp_width;
            for l in 1..=dim.depth() {
                let src_bits = dim.level_bits(l);
                let max_bits = schema.max_level_bits(l);
                dst_below -= max_bits;
                // Shift the level's bits left within its widened field so its
                // values span the field's numeric range (Figure 3).
                let dst_shift = dst_below + (max_bits - src_bits);
                level_plan.push((dim.remaining_bits(l), src_bits, dst_shift));
            }
            widths.push(exp_width);
            plan.push(level_plan);
        }
        Self {
            curve: HilbertCurve::new(&widths),
            plan,
            expand,
        }
    }

    /// Whether the Figure-3 expansion is applied.
    #[inline]
    pub fn expands(&self) -> bool {
        self.expand
    }

    /// Bit width of produced keys.
    #[inline]
    pub fn key_bits(&self) -> u32 {
        self.curve.total_bits()
    }

    /// The expanded coordinate of `ordinal` in dimension `d`.
    #[inline]
    pub fn expand_ordinal(&self, d: usize, ordinal: u64) -> u64 {
        let mut out = 0u64;
        for &(src_shift, bits, dst_shift) in &self.plan[d] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            out |= ((ordinal >> src_shift) & mask) << dst_shift;
        }
        out
    }

    /// The compact Hilbert key of an item.
    pub fn key(&self, item: &Item) -> BigIndex {
        self.key_of_coords(&item.coords)
    }

    /// The compact Hilbert key of raw per-dimension ordinals.
    pub fn key_of_coords(&self, coords: &[u64]) -> BigIndex {
        self.batch().key_of_coords(coords)
    }

    /// Start a batch key computation that reuses the level-expansion buffer
    /// across items. Keys themselves are inline (no heap) for widths up to
    /// 256 bits, so this makes the whole per-item key path allocation-free.
    pub fn batch(&self) -> KeyBatch<'_> {
        KeyBatch {
            mapper: self,
            expanded: Vec::with_capacity(self.plan.len()),
        }
    }
}

/// Reusable scratch for computing many Hilbert keys: the expanded-coordinate
/// buffer is allocated once and shared by every [`KeyBatch::key`] call.
#[derive(Debug)]
pub struct KeyBatch<'a> {
    mapper: &'a HilbertMapper,
    expanded: Vec<u64>,
}

impl KeyBatch<'_> {
    /// The compact Hilbert key of an item.
    #[inline]
    pub fn key(&mut self, item: &Item) -> BigIndex {
        self.key_of_coords(&item.coords)
    }

    /// The compact Hilbert key of raw per-dimension ordinals.
    pub fn key_of_coords(&mut self, coords: &[u64]) -> BigIndex {
        debug_assert_eq!(coords.len(), self.mapper.plan.len());
        self.expanded.clear();
        self.expanded.extend(
            coords
                .iter()
                .enumerate()
                .map(|(d, &c)| self.mapper.expand_ordinal(d, c)),
        );
        let mut out = BigIndex::with_bit_capacity(self.mapper.curve.total_bits());
        self.mapper.curve.index_into(&self.expanded, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DimensionDef, LevelDef};

    /// The Figure-3 example: dimension 1 with levels of 4 bits each,
    /// dimension 2 with levels (4, 1?) — we model the essence: level widths
    /// differing across dimensions get left-shifted into the widened field.
    #[test]
    fn expansion_shifts_into_widened_fields() {
        let schema = Schema::new(
            vec![
                DimensionDef::new(
                    "D1",
                    vec![LevelDef::new("L1", 16), LevelDef::new("L2", 16)], // 4+4 bits
                ),
                DimensionDef::new(
                    "D2",
                    vec![LevelDef::new("L1", 16), LevelDef::new("L2", 4)], // 4+2 bits
                ),
            ],
            4,
        );
        let m = HilbertMapper::new(&schema, true);
        // Widened level widths: L1 -> 4, L2 -> 4. D1 is unchanged.
        let d1 = schema.dim(0).ordinal(&[0b1010, 0b0110]);
        assert_eq!(m.expand_ordinal(0, d1), 0b1010_0110);
        // D2's L2 (2 bits) is left-shifted 2 places inside its 4-bit field.
        let d2 = schema.dim(1).ordinal(&[0b1010, 0b11]);
        assert_eq!(m.expand_ordinal(1, d2), 0b1010_1100);
        assert_eq!(m.key_bits(), 16);
    }

    #[test]
    fn no_expansion_is_identity() {
        let schema = Schema::tpcds();
        let m = HilbertMapper::new(&schema, false);
        for d in 0..schema.dims() {
            let ord = schema.dim(d).ordinal_end() / 3;
            assert_eq!(m.expand_ordinal(d, ord), ord);
        }
        let total: u32 = schema.dimensions().iter().map(|d| d.total_bits()).sum();
        assert_eq!(m.key_bits(), total);
    }

    #[test]
    fn tpcds_expanded_width() {
        let schema = Schema::tpcds();
        let m = HilbertMapper::new(&schema, true);
        // Level maxima are 8/6/6 (Promotion, Minute, City): 3-level dims
        // widen to 20 bits, Household to 8, Promotion to 8, Time to 14.
        assert_eq!(m.key_bits(), 20 * 5 + 8 + 8 + 14);
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let schema = Schema::tpcds();
        let m = HilbertMapper::new(&schema, true);
        let a = Item::new(vec![1, 2, 3, 4, 5, 6, 7, 8], 1.0);
        let b = Item::new(vec![1, 2, 3, 4, 5, 6, 7, 9], 1.0);
        assert_eq!(m.key(&a), m.key(&a));
        assert_ne!(m.key(&a), m.key(&b));
    }

    #[test]
    fn batch_keys_match_one_shot_keys() {
        let schema = Schema::tpcds();
        for expand in [true, false] {
            let m = HilbertMapper::new(&schema, expand);
            let mut batch = m.batch();
            for i in 0..200u64 {
                let coords: Vec<u64> = (0..schema.dims())
                    .map(|d| (i * 7 + d as u64 * 13) % schema.dim(d).ordinal_end())
                    .collect();
                let item = Item::new(coords.clone(), i as f64);
                assert_eq!(batch.key(&item), m.key(&item));
                assert_eq!(batch.key_of_coords(&coords), m.key_of_coords(&coords));
            }
        }
    }

    /// Sibling subtrees at any level must map to disjoint Hilbert key ranges
    /// only in the sense of ordering locality; at minimum, equal prefixes at
    /// the top level with sorted keys should cluster. We check a weaker,
    /// exact property: expansion is monotone per level field.
    #[test]
    fn expansion_is_monotone_per_dimension() {
        let schema = Schema::tpcds();
        let m = HilbertMapper::new(&schema, true);
        for d in 0..schema.dims() {
            let end = schema.dim(d).ordinal_end().min(1 << 13);
            let mut last = None;
            for ord in 0..end {
                let e = m.expand_ordinal(d, ord);
                if let Some(prev) = last {
                    assert!(e > prev, "expansion must preserve ordinal order");
                }
                last = Some(e);
            }
        }
    }
}
