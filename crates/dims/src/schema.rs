//! Dimension hierarchy schemas and their bit layouts.

use std::sync::Arc;

/// One level of a dimension hierarchy.
///
/// `fanout` is the maximum number of children a node at the level above can
/// have (e.g. a `Month` level has fanout 12). The level is laid out in
/// `ceil(log2(fanout))` bits of the dimension's leaf ordinal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelDef {
    /// Human-readable level name ("Year", "State", …).
    pub name: String,
    /// Maximum branching at this level; must be at least 2.
    pub fanout: u64,
}

impl LevelDef {
    /// Create a level definition.
    pub fn new(name: impl Into<String>, fanout: u64) -> Self {
        assert!(fanout >= 2, "level fanout must be at least 2");
        Self {
            name: name.into(),
            fanout,
        }
    }

    /// Number of ordinal bits this level occupies.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - (self.fanout - 1).leading_zeros()
    }
}

/// A dimension: a named hierarchy of levels, root (ALL) excluded.
///
/// Level 1 is the coarsest explicit level; level `depth()` is the leaf
/// level. A full hierarchical path therefore has `depth()` components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionDef {
    /// Dimension name ("Store", "Date", …).
    pub name: String,
    /// Levels from coarsest to finest.
    pub levels: Vec<LevelDef>,
    /// `shifts[l]`: how far left the component of level `l+1` sits in the
    /// leaf ordinal (number of bits below it).
    shifts: Vec<u32>,
    /// Total ordinal bits of this dimension.
    total_bits: u32,
}

impl DimensionDef {
    /// Create a dimension from its levels (coarsest first).
    pub fn new(name: impl Into<String>, levels: Vec<LevelDef>) -> Self {
        assert!(!levels.is_empty(), "dimension must have at least one level");
        let total_bits: u32 = levels.iter().map(LevelDef::bits).sum();
        assert!(total_bits <= 64, "dimension ordinal exceeds 64 bits");
        let mut shifts = Vec::with_capacity(levels.len());
        let mut below = total_bits;
        for l in &levels {
            below -= l.bits();
            shifts.push(below);
        }
        Self {
            name: name.into(),
            levels,
            shifts,
            total_bits,
        }
    }

    /// Number of hierarchy levels (excluding the implicit ALL root).
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total bits of the leaf ordinal.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Bits occupied by level `level` (1-based).
    #[inline]
    pub fn level_bits(&self, level: usize) -> u32 {
        self.levels[level - 1].bits()
    }

    /// Number of ordinal bits *below* level `level` (1-based); the subtree of
    /// a path ending at `level` spans `2^remaining_bits(level)` ordinals.
    /// `remaining_bits(0)` is the whole dimension.
    #[inline]
    pub fn remaining_bits(&self, level: usize) -> u32 {
        if level == 0 {
            self.total_bits
        } else {
            self.shifts[level - 1]
        }
    }

    /// Exclusive upper bound of the ordinal space (`2^total_bits`), saturated
    /// at `u64::MAX` for 64-bit dimensions.
    #[inline]
    pub fn ordinal_end(&self) -> u64 {
        if self.total_bits == 64 {
            u64::MAX
        } else {
            1u64 << self.total_bits
        }
    }

    /// Compose a full path (one component per level) into a leaf ordinal.
    pub fn ordinal(&self, components: &[u64]) -> u64 {
        assert_eq!(components.len(), self.depth(), "path must reach leaf level");
        let mut ord = 0u64;
        for (i, (&c, l)) in components.iter().zip(&self.levels).enumerate() {
            assert!(
                c < l.fanout,
                "component {c} exceeds fanout {} at level {}",
                l.fanout,
                i + 1
            );
            ord |= c << self.shifts[i];
        }
        ord
    }

    /// Decompose a leaf ordinal into its per-level components.
    pub fn components(&self, ordinal: u64) -> Vec<u64> {
        self.levels
            .iter()
            .enumerate()
            .map(|(i, l)| (ordinal >> self.shifts[i]) & mask(l.bits()))
            .collect()
    }

    /// Inclusive ordinal range `[lo, hi]` of the hierarchy node reached by
    /// the path prefix `components` (may be shorter than `depth()`; empty
    /// means the ALL root).
    pub fn prefix_range(&self, components: &[u64]) -> (u64, u64) {
        assert!(
            components.len() <= self.depth(),
            "path deeper than hierarchy"
        );
        let mut prefix = 0u64;
        for (i, (&c, l)) in components.iter().zip(&self.levels).enumerate() {
            assert!(
                c < l.fanout,
                "component {c} exceeds fanout {} at level {}",
                l.fanout,
                i + 1
            );
            prefix |= c << self.shifts[i];
        }
        let rem = self.remaining_bits(components.len());
        let span = mask(rem);
        (prefix, prefix | span)
    }
}

#[inline]
fn mask(bits: u32) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A full hierarchy schema: the ordered list of dimensions plus derived
/// layout tables. Cheaply cloneable (`Arc` inside); every tree, shard and
/// server shares one.
#[derive(Debug, Clone)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug)]
struct SchemaInner {
    dims: Vec<DimensionDef>,
    /// Maximum level bit width across dimensions, per (1-based) level; used
    /// by the Figure-3 expansion.
    max_level_bits: Vec<u32>,
    /// Per-dimension MDS entry cap (see [`crate::Mds`]).
    mds_cap: usize,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.dims == other.inner.dims
    }
}
impl Eq for Schema {}

impl Schema {
    /// Build a schema from dimensions. `mds_cap` is the maximum number of
    /// describing boxes an [`crate::Mds`] keeps per dimension before
    /// coarsening (the DC-tree's compaction rule); 4 is a good default.
    pub fn new(dims: Vec<DimensionDef>, mds_cap: usize) -> Self {
        assert!(!dims.is_empty(), "schema must have at least one dimension");
        assert!(dims.len() <= 64, "schema supports at most 64 dimensions");
        assert!(mds_cap >= 1, "MDS cap must be at least 1");
        let max_depth = dims.iter().map(DimensionDef::depth).max().unwrap();
        let max_level_bits = (1..=max_depth)
            .map(|l| {
                dims.iter()
                    .filter(|d| d.depth() >= l)
                    .map(|d| d.level_bits(l))
                    .max()
                    .unwrap()
            })
            .collect();
        Self {
            inner: Arc::new(SchemaInner {
                dims,
                max_level_bits,
                mds_cap,
            }),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.inner.dims.len()
    }

    /// The dimension definitions.
    #[inline]
    pub fn dimensions(&self) -> &[DimensionDef] {
        &self.inner.dims
    }

    /// Dimension `d` (0-based).
    #[inline]
    pub fn dim(&self, d: usize) -> &DimensionDef {
        &self.inner.dims[d]
    }

    /// Maximum bit width of (1-based) `level` across all dimensions that
    /// reach it.
    #[inline]
    pub fn max_level_bits(&self, level: usize) -> u32 {
        self.inner.max_level_bits[level - 1]
    }

    /// Deepest hierarchy across dimensions.
    #[inline]
    pub fn max_depth(&self) -> usize {
        self.inner.max_level_bits.len()
    }

    /// MDS per-dimension entry cap.
    #[inline]
    pub fn mds_cap(&self) -> usize {
        self.inner.mds_cap
    }

    /// Natural logarithm of the total ordinal-space volume; used to
    /// normalize box volumes so they stay in `[0, 1]` even at 64 dimensions.
    pub fn log_domain_volume(&self) -> f64 {
        self.inner
            .dims
            .iter()
            .map(|d| d.total_bits() as f64 * std::f64::consts::LN_2)
            .sum()
    }

    /// The TPC-DS schema of the paper's Figure 1: 8 hierarchical dimensions.
    ///
    /// Fanouts are modelled after the TPC-DS specification's domain sizes
    /// (e.g. 12 months, 31 days, 20 income bands); exact store/city counts
    /// are scale-factor dependent in TPC-DS, so representative values are
    /// used. What the experiments depend on is the hierarchy *shape*.
    pub fn tpcds() -> Self {
        let dims = vec![
            DimensionDef::new(
                "Store",
                vec![
                    LevelDef::new("Country", 16),
                    LevelDef::new("State", 32),
                    LevelDef::new("City", 64),
                ],
            ),
            DimensionDef::new(
                "Customer",
                vec![
                    LevelDef::new("BYear", 64),
                    LevelDef::new("BMonth", 12),
                    LevelDef::new("BDay", 31),
                ],
            ),
            DimensionDef::new(
                "Item",
                vec![
                    LevelDef::new("Category", 16),
                    LevelDef::new("Class", 16),
                    LevelDef::new("Brand", 32),
                ],
            ),
            DimensionDef::new(
                "Date",
                vec![
                    LevelDef::new("Year", 16),
                    LevelDef::new("Month", 12),
                    LevelDef::new("Day", 31),
                ],
            ),
            DimensionDef::new(
                "Address",
                vec![
                    LevelDef::new("Country", 16),
                    LevelDef::new("State", 32),
                    LevelDef::new("City", 64),
                ],
            ),
            DimensionDef::new("Household", vec![LevelDef::new("IncomeBand", 20)]),
            DimensionDef::new("Promotion", vec![LevelDef::new("Name", 256)]),
            DimensionDef::new(
                "Time",
                vec![LevelDef::new("Hour", 24), LevelDef::new("Minute", 60)],
            ),
        ];
        Self::new(dims, 4)
    }

    /// A uniform synthetic schema: `d` dimensions, each with `depth` levels
    /// of the given `fanout`. Used by the paper's dimension-scaling
    /// experiment (Figure 5, d = 4…64).
    pub fn uniform(d: usize, depth: usize, fanout: u64) -> Self {
        let dims = (0..d)
            .map(|i| {
                DimensionDef::new(
                    format!("Dim{i}"),
                    (1..=depth)
                        .map(|l| LevelDef::new(format!("L{l}"), fanout))
                        .collect(),
                )
            })
            .collect();
        Self::new(dims, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_bits_are_ceil_log2() {
        assert_eq!(LevelDef::new("x", 2).bits(), 1);
        assert_eq!(LevelDef::new("x", 3).bits(), 2);
        assert_eq!(LevelDef::new("x", 12).bits(), 4);
        assert_eq!(LevelDef::new("x", 16).bits(), 4);
        assert_eq!(LevelDef::new("x", 17).bits(), 5);
        assert_eq!(LevelDef::new("x", 31).bits(), 5);
        assert_eq!(LevelDef::new("x", 256).bits(), 8);
    }

    #[test]
    fn ordinal_roundtrip() {
        let dim = DimensionDef::new(
            "Date",
            vec![
                LevelDef::new("Year", 16),
                LevelDef::new("Month", 12),
                LevelDef::new("Day", 31),
            ],
        );
        assert_eq!(dim.total_bits(), 4 + 4 + 5);
        let ord = dim.ordinal(&[5, 11, 30]);
        assert_eq!(dim.components(ord), vec![5, 11, 30]);
        // Year occupies the top 4 bits.
        assert_eq!(ord >> 9, 5);
    }

    #[test]
    fn prefix_ranges_nest() {
        let dim = DimensionDef::new(
            "Date",
            vec![
                LevelDef::new("Year", 16),
                LevelDef::new("Month", 12),
                LevelDef::new("Day", 31),
            ],
        );
        let (alo, ahi) = dim.prefix_range(&[]);
        let (ylo, yhi) = dim.prefix_range(&[7]);
        let (mlo, mhi) = dim.prefix_range(&[7, 3]);
        let (dlo, dhi) = dim.prefix_range(&[7, 3, 14]);
        assert_eq!((alo, ahi), (0, (1 << 13) - 1));
        assert!(alo <= ylo && yhi <= ahi);
        assert!(ylo <= mlo && mhi <= yhi);
        assert!(mlo <= dlo && dhi <= mhi);
        assert_eq!(dlo, dhi, "leaf-level prefix is a single ordinal");
        assert_eq!(dlo, dim.ordinal(&[7, 3, 14]));
    }

    #[test]
    fn sibling_prefixes_are_disjoint_and_ordered() {
        let dim = DimensionDef::new("D", vec![LevelDef::new("A", 4), LevelDef::new("B", 8)]);
        let mut last_hi = None;
        for a in 0..4u64 {
            let (lo, hi) = dim.prefix_range(&[a]);
            if let Some(prev) = last_hi {
                assert!(lo > prev, "sibling ranges must be disjoint and increasing");
            }
            last_hi = Some(hi);
        }
    }

    #[test]
    fn tpcds_shape_matches_figure_1() {
        let s = Schema::tpcds();
        assert_eq!(s.dims(), 8);
        let names: Vec<_> = s.dimensions().iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Store",
                "Customer",
                "Item",
                "Date",
                "Address",
                "Household",
                "Promotion",
                "Time"
            ]
        );
        assert_eq!(s.dim(5).depth(), 1); // Household → IncomeBand
        assert_eq!(s.dim(7).depth(), 2); // Time → Hour → Minute
        assert_eq!(s.max_depth(), 3);
        // Figure-3 expansion inputs: max width of level 1 across dims.
        assert_eq!(s.max_level_bits(1), 8); // Promotion Name (256)
        assert_eq!(s.max_level_bits(2), 6); // Time Minute (60)
        assert_eq!(s.max_level_bits(3), 6); // City (64)
    }

    #[test]
    fn uniform_schema_dimensions() {
        let s = Schema::uniform(64, 2, 16);
        assert_eq!(s.dims(), 64);
        assert!(s.dimensions().iter().all(|d| d.total_bits() == 8));
    }

    #[test]
    #[should_panic(expected = "exceeds fanout")]
    fn ordinal_rejects_out_of_fanout() {
        let dim = DimensionDef::new("D", vec![LevelDef::new("A", 12)]);
        dim.ordinal(&[12]);
    }

    #[test]
    fn schema_equality_is_structural() {
        assert_eq!(Schema::tpcds(), Schema::tpcds());
        assert_ne!(Schema::tpcds(), Schema::uniform(8, 3, 16));
    }
}
