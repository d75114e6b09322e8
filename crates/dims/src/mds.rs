//! Minimum Describing Subsets: the DC/PDC-tree key.

use crate::item::Item;
use crate::key::{range_lists_overlap, Key};
use crate::mbr::Mbr;
use crate::query::QueryBox;
use crate::schema::Schema;

/// A Minimum Describing Subset key (Ester et al., "The DC-tree", ICDE 2000).
///
/// Where an [`Mbr`] describes a node's contents with one interval per
/// dimension, an MDS keeps up to [`Schema::mds_cap`] *hierarchy-aligned*
/// boxes per dimension — each corresponding to a node of the dimension
/// hierarchy. Clustered data that an MBR would smear into one huge interval
/// stays described by a few tight subtrees, so queries can both skip nodes
/// (no overlap) and consume cached aggregates (full coverage) far more often.
/// When a dimension accumulates more than the cap, the two entries with the
/// smallest common hierarchy ancestor are coarsened into that ancestor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mds {
    /// Per dimension: sorted, disjoint, hierarchy-aligned inclusive ranges.
    dims: Box<[Vec<(u64, u64)>]>,
}

impl Mds {
    /// The per-dimension describing ranges (sorted, disjoint).
    #[inline]
    pub fn dim_ranges(&self, d: usize) -> &[(u64, u64)] {
        &self.dims[d]
    }

    /// Total entries across dimensions (space accounting).
    pub fn entry_count(&self) -> usize {
        self.dims.iter().map(Vec::len).sum()
    }

    /// The smallest hierarchy-aligned block of dimension `d` that contains
    /// both ordinals, returned as `(lo, hi)`.
    fn lca_block(schema: &Schema, d: usize, a: u64, b: u64) -> (u64, u64) {
        let dim = schema.dim(d);
        let diff = a ^ b;
        let needed = 64 - diff.leading_zeros(); // 0 when a == b
                                                // Deepest level whose subtree span covers `needed` bits.
        let mut level = dim.depth();
        while dim.remaining_bits(level) < needed {
            level -= 1; // remaining_bits(0) == total_bits >= needed always
        }
        let rem = dim.remaining_bits(level);
        if rem == 64 {
            return (0, u64::MAX);
        }
        let lo = (a >> rem) << rem;
        (lo, lo | ((1u64 << rem) - 1))
    }

    /// Insert an aligned range into dimension `d`, merging overlaps, then
    /// coarsen until the cap holds.
    fn insert_range(&mut self, schema: &Schema, d: usize, lo: u64, hi: u64) -> bool {
        let list = &mut self.dims[d];
        // Already covered?
        let pos = list.partition_point(|&(_, rhi)| rhi < lo);
        if let Some(&(rlo, rhi)) = list.get(pos) {
            if rlo <= lo && hi <= rhi {
                return false;
            }
        }
        // Insert, then sweep-merge anything that overlaps or is adjacent
        // within an aligned block (we only merge true overlaps here; aligned
        // blocks only collide by nesting, so overlap implies containment).
        list.insert(pos, (lo, hi));
        let mut i = pos;
        // The inserted range may swallow followers (when it is an ancestor
        // block) or be swallowed — handled above. Merge contained followers.
        while i + 1 < list.len() && list[i + 1].0 <= list[i].1 {
            let next = list.remove(i + 1);
            list[i].1 = list[i].1.max(next.1);
        }
        // A previous entry may contain the inserted one.
        if i > 0 && list[i - 1].1 >= list[i].0 {
            let cur = list.remove(i);
            list[i - 1].1 = list[i - 1].1.max(cur.1);
            i -= 1;
        }
        let _ = i;
        // Coarsen to cap: repeatedly fuse the adjacent pair with the
        // smallest common ancestor block.
        while list.len() > schema.mds_cap() {
            let mut best = 0usize;
            let mut best_span = u128::MAX;
            for k in 0..list.len() - 1 {
                let (blo, bhi) = Self::lca_block(schema, d, list[k].0, list[k + 1].1);
                let span = bhi as u128 - blo as u128;
                if span < best_span {
                    best_span = span;
                    best = k;
                }
            }
            let (blo, bhi) = Self::lca_block(schema, d, list[best].0, list[best + 1].1);
            list[best] = (blo, bhi);
            list.remove(best + 1);
            // The fused block may now contain neighbours on either side.
            while best + 1 < list.len() && list[best + 1].0 <= list[best].1 {
                let next = list.remove(best + 1);
                list[best].1 = list[best].1.max(next.1);
            }
            while best > 0 && list[best - 1].1 >= list[best].0 {
                let cur = list.remove(best);
                list[best - 1].1 = list[best - 1].1.max(cur.1);
                best -= 1;
            }
        }
        true
    }

    fn dim_covered_len(&self, d: usize) -> u128 {
        self.dims[d]
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as u128)
            .sum()
    }
}

impl Key for Mds {
    fn empty(schema: &Schema) -> Self {
        Self {
            dims: vec![Vec::new(); schema.dims()].into_boxed_slice(),
        }
    }

    fn extend_item(&mut self, schema: &Schema, item: &Item) -> bool {
        let mut changed = false;
        for (d, &c) in item.coords.iter().enumerate() {
            changed |= self.insert_range(schema, d, c, c);
        }
        changed
    }

    fn extend_key(&mut self, schema: &Schema, other: &Self) {
        for d in 0..self.dims.len() {
            for &(lo, hi) in other.dims[d].iter() {
                self.insert_range(schema, d, lo, hi);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.dims.iter().all(Vec::is_empty)
    }

    fn overlaps_query(&self, q: &QueryBox) -> bool {
        if self.is_empty() {
            return false;
        }
        self.dims
            .iter()
            .zip(q.ranges.iter())
            .all(|(list, &(qlo, qhi))| {
                let pos = list.partition_point(|&(_, rhi)| rhi < qlo);
                list.get(pos).is_some_and(|&(rlo, _)| rlo <= qhi)
            })
    }

    fn covered_by_query(&self, q: &QueryBox) -> bool {
        self.dims
            .iter()
            .zip(q.ranges.iter())
            .all(|(list, &(qlo, qhi))| list.iter().all(|&(rlo, rhi)| qlo <= rlo && rhi <= qhi))
    }

    fn contains_item(&self, item: &Item) -> bool {
        if self.is_empty() {
            return false;
        }
        self.dims.iter().zip(item.coords.iter()).all(|(list, &c)| {
            let pos = list.partition_point(|&(_, rhi)| rhi < c);
            list.get(pos).is_some_and(|&(rlo, _)| rlo <= c)
        })
    }

    fn volume_frac(&self, schema: &Schema) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..self.dims.len())
            .map(|d| self.dim_covered_len(d) as f64 / schema.dim(d).ordinal_end() as f64)
            .product()
    }

    fn overlap_frac(&self, schema: &Schema, other: &Self) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let mut frac = 1.0;
        for d in 0..self.dims.len() {
            let inter = range_lists_overlap(&self.dims[d], &other.dims[d]);
            if inter == 0 {
                return 0.0;
            }
            frac *= inter as f64 / schema.dim(d).ordinal_end() as f64;
        }
        frac
    }

    fn to_mbr(&self, schema: &Schema) -> Mbr {
        if self.is_empty() {
            return Mbr::empty_with_dims(schema.dims());
        }
        Mbr::from_ranges(
            self.dims
                .iter()
                .map(|list| (list.first().unwrap().0, list.last().unwrap().1))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One dimension, 3 levels of fanout 4 (6 bits), cap 2 — small enough to
    /// reason about by hand.
    fn schema() -> Schema {
        Schema::new(
            vec![crate::schema::DimensionDef::new(
                "D",
                vec![
                    crate::schema::LevelDef::new("A", 4),
                    crate::schema::LevelDef::new("B", 4),
                    crate::schema::LevelDef::new("C", 4),
                ],
            )],
            2,
        )
    }

    fn item(c: u64) -> Item {
        Item::new(vec![c], 1.0)
    }

    #[test]
    fn keeps_separate_clusters_separate() {
        let s = schema();
        let mut m = Mds::empty(&s);
        m.extend_item(&s, &item(0));
        m.extend_item(&s, &item(1));
        // Two leaves; cap is 2, so both stay exact.
        assert_eq!(m.dim_ranges(0), &[(0, 0), (1, 1)]);
        assert!(m.contains_item(&item(0)));
        assert!(!m.contains_item(&item(2)));
    }

    #[test]
    fn coarsens_to_hierarchy_ancestors() {
        let s = schema();
        let mut m = Mds::empty(&s);
        // Ordinals 0 and 3 share the level-2 block [0,3]; ordinal 60 is far
        // away. With cap 2, inserting all three must fuse {0,3} -> [0,3].
        m.extend_item(&s, &item(0));
        m.extend_item(&s, &item(60));
        m.extend_item(&s, &item(3));
        assert_eq!(m.dim_ranges(0), &[(0, 3), (60, 60)]);
        // The MBR hull would be [0,60]; MDS keeps the hole.
        assert!(!m.contains_item(&item(30)));
    }

    #[test]
    fn coarsening_is_hierarchy_aligned() {
        let s = schema();
        let mut m = Mds::empty(&s);
        // 15 and 16 are adjacent ordinals but sit in different level-1
        // subtrees ([0,15] vs [16,31]): their LCA is the root.
        m.extend_item(&s, &item(15));
        m.extend_item(&s, &item(16));
        m.extend_item(&s, &item(40));
        let ranges = m.dim_ranges(0);
        assert!(ranges.len() <= 2);
        for &(lo, hi) in ranges {
            let len = hi - lo + 1;
            assert!(
                len.is_power_of_two(),
                "aligned blocks have power-of-two size"
            );
            assert_eq!(
                lo % len,
                0,
                "aligned blocks start at a multiple of their size"
            );
        }
    }

    #[test]
    fn mds_tighter_than_mbr_for_queries() {
        let s = schema();
        let mut mds = Mds::empty(&s);
        let mut mbr = Mbr::empty(&s);
        for c in [0u64, 1, 62, 63] {
            mds.extend_item(&s, &item(c));
            mbr.extend_item(&s, &item(c));
        }
        let q = QueryBox::from_ranges(vec![(20, 40)]);
        assert!(mbr.overlaps_query(&q), "MBR smears across the hole");
        assert!(!mds.overlaps_query(&q), "MDS keeps the hole");
        // Full coverage by a pair of subtree queries.
        let q2 = QueryBox::from_ranges(vec![(0, 63)]);
        assert!(mds.covered_by_query(&q2));
    }

    #[test]
    fn volume_sums_disjoint_ranges() {
        let s = schema();
        let mut m = Mds::empty(&s);
        m.extend_item(&s, &item(0));
        m.extend_item(&s, &item(63));
        assert!((m.volume_frac(&s) - 2.0 / 64.0).abs() < 1e-12);
        let mut n = Mds::empty(&s);
        n.extend_item(&s, &item(0));
        assert!((m.overlap_frac(&s, &n) - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn extend_key_unions() {
        let s = schema();
        let mut a = Mds::empty(&s);
        a.extend_item(&s, &item(5));
        let mut b = Mds::empty(&s);
        b.extend_item(&s, &item(6));
        a.extend_key(&s, &b);
        assert!(a.contains_item(&item(5)));
        assert!(a.contains_item(&item(6)));
    }

    #[test]
    fn to_mbr_is_hull() {
        let s = schema();
        let mut m = Mds::empty(&s);
        m.extend_item(&s, &item(3));
        m.extend_item(&s, &item(50));
        assert_eq!(m.to_mbr(&s).ranges().unwrap(), &[(3, 50)]);
    }

    #[test]
    fn duplicate_inserts_do_not_change() {
        let s = schema();
        let mut m = Mds::empty(&s);
        assert!(m.extend_item(&s, &item(9)));
        assert!(!m.extend_item(&s, &item(9)));
    }

    #[test]
    fn multidim_query_semantics() {
        let s = Schema::uniform(2, 2, 4);
        let mut m = Mds::empty(&s);
        m.extend_item(&s, &Item::new(vec![0, 0], 1.0));
        m.extend_item(&s, &Item::new(vec![15, 15], 1.0));
        // Marginal semantics: the cross product (0,15) x (15,0) is also
        // described, as in the DC-tree. A query touching dim0=0, dim1=15
        // therefore overlaps.
        let q = QueryBox::from_ranges(vec![(0, 0), (15, 15)]);
        assert!(m.overlaps_query(&q));
        // But a query inside the hole in dim0 does not.
        let q2 = QueryBox::from_ranges(vec![(5, 9), (0, 15)]);
        assert!(!m.overlaps_query(&q2));
    }
}
