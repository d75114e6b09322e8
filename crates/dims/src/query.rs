//! Aggregate query regions.

use crate::item::Item;
use crate::path::DimPath;
use crate::schema::Schema;

/// An aggregate query: one inclusive leaf-ordinal range per dimension.
///
/// VOLAP queries "specify values at various levels in all dimensions"
/// (paper §IV): naming a hierarchy prefix in a dimension selects that
/// prefix's whole subtree, i.e. a contiguous ordinal range; naming the ALL
/// root selects the full dimension. A query box is the conjunction of one
/// such range per dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBox {
    /// Inclusive `[lo, hi]` per dimension.
    pub ranges: Box<[(u64, u64)]>,
}

impl QueryBox {
    /// The query that covers the whole database.
    pub fn all(schema: &Schema) -> Self {
        let ranges = (0..schema.dims())
            .map(|d| (0, schema.dim(d).ordinal_end() - 1))
            .collect::<Vec<_>>();
        Self {
            ranges: ranges.into_boxed_slice(),
        }
    }

    /// Build a query from one hierarchy path per dimension (in schema
    /// order). Root paths select everything in their dimension.
    ///
    /// # Panics
    ///
    /// Panics if the number of paths differs from the schema's dimensions or
    /// a path's `dim` is out of order.
    pub fn from_paths(schema: &Schema, paths: &[DimPath]) -> Self {
        assert_eq!(
            paths.len(),
            schema.dims(),
            "one path per dimension required"
        );
        let ranges = paths
            .iter()
            .enumerate()
            .map(|(d, p)| {
                assert_eq!(p.dim, d, "paths must be in schema dimension order");
                p.range(schema)
            })
            .collect::<Vec<_>>();
        Self {
            ranges: ranges.into_boxed_slice(),
        }
    }

    /// Build directly from ranges (used by tests and deserialization).
    pub fn from_ranges(ranges: Vec<(u64, u64)>) -> Self {
        for &(lo, hi) in &ranges {
            assert!(lo <= hi, "query range must be non-empty");
        }
        Self {
            ranges: ranges.into_boxed_slice(),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.ranges.len()
    }

    /// Whether `item` falls inside the query region.
    #[inline]
    pub fn contains_item(&self, item: &Item) -> bool {
        debug_assert_eq!(item.coords.len(), self.ranges.len());
        item.coords
            .iter()
            .zip(self.ranges.iter())
            .all(|(&c, &(lo, hi))| lo <= c && c <= hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_every_item() {
        let s = Schema::tpcds();
        let q = QueryBox::all(&s);
        let item = Item::from_paths(
            &s,
            &[
                vec![15, 31, 63],
                vec![63, 11, 30],
                vec![15, 15, 31],
                vec![15, 11, 30],
                vec![15, 31, 63],
                vec![19],
                vec![255],
                vec![23, 59],
            ],
            1.0,
        );
        assert!(q.contains_item(&item));
    }

    #[test]
    fn path_query_selects_subtree() {
        let s = Schema::tpcds();
        let mut paths: Vec<DimPath> = (0..8).map(DimPath::root).collect();
        paths[3] = DimPath::new(3, vec![9]); // Date.Year = 9
        let q = QueryBox::from_paths(&s, &paths);

        let inside = Item::from_paths(
            &s,
            &[
                vec![0, 0, 0],
                vec![0, 0, 0],
                vec![0, 0, 0],
                vec![9, 3, 4],
                vec![0, 0, 0],
                vec![0],
                vec![0],
                vec![0, 0],
            ],
            1.0,
        );
        let outside = Item::from_paths(
            &s,
            &[
                vec![0, 0, 0],
                vec![0, 0, 0],
                vec![0, 0, 0],
                vec![8, 3, 4],
                vec![0, 0, 0],
                vec![0],
                vec![0],
                vec![0, 0],
            ],
            1.0,
        );
        assert!(q.contains_item(&inside));
        assert!(!q.contains_item(&outside));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_inverted_range() {
        QueryBox::from_ranges(vec![(5, 3)]);
    }
}
