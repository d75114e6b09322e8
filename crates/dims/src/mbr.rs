//! Minimum Bounding Rectangles over hierarchical leaf ordinals.

use crate::item::Item;
use crate::key::Key;
use crate::query::QueryBox;
use crate::schema::Schema;

/// A minimum bounding rectangle: one inclusive `[lo, hi]` interval per
/// dimension, or the distinguished empty box.
///
/// This is the R-tree key of the paper's tree family and the wire format of
/// shard bounding boxes in the global system image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mbr {
    /// Inclusive per-dimension intervals; `None` when the box is empty.
    ranges: Option<Box<[(u64, u64)]>>,
    dims: usize,
}

impl Mbr {
    /// The empty box for a `dims`-dimensional space.
    pub fn empty_with_dims(dims: usize) -> Self {
        Self { ranges: None, dims }
    }

    /// Build from explicit ranges.
    ///
    /// # Panics
    ///
    /// Panics if any range is inverted.
    pub fn from_ranges(ranges: Vec<(u64, u64)>) -> Self {
        for &(lo, hi) in &ranges {
            assert!(lo <= hi, "MBR range must be non-empty");
        }
        let dims = ranges.len();
        Self {
            ranges: Some(ranges.into_boxed_slice()),
            dims,
        }
    }

    /// The per-dimension intervals (`None` when empty).
    #[inline]
    pub fn ranges(&self) -> Option<&[(u64, u64)]> {
        self.ranges.as_deref()
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Whether this box intersects `other`.
    pub fn overlaps(&self, other: &Mbr) -> bool {
        match (&self.ranges, &other.ranges) {
            (Some(a), Some(b)) => a
                .iter()
                .zip(b.iter())
                .all(|(&(alo, ahi), &(blo, bhi))| alo <= bhi && blo <= ahi),
            _ => false,
        }
    }

    /// Grow to cover `other`.
    pub fn extend_mbr(&mut self, other: &Mbr) {
        let Some(b) = &other.ranges else { return };
        match &mut self.ranges {
            None => self.ranges = Some(b.clone()),
            Some(a) => {
                for (ra, &(blo, bhi)) in a.iter_mut().zip(b.iter()) {
                    ra.0 = ra.0.min(blo);
                    ra.1 = ra.1.max(bhi);
                }
            }
        }
    }
}

impl Key for Mbr {
    fn empty(schema: &Schema) -> Self {
        Self::empty_with_dims(schema.dims())
    }

    fn extend_item(&mut self, _schema: &Schema, item: &Item) -> bool {
        match &mut self.ranges {
            None => {
                self.ranges = Some(item.coords.iter().map(|&c| (c, c)).collect());
                true
            }
            Some(r) => {
                let mut changed = false;
                for (range, &c) in r.iter_mut().zip(item.coords.iter()) {
                    if c < range.0 {
                        range.0 = c;
                        changed = true;
                    }
                    if c > range.1 {
                        range.1 = c;
                        changed = true;
                    }
                }
                changed
            }
        }
    }

    fn extend_key(&mut self, _schema: &Schema, other: &Self) {
        self.extend_mbr(other);
    }

    fn is_empty(&self) -> bool {
        self.ranges.is_none()
    }

    fn overlaps_query(&self, q: &QueryBox) -> bool {
        match &self.ranges {
            None => false,
            Some(r) => r
                .iter()
                .zip(q.ranges.iter())
                .all(|(&(alo, ahi), &(qlo, qhi))| alo <= qhi && qlo <= ahi),
        }
    }

    fn covered_by_query(&self, q: &QueryBox) -> bool {
        match &self.ranges {
            None => true,
            Some(r) => r
                .iter()
                .zip(q.ranges.iter())
                .all(|(&(alo, ahi), &(qlo, qhi))| qlo <= alo && ahi <= qhi),
        }
    }

    fn contains_item(&self, item: &Item) -> bool {
        match &self.ranges {
            None => false,
            Some(r) => r
                .iter()
                .zip(item.coords.iter())
                .all(|(&(lo, hi), &c)| lo <= c && c <= hi),
        }
    }

    fn volume_frac(&self, schema: &Schema) -> f64 {
        match &self.ranges {
            None => 0.0,
            Some(r) => r
                .iter()
                .enumerate()
                .map(|(d, &(lo, hi))| (hi - lo + 1) as f64 / schema.dim(d).ordinal_end() as f64)
                .product(),
        }
    }

    fn overlap_frac(&self, schema: &Schema, other: &Self) -> f64 {
        match (&self.ranges, &other.ranges) {
            (Some(a), Some(b)) => {
                let mut frac = 1.0;
                for (d, (&(alo, ahi), &(blo, bhi))) in a.iter().zip(b.iter()).enumerate() {
                    let lo = alo.max(blo);
                    let hi = ahi.min(bhi);
                    if lo > hi {
                        return 0.0;
                    }
                    frac *= (hi - lo + 1) as f64 / schema.dim(d).ordinal_end() as f64;
                }
                frac
            }
            _ => 0.0,
        }
    }

    fn to_mbr(&self, _schema: &Schema) -> Mbr {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::uniform(2, 2, 4) // 2 dims x 4 bits
    }

    fn item(s: &Schema, a: u64, b: u64) -> Item {
        let _ = s;
        Item::new(vec![a, b], 1.0)
    }

    #[test]
    fn grows_to_cover_items() {
        let s = schema();
        let mut m = Mbr::empty(&s);
        assert!(m.is_empty());
        assert!(m.extend_item(&s, &item(&s, 3, 7)));
        assert!(m.extend_item(&s, &item(&s, 9, 2)));
        assert!(
            !m.extend_item(&s, &item(&s, 5, 5)),
            "interior point changes nothing"
        );
        assert_eq!(m.ranges().unwrap(), &[(3, 9), (2, 7)]);
        assert!(m.contains_item(&item(&s, 4, 4)));
        assert!(!m.contains_item(&item(&s, 2, 4)));
    }

    #[test]
    fn query_relations() {
        let s = schema();
        let mut m = Mbr::empty(&s);
        m.extend_item(&s, &item(&s, 4, 4));
        m.extend_item(&s, &item(&s, 6, 6));
        let covering = QueryBox::from_ranges(vec![(0, 15), (4, 6)]);
        let touching = QueryBox::from_ranges(vec![(6, 9), (0, 15)]);
        let disjoint = QueryBox::from_ranges(vec![(7, 9), (0, 15)]);
        assert!(m.covered_by_query(&covering));
        assert!(m.overlaps_query(&covering));
        assert!(m.overlaps_query(&touching));
        assert!(!m.covered_by_query(&touching));
        assert!(!m.overlaps_query(&disjoint));
    }

    #[test]
    fn volumes_are_normalized() {
        let s = schema();
        let mut m = Mbr::empty(&s);
        assert_eq!(m.volume_frac(&s), 0.0);
        m.extend_item(&s, &item(&s, 0, 0));
        m.extend_item(&s, &item(&s, 7, 15));
        // (8/16) * (16/16) = 0.5
        assert!((m.volume_frac(&s) - 0.5).abs() < 1e-12);
        let mut n = Mbr::empty(&s);
        n.extend_item(&s, &item(&s, 4, 8));
        n.extend_item(&s, &item(&s, 15, 15));
        // overlap dim0: [4,7] = 4/16; dim1: [8,15] = 8/16.
        assert!((m.overlap_frac(&s, &n) - (4.0 / 16.0) * (8.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn enlargement_reflects_growth() {
        let s = schema();
        let mut m = Mbr::empty(&s);
        m.extend_item(&s, &item(&s, 4, 4));
        let inside = m.enlargement_frac(&s, &item(&s, 4, 4));
        let outside = m.enlargement_frac(&s, &item(&s, 8, 4));
        assert_eq!(inside, 0.0);
        assert!(outside > 0.0);
    }

    #[test]
    fn empty_relations() {
        let s = schema();
        let e = Mbr::empty(&s);
        let q = QueryBox::all(&s);
        assert!(!e.overlaps_query(&q));
        assert!(e.covered_by_query(&q), "vacuously covered");
        assert_eq!(e.overlap_frac(&s, &e), 0.0);
        assert!(!e.overlaps(&e));
    }
}
