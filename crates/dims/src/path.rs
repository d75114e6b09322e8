//! Hierarchical IDs: paths through a dimension hierarchy.

use crate::schema::Schema;

/// A hierarchical ID in one dimension: the path of child indices from the
/// (implicit) ALL root down to some level.
///
/// An empty path denotes the ALL root of the dimension; a path of length
/// `depth()` denotes a single leaf. Every path owns a contiguous inclusive
/// range of leaf ordinals (see [`DimPath::range`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DimPath {
    /// Dimension index within the schema.
    pub dim: usize,
    /// Child indices, coarsest level first.
    pub components: Vec<u64>,
}

impl DimPath {
    /// The ALL root of dimension `dim`.
    pub fn root(dim: usize) -> Self {
        Self {
            dim,
            components: Vec::new(),
        }
    }

    /// A path in dimension `dim` with the given components.
    pub fn new(dim: usize, components: Vec<u64>) -> Self {
        Self { dim, components }
    }

    /// The (1-based) level this path ends at; 0 for the root.
    #[inline]
    pub fn level(&self) -> usize {
        self.components.len()
    }

    /// Inclusive leaf-ordinal range `[lo, hi]` covered by this path.
    pub fn range(&self, schema: &Schema) -> (u64, u64) {
        schema.dim(self.dim).prefix_range(&self.components)
    }

    /// The path one level up (`None` at the root).
    pub fn parent(&self) -> Option<Self> {
        if self.components.is_empty() {
            None
        } else {
            let mut c = self.components.clone();
            c.pop();
            Some(Self {
                dim: self.dim,
                components: c,
            })
        }
    }

    /// The full leaf path that contains `ordinal`.
    pub fn leaf_of(schema: &Schema, dim: usize, ordinal: u64) -> Self {
        Self {
            dim,
            components: schema.dim(dim).components(ordinal),
        }
    }

    /// Whether `other`'s subtree is contained in (or equal to) this path's
    /// subtree. Both must be in the same dimension.
    pub fn contains(&self, schema: &Schema, other: &Self) -> bool {
        assert_eq!(self.dim, other.dim, "paths must share a dimension");
        let (alo, ahi) = self.range(schema);
        let (blo, bhi) = other.range(schema);
        alo <= blo && bhi <= ahi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::tpcds()
    }

    #[test]
    fn root_covers_everything() {
        let s = schema();
        let root = DimPath::root(3); // Date
        let (lo, hi) = root.range(&s);
        assert_eq!(lo, 0);
        assert_eq!(hi, s.dim(3).ordinal_end() - 1);
        assert_eq!(root.level(), 0);
        assert!(root.parent().is_none());
    }

    #[test]
    fn leaf_of_inverts_ordinal() {
        let s = schema();
        let ord = s.dim(3).ordinal(&[9, 6, 20]);
        let leaf = DimPath::leaf_of(&s, 3, ord);
        assert_eq!(leaf.components, vec![9, 6, 20]);
        assert_eq!(leaf.level(), s.dim(3).depth());
        let (lo, hi) = leaf.range(&s);
        assert_eq!((lo, hi), (ord, ord));
    }

    #[test]
    fn containment_follows_prefixes() {
        let s = schema();
        let year = DimPath::new(3, vec![9]);
        let month = DimPath::new(3, vec![9, 6]);
        let other_month = DimPath::new(3, vec![8, 6]);
        assert!(year.contains(&s, &month));
        assert!(!month.contains(&s, &year));
        assert!(!year.contains(&s, &other_month));
        assert!(DimPath::root(3).contains(&s, &year));
        assert!(year.contains(&s, &year));
    }

    #[test]
    fn parent_walks_up() {
        let p = DimPath::new(0, vec![1, 2, 3]);
        let q = p.parent().unwrap();
        assert_eq!(q.components, vec![1, 2]);
        assert_eq!(q.parent().unwrap().components, vec![1]);
        assert_eq!(q.parent().unwrap().parent().unwrap(), DimPath::root(0));
    }
}
