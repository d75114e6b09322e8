//! Data items: hierarchical points with a measure.

use crate::path::DimPath;
use crate::schema::Schema;

/// One fact-table row: a leaf-level hierarchical coordinate in every
/// dimension plus a numeric measure (e.g. sales price).
///
/// Coordinates are stored as per-dimension *leaf ordinals* (the bit-packed
/// path; see [`Schema`]) so that geometry and Hilbert mapping are integer
/// operations. The original per-level components are recoverable through the
/// schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Leaf ordinal in each dimension (`coords.len() == schema.dims()`).
    pub coords: Box<[u64]>,
    /// The measure being aggregated.
    pub measure: f64,
}

impl Item {
    /// Create an item from per-dimension leaf ordinals.
    pub fn new(coords: Vec<u64>, measure: f64) -> Self {
        Self {
            coords: coords.into_boxed_slice(),
            measure,
        }
    }

    /// Create an item from full per-dimension paths (component lists).
    ///
    /// # Panics
    ///
    /// Panics if the number of paths differs from the schema's dimension
    /// count or any path is not at leaf level.
    pub fn from_paths(schema: &Schema, paths: &[Vec<u64>], measure: f64) -> Self {
        assert_eq!(
            paths.len(),
            schema.dims(),
            "one path per dimension required"
        );
        let coords = paths
            .iter()
            .enumerate()
            .map(|(d, p)| schema.dim(d).ordinal(p))
            .collect::<Vec<_>>();
        Self::new(coords, measure)
    }

    /// Check this item against `schema`: one coordinate per dimension, each
    /// in `[0, ordinal_end() - 1]`, the bounds [`crate::QueryBox::all`]
    /// covers. An item outside them would be stored, yet no query could
    /// count it.
    pub fn check(&self, schema: &Schema) -> Result<(), String> {
        if self.coords.len() != schema.dims() {
            return Err(format!(
                "item has {} coordinates, schema has {} dimensions",
                self.coords.len(),
                schema.dims()
            ));
        }
        for (d, &c) in self.coords.iter().enumerate() {
            let last = schema.dim(d).ordinal_end() - 1;
            if c > last {
                return Err(format!(
                    "coordinate {c} of dimension {d} is outside [0, {last}]"
                ));
            }
        }
        Ok(())
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.coords.len()
    }

    /// The full leaf path of this item in dimension `d`.
    pub fn path(&self, schema: &Schema, d: usize) -> DimPath {
        DimPath::leaf_of(schema, d, self.coords[d])
    }

    /// Validate that every coordinate decomposes into in-fanout components.
    pub fn validate(&self, schema: &Schema) -> bool {
        if self.coords.len() != schema.dims() {
            return false;
        }
        self.coords.iter().enumerate().all(|(d, &ord)| {
            let dim = schema.dim(d);
            dim.components(ord)
                .iter()
                .zip(&dim.levels)
                .all(|(&c, l)| c < l.fanout)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_paths_packs_ordinals() {
        let s = Schema::tpcds();
        let paths: Vec<Vec<u64>> = vec![
            vec![1, 2, 3],   // Store
            vec![40, 5, 20], // Customer
            vec![3, 7, 11],  // Item
            vec![9, 6, 20],  // Date
            vec![2, 8, 30],  // Address
            vec![13],        // Household
            vec![200],       // Promotion
            vec![17, 42],    // Time
        ];
        let item = Item::from_paths(&s, &paths, 19.99);
        assert_eq!(item.dims(), 8);
        assert!(item.validate(&s));
        for (d, path) in paths.iter().enumerate() {
            assert_eq!(&item.path(&s, d).components, path);
        }
    }

    #[test]
    fn validate_rejects_wrong_arity_and_fanout() {
        let s = Schema::tpcds();
        let short = Item::new(vec![0; 7], 1.0);
        assert!(!short.validate(&s));
        // Promotion has fanout 256 in 8 bits: every 8-bit value is valid, so
        // poison a dimension whose fanout is not a power of two (Household,
        // fanout 20 in 5 bits).
        let mut coords = vec![0u64; 8];
        coords[5] = 25; // >= 20
        assert!(!Item::new(coords, 1.0).validate(&s));
    }
}
