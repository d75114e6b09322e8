//! Aggregate values cached in tree nodes and returned by queries.

/// A distributive aggregate: count, sum, min and max of the measure.
///
/// Every directory node of a PDC-family tree caches the aggregate of its
/// whole subtree; a query whose box fully covers a node's key consumes the
/// cached value instead of descending (the paper's "coverage resilience").
/// All four components merge associatively, so partial results from shards
/// and workers combine in any order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of items.
    pub count: u64,
    /// Sum of measures.
    pub sum: f64,
    /// Minimum measure (`f64::INFINITY` when empty).
    pub min: f64,
    /// Maximum measure (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Default for Aggregate {
    fn default() -> Self {
        Self::empty()
    }
}

impl Aggregate {
    /// The identity element.
    #[inline]
    pub const fn empty() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Aggregate of a single measure.
    #[inline]
    pub fn of(measure: f64) -> Self {
        Self {
            count: 1,
            sum: measure,
            min: measure,
            max: measure,
        }
    }

    /// Whether any item has been folded in.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another aggregate in.
    #[inline]
    pub fn merge(&mut self, other: &Aggregate) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fold a single measure in.
    #[inline]
    pub fn add(&mut self, measure: f64) {
        self.count += 1;
        self.sum += measure;
        self.min = self.min.min(measure);
        self.max = self.max.max(measure);
    }

    /// Mean measure (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_identity() {
        let mut a = Aggregate::of(3.0);
        a.merge(&Aggregate::empty());
        assert_eq!(a, Aggregate::of(3.0));
        let mut e = Aggregate::empty();
        e.merge(&Aggregate::of(3.0));
        assert_eq!(e, Aggregate::of(3.0));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let items = [1.0, -2.5, 7.0, 0.0, 3.25];
        let mut left = Aggregate::empty();
        for m in items {
            left.add(m);
        }
        let mut right = Aggregate::empty();
        for m in items.iter().rev() {
            right.merge(&Aggregate::of(*m));
        }
        assert_eq!(left, right);
        assert_eq!(left.count, 5);
        assert_eq!(left.sum, 8.75);
        assert_eq!(left.min, -2.5);
        assert_eq!(left.max, 7.0);
        assert_eq!(left.mean(), Some(1.75));
    }

    #[test]
    fn empty_mean_is_none() {
        assert_eq!(Aggregate::empty().mean(), None);
        assert!(Aggregate::empty().is_empty());
    }
}
