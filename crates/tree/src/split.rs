//! Shard split planning: the `SplitQuery` / `Split` operations of §III-E.

use volap_dims::{Item, Schema};

/// A hyperplane partitioning a shard into two spatially separated halves.
///
/// `SplitQuery(D_i, B_i)` returns a plan such that the two sides are of
/// approximately equal size; `Split` then partitions the shard's items by
/// [`SplitPlan::side`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitPlan {
    /// The dimension the hyperplane is orthogonal to.
    pub dim: usize,
    /// Items with `coords[dim] <= threshold` go to the left half.
    pub threshold: u64,
}

impl SplitPlan {
    /// Which side of the hyperplane an item falls on (`false` = left).
    #[inline]
    pub fn side(&self, item: &Item) -> bool {
        item.coords[self.dim] > self.threshold
    }

    /// Plan a median split of a shard's rows, given as one coordinate
    /// column per dimension (`columns[d][i]` is row `i`'s coordinate along
    /// `d`): pick the dimension with the widest normalized spread and cut at
    /// its median coordinate, guaranteeing a non-degenerate split whenever
    /// one exists in any dimension.
    ///
    /// Returns `None` for fewer than 2 rows or when every row has the same
    /// coordinates in all dimensions (no hyperplane can separate them).
    pub fn plan_median(schema: &Schema, mut columns: Vec<Vec<u64>>) -> Option<Self> {
        debug_assert_eq!(columns.len(), schema.dims());
        if columns.first().map_or(0, Vec::len) < 2 {
            return None;
        }
        // Rank candidate dimensions by spread so we can fall back when the
        // median cut would be degenerate (all coordinates equal).
        let mut dims: Vec<(f64, usize)> = columns
            .iter()
            .enumerate()
            .map(|(d, col)| {
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                for &c in col {
                    lo = lo.min(c);
                    hi = hi.max(c);
                }
                let spread = hi.saturating_sub(lo) as f64 / schema.dim(d).ordinal_end() as f64;
                (spread, d)
            })
            .collect();
        dims.sort_by(|a, b| b.0.total_cmp(&a.0));
        for &(spread, d) in &dims {
            if spread == 0.0 {
                break;
            }
            let coords = &mut columns[d];
            let mid = coords.len() / 2;
            coords.sort_unstable();
            // Choose the largest threshold strictly below the maximum that
            // is close to the median, so both sides are non-empty.
            let mut t = coords[mid.saturating_sub(1)];
            let max = *coords.last().unwrap();
            if t == max {
                // Median equals max: step down to the largest value < max.
                match coords.iter().rev().find(|&&c| c < max) {
                    Some(&below) => t = below,
                    None => continue, // all equal in this dimension
                }
            }
            return Some(Self {
                dim: d,
                threshold: t,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::uniform(2, 2, 16)
    }

    fn item(a: u64, b: u64) -> Item {
        Item::new(vec![a, b], 1.0)
    }

    fn median(s: &Schema, items: &[Item]) -> Option<SplitPlan> {
        let columns = (0..s.dims())
            .map(|d| items.iter().map(|it| it.coords[d]).collect())
            .collect();
        SplitPlan::plan_median(s, columns)
    }

    #[test]
    fn median_split_balances() {
        let s = schema();
        let items: Vec<Item> = (0..100).map(|i| item(i % 256, 7)).collect();
        let plan = median(&s, &items).unwrap();
        assert_eq!(plan.dim, 0, "dimension 0 has all the spread");
        let right = items.iter().filter(|it| plan.side(it)).count();
        let left = items.len() - right;
        assert!(left > 0 && right > 0);
        assert!((left as i64 - right as i64).abs() <= items.len() as i64 / 4);
    }

    #[test]
    fn skewed_duplicates_still_split() {
        let s = schema();
        // 90 duplicates at the max plus a few below the median.
        let mut items: Vec<Item> = (0..90).map(|_| item(200, 0)).collect();
        items.extend((0..10).map(|i| item(i, 0)));
        let plan = median(&s, &items).unwrap();
        let right = items.iter().filter(|it| plan.side(it)).count();
        assert!(right > 0 && right < items.len());
    }

    #[test]
    fn identical_items_cannot_split() {
        let s = schema();
        let items: Vec<Item> = (0..10).map(|_| item(5, 5)).collect();
        assert!(median(&s, &items).is_none());
        assert!(median(&s, &items[..1]).is_none());
    }

    #[test]
    fn picks_widest_dimension() {
        let s = schema();
        let items: Vec<Item> = (0..50).map(|i| item(i % 4, (i * 5) % 256)).collect();
        let plan = median(&s, &items).unwrap();
        assert_eq!(plan.dim, 1);
    }
}
