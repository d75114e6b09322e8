//! Property tests for the column range proof: leaves built through every
//! mutation path — `push_row`, bulk load (`pack`), Hilbert point
//! inserts into bulk-loaded leaves and through splits (`clone_range`),
//! `insert_batch` runs that splice into the middle of leaves, geometric
//! inserts — keep every column's stored range around its values, and
//! every leaf's `scan` equals a brute-force row
//! filter in count, sum, min and max on boxes that are disjoint from,
//! touching, nested in or unconstrained on each dimension of the leaf.
//! Hilbert trees also keep their keys, as `ConcurrentTree::check` verifies:
//! every row stores the mapper's key of its coordinates, leaves are sorted
//! by key, and every slot's LHV is the largest key beneath it.

use proptest::prelude::*;
use volap_dims::{Aggregate, Item, Key, Mbr, Mds, QueryBox, Schema};
use volap_tree::serial::bulk_load;
use volap_tree::{ConcurrentTree, InsertPolicy, LeafColumns, TreeConfig};

const DIMS: usize = 3;

fn schema() -> Schema {
    Schema::uniform(DIMS, 2, 4)
}

fn cfg() -> TreeConfig {
    // Leaves of 16 rows split often, and a 3-value dimension 0 makes many
    // leaves hold one value there, so `All` and `Never` proofs fire often.
    TreeConfig {
        leaf_cap: 16,
        dir_cap: 4,
        ..TreeConfig::default()
    }
}

fn items_strategy(n: usize) -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec((0u64..3, 0u64..16, 0u64..16, 0u32..100), 1..=n).prop_map(|raw| {
        raw.into_iter()
            .map(|(a, b, c, m)| Item::new(vec![a, b, c], m as f64))
            .collect()
    })
}

fn brute<'a>(rows: impl IntoIterator<Item = &'a Item>, q: &QueryBox) -> Aggregate {
    let mut a = Aggregate::empty();
    for it in rows.into_iter().filter(|it| q.contains_item(it)) {
        a.add(it.measure);
    }
    a
}

fn same(got: &Aggregate, expect: &Aggregate) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.count, expect.count);
    prop_assert_eq!(got.sum.to_bits(), expect.sum.to_bits());
    prop_assert_eq!(got.min.to_bits(), expect.min.to_bits());
    prop_assert_eq!(got.max.to_bits(), expect.max.to_bits());
    Ok(())
}

/// A range on one dimension of a leaf whose values span `[lo, hi]`, of the
/// family `pick` selects: disjoint above or below, touching either end,
/// nested strictly inside, equal, or unconstrained. `None` when the family
/// is empty for this span (e.g. nothing lies strictly inside `[3, 4]`).
fn family_range(pick: u64, lo: u64, hi: u64) -> Option<(u64, u64)> {
    let r = match pick % 8 {
        0 => (hi.checked_add(1)?, u64::MAX),
        1 => (0, lo.checked_sub(1)?),
        2 => (0, lo),
        3 => (hi, u64::MAX),
        4 => (lo.checked_add(1)?, hi.checked_sub(1)?),
        5 => (lo, hi),
        6 => (lo, hi.checked_sub(1)?),
        _ => (0, u64::MAX),
    };
    (r.0 <= r.1).then_some(r)
}

/// Check a leaf's invariants and its scan against the row filter on boxes
/// drawn from the leaf's own value span.
fn check_leaf(
    leaf: &LeafColumns,
    picks: &mut impl Iterator<Item = u64>,
) -> Result<(), TestCaseError> {
    leaf.check().map_err(TestCaseError::fail)?;
    let rows: Vec<Item> = (0..leaf.len()).map(|i| leaf.item(i)).collect();
    if rows.is_empty() {
        return Ok(());
    }
    let span: Vec<(u64, u64)> = (0..DIMS)
        .map(|d| {
            let vals = rows.iter().map(|r| r.coords[d]);
            (vals.clone().min().unwrap(), vals.max().unwrap())
        })
        .collect();
    for _ in 0..12 {
        let ranges: Vec<(u64, u64)> = span
            .iter()
            .map(|&(lo, hi)| family_range(picks.next().unwrap(), lo, hi).unwrap_or((0, u64::MAX)))
            .collect();
        let q = QueryBox::from_ranges(ranges);
        let mut got = Aggregate::empty();
        leaf.scan(&q, &mut got);
        same(&got, &brute(&rows, &q))?;
    }
    Ok(())
}

/// [`check_leaf`] on every leaf, the tree's own invariant check (under a
/// Hilbert policy: row keys, key order and LHVs), and whole-tree queries
/// against the row filter over `stored`; returns the number of leaves.
fn check_tree<K: Key>(
    tree: &ConcurrentTree<K>,
    stored: &[Item],
    picks: &mut impl Iterator<Item = u64>,
) -> Result<usize, TestCaseError> {
    let mut result = Ok(());
    let mut leaves = 0;
    tree.for_each_leaf(|leaf| {
        leaves += 1;
        if result.is_ok() {
            result = check_leaf(leaf, picks);
        }
    });
    result?;
    tree.check().map_err(TestCaseError::fail)?;
    for _ in 0..8 {
        let ranges = (0..DIMS)
            .map(|_| {
                let (a, b) = (picks.next().unwrap() % 18, picks.next().unwrap() % 18);
                (a.min(b), a.max(b))
            })
            .collect();
        let q = QueryBox::from_ranges(ranges);
        same(&tree.query(&q), &brute(stored, &q))?;
    }
    Ok(leaves)
}

/// A deterministic stream of selectors from the case's seed.
fn picks(seed: u64) -> impl Iterator<Item = u64> {
    let mut state = seed | 1;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `push_row` into a leaf, a split into two halves that recompute their
    /// ranges, then `push_row`s that may widen a half's ranges.
    #[test]
    fn pushed_rows_keep_their_ranges(
        items in items_strategy(150),
        extra in items_strategy(4),
        cut in 0usize..=150,
        seed in any::<u64>(),
    ) {
        let mut picks = picks(seed);
        let mut whole = LeafColumns::new(DIMS, 0, 16);
        for it in &items {
            whole.push_row(&it.coords, it.measure, &[]);
        }
        check_leaf(&whole, &mut picks)?;
        let cut = cut.min(items.len());
        check_leaf(&whole.clone_range(cut..items.len()), &mut picks)?;
        let mut leaf = whole.clone_range(0..cut);
        check_leaf(&leaf, &mut picks)?;
        for it in &extra {
            leaf.push_row(&it.coords, it.measure, &[]);
            check_leaf(&leaf, &mut picks)?;
        }
    }

    /// Hilbert trees: a bulk load, point inserts that grow and split its
    /// leaves, then a batch whose runs splice into leaves.
    #[test]
    fn hilbert_leaves_keep_their_ranges(
        loaded in items_strategy(200),
        points in items_strategy(60),
        batch in items_strategy(120),
        seed in any::<u64>(),
    ) {
        let mut picks = picks(seed);
        let tree = ConcurrentTree::<Mds>::new(schema(), InsertPolicy::Hilbert { expand: true }, cfg());
        let mut stored = loaded.clone();
        bulk_load(&tree, loaded.clone());
        let leaves = check_tree(&tree, &stored, &mut picks)?;
        if loaded.len() >= 64 {
            prop_assert!(leaves > 1, "a bulk load of 64 rows packs several leaves");
        }
        for it in &points {
            tree.insert(it);
            stored.push(it.clone());
        }
        check_tree(&tree, &stored, &mut picks)?;
        tree.insert_batch(&batch);
        stored.extend(batch.iter().cloned());
        check_tree(&tree, &stored, &mut picks)?;
    }

    /// Geometric trees: appended rows and entry-rebuilt split halves.
    #[test]
    fn geometric_leaves_keep_their_ranges(items in items_strategy(200), seed in any::<u64>()) {
        let mut picks = picks(seed);
        let tree = ConcurrentTree::<Mbr>::new(schema(), InsertPolicy::Geometric, cfg());
        for it in &items {
            tree.insert(it);
        }
        check_tree(&tree, &items, &mut picks)?;
    }
}
