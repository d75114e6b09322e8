//! Property-based tests: every tree variant against a brute-force oracle.

use proptest::prelude::*;
use volap_dims::{Aggregate, DimPath, Item, Key, QueryBox, Schema};
use volap_tree::{build_store, ShardStore, SplitPlan, StoreKind, TreeConfig};

fn small_cfg() -> TreeConfig {
    TreeConfig {
        leaf_cap: 8,
        dir_cap: 4,
        ..TreeConfig::default()
    }
}

fn schema() -> Schema {
    Schema::uniform(3, 2, 4) // 3 dims, 4 bits each: dense enough to collide
}

/// Random items as (coords, measure) tuples.
fn items_strategy(n: usize) -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec((prop::collection::vec(0u64..16, 3), 0u32..100), 1..=n).prop_map(|raw| {
        raw.into_iter()
            .map(|(coords, m)| Item::new(coords, m as f64))
            .collect()
    })
}

/// Random query: per-dim either full range or a level-aligned block.
fn query_strategy() -> impl Strategy<Value = QueryBox> {
    prop::collection::vec((0usize..=2, 0u64..16), 3).prop_map(|per_dim| {
        let s = schema();
        let paths: Vec<DimPath> = per_dim
            .into_iter()
            .enumerate()
            .map(|(d, (level, v))| match level {
                0 => DimPath::root(d),
                1 => DimPath::new(d, vec![v % 4]),
                _ => DimPath::new(d, vec![(v / 4) % 4, v % 4]),
            })
            .collect();
        QueryBox::from_paths(&s, &paths)
    })
}

/// Random query with arbitrary (not level-aligned) bounds per dimension.
fn ragged_query_strategy() -> impl Strategy<Value = QueryBox> {
    prop::collection::vec((0u64..16, 0u64..16), 3).prop_map(|per_dim| {
        QueryBox::from_ranges(
            per_dim
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect(),
        )
    })
}

fn brute(items: &[Item], q: &QueryBox) -> Aggregate {
    let mut a = Aggregate::empty();
    for it in items.iter().filter(|it| q.contains_item(it)) {
        a.add(it.measure);
    }
    a
}

fn all_kinds() -> [StoreKind; 6] {
    [
        StoreKind::PdcMbr,
        StoreKind::PdcMds,
        StoreKind::HilbertPdcMbr,
        StoreKind::HilbertPdcMds,
        StoreKind::HilbertRTree,
        StoreKind::RTree,
    ]
}

/// A store of `kind` holding `items`, loaded in one bulk insert or one
/// insert at a time.
fn load(kind: StoreKind, cfg: &TreeConfig, items: &[Item], bulk: bool) -> Box<dyn ShardStore> {
    let store = build_store(kind, &schema(), cfg);
    if bulk {
        store.bulk_insert(items.to_vec());
    } else {
        for it in items {
            store.insert(it);
        }
    }
    store
}

/// The median split planned over whole items: the reference that
/// `split_query`, which reads the tree's columns, must agree with.
fn plan_median_over_items(schema: &Schema, items: &[Item]) -> Option<SplitPlan> {
    if items.len() < 2 {
        return None;
    }
    let mut dims: Vec<(f64, usize)> = (0..schema.dims())
        .map(|d| {
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for it in items {
                lo = lo.min(it.coords[d]);
                hi = hi.max(it.coords[d]);
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
        let mut coords: Vec<u64> = items.iter().map(|it| it.coords[d]).collect();
        let mid = coords.len() / 2;
        coords.sort_unstable();
        let mut t = coords[mid.saturating_sub(1)];
        let max = *coords.last().unwrap();
        if t == max {
            match coords.iter().rev().find(|&&c| c < max) {
                Some(&below) => t = below,
                None => continue,
            }
        }
        return Some(SplitPlan {
            dim: d,
            threshold: t,
        });
    }
    None
}

/// `got` and `want` hold the same items in the same order, packed into as
/// many leaves, with bit-equal full-query aggregates, and `got` passes its
/// structural check.
fn same_store(
    got: &dyn ShardStore,
    want: &dyn ShardStore,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.items(), want.items(), "{} items", what);
    prop_assert_eq!(got.stats().leaves, want.stats().leaves, "{} leaves", what);
    let q = QueryBox::all(&schema());
    let (a, b) = (got.query(&q), want.query(&q));
    prop_assert_eq!(a.count, b.count, "{} count", what);
    prop_assert_eq!(
        (a.sum.to_bits(), a.min.to_bits(), a.max.to_bits()),
        (b.sum.to_bits(), b.min.to_bits(), b.max.to_bits()),
        "{} aggregate",
        what
    );
    if let Err(e) = got.check() {
        prop_assert!(false, "{}: {}", what, e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every variant returns exactly the brute-force aggregate for random
    /// data and random hierarchy-aligned queries.
    #[test]
    fn all_variants_match_oracle(items in items_strategy(120), q in query_strategy()) {
        let s = schema();
        let expect = brute(&items, &q);
        for kind in all_kinds() {
            let store = build_store(kind, &s, &small_cfg());
            for it in &items {
                store.insert(it);
            }
            let got = store.query(&q);
            prop_assert_eq!(got.count, expect.count, "{} count", kind);
            prop_assert!((got.sum - expect.sum).abs() < 1e-9, "{} sum", kind);
            if expect.count > 0 {
                prop_assert_eq!(got.min, expect.min, "{} min", kind);
                prop_assert_eq!(got.max, expect.max, "{} max", kind);
            }
        }
    }

    /// `query_at_root` is the full walk or nothing: `Some` only with the
    /// exact aggregate and counters of `query_traced`, always `Some` for a
    /// tree whose full walk stays at the root, and a `None` leaves no stale
    /// node on the recycled stack for the next walk — over tiny node caps,
    /// point and bulk loads.
    #[test]
    fn query_at_root_is_the_full_walk_or_none(
        items in items_strategy(120),
        aligned in query_strategy(),
        ragged in ragged_query_strategy(),
        caps in (4usize..=8, 4usize..=6),
        bulk in any::<bool>(),
    ) {
        let s = schema();
        let cfg = TreeConfig { leaf_cap: caps.0, dir_cap: caps.1, ..TreeConfig::default() };
        for kind in all_kinds() {
            let store = load(kind, &cfg, &items, bulk);
            for q in [&aligned, &ragged, &QueryBox::all(&s)] {
                let at_root = store.query_at_root(q);
                let full = store.query_traced(q);
                let expect = brute(&items, q);
                prop_assert_eq!(full.0.count, expect.count, "{} count after root attempt", kind);
                prop_assert!((full.0.sum - expect.sum).abs() < 1e-9, "{} sum", kind);
                if expect.count > 0 {
                    prop_assert_eq!(full.0.min, expect.min, "{} min", kind);
                    prop_assert_eq!(full.0.max, expect.max, "{} max", kind);
                }
                match at_root {
                    Some(got) => prop_assert_eq!(got, full, "{} answered at the root", kind),
                    None => prop_assert!(
                        full.1.nodes_visited > 1,
                        "{} declined a query resolved at its root: {:?}",
                        kind,
                        full.1
                    ),
                }
            }
        }
    }

    /// Bulk loading and point insertion build query-equivalent stores.
    #[test]
    fn bulk_equals_point(items in items_strategy(150), q in query_strategy()) {
        let s = schema();
        for kind in [StoreKind::HilbertPdcMds, StoreKind::PdcMds, StoreKind::RTree] {
            let bulk = build_store(kind, &s, &small_cfg());
            bulk.bulk_insert(items.clone());
            let point = build_store(kind, &s, &small_cfg());
            for it in &items {
                point.insert(it);
            }
            prop_assert_eq!(bulk.len(), point.len());
            let a = bulk.query(&q);
            let b = point.query(&q);
            prop_assert_eq!(a.count, b.count, "{}", kind);
            prop_assert!((a.sum - b.sum).abs() < 1e-9);
        }
    }

    /// serialize → deserialize is lossless for every variant.
    #[test]
    fn serialize_roundtrip(items in items_strategy(80)) {
        let s = schema();
        for kind in all_kinds() {
            let store = build_store(kind, &s, &small_cfg());
            store.bulk_insert(items.clone());
            let blob = store.serialize();
            let back = volap_tree::deserialize_store(kind, &s, &small_cfg(), &blob).unwrap();
            prop_assert_eq!(back.len(), store.len());
            let q = QueryBox::all(&s);
            let a = back.query(&q);
            let b = store.query(&q);
            prop_assert_eq!(a.count, b.count);
            prop_assert!((a.sum - b.sum).abs() < 1e-9);
        }
    }

    /// Splitting by any legal hyperplane preserves the multiset of items
    /// and partitions strictly by side, and each half's `mbr()` (what its
    /// shard record carries) contains all of its rows. For MBR keys the
    /// two halves' boxes are strictly apart along the split dimension; an
    /// MDS key's hull may cross the plane (see `Key::to_mbr`), so it is
    /// not checked there.
    #[test]
    fn split_partitions_and_preserves(items in items_strategy(100), dim in 0usize..3, t in 0u64..15) {
        let s = schema();
        let plan = SplitPlan { dim, threshold: t };
        for kind in all_kinds() {
            let store = load(kind, &small_cfg(), &items, true);
            let (l, r) = store.split(&plan);
            prop_assert_eq!(l.len() + r.len(), store.len());
            let (l_items, r_items) = (l.items(), r.items());
            for it in &l_items {
                prop_assert!(it.coords[dim] <= t);
                prop_assert!(l.mbr().contains_item(it), "{} left mbr misses a row", kind);
            }
            for it in &r_items {
                prop_assert!(it.coords[dim] > t);
                prop_assert!(r.mbr().contains_item(it), "{} right mbr misses a row", kind);
            }
            let mbr_keyed = !matches!(kind, StoreKind::PdcMds | StoreKind::HilbertPdcMds);
            if let (true, Some(lb), Some(rb)) = (mbr_keyed, l.mbr().ranges(), r.mbr().ranges()) {
                prop_assert!(lb[dim].1 < rb[dim].0, "{} halves' boxes overlap on dim {}", kind, dim);
            }
            let q = QueryBox::all(&s);
            let mut merged = l.query(&q);
            merged.merge(&r.query(&q));
            let orig = store.query(&q);
            prop_assert_eq!(merged.count, orig.count);
            prop_assert!((merged.sum - orig.sum).abs() < 1e-9);
        }
    }

    /// A split packs the tree's own rows into the stores that bulk-loading
    /// each side's items would build: for every kind, tiny node caps, point
    /// or bulk loads, the planned and an arbitrary hyperplane, the halves
    /// equal the reference halves and pass their structural check, and
    /// `split_query` plans what the item-based median planned.
    #[test]
    fn split_equals_bulk_loads_of_the_partitioned_items(
        items in items_strategy(120),
        caps in (4usize..=8, 4usize..=6),
        bulk in any::<bool>(),
        dim in 0usize..3,
        t in 0u64..15,
    ) {
        let s = schema();
        let cfg = TreeConfig { leaf_cap: caps.0, dir_cap: caps.1, ..TreeConfig::default() };
        for kind in all_kinds() {
            let store = load(kind, &cfg, &items, bulk);
            let snapshot = store.items();
            let planned = store.split_query();
            prop_assert_eq!(planned, plan_median_over_items(&s, &snapshot), "{} split_query", kind);
            for plan in planned.into_iter().chain([SplitPlan { dim, threshold: t }]) {
                let (l, r) = store.split(&plan);
                let (right, left): (Vec<Item>, Vec<Item>) =
                    snapshot.iter().cloned().partition(|it| plan.side(it));
                let (want_l, want_r) = (build_store(kind, &s, &cfg), build_store(kind, &s, &cfg));
                want_l.bulk_insert(left);
                want_r.bulk_insert(right);
                same_store(&*l, &*want_l, &format!("{kind} left of {plan:?}"))?;
                same_store(&*r, &*want_r, &format!("{kind} right of {plan:?}"))?;
            }
        }
    }

    /// The planned median split is always non-degenerate when items differ.
    #[test]
    fn planned_split_is_nondegenerate(items in items_strategy(60)) {
        let s = schema();
        let distinct = items
            .windows(2)
            .any(|w| w[0].coords != w[1].coords)
            || items.len() > 1 && items[0].coords != items[items.len() - 1].coords;
        let store = build_store(StoreKind::HilbertPdcMds, &s, &small_cfg());
        store.bulk_insert(items.clone());
        if let Some(plan) = store.split_query() {
            let (l, r) = store.split(&plan);
            prop_assert!(!l.is_empty() && !r.is_empty(), "planned splits must be non-degenerate");
        } else {
            // Only identical items (or a singleton) may refuse to split.
            let all_same = items.windows(2).all(|w| w[0].coords == w[1].coords);
            prop_assert!(all_same || items.len() < 2, "refused despite distinct items: {distinct}");
        }
    }

    /// The total aggregate equals the sum of all measures regardless of
    /// insertion order.
    #[test]
    fn total_is_order_independent(items in items_strategy(100), seed in any::<u64>()) {
        let s = schema();
        let mut shuffled = items.clone();
        // Fisher-Yates with a simple xorshift.
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let a = build_store(StoreKind::HilbertPdcMds, &s, &small_cfg());
        let b = build_store(StoreKind::HilbertPdcMds, &s, &small_cfg());
        for it in &items {
            a.insert(it);
        }
        for it in &shuffled {
            b.insert(it);
        }
        let ta = a.total();
        let tb = b.total();
        prop_assert_eq!(ta.count, tb.count);
        prop_assert!((ta.sum - tb.sum).abs() < 1e-9);
        prop_assert_eq!(ta.min, tb.min);
        prop_assert_eq!(ta.max, tb.max);
    }
}
