//! Property-based tests for schemas, keys and query geometry.

use proptest::prelude::*;
use volap_dims::{DimPath, Item, Key, Mbr, Mds, QueryBox, Schema};

/// A small random schema: 1–4 dimensions, 1–3 levels, fanouts 2–16.
fn schemas() -> impl Strategy<Value = Schema> {
    prop::collection::vec(prop::collection::vec(2u64..=16, 1..=3), 1..=4).prop_map(|dims| {
        let defs = dims
            .into_iter()
            .enumerate()
            .map(|(i, fanouts)| {
                volap_dims::DimensionDef::new(
                    format!("D{i}"),
                    fanouts
                        .into_iter()
                        .enumerate()
                        .map(|(l, f)| volap_dims::LevelDef::new(format!("L{l}"), f))
                        .collect(),
                )
            })
            .collect();
        Schema::new(defs, 3)
    })
}

/// Random valid items for a schema, driven by a seed.
fn items_for(schema: &Schema, seed: u64, n: usize) -> Vec<Item> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let coords: Vec<u64> = (0..schema.dims())
                .map(|d| {
                    let dim = schema.dim(d);
                    let comps: Vec<u64> = dim.levels.iter().map(|l| next() % l.fanout).collect();
                    dim.ordinal(&comps)
                })
                .collect();
            Item::new(coords, (i % 7) as f64 + 0.5)
        })
        .collect()
}

/// A random query anchored on an item: per dimension the ALL root or a
/// prefix of the anchor.
fn query_for(schema: &Schema, anchor: &Item, seed: u64) -> QueryBox {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let paths: Vec<DimPath> = (0..schema.dims())
        .map(|d| {
            let full = anchor.path(schema, d);
            let depth = full.components.len();
            match next() % (depth as u64 + 1) {
                0 => DimPath::root(d),
                l => DimPath::new(d, full.components[..l as usize].to_vec()),
            }
        })
        .collect();
    QueryBox::from_paths(schema, &paths)
}

proptest! {
    /// Ordinals round-trip through components for every dimension.
    #[test]
    fn ordinal_component_roundtrip(schema in schemas(), seed in any::<u64>()) {
        for it in items_for(&schema, seed, 16) {
            prop_assert!(it.validate(&schema));
            for d in 0..schema.dims() {
                let comps = schema.dim(d).components(it.coords[d]);
                prop_assert_eq!(schema.dim(d).ordinal(&comps), it.coords[d]);
            }
        }
    }

    /// Both key types always contain every item folded into them, and the
    /// MDS region is a subset of the MBR region.
    #[test]
    fn keys_contain_their_items(schema in schemas(), seed in any::<u64>()) {
        let items = items_for(&schema, seed, 24);
        let mut mbr = Mbr::empty(&schema);
        let mut mds = Mds::empty(&schema);
        for it in &items {
            mbr.extend_item(&schema, it);
            mds.extend_item(&schema, it);
        }
        for it in &items {
            prop_assert!(mbr.contains_item(it));
            prop_assert!(mds.contains_item(it));
        }
        // The MDS region sits inside its own hull (note: hierarchy-aligned
        // coarsening may overshoot the raw item hull when fanouts are not
        // powers of two, so the MDS is not always inside the item MBR).
        let hull = mds.to_mbr(&schema);
        prop_assert!(mds.volume_frac(&schema) <= hull.volume_frac(&schema) + 1e-12);
        for it in &items {
            prop_assert!(hull.contains_item(it));
        }
    }

    /// MDS per-dimension ranges are sorted, disjoint, hierarchy-aligned and
    /// capped.
    #[test]
    fn mds_structural_invariants(schema in schemas(), seed in any::<u64>()) {
        let items = items_for(&schema, seed, 40);
        let mut mds = Mds::empty(&schema);
        for it in &items {
            mds.extend_item(&schema, it);
        }
        for d in 0..schema.dims() {
            let ranges = mds.dim_ranges(d);
            prop_assert!(ranges.len() <= schema.mds_cap());
            let mut last_hi: Option<u64> = None;
            for &(lo, hi) in ranges {
                prop_assert!(lo <= hi);
                if let Some(prev) = last_hi {
                    prop_assert!(lo > prev, "ranges must be disjoint and sorted");
                }
                last_hi = Some(hi);
                let len = hi - lo + 1;
                prop_assert!(len.is_power_of_two(), "aligned block size");
                prop_assert_eq!(lo % len, 0, "aligned block start");
            }
        }
    }

    /// Query relations are mutually consistent: coverage implies overlap
    /// (for non-empty keys), and overlap agrees with a brute-force check on
    /// the items.
    #[test]
    fn query_relations_consistent(schema in schemas(), seed in any::<u64>()) {
        let items = items_for(&schema, seed, 24);
        let q = query_for(&schema, &items[0], seed ^ 0xABCD);
        let mut mbr = Mbr::empty(&schema);
        let mut mds = Mds::empty(&schema);
        for it in &items {
            mbr.extend_item(&schema, it);
            mds.extend_item(&schema, it);
        }
        let any_inside = items.iter().any(|it| q.contains_item(it));
        if any_inside {
            prop_assert!(mbr.overlaps_query(&q));
            prop_assert!(mds.overlaps_query(&q));
        }
        // Coverage of either key implies every item is inside the query.
        if mbr.covered_by_query(&q) || mds.covered_by_query(&q) {
            for it in &items {
                prop_assert!(q.contains_item(it), "coverage implies every item inside");
            }
        }
    }

    /// extend_key is a join: the union covers everything either side did,
    /// and overlap_frac is symmetric.
    #[test]
    fn key_union_and_symmetry(schema in schemas(), seed in any::<u64>()) {
        let items = items_for(&schema, seed, 20);
        let (a_items, b_items) = items.split_at(10);
        let build = |subset: &[Item]| {
            let mut k = Mds::empty(&schema);
            for it in subset {
                k.extend_item(&schema, it);
            }
            k
        };
        let a = build(a_items);
        let b = build(b_items);
        let ab = a.overlap_frac(&schema, &b);
        let ba = b.overlap_frac(&schema, &a);
        prop_assert!((ab - ba).abs() < 1e-12, "overlap symmetric");
        let mut joined = a.clone();
        joined.extend_key(&schema, &b);
        for it in &items {
            prop_assert!(joined.contains_item(it));
        }
        prop_assert!(joined.volume_frac(&schema) + 1e-12 >= a.volume_frac(&schema));
        prop_assert!(joined.volume_frac(&schema) + 1e-12 >= b.volume_frac(&schema));
    }

    /// Prefix ranges of sibling paths never overlap, children nest inside
    /// parents.
    #[test]
    fn prefix_ranges_nest_and_partition(schema in schemas(), seed in any::<u64>()) {
        let items = items_for(&schema, seed, 4);
        for it in &items {
            for d in 0..schema.dims() {
                let full = it.path(&schema, d);
                let mut prev: Option<(u64, u64)> = None;
                for level in (0..=full.components.len()).rev() {
                    let p = DimPath::new(d, full.components[..level].to_vec());
                    let (lo, hi) = p.range(&schema);
                    if let Some((plo, phi)) = prev {
                        prop_assert!(lo <= plo && phi <= hi, "parent must contain child");
                    }
                    prev = Some((lo, hi));
                }
            }
        }
    }
}
