//! Shard serialization (`SerializeShard` / `DeserializeShard`, §III-E),
//! bulk loading and `Split`, which build a tree by one pack path.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use volap_dims::{Item, Key, Schema};

use crate::leaf::LeafColumns;
use crate::split::SplitPlan;
use crate::tree::{ConcurrentTree, DirEntry, Node};

/// Magic bytes prefixing every serialized shard blob.
pub const SHARD_MAGIC: &[u8; 4] = b"VOLS";

/// Encode items into the flat binary blob the paper ships between workers
/// during shard migration.
pub fn encode_items(schema: &Schema, items: &[Item]) -> Vec<u8> {
    let dims = schema.dims();
    let mut buf = BytesMut::with_capacity(4 + 2 + 8 + items.len() * (dims * 8 + 8));
    buf.put_slice(SHARD_MAGIC);
    buf.put_u16(dims as u16);
    buf.put_u64(items.len() as u64);
    for it in items {
        debug_assert_eq!(it.coords.len(), dims);
        for &c in it.coords.iter() {
            buf.put_u64(c);
        }
        buf.put_f64(it.measure);
    }
    buf.to_vec()
}

/// Decode a blob produced by [`encode_items`].
///
/// Returns an error string on any structural mismatch (bad magic, truncated
/// payload, wrong dimensionality) or an item outside the schema's domain
/// ([`Item::check`]).
pub fn decode_items(schema: &Schema, blob: &[u8]) -> Result<Vec<Item>, String> {
    let mut buf = Bytes::copy_from_slice(blob);
    if buf.remaining() < 14 {
        return Err("shard blob truncated before header".into());
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != SHARD_MAGIC {
        return Err(format!("bad shard magic {magic:02x?}"));
    }
    let dims = buf.get_u16() as usize;
    if dims != schema.dims() {
        return Err(format!(
            "shard has {dims} dims, schema has {}",
            schema.dims()
        ));
    }
    let count = buf.get_u64() as usize;
    let need = count
        .checked_mul(dims * 8 + 8)
        .ok_or_else(|| "shard item count overflows".to_string())?;
    if buf.remaining() < need {
        return Err(format!(
            "shard blob truncated: need {need} bytes, have {}",
            buf.remaining()
        ));
    }
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let coords: Vec<u64> = (0..dims).map(|_| buf.get_u64()).collect();
        let item = Item::new(coords, buf.get_f64());
        item.check(schema)?;
        items.push(item);
    }
    Ok(items)
}

/// Bulk-load `items`, packing leaves bottom-up when the tree is empty.
///
/// Items are sorted by their compact Hilbert key (for Hilbert-policy trees;
/// geometric trees sort lexicographically by coordinates, which still yields
/// spatially coherent runs) and packed, as [`split`] packs its halves. This
/// is the fast path behind the paper's 400 k items/s bulk-ingestion number —
/// no per-item descent, no node splits, no lock traffic.
///
/// A tree that holds items — or gains some while the packed tree is built,
/// from a concurrent insert — takes the batch through
/// [`ConcurrentTree::insert_batch`] instead: the install re-checks
/// emptiness under the root node's write guard, which every insert takes
/// first.
pub fn bulk_load<K: Key>(tree: &ConcurrentTree<K>, items: Vec<Item>) {
    let n = items.len() as u64;
    if n == 0 || (tree.is_empty() && tree.install_bulk(pack(tree, &tree.storage_rows(&items)), n)) {
        return;
    }
    tree.insert_batch(&items);
}

/// `Split` (§III-E): the rows on each side of `plan`'s hyperplane, packed
/// into two fresh trees like `tree` (left: `coords[dim] <= threshold`).
///
/// One walk over the leaves sends each row, with its stored key, to its
/// side. The partition is stable, so a Hilbert half stays key-sorted; a
/// geometric half is sorted by coordinates, as a bulk load sorts it. Both
/// halves are therefore the trees a bulk load of each side's items would
/// build, without recomputing a key. `tree` must be at rest (a worker
/// splits a shard whose inserts go to its insertion queue).
pub fn split<K: Key>(tree: &ConcurrentTree<K>, plan: &SplitPlan) -> [ConcurrentTree<K>; 2] {
    let mut sides = [tree.leaf_columns(0), tree.leaf_columns(0)];
    tree.for_each_leaf(|leaf| {
        for (i, &c) in leaf.column(plan.dim).iter().enumerate() {
            sides[(c > plan.threshold) as usize].push_from(leaf, i);
        }
    });
    sides.map(|rows| {
        let half = tree.empty_like();
        let rows = if tree.is_hilbert() {
            rows
        } else {
            rows.sorted_by_coords()
        };
        if !rows.is_empty() {
            let installed = half.install_bulk(pack(&half, &rows), rows.len() as u64);
            debug_assert!(installed, "a fresh tree is empty");
        }
        half
    })
}

/// Pack non-empty `rows`, already in the tree's storage order, into a
/// fresh, unshared root node: leaves of ~3/4 capacity cut at consecutive
/// ranks, then directory levels assembled bottom-up.
fn pack<K: Key>(tree: &ConcurrentTree<K>, rows: &LeafColumns) -> Arc<Node<K>> {
    let n = rows.len();
    let leaf_fill = (tree.cfg().leaf_cap * 3 / 4).max(1);
    let dir_fill = (tree.cfg().dir_cap * 3 / 4).max(2);
    let mut slots: Vec<DirEntry<K>> = (0..n)
        .step_by(leaf_fill)
        .map(|start| tree.leaf_slot(rows.clone_range(start..(start + leaf_fill).min(n))))
        .collect();
    while slots.len() > 1 {
        let mut next = Vec::with_capacity(slots.len() / dir_fill + 1);
        let mut it = slots.into_iter();
        loop {
            let chunk: Vec<DirEntry<K>> = it.by_ref().take(dir_fill).collect();
            if chunk.is_empty() {
                break;
            }
            if chunk.len() == 1 {
                // Avoid a useless single-child directory node.
                next.extend(chunk);
            } else {
                next.push(tree.make_dir_slot(chunk));
            }
        }
        slots = next;
    }
    slots.pop().expect("non-empty rows yield a root").node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{InsertPolicy, TreeConfig};
    use volap_dims::{Aggregate, Mds, QueryBox};

    fn items(n: u64, schema: &Schema) -> Vec<Item> {
        let mut state = 0xABCDEF12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        (0..n)
            .map(|i| {
                let coords: Vec<u64> = (0..schema.dims())
                    .map(|d| next() % schema.dim(d).ordinal_end())
                    .collect();
                Item::new(coords, (i % 17) as f64)
            })
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let schema = Schema::uniform(4, 2, 8);
        let original = items(123, &schema);
        let blob = encode_items(&schema, &original);
        let decoded = decode_items(&schema, &blob).unwrap();
        assert_eq!(original, decoded);
    }

    #[test]
    fn decode_rejects_corruption() {
        let schema = Schema::uniform(4, 2, 8);
        let blob = encode_items(&schema, &items(10, &schema));
        assert!(decode_items(&schema, &blob[..blob.len() - 3]).is_err());
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert!(decode_items(&schema, &bad_magic).is_err());
        let other = Schema::uniform(5, 2, 8);
        assert!(decode_items(&other, &blob).is_err());
        assert!(decode_items(&schema, &[]).is_err());
        // Coordinate 64 is one past dimension 0's domain of 8 x 8 leaves.
        let outside = encode_items(&schema, &[Item::new(vec![64, 0, 0, 0], 1.0)]);
        assert!(decode_items(&schema, &outside).is_err());
    }

    #[test]
    fn bulk_load_equals_point_inserts() {
        let schema = Schema::uniform(3, 2, 8);
        let data = items(2000, &schema);
        let cfg = TreeConfig {
            leaf_cap: 16,
            dir_cap: 6,
            ..TreeConfig::default()
        };
        for policy in [
            InsertPolicy::Geometric,
            InsertPolicy::Hilbert { expand: true },
        ] {
            let bulk: ConcurrentTree<Mds> =
                ConcurrentTree::new(schema.clone(), policy, cfg.clone());
            bulk_load(&bulk, data.clone());
            assert_eq!(bulk.len(), data.len() as u64);
            let point: ConcurrentTree<Mds> =
                ConcurrentTree::new(schema.clone(), policy, cfg.clone());
            for it in &data {
                point.insert(it);
            }
            for q in [
                QueryBox::all(&schema),
                QueryBox::from_ranges(vec![(0, 30), (0, 63), (10, 50)]),
            ] {
                let a = bulk.query(&q);
                let b = point.query(&q);
                assert_eq!(a.count, b.count, "{policy:?}");
                assert!((a.sum - b.sum).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bulk_load_then_inserts_still_work() {
        let schema = Schema::uniform(3, 2, 8);
        let data = items(500, &schema);
        let tree: ConcurrentTree<Mds> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: true },
            TreeConfig::default(),
        );
        bulk_load(&tree, data.clone());
        let extra = items(200, &schema);
        for it in &extra {
            tree.insert(it);
        }
        let total = tree.query(&QueryBox::all(&schema));
        assert_eq!(total.count, 700);
        let mut expect = Aggregate::empty();
        for it in data.iter().chain(&extra) {
            expect.add(it.measure);
        }
        assert!((total.sum - expect.sum).abs() < 1e-6);
    }

    #[test]
    fn bulk_load_of_low_cardinality_data_matches_row_filter() {
        let schema = Schema::uniform(3, 2, 8);
        let tree: ConcurrentTree<Mds> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: true },
            TreeConfig::default(),
        );
        // 8 distinct values per dimension: many rows tie on every column.
        let data: Vec<Item> = items(2000, &schema)
            .into_iter()
            .map(|it| Item::new(it.coords.iter().map(|c| c % 8).collect(), it.measure))
            .collect();
        bulk_load(&tree, data.clone());
        assert_eq!(tree.len(), data.len() as u64);
        let mut leaves = 0;
        tree.for_each_leaf(|leaf| {
            leaf.check().unwrap();
            leaves += 1;
        });
        assert!(leaves > 1, "2000 items pack into many leaves");
        for q in [
            QueryBox::from_ranges(vec![(0, 7), (0, 63), (0, 63)]),
            QueryBox::from_ranges(vec![(2, 5), (0, 3), (7, 7)]),
            QueryBox::from_ranges(vec![(8, 63), (0, 63), (0, 63)]),
        ] {
            let agg = tree.query(&q);
            let mut expect = Aggregate::empty();
            for it in data.iter().filter(|it| q.contains_item(it)) {
                expect.add(it.measure);
            }
            assert_eq!(agg.count, expect.count);
            assert!((agg.sum - expect.sum).abs() < 1e-6);
        }
    }

    #[test]
    fn bulk_load_into_a_non_empty_tree_inserts_the_batch() {
        let schema = Schema::uniform(2, 2, 8);
        let tree: ConcurrentTree<Mds> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: true },
            TreeConfig::default(),
        );
        let first = Item::new(vec![0, 0], 1.0);
        tree.insert(&first);
        let data = items(200, &schema);
        bulk_load(&tree, data.clone());
        assert_eq!(tree.len(), 201);
        // Every item counts once, whichever path it took.
        let q = QueryBox::from_ranges(vec![(0, 7), (0, 63)]);
        let mut expect = Aggregate::empty();
        for it in data.iter().chain([&first]).filter(|it| q.contains_item(it)) {
            expect.add(it.measure);
        }
        assert_eq!(tree.query(&q).count, expect.count);
        assert_eq!(tree.query(&QueryBox::all(&schema)).count, 201);
    }
}
