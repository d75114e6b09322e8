//! The object-safe shard-store facade used by the distributed layer.

use volap_dims::{Aggregate, Item, Key, Mbr, Mds, QueryBox, Schema};

use crate::serial::{bulk_load, decode_items, encode_items, split};
use crate::split::SplitPlan;
use crate::tree::{ConcurrentTree, InsertPolicy, QueryTrace, TreeConfig};

/// The shard data-structure variants of the paper (§III-D plus the Figure-5
/// baselines). The paper's flat-array baseline is not built here: no
/// experiment measures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// PDC tree with MBR keys — an R-tree *with* cached aggregates.
    PdcMbr,
    /// PDC tree with MDS keys (the CR-OLAP / DC-tree lineage).
    PdcMds,
    /// Hilbert PDC tree with MBR keys.
    HilbertPdcMbr,
    /// Hilbert PDC tree with MDS keys — the paper's recommended structure.
    HilbertPdcMds,
    /// Hilbert R-tree: Hilbert insertion order *without* the Figure-3 level
    /// expansion, MBR keys, and **no aggregate caching** (the paper's
    /// "Hilbert R-Tree" baseline).
    HilbertRTree,
    /// Conventional R-tree: geometric insertion, MBR keys, and **no
    /// aggregate caching** (the paper's "R-Tree" baseline in Figure 5).
    RTree,
}

impl StoreKind {
    /// Whether this kind keeps (and uses) per-node cached aggregates.
    pub fn caches_aggregates(self) -> bool {
        !matches!(self, StoreKind::RTree | StoreKind::HilbertRTree)
    }

    fn policy(self) -> InsertPolicy {
        match self {
            StoreKind::PdcMbr | StoreKind::PdcMds | StoreKind::RTree => InsertPolicy::Geometric,
            StoreKind::HilbertPdcMbr | StoreKind::HilbertPdcMds => {
                InsertPolicy::Hilbert { expand: true }
            }
            StoreKind::HilbertRTree => InsertPolicy::Hilbert { expand: false },
        }
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            StoreKind::PdcMbr => "PDC-Tree(MBR)",
            StoreKind::PdcMds => "PDC-Tree",
            StoreKind::HilbertPdcMbr => "Hilbert PDC-Tree(MBR)",
            StoreKind::HilbertPdcMds => "Hilbert PDC-Tree",
            StoreKind::HilbertRTree => "Hilbert R-Tree",
            StoreKind::RTree => "R-Tree",
        };
        f.write_str(name)
    }
}

/// Structural statistics of a shard store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Stored items.
    pub items: u64,
    /// Directory nodes.
    pub dirs: u64,
    /// Leaf nodes.
    pub leaves: u64,
    /// Height (1 for a single leaf).
    pub height: u32,
    /// Cumulative tree node splits performed by inserts.
    pub node_splits: u64,
}

impl StoreStats {
    /// These statistics as `key:value` annotations — the shape a
    /// `shard_split` event reports about the shard it split.
    pub fn annotations(&self) -> Vec<(String, String)> {
        vec![
            ("items".into(), self.items.to_string()),
            ("dirs".into(), self.dirs.to_string()),
            ("leaves".into(), self.leaves.to_string()),
            ("height".into(), self.height.to_string()),
        ]
    }
}

/// Object-safe facade over any shard variant. This is the interface the
/// worker layer programs against, including the three load-balancing
/// operations of §III-E (`split_query`, `split`, `serialize`).
pub trait ShardStore: Send + Sync {
    /// Which variant this is.
    fn kind(&self) -> StoreKind;
    /// The indexed schema.
    fn schema(&self) -> &Schema;
    /// Insert one item (thread-safe).
    fn insert(&self, item: &Item);
    /// Insert many items (thread-safe); uses bottom-up packing when the
    /// store is empty.
    fn bulk_insert(&self, items: Vec<Item>);
    /// Aggregate everything inside `q`.
    fn query(&self, q: &QueryBox) -> Aggregate {
        self.query_traced(q).0
    }
    /// Aggregate with traversal statistics.
    fn query_traced(&self, q: &QueryBox) -> (Aggregate, QueryTrace);
    /// [`Self::query_traced`] when `q` is answered without descending below
    /// the root (cached aggregates, pruning, a leaf root);
    /// `None` when it needs a descent.
    fn query_at_root(&self, q: &QueryBox) -> Option<(Aggregate, QueryTrace)>;
    /// Item count.
    fn len(&self) -> u64;
    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total aggregate.
    fn total(&self) -> Aggregate;
    /// Bounding rectangle.
    fn mbr(&self) -> Mbr;
    /// Snapshot of all items.
    fn items(&self) -> Vec<Item>;
    /// Structural statistics.
    fn stats(&self) -> StoreStats;
    /// Check the structure's invariants at rest ([`ConcurrentTree::check`]).
    fn check(&self) -> Result<(), String>;
    /// `SplitQuery`: plan a roughly size-balanced hyperplane split.
    fn split_query(&self) -> Option<SplitPlan>;
    /// `Split`: partition into two fresh stores of the same kind.
    fn split(&self, plan: &SplitPlan) -> (Box<dyn ShardStore>, Box<dyn ShardStore>);
    /// `SerializeShard`: flat blob suitable for network transmission.
    fn serialize(&self) -> Vec<u8> {
        encode_items(self.schema(), &self.items())
    }
}

/// Build an empty store of the given kind.
pub fn build_store(kind: StoreKind, schema: &Schema, cfg: &TreeConfig) -> Box<dyn ShardStore> {
    let cfg = cfg.clone();
    match kind {
        StoreKind::PdcMbr
        | StoreKind::HilbertPdcMbr
        | StoreKind::HilbertRTree
        | StoreKind::RTree => Box::new(TreeShard::<Mbr>::new(kind, schema.clone(), cfg)),
        StoreKind::PdcMds | StoreKind::HilbertPdcMds => {
            Box::new(TreeShard::<Mds>::new(kind, schema.clone(), cfg))
        }
    }
}

/// `DeserializeShard`: rebuild a store of `kind` from a serialized blob.
pub fn deserialize_store(
    kind: StoreKind,
    schema: &Schema,
    cfg: &TreeConfig,
    blob: &[u8],
) -> Result<Box<dyn ShardStore>, String> {
    let items = decode_items(schema, blob)?;
    let store = build_store(kind, schema, cfg);
    store.bulk_insert(items);
    Ok(store)
}

struct TreeShard<K: Key> {
    kind: StoreKind,
    tree: ConcurrentTree<K>,
}

impl<K: Key> TreeShard<K> {
    fn new(kind: StoreKind, schema: Schema, cfg: TreeConfig) -> Self {
        let mut tree = ConcurrentTree::new(schema, kind.policy(), cfg);
        tree.aggregate_cache = kind.caches_aggregates();
        Self { kind, tree }
    }
}

impl<K: Key> ShardStore for TreeShard<K> {
    fn kind(&self) -> StoreKind {
        self.kind
    }
    fn schema(&self) -> &Schema {
        self.tree.schema()
    }
    fn insert(&self, item: &Item) {
        self.tree.insert(item);
    }
    fn bulk_insert(&self, items: Vec<Item>) {
        bulk_load(&self.tree, items);
    }
    fn query_traced(&self, q: &QueryBox) -> (Aggregate, QueryTrace) {
        self.tree.query_traced(q)
    }
    fn query_at_root(&self, q: &QueryBox) -> Option<(Aggregate, QueryTrace)> {
        self.tree.query_within(q, 1)
    }
    fn len(&self) -> u64 {
        self.tree.len()
    }
    fn total(&self) -> Aggregate {
        self.tree.total()
    }
    fn mbr(&self) -> Mbr {
        self.tree.mbr()
    }
    fn items(&self) -> Vec<Item> {
        self.tree.items()
    }
    fn stats(&self) -> StoreStats {
        let s = self.tree.structure();
        StoreStats {
            items: self.tree.len(),
            dirs: s.dirs,
            leaves: s.leaves,
            height: s.height,
            node_splits: self.tree.node_splits(),
        }
    }
    fn check(&self) -> Result<(), String> {
        self.tree.check()
    }
    fn split_query(&self) -> Option<SplitPlan> {
        SplitPlan::plan_median(self.schema(), self.tree.columns())
    }
    fn split(&self, plan: &SplitPlan) -> (Box<dyn ShardStore>, Box<dyn ShardStore>) {
        let [left, right] = split(&self.tree, plan).map(|tree| {
            Box::new(TreeShard {
                kind: self.kind,
                tree,
            }) as Box<dyn ShardStore>
        });
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: u64, schema: &Schema) -> Vec<Item> {
        let mut state = 7u64;
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
                Item::new(coords, (i % 13) as f64)
            })
            .collect()
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

    #[test]
    fn only_caching_kinds_answer_from_cached_aggregates() {
        let schema = Schema::uniform(3, 2, 8);
        let data = items(600, &schema);
        let q = QueryBox::all(&schema);
        for kind in all_kinds() {
            let store = build_store(kind, &schema, &TreeConfig::default());
            store.bulk_insert(data.clone());
            let (agg, trace) = store.query_traced(&q);
            assert_eq!(agg.count, 600, "{kind}");
            assert_eq!(trace.covered_hits > 0, kind.caches_aggregates(), "{kind}");
        }
    }

    #[test]
    fn every_kind_agrees_with_brute_force() {
        let schema = Schema::uniform(3, 2, 8);
        let data = items(600, &schema);
        let q = QueryBox::from_ranges(vec![(0, 40), (10, 60), (0, 63)]);
        let mut expect = Aggregate::empty();
        for it in data.iter().filter(|it| q.contains_item(it)) {
            expect.add(it.measure);
        }
        for kind in all_kinds() {
            let store = build_store(kind, &schema, &TreeConfig::default());
            for it in &data {
                store.insert(it);
            }
            let got = store.query(&q);
            assert_eq!(got.count, expect.count, "{kind}");
            assert!((got.sum - expect.sum).abs() < 1e-6, "{kind}");
            assert_eq!(store.len(), 600, "{kind}");
        }
    }

    #[test]
    fn serialize_roundtrip_preserves_contents() {
        let schema = Schema::uniform(3, 2, 8);
        let data = items(300, &schema);
        for kind in all_kinds() {
            let store = build_store(kind, &schema, &TreeConfig::default());
            store.bulk_insert(data.clone());
            let blob = store.serialize();
            let back = deserialize_store(kind, &schema, &TreeConfig::default(), &blob).unwrap();
            assert_eq!(back.len(), store.len(), "{kind}");
            let q = QueryBox::all(&schema);
            assert_eq!(back.query(&q).count, store.query(&q).count, "{kind}");
            assert_eq!(back.kind(), kind);
        }
    }

    #[test]
    fn serialize_roundtrip_rebuilds_the_same_tree() {
        // A migrated shard is rebuilt from the raw items its blob carries:
        // the receiving worker must hold the same items in the same order,
        // packed into as many leaves, with the same full-query aggregate.
        let schema = Schema::uniform(3, 2, 8);
        // Low-cardinality data: 8 distinct values per dimension, so many
        // rows share coordinates and Hilbert keys.
        let data: Vec<Item> = items(2000, &schema)
            .into_iter()
            .map(|it| Item::new(it.coords.iter().map(|c| c % 8).collect(), it.measure))
            .collect();
        let cfg = TreeConfig::default();
        let store = build_store(StoreKind::HilbertPdcMds, &schema, &cfg);
        store.bulk_insert(data);
        let back =
            deserialize_store(StoreKind::HilbertPdcMds, &schema, &cfg, &store.serialize()).unwrap();
        assert_eq!(back.items(), store.items());
        assert_eq!(back.stats().leaves, store.stats().leaves);
        let q = QueryBox::all(&schema);
        let (got, sent) = (back.query(&q), store.query(&q));
        assert_eq!(got.count, sent.count);
        assert_eq!(got.sum.to_bits(), sent.sum.to_bits());
        assert_eq!(
            (got.min.to_bits(), got.max.to_bits()),
            (sent.min.to_bits(), sent.max.to_bits())
        );
    }

    #[test]
    fn split_partitions_by_hyperplane() {
        let schema = Schema::uniform(2, 2, 16);
        let data = items(500, &schema);
        for kind in [StoreKind::HilbertPdcMds, StoreKind::PdcMbr] {
            let store = build_store(kind, &schema, &TreeConfig::default());
            store.bulk_insert(data.clone());
            let plan = store.split_query().expect("split must be possible");
            let (l, r) = store.split(&plan);
            assert_eq!(l.len() + r.len(), store.len(), "{kind}");
            assert!(!l.is_empty() && !r.is_empty(), "{kind}");
            for it in l.items() {
                assert!(!plan.side(&it));
            }
            for it in r.items() {
                assert!(plan.side(&it));
            }
            // Aggregates are preserved across the split.
            let q = QueryBox::all(&schema);
            let mut merged = l.query(&q);
            merged.merge(&r.query(&q));
            assert_eq!(merged.count, store.query(&q).count, "{kind}");
        }
    }

    #[test]
    fn stats_reflect_structure() {
        let schema = Schema::uniform(2, 2, 8);
        let store = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
        store.bulk_insert(items(1000, &schema));
        let s = store.stats();
        assert_eq!(s.items, 1000);
        assert!(s.leaves > 1);
        assert!(s.height >= 2);
    }
}
