//! The flat-array shard store (benchmarking baseline, paper §III-D).

use volap_dims::{Aggregate, Item, Key, Mbr, QueryBox, Schema};
use volap_obs::lock::{LockClass, ObsRwLock};

use crate::tree::QueryTrace;

/// Single whole-store lock; never nested with any other class.
static ARRAY_CLASS: LockClass = LockClass::new("tree.array", 55);

/// A shard stored as a plain vector: O(1) amortized insert, O(n) query.
///
/// The paper ships this as one of the five shard structures "for
/// benchmarking purposes" — it is the floor any index must beat on queries
/// and the ceiling for raw ingestion.
pub struct ArrayStore {
    schema: Schema,
    inner: ObsRwLock<ArrayInner>,
}

struct ArrayInner {
    items: Vec<Item>,
    total: Aggregate,
    mbr: Mbr,
}

impl ArrayStore {
    /// Create an empty array store.
    pub fn new(schema: Schema) -> Self {
        let mbr = Mbr::empty(&schema);
        Self {
            schema,
            inner: ObsRwLock::new(
                &ARRAY_CLASS,
                ArrayInner {
                    items: Vec::new(),
                    total: Aggregate::empty(),
                    mbr,
                },
            ),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append one item.
    pub fn insert(&self, item: &Item) {
        let mut g = self.inner.write();
        g.total.add(item.measure);
        let schema = self.schema.clone();
        g.mbr.extend_item(&schema, item);
        g.items.push(item.clone());
    }

    /// Append many items.
    pub fn bulk_insert(&self, items: Vec<Item>) {
        let mut g = self.inner.write();
        let schema = self.schema.clone();
        for item in &items {
            g.total.add(item.measure);
            g.mbr.extend_item(&schema, item);
        }
        g.items.extend(items);
    }

    /// Linear-scan aggregate query.
    pub fn query_traced(&self, q: &QueryBox) -> (Aggregate, QueryTrace) {
        let g = self.inner.read();
        let mut agg = Aggregate::empty();
        for it in &g.items {
            if q.contains_item(it) {
                agg.add(it.measure);
            }
        }
        let trace = QueryTrace {
            nodes_visited: 1,
            items_scanned: g.items.len() as u64,
            ..QueryTrace::default()
        };
        (agg, trace)
    }

    /// Number of items.
    pub fn len(&self) -> u64 {
        self.inner.read().items.len() as u64
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Running total aggregate.
    pub fn total(&self) -> Aggregate {
        self.inner.read().total
    }

    /// Bounding rectangle.
    pub fn mbr(&self) -> Mbr {
        self.inner.read().mbr.clone()
    }

    /// Snapshot of all items.
    pub fn items(&self) -> Vec<Item> {
        self.inner.read().items.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_matches_manual_filter() {
        let schema = Schema::uniform(2, 2, 8);
        let store = ArrayStore::new(schema.clone());
        for i in 0..200u64 {
            store.insert(&Item::new(vec![i % 64, (i * 7) % 64], i as f64));
        }
        assert_eq!(store.len(), 200);
        let q = QueryBox::from_ranges(vec![(0, 31), (0, 63)]);
        let (agg, trace) = store.query_traced(&q);
        let expect: u64 = (0..200u64).filter(|i| i % 64 <= 31).count() as u64;
        assert_eq!(agg.count, expect);
        assert_eq!(trace.items_scanned, 200);
        assert_eq!(store.total().count, 200);
        assert!(!store.mbr().is_empty());
    }

    #[test]
    fn bulk_matches_point_inserts() {
        let schema = Schema::uniform(2, 2, 8);
        let a = ArrayStore::new(schema.clone());
        let b = ArrayStore::new(schema.clone());
        let items: Vec<Item> = (0..50).map(|i| Item::new(vec![i, 63 - i], 1.0)).collect();
        for it in &items {
            a.insert(it);
        }
        b.bulk_insert(items);
        assert_eq!(a.total(), b.total());
        assert_eq!(a.mbr(), b.mbr());
    }
}
