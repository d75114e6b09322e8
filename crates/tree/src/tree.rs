//! The concurrent tree underlying every PDC-family variant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use volap_dims::{Aggregate, HilbertMapper, Item, Key, Mbr, QueryBox, Schema};
use volap_hilbert::MAX_LIMBS;
use volap_obs::lock::{LockClass, ObsArcRwLockWriteGuard, ObsMutex, ObsRwLock};

use crate::leaf::LeafColumns;

/// The tree layer's slice of the global lock hierarchy (DESIGN.md §11.1).
/// The root pointer is taken before any node; node locks are chainable
/// (hand-over-hand coupling holds parent + child of the same class); the
/// stack pool is a leaf of the order.
static TREE_ROOT_CLASS: LockClass = LockClass::new("tree.root", 50);
pub(crate) static TREE_NODE_CLASS: LockClass = LockClass::new_chainable("tree.node", 51);
static STACK_POOL_CLASS: LockClass = LockClass::new("tree.stack_pool", 52);

/// Sizing and fill parameters shared by all tree variants.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum items per leaf node.
    pub leaf_cap: usize,
    /// Maximum children per directory node.
    pub dir_cap: usize,
    /// Minimum fraction of a node kept on each side of a split.
    pub min_fill: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            leaf_cap: 64,
            dir_cap: 16,
            min_fill: 0.35,
        }
    }
}

impl TreeConfig {
    pub(crate) fn min_leaf(&self) -> usize {
        ((self.leaf_cap as f64 * self.min_fill) as usize).max(1)
    }
    pub(crate) fn min_dir(&self) -> usize {
        ((self.dir_cap as f64 * self.min_fill) as usize).max(1)
    }
}

/// How inserts pick their path and how nodes split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPolicy {
    /// R-tree/PDC-tree style: descend into the child whose key grows with
    /// the least overlap against its siblings; split along the widest
    /// dimension. Insert cost grows with dimensionality.
    Geometric,
    /// Hilbert PDC / Hilbert R-tree style: children are ordered by their
    /// maximum Hilbert value (LHV); descend like a B+-tree on the item's
    /// compact Hilbert key and split at the least-overlap index (paper
    /// §III-D). `expand` applies the Figure-3 level expansion before the
    /// Hilbert mapping (true for Hilbert PDC, false for Hilbert R-tree).
    Hilbert {
        /// Apply the Figure-3 hierarchical level expansion.
        expand: bool,
    },
}

/// A directory slot: the child's key and maximum Hilbert value (LHV) live
/// in the parent (R-tree style), so routing never locks children.
pub(crate) struct DirEntry<K> {
    pub key: K,
    /// The largest key beneath the slot, in the tree's key words (empty
    /// under the geometric policy).
    pub lhv: Box<[u64]>,
    pub node: Arc<Node<K>>,
}

impl<K: Key> Clone for DirEntry<K> {
    fn clone(&self) -> Self {
        Self {
            key: self.key.clone(),
            lhv: self.lhv.clone(),
            node: Arc::clone(&self.node),
        }
    }
}

pub(crate) enum NodeChildren<K> {
    Dir(Vec<DirEntry<K>>),
    Leaf(LeafColumns),
}

pub(crate) struct NodeInner<K> {
    /// Cached aggregate of the whole subtree (the PDC tree's core trick).
    pub agg: Aggregate,
    pub children: NodeChildren<K>,
    /// Split away: replaced in its parent by two fresh halves, it stays
    /// intact for readers that queued it before. A directory's halves share
    /// its children, and later inserts extend the halves' slot keys, not
    /// this node's. Its keys may still prune (a stale key only misses rows
    /// inserted after the reader queued the node) but never prove a child
    /// covered: the child's aggregate keeps growing past the stale key.
    pub retired: bool,
}

/// A tree node: a lock around its contents. Inserts use write-lock coupling
/// (at most parent + child held); queries take read locks one at a time.
pub(crate) type Node<K> = ObsRwLock<NodeInner<K>>;

pub(crate) fn new_leaf<K: Key>(entries: LeafColumns, agg: Aggregate) -> Arc<Node<K>> {
    let inner = NodeInner {
        agg,
        children: NodeChildren::Leaf(entries),
        retired: false,
    };
    Arc::new(ObsRwLock::new(&TREE_NODE_CLASS, inner))
}

pub(crate) fn new_dir<K: Key>(entries: Vec<DirEntry<K>>, agg: Aggregate) -> Arc<Node<K>> {
    let inner = NodeInner {
        agg,
        children: NodeChildren::Dir(entries),
        retired: false,
    };
    Arc::new(ObsRwLock::new(&TREE_NODE_CLASS, inner))
}

/// Shortest run for which a materialized key union pays for itself: below
/// this, each path node extends its slot key per item directly.
const RUN_KEY_MIN: usize = 4;

/// Reusable buffers for the batch-insert run descent, so steady-state
/// batching performs no per-run allocation.
struct RunScratch<K: Key> {
    /// Retained write guards, root first.
    path: Vec<ObsArcRwLockWriteGuard<NodeInner<K>>>,
    /// Chosen child index per directory level of `path`.
    slots: Vec<usize>,
}

/// Per-query traversal statistics (used by the Figure 4/9 experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Nodes whose lock was taken.
    pub nodes_visited: u64,
    /// Directory entries answered from the cached aggregate.
    pub covered_hits: u64,
    /// Rows held by the visited leaves, whether the scan tested them or a
    /// per-column range proof settled them wholesale.
    pub items_scanned: u64,
    /// Directory entries pruned (no overlap).
    pub pruned: u64,
}

impl QueryTrace {
    /// Combine counters from another (partial) traversal. All fields are
    /// order-independent sums, so a shard's trace and its insertion
    /// queue's (or several shards') merge exactly.
    pub fn merge(&mut self, other: &QueryTrace) {
        self.nodes_visited += other.nodes_visited;
        self.covered_hits += other.covered_hits;
        self.items_scanned += other.items_scanned;
        self.pruned += other.pruned;
    }
}

/// A concurrent multi-dimensional aggregate index with cached per-node
/// aggregates: the PDC-tree family member selected by the key type `K` and
/// the [`InsertPolicy`].
pub struct ConcurrentTree<K: Key> {
    schema: Schema,
    cfg: TreeConfig,
    /// Whether queries may answer covered subtrees from cached node
    /// aggregates. `true` for the whole DC/PDC-tree lineage; `false` models
    /// the paper's *conventional* R-tree baselines (Figure 5), which must
    /// visit every item a query covers. Set from the store kind.
    pub(crate) aggregate_cache: bool,
    policy: InsertPolicy,
    mapper: Option<HilbertMapper>,
    /// Words per Hilbert key: the mapper's [`HilbertMapper::limbs`], 0
    /// without one.
    limbs: usize,
    root: ObsRwLock<Arc<Node<K>>>,
    len: AtomicU64,
    /// Cumulative node splits (root, preventive, and overflow), for
    /// observability: split rate is the structural cost of ingest.
    node_splits: AtomicU64,
    /// Recycled traversal stacks for the query path, so steady-
    /// state queries allocate nothing (one stack replaces the per-directory
    /// `Vec` the recursive walk used to build).
    stack_pool: ObsMutex<Vec<Vec<Arc<Node<K>>>>>,
}

impl<K: Key> ConcurrentTree<K> {
    /// Create an empty tree.
    pub fn new(schema: Schema, policy: InsertPolicy, cfg: TreeConfig) -> Self {
        assert!(cfg.leaf_cap >= 4, "leaf capacity too small");
        assert!(cfg.dir_cap >= 4, "directory capacity too small");
        let mapper = match policy {
            InsertPolicy::Geometric => None,
            InsertPolicy::Hilbert { expand } => Some(HilbertMapper::new(&schema, expand)),
        };
        let limbs = mapper.as_ref().map_or(0, HilbertMapper::limbs);
        Self {
            root: ObsRwLock::new(
                &TREE_ROOT_CLASS,
                new_leaf(
                    LeafColumns::new(schema.dims(), limbs, cfg.leaf_cap),
                    Aggregate::empty(),
                ),
            ),
            schema,
            cfg,
            aggregate_cache: true,
            policy,
            mapper,
            limbs,
            len: AtomicU64::new(0),
            node_splits: AtomicU64::new(0),
            stack_pool: ObsMutex::new(&STACK_POOL_CLASS, Vec::new()),
        }
    }

    /// The schema this tree indexes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of items.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative count of node splits performed by inserts.
    pub fn node_splits(&self) -> u64 {
        self.node_splits.load(Ordering::Relaxed)
    }

    /// An empty tree of the same schema, policy, configuration and
    /// aggregate caching.
    pub(crate) fn empty_like(&self) -> Self {
        let mut tree = Self::new(self.schema.clone(), self.policy, self.cfg.clone());
        tree.aggregate_cache = self.aggregate_cache;
        tree
    }

    /// Whether rows are kept in Hilbert-key order.
    pub(crate) fn is_hilbert(&self) -> bool {
        self.mapper.is_some()
    }

    /// An empty leaf's columns with room for exactly `rows` rows.
    pub(crate) fn leaf_columns(&self, rows: usize) -> LeafColumns {
        LeafColumns::with_capacity(self.schema.dims(), self.limbs, self.cfg.leaf_cap, rows)
    }

    /// `items` as one column set in the order a packed tree stores them
    /// (see [`Self::sorted_rows`]), each row with its key.
    pub(crate) fn storage_rows(&self, items: &[Item]) -> LeafColumns {
        let (keys, order) = self.sorted_rows(items);
        let l = self.limbs;
        let mut rows = self.leaf_columns(items.len());
        for &i in &order {
            let i = i as usize;
            rows.push_row(
                &items[i].coords,
                items[i].measure,
                &keys[i * l..(i + 1) * l],
            );
        }
        rows
    }

    /// The Hilbert key of every item, `limbs` words each in item order (none
    /// under the geometric policy), and the item indices in the order a
    /// packed tree stores them: by key under a Hilbert policy, by
    /// coordinates otherwise, ties by index.
    pub(crate) fn sorted_rows(&self, items: &[Item]) -> (Vec<u64>, Vec<u32>) {
        let mut order: Vec<u32> = (0..items.len() as u32).collect();
        let Some(mapper) = &self.mapper else {
            order.sort_by(|&a, &b| items[a as usize].coords.cmp(&items[b as usize].coords));
            return (Vec::new(), order);
        };
        let l = self.limbs;
        let mut keys = vec![0u64; items.len() * l];
        for (it, key) in items.iter().zip(keys.chunks_exact_mut(l)) {
            debug_assert_eq!(it.coords.len(), self.schema.dims());
            mapper.key_into(&it.coords, key);
        }
        let key = |i: u32| &keys[i as usize * l..(i as usize + 1) * l];
        order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        (keys, order)
    }

    fn is_full(&self, inner: &NodeInner<K>) -> bool {
        match &inner.children {
            NodeChildren::Leaf(e) => e.len() >= self.cfg.leaf_cap,
            NodeChildren::Dir(e) => e.len() >= self.cfg.dir_cap,
        }
    }

    /// Insert one item. Thread-safe; may run concurrently with queries and
    /// other inserts. Node aggregates along the path are updated on the way
    /// down, so a concurrent query may transiently observe the aggregate
    /// before the item reaches its leaf — completed inserts are always
    /// visible to later queries.
    pub fn insert(&self, item: &Item) {
        debug_assert_eq!(item.coords.len(), self.schema.dims());
        let mut buf = [0u64; MAX_LIMBS];
        let hkey = &mut buf[..self.limbs];
        if let Some(mapper) = &self.mapper {
            mapper.key_into(&item.coords, hkey);
        }
        self.insert_keyed(item, hkey);
    }

    /// The per-item insert path, with the Hilbert key (empty under the
    /// geometric policy) already computed — shared by [`Self::insert`] and
    /// the batch path's split fallback, which must not recompute keys.
    fn insert_keyed(&self, item: &Item, hkey: &[u64]) {
        'retry: loop {
            let root_arc = Arc::clone(&self.root.read());
            let mut cur = ObsRwLock::write_arc(&root_arc);
            if self.is_full(&cur) {
                drop(cur);
                self.split_root(&root_arc);
                continue 'retry;
            }
            cur.agg.add(item.measure);
            loop {
                let next = match &mut cur.children {
                    NodeChildren::Leaf(rows) => {
                        rows.insert(rows.hkey_partition_point(0, hkey), item, hkey);
                        self.len.fetch_add(1, Ordering::AcqRel);
                        return;
                    }
                    NodeChildren::Dir(entries) => loop {
                        let idx = self.choose_child(entries, item, hkey);
                        let child_arc = Arc::clone(&entries[idx].node);
                        let mut child_guard = ObsRwLock::write_arc(&child_arc);
                        if self.is_full(&child_guard) {
                            // Preventive split: replace the slot with two
                            // fresh nodes and re-choose. The old node is
                            // left untouched so in-flight readers keep a
                            // complete snapshot.
                            let (left, right) = self.split_node(&mut child_guard);
                            drop(child_guard);
                            entries[idx] = left;
                            entries.insert(idx + 1, right);
                            continue;
                        }
                        // Route through this child: grow its key (and LHV)
                        // in the parent slot before handing the lock over.
                        entries[idx].key.extend_item(&self.schema, item);
                        raise_lhv(&mut entries[idx].lhv, hkey);
                        break child_guard;
                    },
                };
                let mut next = next;
                next.agg.add(item.measure);
                cur = next; // parent guard released here
            }
        }
    }

    /// Insert a batch of items. Equivalent to calling [`Self::insert`] on
    /// each item, but amortized: all Hilbert keys are computed up front
    /// into one flat buffer, the batch is sorted by key, and
    /// key-adjacent runs descend the tree once per run instead of once per
    /// item, updating the aggregates and keys of each path node once per
    /// run.
    ///
    /// Thread-safe and linearizable per run: a run's descent retains the
    /// write guards of its whole path and applies no mutation until the
    /// leaf has fixed the run size, so concurrent queries never observe a
    /// partially applied run, and concurrent inserts order before or after
    /// it exactly as with per-item inserts. Encountering a full node
    /// mid-descent falls back to the per-item path (which performs the
    /// preventive split) for the head of the run, then resumes batching.
    ///
    /// The geometric policy has no key order to exploit and degenerates to
    /// the per-item loop.
    pub fn insert_batch(&self, items: &[Item]) {
        if self.mapper.is_none() || items.len() < 2 {
            for it in items {
                self.insert(it);
            }
            return;
        }
        let (keys, order) = self.sorted_rows(items);
        // Scratch reused across runs so steady-state batching allocates
        // nothing per run.
        let mut scratch = RunScratch {
            path: Vec::new(),
            slots: Vec::new(),
        };
        let mut start = 0;
        while start < order.len() {
            start += self.insert_run(items, &keys, &order, start, &mut scratch);
        }
    }

    /// Insert one key-adjacent run starting at `order[start]` with a single
    /// locked descent; returns how many items were consumed (≥ 1). `order`
    /// lists item indices sorted by key, and item `i`'s key is
    /// `keys[i * limbs..(i + 1) * limbs]`.
    ///
    /// The descent retains the write guard of every node on the path. At
    /// each directory it narrows the run to the keys the chosen child's LHV
    /// routes to it; at the leaf it caps the run at the leaf's free space.
    /// Only then — run size final, whole path still locked — does it apply
    /// the aggregate, key, and LHV updates for exactly the inserted items,
    /// and it applies them once per path node (the run's aggregate and key
    /// union are built once and merged in), not once per item per node.
    /// Updating top-down during the descent instead would over-count
    /// ancestors whenever the run shrinks further down (min/max cannot be
    /// un-merged from an aggregate).
    fn insert_run(
        &self,
        items: &[Item],
        keys: &[u64],
        order: &[u32],
        start: usize,
        scratch: &mut RunScratch<K>,
    ) -> usize {
        let l = self.limbs;
        let item_key = |i: u32| &keys[i as usize * l..(i as usize + 1) * l];
        let key = |p: usize| item_key(order[p]);
        'retry: loop {
            let root_arc = Arc::clone(&self.root.read());
            let root_guard = ObsRwLock::write_arc(&root_arc);
            if self.is_full(&root_guard) {
                drop(root_guard);
                self.split_root(&root_arc);
                continue 'retry;
            }
            let path = &mut scratch.path;
            path.clear();
            path.push(root_guard);
            // Chosen child index per directory level of `path`.
            let slots = &mut scratch.slots;
            slots.clear();
            let mut run_end = order.len();
            loop {
                let step = match &path.last().unwrap().children {
                    NodeChildren::Leaf(_) => None,
                    NodeChildren::Dir(entries) => {
                        let idx = hilbert_child(entries, key(start));
                        // Keys above this child's LHV route to a later
                        // sibling — unless this is the last child, which
                        // takes everything that reaches it.
                        if idx + 1 < entries.len() {
                            let lhv = &*entries[idx].lhv;
                            run_end = start
                                + order[start..run_end].partition_point(|&i| item_key(i) <= lhv);
                            debug_assert!(run_end > start, "chosen child must accept the run head");
                        }
                        Some((idx, Arc::clone(&entries[idx].node)))
                    }
                };
                let Some((idx, child_arc)) = step else { break };
                let child_guard = ObsRwLock::write_arc(&child_arc);
                if self.is_full(&child_guard) {
                    // Full child mid-descent. Nothing has been mutated yet,
                    // so retreat entirely and push the head of the run
                    // through the per-item path, which performs the
                    // preventive split; the batch loop then resumes.
                    drop(child_guard);
                    path.clear();
                    self.insert_keyed(&items[order[start] as usize], key(start));
                    return 1;
                }
                slots.push(idx);
                path.push(child_guard);
            }
            // Reached a non-full leaf: the run size is now final.
            let leaf_len = match &path.last().unwrap().children {
                NodeChildren::Leaf(l) => l.len(),
                NodeChildren::Dir(_) => unreachable!(),
            };
            let k = (run_end - start).min(self.cfg.leaf_cap - leaf_len);
            debug_assert!(k >= 1);
            let run = &order[start..start + k];
            // Build the run's aggregate once; every path node merges it in
            // one step instead of once per item. The key union is only
            // materialized for longer runs — for a handful of items,
            // extending each slot key directly is cheaper than building and
            // merging an intermediate key.
            let mut run_agg = Aggregate::empty();
            for &i in run {
                run_agg.add(items[i as usize].measure);
            }
            let run_key = (k >= RUN_KEY_MIN).then(|| {
                let mut union = K::empty(&self.schema);
                for &i in run {
                    union.extend_item(&self.schema, &items[i as usize]);
                }
                union
            });
            let run_max = key(start + k - 1);
            for (depth, guard) in path.iter_mut().enumerate() {
                guard.agg.merge(&run_agg);
                if let NodeChildren::Dir(entries) = &mut guard.children {
                    let idx = slots[depth];
                    match &run_key {
                        Some(union) => entries[idx].key.extend_key(&self.schema, union),
                        None => {
                            for &i in run {
                                entries[idx]
                                    .key
                                    .extend_item(&self.schema, &items[i as usize]);
                            }
                        }
                    }
                    raise_lhv(&mut entries[idx].lhv, run_max);
                }
            }
            if let NodeChildren::Leaf(leaf) = &mut path.last_mut().unwrap().children {
                leaf.insert_run(items, keys, run);
            }
            path.clear(); // release leaf-to-root, after all updates
            self.len.fetch_add(k as u64, Ordering::AcqRel);
            return k;
        }
    }

    /// Split a full root by building two fresh children and swapping the
    /// root pointer. The old root stays intact for concurrent readers.
    fn split_root(&self, old_root: &Arc<Node<K>>) {
        let mut rp = self.root.write();
        if !Arc::ptr_eq(&rp, old_root) {
            return; // someone else already replaced it
        }
        let mut guard = old_root.write();
        if !self.is_full(&guard) {
            return; // someone else already split it
        }
        let (left, right) = self.split_node(&mut guard);
        let agg = guard.agg;
        drop(guard);
        *rp = new_dir(vec![left, right], agg);
    }

    /// Partition a full node's contents into two fresh nodes, choosing the
    /// split point that minimizes overlap between the resulting keys
    /// (paper §III-D), and retire the node. Returns the two parent slots.
    fn split_node(&self, inner: &mut NodeInner<K>) -> (DirEntry<K>, DirEntry<K>) {
        self.node_splits.fetch_add(1, Ordering::Relaxed);
        inner.retired = true;
        match &inner.children {
            NodeChildren::Leaf(cols) => {
                let n = cols.len();
                let mut scratch = Item {
                    coords: vec![0u64; self.schema.dims()].into(),
                    measure: 0.0,
                };
                if self.mapper.is_some() {
                    // Hilbert rows are already key-ordered: choose the split
                    // over the rows in place and duplicate each side with a
                    // few column memcpys. Splits sit on both ingest hot
                    // paths, so this is where allocation pressure matters.
                    let split = self.best_split_rows(n, self.cfg.min_leaf(), |key, i| {
                        cols.read_row_into(i, &mut scratch);
                        key.extend_item(&self.schema, &scratch);
                    });
                    return (
                        self.leaf_slot(cols.clone_range(0..split)),
                        self.leaf_slot(cols.clone_range(split..n)),
                    );
                }
                // Geometric policy: rows carry no global order, so order
                // them along the widest dimension first.
                let order = geometric_order(&self.schema, cols);
                let keys: Vec<K> = order
                    .iter()
                    .map(|&i| {
                        cols.read_row_into(i as usize, &mut scratch);
                        K::from_item(&self.schema, &scratch)
                    })
                    .collect();
                let split = self.best_split_rows(n, self.cfg.min_leaf(), |acc, i| {
                    acc.extend_key(&self.schema, &keys[i]);
                });
                (
                    self.leaf_slot(cols.gather(&order[..split])),
                    self.leaf_slot(cols.gather(&order[split..])),
                )
            }
            NodeChildren::Dir(entries) => {
                let mut sorted: Vec<DirEntry<K>> = entries.clone();
                if self.mapper.is_none() {
                    sort_dir_geometric(&self.schema, &mut sorted);
                }
                let split = self.best_split_rows(sorted.len(), self.cfg.min_dir(), |acc, i| {
                    acc.extend_key(&self.schema, &sorted[i].key);
                });
                let right_entries = sorted.split_off(split);
                (
                    self.make_dir_slot(sorted),
                    self.make_dir_slot(right_entries),
                )
            }
        }
    }

    /// Parent slot for a leaf: the slot key is built by streaming rows
    /// through one reused coordinate buffer, and the LHV is the last row's
    /// key (Hilbert rows are key-sorted; geometric rows have none).
    pub(crate) fn leaf_slot(&self, cols: LeafColumns) -> DirEntry<K> {
        let n = cols.len();
        debug_assert!(n > 0, "a split or pack produced an empty leaf");
        let mut key = K::empty(&self.schema);
        let mut agg = Aggregate::empty();
        let mut scratch = Item {
            coords: vec![0u64; self.schema.dims()].into(),
            measure: 0.0,
        };
        for i in 0..n {
            cols.read_row_into(i, &mut scratch);
            key.extend_item(&self.schema, &scratch);
            agg.add(scratch.measure);
        }
        DirEntry {
            key,
            lhv: cols.hkey(n - 1).into(),
            node: new_leaf(cols, agg),
        }
    }

    pub(crate) fn make_dir_slot(&self, entries: Vec<DirEntry<K>>) -> DirEntry<K> {
        let mut key = K::empty(&self.schema);
        let mut agg = Aggregate::empty();
        for e in &entries {
            key.extend_key(&self.schema, &e.key);
            agg.merge(&e.node.read().agg);
        }
        let lhv = entries
            .iter()
            .map(|e| &e.lhv)
            .max()
            .cloned()
            .unwrap_or_default();
        DirEntry {
            key,
            lhv,
            node: new_dir(entries, agg),
        }
    }

    /// Least-overlap split index over an ordered sequence of `n` rows, where
    /// `extend(acc, i)` folds row `i`'s key into an accumulator: evaluates
    /// every legal split in linear time via prefix/suffix key unions and
    /// returns the index minimizing overlap between the two sides (balance
    /// breaks ties). Taking an accessor instead of `&[K]` lets the Hilbert
    /// leaf path split without materializing a key per row.
    fn best_split_rows(
        &self,
        n: usize,
        min_fill: usize,
        mut extend: impl FnMut(&mut K, usize),
    ) -> usize {
        debug_assert!(n >= 2);
        let min = min_fill.min(n / 2).max(1);
        let lo = min;
        let hi = n - min;
        // Only splits in [lo, hi] are legal, so only those key unions are
        // ever compared: run one accumulator through the mandatory head
        // (tail), and materialize clones for the candidate window alone.
        // prefix[i - lo] = union of rows 0..i, for i in lo..=hi.
        let mut acc = K::empty(&self.schema);
        for i in 0..lo {
            extend(&mut acc, i);
        }
        let mut prefix = Vec::with_capacity(hi - lo + 1);
        for i in lo..hi {
            prefix.push(acc.clone());
            extend(&mut acc, i);
        }
        prefix.push(acc);
        // suffix[i - lo] = union of rows i..n, for i in lo..=hi.
        let mut acc = K::empty(&self.schema);
        for i in hi..n {
            extend(&mut acc, i);
        }
        let mut suffix = Vec::with_capacity(hi - lo + 1);
        for i in (lo..hi).rev() {
            suffix.push(acc.clone());
            extend(&mut acc, i);
        }
        suffix.push(acc);
        suffix.reverse();
        let mut best = lo;
        let mut best_cost = (f64::INFINITY, usize::MAX);
        for i in lo..=hi {
            let overlap = prefix[i - lo].overlap_frac(&self.schema, &suffix[i - lo]);
            let balance = (2 * i).abs_diff(n);
            if (overlap, balance) < best_cost {
                best_cost = (overlap, balance);
                best = i;
            }
        }
        best
    }

    fn choose_child(&self, entries: &[DirEntry<K>], item: &Item, hkey: &[u64]) -> usize {
        debug_assert!(!entries.is_empty());
        if !hkey.is_empty() {
            return hilbert_child(entries, hkey);
        }
        // Prefer a child that already contains the item (smallest
        // volume wins), mirroring R*-style descent.
        let mut best_contained: Option<(usize, f64)> = None;
        for (i, e) in entries.iter().enumerate() {
            if e.key.contains_item(item) {
                let v = e.key.volume_frac(&self.schema);
                if best_contained.is_none_or(|(_, bv)| v < bv) {
                    best_contained = Some((i, v));
                }
            }
        }
        if let Some((i, _)) = best_contained {
            return i;
        }
        // Otherwise minimize the overlap increase against siblings
        // ("the high global cost of overlap dominates", §III-C).
        let mut best = 0usize;
        let mut best_cost = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let mut grown = e.key.clone();
            grown.extend_item(&self.schema, item);
            let mut inc = 0.0;
            for (j, other) in entries.iter().enumerate() {
                if i != j {
                    inc += grown.overlap_frac(&self.schema, &other.key)
                        - e.key.overlap_frac(&self.schema, &other.key);
                }
            }
            let enlarge = grown.volume_frac(&self.schema) - e.key.volume_frac(&self.schema);
            let vol = e.key.volume_frac(&self.schema);
            let cost = (inc, enlarge, vol);
            if cost < best_cost {
                best_cost = cost;
                best = i;
            }
        }
        best
    }

    /// Aggregate every item inside `q`.
    pub fn query(&self, q: &QueryBox) -> Aggregate {
        self.query_traced(q).0
    }

    /// Aggregate with traversal statistics.
    pub fn query_traced(&self, q: &QueryBox) -> (Aggregate, QueryTrace) {
        self.query_within(q, u64::MAX)
            .expect("an unbounded walk always completes")
    }

    /// [`Self::query_traced`] limited to `max_nodes` node visits: `None`
    /// when answering `q` would visit more (so `max_nodes = 1` answers
    /// exactly the queries resolved at the root — by cached aggregates,
    /// pruning, or a root that is a leaf). A completed walk returns the
    /// same aggregate and counters as the unbounded one.
    ///
    /// Single-threaded: walks the tree with an explicit stack recycled
    /// across calls, so the steady state performs no allocation at all.
    pub fn query_within(&self, q: &QueryBox, max_nodes: u64) -> Option<(Aggregate, QueryTrace)> {
        debug_assert_eq!(q.dims(), self.schema.dims());
        let mut trace = QueryTrace::default();
        let mut agg = Aggregate::empty();
        let mut complete = true;
        let mut stack = self.stack_pool.lock().pop().unwrap_or_default();
        stack.push(Arc::clone(&self.root.read()));
        // Scan each leaf reached; in a directory, prune, consume cached
        // aggregates, and push the children that still need a visit.
        while let Some(node) = stack.pop() {
            if trace.nodes_visited == max_nodes {
                // Give up; the stack goes back to the pool empty.
                stack.clear();
                complete = false;
                break;
            }
            trace.nodes_visited += 1;
            let guard = node.read();
            match &guard.children {
                NodeChildren::Leaf(entries) => {
                    trace.items_scanned += entries.len() as u64;
                    entries.scan(q, &mut agg);
                }
                NodeChildren::Dir(entries) => {
                    let may_cover = self.aggregate_cache && !guard.retired;
                    for e in entries {
                        if !e.key.overlaps_query(q) {
                            trace.pruned += 1;
                        } else if may_cover && e.key.covered_by_query(q) {
                            // Coverage resilience: consume the cached aggregate.
                            trace.covered_hits += 1;
                            agg.merge(&e.node.read().agg);
                        } else {
                            stack.push(Arc::clone(&e.node));
                        }
                    }
                }
            }
        }
        let mut pool = self.stack_pool.lock();
        if pool.len() < 8 {
            pool.push(stack);
        }
        complete.then_some((agg, trace))
    }

    /// Bounding rectangle of the whole tree.
    pub fn mbr(&self) -> Mbr {
        let root = Arc::clone(&self.root.read());
        let guard = root.read();
        match &guard.children {
            NodeChildren::Leaf(entries) => {
                let mut m = Mbr::empty_with_dims(self.schema.dims());
                for i in 0..entries.len() {
                    m.extend_item(&self.schema, &entries.item(i));
                }
                m
            }
            NodeChildren::Dir(entries) => {
                let mut m = Mbr::empty_with_dims(self.schema.dims());
                for e in entries {
                    m.extend_mbr(&e.key.to_mbr(&self.schema));
                }
                m
            }
        }
    }

    /// Aggregate of the whole tree (root cache).
    pub fn total(&self) -> Aggregate {
        self.root.read().read().agg
    }

    /// Snapshot every item, in leaf order (used by migration and tests).
    pub fn items(&self) -> Vec<Item> {
        let mut out = Vec::with_capacity(self.len() as usize);
        self.for_each_leaf(|leaf| leaf.append_items(&mut out));
        out
    }

    /// Every row's coordinates, one column per dimension, in leaf order:
    /// what [`crate::SplitPlan::plan_median`] reads.
    pub(crate) fn columns(&self) -> Vec<Vec<u64>> {
        let n = self.len() as usize;
        let mut cols: Vec<Vec<u64>> = (0..self.schema.dims())
            .map(|_| Vec::with_capacity(n))
            .collect();
        self.for_each_leaf(|leaf| {
            for (d, col) in cols.iter_mut().enumerate() {
                col.extend_from_slice(leaf.column(d));
            }
        });
        cols
    }

    /// Call `f` on every leaf, left to right, each under its own read guard.
    pub fn for_each_leaf(&self, mut f: impl FnMut(&LeafColumns)) {
        let root = Arc::clone(&self.root.read());
        Self::visit_leaves(&root, &mut f);
    }

    fn visit_leaves(node: &Arc<Node<K>>, f: &mut impl FnMut(&LeafColumns)) {
        let guard = node.read();
        match &guard.children {
            NodeChildren::Leaf(entries) => f(entries),
            NodeChildren::Dir(entries) => {
                let children: Vec<_> = entries.iter().map(|e| Arc::clone(&e.node)).collect();
                drop(guard);
                for c in children {
                    Self::visit_leaves(&c, f);
                }
            }
        }
    }

    /// Check the tree's invariants at rest: every leaf passes
    /// [`LeafColumns::check`], and under a Hilbert policy every row stores
    /// the key of its coordinates, every leaf is sorted by key, and every
    /// slot's LHV is the largest key beneath it, so sibling LHVs ascend.
    /// Takes each node's read lock in turn, so concurrent inserts can make
    /// it report a transient violation.
    pub fn check(&self) -> Result<(), String> {
        let root = Arc::clone(&self.root.read());
        self.check_node(&root).map(drop)
    }

    /// [`Self::check`] on the subtree at `node`; returns its largest key.
    fn check_node(&self, node: &Arc<Node<K>>) -> Result<Box<[u64]>, String> {
        let guard = node.read();
        let slots: Vec<_> = match &guard.children {
            NodeChildren::Leaf(rows) => {
                rows.check()?;
                let mut key = vec![0; self.limbs];
                for i in 0..rows.len() {
                    if let Some(mapper) = &self.mapper {
                        mapper.key_into(&rows.item(i).coords, &mut key);
                        if rows.hkey(i) != key {
                            return Err(format!(
                                "row {i} stores key {:x?}, its coordinates map to {key:x?}",
                                rows.hkey(i)
                            ));
                        }
                    }
                    if i > 0 && rows.hkey(i - 1) > rows.hkey(i) {
                        return Err(format!("leaf rows {} and {i} out of key order", i - 1));
                    }
                }
                return Ok(rows
                    .len()
                    .checked_sub(1)
                    .map_or(Box::default(), |i| rows.hkey(i).into()));
            }
            NodeChildren::Dir(entries) => entries
                .iter()
                .map(|e| (e.lhv.clone(), Arc::clone(&e.node)))
                .collect(),
        };
        drop(guard);
        let mut last = Box::default();
        for (i, (lhv, child)) in slots.into_iter().enumerate() {
            let max = self.check_node(&child)?;
            if lhv != max {
                return Err(format!(
                    "slot {i}'s LHV {lhv:x?} is not the largest key beneath it, {max:x?}"
                ));
            }
            if lhv < last {
                return Err(format!(
                    "slot {i}'s LHV {lhv:x?} is below its left sibling's"
                ));
            }
            last = lhv;
        }
        Ok(last)
    }

    /// Structural statistics (node counts, height).
    pub fn structure(&self) -> TreeStructure {
        let root = Arc::clone(&self.root.read());
        let mut s = TreeStructure::default();
        self.walk_structure(&root, 1, &mut s);
        s
    }

    fn walk_structure(&self, node: &Arc<Node<K>>, depth: u32, s: &mut TreeStructure) {
        s.height = s.height.max(depth);
        let guard = node.read();
        match &guard.children {
            NodeChildren::Leaf(entries) => {
                s.leaves += 1;
                s.leaf_entries += entries.len() as u64;
            }
            NodeChildren::Dir(entries) => {
                s.dirs += 1;
                let children: Vec<_> = entries.iter().map(|e| Arc::clone(&e.node)).collect();
                drop(guard);
                for c in children {
                    self.walk_structure(&c, depth + 1, s);
                }
            }
        }
    }

    /// Move the contents of `packed`, a root bulk-loaded from `len` items, into
    /// the root node — only if the tree is still empty; returns whether it
    /// did. Check and install happen under the root node's write guard,
    /// which every insert takes first, so a concurrent insert lands either
    /// before (the install is refused) or after (it descends the loaded
    /// tree). An empty leaf root is never replaced by a root split, so the
    /// node locked is the root.
    pub(crate) fn install_bulk(&self, packed: Arc<Node<K>>, len: u64) -> bool {
        let root = Arc::clone(&self.root.read());
        let mut guard = root.write();
        if !matches!(&guard.children, NodeChildren::Leaf(rows) if rows.is_empty()) {
            return false;
        }
        *guard = Arc::into_inner(packed)
            .expect("a packed root is unshared")
            .into_inner();
        self.len.fetch_add(len, Ordering::AcqRel);
        true
    }

    pub(crate) fn cfg(&self) -> &TreeConfig {
        &self.cfg
    }
}

/// Structural statistics of a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStructure {
    /// Number of directory nodes.
    pub dirs: u64,
    /// Number of leaf nodes.
    pub leaves: u64,
    /// Total stored items.
    pub leaf_entries: u64,
    /// Tree height (1 = a single leaf).
    pub height: u32,
}

/// Hilbert descent: the first child whose LHV bounds `hkey`, else the last.
fn hilbert_child<K>(entries: &[DirEntry<K>], hkey: &[u64]) -> usize {
    entries
        .iter()
        .position(|e| *e.lhv >= *hkey)
        .unwrap_or(entries.len() - 1)
}

/// Raise a slot's LHV to `hkey` if that is larger (a no-op on the empty
/// keys of the geometric policy).
#[inline]
fn raise_lhv(lhv: &mut [u64], hkey: &[u64]) {
    if hkey > &*lhv {
        lhv.copy_from_slice(hkey);
    }
}

/// A leaf's rows ordered along the dimension with the widest coordinate
/// spread (classic linear split axis choice), ties in row order.
fn geometric_order(schema: &Schema, cols: &LeafColumns) -> Vec<u32> {
    let mut best_dim = 0usize;
    let mut best_spread = -1.0f64;
    for d in 0..schema.dims() {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &c in cols.column(d) {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let spread = (hi.saturating_sub(lo)) as f64 / schema.dim(d).ordinal_end() as f64;
        if spread > best_spread {
            best_spread = spread;
            best_dim = d;
        }
    }
    let col = cols.column(best_dim);
    let mut order: Vec<u32> = (0..cols.len() as u32).collect();
    order.sort_by_key(|&i| col[i as usize]);
    order
}

/// Sort directory entries by their key hull's center along the widest axis.
fn sort_dir_geometric<K: Key>(schema: &Schema, entries: &mut Vec<DirEntry<K>>) {
    let dims = schema.dims();
    let hulls: Vec<Mbr> = entries.iter().map(|e| e.key.to_mbr(schema)).collect();
    let mut best_dim = 0usize;
    let mut best_spread = -1.0f64;
    for d in 0..dims {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for h in &hulls {
            if let Some(r) = h.ranges() {
                lo = lo.min(r[d].0);
                hi = hi.max(r[d].1);
            }
        }
        if lo == u64::MAX {
            continue;
        }
        let spread = (hi - lo) as f64 / schema.dim(d).ordinal_end() as f64;
        if spread > best_spread {
            best_spread = spread;
            best_dim = d;
        }
    }
    let mut indexed: Vec<(u64, DirEntry<K>)> = entries
        .drain(..)
        .zip(hulls)
        .map(|(e, h)| {
            let center = h
                .ranges()
                .map_or(0, |r| r[best_dim].0 / 2 + r[best_dim].1 / 2);
            (center, e)
        })
        .collect();
    indexed.sort_by_key(|(c, _)| *c);
    entries.extend(indexed.into_iter().map(|(_, e)| e));
}

#[cfg(test)]
mod tests {
    use super::*;
    use volap_dims::Mds;

    fn small_cfg() -> TreeConfig {
        TreeConfig {
            leaf_cap: 8,
            dir_cap: 4,
            ..TreeConfig::default()
        }
    }

    fn items_grid(schema: &Schema, n: u64) -> Vec<Item> {
        // Deterministic pseudo-random items via a simple LCG.
        let mut state = 0x9E3779B97F4A7C15u64;
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
                Item::new(coords, (i % 100) as f64)
            })
            .collect()
    }

    #[test]
    fn insert_then_total_matches() {
        let schema = Schema::uniform(3, 2, 8);
        for policy in [
            InsertPolicy::Geometric,
            InsertPolicy::Hilbert { expand: true },
        ] {
            let tree: ConcurrentTree<Mds> =
                ConcurrentTree::new(schema.clone(), policy, small_cfg());
            let items = items_grid(&schema, 500);
            let mut expect = Aggregate::empty();
            for it in &items {
                tree.insert(it);
                expect.add(it.measure);
            }
            assert_eq!(tree.len(), 500);
            let total = tree.total();
            assert_eq!(total.count, expect.count);
            assert!((total.sum - expect.sum).abs() < 1e-6);
            assert_eq!(total.min, expect.min);
            assert_eq!(total.max, expect.max);
            tree.check().unwrap();
        }
    }

    #[test]
    fn queries_match_brute_force() {
        let schema = Schema::uniform(3, 2, 8);
        let items = items_grid(&schema, 800);
        let queries = [
            QueryBox::all(&schema),
            QueryBox::from_ranges(vec![(0, 20), (0, 63), (0, 63)]),
            QueryBox::from_ranges(vec![(10, 40), (5, 35), (0, 63)]),
            QueryBox::from_ranges(vec![(63, 63), (63, 63), (63, 63)]),
        ];
        for policy in [
            InsertPolicy::Geometric,
            InsertPolicy::Hilbert { expand: true },
            InsertPolicy::Hilbert { expand: false },
        ] {
            let mbr_tree: ConcurrentTree<Mbr> =
                ConcurrentTree::new(schema.clone(), policy, small_cfg());
            let mds_tree: ConcurrentTree<Mds> =
                ConcurrentTree::new(schema.clone(), policy, small_cfg());
            for it in &items {
                mbr_tree.insert(it);
                mds_tree.insert(it);
            }
            for q in &queries {
                let mut expect = Aggregate::empty();
                for it in items.iter().filter(|it| q.contains_item(it)) {
                    expect.add(it.measure);
                }
                for (name, got) in [("mbr", mbr_tree.query(q)), ("mds", mds_tree.query(q))] {
                    assert_eq!(got.count, expect.count, "{name} {policy:?} count mismatch");
                    assert!(
                        (got.sum - expect.sum).abs() < 1e-6,
                        "{name} {policy:?} sum mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn full_coverage_uses_cached_aggregates() {
        let schema = Schema::uniform(2, 2, 16);
        let tree: ConcurrentTree<Mds> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: true },
            small_cfg(),
        );
        for it in items_grid(&schema, 2000) {
            tree.insert(&it);
        }
        let (_, trace) = tree.query_traced(&QueryBox::all(&schema));
        // The whole-database query must be answered at the root's children.
        assert!(trace.covered_hits >= 1);
        assert_eq!(trace.items_scanned, 0, "full coverage must not scan leaves");
    }

    #[test]
    fn structure_is_balanced_by_construction() {
        let schema = Schema::uniform(2, 2, 16);
        for policy in [
            InsertPolicy::Geometric,
            InsertPolicy::Hilbert { expand: true },
        ] {
            let tree: ConcurrentTree<Mbr> =
                ConcurrentTree::new(schema.clone(), policy, small_cfg());
            for it in items_grid(&schema, 3000) {
                tree.insert(&it);
            }
            let s = tree.structure();
            assert_eq!(s.leaf_entries, 3000);
            assert!(s.height >= 2);
            // Preventive splits keep every node within capacity.
            assert!(s.leaf_entries <= s.leaves * small_cfg().leaf_cap as u64);
        }
    }

    #[test]
    fn concurrent_inserts_and_queries_are_safe() {
        let schema = Schema::uniform(3, 2, 8);
        let tree: Arc<ConcurrentTree<Mds>> = Arc::new(ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: true },
            small_cfg(),
        ));
        let items = items_grid(&schema, 4000);
        let n_threads = 4;
        let chunk = items.len() / n_threads;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let tree = Arc::clone(&tree);
                let slice = items[t * chunk..(t + 1) * chunk].to_vec();
                s.spawn(move || {
                    for it in slice {
                        tree.insert(&it);
                    }
                });
            }
            // Concurrent readers: must not deadlock or panic, and the total
            // they see must only ever grow.
            let qtree = Arc::clone(&tree);
            let q = QueryBox::all(&schema);
            s.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let (agg, _) = qtree.query_traced(&q);
                    assert!(
                        agg.count >= last,
                        "total count went backwards: {last} -> {}",
                        agg.count
                    );
                    last = agg.count;
                }
            });
        });
        assert_eq!(tree.len(), items.len() as u64);
        let total = tree.query(&QueryBox::all(&schema));
        assert_eq!(total.count, items.len() as u64);
    }

    #[test]
    fn items_snapshot_roundtrips() {
        let schema = Schema::uniform(2, 3, 4);
        let tree: ConcurrentTree<Mbr> =
            ConcurrentTree::new(schema.clone(), InsertPolicy::Geometric, small_cfg());
        let mut items = items_grid(&schema, 300);
        for it in &items {
            tree.insert(it);
        }
        let mut got = tree.items();
        let key = |i: &Item| (i.coords.to_vec(), i.measure.to_bits());
        items.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(items, got);
    }

    #[test]
    fn hilbert_leaves_stay_sorted() {
        let schema = Schema::uniform(2, 2, 8);
        let tree: ConcurrentTree<Mbr> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: false },
            small_cfg(),
        );
        for it in items_grid(&schema, 1000) {
            tree.insert(&it);
        }
        // Within every leaf, rows are sorted by key; across directory
        // levels, every LHV is its subtree's largest key, ascending.
        tree.check().unwrap();
    }

    #[test]
    fn empty_tree_queries_are_empty() {
        let schema = Schema::uniform(2, 2, 8);
        let tree: ConcurrentTree<Mds> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: true },
            small_cfg(),
        );
        assert!(tree.is_empty());
        let agg = tree.query(&QueryBox::all(&schema));
        assert!(agg.is_empty());
        assert!(tree.mbr().is_empty());
    }
}
