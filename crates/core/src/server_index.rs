//! The server's local image: a modified PDC tree over shard bounding boxes.
//!
//! Per §III-C the index differs from an ordinary tree in three ways:
//!
//! * **Leaves are fixed**: each leaf *is* a shard; routing an insert expands
//!   the chosen leaf's box but never adds children, so an insert never
//!   splits a node. Structure changes only during synchronization (adding a
//!   shard splits internal nodes; removing one happens when a shard is
//!   replaced by its split halves).
//! * **Least-overlap routing**: the child chosen for an insert is the one
//!   whose growth causes the least overlap with its siblings, because
//!   overlapping shards force queries to fan out to many workers.
//! * **Bottom-up expansion**: when the global image reports a bigger box
//!   for a shard, the leaf is found directly through a shard-ID → leaf map
//!   and the expansion is propagated toward the root — no top-down search,
//!   which would be ambiguous under overlap.

use std::collections::HashMap;

use volap_dims::{Item, Key, Mbr, QueryBox, Schema};

const NO_PARENT: usize = usize::MAX;

#[derive(Debug)]
enum IdxKind {
    /// Children node indices (all at `level - 1`).
    Dir(Vec<usize>),
    /// A shard leaf.
    Leaf(u64),
}

#[derive(Debug)]
struct IdxNode {
    key: Mbr,
    parent: usize,
    level: u32,
    kind: IdxKind,
}

/// The routing index. Not internally synchronized: the server wraps it in a
/// reader-writer lock (queries share read access; inserts and sync updates
/// take brief write access).
pub struct ServerIndex {
    schema: Schema,
    dir_cap: usize,
    nodes: Vec<IdxNode>,
    free: Vec<usize>,
    root: usize,
    leaf_of: HashMap<u64, usize>,
}

impl ServerIndex {
    /// An empty index. `dir_cap` bounds directory fanout (splits beyond it).
    pub fn new(schema: Schema, dir_cap: usize) -> Self {
        assert!(dir_cap >= 4, "directory capacity too small");
        let root = IdxNode {
            key: Mbr::empty(&schema),
            parent: NO_PARENT,
            level: 1,
            kind: IdxKind::Dir(Vec::new()),
        };
        Self {
            schema,
            dir_cap,
            nodes: vec![root],
            free: Vec::new(),
            root: 0,
            leaf_of: HashMap::new(),
        }
    }

    /// Number of shards (leaves).
    pub fn shard_count(&self) -> usize {
        self.leaf_of.len()
    }

    /// All shard IDs.
    pub fn shard_ids(&self) -> Vec<u64> {
        self.leaf_of.keys().copied().collect()
    }

    /// Whether a shard is present.
    pub fn contains(&self, id: u64) -> bool {
        self.leaf_of.contains_key(&id)
    }

    /// Current box of a shard.
    pub fn shard_box(&self, id: u64) -> Option<&Mbr> {
        self.leaf_of.get(&id).map(|&n| &self.nodes[n].key)
    }

    fn alloc(&mut self, node: IdxNode) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Register a new shard (synchronization path). Splits internal nodes
    /// as needed.
    pub fn add_shard(&mut self, id: u64, mbr: Mbr) {
        assert!(
            !self.leaf_of.contains_key(&id),
            "shard {id} already indexed"
        );
        let leaf = self.alloc(IdxNode {
            key: mbr.clone(),
            parent: NO_PARENT,
            level: 0,
            kind: IdxKind::Leaf(id),
        });
        self.leaf_of.insert(id, leaf);
        // Descend to the level-1 directory with least overlap increase.
        let mut cur = self.root;
        loop {
            self.nodes[cur].key.extend_mbr(&mbr);
            if self.nodes[cur].level == 1 {
                break;
            }
            let children = match &self.nodes[cur].kind {
                IdxKind::Dir(c) => c.clone(),
                IdxKind::Leaf(_) => unreachable!("levels > 0 are directories"),
            };
            cur = self.choose_for_box(&children, &mbr);
        }
        if let IdxKind::Dir(c) = &mut self.nodes[cur].kind {
            c.push(leaf);
        }
        self.nodes[leaf].parent = cur;
        self.resolve_overflow(cur);
    }

    /// Remove a shard leaf (it was replaced by split halves). Keys are left
    /// conservative (boxes never shrink in VOLAP).
    pub fn remove_shard(&mut self, id: u64) -> bool {
        let Some(leaf) = self.leaf_of.remove(&id) else {
            return false;
        };
        let mut parent = self.nodes[leaf].parent;
        if let IdxKind::Dir(c) = &mut self.nodes[parent].kind {
            c.retain(|&n| n != leaf);
        }
        self.free.push(leaf);
        // Prune empty directories (except the root).
        while parent != self.root {
            let empty = matches!(&self.nodes[parent].kind, IdxKind::Dir(c) if c.is_empty());
            if !empty {
                break;
            }
            let grand = self.nodes[parent].parent;
            if let IdxKind::Dir(c) = &mut self.nodes[grand].kind {
                c.retain(|&n| n != parent);
            }
            self.free.push(parent);
            parent = grand;
        }
        true
    }

    /// Apply a box expansion reported by the global image: find the leaf by
    /// ID and propagate upward (the unique bottom-up operation of §III-C).
    /// Returns `false` for unknown shards.
    pub fn expand_shard(&mut self, id: u64, mbr: &Mbr) -> bool {
        let Some(&leaf) = self.leaf_of.get(&id) else {
            return false;
        };
        let mut cur = leaf;
        loop {
            self.nodes[cur].key.extend_mbr(mbr);
            if self.nodes[cur].parent == NO_PARENT {
                break;
            }
            cur = self.nodes[cur].parent;
        }
        true
    }

    /// Route an insert: pick the shard whose box grows with least overlap,
    /// expanding the path's boxes. Returns `(shard_id, leaf_box_changed)`,
    /// or `None` when no shards exist yet.
    pub fn route_insert(&mut self, item: &Item) -> Option<(u64, bool)> {
        if self.leaf_of.is_empty() {
            return None;
        }
        let mut cur = self.root;
        loop {
            self.nodes[cur].key.extend_item(&self.schema, item);
            let children = match &self.nodes[cur].kind {
                IdxKind::Dir(c) => c.clone(),
                IdxKind::Leaf(_) => unreachable!("descent stops at level 1"),
            };
            debug_assert!(
                !children.is_empty(),
                "directories on a routing path are non-empty"
            );
            let next = self.choose_for_item(&children, item);
            if self.nodes[next].level == 0 {
                let changed = self.nodes[next].key.extend_item(&self.schema, item);
                let IdxKind::Leaf(id) = self.nodes[next].kind else {
                    unreachable!()
                };
                return Some((id, changed));
            }
            cur = next;
        }
    }

    /// Shards whose boxes overlap the query.
    pub fn route_query(&self, q: &QueryBox) -> Vec<u64> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if !node.key.overlaps_query(q) {
                continue;
            }
            match &node.kind {
                IdxKind::Leaf(id) => out.push(*id),
                IdxKind::Dir(c) => stack.extend_from_slice(c),
            }
        }
        out
    }

    fn choose_for_item(&self, children: &[usize], item: &Item) -> usize {
        let mut best = children[0];
        let mut best_cost = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in children {
            let key = &self.nodes[i].key;
            if key.contains_item(item) {
                let v = key.volume_frac(&self.schema);
                // Contained: zero overlap increase and zero enlargement.
                if (0.0, 0.0, v) < best_cost {
                    best_cost = (0.0, 0.0, v);
                    best = i;
                }
                continue;
            }
            let mut grown = key.clone();
            grown.extend_item(&self.schema, item);
            let mut inc = 0.0;
            for &j in children {
                if i != j {
                    let other = &self.nodes[j].key;
                    inc += grown.overlap_frac(&self.schema, other)
                        - key.overlap_frac(&self.schema, other);
                }
            }
            let enlarge = grown.volume_frac(&self.schema) - key.volume_frac(&self.schema);
            let cost = (inc, enlarge, key.volume_frac(&self.schema));
            if cost < best_cost {
                best_cost = cost;
                best = i;
            }
        }
        best
    }

    fn choose_for_box(&self, children: &[usize], mbr: &Mbr) -> usize {
        let mut best = children[0];
        let mut best_cost = (f64::INFINITY, f64::INFINITY);
        for &i in children {
            let key = &self.nodes[i].key;
            let mut grown = key.clone();
            grown.extend_mbr(mbr);
            let mut inc = 0.0;
            for &j in children {
                if i != j {
                    let other = &self.nodes[j].key;
                    inc += grown.overlap_frac(&self.schema, other)
                        - key.overlap_frac(&self.schema, other);
                }
            }
            let enlarge = grown.volume_frac(&self.schema) - key.volume_frac(&self.schema);
            if (inc, enlarge) < best_cost {
                best_cost = (inc, enlarge);
                best = i;
            }
        }
        best
    }

    /// Split nodes upward while they exceed the directory capacity.
    fn resolve_overflow(&mut self, mut n: usize) {
        loop {
            let len = match &self.nodes[n].kind {
                IdxKind::Dir(c) => c.len(),
                IdxKind::Leaf(_) => return,
            };
            if len <= self.dir_cap {
                return;
            }
            // Sort children by box center along the widest axis and split
            // in half.
            let mut children = match &mut self.nodes[n].kind {
                IdxKind::Dir(c) => std::mem::take(c),
                IdxKind::Leaf(_) => unreachable!(),
            };
            let axis = self.widest_axis(&children);
            children.sort_by_key(|&c| {
                self.nodes[c]
                    .key
                    .ranges()
                    .map_or(0, |r| r[axis].0 / 2 + r[axis].1 / 2)
            });
            let right_children = children.split_off(children.len() / 2);
            let left_key = self.union_of(&children);
            let right_key = self.union_of(&right_children);
            let level = self.nodes[n].level;

            let sibling = self.alloc(IdxNode {
                key: right_key,
                parent: NO_PARENT,
                level,
                kind: IdxKind::Dir(Vec::new()),
            });
            for &c in &right_children {
                self.nodes[c].parent = sibling;
            }
            if let IdxKind::Dir(slot) = &mut self.nodes[sibling].kind {
                *slot = right_children;
            }
            self.nodes[n].key = left_key;
            if let IdxKind::Dir(slot) = &mut self.nodes[n].kind {
                *slot = children;
            }

            if self.nodes[n].parent == NO_PARENT {
                // Grow a new root.
                let old_key = {
                    let mut k = self.nodes[n].key.clone();
                    k.extend_mbr(&self.nodes[sibling].key);
                    k
                };
                let new_root = self.alloc(IdxNode {
                    key: old_key,
                    parent: NO_PARENT,
                    level: level + 1,
                    kind: IdxKind::Dir(vec![n, sibling]),
                });
                self.nodes[n].parent = new_root;
                self.nodes[sibling].parent = new_root;
                self.root = new_root;
                return;
            }
            let parent = self.nodes[n].parent;
            self.nodes[sibling].parent = parent;
            if let IdxKind::Dir(c) = &mut self.nodes[parent].kind {
                c.push(sibling);
            }
            n = parent;
        }
    }

    fn widest_axis(&self, children: &[usize]) -> usize {
        let dims = self.schema.dims();
        let mut best = 0usize;
        let mut best_spread = -1.0f64;
        for d in 0..dims {
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for &c in children {
                if let Some(r) = self.nodes[c].key.ranges() {
                    lo = lo.min(r[d].0);
                    hi = hi.max(r[d].1);
                }
            }
            if lo == u64::MAX {
                continue;
            }
            let spread = (hi - lo) as f64 / self.schema.dim(d).ordinal_end() as f64;
            if spread > best_spread {
                best_spread = spread;
                best = d;
            }
        }
        best
    }

    fn union_of(&self, children: &[usize]) -> Mbr {
        let mut m = Mbr::empty(&self.schema);
        for &c in children {
            m.extend_mbr(&self.nodes[c].key);
        }
        m
    }

    /// Internal consistency check (tests): every leaf reachable, parent
    /// links valid, directory keys contain children keys.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut seen = 0usize;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            match &self.nodes[n].kind {
                IdxKind::Leaf(id) => {
                    seen += 1;
                    assert_eq!(self.leaf_of.get(id), Some(&n), "leaf map out of sync");
                }
                IdxKind::Dir(c) => {
                    for &child in c {
                        assert_eq!(self.nodes[child].parent, n, "broken parent link");
                        assert_eq!(
                            self.nodes[child].level + 1,
                            self.nodes[n].level,
                            "level mismatch"
                        );
                        if let (Some(pk), Some(ck)) =
                            (self.nodes[n].key.ranges(), self.nodes[child].key.ranges())
                        {
                            for (p, c) in pk.iter().zip(ck.iter()) {
                                assert!(p.0 <= c.0 && c.1 <= p.1, "parent key must contain child");
                            }
                        }
                        stack.push(child);
                    }
                }
            }
        }
        assert_eq!(seen, self.leaf_of.len(), "unreachable leaves");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::uniform(2, 2, 16)
    }

    fn pt(s: &Schema, a: u64, b: u64) -> Item {
        let _ = s;
        Item::new(vec![a, b], 1.0)
    }

    fn boxed(lo: u64, hi: u64) -> Mbr {
        Mbr::from_ranges(vec![(lo, hi), (lo, hi)])
    }

    #[test]
    fn add_and_route_queries() {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        idx.add_shard(1, boxed(0, 100));
        idx.add_shard(2, boxed(150, 255));
        idx.check_invariants();
        let q = QueryBox::from_ranges(vec![(0, 50), (0, 50)]);
        assert_eq!(idx.route_query(&q), vec![1]);
        let q2 = QueryBox::from_ranges(vec![(0, 255), (0, 255)]);
        let mut both = idx.route_query(&q2);
        both.sort_unstable();
        assert_eq!(both, vec![1, 2]);
        let q3 = QueryBox::from_ranges(vec![(120, 140), (120, 140)]);
        assert!(idx.route_query(&q3).is_empty());
    }

    #[test]
    fn inserts_expand_leaves_without_adding_nodes() {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        idx.add_shard(1, boxed(0, 10));
        idx.add_shard(2, boxed(200, 255));
        let before = idx.shard_count();
        // An item outside both boxes goes to the least-overlap shard and
        // expands it.
        let (id, changed) = idx.route_insert(&pt(&s, 30, 30)).unwrap();
        assert!(changed);
        assert_eq!(idx.shard_count(), before, "routing never adds leaves");
        let grown = idx.shard_box(id).unwrap().ranges().unwrap().to_vec();
        assert!(grown[0].0 <= 30 && 30 <= grown[0].1);
        // An item inside a box changes nothing.
        let (_, changed2) = idx.route_insert(&pt(&s, 30, 30)).unwrap();
        assert!(!changed2);
        idx.check_invariants();
    }

    #[test]
    fn routing_prefers_least_overlap() {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        idx.add_shard(1, boxed(0, 100));
        idx.add_shard(2, boxed(200, 255));
        // Item near shard 2: growing shard 1 would overlap [200,255]
        // far more than growing shard 2 towards 180.
        let (id, _) = idx.route_insert(&pt(&s, 180, 180)).unwrap();
        assert_eq!(id, 2);
    }

    #[test]
    fn many_shards_trigger_internal_splits() {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        for i in 0..40u64 {
            let lo = i * 6;
            idx.add_shard(i, boxed(lo, lo + 5));
        }
        idx.check_invariants();
        assert_eq!(idx.shard_count(), 40);
        // Every shard must still be reachable by a point query in its box.
        for i in 0..40u64 {
            let lo = i * 6;
            let q = QueryBox::from_ranges(vec![(lo, lo), (lo, lo)]);
            assert!(idx.route_query(&q).contains(&i), "shard {i} unreachable");
        }
    }

    #[test]
    fn expansion_is_bottom_up_and_visible() {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        for i in 0..12u64 {
            idx.add_shard(i, boxed(i * 20, i * 20 + 9));
        }
        assert!(idx.expand_shard(3, &boxed(0, 130)));
        idx.check_invariants();
        let q = QueryBox::from_ranges(vec![(125, 128), (125, 128)]);
        assert!(idx.route_query(&q).contains(&3), "expanded box must route");
        assert!(
            !idx.expand_shard(99, &boxed(0, 1)),
            "unknown shard rejected"
        );
    }

    #[test]
    fn remove_shard_keeps_tree_valid() {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        for i in 0..20u64 {
            idx.add_shard(i, boxed(i * 12, i * 12 + 8));
        }
        for i in (0..20u64).step_by(2) {
            assert!(idx.remove_shard(i));
        }
        assert!(!idx.remove_shard(0), "double remove is false");
        idx.check_invariants();
        assert_eq!(idx.shard_count(), 10);
        let q = QueryBox::from_ranges(vec![(0, 255), (0, 255)]);
        let mut ids = idx.route_query(&q);
        ids.sort_unstable();
        assert_eq!(ids, (0..20u64).filter(|i| i % 2 == 1).collect::<Vec<_>>());
    }

    #[test]
    fn empty_index_routes_nothing() {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        assert!(idx.route_insert(&pt(&s, 0, 0)).is_none());
        assert!(idx.route_query(&QueryBox::all(&s)).is_empty());
    }
}
