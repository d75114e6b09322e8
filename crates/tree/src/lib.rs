//! The VOLAP shard data structures: PDC tree, Hilbert PDC tree, and
//! baselines.
//!
//! The paper's workers store every shard in one of five in-memory structures
//! (§III-D): a flat array (benchmark baseline), the PDC tree with MDS or MBR
//! keys, and the novel **Hilbert PDC tree** with MDS or MBR keys. Figure 5
//! additionally benchmarks conventional and Hilbert **R-trees**. All of them
//! are instances of one concurrent tree, [`ConcurrentTree`], generic over
//!
//! * the **key type** ([`volap_dims::Mbr`] for R-tree-style keys,
//!   [`volap_dims::Mds`] for DC/PDC-style hierarchy-aware keys), and
//! * the **insert policy** ([`InsertPolicy`]): geometric least-overlap
//!   descent with R-tree-style splits, or Hilbert-ordered descent (B+-tree
//!   style) with the paper's least-overlap linear split.
//!
//! Every directory node caches the [`volap_dims::Aggregate`] of its subtree,
//! so queries that fully cover a node stop there — the paper's "coverage
//! resilience".
//!
//! Concurrency: each node carries its own `RwLock`; inserts descend with
//! write-lock coupling (at most two node locks held, as in the PDC tree
//! paper) and split full nodes *preventively* on the way down, so no
//! operation ever needs to re-ascend. Queries take read locks one node at a
//! time. Many inserts and queries proceed in parallel.
//!
//! The [`ShardStore`] trait is the object-safe facade the distributed layer
//! uses; [`build_store`] constructs any of the variants by [`StoreKind`].
//!
//! # Example
//!
//! ```
//! use volap_dims::{Schema, Item, QueryBox};
//! use volap_tree::{build_store, StoreKind, TreeConfig};
//!
//! let schema = Schema::uniform(2, 2, 4);
//! let store = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
//! store.insert(&Item::new(vec![3, 5], 10.0));
//! store.insert(&Item::new(vec![9, 1], 32.0));
//! let agg = store.query(&QueryBox::all(&schema));
//! assert_eq!(agg.count, 2);
//! assert_eq!(agg.sum, 42.0);
//! ```

pub mod array;
pub mod leaf;
pub mod serial;
pub mod split;
pub mod store;
pub mod tree;

pub use array::ArrayStore;
pub use leaf::LeafColumns;
pub use split::SplitPlan;
pub use store::{build_store, deserialize_store, ShardStore, StoreKind, StoreStats};
pub use tree::{ConcurrentTree, InsertPolicy, QueryTrace, TreeConfig};
