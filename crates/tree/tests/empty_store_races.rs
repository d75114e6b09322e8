//! Regression: a bulk load into an empty store races other inserts safely.
//!
//! Bootstrap shards and every insertion queue are empty stores that take
//! concurrent inserts, and an empty tree loads a batch bottom-up instead of
//! inserting it. The emptiness check and the install of the packed tree
//! must therefore be one critical section against every other insert: a
//! point insert landing in between used to be silently dropped with the
//! replaced root, and a second load in between tripped the empty-tree
//! assertion. Each round releases two inserters on a fresh store at once
//! and then demands an exact count.

use std::sync::Barrier;

use volap_data::DataGen;
use volap_dims::{Item, QueryBox, Schema};
use volap_tree::{build_store, ShardStore, StoreKind, TreeConfig};

/// Rounds per case: enough for the loser to land inside the window on a
/// single core, small enough to stay well under two seconds in release.
const ROUNDS: usize = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

/// What races the 100-item bulk load.
#[derive(Clone, Copy, Debug)]
enum Rival {
    /// A 1-item `insert`.
    Point,
    /// A 30-item `bulk_insert`.
    Bulk,
}

fn race(rival: Rival) {
    let schema = Schema::uniform(3, 2, 8);
    let mut gen = DataGen::new(&schema, 17, 1.0);
    let load = gen.items(100);
    let other: Vec<Item> = gen.items(match rival {
        Rival::Point => 1,
        Rival::Bulk => 30,
    });
    let want = (load.len() + other.len()) as u64;
    let all = QueryBox::all(&schema);
    let (mut panicked, mut wrong) = (0, 0);
    for _ in 0..ROUNDS {
        let store = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
        let store: &dyn ShardStore = &*store;
        let start = Barrier::new(2);
        let joined = std::thread::scope(|s| {
            let a = s.spawn(|| {
                let items = load.clone();
                start.wait();
                store.bulk_insert(items);
            });
            let b = s.spawn(|| {
                let items = other.clone();
                start.wait();
                match rival {
                    Rival::Point => store.insert(&items[0]),
                    Rival::Bulk => store.bulk_insert(items),
                }
            });
            a.join().is_ok() & b.join().is_ok()
        });
        if !joined {
            panicked += 1;
        } else if store.len() != want || store.query(&all).count != want {
            wrong += 1;
        }
    }
    assert_eq!(
        (panicked, wrong),
        (0, 0),
        "{rival:?} vs bulk load over {ROUNDS} rounds: (panicked, wrong count)"
    );
}

#[test]
fn bulk_load_races_a_bulk_load_into_an_empty_store() {
    race(Rival::Bulk);
}

#[test]
fn bulk_load_races_a_point_insert_into_an_empty_store() {
    race(Rival::Point);
}
