//! Regression: a leaf's `All`/`Never` proof comes from the leaf's own
//! column ranges, read under the leaf's lock — never from the parent's slot
//! key.
//!
//! A reader releases a directory's read guard before it locks the children
//! it queued, and an insert can extend a child's slot key and add a row to
//! the child in between. A proof taken from the key the reader saw would
//! then call a dimension covered while the leaf already holds a row outside
//! the box, and count it. Here a writer inserts rows just outside the box on
//! dimension 0 (and inside it on dimension 1), beside rows inside it, into
//! leaves the box covers on dimension 0 but not on dimension 1, so every
//! such leaf is scanned with its dimension-0 test at stake. The box ends on
//! dimension 0 between two unit cells the Hilbert curve alternates between
//! at its finest level, so the outside rows land in leaves all over the
//! tree. The reader demands that no answer exceeds the in-box rows inserted
//! so far, nor falls short of those acknowledged before it started; at
//! quiescence the count is exact.
//!
//! The same check pins a race in the walk itself: a directory split away
//! under a reader keeps stale slot keys while its children, shared with its
//! halves, keep growing, so it must never answer a child from the child's
//! cached aggregate (`NodeInner::retired`, DESIGN §9.1).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use volap_dims::{Item, Key, Mbr, Mds, QueryBox, Schema};
use volap_tree::serial::bulk_load;
use volap_tree::{ConcurrentTree, InsertPolicy, TreeConfig};

/// Fresh trees raced. A leaf's first row outside the box is the only
/// insert a stale-key proof miscounts, so many small trees make many more
/// such inserts than one big one.
const ROUNDS: usize = if cfg!(debug_assertions) { 30 } else { 300 };
/// Rows preloaded per tree, all inside the box on dimension 0.
const PRELOAD: usize = 600;
/// Rows the writer inserts per tree, every other one just outside the box.
const WRITES: u64 = 200;

/// Dimension 0 inside the box is `0..=6` (of 16), dimension 1 is `4..=11`.
fn the_box() -> QueryBox {
    QueryBox::from_ranges(vec![(0, 6), (4, 11), (0, 15)])
}

/// A deterministic coordinate stream.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One round: a writer inserts into a fresh tree while a reader queries
/// it; returns (answers above the in-box rows started, answers below those
/// acknowledged, queries), after checking the count at quiescence.
fn round<K: Key>(seed: u64) -> (u64, u64, u64) {
    let schema = Schema::uniform(3, 2, 4);
    let cfg = TreeConfig {
        leaf_cap: 16,
        dir_cap: 4,
        ..TreeConfig::default()
    };
    let tree = ConcurrentTree::<K>::new(schema, InsertPolicy::Hilbert { expand: true }, cfg);
    let q = the_box();

    // Preload rows inside the box on dimension 0 and across all of
    // dimension 1: their leaves' keys cover dimension 0, not dimension 1.
    let mut state = seed;
    let preload: Vec<Item> = (0..PRELOAD)
        .map(|_| {
            Item::new(
                vec![
                    lcg(&mut state) % 7,
                    lcg(&mut state) % 16,
                    lcg(&mut state) % 16,
                ],
                1.0,
            )
        })
        .collect();
    let in_box = preload.iter().filter(|it| q.contains_item(it)).count() as u64;
    bulk_load(&tree, preload);

    // `started` counts in-box rows whose insert has begun (an upper bound
    // on what any answer may count), `acked` those whose insert returned.
    let started = AtomicU64::new(in_box);
    let acked = AtomicU64::new(in_box);
    let done = AtomicBool::new(false);
    let seen = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut over, mut under, mut queries) = (0u64, 0u64, 0u64);
            while !done.load(Ordering::SeqCst) {
                let floor = acked.load(Ordering::SeqCst);
                let got = tree.query(&q).count;
                let ceiling = started.load(Ordering::SeqCst);
                over += u64::from(got > ceiling);
                under += u64::from(got < floor);
                queries += 1;
            }
            (over, under, queries)
        });
        for i in 0..WRITES {
            let d0 = if i % 2 == 0 { 7 } else { lcg(&mut state) % 7 };
            let item = Item::new(vec![d0, 4 + lcg(&mut state) % 8, lcg(&mut state) % 16], 1.0);
            let inside = d0 < 7;
            if inside {
                started.fetch_add(1, Ordering::SeqCst);
            }
            tree.insert(&item);
            if inside {
                acked.fetch_add(1, Ordering::SeqCst);
            }
        }
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap()
    });
    let want = in_box + WRITES / 2;
    assert_eq!(started.load(Ordering::SeqCst), want);
    assert_eq!(
        tree.query(&q).count,
        want,
        "count at quiescence, seed {seed}"
    );
    seen
}

fn race<K: Key>() {
    let (mut over, mut under, mut queries) = (0, 0, 0);
    for seed in 0..ROUNDS as u64 {
        let r = round::<K>(seed);
        (over, under, queries) = (over + r.0, under + r.1, queries + r.2);
    }
    assert!(queries > 0, "the readers ran no query");
    assert_eq!(
        (over, under),
        (0, 0),
        "(answers above the in-box rows started, below those acknowledged) over {queries} queries"
    );
}

#[test]
fn rows_outside_the_box_never_count_while_they_land_mds() {
    race::<Mds>();
}

#[test]
fn rows_outside_the_box_never_count_while_they_land_mbr() {
    race::<Mbr>();
}
