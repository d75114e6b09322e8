//! Property tests: `insert_batch` is observationally equivalent to per-item
//! `insert` — same totals, same query results, same brute-force answers —
//! under aggressive splitting (tiny node capacities), every insert policy,
//! both key types, and concurrent readers.

use std::sync::Arc;

use proptest::prelude::*;
use volap_dims::{Aggregate, DimPath, Item, Mbr, Mds, QueryBox, Schema};
use volap_tree::{ConcurrentTree, InsertPolicy, TreeConfig};

fn small_cfg() -> TreeConfig {
    // leaf_cap 8 / dir_cap 4: a few hundred items force several levels of
    // splits, so batches routinely split mid-run.
    TreeConfig { leaf_cap: 8, dir_cap: 4, ..TreeConfig::default() }
}

fn schema() -> Schema {
    Schema::uniform(3, 2, 4)
}

fn items_strategy(n: usize) -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec((prop::collection::vec(0u64..16, 3), 0u32..100), 1..=n).prop_map(|raw| {
        raw.into_iter()
            .map(|(coords, m)| Item::new(coords, m as f64))
            .collect()
    })
}

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

fn brute(items: &[Item], q: &QueryBox) -> Aggregate {
    let mut a = Aggregate::empty();
    for it in items.iter().filter(|it| q.contains_item(it)) {
        a.add(it.measure);
    }
    a
}

fn policies() -> [InsertPolicy; 3] {
    [
        InsertPolicy::Hilbert { expand: true },
        InsertPolicy::Hilbert { expand: false },
        InsertPolicy::Geometric,
    ]
}

fn assert_agg_eq(a: &Aggregate, b: &Aggregate, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.count, b.count, "{} count", ctx);
    prop_assert!((a.sum - b.sum).abs() < 1e-9, "{} sum", ctx);
    if a.count > 0 {
        prop_assert_eq!(a.min, b.min, "{} min", ctx);
        prop_assert_eq!(a.max, b.max, "{} max", ctx);
    }
    Ok(())
}

/// Run the equivalence check for one key type: seed both trees per-item,
/// then feed the rest per-item to one and batched (in `chunk`-sized calls)
/// to the other, and compare totals plus query answers against each other
/// and the brute-force oracle.
fn check_equivalence<K: volap_dims::Key>(
    policy: InsertPolicy,
    items: &[Item],
    seed_n: usize,
    chunk: usize,
    q: &QueryBox,
) -> Result<(), TestCaseError> {
    let s = schema();
    let a: ConcurrentTree<K> = ConcurrentTree::new(s.clone(), policy, small_cfg());
    let b: ConcurrentTree<K> = ConcurrentTree::new(s.clone(), policy, small_cfg());
    let seed_n = seed_n.min(items.len());
    for it in &items[..seed_n] {
        a.insert(it);
        b.insert(it);
    }
    for it in &items[seed_n..] {
        a.insert(it);
    }
    for batch in items[seed_n..].chunks(chunk.max(1)) {
        b.insert_batch(batch);
    }
    let ctx = format!("{policy:?} chunk={chunk}");
    prop_assert_eq!(a.len(), b.len(), "{} len", &ctx);
    prop_assert_eq!(b.len(), items.len() as u64, "{} total len", &ctx);
    assert_agg_eq(&a.total(), &b.total(), &ctx)?;
    for query in [q.clone(), QueryBox::all(&s)] {
        let expect = brute(items, &query);
        assert_agg_eq(&a.query(&query), &expect, &ctx)?;
        assert_agg_eq(&b.query(&query), &expect, &ctx)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// insert_batch ≡ insert for every policy and both key types, with the
    /// batch arriving in random-size chunks onto a random-size per-item
    /// prefix (so runs start against an already-split tree).
    #[test]
    fn batch_equals_per_item(
        items in items_strategy(300),
        seed_n in 0usize..60,
        chunk in 1usize..80,
        q in query_strategy(),
    ) {
        for policy in policies() {
            check_equivalence::<Mds>(policy, &items, seed_n, chunk, &q)?;
            check_equivalence::<Mbr>(policy, &items, seed_n, chunk, &q)?;
        }
    }

    /// One giant batch into an empty tree: every leaf split along the way is
    /// a mid-batch split.
    #[test]
    fn single_batch_equals_per_item(items in items_strategy(400), q in query_strategy()) {
        for policy in policies() {
            check_equivalence::<Mds>(policy, &items, 0, items.len(), &q)?;
        }
    }

    /// Duplicate-heavy batches (many equal Hilbert keys → long runs) stay
    /// equivalent.
    #[test]
    fn duplicate_keys_form_long_runs(base in items_strategy(20), reps in 2usize..12, q in query_strategy()) {
        let items: Vec<Item> = base.iter().cycle().take(base.len() * reps).cloned().collect();
        for policy in policies() {
            check_equivalence::<Mds>(policy, &items, 3, 64, &q)?;
        }
    }
}

/// Batched writers racing readers: totals must be exact at the end and
/// every intermediate read must be a well-formed aggregate (no panics, no
/// torn runs — a partially applied run would briefly break the tree's
/// internal invariants and can deadlock or miscount).
#[test]
fn concurrent_batch_inserts_and_queries() {
    let s = schema();
    let tree: Arc<ConcurrentTree<Mds>> = Arc::new(ConcurrentTree::new(
        s.clone(),
        InsertPolicy::Hilbert { expand: true },
        small_cfg(),
    ));
    // Deterministic pseudo-random items.
    let mut state = 0xA5A5_5A5A_1234_5678u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let items: Vec<Item> = (0..6000)
        .map(|i| {
            let coords: Vec<u64> = (0..3).map(|_| next() % 16).collect();
            Item::new(coords, (i % 100) as f64)
        })
        .collect();
    let n_writers = 3;
    let chunk = items.len() / n_writers;
    std::thread::scope(|scope| {
        for t in 0..n_writers {
            let tree = Arc::clone(&tree);
            let slice = items[t * chunk..(t + 1) * chunk].to_vec();
            scope.spawn(move || {
                for batch in slice.chunks(97) {
                    tree.insert_batch(batch);
                }
            });
        }
        // A per-item writer interleaved with the batch writers.
        let leftover = items[n_writers * chunk..].to_vec();
        let ptree = Arc::clone(&tree);
        scope.spawn(move || {
            for it in leftover {
                ptree.insert(&it);
            }
        });
        let qtree = Arc::clone(&tree);
        let q = QueryBox::all(&s);
        scope.spawn(move || {
            for _ in 0..300 {
                let (agg, _) = qtree.query_traced(&q);
                assert!(agg.count <= 6000);
            }
        });
    });
    assert_eq!(tree.len(), items.len() as u64);
    let expect = brute(&items, &QueryBox::all(&s));
    let got = tree.query(&QueryBox::all(&s));
    assert_eq!(got.count, expect.count);
    assert!((got.sum - expect.sum).abs() < 1e-6);
    assert_eq!(got.min, expect.min);
    assert_eq!(got.max, expect.max);
}
