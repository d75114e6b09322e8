//! Per-item vs batched ingest benchmark, recorded to `BENCH_insert.json`.
//!
//! Loads the same item stream into a fresh tree through per-item
//! `ConcurrentTree::insert` and through `ConcurrentTree::insert_batch` in
//! fixed-size chunks (the shape a worker sees from a coalescing server),
//! prints items/sec for both at a small (10 k) and a large (500 k) tree,
//! and writes machine-readable results so the ingest trajectory is tracked
//! from PR to PR. Single-threaded on purpose: the batched speedup must come
//! from sorted runs and amortized descents, not from extra cores.

use std::time::Instant;

use volap_data::DataGen;
use volap_dims::{Item, Mds, Schema};
use volap_tree::{ConcurrentTree, InsertPolicy, TreeConfig};

const CHUNK: usize = 65_536;

struct Row {
    items: usize,
    item_per_s: f64,
    batch_per_s: f64,
}

fn fresh(schema: &Schema) -> ConcurrentTree<Mds> {
    ConcurrentTree::new(schema.clone(), InsertPolicy::Hilbert { expand: true }, TreeConfig::default())
}

fn load(tree: &ConcurrentTree<Mds>, items: &[Item], batched: bool) -> f64 {
    let t = Instant::now();
    if batched {
        for chunk in items.chunks(CHUNK) {
            tree.insert_batch(chunk);
        }
    } else {
        for it in items {
            tree.insert(it);
        }
    }
    items.len() as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    let schema = Schema::tpcds();
    let rounds = 3;
    // Deliberately a one-thread bench (the batched win comes from sorted
    // runs, not parallelism); BenchEnv still parses the common flags and
    // records the machine size.
    let env = volap_bench::BenchEnv::setup("bench_insert");
    let cores = env.cores;
    let mut rows = Vec::new();
    println!("# insert_item_vs_batch ({cores} cores, chunk {CHUNK}, best of {rounds}, 1 thread)");
    println!("{:<10} {:>14} {:>14} {:>9}", "items", "item/s", "batch/s", "speedup");
    for n in [10_000usize, 500_000] {
        let mut gen = DataGen::new(&schema, 11, 1.5);
        let items = gen.items(n);
        let (mut item_per_s, mut batch_per_s) = (0f64, 0f64);
        for _ in 0..rounds {
            let a = fresh(&schema);
            item_per_s = item_per_s.max(load(&a, &items, false));
            let b = fresh(&schema);
            batch_per_s = batch_per_s.max(load(&b, &items, true));
            assert_eq!(a.len(), b.len(), "batched load diverged");
            let (ta, tb) = (a.total(), b.total());
            assert_eq!(ta.count, tb.count, "batched totals diverged");
            assert!((ta.sum - tb.sum).abs() < 1e-6, "batched sums diverged");
        }
        println!(
            "{n:<10} {item_per_s:>14.0} {batch_per_s:>14.0} {:>8.2}x",
            batch_per_s / item_per_s
        );
        rows.push(Row { items: n, item_per_s, batch_per_s });
    }
    let best = rows.last().expect("at least one size measured");
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"insert_item_vs_batch\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  {},\n",
        env.headline("batch_per_s", best.batch_per_s.round(), true)
    ));
    json.push_str(&format!("  \"chunk\": {CHUNK},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"items\": {}, \"item_per_s\": {:.0}, \"batch_per_s\": {:.0}, \"speedup\": {:.3}}}{}\n",
            r.items,
            r.item_per_s,
            r.batch_per_s,
            r.batch_per_s / r.item_per_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_insert.json", &json).expect("write BENCH_insert.json");
    println!("wrote BENCH_insert.json");
}
