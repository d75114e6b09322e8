//! Per-item vs batched ingest benchmark, recorded to `BENCH_insert.json`.
//!
//! Loads the same item stream into a fresh tree through per-item
//! `ConcurrentTree::insert` and through `ConcurrentTree::insert_batch` in
//! fixed-size chunks (the shape a worker sees from client bulk inserts),
//! prints items/sec for both at a small (10 k) and a large (500 k) tree,
//! and writes machine-readable results so the ingest trajectory is tracked
//! from PR to PR. Single-threaded on purpose: the batched speedup must come
//! from sorted runs and amortized descents, not from extra cores.
//!
//! `bench_insert` takes no arguments.

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
    ConcurrentTree::new(
        schema.clone(),
        InsertPolicy::Hilbert { expand: true },
        TreeConfig::default(),
    )
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

/// The `"headline"` fragment of the JSON: the one number a dashboard should
/// plot for this bench, with its name and direction. Panics on a non-finite
/// value — a bench must never publish `NaN` as its headline.
fn headline(metric: &str, value: f64, higher_is_better: bool) -> String {
    assert!(
        value.is_finite(),
        "headline {metric} is not finite: {value}"
    );
    format!(
        "\"headline\": {{\"metric\": \"{metric}\", \"value\": {value}, \
         \"higher_is_better\": {higher_is_better}}}"
    )
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        panic!("unknown argument {arg:?} (bench_insert takes none)");
    }
    let schema = Schema::tpcds();
    let rounds = 3;
    // Deliberately a one-thread bench (the batched win comes from sorted
    // runs, not parallelism); the JSON still records the machine size.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores == 1 {
        eprintln!(
            "WARNING: bench_insert is running on a single core; treat absolute throughput \
             numbers with suspicion on a loaded shared core."
        );
    }
    let mut rows = Vec::new();
    println!("# insert_item_vs_batch ({cores} cores, chunk {CHUNK}, best of {rounds}, 1 thread)");
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "items", "item/s", "batch/s", "speedup"
    );
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
        rows.push(Row {
            items: n,
            item_per_s,
            batch_per_s,
        });
    }
    let best = rows.last().expect("at least one size measured");
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"insert_item_vs_batch\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  {},\n",
        headline("batch_per_s", best.batch_per_s.round(), true)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_fragment_names_metric_and_direction() {
        let h = headline("ingest_per_s", 123456.0, true);
        assert!(h.contains("\"metric\": \"ingest_per_s\""));
        assert!(h.contains("\"value\": 123456"));
        assert!(h.contains("\"higher_is_better\": true"));
    }
}
