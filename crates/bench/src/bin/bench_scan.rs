//! Compressed-scan and rollup benchmark, recorded to `BENCH_scan.json`.
//!
//! Two measurements back the PR-6 acceptance criteria:
//!
//! 1. **packed vs raw**: the same 500 k-row leaf column set scanned through
//!    the chunked bitmask kernel twice — once with raw `Vec<u64>` columns,
//!    once dictionary/bit-packed — over a batch of partial-selectivity
//!    queries. Aggregates must match bit-exactly; the packed scan should be
//!    faster because each 64-row window touches a fraction of the bytes.
//! 2. **rollup vs leaf scan**: level-aligned coarse queries against a
//!    500 k-item tree with `rollup_levels = 1` (answered from the
//!    materialized cells, `rollup_hits = 1`) vs the identical tree without
//!    rollups (full traversal).
//!
//! `--check` turns the run into a CI gate with thresholds deliberately
//! softer than the acceptance numbers so shared-runner noise does not flake
//! the build.

use std::time::Instant;

use volap_data::DataGen;
use volap_dims::{Aggregate, Mds, QueryBox, Schema};
use volap_tree::serial::bulk_load;
use volap_tree::{ColumnStats, ConcurrentTree, InsertPolicy, LeafColumns, TreeConfig};

use volap_bench::BenchEnv;

const ROWS: usize = 500_000;
const ROUNDS: usize = 5;

/// Best-of-rounds wall time for one full query batch over `leaf`, plus the
/// per-query aggregates (for cross-checking raw vs packed).
fn scan_batch(leaf: &LeafColumns, queries: &[QueryBox]) -> (Vec<Aggregate>, f64) {
    let mut aggs = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let mut round = Vec::with_capacity(queries.len());
        let t = Instant::now();
        for q in queries {
            let mut agg = Aggregate::empty();
            leaf.scan(q, &mut agg);
            round.push(agg);
        }
        best = best.min(t.elapsed().as_secs_f64());
        aggs = round;
    }
    (aggs, best)
}

/// Part 1: identical data, raw vs dictionary-packed columns.
fn bench_packed_vs_raw() -> (f64, f64, ColumnStats) {
    // 16 distinct values per dimension: packs at 4 bits/value, the shape the
    // encoder is built for (dimension ordinals are low-cardinality by
    // construction in OLAP hierarchies).
    let dims = 4;
    let mut raw = LeafColumns::new(dims);
    let mut state = 0x5EED5EED5EEDu64;
    let mut coords = vec![0u64; dims];
    for i in 0..ROWS {
        for c in coords.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *c = (state >> 33) % 16;
        }
        raw.push_row(&coords, (i % 100) as f64);
    }
    let mut packed = raw.clone();
    packed.encode();
    let mut stats = ColumnStats::default();
    packed.column_stats(&mut stats);
    assert!(stats.dict_columns == dims as u64, "bench data must dictionary-encode");

    // Partial selectivities only: an all-match dimension short-circuits to
    // the dropped-predicate fast path on the packed side, which would flatter
    // the comparison.
    let queries: Vec<QueryBox> = vec![
        QueryBox::from_ranges(vec![(0, 7), (0, 14), (0, 14), (0, 14)]),
        QueryBox::from_ranges(vec![(3, 12), (2, 13), (1, 14), (0, 14)]),
        QueryBox::from_ranges(vec![(5, 5), (7, 8), (0, 14), (0, 14)]),
        QueryBox::from_ranges(vec![(0, 14), (0, 14), (0, 14), (15, 15)]),
    ];
    let (raw_aggs, raw_s) = scan_batch(&raw, &queries);
    let (packed_aggs, packed_s) = scan_batch(&packed, &queries);
    for (i, (a, b)) in raw_aggs.iter().zip(&packed_aggs).enumerate() {
        assert_eq!(a, b, "query {i}: packed scan diverged from raw scan");
    }
    let mrows = |secs: f64| (ROWS * queries.len()) as f64 / secs / 1e6;
    (mrows(raw_s), mrows(packed_s), stats)
}

/// Best-of-rounds per-query microseconds for `queries` against `tree`.
fn tree_batch(tree: &ConcurrentTree<Mds>, queries: &[QueryBox]) -> (Vec<Aggregate>, f64) {
    let mut aggs = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let mut round = Vec::with_capacity(queries.len());
        let t = Instant::now();
        for q in queries {
            round.push(tree.query(q));
        }
        best = best.min(t.elapsed().as_secs_f64());
        aggs = round;
    }
    (aggs, best * 1e6 / queries.len() as f64)
}

/// Part 2: level-aligned coarse queries, rollup-answered vs leaf-scanned.
fn bench_rollup_vs_leafscan() -> (f64, f64) {
    // 9 bits per dimension, 3 levels of fanout 8: level-1 cells span 64
    // ordinals, so level-aligned ranges are multiples of 64.
    let schema = Schema::uniform(3, 3, 8);
    let mut gen = DataGen::new(&schema, 17, 1.2);
    let items = gen.items(ROWS);
    let build = |levels: usize| {
        let cfg = TreeConfig { rollup_levels: levels, ..TreeConfig::default() };
        let tree: ConcurrentTree<Mds> =
            ConcurrentTree::new(schema.clone(), InsertPolicy::Hilbert { expand: true }, cfg);
        bulk_load(&tree, items.clone());
        tree
    };
    let with_rollup = build(1);
    let without = build(0);

    let queries: Vec<QueryBox> = vec![
        QueryBox::from_ranges(vec![(0, 63), (0, 511), (0, 511)]),
        QueryBox::from_ranges(vec![(64, 127), (0, 511), (64, 447)]),
        QueryBox::from_ranges(vec![(0, 255), (256, 511), (0, 511)]),
        QueryBox::from_ranges(vec![(128, 191), (64, 127), (0, 63)]),
    ];
    for q in &queries {
        let (_, trace) = with_rollup.query_traced(q);
        assert_eq!(trace.rollup_hits, 1, "query {:?} must be rollup-answered", q.ranges);
    }
    let (roll_aggs, rollup_us) = tree_batch(&with_rollup, &queries);
    let (leaf_aggs, leaf_us) = tree_batch(&without, &queries);
    for (i, (a, b)) in roll_aggs.iter().zip(&leaf_aggs).enumerate() {
        assert_eq!(a.count, b.count, "query {i}: rollup count diverged");
        assert!((a.sum - b.sum).abs() < 1e-6 * a.sum.abs().max(1.0), "query {i}: sum diverged");
    }
    (rollup_us, leaf_us)
}

fn main() {
    let env = BenchEnv::setup("bench_scan");
    let (cores, check) = (env.cores, env.check);
    println!("# scan_packed_and_rollup ({cores} cores, best of {ROUNDS})");

    let (raw_mrows, packed_mrows, stats) = bench_packed_vs_raw();
    let packed_speedup = packed_mrows / raw_mrows;
    println!(
        "packed-vs-raw: raw {raw_mrows:.1} Mrows/s, packed {packed_mrows:.1} Mrows/s \
         ({packed_speedup:.2}x), {:.1} bits/value, {:.2}x compression",
        stats.bits_per_value(),
        stats.ratio()
    );

    let (rollup_us, leaf_us) = bench_rollup_vs_leafscan();
    let rollup_speedup = leaf_us / rollup_us;
    println!(
        "rollup-vs-leafscan: rollup {rollup_us:.1} us/query, leaf scan {leaf_us:.1} us/query \
         ({rollup_speedup:.1}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"scan_packed_and_rollup\",\n  \"cores\": {cores},\n  \
         {},\n  \"rows\": {ROWS},\n  \"results\": {{\n    \
         \"raw_mrows_per_s\": {raw_mrows:.1},\n    \
         \"packed_mrows_per_s\": {packed_mrows:.1},\n    \
         \"packed_speedup\": {packed_speedup:.3},\n    \
         \"bits_per_value\": {:.1},\n    \
         \"compression_ratio\": {:.2},\n    \
         \"rollup_us_per_query\": {rollup_us:.1},\n    \
         \"leafscan_us_per_query\": {leaf_us:.1},\n    \
         \"rollup_speedup\": {rollup_speedup:.1}\n  }}\n}}\n",
        env.headline("packed_mrows_per_s", (packed_mrows * 10.0).round() / 10.0, true),
        stats.bits_per_value(),
        stats.ratio()
    );
    std::fs::write("BENCH_scan.json", &json).expect("write BENCH_scan.json");
    println!("wrote BENCH_scan.json");

    if check {
        // Softer than the acceptance numbers (1.3x / 5x) so a noisy shared
        // runner does not flake CI; a real regression still trips them.
        let mut failed = false;
        if packed_speedup < 1.1 {
            eprintln!("CHECK FAILED: packed scan speedup {packed_speedup:.2}x < 1.1x");
            failed = true;
        }
        if rollup_speedup < 3.0 {
            eprintln!("CHECK FAILED: rollup speedup {rollup_speedup:.1}x < 3x");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: packed {packed_speedup:.2}x >= 1.1x, rollup {rollup_speedup:.1}x >= 3x");
    }
}
