//! Compressed-scan benchmark, recorded to `BENCH_scan.json`.
//!
//! The same 500 k-row leaf column set is scanned through the chunked
//! bitmask kernel twice — once with raw `Vec<u64>` columns, once
//! dictionary/bit-packed — over a batch of partial-selectivity queries.
//! Aggregates must match bit-exactly. The fixed-seed data has 16 distinct
//! values per dimension, so the packed columns store 4 bits per value, a
//! ~16x smaller footprint.
//!
//! Throughput is measured in interleaved raw/packed rounds (the order
//! alternates per round, so drift hits both sides alike) and reported as
//! the median of the per-round packed/raw ratios.
//!
//! `--check` turns the run into a CI gate on what is deterministic: the
//! bit-exact aggregates and the encoded footprint. Throughput is reported,
//! not gated — on a shared 2-core runner single rounds swing both ways.

use std::time::Instant;

use volap_dims::{Aggregate, QueryBox};
use volap_tree::{ColumnStats, LeafColumns};

use volap_bench::BenchEnv;

const ROWS: usize = 500_000;
const ROUNDS: usize = 9;
const DIMS: usize = 4;

/// Wall seconds for one full query batch over `leaf`, plus the per-query
/// aggregates (for cross-checking raw vs packed).
fn scan_batch(leaf: &LeafColumns, queries: &[QueryBox]) -> (Vec<Aggregate>, f64) {
    let t = Instant::now();
    let aggs = queries
        .iter()
        .map(|q| {
            let mut agg = Aggregate::empty();
            leaf.scan(q, &mut agg);
            agg
        })
        .collect();
    (aggs, t.elapsed().as_secs_f64())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Identical data as raw and as dictionary-packed columns.
fn build_columns() -> (LeafColumns, LeafColumns, ColumnStats) {
    // 16 distinct values per dimension: packs at 4 bits/value, the shape the
    // encoder is built for (dimension ordinals are low-cardinality by
    // construction in OLAP hierarchies).
    let mut raw = LeafColumns::new(DIMS);
    let mut state = 0x5EED5EED5EEDu64;
    let mut coords = vec![0u64; DIMS];
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
    (raw, packed, stats)
}

fn main() {
    let env = BenchEnv::setup("bench_scan");
    let (cores, check) = (env.cores, env.check);
    println!("# scan_packed ({cores} cores, median of {ROUNDS} interleaved rounds)");

    let (raw, packed, stats) = build_columns();
    // Partial selectivities only: an all-match dimension short-circuits to
    // the dropped-predicate fast path on the packed side, which would flatter
    // the comparison.
    let queries: Vec<QueryBox> = vec![
        QueryBox::from_ranges(vec![(0, 7), (0, 14), (0, 14), (0, 14)]),
        QueryBox::from_ranges(vec![(3, 12), (2, 13), (1, 14), (0, 14)]),
        QueryBox::from_ranges(vec![(5, 5), (7, 8), (0, 14), (0, 14)]),
        QueryBox::from_ranges(vec![(0, 14), (0, 14), (0, 14), (15, 15)]),
    ];
    let (mut raw_s, mut packed_s, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    let mut exact = true;
    for round in 0..ROUNDS {
        let ((raw_aggs, r), (packed_aggs, p)) = if round % 2 == 0 {
            let r = scan_batch(&raw, &queries);
            (r, scan_batch(&packed, &queries))
        } else {
            let p = scan_batch(&packed, &queries);
            (scan_batch(&raw, &queries), p)
        };
        exact &= raw_aggs == packed_aggs;
        raw_s.push(r);
        packed_s.push(p);
        speedups.push(r / p);
    }
    let mrows = |secs: f64| (ROWS * queries.len()) as f64 / secs / 1e6;
    let raw_mrows = mrows(median(raw_s));
    let packed_mrows = mrows(median(packed_s));
    let packed_speedup = median(speedups);
    let (bits, ratio) = (stats.bits_per_value(), stats.ratio());
    println!(
        "packed-vs-raw: raw {raw_mrows:.1} Mrows/s, packed {packed_mrows:.1} Mrows/s \
         ({packed_speedup:.2}x), {bits:.1} bits/value, {ratio:.2}x compression, \
         aggregates {}",
        if exact { "bit-exact" } else { "DIVERGED" }
    );

    let json = format!(
        "{{\n  \"bench\": \"scan_packed\",\n  \"cores\": {cores},\n  \
         {},\n  \"rows\": {ROWS},\n  \"rounds\": {ROUNDS},\n  \"results\": {{\n    \
         \"bit_exact\": {exact},\n    \
         \"bits_per_value\": {bits:.1},\n    \
         \"compression_ratio\": {ratio:.2},\n    \
         \"raw_mrows_per_s\": {raw_mrows:.1},\n    \
         \"packed_mrows_per_s\": {packed_mrows:.1},\n    \
         \"packed_speedup\": {packed_speedup:.3}\n  }}\n}}\n",
        env.headline("compression_ratio", (ratio * 100.0).round() / 100.0, true),
    );
    std::fs::write("BENCH_scan.json", &json).expect("write BENCH_scan.json");
    println!("wrote BENCH_scan.json");

    if check {
        let mut failed = false;
        if !exact {
            eprintln!("CHECK FAILED: packed scan aggregates diverged from the raw scan");
            failed = true;
        }
        if stats.dict_columns != DIMS as u64 || bits >= 4.05 {
            eprintln!(
                "CHECK FAILED: {}/{DIMS} columns dictionary-encoded at {bits:.2} bits/value, \
                 expected all at 4.0",
                stats.dict_columns
            );
            failed = true;
        }
        if ratio < 15.0 {
            eprintln!("CHECK FAILED: compression ratio {ratio:.2}x < 15x");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed: bit-exact, {bits:.1} bits/value, {ratio:.2}x >= 15x");
    }
}
