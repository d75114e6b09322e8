//! Figure 5: insert and query latency of the four tree variants as the
//! number of dimensions grows (4 … 64).
//!
//! Paper setup: R-tree, Hilbert R-tree, PDC tree and Hilbert PDC tree over
//! a synthetic schema, dimensions swept 4–64. Expected shape: query latency
//! of the R-tree variants collapses past ~16 dimensions while both PDC
//! variants stay flat; insert latency of the geometric trees grows with
//! dimensionality while Hilbert insertion stays nearly flat.
//!
//! Store-kind mapping (see `volap_tree::StoreKind`): the "R-Tree" baseline
//! is the geometric tree with MBR keys, the "PDC-Tree" the geometric tree
//! with MDS keys, and the Hilbert variants use Hilbert insertion order with
//! and without the Figure-3 level expansion.

use std::time::Instant;

use volap_bench::{scaled, LatencyStats};
use volap_data::{DataGen, QueryGen};
use volap_dims::Schema;
use volap_tree::{build_store, StoreKind, TreeConfig};

fn main() {
    let n = scaled(30_000, 10_000);
    let n_queries = scaled(60, 15);
    let dims: Vec<usize> = if volap_bench::quick_mode() {
        vec![4, 16, 32, 64]
    } else {
        (1..=16).map(|i| i * 4).collect()
    };
    let kinds = [
        ("R-Tree", StoreKind::RTree),
        ("Hilbert R-Tree", StoreKind::HilbertRTree),
        ("PDC-Tree", StoreKind::PdcMds),
        ("Hilbert PDC-Tree", StoreKind::HilbertPdcMds),
    ];

    println!("# Figure 5: latency vs dimensions (N = {n}, uniform schema, 2 levels x fanout 16)");
    println!(
        "{:<6} {:<18} {:>14} {:>14} {:>14}",
        "dims", "tree", "insert_us", "query_ms", "query_p95_ms"
    );
    let mut disagreements = Vec::new();
    for &d in &dims {
        let schema = Schema::uniform(d, 2, 16);
        // Skewed data with anchored queries so coverage stays meaningful at
        // every d; the conventional R-trees must visit every covered item
        // (no cached aggregates), while the PDC variants answer covered
        // subtrees from node caches — the gap the paper's Figure 5 shows.
        let mut gen = DataGen::new(&schema, 600 + d as u64, 1.5);
        let items = gen.items(n);
        let sample = &items[..items.len().min(5_000)];
        let root_prob = (1.0 - 2.0 / d as f64).max(0.4);
        let mut qg = QueryGen::new(&schema, 700 + d as u64, root_prob);
        let queries: Vec<_> = (0..n_queries).map(|_| qg.query(sample)).collect();

        let mut checksums = Vec::with_capacity(kinds.len());
        for (name, kind) in kinds {
            let store = build_store(kind, &schema, &TreeConfig::default());
            let t = Instant::now();
            for it in &items {
                store.insert(it);
            }
            let insert_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
            let mut lats = Vec::with_capacity(queries.len());
            let mut checksum = 0u64;
            for q in &queries {
                let t = Instant::now();
                checksum = checksum.wrapping_add(store.query(q).count);
                lats.push(t.elapsed().as_secs_f64());
            }
            let st = LatencyStats::from_samples(lats);
            println!(
                "{:<6} {:<18} {:>14.2} {:>14.4} {:>14.4}   # checksum {checksum}",
                d,
                name,
                insert_us,
                st.mean * 1e3,
                st.p95 * 1e3
            );
            checksums.push(checksum);
        }
        // Every kind answers the same queries over the same items.
        if checksums.iter().any(|&c| c != checksums[0]) {
            disagreements.push(format!("dims {d}: checksums {checksums:?}"));
        }
    }
    println!("# paper shape: R-tree query latency explodes past ~16 dims; PDC variants stay flat;");
    println!("# geometric insert cost rises with dims, Hilbert insert cost stays nearly flat");
    if !disagreements.is_empty() {
        eprintln!(
            "fig5: the tree kinds disagree: {}",
            disagreements.join("; ")
        );
        std::process::exit(1);
    }
}
