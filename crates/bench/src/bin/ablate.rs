//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Usage: `cargo run --release -p volap-bench --bin ablate [study ...]`
//! where `study` is any of `keys`, `expand`, `split`, `leafcap`, `mdscap`
//! (default: all).
//!
//! * `keys`    — MDS vs MBR node keys at fixed policy.
//! * `expand`  — the Figure-3 level expansion on vs off (Hilbert policy,
//!   MDS keys; "off" is *not* the Hilbert R-tree, which also drops MDS).
//! * `split`   — least-overlap split index vs forced half split
//!   (`min_fill = 0.5` makes every split exactly balanced, disabling the
//!   least-overlap scan).
//! * `leafcap` — leaf/directory capacity sweep.
//! * `mdscap`  — MDS per-dimension entry cap sweep (1 = MBR-like).

use std::time::Instant;

use volap_bench::{scaled, LatencyStats};
use volap_data::{DataGen, QueryGen};
use volap_dims::{Item, Mds, QueryBox, Schema};
use volap_tree::{build_store, ConcurrentTree, InsertPolicy, StoreKind, TreeConfig};

struct Workload {
    items: Vec<Item>,
    bins: [Vec<QueryBox>; 3],
}

fn workload(schema: &Schema, n: usize, per_band: usize) -> Workload {
    let mut gen = DataGen::new(schema, 42, 1.5);
    let items = gen.items(n);
    let sample = &items[..items.len().min(10_000)];
    let mut qg = QueryGen::new(schema, 43, 0.65);
    let bins = qg.binned(sample, per_band, 300_000);
    Workload { items, bins }
}

fn bench_tree(tree: &ConcurrentTree<Mds>, w: &Workload) -> (f64, [f64; 3]) {
    let t = Instant::now();
    for it in &w.items {
        tree.insert(it);
    }
    let insert_us = t.elapsed().as_secs_f64() * 1e6 / w.items.len() as f64;
    let mut band_ms = [0.0; 3];
    for (b, bin) in w.bins.iter().enumerate() {
        let mut lats = Vec::with_capacity(bin.len());
        for q in bin {
            let t = Instant::now();
            std::hint::black_box(tree.query(q));
            lats.push(t.elapsed().as_secs_f64());
        }
        band_ms[b] = LatencyStats::from_samples(lats).mean * 1e3;
    }
    (insert_us, band_ms)
}

fn header() {
    println!(
        "{:<34} {:>12} {:>10} {:>10} {:>10}",
        "variant", "insert_us", "q_low_ms", "q_med_ms", "q_high_ms"
    );
}

fn row(name: &str, insert_us: f64, band_ms: [f64; 3]) {
    println!(
        "{name:<34} {insert_us:>12.2} {:>10.4} {:>10.4} {:>10.4}",
        band_ms[0], band_ms[1], band_ms[2]
    );
}

fn ablate_keys(schema: &Schema, w: &Workload) {
    println!("\n== ablation: MDS vs MBR keys ==");
    header();
    for (name, kind) in [
        ("Hilbert + MDS (paper choice)", StoreKind::HilbertPdcMds),
        ("Hilbert + MBR", StoreKind::HilbertPdcMbr),
        ("geometric + MDS", StoreKind::PdcMds),
        ("geometric + MBR", StoreKind::PdcMbr),
    ] {
        let store = build_store(kind, schema, &TreeConfig::default());
        let t = Instant::now();
        for it in &w.items {
            store.insert(it);
        }
        let insert_us = t.elapsed().as_secs_f64() * 1e6 / w.items.len() as f64;
        let mut band_ms = [0.0; 3];
        for (b, bin) in w.bins.iter().enumerate() {
            let mut lats = Vec::with_capacity(bin.len());
            for q in bin {
                let t = Instant::now();
                std::hint::black_box(store.query(q));
                lats.push(t.elapsed().as_secs_f64());
            }
            band_ms[b] = LatencyStats::from_samples(lats).mean * 1e3;
        }
        row(name, insert_us, band_ms);
    }
}

fn ablate_expand(schema: &Schema, w: &Workload) {
    println!("\n== ablation: Figure-3 level expansion on/off (Hilbert, MDS keys) ==");
    header();
    for (name, expand) in [("expanded IDs (paper)", true), ("raw IDs", false)] {
        let tree: ConcurrentTree<Mds> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand },
            TreeConfig::default(),
        );
        let (i, b) = bench_tree(&tree, w);
        row(name, i, b);
    }
}

fn ablate_split(schema: &Schema, w: &Workload) {
    println!("\n== ablation: least-overlap split vs forced half split ==");
    header();
    for (name, min_fill) in [
        ("least-overlap (min_fill 0.35)", 0.35),
        ("narrow band (min_fill 0.2)", 0.2),
        ("forced half split (min_fill 0.5)", 0.5),
    ] {
        let cfg = TreeConfig {
            min_fill,
            ..TreeConfig::default()
        };
        let tree: ConcurrentTree<Mds> =
            ConcurrentTree::new(schema.clone(), InsertPolicy::Hilbert { expand: true }, cfg);
        let (i, b) = bench_tree(&tree, w);
        row(name, i, b);
    }
}

fn ablate_leafcap(schema: &Schema, w: &Workload) {
    println!("\n== ablation: leaf capacity sweep ==");
    header();
    for leaf_cap in [16, 32, 64, 128, 256] {
        let cfg = TreeConfig {
            leaf_cap,
            ..TreeConfig::default()
        };
        let tree: ConcurrentTree<Mds> =
            ConcurrentTree::new(schema.clone(), InsertPolicy::Hilbert { expand: true }, cfg);
        let (i, b) = bench_tree(&tree, w);
        row(&format!("leaf_cap = {leaf_cap}"), i, b);
    }
}

fn ablate_mdscap(w: &Workload) {
    println!("\n== ablation: MDS per-dimension cap sweep ==");
    header();
    for cap in [1usize, 2, 4, 8, 16] {
        // Rebuild the TPC-DS schema with a different MDS cap.
        let base = Schema::tpcds();
        let schema = Schema::new(base.dimensions().to_vec(), cap);
        let tree: ConcurrentTree<Mds> = ConcurrentTree::new(
            schema.clone(),
            InsertPolicy::Hilbert { expand: true },
            TreeConfig::default(),
        );
        let (i, b) = bench_tree(&tree, w);
        row(&format!("mds_cap = {cap}"), i, b);
    }
}

fn main() {
    let schema = Schema::tpcds();
    let n = scaled(150_000, 20_000);
    let per_band = scaled(40, 10);
    let w = workload(&schema, n, per_band);
    println!(
        "# Ablations over TPC-DS, N = {n}, {} queries/band",
        per_band
    );
    let studies: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    let want = |s: &str| studies.is_empty() || studies.iter().any(|x| x == s);
    if want("keys") {
        ablate_keys(&schema, &w);
    }
    if want("expand") {
        ablate_expand(&schema, &w);
    }
    if want("split") {
        ablate_split(&schema, &w);
    }
    if want("leafcap") {
        ablate_leafcap(&schema, &w);
    }
    if want("mdscap") {
        ablate_mdscap(&w);
    }
}
