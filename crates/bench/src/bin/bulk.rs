//! §IV-C (text): bulk ingestion vs point insertion.
//!
//! The paper reports > 400 k items/s bulk ingestion vs ~50 k/s point
//! insertion on the same 20-node system, an ~8× gap. This binary measures
//! both paths at two levels: (1) a single Hilbert PDC tree (pure data
//! structure, no network) and (2) the full cluster stack.

use std::time::Instant;

use volap::{Cluster, VolapConfig};
use volap_bench::{drive, scaled};
use volap_data::{DataGen, Op};
use volap_dims::Schema;
use volap_tree::{build_store, StoreKind, TreeConfig};

fn main() {
    let schema = Schema::tpcds();
    let n = scaled(400_000, 40_000);
    println!("# Bulk vs point ingestion (N = {n}, TPC-DS, Hilbert PDC tree)");

    // Level 1: single shard store.
    let mut gen = DataGen::new(&schema, 1234, 1.5);
    let items = gen.items(n);

    let point = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    let t = Instant::now();
    for it in &items {
        point.insert(it);
    }
    let point_rate = n as f64 / t.elapsed().as_secs_f64();

    let bulk = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    let t = Instant::now();
    bulk.bulk_insert(items.clone());
    let bulk_rate = n as f64 / t.elapsed().as_secs_f64();

    assert_eq!(point.len(), bulk.len());
    println!("{:<28} {:>14} {:>14}", "path", "items_per_s", "vs_point");
    println!(
        "{:<28} {:>14.0} {:>14.2}",
        "tree point insert", point_rate, 1.0
    );
    println!(
        "{:<28} {:>14.0} {:>14.2}",
        "tree bulk load",
        bulk_rate,
        bulk_rate / point_rate
    );

    // Level 2: through the cluster (parallel sessions).
    let cluster_n = scaled(60_000, 10_000);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 4;
    cfg.servers = 2;
    let cluster = Cluster::start(cfg);
    let ops: Vec<Op> = gen.items(cluster_n).into_iter().map(Op::Insert).collect();
    let res = drive(&cluster, 8, &ops);
    let cluster_point = res.throughput();
    println!(
        "{:<28} {:>14.0} {:>14}",
        "cluster point insert (8 sessions)", cluster_point, "-"
    );
    // System-level bulk ingestion: batches routed once per server pass and
    // shipped as per-shard bulk loads (paper: > 400 k items/s).
    let batches: Vec<Vec<_>> = gen
        .items(cluster_n)
        .chunks(4_096)
        .map(|c| c.to_vec())
        .collect();
    let t = Instant::now();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            if handles.len() == 4 {
                let h: std::thread::ScopedJoinHandle<'_, ()> = handles.remove(0);
                h.join().expect("bulk session");
                let _ = i;
            }
            let client = cluster.client();
            handles.push(s.spawn(move || {
                client.bulk_insert(batch).expect("bulk insert");
            }));
        }
        for h in handles {
            h.join().expect("bulk session");
        }
    });
    let cluster_bulk = cluster_n as f64 / t.elapsed().as_secs_f64();
    println!(
        "{:<28} {:>14.0} {:>14.2}",
        "cluster bulk insert (4 sessions)",
        cluster_bulk,
        cluster_bulk / cluster_point
    );
    cluster.shutdown();
    println!("# paper shape: bulk loading several times faster than point insertion (~8x on EC2)");
}
