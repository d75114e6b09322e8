//! A "live dashboard" workload: the scenario VOLAP's introduction motivates.
//!
//! A pool of ingest clients streams point-of-sale facts at high velocity
//! while dashboard clients concurrently refresh a fixed panel of
//! hierarchical aggregates (revenue by country, by category, by hour, …).
//! Every dashboard refresh sees data that is at most a sync period old —
//! this is what "real-time OLAP" means in the paper.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example retail_dashboard
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{DimPath, QueryBox, Schema};

fn main() {
    let schema = Schema::tpcds();
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 4;
    cfg.servers = 2;
    cfg.max_shard_items = 50_000;
    let cluster = Arc::new(Cluster::start(cfg));

    // The dashboard's query panel.
    let panel: Vec<(&str, QueryBox)> = {
        let mut panel = Vec::new();
        let root = |schema: &Schema| (0..schema.dims()).map(DimPath::root).collect::<Vec<_>>();
        panel.push(("total revenue", QueryBox::all(&schema)));
        let mut p = root(&schema);
        p[0] = DimPath::new(0, vec![0]);
        panel.push((
            "revenue in store-country 0",
            QueryBox::from_paths(&schema, &p),
        ));
        let mut p = root(&schema);
        p[2] = DimPath::new(2, vec![0]);
        panel.push((
            "revenue in item-category 0",
            QueryBox::from_paths(&schema, &p),
        ));
        let mut p = root(&schema);
        p[7] = DimPath::new(7, vec![9]);
        panel.push(("revenue in hour 9", QueryBox::from_paths(&schema, &p)));
        let mut p = root(&schema);
        p[3] = DimPath::new(3, vec![0, 5]);
        panel.push((
            "revenue in year 0 / month 5",
            QueryBox::from_paths(&schema, &p),
        ));
        panel
    };

    let stop = Arc::new(AtomicBool::new(false));
    let inserted = Arc::new(AtomicU64::new(0));
    let refreshed = Arc::new(AtomicU64::new(0));

    let run_secs = 5;
    println!("streaming inserts + live dashboard for {run_secs}s ...");
    std::thread::scope(|s| {
        // 3 ingest sessions.
        for t in 0..3u64 {
            let client = cluster.client();
            let stop = Arc::clone(&stop);
            let inserted = Arc::clone(&inserted);
            let schema = schema.clone();
            s.spawn(move || {
                let mut gen = DataGen::new(&schema, 1000 + t, 1.5);
                while !stop.load(Ordering::Relaxed) {
                    for item in gen.items(64) {
                        if client.insert(&item).is_err() {
                            return;
                        }
                    }
                    inserted.fetch_add(64, Ordering::Relaxed);
                }
            });
        }
        // 2 dashboard sessions refreshing the panel.
        for _ in 0..2 {
            let client = cluster.client();
            let stop = Arc::clone(&stop);
            let refreshed = Arc::clone(&refreshed);
            let panel = panel.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for (_, q) in &panel {
                        if client.query(q).is_err() {
                            return;
                        }
                    }
                    refreshed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_secs(run_secs));
        stop.store(true, Ordering::Relaxed);
    });

    let ins = inserted.load(Ordering::Relaxed);
    let refr = refreshed.load(Ordering::Relaxed);
    println!(
        "ingested ~{ins} facts ({:.0}/s) while serving {refr} full dashboard refreshes",
        ins as f64 / run_secs as f64
    );

    // Final panel render.
    let client = cluster.client();
    let t = Instant::now();
    println!("\n=== dashboard ===");
    for (name, q) in &panel {
        let (agg, shards) = client.query(q).expect("query");
        println!(
            "{name:>32}: count={:>8} sum={:>14.2} mean={:>8.2} [{} shards]",
            agg.count,
            agg.sum,
            agg.mean().unwrap_or(0.0),
            shards
        );
    }
    println!("(rendered in {:?})", t.elapsed());
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => unreachable!("all clones dropped"),
    }
}
