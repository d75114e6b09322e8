//! Quickstart: boot a small VOLAP cluster, stream in TPC-DS-style facts,
//! and run hierarchical aggregate queries while data keeps arriving.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::time::Instant;

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{DimPath, QueryBox, Schema};

fn main() {
    // The paper's Figure-1 schema: 8 hierarchical dimensions.
    let schema = Schema::tpcds();
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 4;
    cfg.servers = 2;
    println!(
        "starting VOLAP: {} workers, {} servers, shard store = {}",
        cfg.workers, cfg.servers, cfg.store_kind
    );
    let cluster = Cluster::start(cfg);
    let client = cluster.client();

    // Stream in 20k synthetic retail facts.
    let mut gen = DataGen::new(&schema, 42, 1.5);
    let n = 20_000;
    let t = Instant::now();
    for item in gen.items(n) {
        client.insert(&item).expect("insert");
    }
    let dt = t.elapsed();
    println!(
        "ingested {n} items in {dt:?} ({:.0} items/s, point inserts through the full stack)",
        n as f64 / dt.as_secs_f64()
    );

    // Query 1: total sales across the whole database.
    let (all, shards) = client.query(&QueryBox::all(&schema)).expect("query");
    println!(
        "ALL: count={} sum={:.2} mean={:.2} (searched {shards} shards)",
        all.count,
        all.sum,
        all.mean().unwrap_or(0.0)
    );

    // Query 2: drill into one Store country (dimension 0, level 1).
    let mut paths: Vec<DimPath> = (0..schema.dims()).map(DimPath::root).collect();
    paths[0] = DimPath::new(0, vec![0]);
    let q = QueryBox::from_paths(&schema, &paths);
    let (country, _) = client.query(&q).expect("query");
    println!(
        "Store.Country=0: count={} ({:.1}% of facts) sum={:.2}",
        country.count,
        100.0 * country.count as f64 / all.count as f64,
        country.sum
    );

    // Query 3: conjunctive drill-down — one country AND one item category
    // AND one year, everything else unconstrained.
    paths[2] = DimPath::new(2, vec![0]); // Item.Category = 0
    paths[3] = DimPath::new(3, vec![0]); // Date.Year = 0
    let q = QueryBox::from_paths(&schema, &paths);
    let (drill, _) = client.query(&q).expect("query");
    println!(
        "country 0 x category 0 x year 0: count={} sum={:.2}",
        drill.count, drill.sum
    );

    cluster.shutdown();
    println!("done");
}
