//! Figure 8: throughput and latency vs workload mix (insert percentage) at
//! a fixed database size, per query-coverage band.
//!
//! Paper setup: N = 1 billion, p = 20, m = 2, mixes 0/25/50/75/100 %
//! inserts. Scaled: N below, p = 8. Expected shape: throughput
//! interpolates roughly linearly between the pure-query and pure-insert
//! endpoints (insertion ≈ 3× faster than querying); query performance is
//! nearly identical across coverage bands ("coverage resilience").

use std::time::Duration;

use volap::{Cluster, VolapConfig};
use volap_bench::{drive, quick_mode, scaled, LatencyStats};
use volap_data::{mixed_stream, CoverageBand, DataGen, Op, QueryGen};
use volap_dims::Schema;

fn main() {
    let schema = Schema::tpcds();
    let preload = scaled(120_000, 15_000);
    let ops_per_cell = scaled(20_000, 3_000);
    let sessions = 6;

    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 8;
    cfg.servers = 2;
    cfg.max_shard_items = scaled(20_000, 4_000) as u64;
    cfg.sync_period = Duration::from_millis(40);
    println!(
        "# Figure 8: performance vs workload mix (N = {preload}, p = {}, m = {})",
        cfg.workers, cfg.servers
    );
    if quick_mode() {
        println!("# (quick mode)");
    }
    let cluster = Cluster::start(cfg);

    // Preload the database.
    let mut gen = DataGen::new(&schema, 8800, 1.5);
    let preload_items = gen.items(preload);
    let ops: Vec<Op> = preload_items.iter().cloned().map(Op::Insert).collect();
    drive(&cluster, sessions, &ops);
    std::thread::sleep(Duration::from_millis(500)); // let balancing settle

    // Coverage-banded query pools.
    let sample: Vec<_> = preload_items.iter().take(20_000).cloned().collect();
    let mut qg = QueryGen::new(&schema, 8801, 0.65);
    let bins = qg.binned(&sample, scaled(60, 20), 400_000);

    println!(
        "{:>6} {:<8} {:>14} {:>14} {:>12} {:>12}",
        "mix%", "band", "tput_ops_s", "q_tput_ops_s", "q_lat_ms", "i_lat_ms"
    );
    for mix in [0.0, 0.25, 0.5, 0.75, 1.0] {
        for (b, band) in CoverageBand::all().iter().enumerate() {
            if mix >= 1.0 && b > 0 {
                continue; // pure-insert row reported once
            }
            if bins[b].is_empty() {
                continue;
            }
            let stream = mixed_stream(&mut gen, &bins[b], mix, ops_per_cell, 8810 + b as u64);
            let res = drive(&cluster, sessions, &stream);
            let q_lat = LatencyStats::from_samples(res.query_lat.clone());
            let i_lat = LatencyStats::from_samples(res.insert_lat.clone());
            let q_tput = if res.query_lat.is_empty() {
                0.0
            } else {
                res.query_lat.len() as f64 / res.elapsed.as_secs_f64()
            };
            println!(
                "{:>6.0} {:<8} {:>14.0} {:>14.0} {:>12.4} {:>12.4}",
                mix * 100.0,
                if mix >= 1.0 {
                    "-".to_string()
                } else {
                    band.to_string()
                },
                res.throughput(),
                q_tput,
                q_lat.mean * 1e3,
                i_lat.mean * 1e3
            );
        }
    }
    println!(
        "# paper shape: linear tput-vs-mix; insert ~3x faster than query; bands nearly identical"
    );
    cluster.shutdown();
}
