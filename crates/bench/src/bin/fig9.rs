//! Figure 9: the effect of query coverage on (a) individual query time and
//! (b) the number of shards searched, as heat maps.
//!
//! Paper setup: N = 1 billion, p = 20. Scaled: N below, p = 8. Expected
//! shape: (a) most queries are fast at every coverage with a few slow
//! outliers at *low* coverage (deep descents past imprecise directory
//! nodes); (b) shards searched grows roughly linearly with coverage, with
//! mid-coverage outliers where the query box crosses many shard-partition
//! boundaries.

use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_bench::{drive, heatmap, quick_mode, scaled};
use volap_data::{DataGen, Op, QueryGen};
use volap_dims::Schema;

fn main() {
    let schema = Schema::tpcds();
    let preload = scaled(120_000, 15_000);
    let per_bin = scaled(40, 8);
    let nbins = 20;

    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 8;
    cfg.servers = 2;
    cfg.max_shard_items = scaled(8_000, 2_500) as u64;
    println!(
        "# Figure 9: coverage impact (N = {preload}, p = {})",
        cfg.workers
    );
    if quick_mode() {
        println!("# (quick mode)");
    }
    let cluster = Cluster::start(cfg);

    let mut gen = DataGen::new(&schema, 9900, 1.5);
    let items = gen.items(preload);
    let ops: Vec<Op> = items.iter().cloned().map(Op::Insert).collect();
    drive(&cluster, 6, &ops);
    std::thread::sleep(Duration::from_millis(600));

    let sample: Vec<_> = items.iter().take(20_000).cloned().collect();
    let mut qg = QueryGen::new(&schema, 9901, 0.65);
    let bins = qg.fine_binned(&sample, nbins, per_bin, 600_000);

    let client = cluster.client();
    let mut time_points = Vec::new(); // (coverage, seconds)
    let mut shard_points = Vec::new(); // (coverage, shards searched)
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>10}",
        "coverage", "queries", "time_ms_avg", "time_ms_max", "shards_avg"
    );
    for bin in bins.iter() {
        if bin.is_empty() {
            continue;
        }
        let (mut t_sum, mut t_max, mut s_sum) = (0.0f64, 0.0f64, 0u64);
        for (c, q) in bin {
            let t = Instant::now();
            let (_, shards) = client.query(q).expect("query");
            let dt = t.elapsed().as_secs_f64();
            time_points.push((*c, dt));
            shard_points.push((*c, shards as f64));
            t_sum += dt;
            t_max = t_max.max(dt);
            s_sum += shards as u64;
        }
        let n = bin.len() as f64;
        let c_mid = bin.iter().map(|(c, _)| c).sum::<f64>() / n;
        println!(
            "{:>10.3} {:>8} {:>12.4} {:>12.4} {:>10.1}",
            c_mid,
            bin.len(),
            t_sum / n * 1e3,
            t_max * 1e3,
            s_sum as f64 / n
        );
    }

    println!("\n(a) query time vs coverage");
    println!(
        "{}",
        heatmap(&time_points, 60, 16, "coverage", "query time (s)")
    );
    println!("(b) shards searched vs coverage");
    println!(
        "{}",
        heatmap(&shard_points, 60, 16, "coverage", "shards searched")
    );
    println!("# paper shape: (a) fast everywhere, low-coverage outliers; (b) ~linear in coverage");
    cluster.shutdown();
}
