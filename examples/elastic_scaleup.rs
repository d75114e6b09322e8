//! Elastic scale-up: the Figure-6 scenario as a runnable demo.
//!
//! Data is loaded in phases; before each phase two empty workers join the
//! cluster. The manager reacts by splitting oversized shards and migrating
//! shards onto the new workers, closing the min/max load gap — all while
//! the cluster keeps serving queries.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example elastic_scaleup
//! ```

use std::time::Duration;

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};

fn print_loads(cluster: &Cluster, label: &str) {
    let mut loads = cluster.worker_loads();
    loads.sort();
    let min = loads.iter().map(|(_, l)| *l).min().unwrap_or(0);
    let max = loads.iter().map(|(_, l)| *l).max().unwrap_or(0);
    let (splits, migrations) = cluster.balance_counts();
    println!(
        "{label:<28} workers={:<2} min={min:<7} max={max:<7} splits={splits:<3} migrations={migrations:<3}",
        loads.len()
    );
    for (w, l) in &loads {
        let bar = "#".repeat((l / 400).min(80) as usize);
        println!("    {w:<10} {l:>7} {bar}");
    }
}

fn main() {
    let schema = Schema::tpcds();
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 2;
    cfg.servers = 2;
    cfg.max_shard_items = 4_000;
    cfg.manager_period = Duration::from_millis(50);
    cfg.stats_period = Duration::from_millis(30);
    cfg.sync_period = Duration::from_millis(30);
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 7, 1.5);

    let phase_items = 8_000;
    for phase in 1..=4 {
        if phase > 1 {
            let a = cluster.add_worker();
            let b = cluster.add_worker();
            println!("\n-- phase {phase}: added workers {a}, {b} (empty)");
            print_loads(&cluster, "after adding workers");
            // Let the balancer move data onto the newcomers.
            let settled = wait_balanced(&cluster, Duration::from_secs(20));
            print_loads(
                &cluster,
                if settled {
                    "after balancing"
                } else {
                    "balancing (timeout)"
                },
            );
        }
        println!("\n-- phase {phase}: loading {phase_items} items");
        for item in gen.items(phase_items) {
            client.insert(&item).expect("insert");
        }
        std::thread::sleep(Duration::from_millis(300)); // let stats publish
        print_loads(&cluster, "after load");
        let (agg, shards) = client.query(&QueryBox::all(&schema)).expect("query");
        println!(
            "    integrity: count={} (expected {}) across {shards} shards",
            agg.count,
            phase_items * phase
        );
    }
    cluster.shutdown();
}

/// Wait until the max/min worker-load gap falls under 40% of the mean.
fn wait_balanced(cluster: &Cluster, deadline: Duration) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < deadline {
        let loads = cluster.worker_loads();
        let total: u64 = loads.iter().map(|(_, l)| l).sum();
        let min = loads.iter().map(|(_, l)| *l).min().unwrap_or(0);
        let max = loads.iter().map(|(_, l)| *l).max().unwrap_or(0);
        let mean = total as f64 / loads.len() as f64;
        if total > 0 && min > 0 && (max - min) as f64 <= 0.4 * mean + 1_000.0 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}
