//! Load-balancing integration tests: splits, migrations and elasticity.

use std::time::Duration;

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};

fn cfg(schema: Schema) -> VolapConfig {
    let mut cfg = VolapConfig::new(schema);
    cfg.workers = 2;
    cfg.servers = 1;
    cfg.sync_period = Duration::from_millis(25);
    cfg.stats_period = Duration::from_millis(25);
    cfg.manager_period = Duration::from_millis(40);
    cfg.max_shard_items = 600;
    cfg
}

fn eventually(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    loop {
        if f() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn new_workers_receive_data_via_migration() {
    let schema = Schema::uniform(4, 2, 16);
    let cluster = Cluster::start(cfg(schema.clone()));
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 7, 1.0);
    for it in gen.items(3_000) {
        client.insert(&it).unwrap();
    }
    // Wait for splits to spread the data into multiple shards.
    assert!(
        eventually(Duration::from_secs(15), || cluster.shard_count() >= 4),
        "splits never produced enough shards"
    );
    // Scale out: the new workers start empty, like Figure 6's load phases.
    let w_new = cluster.add_worker();
    let _ = cluster.add_worker();
    let balanced = eventually(Duration::from_secs(20), || {
        let loads = cluster.worker_loads();
        let total: u64 = loads.iter().map(|(_, l)| l).sum();
        let min = loads.iter().map(|(_, l)| *l).min().unwrap_or(0);
        let max = loads.iter().map(|(_, l)| *l).max().unwrap_or(0);
        total > 0
            && min > 0
            && (max - min) as f64 <= 0.8 * total as f64 / loads.len() as f64 + 600.0
    });
    let loads = cluster.worker_loads();
    assert!(balanced, "load never balanced: {loads:?}");
    let (_, migrations) = cluster.balance_counts();
    assert!(migrations >= 1, "balancing must use migrations");
    assert!(
        loads.iter().any(|(w, l)| *w == w_new && *l > 0),
        "new worker {w_new} never received data: {loads:?}"
    );
    // Integrity after all the shuffling.
    let (agg, _) = client.query(&QueryBox::all(&schema)).unwrap();
    assert_eq!(agg.count, 3_000);
    cluster.shutdown();
}

#[test]
fn service_continues_during_balancing() {
    let schema = Schema::uniform(4, 2, 16);
    let mut c = cfg(schema.clone());
    c.max_shard_items = 300; // aggressive splitting while we operate
    let cluster = Cluster::start(c);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 8, 1.0);
    let q = QueryBox::all(&schema);
    let mut inserted = 0u64;
    for batch in 0..20 {
        for it in gen.items(150) {
            client.insert(&it).unwrap();
            inserted += 1;
        }
        // Queries interleaved with in-flight splits/migrations must always
        // succeed and never observe more items than inserted.
        let (agg, _) = client.query(&q).unwrap();
        assert!(
            agg.count <= inserted,
            "overcount at batch {batch}: {} > {inserted}",
            agg.count
        );
    }
    assert!(
        eventually(Duration::from_secs(10), || {
            client
                .query(&q)
                .map(|(a, _)| a.count == inserted)
                .unwrap_or(false)
        }),
        "final convergence failed"
    );
    // The manager splits on its own period, not in step with the loop above:
    // wait for it rather than racing it.
    assert!(
        eventually(Duration::from_secs(10), || cluster.balance_counts().0 >= 2),
        "test must actually exercise splits, got {}",
        cluster.balance_counts().0
    );
    cluster.shutdown();
}

#[test]
fn balance_counters_are_monotone_and_bounded() {
    let schema = Schema::uniform(3, 2, 8);
    let cluster = Cluster::start(cfg(schema.clone()));
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 9, 1.0);
    for it in gen.items(1_500) {
        client.insert(&it).unwrap();
    }
    let mut last = (0, 0);
    for _ in 0..20 {
        let now = cluster.balance_counts();
        assert!(
            now.0 >= last.0 && now.1 >= last.1,
            "counters must be monotone"
        );
        last = now;
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}
