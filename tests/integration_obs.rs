//! Cluster-wide observability integration: exact metric accounting, a
//! measured staleness distribution, and exporter round-trips — the
//! acceptance workload for the `volap-obs` layer (≥ 2 servers, ≥ 4 shards,
//! mixed inserts and queries).

use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};
use volap_obs::export;

fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

#[test]
fn snapshot_accounts_for_a_mixed_workload_exactly() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2; // 4 shards
    cfg.manager_enabled = false; // stable shard set -> exact counters
    cfg.sync_period = Duration::from_millis(20);
    let cluster = Cluster::start(cfg);
    assert_eq!(cluster.shard_count(), 4);

    const ITEM_INSERTS: u64 = 300;
    const BULK_ITEMS: u64 = 200;
    const QUERIES: u64 = 40;
    // Per-item inserts spread over both servers.
    let mut gen = DataGen::new(&schema, 7, 1.2);
    for (i, item) in gen.items(ITEM_INSERTS as usize).into_iter().enumerate() {
        let c = cluster.client_on(i % 2);
        c.insert(&item).expect("insert");
    }
    // One bulk batch through each server.
    let mut gen = DataGen::new(&schema, 8, 1.2);
    cluster.client_on(0).bulk_insert(gen.items(BULK_ITEMS as usize / 2)).expect("bulk");
    cluster.client_on(1).bulk_insert(gen.items(BULK_ITEMS as usize / 2)).expect("bulk");
    // Queries spread over both servers.
    for i in 0..QUERIES {
        let c = cluster.client_on(i as usize % 2);
        let (agg, shards) = c.query(&QueryBox::all(&schema)).expect("query");
        assert_eq!(agg.count, ITEM_INSERTS + BULK_ITEMS);
        assert!(shards >= 1);
    }

    // Counters: exact accounting of the workload, summed across labels.
    let snap = cluster.snapshot();
    assert_eq!(snap.counter("volap_server_inserts_total"), ITEM_INSERTS + BULK_ITEMS);
    assert_eq!(snap.counter("volap_server_queries_total"), QUERIES);
    assert_eq!(snap.counter("volap_worker_inserts_total"), ITEM_INSERTS);
    assert_eq!(snap.counter("volap_worker_bulk_items_total"), BULK_ITEMS);
    assert!(snap.counter("volap_worker_queries_total") >= QUERIES);
    assert!(snap.counter("volap_image_merges_total") > 0);
    assert!(snap.counter("volap_net_messages_total") > 0);
    assert!(snap.counter("volap_net_bytes_total") > 0);
    assert_eq!(snap.counter("volap_net_timeouts_total"), 0);

    // Latency histograms: every timed operation recorded.
    assert_eq!(snap.histogram("volap_server_insert_seconds").unwrap().count, ITEM_INSERTS);
    assert_eq!(snap.histogram("volap_server_bulk_insert_seconds").unwrap().count, 2);
    assert_eq!(snap.histogram("volap_server_query_seconds").unwrap().count, QUERIES);
    assert_eq!(snap.histogram("volap_worker_insert_seconds").unwrap().count, ITEM_INSERTS);
    assert!(snap.histogram("volap_worker_query_seconds").unwrap().count >= QUERIES);
    let net_hist = snap.histogram("volap_net_request_seconds").unwrap();
    assert!(net_hist.count > 0 && net_hist.sum_seconds > 0.0);

    // Measured staleness: the workload expanded shard boxes on both
    // servers, so after a few sync periods each server has applied the
    // other's pushes and the probe holds real samples.
    assert!(
        eventually(Duration::from_secs(10), || cluster.obs().staleness().count() > 0),
        "staleness probe never recorded a remote apply"
    );
    let snap = cluster.snapshot();
    assert!(snap.staleness.count > 0);
    assert!(!snap.staleness.samples_seconds.is_empty());
    for (stale, frac) in snap.staleness.pbs_curve(8) {
        assert!(stale >= 0.0 && (0.0..=1.0).contains(&frac));
    }
    let probe_hist = snap.histogram("volap_staleness_seconds").unwrap();
    assert_eq!(probe_hist.count, snap.staleness.count);

    // Events: sync rounds were logged; box expansions exist.
    assert!(snap.events_of("image_sync").next().is_some(), "sync events logged");
    assert!(snap.counter("volap_server_box_expansions_total") > 0);

    // Both exporters round-trip this real snapshot.
    let json = export::to_json(&snap);
    assert_eq!(export::from_json(&json).expect("JSON parses"), snap);
    let prom = export::to_prometheus(&snap);
    assert_eq!(
        export::from_prometheus(&prom).expect("exposition parses"),
        snap.metrics_only()
    );
    cluster.shutdown();
}

#[test]
fn histograms_knob_disables_timing_but_not_counting() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 1;
    cfg.workers = 1;
    cfg.manager_enabled = false;
    cfg.obs.histograms = false;
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 3, 1.0);
    for item in gen.items(50) {
        client.insert(&item).expect("insert");
    }
    client.query(&QueryBox::all(&schema)).expect("query");
    let snap = cluster.snapshot();
    assert_eq!(snap.counter("volap_server_inserts_total"), 50);
    assert_eq!(snap.counter("volap_server_queries_total"), 1);
    assert_eq!(snap.histogram("volap_server_insert_seconds").unwrap().count, 0);
    assert_eq!(snap.histogram("volap_server_query_seconds").unwrap().count, 0);
    cluster.shutdown();
}

/// Forced splits, migrations onto a new worker and the reap of that
/// worker's shards once it dies: the worker-side events reach the log, and
/// the audit trail — the one record of each manager decision — reconciles
/// exactly with the manager's counters.
#[test]
fn split_and_migration_events_reach_the_log() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 1;
    cfg.workers = 2;
    cfg.max_shard_items = 400; // force splits
    cfg.manager_period = Duration::from_millis(30);
    cfg.stats_period = Duration::from_millis(25); // session TTL = 10x this
    cfg.request_timeout = Duration::from_secs(2);
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 9, 1.4);
    client.bulk_insert(gen.items(3000)).expect("bulk");
    assert!(
        eventually(Duration::from_secs(15), || cluster.balance_counts().0 >= 1),
        "manager never split"
    );
    let fresh = cluster.add_worker();
    let holds_data = || cluster.worker_loads().iter().any(|(w, n)| *w == fresh && *n > 0);
    assert!(
        eventually(Duration::from_secs(15), holds_data),
        "manager never migrated onto the new worker"
    );
    let reaped = || cluster.snapshot().counter("volap_manager_orphans_removed_total");
    assert!(cluster.kill_worker(&fresh));
    assert!(eventually(Duration::from_secs(15), || reaped() >= 1), "no orphan reaped");

    // Stop the manager so no decision is half-recorded, then read the
    // shared core it recorded into.
    let obs = cluster.obs().clone();
    cluster.shutdown();
    let snap = obs.snapshot();
    assert!(snap.events_of("shard_split").next().is_some(), "split event logged");
    assert!(snap.events_of("shard_migrate").next().is_some(), "migrate event logged");
    assert!(snap.counter("volap_worker_splits_total") >= 1);
    assert!(snap.gauge("volap_worker_tree_node_splits") >= 0);
    assert_eq!(obs.audit().dropped(), 0, "the audit ring kept every decision");
    let decided = |action: &str| {
        snap.audit.iter().filter(|d| d.action == action && d.outcome == "ok").count() as u64
    };
    assert_eq!(decided("split"), snap.counter("volap_manager_splits_total"));
    assert_eq!(decided("migrate"), snap.counter("volap_manager_migrations_total"));
    assert_eq!(decided("orphan_reap"), snap.counter("volap_manager_orphans_removed_total"));
    assert!(decided("orphan_reap") >= 1);
}
