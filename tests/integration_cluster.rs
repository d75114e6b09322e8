//! End-to-end cluster tests: client operations through servers and workers.

use std::time::Duration;

use volap::{Cluster, VolapConfig};
use volap_data::{coverage, DataGen, QueryGen};
use volap_dims::{Aggregate, Item, QueryBox, Schema};
use volap_net::NetError;

fn small_cfg(schema: Schema) -> VolapConfig {
    let mut cfg = VolapConfig::new(schema);
    cfg.workers = 3;
    cfg.servers = 2;
    cfg.worker_threads = 2;
    cfg.server_threads = 2;
    cfg.sync_period = Duration::from_millis(30);
    cfg.stats_period = Duration::from_millis(30);
    cfg.manager_period = Duration::from_millis(30);
    cfg.max_shard_items = 2_000;
    cfg.initial_shards_per_worker = 1;
    cfg
}

fn brute(items: &[Item], q: &QueryBox) -> Aggregate {
    let mut a = Aggregate::empty();
    for it in items.iter().filter(|it| q.contains_item(it)) {
        a.add(it.measure);
    }
    a
}

/// Repeat an eventually-consistent assertion until it holds or times out.
fn eventually(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    loop {
        if f() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn inserts_are_immediately_visible_on_same_session() {
    let schema = Schema::tpcds();
    let cluster = Cluster::start(small_cfg(schema.clone()));
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 11, 1.5);
    let items = gen.items(500);
    for (i, it) in items.iter().enumerate() {
        client.insert(it).unwrap();
        // Session consistency: a query right after the insert through the
        // SAME server must include it.
        if i % 100 == 99 {
            let (agg, _) = client.query(&QueryBox::all(&schema)).unwrap();
            assert_eq!(agg.count, (i + 1) as u64, "own writes must be visible");
        }
    }
    cluster.shutdown();
}

#[test]
fn queries_match_brute_force_across_servers() {
    let schema = Schema::tpcds();
    let cluster = Cluster::start(small_cfg(schema.clone()));
    let writer = cluster.client_on(0);
    let reader = cluster.client_on(1);
    let mut gen = DataGen::new(&schema, 21, 1.5);
    let items = gen.items(3_000);
    for it in &items {
        writer.insert(it).unwrap();
    }
    // Cross-server visibility is bounded by the sync period.
    assert!(
        eventually(Duration::from_secs(10), || {
            let (agg, _) = reader.query(&QueryBox::all(&schema)).unwrap();
            agg.count == items.len() as u64
        }),
        "cross-server convergence timed out"
    );
    // Check several coverage-diverse queries for exact agreement.
    let mut qg = QueryGen::new(&schema, 5, 0.6);
    for _ in 0..25 {
        let q = qg.query(&items);
        let expect = brute(&items, &q);
        let ok = eventually(Duration::from_secs(5), || {
            let (got, _) = reader.query(&q).unwrap();
            got.count == expect.count && (got.sum - expect.sum).abs() < 1e-6
        });
        assert!(
            ok,
            "query result diverged (coverage {})",
            coverage(&items, &q)
        );
    }
    cluster.shutdown();
}

#[test]
fn splits_preserve_all_data() {
    let schema = Schema::uniform(4, 2, 16);
    let mut cfg = small_cfg(schema.clone());
    cfg.max_shard_items = 500; // force many splits
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 31, 1.0);
    let items = gen.items(4_000);
    for it in &items {
        // Routing is eventually consistent while shards split underneath
        // the insert stream: retry transient errors like a real client.
        let ok = eventually(Duration::from_secs(5), || client.insert(it).is_ok());
        assert!(ok, "insert kept failing during splits");
    }
    // Wait for the manager to finish splitting.
    assert!(
        eventually(Duration::from_secs(15), || cluster.balance_counts().0 >= 3),
        "manager never split"
    );
    let (agg, shards) = client.query(&QueryBox::all(&schema)).unwrap();
    assert_eq!(agg.count, items.len() as u64, "no item lost through splits");
    assert!(shards >= 3, "whole-space query must touch the split shards");
    assert!(cluster.shard_count() > 3, "image must show the new shards");
    cluster.shutdown();
}

#[test]
fn empty_cluster_answers_empty() {
    let schema = Schema::uniform(2, 2, 8);
    let cluster = Cluster::start(small_cfg(schema.clone()));
    let client = cluster.client();
    let (agg, _) = client.query(&QueryBox::all(&schema)).unwrap();
    assert!(agg.is_empty());
    cluster.shutdown();
}

#[test]
fn concurrent_clients_do_not_lose_operations() {
    let schema = Schema::uniform(4, 2, 16);
    let cluster = Cluster::start(small_cfg(schema.clone()));
    let n_clients = 4;
    let per_client = 500;
    std::thread::scope(|s| {
        for c in 0..n_clients {
            let client = cluster.client();
            let schema = schema.clone();
            s.spawn(move || {
                let mut gen = DataGen::new(&schema, 100 + c as u64, 1.0);
                for it in gen.items(per_client) {
                    client.insert(&it).unwrap();
                }
            });
        }
    });
    let client = cluster.client();
    let total = (n_clients * per_client) as u64;
    assert!(
        eventually(Duration::from_secs(10), || {
            let (agg, _) = client.query(&QueryBox::all(&schema)).unwrap();
            agg.count == total
        }),
        "lost inserts under concurrency"
    );
    cluster.shutdown();
}

#[test]
fn client_bulk_insert_equals_point_inserts() {
    let schema = Schema::tpcds();
    let cluster = Cluster::start(small_cfg(schema.clone()));
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 51, 1.5);
    let items = gen.items(5_000);
    // Ship in 4 batches.
    for chunk in items.chunks(1_250) {
        client.bulk_insert(chunk.to_vec()).unwrap();
    }
    let (agg, _) = client.query(&QueryBox::all(&schema)).unwrap();
    assert_eq!(
        agg.count,
        items.len() as u64,
        "bulk path must not lose items"
    );
    // Exact agreement with brute force on a drill-down query.
    let mut qg = QueryGen::new(&schema, 52, 0.6);
    for _ in 0..10 {
        let q = qg.query(&items);
        let expect = brute(&items, &q);
        let ok = eventually(Duration::from_secs(5), || {
            let (got, _) = client.query(&q).unwrap();
            got.count == expect.count
        });
        assert!(ok, "bulk-ingested data must answer queries exactly");
    }
    // Empty batches are fine.
    client.bulk_insert(Vec::new()).unwrap();
    cluster.shutdown();
}

#[test]
fn out_of_domain_inserts_are_rejected_and_every_acked_insert_counts() {
    let schema = Schema::tpcds();
    let cluster = Cluster::start(small_cfg(schema.clone()));
    let client = cluster.client();
    let good = DataGen::new(&schema, 31, 1.5).items(3);
    let mut past_end = good[0].clone();
    past_end.coords[0] = schema.dim(0).ordinal_end() + 5;
    let mut at_end = good[1].clone();
    at_end.coords[1] = schema.dim(1).ordinal_end();
    let saturated = Item::new(vec![u64::MAX; schema.dims()], 1.0);

    client.insert(&good[0]).unwrap();
    for bad in [&past_end, &at_end, &saturated] {
        assert!(client.insert(bad).is_err(), "{:?} was acked", bad.coords);
    }
    client.insert(&good[1]).unwrap();
    // One bad item rejects its whole batch, so nothing of it is acked.
    assert!(client
        .bulk_insert(vec![good[2].clone(), saturated.clone()])
        .is_err());

    let acked = &good[..2];
    let (agg, _) = client.query(&QueryBox::all(&schema)).unwrap();
    let expect = brute(acked, &QueryBox::all(&schema));
    assert_eq!(agg.count, expect.count);
    assert!((agg.sum - expect.sum).abs() < 1e-9);
    cluster.shutdown();
}

#[test]
fn a_dropped_session_leaves_the_fabric() {
    let schema = Schema::tpcds();
    let cluster = Cluster::start(small_cfg(schema.clone()));
    let probe = cluster.network().endpoint("probe");
    // The cluster's first session is `client-0`.
    let session = cluster.client();
    session.query(&QueryBox::all(&schema)).unwrap();
    assert!(probe.send("client-0", Vec::new()).is_ok());
    drop(session);
    assert!(matches!(
        probe.send("client-0", Vec::new()),
        Err(NetError::UnknownEndpoint(_))
    ));
    // Sessions that come and go, as `settle` probes do, leave nothing behind.
    cluster.settle(Duration::from_secs(5));
    assert!(matches!(
        probe.send("client-1", Vec::new()),
        Err(NetError::UnknownEndpoint(_))
    ));
    cluster.shutdown();
}
