//! Failure injection: the system must degrade with errors, never hangs or
//! panics, when parts of it disappear or misbehave.

use std::time::Duration;

use volap::{Cluster, Request, Response, VolapConfig};
use volap_data::DataGen;
use volap_dims::{Item, QueryBox, Schema};

#[test]
fn dead_worker_yields_errors_not_hangs() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 2;
    cfg.servers = 1;
    cfg.manager_enabled = false;
    cfg.request_timeout = Duration::from_millis(300);
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 1, 1.0);
    for it in gen.items(200) {
        client.insert(&it).unwrap();
    }
    assert!(cluster.kill_worker("worker-0"));
    assert!(!cluster.kill_worker("worker-0"), "double kill reports false");
    // Whole-space queries touch the dead worker's shard: error, fast.
    let t = std::time::Instant::now();
    let res = client.query(&QueryBox::all(&schema));
    assert!(res.is_err(), "query must surface the dead worker");
    assert!(t.elapsed() < Duration::from_secs(2), "failure must be prompt");
    // Inserts keep failing or succeeding depending on routing, but never
    // hang; run a batch and require completion within the timeout budget.
    let t = std::time::Instant::now();
    let mut errors = 0;
    for it in gen.items(50) {
        if client.insert(&it).is_err() {
            errors += 1;
        }
    }
    assert!(t.elapsed() < Duration::from_secs(20));
    assert!(errors > 0, "some inserts must route to the dead worker");
    cluster.shutdown();
}

#[test]
fn garbage_requests_get_error_replies() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 1;
    cfg.servers = 1;
    cfg.manager_enabled = false;
    let cluster = Cluster::start(cfg);
    let probe = cluster.network().endpoint("raw-probe");
    for target in ["server-0", "worker-0"] {
        let bytes = probe
            .request(target, vec![0xAB, 0xCD, 0xEF], Duration::from_secs(2))
            .expect("reply");
        match Response::decode(&schema, &bytes).expect("decodable") {
            Response::Err(e) => assert!(e.contains("bad request"), "{target}: {e}"),
            other => panic!("{target}: unexpected {other:?}"),
        }
    }
    // Wrong request type for the node role also errors politely.
    let bytes = probe
        .request(
            "server-0",
            Request::GetWorkerStats.encode(),
            Duration::from_secs(2),
        )
        .expect("reply");
    assert!(matches!(Response::decode(&schema, &bytes), Ok(Response::Err(_))));
    cluster.shutdown();
}

/// `Request::decode` has no schema, so a well-formed message can carry the
/// wrong number of coordinates or ranges. Both node roles must refuse it —
/// not answer from a vacuous match (a 0-range query used to return the
/// whole database) and not index out of bounds (a 5-coordinate insert used
/// to panic the worker's service thread, and two killed the worker).
#[test]
fn wrong_dimension_input_is_rejected_and_kills_nothing() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 1;
    cfg.servers = 1;
    cfg.manager_enabled = false;
    cfg.request_timeout = Duration::from_secs(2);
    let service_threads = cfg.worker_threads.max(cfg.server_threads);
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let good = DataGen::new(&schema, 1, 1.0).items(50);
    client.bulk_insert(good.clone()).unwrap();

    let wide = Item::new(vec![1, 2, 3, 4, 5], 1.0);
    let mixed = vec![good[0].clone(), wide.clone()];
    let no_ranges = QueryBox::from_ranges(vec![]);
    let five_ranges = QueryBox::from_ranges(vec![(0, 63); 5]);
    let bad: Vec<(&str, Request)> = vec![
        ("server-0", Request::ClientInsert { item: wide.clone(), principal: 0 }),
        ("server-0", Request::ClientBulkInsert { items: mixed.clone(), principal: 0 }),
        ("server-0", Request::ClientQuery { query: no_ranges.clone(), principal: 0 }),
        ("server-0", Request::ClientQuery { query: five_ranges.clone(), principal: 0 }),
        ("server-0", Request::ClientQueryAnalyze { query: no_ranges.clone(), principal: 0 }),
        ("worker-0", Request::Insert { shard: 0, item: wide }),
        ("worker-0", Request::BulkInsert { shard: 0, items: mixed }),
        ("worker-0", Request::Query { shards: vec![0], query: no_ranges.clone() }),
        ("worker-0", Request::Query { shards: vec![0], query: five_ranges }),
        ("worker-0", Request::QueryAnalyze { shards: vec![0], query: no_ranges }),
    ];
    let probe = cluster.network().endpoint("raw-probe");
    let ask = |target: &str, req: &Request| {
        let bytes = probe.request(target, req.encode(), Duration::from_secs(2));
        let bytes = bytes.unwrap_or_else(|e| panic!("{target} gave no reply to {req:?}: {e}"));
        Response::decode(&schema, &bytes).expect("decodable")
    };
    // More rounds than either node has service threads: had a bad message
    // killed its thread, a later round would time out.
    for _ in 0..=service_threads {
        for (target, req) in &bad {
            match ask(target, req) {
                Response::Err(e) => assert!(e.contains("bad request"), "{target}: {e}"),
                other => panic!("{target} answered {req:?} with {other:?}"),
            }
        }
    }
    // Every thread is still alive and nothing wrong-shaped got in.
    assert_eq!(ask("worker-0", &Request::Ping), Response::Ack);
    assert_eq!(ask("server-0", &Request::Ping), Response::Ack);
    assert_eq!(client.query(&QueryBox::all(&schema)).unwrap().0.count, 50);
    cluster.shutdown();
}

#[test]
fn manager_disabled_means_no_balancing() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 2;
    cfg.servers = 1;
    cfg.manager_enabled = false;
    cfg.max_shard_items = 50; // would trigger constant splits if managed
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 2, 1.0);
    for it in gen.items(500) {
        client.insert(&it).unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(cluster.balance_counts(), (0, 0));
    assert_eq!(cluster.shard_count(), 2, "no splits without a manager");
    // Data is still all there.
    let (agg, _) = client.query(&QueryBox::all(&schema)).unwrap();
    assert_eq!(agg.count, 500);
    cluster.shutdown();
}

#[test]
fn shutdown_is_prompt_even_with_long_periods() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 2;
    cfg.servers = 2;
    // Hour-long periods: shutdown must still return immediately thanks to
    // interruptible sleeps.
    cfg.sync_period = Duration::from_secs(3600);
    cfg.stats_period = Duration::from_secs(3600);
    cfg.manager_period = Duration::from_secs(3600);
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 3, 1.0);
    for it in gen.items(50) {
        client.insert(&it).unwrap();
    }
    let t = std::time::Instant::now();
    cluster.shutdown();
    assert!(t.elapsed() < Duration::from_secs(5), "shutdown hung on sleeping threads");
}

#[test]
fn zero_worker_cluster_serves_errors() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 0;
    cfg.servers = 1;
    cfg.manager_enabled = false;
    cfg.initial_shards_per_worker = 0;
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 4, 1.0);
    assert!(client.insert(&gen.item()).is_err(), "no shards to route to");
    let (agg, searched) = client.query(&QueryBox::all(&schema)).unwrap();
    assert!(agg.is_empty());
    assert_eq!(searched, 0);
    cluster.shutdown();
}

#[test]
fn killed_worker_can_be_replaced_and_service_restored_for_new_data() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 2;
    cfg.servers = 1;
    cfg.request_timeout = Duration::from_millis(300);
    cfg.manager_enabled = false;
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 5, 1.0);
    for it in gen.items(100) {
        client.insert(&it).unwrap();
    }
    cluster.kill_worker("worker-1");
    let replacement = cluster.add_worker();
    assert_eq!(replacement, "worker-2");
    // Data on the dead worker is lost (VOLAP has no replication — the paper
    // scopes fault tolerance to Zookeeper's own availability), but queries
    // scoped to surviving shards keep working: probe via the image.
    let survivors: Vec<u64> = cluster
        .image()
        .shards()
        .into_iter()
        .filter(|r| r.worker == "worker-0")
        .map(|r| r.id)
        .collect();
    assert!(!survivors.is_empty());
    cluster.shutdown();
}

#[test]
fn manager_reaps_shards_of_dead_workers() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 2;
    cfg.servers = 1;
    cfg.manager_period = Duration::from_millis(40);
    cfg.stats_period = Duration::from_millis(25); // session TTL = 10x this
    cfg.request_timeout = Duration::from_millis(300);
    cfg.max_shard_items = 1_000_000; // no splits; isolate liveness behaviour
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 6, 1.0);
    for it in gen.items(200) {
        client.insert(&it).unwrap();
    }
    assert_eq!(cluster.shard_count(), 2);
    cluster.kill_worker("worker-1");
    // The worker's session expires (10 x stats_period = 250 ms), the
    // manager notices and removes the stranded shard record; service on
    // the survivor then works without errors again.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let workers = cluster.image().workers();
        let shards = cluster.shard_count();
        if workers == vec!["worker-0".to_string()] && shards == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "liveness cleanup never happened: workers {workers:?}, shards {shards}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // Queries succeed again (the dead worker's data is gone — no
    // replication in VOLAP — but routing is healthy).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if client.query(&QueryBox::all(&schema)).is_ok() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "routing never recovered");
        std::thread::sleep(Duration::from_millis(25));
    }
    cluster.shutdown();
}
