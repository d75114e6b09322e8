//! Query introspection integration: distributed EXPLAIN/ANALYZE plans and
//! the load-balance audit trail.
//!
//! The acceptance workload: an ANALYZE'd query over ≥ 2 servers / ≥ 4
//! shards must return a [`QueryPlan`] whose per-shard rows equal what each
//! shard's worker reports when that shard alone is ANALYZE'd over the wire,
//! whose routing section names the exact image leaves contacted, and which
//! round-trips losslessly through the binary wire encoding.

use std::time::{Duration, Instant};

use volap::worker::{create_empty_shard, spawn_worker};
use volap::{Cluster, ImageStore, QueryPlan, Request, Response, ShardExec, VolapConfig};
use volap_coord::CoordService;
use volap_data::{DataGen, QueryGen};
use volap_dims::{Aggregate, Item, QueryBox, Schema};
use volap_net::{Endpoint, Network};
use volap_tree::build_store;

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

/// Four pairwise well-separated corners of a `Schema::uniform(3, 2, 8)`
/// space (64 leaves per dimension): routed by minimal box enlargement,
/// each occupies its own empty shard, guaranteeing four non-empty shards.
fn corner_items() -> Vec<Item> {
    [[0, 0, 0], [63, 63, 0], [63, 0, 63], [0, 63, 63]]
        .iter()
        .map(|c| Item::new(c.to_vec(), 1.0))
        .collect()
}

/// ANALYZE `q` over the one shard `shard`, sent straight to `worker`.
fn analyze_one_shard(
    driver: &Endpoint,
    schema: &Schema,
    worker: &str,
    shard: u64,
    q: &QueryBox,
) -> (Aggregate, ShardExec) {
    let req = Request::QueryAnalyze {
        shards: vec![shard],
        query: q.clone(),
    };
    let bytes = driver
        .request(worker, req.encode(), Duration::from_secs(5))
        .expect("analyze request");
    match Response::decode(schema, &bytes).expect("decode") {
        Response::AggExec {
            agg,
            shards_searched: 1,
            mut exec,
        } if exec.shards.len() == 1 => {
            assert!(
                exec.forwards.is_empty(),
                "a stable cluster forwards nothing"
            );
            (agg, exec.shards.pop().unwrap())
        }
        other => panic!("unexpected single-shard answer from {worker}: {other:?}"),
    }
}

#[test]
fn analyze_plan_matches_independent_trace_across_cluster() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2; // 4 shards
    cfg.manager_enabled = false; // stable shard set -> deterministic counters
    let cluster = Cluster::start(cfg);
    assert_eq!(cluster.shard_count(), 4);
    let driver = cluster.network().endpoint("explain-driver");

    let ingest = cluster.client_on(0);
    for item in corner_items() {
        ingest.insert(&item).expect("corner insert");
    }
    let mut gen = DataGen::new(&schema, 11, 1.2);
    ingest.bulk_insert(gen.items(2000)).expect("bulk");
    const TOTAL: u64 = 2004;

    // Full coverage resolves at every shard's root on the service thread;
    // the interior box cuts every shard's root entries, so every shard
    // descends and each worker fans its two scans out over its scan threads.
    let full = QueryBox::all(&schema);
    let partial = QueryBox::from_ranges(vec![(1, 62), (1, 62), (1, 62)]);

    // Poll until both servers' images converged. The full box overlaps a
    // shard whatever its box, so it answers in full while a server may
    // still hold the corner-only boxes that miss the interior.
    for server in 0..2 {
        let client = cluster.client_on(server);
        assert!(
            eventually(Duration::from_secs(10), || {
                client.query(&full).is_ok_and(|(agg, _)| agg.count == TOTAL)
                    && client.query(&partial).is_ok_and(|(_, shards)| shards == 4)
            }),
            "server-{server}'s image never converged"
        );
    }
    for (server, q) in [(0, &full), (0, &partial), (1, &full), (1, &partial)] {
        let client = cluster.client_on(server);
        let (plain_agg, plain_shards) = client.query(q).expect("plain query");
        assert_eq!(plain_shards, 4);

        // The ANALYZE'd run of the same query over the same (static) data.
        let (agg, shards_searched, plan) = client.query_analyze(q).expect("analyze");
        assert_eq!(
            agg.count, plain_agg.count,
            "ANALYZE returns the same aggregate"
        );
        assert_eq!(agg.sum, plain_agg.sum);
        assert_eq!(shards_searched, 4);

        // Routing section: the exact image leaves contacted, stamped with
        // the image state at decision time.
        assert_eq!(plan.server, format!("server-{server}"));
        assert!(plan.image_generation > 0, "bootstrap applied image records");
        let mut leaves = plan.image_leaves.clone();
        leaves.sort_unstable();
        assert_eq!(plan.image_leaves, leaves, "image leaves arrive sorted");
        assert_eq!(plan.image_leaves.len(), 4);
        let mut requested: Vec<u64> = plan
            .workers
            .iter()
            .flat_map(|w| w.requested.iter().copied())
            .collect();
        requested.sort_unstable();
        assert_eq!(
            requested, plan.image_leaves,
            "workers were asked exactly the routed leaves"
        );
        let executed = plan.executed_shards();
        assert_eq!(executed, plan.image_leaves, "every routed leaf was scanned");
        assert_eq!(
            executed.len(),
            shards_searched as usize,
            "every searched shard is explained"
        );
        assert!(
            executed.windows(2).all(|w| w[0] < w[1]),
            "each shard appears exactly once"
        );

        // Worker sections: both workers, sorted, two local shards each, no
        // aliases or forwards in a stable cluster.
        assert_eq!(plan.workers.len(), 2);
        assert!(plan.workers.windows(2).all(|w| w[0].worker < w[1].worker));
        for w in &plan.workers {
            assert_eq!(w.shards.len(), 2);
            assert_eq!(w.alias_chases, 0);
            assert!(w.forwards.is_empty());
            for s in &w.shards {
                assert!(s.items > 0, "seeded shards are non-empty");
            }
            if q == &full {
                assert!(
                    w.fanout <= 1,
                    "root-resolved shards never reach a scan thread: {w:?}"
                );
                for s in &w.shards {
                    assert_eq!(s.nodes_visited, 1, "answered at the root: {s:?}");
                }
            } else {
                assert_eq!(w.fanout, 2, "both descents ran side by side: {w:?}");
            }
        }

        // The tentpole equality: every shard row of the cluster plan equals
        // what its worker measures when asked for that shard alone, and the
        // single-shard answers add up to the plain query's aggregate.
        let mut alone = Aggregate::empty();
        for w in &plan.workers {
            for row in &w.shards {
                let (a, single) = analyze_one_shard(&driver, &schema, &w.worker, row.shard, q);
                alone.merge(&a);
                assert_eq!(single.shard, row.shard);
                assert_eq!(
                    single.items, row.items,
                    "shard {} holds the same items",
                    row.shard
                );
                assert_eq!(single.trace(), row.trace(), "shard {} counters", row.shard);
            }
        }
        assert_eq!(
            alone.count, plain_agg.count,
            "per-shard answers sum to the plain query"
        );
        assert!(
            plan.totals().nodes_visited > 0,
            "the plan measured real traversal work"
        );

        // The wire encoding is lossless on a real plan; the renderer shows it.
        assert_eq!(
            QueryPlan::decode(&plan.encode()).expect("binary decodes"),
            plan
        );
        let rendered = plan.render();
        assert!(rendered.contains(&plan.server));
        for w in &plan.workers {
            assert!(rendered.contains(&w.worker));
        }
    }

    // Satellite: shard_adopt events (bootstrap adoptions) carry the image
    // generation stamp that joins them to plans and staleness probes.
    let snap = cluster.snapshot();
    let adopts: Vec<_> = snap.events_of("shard_adopt").collect();
    assert!(!adopts.is_empty(), "bootstrap logged adoptions");
    for ev in &adopts {
        assert!(
            ev.detail.contains("gen="),
            "shard_adopt enriched: {}",
            ev.detail
        );
        assert!(
            ev.detail.contains("worker="),
            "shard_adopt names its worker: {}",
            ev.detail
        );
    }
    for ev in snap.events_of("route_miss") {
        assert!(ev.detail.contains("server=") && ev.detail.contains("image_gen="));
    }
    cluster.shutdown();
}

/// Deterministic single-shard exactness: drive one worker over the wire,
/// mirror its only shard in a locally built store fed the same items in
/// the same order, and require the ANALYZE counters to equal the mirror's
/// [`ShardStore::query_traced`] exactly — for several query shapes.
#[test]
fn single_shard_analyze_equals_local_traced_run() {
    let schema = Schema::uniform(3, 2, 8);
    let net = Network::new();
    let image = ImageStore::new(CoordService::new(), schema.clone());
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.worker_threads = 2;
    // `tree` is the one tree configuration: a setting made here reaches the
    // worker's stores (a top-level twin used to overwrite it silently). Small
    // leaves make the shape differ from the default, so the exact-counter
    // equality against the mirror below would catch a worker that ignored it.
    cfg.tree.leaf_cap = 8;
    let driver = net.endpoint("driver");
    let w = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, Duration::from_secs(5)).unwrap();

    let mut gen = DataGen::new(&schema, 21, 1.3);
    let items = gen.items(1500);
    let bytes = driver
        .request(
            "w0",
            Request::BulkInsert {
                shard: 1,
                items: items.clone(),
            }
            .encode(),
            Duration::from_secs(5),
        )
        .expect("bulk");
    assert_eq!(Response::decode(&schema, &bytes).unwrap(), Response::Ack);

    // The mirror: same store kind, same tree config, same items in the same
    // order — bulk_insert is deterministic, so the trees are identical.
    let mirror = build_store(cfg.store_kind, &schema, &cfg.tree);
    mirror.bulk_insert(items.clone());

    let mut qgen = QueryGen::new(&schema, 22, 0.2);
    let mut queries = vec![QueryBox::all(&schema)];
    for _ in 0..8 {
        queries.push(qgen.query(&items));
    }
    for q in &queries {
        let bytes = driver
            .request(
                "w0",
                Request::QueryAnalyze {
                    shards: vec![1],
                    query: q.clone(),
                }
                .encode(),
                Duration::from_secs(5),
            )
            .expect("analyze request");
        let (agg, exec) = match Response::decode(&schema, &bytes).expect("decode") {
            Response::AggExec {
                agg,
                shards_searched,
                exec,
            } => {
                assert_eq!(shards_searched, 1);
                (agg, exec)
            }
            other => panic!("unexpected {other:?}"),
        };
        let (magg, mtrace) = mirror.query_traced(q);
        assert_eq!(agg.count, magg.count, "aggregate count matches the mirror");
        assert_eq!(exec.shards.len(), 1);
        let s = &exec.shards[0];
        assert_eq!(s.shard, 1);
        assert_eq!(s.items, mirror.len());
        assert_eq!(
            s.trace(),
            mtrace,
            "ANALYZE counters equal the mirror's QueryTrace exactly"
        );
        assert!(exec.forwards.is_empty());
        assert_eq!(exec.requested, vec![1]);
        assert_eq!(exec.fanout, 1, "single scan never fans out");
    }
    w.stop();
}

/// The manager's split decisions land in the audit trail with the inputs
/// that drove them, the resulting shard ids, and an outcome.
#[test]
fn balance_audit_records_split_decisions() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 1;
    cfg.workers = 2;
    cfg.max_shard_items = 400; // force splits
    cfg.manager_period = Duration::from_millis(30);
    cfg.stats_period = Duration::from_millis(25);
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 9, 1.4);
    client.bulk_insert(gen.items(3000)).expect("bulk");
    assert!(
        eventually(Duration::from_secs(15), || cluster
            .balance_audit()
            .iter()
            .any(|d| d.action == "split" && d.outcome == "ok")),
        "no successful split decision audited"
    );
    let audit = cluster.balance_audit();
    assert!(
        audit.windows(2).all(|w| w[0].seq < w[1].seq),
        "sequence ordered"
    );
    let split = audit
        .iter()
        .find(|d| d.action == "split" && d.outcome == "ok")
        .unwrap();
    assert!(
        split.src.starts_with("worker-"),
        "decision names the holding worker"
    );
    assert_eq!(split.result_shards.len(), 2, "a split yields two shard ids");
    assert!(split.result_shards[0] < split.result_shards[1]);
    let input = |k: &str| {
        split
            .inputs
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
    };
    let len: u64 = input("len").expect("len input").parse().unwrap();
    let max: u64 = input("max_shard_items")
        .expect("threshold input")
        .parse()
        .unwrap();
    assert!(
        len > max,
        "the audited inputs justify the decision: {len} <= {max}"
    );
    assert_eq!(max, 400);
    // The split decision joins to the resulting shards in the image.
    let shards: Vec<u64> = cluster.image().shards().iter().map(|r| r.id).collect();
    assert!(
        split.result_shards.iter().all(|s| shards.contains(s)) || cluster.balance_counts().0 > 1,
        "result shards exist (unless split again later)"
    );
    cluster.shutdown();
}
