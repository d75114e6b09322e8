//! Query introspection integration: distributed EXPLAIN/ANALYZE plans,
//! per-shard heat maps, and the load-balance audit trail.
//!
//! The acceptance workload: an ANALYZE'd query over ≥ 2 servers / ≥ 4
//! shards must return a [`QueryPlan`] whose per-shard traversal counters
//! sum to an independently measured trace of the same query, whose routing
//! section names the exact image leaves contacted, and which round-trips
//! losslessly through both the binary and JSON encodings.

use std::time::{Duration, Instant};

use volap::worker::{create_empty_shard, spawn_worker};
use volap::{Cluster, ImageStore, QueryPlan, Request, Response, VolapConfig};
use volap_coord::CoordService;
use volap_data::{DataGen, QueryGen};
use volap_dims::{Item, QueryBox, Schema};
use volap_net::Network;
use volap_obs::{Section, Trace};
use volap_tree::{build_store, QueryTrace};

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

/// The shard and traversal counters of every `tree_exec` span in a trace,
/// sorted by shard.
fn tree_exec_spans(trace: &Trace) -> Vec<(u64, QueryTrace)> {
    let mut spans: Vec<(u64, QueryTrace)> = trace
        .spans
        .iter()
        .filter(|s| s.name == "tree_exec")
        .map(|span| {
            let get = |k: &str| span.annotation(k).unwrap().parse::<u64>().unwrap();
            let counters = QueryTrace {
                nodes_visited: get("nodes_visited"),
                covered_hits: get("covered_hits"),
                items_scanned: get("items_scanned"),
                pruned: get("pruned"),
            };
            (get("shard"), counters)
        })
        .collect();
    spans.sort_by_key(|(shard, _)| *shard);
    spans
}

/// Sum the traversal counters of every `tree_exec` span in a trace — the
/// independent measurement an ANALYZE plan must agree with.
fn trace_totals(trace: &Trace) -> QueryTrace {
    let mut t = QueryTrace::default();
    for (_, counters) in tree_exec_spans(trace) {
        t.merge(&counters);
    }
    t
}

#[test]
fn analyze_plan_matches_independent_trace_across_cluster() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2; // 4 shards
    cfg.manager_enabled = false; // stable shard set -> deterministic counters
    cfg.obs.trace.sample = 1; // sample everything
    cfg.obs.trace.slow_threshold = Duration::ZERO; // every root enters the recorder
    let cluster = Cluster::start(cfg);
    assert_eq!(cluster.shard_count(), 4);

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

    // Query through the *other* server; poll until its image converged. The
    // full box overlaps a shard whatever its box, so it answers in full while
    // server-1 may still hold the corner-only boxes that miss the interior.
    let client = cluster.client_on(1);
    assert!(
        eventually(Duration::from_secs(10), || {
            client.query(&full).is_ok_and(|(agg, _)| agg.count == TOTAL)
                && client.query(&partial).is_ok_and(|(_, shards)| shards == 4)
        }),
        "server-1's image never converged"
    );
    for q in [&full, &partial] {
        // Independent measurement: one fully sampled plain query records a
        // tree_exec span (with exact traversal counters) per scanned shard.
        let (plain_agg, plain_shards) = client.query(q).expect("plain query");
        assert_eq!(plain_shards, 4);
        let slow = cluster.slow_traces();
        let trace = slow
            .iter()
            .rev()
            .find(|t| t.root().is_some_and(|r| r.annotation("op") == Some("query")))
            .expect("plain query trace recorded");
        let expected = trace_totals(trace);
        assert!(expected.nodes_visited > 0, "trace measured real traversal work");

        // The ANALYZE'd run of the same query over the same (static) data.
        let (agg, shards_searched, plan) = client.query_analyze(q).expect("analyze");
        assert_eq!(agg.count, plain_agg.count, "ANALYZE returns the same aggregate");
        assert_eq!(agg.sum, plain_agg.sum);
        assert_eq!(shards_searched, 4);

        // Routing section: the exact image leaves contacted, stamped with
        // the image state at decision time.
        assert_eq!(plan.server, "server-1");
        assert!(plan.image_generation > 0, "bootstrap applied image records");
        let mut leaves = plan.image_leaves.clone();
        leaves.sort_unstable();
        assert_eq!(plan.image_leaves, leaves, "image leaves arrive sorted");
        assert_eq!(plan.image_leaves.len(), 4);
        let mut requested: Vec<u64> =
            plan.workers.iter().flat_map(|w| w.requested.iter().copied()).collect();
        requested.sort_unstable();
        assert_eq!(requested, plan.image_leaves, "workers were asked exactly the routed leaves");
        assert_eq!(plan.executed_shards(), plan.image_leaves, "every routed leaf was scanned");

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
                assert!(w.fanout <= 1, "root-resolved shards never reach a scan thread: {w:?}");
                for s in &w.shards {
                    assert_eq!(s.nodes_visited, 1, "answered at the root: {s:?}");
                }
            } else {
                assert_eq!(w.fanout, 2, "both descents ran side by side: {w:?}");
            }
        }

        // The tentpole equality: per-shard counters in the plan sum to the
        // independently traced totals of the same query.
        let totals = plan.totals();
        assert_eq!(totals.nodes_visited, expected.nodes_visited, "nodes_visited");
        assert_eq!(totals.covered_hits, expected.covered_hits, "covered_hits");
        assert_eq!(totals.items_scanned, expected.items_scanned, "items_scanned");
        assert_eq!(totals.pruned, expected.pruned, "pruned");

        // Both encodings are lossless on a real plan; the renderer shows it.
        assert_eq!(QueryPlan::decode(&plan.encode()).expect("binary decodes"), plan);
        assert_eq!(QueryPlan::from_json(&plan.to_json()).expect("JSON parses"), plan);
        let rendered = plan.render();
        assert!(rendered.contains("server-1"));
        for w in &plan.workers {
            assert!(rendered.contains(&w.worker));
        }

        // The ANALYZE'd request itself is traced under its own op, so the
        // flight recorder and the plan can be joined — and it ran the same
        // scan as any sampled query: one tree_exec span per scanned shard,
        // carrying exactly the counters of that shard's plan row (an
        // abandoned at-root attempt records nothing).
        let slow = cluster.slow_traces();
        let analyzed = slow
            .iter()
            .rev()
            .find(|t| t.root().is_some_and(|r| r.annotation("op") == Some("query_analyze")))
            .expect("analyze run recorded its own trace");
        let mut rows: Vec<(u64, QueryTrace)> =
            plan.workers.iter().flat_map(|w| &w.shards).map(|s| (s.shard, s.trace())).collect();
        rows.sort_by_key(|(shard, _)| *shard);
        assert_eq!(tree_exec_spans(analyzed), rows, "tree_exec spans equal the ShardExec rows");
    }

    // Satellite: shard_adopt events (bootstrap adoptions) carry the image
    // generation stamp that joins them to plans and staleness probes.
    let snap = cluster.snapshot();
    let adopts: Vec<_> = snap.events_of("shard_adopt").collect();
    assert!(!adopts.is_empty(), "bootstrap logged adoptions");
    for ev in &adopts {
        assert!(ev.detail.contains("gen="), "shard_adopt enriched: {}", ev.detail);
        assert!(ev.detail.contains("worker="), "shard_adopt names its worker: {}", ev.detail);
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
        .request("w0", Request::BulkInsert { shard: 1, items: items.clone() }.encode(), Duration::from_secs(5))
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
                Request::QueryAnalyze { shards: vec![1], query: q.clone() }.encode(),
                Duration::from_secs(5),
            )
            .expect("analyze request");
        let (agg, exec) = match Response::decode(&schema, &bytes).expect("decode") {
            Response::AggExec { agg, shards_searched, exec } => {
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
        assert_eq!(s.trace(), mtrace, "ANALYZE counters equal the mirror's QueryTrace exactly");
        assert!(exec.forwards.is_empty());
        assert_eq!(exec.requested, vec![1]);
        assert_eq!(exec.fanout, 1, "single scan never fans out");
    }
    w.stop();
}

/// Heat accounting is exact under simultaneous insert and query load
/// across 4 shards: no bump is lost, totals published by the stats thread
/// converge to the precise workload counts, and the runtime toggle freezes
/// the counters.
#[test]
fn heat_totals_are_exact_under_concurrent_load() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2; // 4 shards
    cfg.manager_enabled = false;
    cfg.stats_period = Duration::from_millis(25);
    cfg.heat_halflife = Duration::from_millis(500);
    let cluster = Cluster::start(cfg);
    let ingest = cluster.client_on(0);
    for item in corner_items() {
        ingest.insert(&item).expect("corner insert");
    }

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 500;
    const QUERIES: u64 = 60;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client = cluster.client_on(t as usize % 2);
            let schema = schema.clone();
            s.spawn(move || {
                let mut gen = DataGen::new(&schema, 100 + t, 1.2);
                for item in gen.items(PER_THREAD as usize) {
                    client.insert(&item).expect("insert");
                }
            });
        }
        for t in 0..2 {
            let client = cluster.client_on(t);
            let schema = schema.clone();
            s.spawn(move || {
                for _ in 0..QUERIES / 2 {
                    client.query(&QueryBox::all(&schema)).expect("query");
                }
            });
        }
    });

    const INSERTS: u64 = THREADS * PER_THREAD + 4;
    let insert_total =
        |c: &Cluster| c.heatmap().iter().map(|e| e.inserts_total).sum::<u64>();
    assert!(
        eventually(Duration::from_secs(10), || insert_total(&cluster) == INSERTS),
        "published heat never converged to the exact insert count: {} != {INSERTS}",
        insert_total(&cluster)
    );
    let heat = cluster.heatmap();
    assert_eq!(heat.len(), 4, "one entry per live shard");
    assert!(heat.windows(2).all(|w| w[0].shard < w[1].shard), "ordered by shard id");
    let query_total: u64 = heat.iter().map(|e| e.queries_total).sum();
    // Every full-space query scans every non-empty shard; the early ones may
    // have seen fewer than 4 shards populated, hence >= and a sane cap.
    assert!(query_total >= QUERIES, "queries counted: {query_total}");
    assert!(query_total <= QUERIES * 4 + 16);
    for e in &heat {
        assert!(e.worker.starts_with("worker-"));
        assert!(e.items > 0);
        assert!((0.0..=1.0).contains(&e.volume_frac) && e.volume_frac > 0.0);
        assert!(e.insert_rate.is_finite() && e.insert_rate >= 0.0);
        assert!(e.query_rate.is_finite() && e.query_rate >= 0.0);
    }

    // Runtime toggle: disabled heat stops counting and publishing; totals
    // freeze at their exact values.
    assert!(cluster.obs().set_enabled(Section::Heat, false));
    let mut gen = DataGen::new(&schema, 999, 1.2);
    ingest.bulk_insert(gen.items(300)).expect("bulk");
    std::thread::sleep(Duration::from_millis(150)); // a few stats periods
    assert_eq!(insert_total(&cluster), INSERTS, "disabled heat counts nothing");
    cluster.shutdown();
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
    assert!(audit.windows(2).all(|w| w[0].seq < w[1].seq), "sequence ordered");
    let split = audit.iter().find(|d| d.action == "split" && d.outcome == "ok").unwrap();
    assert!(split.src.starts_with("worker-"), "decision names the holding worker");
    assert_eq!(split.result_shards.len(), 2, "a split yields two shard ids");
    assert!(split.result_shards[0] < split.result_shards[1]);
    let input = |k: &str| {
        split.inputs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
    };
    let len: u64 = input("len").expect("len input").parse().unwrap();
    let max: u64 = input("max_shard_items").expect("threshold input").parse().unwrap();
    assert!(len > max, "the audited inputs justify the decision: {len} <= {max}");
    assert_eq!(max, 400);
    // Heat was on (the default), so by the time a shard grew past the
    // threshold at least one stats period had published its rates.
    assert!(input("insert_rate").is_some(), "decision carries heat inputs: {:?}", split.inputs);
    // The split decision joins to the resulting shards in the image.
    let shards: Vec<u64> = cluster.image().shards().iter().map(|r| r.id).collect();
    assert!(
        split.result_shards.iter().all(|s| shards.contains(s))
            || cluster.balance_counts().0 > 1,
        "result shards exist (unless split again later)"
    );
    cluster.shutdown();
}
