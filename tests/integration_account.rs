//! Cluster-level per-principal workload accounting: the acceptance workload
//! for cost attribution and the heavy-hitter profiler. A 2-server / 4-shard
//! cluster runs a tagged mixed workload (two tenants plus untagged
//! traffic); the accounting snapshot's exact totals must reconcile with the
//! registry counters and both exporters, and sampled slow traces must carry
//! the right principal.

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

/// A partial box over the first dimension: unlike `QueryBox::all`, it cannot
/// be answered from covered directory aggregates alone, so it forces leaf
/// item scans — the `rows_scanned` cost dimension stays non-zero.
fn partial_box() -> QueryBox {
    QueryBox::from_ranges(vec![(3, 40), (0, 63), (0, 63)])
}

#[test]
fn tagged_workload_reconciles_with_registry_and_exporters() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2; // 4 shards
    cfg.manager_enabled = false; // stable shard set -> exact counters
    // Sample every request and call everything slow, so the flight
    // recorder holds traces for the principal-annotation check.
    cfg.obs.trace.sample = 1;
    cfg.obs.trace.slow_threshold = Duration::ZERO;
    let cluster = Cluster::start(cfg);
    assert_eq!(cluster.shard_count(), 4);

    const A_INSERTS: u64 = 300;
    const A_QUERIES: u64 = 8;
    const B_QUERIES: u64 = 5;
    const PLAIN_INSERTS: u64 = 100;
    const TOTAL: u64 = A_INSERTS + PLAIN_INSERTS;
    let mut gen = DataGen::new(&schema, 17, 1.2);
    let a = cluster.client_on(0).with_principal("tenant-a");
    let b = cluster.client_on(1).with_principal("tenant-b");
    let plain0 = cluster.client_on(0);
    let plain1 = cluster.client_on(1);
    assert!(!plain0.principal().is_tagged());
    for item in gen.items(A_INSERTS as usize) {
        a.insert(&item).expect("tenant-a insert");
    }
    for item in gen.items(PLAIN_INSERTS as usize) {
        plain0.insert(&item).expect("untagged insert");
    }
    // Wait until both servers' local images have synced every box
    // expansion, so the tagged queries below see identical routing. The
    // probes are untagged and counted, keeping the registry math exact.
    let all = QueryBox::all(&schema);
    let mut probes = 0u64;
    assert!(
        eventually(Duration::from_secs(15), || {
            probes += 2;
            plain0.query(&all).expect("probe").0.count == TOTAL
                && plain1.query(&all).expect("probe").0.count == TOTAL
        }),
        "servers never converged on the full dataset"
    );
    // Reference execution: an untagged ANALYZE of the tenants' query yields
    // the exact per-query traversal counters tagged queries are charged.
    let (ref_agg, _, ref_plan) =
        plain1.query_analyze(&partial_box()).expect("reference analyze");
    let per_query = ref_plan.totals();
    assert!(per_query.items_scanned > 0, "partial box must force leaf scans: {per_query:?}");

    for _ in 0..A_QUERIES {
        a.query(&partial_box()).expect("tenant-a query");
    }
    // A tagged query is the untagged query plus a flag: same answer.
    let (plain_agg, plain_shards) = plain1.query(&partial_box()).expect("untagged query");
    probes += 1;
    assert_eq!(plain_agg.count, ref_agg.count);
    for _ in 0..B_QUERIES {
        let (agg, shards) = b.query(&partial_box()).expect("tenant-b query");
        assert_eq!(
            (agg.count, agg.min, agg.max, shards),
            (plain_agg.count, plain_agg.min, plain_agg.max, plain_shards),
            "tagging must not change the response"
        );
        assert!((agg.sum - plain_agg.sum).abs() < 1e-6, "tagging must not change the sum");
    }

    // Exact totals: per-principal request counts are exact, and tagged +
    // untagged traffic reconciles with the registry counters.
    let snap = cluster.snapshot();
    let acc = &snap.accounting;
    assert!(acc.enabled);
    let ta = acc.principal("tenant-a").expect("tenant-a accounted");
    let tb = acc.principal("tenant-b").expect("tenant-b accounted");
    assert_eq!(ta.requests, A_INSERTS + A_QUERIES);
    assert_eq!(tb.requests, B_QUERIES);
    assert_eq!(acc.principals.len(), 2, "untagged traffic must not mint a principal");
    assert_eq!(snap.counter("volap_server_inserts_total"), TOTAL);
    assert_eq!(
        snap.counter("volap_server_queries_total"),
        A_QUERIES + B_QUERIES + probes + 1,
        "registry query counter disagrees with the issued workload"
    );
    // Cost dimensions carry real measurements: each tagged query was
    // charged exactly the reference plan's traversal counters, and fanned
    // out to both workers.
    assert_eq!(tb.cost.rows_scanned, B_QUERIES * per_query.items_scanned);
    assert_eq!(tb.cost.nodes_visited, B_QUERIES * per_query.nodes_visited);
    assert_eq!(ta.cost.rows_scanned, A_QUERIES * per_query.items_scanned);
    assert!(ta.cost.bytes > 0 && ta.cost.wall_us > 0);
    // Totals sum per-request fanout, so tenant-b's per-query scatter width
    // is its fanout total over its query count.
    assert_eq!(tb.cost.fanout % B_QUERIES, 0, "uneven scatter width: {:?}", tb.cost);
    let per_fanout = tb.cost.fanout / B_QUERIES;
    assert!(per_fanout >= 2, "partial box spans both workers, must fan out: {:?}", tb.cost);
    assert_eq!(ta.cost.net_hops, A_INSERTS + A_QUERIES * per_fanout);
    // The heavy-hitter sketch agrees on who scans the most rows (k=8 over
    // 2 tenants: no eviction, so the ranking is exact).
    let rows = acc.top_of("rows_scanned").expect("rows_scanned sketch");
    let top = rows.entries.first().expect("sketch has entries");
    assert_eq!(top.principal, "tenant-a", "hog of rows_scanned misidentified");

    // Exporters: lossless JSON round trip with a populated accounting
    // section, and exact totals visible as Prometheus counters.
    let back = export::from_json(&export::to_json(&snap)).expect("JSON parse");
    assert_eq!(back.accounting, snap.accounting);
    let prom = export::to_prometheus(&snap);
    let needle = format!(
        "volap_accounting_requests_total{{principal=\"tenant-a\"}} {}",
        ta.requests
    );
    assert!(prom.contains(&needle), "exposition missing {needle:?}");
    let rt = export::from_prometheus(&prom).expect("prometheus parse");
    assert_eq!(rt, snap.metrics_only(), "prometheus round trip lost accounting fold");

    // Slow traces: sampled roots of tagged requests carry the principal
    // annotation.
    let slow = cluster.slow_traces();
    assert!(!slow.is_empty(), "sampler recorded no slow traces");
    let tagged_root = slow.iter().any(|t| {
        t.spans.iter().any(|s| {
            s.name == "server_route"
                && s.annotations.iter().any(|(k, v)| k == "principal" && v == "tenant-b")
        })
    });
    assert!(tagged_root, "no slow trace root annotated principal=tenant-b");
    // ...and show the same execution as an untagged query's: one tree_exec
    // span per shard searched, not a detour that records none.
    let tagged: Vec<_> = slow
        .iter()
        .filter(|t| t.root().is_some_and(|r| r.annotation("principal") == Some("tenant-b")))
        .collect();
    assert!(!tagged.is_empty(), "tenant-b's queries are the most recent traces");
    for t in tagged {
        let scans = t.spans.iter().filter(|s| s.name == "tree_exec").count();
        assert_eq!(scans, plain_shards as usize, "tree_exec spans of\n{}", t.render_tree());
    }
    cluster.shutdown();
}
