//! End-to-end causal tracing: a sampled query through a multi-server,
//! multi-shard cluster must yield one assembled trace whose spans cover
//! every layer it crossed — server routing, net hops, worker queues, and
//! per-shard tree execution — with correct parent/child edges, and that
//! trace must survive the Perfetto round trip.

use std::time::Duration;

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};
use volap_obs::export;
use volap_obs::Trace;

fn traced_cluster() -> (Cluster, Schema) {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2; // 4 shards
    cfg.manager_enabled = false; // stable shard set -> deterministic span shape
    cfg.obs.trace.sample = 1; // sample everything
    cfg.obs.trace.slow_threshold = Duration::ZERO; // every root enters the recorder
    (Cluster::start(cfg), schema)
}

/// The trace in the slow ring whose root carries the given `op` annotation,
/// most recent first.
fn find_trace(traces: &[Trace], op: &str) -> Option<Trace> {
    traces
        .iter()
        .rev()
        .find(|t| t.root().is_some_and(|r| r.annotation("op") == Some(op)))
        .cloned()
}

#[test]
fn sampled_query_produces_a_complete_causal_trace() {
    let (cluster, schema) = traced_cluster();
    assert_eq!(cluster.shard_count(), 4);

    let mut gen = DataGen::new(&schema, 11, 1.2);
    cluster.client_on(0).bulk_insert(gen.items(400)).expect("bulk");

    // Ingest went through server-0; query through server-1. Its routing
    // image lags by up to one sync period (bounded staleness), so poll
    // until the cross-server view converges.
    let client = cluster.client_on(1);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (agg, shards_searched) = loop {
        let (agg, shards) = client.query(&QueryBox::all(&schema)).expect("query");
        if agg.count == 400 || std::time::Instant::now() > deadline {
            break (agg, shards);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(agg.count, 400, "server-1's image converged");
    assert_eq!(shards_searched, 4);

    let slow = cluster.slow_traces();
    let trace = find_trace(&slow, "query").expect("query trace recorded");

    // Root: the server-side routing span.
    let root = trace.root().expect("trace has a root");
    assert_eq!(root.name, "server_route");
    assert_eq!(root.parent_span_id, 0);
    assert_eq!(root.annotation("server"), Some("server-1"));
    assert!(root.duration_us() > 0 || root.start_us == root.end_us);

    // One net hop per worker destination, each a direct child of the root.
    let hops: Vec<_> = trace
        .children_of(root.span_id)
        .into_iter()
        .filter(|s| s.name == "net_hop")
        .collect();
    assert_eq!(hops.len(), 2, "one hop per worker:\n{}", trace.render_tree());
    for hop in &hops {
        assert!(hop.annotation("dest").is_some_and(|d| d.starts_with("worker-")));
        assert!(hop.annotation("error").is_none());

        // Under each hop: the measured queue wait and the worker-side
        // execution span.
        let kids = trace.children_of(hop.span_id);
        let queue = kids.iter().find(|s| s.name == "worker_queue");
        let exec = kids.iter().find(|s| s.name == "worker_query");
        assert!(queue.is_some(), "worker_queue under hop:\n{}", trace.render_tree());
        let exec = exec.unwrap_or_else(|| panic!("worker_query under hop:\n{}", trace.render_tree()));

        // Per-shard tree execution, annotated with traversal statistics.
        let scans: Vec<_> = trace
            .children_of(exec.span_id)
            .into_iter()
            .filter(|s| s.name == "tree_exec")
            .collect();
        assert_eq!(scans.len(), 2, "two shards per worker:\n{}", trace.render_tree());
        for scan in &scans {
            assert!(scan.annotation("shard").is_some());
            assert!(scan.annotation("nodes_visited").is_some());
            let scanned: u64 =
                scan.annotation("items_scanned").unwrap().parse().expect("numeric");
            let _ = scanned; // may be 0 for covered subtrees
        }
    }

    // Every span in the trace belongs to it and links to a present parent.
    for span in &trace.spans {
        assert_eq!(span.trace_id, trace.trace_id);
        if span.parent_span_id != 0 {
            assert!(
                trace.spans.iter().any(|s| s.span_id == span.parent_span_id),
                "orphaned span {}:\n{}",
                span.name,
                trace.render_tree()
            );
        }
        assert!(span.end_us >= span.start_us);
    }

    // Render never panics and shows the whole tree.
    let rendered = trace.render_tree();
    assert!(rendered.contains("server_route"));
    assert!(rendered.contains("tree_exec"));

    cluster.shutdown();
}

#[test]
fn sampled_insert_traces_the_single_hop_path() {
    let (cluster, schema) = traced_cluster();
    let mut gen = DataGen::new(&schema, 13, 1.0);
    for item in gen.items(10) {
        cluster.client_on(0).insert(&item).expect("insert");
    }

    let trace = find_trace(&cluster.slow_traces(), "insert").expect("insert trace");
    let root = trace.root().expect("root");
    assert_eq!(root.name, "server_route");
    let hops: Vec<_> = trace
        .children_of(root.span_id)
        .into_iter()
        .filter(|s| s.name == "net_hop")
        .collect();
    assert_eq!(hops.len(), 1, "insert routes to exactly one worker");
    let kids = trace.children_of(hops[0].span_id);
    assert!(kids.iter().any(|s| s.name == "worker_queue"));
    assert!(kids.iter().any(|s| s.name == "worker_insert"));
    cluster.shutdown();
}

#[test]
fn traces_round_trip_through_perfetto() {
    let (cluster, schema) = traced_cluster();
    let mut gen = DataGen::new(&schema, 17, 1.2);
    cluster.client_on(0).bulk_insert(gen.items(200)).expect("bulk");
    cluster.client_on(0).query(&QueryBox::all(&schema)).expect("query");

    let slow = cluster.slow_traces();
    assert!(!slow.is_empty());

    let json = export::traces_to_perfetto(&slow);
    let parsed = export::traces_from_perfetto(&json).expect("perfetto parses");
    assert_eq!(parsed, slow, "Perfetto export is lossless");
    cluster.shutdown();
}

#[test]
fn tracing_disabled_by_default_records_nothing() {
    let schema = Schema::uniform(2, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 1;
    cfg.workers = 1;
    cfg.manager_enabled = false;
    assert_eq!(cfg.obs.trace.sample, 0, "tracing defaults off");
    let cluster = Cluster::start(cfg);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 5, 1.0);
    client.bulk_insert(gen.items(100)).expect("bulk");
    client.query(&QueryBox::all(&schema)).expect("query");
    assert!(cluster.slow_traces().is_empty());
    assert!(cluster.tracer().spans().is_empty());
    cluster.shutdown();
}

#[test]
fn flight_recorder_threshold_filters_fast_requests() {
    let (cluster, schema) = traced_cluster();
    // Raise the threshold far beyond anything this workload can take.
    cluster.tracer().set_slow_threshold(Duration::from_secs(3600));
    let mut gen = DataGen::new(&schema, 19, 1.0);
    cluster.client_on(0).bulk_insert(gen.items(100)).expect("bulk");
    cluster.client_on(0).query(&QueryBox::all(&schema)).expect("query");
    assert!(cluster.slow_traces().is_empty(), "nothing should be this slow");
    // Spans were still collected (sampling is on) — only the recorder gate
    // filtered them.
    assert!(!cluster.tracer().spans().is_empty());
    cluster.shutdown();
}
