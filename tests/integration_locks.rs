//! Lock-order regression stress tests, run with the runtime checker armed.
//!
//! These reproduce the workload shapes whose inversions the checker flushed
//! out when the instrumented wrappers landed:
//!
//! * `do_split` used to publish the split halves into the worker's slots
//!   map (rank 30) *while holding* the parent slot's state lock (rank 31) —
//!   the exact inverse of the `GetWorkerStats` path, which reads slot state
//!   under the slots map. Splits racing queries whose shard descents run on
//!   the workers' scan threads now run under the checker to keep both paths
//!   hot.
//! * Servers route bulk inserts while their image-sync loops apply remote
//!   changes; both walk the routing index and the dirty set, so the routing
//!   path must never take them against the documented
//!   `index(21) < dirty(23)` order.
//! * The worker's bulk-insert path used to release the slot-state guard
//!   before inserting, losing batches that raced `do_split`'s item
//!   snapshot / queue drain — the exact-count convergence assertions
//!   below are the regression net for that fix (DESIGN.md §11.1).
//!
//! Debug builds run the checker in Panic mode, so an inversion aborts the
//! offending service thread and surfaces as a failed request or a wrong
//! count; the violation-count assertion catches Record-mode regressions and
//! documents the invariant for release runs, which compile the checker out.
//! Each test proves its stress ran from the workload's own counters.

use std::time::Duration;

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};
use volap_obs::lock::violation_count;
use volap_obs::MetricId;

fn cfg(schema: Schema) -> VolapConfig {
    let mut cfg = VolapConfig::new(schema);
    cfg.workers = 2;
    cfg.servers = 1;
    cfg.sync_period = Duration::from_millis(25);
    cfg.stats_period = Duration::from_millis(25);
    cfg.manager_period = Duration::from_millis(40);
    cfg.max_shard_items = 500;
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

/// Splits racing parallel queries: the do_split ↔ query/stats inversion.
#[test]
fn splits_under_parallel_queries_respect_lock_order() {
    let violations = violation_count();
    let schema = Schema::uniform(3, 2, 8);
    let cluster = Cluster::start(cfg(schema.clone()));
    let client = cluster.client();
    let q = QueryBox::all(&schema);
    // Full coverage resolves at every shard's root on the service thread;
    // only shards that must descend reach the scan threads, and this
    // interior box makes every shard descend.
    let partial = QueryBox::from_ranges(vec![(1, 62), (1, 62), (1, 62)]);
    let mut gen = DataGen::new(&schema, 41, 1.1);
    let mut inserted = 0u64;
    // The widest side-by-side descent any worker reported.
    let mut widest = 0u32;
    let mut analyze = |inserted: u64| {
        let (agg, _, plan) = client.query_analyze(&partial).expect("partial query");
        assert!(agg.count <= inserted);
        widest = plan.workers.iter().map(|w| w.fanout).fold(widest, u32::max);
    };
    // Interleave ingest (driving splits past max_shard_items = 500) with
    // parallel fan-out queries so GetShardStats/query scans overlap splits.
    for _ in 0..12 {
        client.bulk_insert(gen.items(300)).expect("bulk insert");
        inserted += 300;
        let (agg, _) = client.query(&q).expect("query during splits");
        assert!(agg.count <= inserted);
        analyze(inserted);
    }
    assert!(
        eventually(Duration::from_secs(10), || cluster.balance_counts().0 >= 2),
        "stress must actually exercise splits"
    );
    let mut last = 0u64;
    assert!(
        eventually(Duration::from_secs(20), || {
            last = client.query(&q).map(|(a, _)| a.count).unwrap_or(0);
            last == inserted
        }),
        "final convergence failed: count {last} != inserted {inserted}"
    );
    // Two splits leave some worker with two shards to descend into.
    analyze(inserted);
    assert!(widest >= 2, "no worker ever ran two descents side by side");
    cluster.shutdown();
    assert_eq!(
        violation_count(),
        violations,
        "lock-order violations under split/query stress"
    );
}

/// Bulk routing on two servers at once, racing both image-sync loops.
#[test]
fn bulk_routing_vs_image_sync_respects_lock_order() {
    let violations = violation_count();
    let schema = Schema::uniform(3, 2, 8);
    let mut c = cfg(schema.clone());
    c.servers = 2; // two servers: remote image changes actually arrive
    c.sync_period = Duration::from_millis(10);
    let cluster = Cluster::start(c);
    let (sessions, batches, batch) = (2usize, 40usize, 50usize);
    std::thread::scope(|s| {
        for server in 0..sessions {
            let client = cluster.client_on(server);
            let mut gen = DataGen::new(&schema, 42 + server as u64, 1.1);
            s.spawn(move || {
                for _ in 0..batches {
                    client
                        .bulk_insert(gen.items(batch))
                        .expect("bulk insert acked");
                }
            });
        }
    });
    let total = (sessions * batches * batch) as u64;
    let client = cluster.client();
    let q = QueryBox::all(&schema);
    assert!(
        eventually(Duration::from_secs(10), || {
            client
                .query(&q)
                .map(|(a, _)| a.count == total)
                .unwrap_or(false)
        }),
        "not all bulk inserts landed"
    );
    let snap = cluster.snapshot();
    cluster.shutdown();
    assert_eq!(
        violation_count(),
        violations,
        "lock-order violations under bulk-routing/image-sync stress"
    );
    // The stress only means something if both servers routed through their
    // index (box expansions) and applied the other's changes (image sync).
    for server in ["server-0", "server-1"] {
        for metric in [
            "volap_server_box_expansions_total",
            "volap_server_image_applies_total",
        ] {
            let id = MetricId::labeled(metric, "server", server);
            let n = snap
                .counters
                .iter()
                .find(|c| c.id == id)
                .map_or(0, |c| c.value);
            assert!(n > 0, "{server}: {metric} is 0 — stress ineffective");
        }
    }
}
