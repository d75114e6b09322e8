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
//! * Server-side ingest coalescing flushes per-shard batches while the
//!   image-sync loop applies remote changes; both walk the routing index
//!   and the dirty set, so the flush path must never take them against
//!   the documented `index(21) < dirty(23)` order.
//! * The worker's bulk-insert path used to release the slot-state guard
//!   before inserting, losing batches that raced `do_split`'s item
//!   snapshot / queue drain — the exact-count convergence assertions
//!   below are the regression net for that fix (DESIGN.md §11.1).
//!
//! In debug builds `lock_check` defaults to Panic mode, so an inversion
//! aborts the offending service thread and surfaces as a failed request or
//! a wrong count; the snapshot counter assertion catches Record-mode
//! regressions and documents the invariant for release runs too.

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
    cfg.max_shard_items = 500;
    cfg.lock_check = true;
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
    let snap = cluster.snapshot();
    cluster.shutdown();
    assert_eq!(
        snap.counter("volap_lock_order_violations_total"),
        0,
        "lock-order violations under split/query stress"
    );
    // The stress only means something if the contended classes were hot.
    for class in ["worker.slots", "worker.slot_state", "tree.node", "net.pending"] {
        let acquired = snap.lock_class(class).map_or(0, |l| l.acquisitions);
        assert!(acquired > 0, "{class} never acquired — stress ineffective");
    }
}

/// Coalesced ingest flushes racing the image-sync loop.
#[test]
fn ingest_flush_vs_image_sync_respects_lock_order() {
    let schema = Schema::uniform(3, 2, 8);
    let mut c = cfg(schema.clone());
    c.servers = 2; // two servers: remote image changes actually arrive
    c.ingest_batch = 64;
    c.ingest_flush_interval = Duration::from_millis(1);
    c.sync_period = Duration::from_millis(10);
    let cluster = Cluster::start(c);
    let client = cluster.client();
    let mut gen = DataGen::new(&schema, 42, 1.1);
    let total = 4_000u64;
    for it in gen.items(total as usize) {
        client.insert(&it).expect("coalesced insert acked");
    }
    let q = QueryBox::all(&schema);
    assert!(
        eventually(Duration::from_secs(10), || {
            client.query(&q).map(|(a, _)| a.count == total).unwrap_or(false)
        }),
        "not all coalesced inserts landed"
    );
    let snap = cluster.snapshot();
    cluster.shutdown();
    assert_eq!(
        snap.counter("volap_lock_order_violations_total"),
        0,
        "lock-order violations under ingest-flush/image-sync stress"
    );
    for class in ["server.ingest", "server.index", "server.dirty"] {
        let l = snap.lock_class(class).expect("class in snapshot");
        assert!(l.acquisitions > 0, "{class} never acquired — stress ineffective");
    }
}
