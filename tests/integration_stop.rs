//! A cluster stops by disconnecting channels, not by polling a flag: with
//! every period an hour long its threads sleep, and still `shutdown` is
//! prompt, leaves no thread behind, and a client session kept past it fails
//! at once instead of waiting out its request timeout. This is the only test
//! of its binary, because it counts the whole process's threads.

#[allow(dead_code)] // this binary reads no CPU times
mod threads;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_dims::{QueryBox, Schema};

/// Wake-ups so far of the cluster's threads, summed per thread name. A
/// thread that sleeps in a blocking `recv` has none.
fn cluster_wakes() -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for t in threads::stats().into_values() {
        if t.name.starts_with("server-") || t.name.starts_with("worker-") || t.name == "manager" {
            *out.entry(t.name).or_default() += t.wakes;
        }
    }
    out
}

#[test]
fn a_cluster_sleeps_between_hour_long_periods_and_still_stops_at_once() {
    let schema = Schema::tpcds();
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 1;
    cfg.workers = 2;
    cfg.manager_enabled = true;
    cfg.manager_period = Duration::from_secs(3600);
    cfg.stats_period = Duration::from_secs(3600);
    cfg.sync_period = Duration::from_secs(3600);
    let before = threads::count();
    let cluster = Cluster::start(cfg);
    let session = cluster.client();
    session
        .query(&QueryBox::all(&schema))
        .expect("the cluster serves");

    // Nothing to do for an hour: no cluster thread should be woken. One that
    // polls for a stop signal wakes dozens of times in half a second.
    std::thread::sleep(Duration::from_millis(100));
    let start = cluster_wakes();
    std::thread::sleep(Duration::from_millis(500));
    let woken: Vec<(String, u64)> = cluster_wakes()
        .into_iter()
        .map(|(name, n)| {
            let woke = n.saturating_sub(start.get(&name).copied().unwrap_or(0));
            (name, woke)
        })
        .filter(|&(_, woke)| woke > 2)
        .collect();
    assert!(
        woken.is_empty(),
        "threads woke with nothing to do in 500 ms: {woken:?}"
    );

    let start = Instant::now();
    cluster.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        start.elapsed()
    );
    // A joined thread may stay listed for a moment after its join returns;
    // a leaked one stays for good.
    while threads::count() != before && start.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads::count(), before, "threads outlived the cluster");

    let start = Instant::now();
    let err = session
        .query(&QueryBox::all(&schema))
        .expect_err("the cluster is gone");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "a session past shutdown waited {:?} to learn: {err}",
        start.elapsed()
    );
}
