//! Idle cost of a started cluster, and that none of its threads outlive it.
//! Every service loop polls its mailbox with `recv(20 ms)` to see its shutdown
//! flag, and an empty `recv` polls the queue for a short window before it
//! parks (`shims/crossbeam`, `SPIN`): that window must stay a rounding error
//! for threads that have nothing to do. This is the only test of its binary,
//! because it measures the whole process.

use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::Schema;

/// CPU time of every live thread of this process, to the nanosecond (the
/// first field of each `/proc/self/task/*/schedstat`; `/proc/self/stat` counts
/// in 10 ms ticks, too coarse for a 100 ms budget). Threads that exit between
/// two readings drop out, which an idle cluster's do not.
fn process_cpu() -> Duration {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let ns = tasks.map(|task| {
        let stat = std::fs::read_to_string(task.expect("task entry").path().join("schedstat")).unwrap_or_default();
        stat.split(' ').next().and_then(|ns| ns.parse::<u64>().ok()).unwrap_or(0)
    });
    Duration::from_nanos(ns.sum())
}

/// Live threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn an_idle_cluster_uses_under_five_percent_of_a_core() {
    // The benchmark's topology: 1 server, 2 workers, manager on.
    let schema = Schema::tpcds();
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 1;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2;
    cfg.manager_enabled = true;
    let before = threads();
    let cluster = Cluster::start(cfg);
    cluster.client().bulk_insert(DataGen::new(&schema, 1, 1.5).items(2_000)).expect("preload");
    cluster.settle(Duration::from_secs(5));

    // A poll loop that burns CPU burns it in every window; a manager round,
    // a stats publish or a busy host only in some. So: the quietest of up
    // to three windows, stopping at the first that is inside the budget.
    let mut quietest = Duration::MAX;
    for _ in 0..3 {
        let (wall, cpu) = (Instant::now(), process_cpu());
        std::thread::sleep(Duration::from_secs(2));
        let (wall, cpu) = (wall.elapsed(), process_cpu().saturating_sub(cpu));
        println!("idle cluster: {cpu:?} CPU over {wall:?} wall");
        assert!(!cpu.is_zero(), "no scheduler statistics: nothing was measured");
        quietest = quietest.min(cpu.div_f64(wall.as_secs_f64()));
        if quietest < Duration::from_millis(50) {
            break;
        }
    }
    assert!(quietest < Duration::from_millis(50), "idle cluster burns {quietest:?} of CPU per second");
    cluster.shutdown();
    // A joined thread may stay listed for a moment after its join returns;
    // a leaked one stays for good.
    let start = Instant::now();
    while threads() != before && start.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before, "threads outlived the cluster");
}
