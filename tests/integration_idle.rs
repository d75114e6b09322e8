//! Idle cost of a started cluster, and that none of its threads outlive it.
//! Service and scan threads block in a channel `recv` until work arrives;
//! the stats, sync and manager threads wake once per period. An empty
//! `recv` polls the queue for a short window before it parks
//! (`shims/crossbeam`, `SPIN`): that window must stay a rounding error for
//! threads that have nothing to do. On failure the test names the threads
//! that burned the time. This is the only test of its binary, because it
//! measures the whole process.

mod threads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::Schema;

/// One window's cost per second of wall time: the process's CPU, and CPU
/// and wake-ups per thread name, costliest first (threads that share a name
/// are summed, so a pool shows as one row).
struct Window {
    cpu: Duration,
    table: String,
}

fn measure(wall: Duration) -> Window {
    let (start, before) = (Instant::now(), threads::stats());
    std::thread::sleep(wall);
    let (secs, after) = (start.elapsed().as_secs_f64(), threads::stats());
    let mut by_name: BTreeMap<String, (Duration, u64)> = BTreeMap::new();
    for (tid, now) in after {
        let (cpu0, wakes0) = before
            .get(&tid)
            .map_or((Duration::ZERO, 0), |b| (b.cpu, b.wakes));
        let row = by_name.entry(now.name).or_default();
        row.0 += now.cpu.saturating_sub(cpu0);
        row.1 += now.wakes.saturating_sub(wakes0);
    }
    let cpu = by_name
        .values()
        .map(|r| r.0)
        .sum::<Duration>()
        .div_f64(secs);
    assert!(
        !cpu.is_zero(),
        "no scheduler statistics: nothing was measured"
    );
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|(_, (cpu, _))| std::cmp::Reverse(*cpu));
    let mut table = format!("{:<16} {:>10} {:>10}\n", "thread", "CPU ms/s", "wakes/s");
    for (name, (cpu, wakes)) in rows {
        let ms = cpu.as_secs_f64() * 1e3 / secs;
        table += &format!("{name:<16} {ms:>10.2} {:>10.1}\n", wakes as f64 / secs);
    }
    println!("idle cluster: {cpu:?} CPU per second\n{table}");
    Window { cpu, table }
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
    let before = threads::count();
    let cluster = Cluster::start(cfg);
    cluster
        .client()
        .bulk_insert(DataGen::new(&schema, 1, 1.5).items(2_000))
        .expect("preload");
    cluster.settle(Duration::from_secs(5));

    // A poll loop that burns CPU burns it in every window; a manager round,
    // a stats publish or a busy host only in some. So: the quietest of up
    // to three windows, stopping at the first that is inside the budget.
    let budget = Duration::from_millis(50);
    let mut quietest = measure(Duration::from_secs(2));
    for _ in 1..3 {
        if quietest.cpu < budget {
            break;
        }
        let window = measure(Duration::from_secs(2));
        if window.cpu < quietest.cpu {
            quietest = window;
        }
    }
    assert!(
        quietest.cpu < budget,
        "idle cluster burns {:?} of CPU per second; its quietest window:\n{}",
        quietest.cpu,
        quietest.table
    );
    cluster.shutdown();
    // A joined thread may stay listed for a moment after its join returns;
    // a leaked one stays for good.
    let start = Instant::now();
    while threads::count() != before && start.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads::count(), before, "threads outlived the cluster");
}
