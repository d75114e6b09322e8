//! `volap-stat`: run a mixed workload on a small in-process cluster, take a
//! cluster-wide observability snapshot, and show it.
//!
//! Doubles as the CI smoke test for everything `volap_obs` exports. Every
//! mode runs the same two checks before printing anything and exits
//! non-zero if one fails: every section's own structural validation
//! (`Snapshot::validate`), and the sections the mode exists to show
//! carrying data (`Snapshot::is_populated`) — both derived from the one
//! section list in `volap_obs::snapshot`. On top, each mode checks what only
//! it knows: that the snapshot accounts for the workload this binary just
//! issued. The exporters' bytes are pinned by golden-file tests.
//! Usage: `volap-stat [--json | --prom | --snapshot]`
//! (default: human summary + the Prometheus exposition).
//!
//! * `--snapshot` shrinks the split threshold so the manager acts, and
//!   emits the JSON document; fails unless the audit trail holds a
//!   successful split.

use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};
use volap_obs::{export, BalanceDecision, Section, Snapshot};

fn fail(msg: &str) -> ! {
    eprintln!("volap-stat: FAIL: {msg}");
    std::process::exit(1);
}

/// The checks every mode shares.
fn check(snap: &Snapshot, shows: &[Section]) {
    if let Err(e) = snap.validate() {
        fail(&format!("snapshot failed structural validation: {e}"));
    }
    if let Some(empty) = shows.iter().find(|&&s| !snap.is_populated(s)) {
        fail(&format!("snapshot carries no {} section", empty.name()));
    }
}

/// The cluster every mode runs on: 2 servers, 2 workers, 4 shards, fast sync.
fn base_config(schema: &Schema) -> VolapConfig {
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2;
    cfg.sync_period = Duration::from_millis(20);
    cfg
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    const MODES: [&str; 4] = ["", "--json", "--prom", "--snapshot"];
    if !MODES.contains(&mode.as_str()) {
        fail(&format!(
            "unknown mode {mode:?} (expected one of {:?})",
            &MODES[1..]
        ));
    }
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = base_config(&schema);
    if mode == "--snapshot" {
        // Make the manager act within the workload so the snapshot carries
        // a real audit trail: split threshold far below the item count.
        cfg.max_shard_items = 500;
        cfg.manager_period = Duration::from_millis(25);
    }
    let cluster = Cluster::start(cfg);

    // Mixed workload: item inserts and queries spread over both servers,
    // plus one bulk batch per server.
    let mut gen = DataGen::new(&schema, 42, 1.3);
    for (i, item) in gen.items(2_000).into_iter().enumerate() {
        cluster
            .client_on(i % 2)
            .insert(&item)
            .unwrap_or_else(|e| fail(&e));
    }
    for s in 0..2 {
        cluster
            .client_on(s)
            .bulk_insert(gen.items(1_000))
            .unwrap_or_else(|e| fail(&e));
    }
    for i in 0..50 {
        cluster
            .client_on(i % 2)
            .query(&QueryBox::all(&schema))
            .unwrap_or_else(|e| fail(&e));
    }
    // Give the sync threads a few rounds so the staleness probe observes
    // cross-server applies.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.obs().staleness().count() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let split_audited = |audit: &[BalanceDecision]| {
        audit
            .iter()
            .any(|d| d.action == "split" && d.outcome == "ok")
    };
    if mode == "--snapshot" {
        while !split_audited(&cluster.balance_audit()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let snap = cluster.snapshot();
    cluster.shutdown();

    // Self-validate before printing anything: CI runs this binary and
    // relies on the exit code.
    let shows: &[Section] = match mode.as_str() {
        "--snapshot" => &[Section::Audit],
        _ => &[Section::Histograms, Section::Staleness],
    };
    check(&snap, shows);
    if snap.counter("volap_server_inserts_total") != 4_000 {
        fail("server insert counter does not match the workload");
    }
    if snap
        .histogram("volap_server_insert_seconds")
        .is_none_or(|h| h.count == 0)
    {
        fail("insert latency histogram is missing or empty");
    }
    if snap.captured_unix_us == 0 || snap.uptime_us == 0 {
        fail("snapshot is missing its capture-time / uptime stamps");
    }

    match mode.as_str() {
        "--prom" => print!("{}", export::to_prometheus(&snap)),
        "--json" => println!("{}", export::to_json(&snap)),
        "--snapshot" => {
            if !split_audited(&snap.audit) {
                fail("no successful split decision in the audit trail");
            }
            println!("{}", export::to_json(&snap));
        }
        _ => {
            println!("# volap-stat: cluster snapshot (2 servers, 4 shards, mixed workload)");
            println!("#");
            for name in [
                "volap_server_inserts_total",
                "volap_server_queries_total",
                "volap_server_box_expansions_total",
                "volap_server_sync_rounds_total",
                "volap_worker_inserts_total",
                "volap_worker_bulk_items_total",
                "volap_net_messages_total",
                "volap_net_bytes_total",
            ] {
                println!("# {name:<42} {}", snap.counter(name));
            }
            println!(
                "# staleness: {} samples, p50 {:.1} ms, p95 {:.1} ms",
                snap.staleness.count,
                snap.staleness.quantile(0.5) * 1e3,
                snap.staleness.quantile(0.95) * 1e3,
            );
            println!("# events retained: {}", snap.events.len());
            println!();
            print!("{}", export::to_prometheus(&snap));
        }
    }
    eprintln!("volap-stat: OK");
}
