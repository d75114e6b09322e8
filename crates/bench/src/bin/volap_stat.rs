//! `volap-stat`: run a mixed workload on a small in-process cluster, take a
//! cluster-wide observability snapshot, and show it.
//!
//! Doubles as the CI smoke test for everything `volap_obs` exports. Every
//! mode runs the same three checks before printing anything and exits
//! non-zero if one fails: every section's own structural validation
//! (`Snapshot::validate`), both exposition formats re-parsed to the exact
//! snapshot, and the sections the mode exists to show carrying data
//! (`Snapshot::is_populated`) — all three derived from the one section list
//! in `volap_obs::snapshot`. On top, each mode checks what only it knows:
//! that the snapshot accounts for the workload this binary just issued.
//! Usage: `volap-stat [--json | --prom | --traces | --heat | --locks |
//! --snapshot | --tenants]` (default: human summary + the Prometheus
//! exposition).
//!
//! * `--traces` forces causal tracing on (sample every request, zero slow
//!   threshold), prints the slow-query flight recorder as indented span
//!   trees, and fails on an empty recorder, a trace without a root span, or
//!   a Perfetto export that does not parse back losslessly.
//! * `--heat` prints the per-shard heat table; fails unless the published
//!   totals account for every workload insert.
//! * `--locks` prints the per-class lock contention table, hottest first;
//!   fails if a class the workload must touch was never acquired.
//! * `--snapshot` shrinks the split threshold so the manager acts, and
//!   emits the JSON document; fails unless heat, locks and a successful
//!   split in the audit trail are present.
//! * `--tenants` runs a *tagged* workload (three principals of different
//!   weights plus untagged traffic) and prints the per-principal totals and
//!   heavy-hitter tables; fails if a principal's accounted requests disagree
//!   with what was issued, if op counts do not reconcile with the registry,
//!   or if the rows-scanned sketch misranks the heaviest scanner.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};
use volap_obs::{export, AccountingSnapshot, Section, Snapshot};

fn fail(msg: &str) -> ! {
    eprintln!("volap-stat: FAIL: {msg}");
    std::process::exit(1);
}

/// The checks every mode shares; returns the two expositions.
fn check(snap: &Snapshot, shows: &[Section]) -> (String, String) {
    if let Err(e) = snap.validate() {
        fail(&format!("snapshot failed structural validation: {e}"));
    }
    if let Some(empty) = shows.iter().find(|&&s| !snap.is_populated(s)) {
        fail(&format!("snapshot carries no {} section", empty.name()));
    }
    let prom = export::to_prometheus(snap);
    match export::from_prometheus(&prom) {
        Ok(back) if back == snap.metrics_only() => {}
        Ok(_) => fail("prometheus exposition did not round-trip losslessly"),
        Err(e) => fail(&format!("prometheus exposition malformed: {e}")),
    }
    let json = export::to_json(snap);
    match export::from_json(&json) {
        Ok(back) if back == *snap => {}
        Ok(_) => fail("JSON snapshot did not round-trip losslessly"),
        Err(e) => fail(&format!("JSON snapshot malformed: {e}")),
    }
    (prom, json)
}

/// The `--heat` table.
fn heat_table(snap: &Snapshot) -> String {
    let mut out = format!("# volap-stat: per-shard heat ({} shards)\n", snap.heat.len());
    let _ = writeln!(
        out,
        "# {:>6} {:<10} {:>7} {:>9} {:>9} {:>10} {:>10} {:>8}",
        "shard", "worker", "items", "inserts", "queries", "ins/s", "qry/s", "vol"
    );
    for e in &snap.heat {
        let _ = writeln!(
            out,
            "# {:>6} {:<10} {:>7} {:>9} {:>9} {:>10.1} {:>10.1} {:>8.4}",
            e.shard,
            e.worker,
            e.items,
            e.inserts_total,
            e.queries_total,
            e.insert_rate,
            e.query_rate,
            e.volume_frac,
        );
    }
    out
}

/// The `--locks` table: classes by total wait, hottest first.
fn locks_table(snap: &Snapshot) -> String {
    let mut locks = snap.locks.clone();
    locks.sort_by(|a, b| {
        b.wait_sum_seconds
            .total_cmp(&a.wait_sum_seconds)
            .then_with(|| b.acquisitions.cmp(&a.acquisitions))
    });
    let mut out =
        format!("# volap-stat: lock contention ({} classes, hottest first)\n", locks.len());
    let _ = writeln!(
        out,
        "# {:<20} {:>4} {:>12} {:>10} {:>9} {:>12} {:>12}",
        "class", "rank", "acquisitions", "contended", "cont%", "wait_ms", "hold_ms"
    );
    for l in &locks {
        let _ = writeln!(
            out,
            "# {:<20} {:>4} {:>12} {:>10} {:>8.2}% {:>12.3} {:>12.3}",
            l.class,
            l.rank,
            l.acquisitions,
            l.contended,
            l.contention_frac() * 100.0,
            l.wait_sum_seconds * 1e3,
            l.hold_sum_seconds * 1e3,
        );
    }
    out
}

/// The `--tenants` tables: exact totals by request count, then the
/// per-dimension heavy hitters.
fn tenants_table(acc: &AccountingSnapshot) -> String {
    let mut out = format!(
        "# volap-stat: per-principal accounting ({} principals, top-{} sketches)\n",
        acc.principals.len(),
        acc.topk
    );
    let _ = writeln!(
        out,
        "# {:<14} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>7}",
        "principal", "requests", "rows", "nodes", "bytes", "wall_ms", "hops", "fanout"
    );
    let mut by_requests = acc.principals.clone();
    by_requests.sort_by_key(|t| std::cmp::Reverse(t.requests));
    for t in &by_requests {
        let _ = writeln!(
            out,
            "# {:<14} {:>9} {:>9} {:>8} {:>9} {:>9.1} {:>8} {:>7}",
            t.principal,
            t.requests,
            t.cost.rows_scanned,
            t.cost.nodes_visited,
            t.cost.bytes,
            t.cost.wall_us as f64 / 1e3,
            t.cost.net_hops,
            t.cost.fanout,
        );
    }
    out.push_str("#\n# heavy hitters per cost dimension (err is the bound):\n");
    for dim in acc.top.iter().filter(|dim| !dim.entries.is_empty()) {
        let _ = writeln!(out, "#   {}:", dim.dim);
        for (rank, e) in dim.entries.iter().enumerate() {
            let _ = writeln!(
                out,
                "#     {:>2}. {:<14} count {:>12.1}  err {:>8.1}",
                rank + 1,
                e.principal,
                e.count,
                e.err
            );
        }
    }
    out
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

/// The `--tenants` mode: tagged workload, per-principal accounting tables,
/// and an exact-total cross-check against the registry.
fn run_tenants() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = base_config(&schema);
    cfg.manager_enabled = false; // stable shard set -> exact counters
    let cluster = Cluster::start(cfg);

    // Ground truth: the workload this binary issues, per principal.
    // Weights differ by ~2x steps so the heavy-hitter ranking is
    // unambiguous.
    const TENANTS: [(&str, usize, u64); 3] = [
        ("tenant-alpha", 600, 24),
        ("tenant-beta", 300, 12),
        ("tenant-gamma", 100, 6),
    ];
    const UNTAGGED_INSERTS: usize = 200;
    let total_items: usize =
        TENANTS.iter().map(|t| t.1).sum::<usize>() + UNTAGGED_INSERTS;
    let mut gen = DataGen::new(&schema, 41, 1.3);
    let plain = cluster.client_on(0);
    for (i, (name, inserts, _)) in TENANTS.iter().enumerate() {
        let session = cluster.client_on(i % 2).with_principal(name);
        for item in gen.items(*inserts) {
            session.insert(&item).unwrap_or_else(|e| fail(&e));
        }
    }
    for item in gen.items(UNTAGGED_INSERTS) {
        plain.insert(&item).unwrap_or_else(|e| fail(&e));
    }
    // Wait for image sync on both servers with counted untagged probes, so
    // the registry cross-check below stays exact.
    let all = QueryBox::all(&schema);
    let mut probes = 0u64;
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        probes += 2;
        let synced = (0..2).all(|s| {
            cluster.client_on(s).query(&all).unwrap_or_else(|e| fail(&e)).0.count
                == total_items as u64
        });
        if synced {
            break;
        }
        if Instant::now() > deadline {
            fail("servers never converged on the tagged dataset");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // A partial box cannot be answered from covered directory aggregates,
    // so every tenant query scans leaf items and rows_scanned accumulates.
    let q = QueryBox::from_ranges(vec![(3, 40), (0, 63), (0, 63)]);
    for (i, (name, _, queries)) in TENANTS.iter().enumerate() {
        let session = cluster.client_on(i % 2).with_principal(name);
        for _ in 0..*queries {
            session.query(&q).unwrap_or_else(|e| fail(&e));
        }
    }

    let snap = cluster.snapshot();
    cluster.shutdown();
    check(&snap, &[Section::Accounting]);
    let acc = &snap.accounting;

    // Exact-total cross-check: every principal's accounted request count
    // must equal the workload issued, tagged-or-not op totals must
    // reconcile with the registry, and nobody extra may appear.
    if acc.principals.len() != TENANTS.len() {
        fail(&format!(
            "expected {} principals, accounting tracked {}",
            TENANTS.len(),
            acc.principals.len()
        ));
    }
    let mut tagged_queries = 0u64;
    for (name, inserts, queries) in TENANTS {
        let t = acc
            .principal(name)
            .unwrap_or_else(|| fail(&format!("{name} missing from accounting")));
        let issued = inserts as u64 + queries;
        if t.requests != issued {
            fail(&format!(
                "{name}: accounting charged {} requests but the workload issued {issued}",
                t.requests
            ));
        }
        if t.cost.rows_scanned == 0 || t.cost.bytes == 0 || t.cost.wall_us == 0 {
            fail(&format!("{name}: cost vector has empty dimensions: {:?}", t.cost));
        }
        tagged_queries += queries;
    }
    let reg_inserts = snap.counter("volap_server_inserts_total");
    if reg_inserts != total_items as u64 {
        fail(&format!(
            "registry counted {reg_inserts} inserts, workload issued {total_items}"
        ));
    }
    let reg_queries = snap.counter("volap_server_queries_total");
    if reg_queries != tagged_queries + probes {
        fail(&format!(
            "registry counted {reg_queries} queries, workload issued {tagged_queries} tagged + \
             {probes} probes"
        ));
    }
    // The sketch must agree with the exact totals on who scans the most
    // rows (3 principals against k>=3 slots: no eviction).
    match acc.top_of("rows_scanned").and_then(|rows| rows.entries.first()) {
        Some(top) if top.principal == TENANTS[0].0 => {}
        Some(top) => fail(&format!(
            "rows_scanned sketch ranks {} first, exact totals say {}",
            top.principal, TENANTS[0].0
        )),
        None => fail("rows_scanned sketch is empty after a tagged workload"),
    }
    print!("{}", tenants_table(acc));
    eprintln!(
        "volap-stat: OK (exact totals reconcile with the registry, exporters round-trip)"
    );
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    if mode == "--tenants" {
        run_tenants();
        return;
    }
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = base_config(&schema);
    if mode == "--traces" {
        cfg.obs.trace.sample = 1;
        cfg.obs.trace.slow_threshold = Duration::ZERO;
    }
    if mode == "--heat" {
        // A migrated shard restarts its heat totals on the adopting worker,
        // so the exact-total check below needs a stable shard set.
        cfg.manager_enabled = false;
    }
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
        cluster.client_on(i % 2).insert(&item).unwrap_or_else(|e| fail(&e));
    }
    for s in 0..2 {
        cluster.client_on(s).bulk_insert(gen.items(1_000)).unwrap_or_else(|e| fail(&e));
    }
    for i in 0..50 {
        cluster.client_on(i % 2).query(&QueryBox::all(&schema)).unwrap_or_else(|e| fail(&e));
    }
    // Give the sync threads a few rounds so the staleness probe observes
    // cross-server applies.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.obs().staleness().count() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    if mode == "--heat" {
        // The stats threads publish heat once per period; wait until every
        // workload insert is visible in the published totals. (Exact totals
        // hold because nothing splits under the default threshold.)
        while cluster.heatmap().iter().map(|e| e.inserts_total).sum::<u64>() < 4_000
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    if mode == "--snapshot" {
        // Splits reset the per-shard totals, so only require that heat was
        // published and at least one manager decision was audited.
        while (cluster.heatmap().is_empty() || cluster.balance_audit().is_empty())
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let snap = cluster.snapshot();
    let slow = cluster.slow_traces();
    cluster.shutdown();

    if mode == "--traces" {
        // Self-validate the tracing pipeline; CI relies on the exit code.
        if slow.is_empty() {
            fail("tracing forced on but the flight recorder is empty");
        }
        match export::traces_from_perfetto(&export::traces_to_perfetto(&slow)) {
            Ok(parsed) if parsed == slow => {}
            Ok(_) => fail("Perfetto trace export did not round-trip losslessly"),
            Err(e) => fail(&format!("Perfetto trace export malformed: {e}")),
        }
        println!(
            "# volap-stat: slow-query flight recorder ({} trace(s), oldest first)",
            slow.len()
        );
        for trace in &slow {
            if trace.root().is_none() {
                fail(&format!("trace {} has no root span", trace.trace_id));
            }
            println!("#");
            println!("# trace {:#018x}", trace.trace_id);
            for line in trace.render_tree().lines() {
                println!("#   {line}");
            }
        }
        eprintln!("volap-stat: OK (Perfetto export round-trips)");
        return;
    }

    // Self-validate before printing anything: CI runs this binary and
    // relies on the exit code.
    let shows: &[Section] = match mode.as_str() {
        "--heat" => &[Section::Heat],
        "--locks" => &[Section::Locks],
        "--snapshot" => &[Section::Heat, Section::Locks, Section::Audit],
        _ => &[Section::Histograms, Section::Staleness],
    };
    let (prom, json) = check(&snap, shows);
    if snap.counter("volap_server_inserts_total") != 4_000 {
        fail("server insert counter does not match the workload");
    }
    if snap.histogram("volap_server_insert_seconds").is_none_or(|h| h.count == 0) {
        fail("insert latency histogram is missing or empty");
    }
    if snap.captured_unix_us == 0 || snap.uptime_us == 0 {
        fail("snapshot is missing its capture-time / uptime stamps");
    }

    match mode.as_str() {
        "--prom" => print!("{prom}"),
        "--json" => println!("{json}"),
        "--heat" => {
            let inserts: u64 = snap.heat.iter().map(|e| e.inserts_total).sum();
            if inserts != 4_000 {
                fail(&format!("heat insert totals {inserts} do not account for the 4000-insert workload"));
            }
            print!("{}", heat_table(&snap));
        }
        "--locks" => {
            for class in ["server.index", "worker.slot_state", "tree.node"] {
                if snap.lock_class(class).is_none_or(|l| l.acquisitions == 0) {
                    fail(&format!("lock class {class} was never acquired"));
                }
            }
            print!("{}", locks_table(&snap));
        }
        "--snapshot" => {
            if !snap.audit.iter().any(|d| d.action == "split" && d.outcome == "ok") {
                fail("no successful split decision in the audit trail");
            }
            println!("{json}");
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
            print!("{prom}");
        }
    }
    eprintln!("volap-stat: OK (both exporters round-trip)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables are pure functions of a snapshot, so they are pinned on
    /// the exporters' golden fixture (a live run carries timestamps). The
    /// files under `tests/golden/` were printed by the code these functions
    /// were lifted from: tool output stays byte-identical.
    #[test]
    fn tables_reproduce_their_goldens() {
        let snap = export::from_json(include_str!("../../../obs/tests/golden/snapshot.json"))
            .expect("fixture parses");
        assert_eq!(heat_table(&snap), include_str!("../../tests/golden/heat.txt"));
        assert_eq!(locks_table(&snap), include_str!("../../tests/golden/locks.txt"));
        assert_eq!(tenants_table(&snap.accounting), include_str!("../../tests/golden/tenants.txt"));
    }
}
