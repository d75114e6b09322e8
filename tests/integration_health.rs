//! Cluster-level continuous telemetry: the acceptance workload for the
//! history ring + SLO watchdog. A 2-server / 4-shard cluster with an
//! artificially slow image sync must breach a staleness rule, turn
//! `Cluster::health()` Degraded within a sampler interval of the breach
//! landing in a frame, leave a `health_transition` event in the event ring,
//! and flip `volap_health_state` in the Prometheus exposition. A second
//! test pins down frame-delta exactness against live registry totals while
//! ingest runs.

use std::time::{Duration, Instant};

use volap::{Cluster, HealthRule, HealthState, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};
use volap_obs::{export, SectionData};

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

#[test]
fn seeded_slo_breach_degrades_health_and_surfaces_everywhere() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2; // 4 shards
    cfg.manager_enabled = false;
    // Seed the breach: image sync delayed to 400 ms, so every cross-server
    // delta is applied hundreds of milliseconds stale — far past the rule.
    cfg.sync_period = Duration::from_millis(400);
    cfg.obs.history.interval = Duration::from_millis(40);
    cfg.obs.health_rules = vec![HealthRule {
        name: "staleness_p99".into(),
        component: "image_sync".into(),
        selector: "p99(volap_staleness_seconds)".into(),
        degraded_above: 0.05,
        critical_above: 60.0, // unreachable: the test pins Degraded, not Critical
        hysteresis: 1,
    }];
    let cluster = Cluster::start(cfg);
    assert_eq!(cluster.shard_count(), 4);
    assert!(cluster.health().iter().all(|h| h.state == HealthState::Healthy));

    // Drive inserts through both servers until the slow sync has measured
    // stale applications and the watchdog has seen the frame. The workload
    // keeps expanding shard boxes so each sync round has deltas to apply.
    let mut gen = DataGen::new(&schema, 11, 1.3);
    let mut degraded = |cluster: &Cluster| {
        for (i, item) in gen.items(64).into_iter().enumerate() {
            cluster.client_on(i % 2).insert(&item).expect("insert");
        }
        cluster
            .health()
            .iter()
            .any(|h| h.component == "image_sync" && h.state == HealthState::Degraded)
    };
    assert!(
        eventually(Duration::from_secs(15), || degraded(&cluster)),
        "staleness breach never degraded image_sync health: {:?}",
        cluster.health()
    );

    let snap = cluster.snapshot();
    // The transition left an event in the ring...
    let transition = snap
        .events_of("health_transition")
        .find(|e| e.detail.contains("component=image_sync") && e.detail.contains("to=degraded"))
        .cloned();
    assert!(transition.is_some(), "no health_transition event for the breach");
    // ...the snapshot carries the health section and the frames behind it...
    let h = snap
        .health
        .iter()
        .find(|h| h.component == "image_sync")
        .expect("image_sync in snapshot health");
    assert_eq!(h.state, HealthState::Degraded);
    assert!(h.value > 0.05, "breaching value not recorded: {}", h.value);
    assert!(h.transitions >= 1);
    assert!(!snap.history.frames.is_empty());
    snap.history.validate().expect("history ring invalid");
    // ...and the Prometheus exposition reports the degraded gauge.
    let prom = export::to_prometheus(&snap);
    let line = prom
        .lines()
        .find(|l| l.starts_with("volap_health_state{component=\"image_sync\"}"))
        .expect("volap_health_state gauge missing");
    let score: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(score >= 1.0, "exposition still healthy: {line}");

    // Queries still answer while degraded: the watchdog observes, it does
    // not gate the data path.
    let (agg, _) = cluster.client().query(&QueryBox::all(&schema)).expect("query");
    assert!(agg.count > 0);
    cluster.shutdown();
}

#[test]
fn history_frames_account_for_live_ingest_exactly() {
    let schema = Schema::uniform(3, 2, 8);
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.servers = 2;
    cfg.workers = 2;
    cfg.initial_shards_per_worker = 2;
    cfg.manager_enabled = false; // stable shard set -> exact counters
    cfg.sync_period = Duration::from_millis(20);
    cfg.obs.history.interval = Duration::from_millis(20);
    cfg.obs.history.capacity = 4096;
    let cluster = Cluster::start(cfg);

    const INSERTS: u64 = 1_200;
    const QUERIES: u64 = 30;
    let mut gen = DataGen::new(&schema, 13, 1.2);
    for (i, item) in gen.items(INSERTS as usize).into_iter().enumerate() {
        cluster.client_on(i % 2).insert(&item).expect("insert");
    }
    for i in 0..QUERIES {
        cluster.client_on(i as usize % 2).query(&QueryBox::all(&schema)).expect("query");
    }

    // Wait for the sampler to frame the tail of the workload, then the
    // ring's per-frame deltas must sum to the live counters exactly.
    assert!(
        eventually(Duration::from_secs(10), || {
            let hist = cluster.history();
            hist.delta_sum_all_labels("volap_server_inserts_total") >= INSERTS as f64
                && hist.delta_sum_all_labels("volap_server_queries_total") >= QUERIES as f64
        }),
        "sampler never framed the whole workload"
    );
    let hist = cluster.history();
    hist.validate().expect("history ring invalid");
    assert_eq!(hist.dropped, 0, "ring sized to be lossless for this workload");
    assert_eq!(cluster.health().len(), HealthRule::defaults().len(), "every default rule reports");
    let snap = cluster.snapshot();
    assert_eq!(
        hist.delta_sum_all_labels("volap_server_inserts_total"),
        snap.counter("volap_server_inserts_total") as f64,
        "frame deltas disagree with the live insert counter"
    );
    assert_eq!(
        hist.delta_sum_all_labels("volap_server_queries_total"),
        snap.counter("volap_server_queries_total") as f64,
        "frame deltas disagree with the live query counter"
    );
    assert_eq!(snap.counter("volap_server_inserts_total"), INSERTS);

    // Satellite: the snapshot is stamped with capture time and uptime, and
    // both survive the JSON round trip.
    assert!(snap.captured_unix_us > 0 && snap.uptime_us > 0);
    let back = export::from_json(&export::to_json(&snap)).expect("JSON parse");
    assert_eq!(back.captured_unix_us, snap.captured_unix_us);
    assert_eq!(back.uptime_us, snap.uptime_us);
    assert_eq!(back.history, snap.history);
    cluster.shutdown();
}
