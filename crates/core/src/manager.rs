//! The manager: the background load-balancing planner (§III-E).
//!
//! The manager periodically reads shard statistics from the global image
//! and initiates two kinds of operations:
//!
//! * **splits** — any shard above the configured size threshold is split in
//!   place on its worker (the worker keeps serving through an insertion
//!   queue), and
//! * **migrations** — shards move from overloaded to underloaded workers
//!   until loads are within the slack band, which is how newly added
//!   (empty) workers are filled during horizontal scale-up (Figure 6).
//!
//! The manager is deliberately not on the insert/query path and can run
//! anywhere in the system.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use volap_net::{Endpoint, Network};
use volap_obs::{BalanceDecision, Counter, Histogram, Obs};

use crate::config::VolapConfig;
use crate::image::ImageStore;
use crate::proto::{Request, Response};

/// Cumulative counts of load-balancing operations (the right-hand axis of
/// Figure 6), backed by the deployment's metrics registry so they appear in
/// cluster snapshots alongside every other metric.
#[derive(Clone)]
pub struct BalanceStats {
    /// Completed shard splits (`volap_manager_splits_total`).
    pub splits: Counter,
    /// Completed shard migrations (`volap_manager_migrations_total`).
    pub migrations: Counter,
    /// Shard records removed because their worker's session expired
    /// (`volap_manager_orphans_removed_total`).
    pub orphans_removed: Counter,
    /// Wall time of each planning round (`volap_manager_round_seconds`).
    round_seconds: Histogram,
}

impl BalanceStats {
    /// Register (or re-attach to) the manager metrics in an observability
    /// core.
    pub fn new(obs: &Obs) -> Self {
        let reg = obs.registry();
        Self {
            splits: reg.counter("volap_manager_splits_total"),
            migrations: reg.counter("volap_manager_migrations_total"),
            orphans_removed: reg.counter("volap_manager_orphans_removed_total"),
            round_seconds: reg.histogram("volap_manager_round_seconds"),
        }
    }
}

/// Handle to a running manager.
pub struct ManagerHandle {
    /// Shared operation counters.
    pub stats: Arc<BalanceStats>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ManagerHandle {
    /// Signal shutdown and join.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawn the manager loop.
pub fn spawn_manager(net: &Network, image: &ImageStore, cfg: &VolapConfig, name: &str) -> ManagerHandle {
    let endpoint = net.endpoint(name.to_string());
    let stats = Arc::new(BalanceStats::new(image.obs()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread = {
        let image = image.clone();
        let cfg = cfg.clone();
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while crate::util::sleep_unless_stopped(cfg.manager_period, &stop) {
                    balance_round(&endpoint, &image, &cfg, &stats);
                }
            })
            .expect("spawn manager")
    };
    ManagerHandle { stats, shutdown, thread: Some(thread) }
}

/// One planning round: split oversized shards, then move shards from the
/// most to the least loaded workers. Public so tests and benches can drive
/// balancing synchronously.
pub fn balance_round(
    endpoint: &Endpoint,
    image: &ImageStore,
    cfg: &VolapConfig,
    stats: &BalanceStats,
) {
    let _timer = stats.round_seconds.start();
    // Expire dead sessions so the live-worker view is current.
    image.coord().reap_expired();
    let shards = image.shards();
    let workers = image.workers();
    if workers.is_empty() {
        return;
    }
    let audit = image.obs().audit();
    // One heat snapshot per round: the EWMA rates become decision inputs so
    // the audit trail explains *why* a shard was picked, not just that it
    // was over threshold.
    let heat: HashMap<u64, (f64, f64)> = image
        .obs()
        .heat()
        .snapshot()
        .into_iter()
        .map(|e| (e.shard, (e.insert_rate, e.query_rate)))
        .collect();

    // Phase 0: drop records of shards stranded on dead workers (VOLAP has
    // no replication; the record removal restores routing for the rest).
    for rec in &shards {
        if !workers.iter().any(|w| w == &rec.worker) {
            let t0 = Instant::now();
            if image.remove_shard(rec.id).is_ok() {
                stats.orphans_removed.inc();
                audit.record(BalanceDecision {
                    action: "orphan_reap".into(),
                    shard: rec.id,
                    src: rec.worker.clone(),
                    inputs: vec![
                        ("reason".into(), "worker session expired".into()),
                        ("len".into(), rec.len.to_string()),
                    ],
                    outcome: "ok".into(),
                    duration_us: elapsed_us(t0),
                    ..Default::default()
                });
            }
        }
    }
    let shards = image.shards();

    // Phase 1: splits.
    for rec in &shards {
        if rec.len > cfg.max_shard_items {
            let ids = image.alloc_ids(2);
            let req = Request::SplitShard {
                shard: rec.id,
                left_id: ids.start,
                right_id: ids.start + 1,
            };
            let t0 = Instant::now();
            let ok = endpoint
                .request(&rec.worker, req.encode(), cfg.request_timeout)
                .ok()
                .and_then(|bytes| Response::decode(&cfg.schema, &bytes).ok())
                .is_some_and(|r| matches!(r, Response::SplitDone { .. }));
            if ok {
                stats.splits.inc();
            }
            let mut inputs = vec![
                ("len".into(), rec.len.to_string()),
                ("max_shard_items".into(), cfg.max_shard_items.to_string()),
            ];
            push_heat_inputs(&mut inputs, &heat, rec.id);
            audit.record(BalanceDecision {
                action: "split".into(),
                shard: rec.id,
                src: rec.worker.clone(),
                inputs,
                result_shards: vec![ids.start, ids.start + 1],
                outcome: if ok { "ok".into() } else { "split_failed".into() },
                duration_us: elapsed_us(t0),
                ..Default::default()
            });
        }
    }

    // Phase 2: migrations. Work from a fresh snapshot (splits changed it).
    let shards = image.shards();
    let mut load: HashMap<&str, u64> = workers.iter().map(|w| (w.as_str(), 0)).collect();
    let mut by_worker: HashMap<&str, Vec<(u64, u64)>> = HashMap::new(); // worker -> (shard, len)
    for rec in &shards {
        if let Some(l) = load.get_mut(rec.worker.as_str()) {
            *l += rec.len;
            by_worker.entry(rec.worker.as_str()).or_default().push((rec.id, rec.len));
        }
    }
    let total: u64 = load.values().sum();
    if total == 0 {
        return;
    }
    let mean = total as f64 / workers.len() as f64;
    let hi = mean * (1.0 + cfg.migrate_slack);
    let lo = mean * (1.0 - cfg.migrate_slack);

    for _ in 0..cfg.max_moves_per_round {
        let Some((&src, &src_load)) = load.iter().max_by_key(|(_, &l)| l) else { break };
        let Some((&dst, &dst_load)) = load.iter().min_by_key(|(_, &l)| l) else { break };
        if src == dst || (src_load as f64) <= hi || (dst_load as f64) >= lo {
            break;
        }
        // Largest shard that fits in half the gap (avoids ping-ponging).
        let gap = src_load - dst_load;
        let candidates = by_worker.get_mut(src).map(std::mem::take).unwrap_or_default();
        let pick = candidates
            .iter()
            .filter(|&&(_, len)| len > 0 && len <= gap / 2 + 1)
            .max_by_key(|&&(_, len)| len)
            .copied();
        let Some((shard, len)) = pick else {
            by_worker.insert(src, candidates);
            break;
        };
        let req = Request::Migrate { shard, dest: dst.to_string() };
        let t0 = Instant::now();
        let ok = endpoint
            .request(src, req.encode(), cfg.request_timeout)
            .ok()
            .and_then(|bytes| Response::decode(&cfg.schema, &bytes).ok())
            .is_some_and(|r| matches!(r, Response::Ack));
        let mut rest: Vec<(u64, u64)> = candidates.into_iter().filter(|&(s, _)| s != shard).collect();
        if ok {
            stats.migrations.inc();
            *load.get_mut(src).unwrap() -= len;
            *load.get_mut(dst).unwrap() += len;
            by_worker.entry(dst).or_default().push((shard, len));
        } else {
            rest.push((shard, len));
        }
        by_worker.insert(src, rest);
        let mut inputs = vec![
            ("src_load".into(), src_load.to_string()),
            ("dst_load".into(), dst_load.to_string()),
            ("mean".into(), format!("{mean:.1}")),
            ("hi".into(), format!("{hi:.1}")),
            ("lo".into(), format!("{lo:.1}")),
            ("gap".into(), gap.to_string()),
            ("len".into(), len.to_string()),
        ];
        push_heat_inputs(&mut inputs, &heat, shard);
        audit.record(BalanceDecision {
            action: "migrate".into(),
            shard,
            src: src.to_string(),
            dest: dst.to_string(),
            inputs,
            result_shards: vec![shard],
            outcome: if ok { "ok".into() } else { "migrate_failed".into() },
            duration_us: elapsed_us(t0),
            ..Default::default()
        });
    }
}

fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Append a shard's EWMA rates to a decision's inputs, when the heat map
/// has an entry for it (it may not: heat disabled, or the shard is younger
/// than one stats period).
fn push_heat_inputs(inputs: &mut Vec<(String, String)>, heat: &HashMap<u64, (f64, f64)>, shard: u64) {
    if let Some(&(ir, qr)) = heat.get(&shard) {
        inputs.push(("insert_rate".into(), format!("{ir:.3}")));
        inputs.push(("query_rate".into(), format!("{qr:.3}")));
    }
}
