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
use std::sync::Arc;
use std::time::Instant;

use volap_net::{Endpoint, Network};
use volap_obs::{BalanceDecision, Counter, Histogram, Obs};

use crate::config::VolapConfig;
use crate::image::ImageStore;
use crate::proto::{Request, Response};
use crate::util::Process;

/// Migrations start when a worker's load exceeds the mean by this fraction
/// and another's is below it by the same.
const MIGRATE_SLACK: f64 = 0.25;
/// Cap on migrations per manager round.
const MAX_MOVES_PER_ROUND: usize = 4;

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
    process: Process,
}

impl ManagerHandle {
    /// Let the round in flight finish, then stop and unregister.
    pub fn stop(self) {
        self.process.stop();
    }
}

/// Spawn the manager thread: one [`balance_round`] every
/// `cfg.manager_period`, asleep in between.
pub fn spawn_manager(
    net: &Network,
    image: &ImageStore,
    cfg: &VolapConfig,
    name: &str,
) -> ManagerHandle {
    let endpoint = net.endpoint(name.to_string());
    let stats = Arc::new(BalanceStats::new(image.obs()));
    let process = {
        let (ep, image, cfg, stats) = (
            endpoint.clone(),
            image.clone(),
            cfg.clone(),
            Arc::clone(&stats),
        );
        Process::start(&endpoint, name.to_string(), cfg.manager_period, move || {
            balance_round(&ep, &image, &cfg, &stats)
        })
    };
    ManagerHandle { stats, process }
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
            audit.record(BalanceDecision {
                action: "split".into(),
                shard: rec.id,
                src: rec.worker.clone(),
                inputs: vec![
                    ("len".into(), rec.len.to_string()),
                    ("max_shard_items".into(), cfg.max_shard_items.to_string()),
                ],
                result_shards: vec![ids.start, ids.start + 1],
                outcome: if ok {
                    "ok".into()
                } else {
                    "split_failed".into()
                },
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
            by_worker
                .entry(rec.worker.as_str())
                .or_default()
                .push((rec.id, rec.len));
        }
    }
    let total: u64 = load.values().sum();
    if total == 0 {
        return;
    }
    let mean = total as f64 / workers.len() as f64;
    let hi = mean * (1.0 + MIGRATE_SLACK);
    let lo = mean * (1.0 - MIGRATE_SLACK);

    for _ in 0..MAX_MOVES_PER_ROUND {
        let Some((&src, &src_load)) = load.iter().max_by_key(|(_, &l)| l) else {
            break;
        };
        let Some((&dst, &dst_load)) = load.iter().min_by_key(|(_, &l)| l) else {
            break;
        };
        if src == dst || (src_load as f64) <= hi || (dst_load as f64) >= lo {
            break;
        }
        // Largest shard that fits in half the gap (avoids ping-ponging).
        let gap = src_load - dst_load;
        let candidates = by_worker
            .get_mut(src)
            .map(std::mem::take)
            .unwrap_or_default();
        let pick = candidates
            .iter()
            .filter(|&&(_, len)| len > 0 && len <= gap / 2 + 1)
            .max_by_key(|&&(_, len)| len)
            .copied();
        let Some((shard, len)) = pick else {
            by_worker.insert(src, candidates);
            break;
        };
        let req = Request::Migrate {
            shard,
            dest: dst.to_string(),
        };
        let t0 = Instant::now();
        let ok = endpoint
            .request(src, req.encode(), cfg.request_timeout)
            .ok()
            .and_then(|bytes| Response::decode(&cfg.schema, &bytes).ok())
            .is_some_and(|r| matches!(r, Response::Ack));
        if ok {
            stats.migrations.inc();
        }
        audit.record(BalanceDecision {
            action: "migrate".into(),
            shard,
            src: src.to_string(),
            dest: dst.to_string(),
            inputs: vec![
                ("src_load".into(), src_load.to_string()),
                ("dst_load".into(), dst_load.to_string()),
                ("mean".into(), format!("{mean:.1}")),
                ("hi".into(), format!("{hi:.1}")),
                ("lo".into(), format!("{lo:.1}")),
                ("gap".into(), gap.to_string()),
                ("len".into(), len.to_string()),
            ],
            result_shards: vec![shard],
            outcome: if ok {
                "ok".into()
            } else {
                "migrate_failed".into()
            },
            duration_us: elapsed_us(t0),
            ..Default::default()
        });
        if !ok {
            // The same shard would still be the best fit, so retrying now
            // repeats the failure, e.g. onto a worker that has died but
            // whose session has not expired yet. The next round re-plans.
            break;
        }
        *load.get_mut(src).unwrap() -= len;
        *load.get_mut(dst).unwrap() += len;
        by_worker.insert(
            src,
            candidates
                .into_iter()
                .filter(|&(s, _)| s != shard)
                .collect(),
        );
        by_worker.entry(dst).or_default().push((shard, len));
    }
}

fn elapsed_us(t0: Instant) -> u64 {
    t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}
