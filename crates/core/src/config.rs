//! System-wide configuration.

use std::time::Duration;

use volap_dims::Schema;
use volap_tree::{StoreKind, TreeConfig};

/// Configuration for a VOLAP deployment (scaled-down defaults for a
/// single-machine simulated cluster).
///
/// The paper's EC2 deployment maps onto these knobs as: `m` servers,
/// `p` workers, `k` threads each, Zookeeper sync every 3 s
/// ([`VolapConfig::sync_period`]), and the manager's split/migration policy
/// (§III-E). Defaults here shrink the time constants by ~30× so experiments
/// complete in seconds while preserving every ratio that matters.
#[derive(Clone)]
pub struct VolapConfig {
    /// Dimension hierarchies.
    pub schema: Schema,
    /// Shard data structure (the paper recommends
    /// [`StoreKind::HilbertPdcMds`]).
    pub store_kind: StoreKind,
    /// Tree configuration shard stores are built with — node sizing,
    /// aggregate caching, leaf column compression (see [`TreeConfig`]).
    pub tree: TreeConfig,
    /// Number of servers (`m`).
    pub servers: usize,
    /// Number of workers (`p`).
    pub workers: usize,
    /// Service threads per server (`k`).
    pub server_threads: usize,
    /// Service threads per worker (`k`).
    pub worker_threads: usize,
    /// How often servers push local-image changes to the global image and
    /// apply remote changes (paper default: 3 s).
    pub sync_period: Duration,
    /// How often workers publish shard statistics.
    pub stats_period: Duration,
    /// How often the manager evaluates load balance.
    pub manager_period: Duration,
    /// Whether to run the manager at all.
    pub manager_enabled: bool,
    /// Split any shard exceeding this many items.
    pub max_shard_items: u64,
    /// Trigger migrations when a worker's load exceeds the mean by this
    /// fraction (and another is below by the same).
    pub migrate_slack: f64,
    /// Cap on migrations per manager round.
    pub max_moves_per_round: usize,
    /// Empty shards seeded per worker at bootstrap.
    pub initial_shards_per_worker: usize,
    /// Request/reply timeout.
    pub request_timeout: Duration,
    /// Injected one-way network latency (None = instantaneous).
    pub net_latency: Option<Duration>,
    /// Directory fanout of the server routing index.
    pub index_dir_cap: usize,
    /// Observability knobs — histograms and tracing — declared once, in
    /// [`volap_obs::ObsConfig`].
    /// Everything else `volap_obs` records is always armed at start and
    /// sized by its constants; `Obs::set_enabled` is the runtime switch.
    pub obs: volap_obs::ObsConfig,
    /// Half-life of the heat EWMAs: after this long with no activity a
    /// shard's measured rate decays to half. Shorter reacts faster;
    /// longer smooths bursts.
    pub heat_halflife: Duration,
    /// Whether the runtime lock-order checker is armed (debug builds only;
    /// release builds compile the checker out entirely). On, every lock
    /// acquisition is validated against the global lock hierarchy
    /// (DESIGN.md §11.1) via a thread-local held-lock stack, and a violation
    /// panics with both class names. Off, acquisitions skip the check but
    /// lock *telemetry* (contention counters and wait/hold histograms)
    /// stays on — that is the `locks` section's runtime switch.
    pub lock_check: bool,
}

impl VolapConfig {
    /// Scaled-down defaults over the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            store_kind: StoreKind::HilbertPdcMds,
            tree: TreeConfig::default(),
            servers: 2,
            workers: 4,
            server_threads: 2,
            worker_threads: 2,
            sync_period: Duration::from_millis(100),
            stats_period: Duration::from_millis(50),
            manager_period: Duration::from_millis(100),
            manager_enabled: true,
            max_shard_items: 20_000,
            migrate_slack: 0.25,
            max_moves_per_round: 4,
            initial_shards_per_worker: 1,
            request_timeout: Duration::from_secs(10),
            net_latency: None,
            index_dir_cap: 8,
            obs: volap_obs::ObsConfig::default(),
            heat_halflife: Duration::from_secs(2),
            lock_check: true,
        }
    }

    /// The tree configuration shard stores are built with.
    pub fn tree_config(&self) -> TreeConfig {
        self.tree.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench_e2e` sets no observability knob, so these literals are what
    /// the benchmark measures; moving a knob must not move its value.
    #[test]
    fn shipped_observability_defaults_are_pinned() {
        let cfg = VolapConfig::new(Schema::uniform(2, 2, 8));
        assert!(cfg.obs.histograms);
        assert_eq!(cfg.obs.trace.sample, 0);
        assert_eq!(cfg.obs.trace.slow_threshold, Duration::from_millis(100));
        assert_eq!((volap_obs::EVENT_CAPACITY, volap_obs::AUDIT_CAPACITY), (4096, 1024));
        assert_eq!(volap_obs::account::TOPK, 8);
        assert_eq!(cfg.heat_halflife, Duration::from_secs(2));
        assert!(cfg.lock_check);
        let obs = volap_obs::Obs::new(cfg.obs.clone());
        assert!(obs.heat().enabled() && obs.accounting().enabled(), "sections start armed");
    }
}
