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
///
/// Observability has no knob: everything `volap_obs` records is always on
/// and sized by its constants. Nor is the lock-order checker a knob: every
/// debug build runs it, and release builds compile it out.
#[derive(Clone)]
pub struct VolapConfig {
    /// Dimension hierarchies.
    pub schema: Schema,
    /// Shard data structure (the paper recommends
    /// [`StoreKind::HilbertPdcMds`]).
    pub store_kind: StoreKind,
    /// Tree configuration shard stores are built with: node sizing (see
    /// [`TreeConfig`]).
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
    /// Empty shards seeded per worker at bootstrap.
    pub initial_shards_per_worker: usize,
    /// Request/reply timeout.
    pub request_timeout: Duration,
    /// Injected one-way network latency (None = instantaneous).
    pub net_latency: Option<Duration>,
    /// Directory fanout of the server routing index.
    pub index_dir_cap: usize,
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
            initial_shards_per_worker: 1,
            request_timeout: Duration::from_secs(10),
            net_latency: None,
            index_dir_cap: 8,
        }
    }

    /// The tree configuration shard stores are built with.
    pub fn tree_config(&self) -> TreeConfig {
        self.tree.clone()
    }
}

#[cfg(test)]
mod tests {
    /// Observability has no knob, so these ring sizes are what `bench_e2e`
    /// measures; moving one must be deliberate.
    #[test]
    fn shipped_observability_defaults_are_pinned() {
        assert_eq!(
            (volap_obs::EVENT_CAPACITY, volap_obs::AUDIT_CAPACITY),
            (4096, 1024)
        );
    }
}
