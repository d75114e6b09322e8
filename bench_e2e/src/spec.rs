//! The six workloads, the bench profile each runs on, and the metric names.
//! `BENCHMARK.json` repeats the names; a test keeps the two in step.

use volap::VolapConfig;
use volap_data::CoverageBand;
use volap_dims::Schema;

/// Skew of the generated items (the experiments' default).
pub const DATA_SKEW: f64 = 1.5;
/// Probability that a generated query leaves a dimension unconstrained.
pub const QUERY_ROOT_PROB: f64 = 0.65;
/// Items per `bulk_insert` call, in preload and in `ingest_bulk_growth`.
pub const BULK_CHUNK: usize = 4096;
/// Client sessions of a closed loop: the sandbox has two cores, and a load
/// generator with more threads than cores measures its own scheduling.
pub const SESSIONS: usize = 2;
/// Items of the preload that query coverage is measured against.
pub const COVERAGE_SAMPLE: usize = 2000;

/// What the measured phase does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop of point inserts.
    Point,
    /// Closed loop of bulk chunks into a growing, rebalancing cluster.
    Bulk,
    /// Closed loop of queries of one coverage band.
    Query(CoverageBand),
    /// A closed-loop writer on one server beside a closed-loop reader of
    /// high-coverage queries on the other.
    Mixed,
}

/// One workload: its name, what it runs, and how its cluster differs from the
/// shipped defaults.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub servers: usize,
    /// Whether the manager runs. Where it does, the preload is split and
    /// migrated into balance before the clock starts: with the manager off
    /// the four bootstrap shards take whatever boxes the first items give
    /// them, and query latency then swings by a quarter from seed to seed.
    pub manager: bool,
    pub preload: usize,
    /// Set-ups an untraced run makes and takes the median of: the measured
    /// rounds' and, beyond those, set-ups that are shut down at once. A
    /// set-up of 0.4 s is a fifth slower or faster from one to the next, so
    /// the cheapest one is repeated more often than the rest.
    pub setups: u64,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "ingest_point",
        kind: Kind::Point,
        servers: 1,
        manager: false,
        preload: 100_000,
        setups: 7,
    },
    Workload {
        name: "ingest_bulk_growth",
        kind: Kind::Bulk,
        servers: 1,
        manager: true,
        preload: 50_000,
        setups: 3,
    },
    Workload {
        name: "query_bands_low",
        kind: Kind::Query(CoverageBand::Low),
        servers: 1,
        manager: true,
        preload: 200_000,
        setups: 3,
    },
    Workload {
        name: "query_bands_med",
        kind: Kind::Query(CoverageBand::Medium),
        servers: 1,
        manager: true,
        preload: 200_000,
        setups: 3,
    },
    Workload {
        name: "query_bands_high",
        kind: Kind::Query(CoverageBand::High),
        servers: 1,
        manager: true,
        preload: 200_000,
        setups: 3,
    },
    Workload {
        name: "mixed_rw",
        kind: Kind::Mixed,
        servers: 2,
        manager: true,
        preload: 200_000,
        setups: 3,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Shipped defaults for every knob, so that a change to a default or to an
    /// always-on cost shows; only the topology is the benchmark's.
    pub fn config(&self, schema: &Schema) -> VolapConfig {
        let mut cfg = VolapConfig::new(schema.clone());
        cfg.servers = self.servers;
        cfg.workers = 2;
        cfg.initial_shards_per_worker = 2;
        cfg.manager_enabled = self.manager;
        cfg.max_shard_items = 50_000;
        cfg
    }

    /// How many queries of which bands the query pool holds. A pool of a
    /// thousand keeps the seed-to-seed change of the pool's make-up below the
    /// run-to-run noise of the sandbox.
    pub fn pool(&self, smoke: bool) -> [usize; 3] {
        let n = if smoke { 32 } else { 1024 };
        match self.kind {
            Kind::Query(band) => {
                let mut want = [0; 3];
                want[band as usize] = n;
                want
            }
            // The reader of the mix asks high-coverage queries only.
            Kind::Mixed => [0, 0, n],
            Kind::Point | Kind::Bulk => [0; 3],
        }
    }
}

/// End-to-end metric names, in the order they are printed.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("rss_bytes_per_item", "B/item"),
];

/// Per-layer metric names and units (layer = module name before the dot).
pub const PER_LAYER: [(&str, &str); 63] = [
    ("hilbert.key_ns", "ns"),
    ("proto.insert_codec_ns", "ns"),
    ("proto.bulk_codec_ns_per_item", "ns"),
    ("proto.query_codec_ns", "ns"),
    ("proto.bytes_per_insert", "B"),
    ("net.echo_rtt_us", "us"),
    ("net.ping_worker_rtt_us", "us"),
    ("net.requests_per_op", "count"),
    ("net.bytes_per_op", "B"),
    ("net.outstanding_s", "s"),
    ("net.timeouts", "count"),
    ("net.late_replies", "count"),
    ("server_index.route_insert_ns", "ns"),
    ("server_index.route_query_ns", "ns"),
    ("server_index.shards_per_query", "count"),
    ("server.insert_mean_us", "us"),
    ("server.query_mean_us", "us"),
    ("server.bulk_mean_ms", "ms"),
    ("server.route_misses", "count"),
    ("server.box_expansions", "count"),
    ("server.self_us", "us"),
    ("worker.direct_rtt_us", "us"),
    ("worker.self_us", "us"),
    ("worker.insert_mean_us", "us"),
    ("worker.query_mean_us", "us"),
    ("worker.bulk_mean_ms", "ms"),
    ("worker.queue_inserts", "count"),
    ("worker.splits", "count"),
    ("worker.migrations_out", "count"),
    ("worker.adoptions", "count"),
    ("worker.split_s", "s"),
    ("worker.migrate_s", "s"),
    ("worker.load_imbalance", "ratio"),
    ("tree.insert_ns", "ns"),
    ("tree.bulk_insert_ns_per_item", "ns"),
    ("tree.query_us", "us"),
    ("tree.plan_critical_us", "us"),
    ("tree.nodes_visited", "count"),
    ("tree.items_scanned", "count"),
    ("tree.covered_hits", "count"),
    ("tree.scanned_per_result", "ratio"),
    ("tree.split_ms", "ms"),
    ("tree.serialize_ms", "ms"),
    ("tree.deserialize_ms", "ms"),
    ("tree.bytes_per_item", "B/item"),
    ("tree.node_splits", "count"),
    ("manager.splits", "count"),
    ("manager.migrations", "count"),
    ("manager.round_mean_ms", "ms"),
    ("manager.settle_s", "s"),
    ("image.merges", "count"),
    ("image.cas_retries", "count"),
    ("image.staleness_p50_ms", "ms"),
    ("image.staleness_p99_ms", "ms"),
    ("client.rtt_us", "us"),
    ("client.insert_p50_us", "us"),
    ("client.insert_p99_us", "us"),
    ("client.query_p50_us", "us"),
    ("client.query_p95_us", "us"),
    ("budget.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.replays", "count"),
];
