//! The horizontal scale-up experiment shared by Figures 6 and 7.
//!
//! Reproduces §IV-B/C: discrete *load* phases interleaved with *benchmark*
//! phases; before each load phase two empty workers join and the manager
//! rebalances. A background sampler records the per-worker min/max data
//! sizes and the cumulative split/migration counts over time (Figure 6's
//! series); each benchmark phase measures insert and per-coverage-band
//! query throughput and latency (Figure 7's series).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use volap::{Cluster, VolapConfig};
use volap_data::{CoverageBand, DataGen, Op, QueryGen};
use volap_dims::{Item, Schema};

use crate::{drive, LatencyStats};

/// One point of the Figure-6 time series.
#[derive(Debug, Clone, Copy)]
pub struct LoadSample {
    /// Seconds since experiment start.
    pub t: f64,
    /// Smallest per-worker item count.
    pub min_load: u64,
    /// Largest per-worker item count.
    pub max_load: u64,
    /// Worker count at this instant.
    pub workers: usize,
    /// Cumulative shard splits.
    pub splits: u64,
    /// Cumulative shard migrations.
    pub migrations: u64,
}

/// One benchmark phase of the Figure-7 series.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase number (1-based).
    pub phase: usize,
    /// Workers active during the phase.
    pub workers: usize,
    /// Database size after the phase's load.
    pub db_size: u64,
    /// Insert throughput (ops/s) and latency.
    pub insert_tput: f64,
    /// Insert latency stats.
    pub insert_lat: LatencyStats,
    /// Per coverage band (low/medium/high): query throughput.
    pub query_tput: [f64; 3],
    /// Per coverage band: query latency.
    pub query_lat: [LatencyStats; 3],
}

/// Full experiment output.
pub struct ScaleUpResult {
    /// Continuous load-balance samples (Figure 6).
    pub samples: Vec<LoadSample>,
    /// Per-phase performance (Figure 7).
    pub phases: Vec<PhaseReport>,
}

/// Experiment knobs.
pub struct ScaleUpParams {
    /// Workers at the start.
    pub initial_workers: usize,
    /// Workers added before each subsequent phase.
    pub workers_per_phase: usize,
    /// Total phases (phase 1 uses the initial workers).
    pub phases: usize,
    /// Items loaded per worker per phase (paper: 50 million).
    pub items_per_worker: usize,
    /// Queries per coverage band per benchmark phase.
    pub queries_per_band: usize,
    /// Concurrent client sessions while benchmarking.
    pub sessions: usize,
    /// Shard split threshold.
    pub max_shard_items: u64,
}

/// Run the scale-up experiment.
pub fn run(params: &ScaleUpParams) -> ScaleUpResult {
    let schema = Schema::tpcds();
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = params.initial_workers;
    cfg.servers = 2;
    cfg.max_shard_items = params.max_shard_items;
    cfg.sync_period = Duration::from_millis(40);
    cfg.stats_period = Duration::from_millis(30);
    cfg.manager_period = Duration::from_millis(50);
    let cluster = Arc::new(Cluster::start(cfg));

    // Background sampler for the Figure-6 series.
    let samples = Arc::new(Mutex::new(Vec::<LoadSample>::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let cluster = Arc::clone(&cluster);
        let samples = Arc::clone(&samples);
        let stop = Arc::clone(&stop);
        let start = Instant::now();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let loads = cluster.worker_loads();
                let (splits, migrations) = cluster.balance_counts();
                let min = loads.iter().map(|(_, l)| *l).min().unwrap_or(0);
                let max = loads.iter().map(|(_, l)| *l).max().unwrap_or(0);
                samples.lock().unwrap().push(LoadSample {
                    t: start.elapsed().as_secs_f64(),
                    min_load: min,
                    max_load: max,
                    workers: loads.len(),
                    splits,
                    migrations,
                });
                std::thread::sleep(Duration::from_millis(60));
            }
        })
    };

    let mut gen = DataGen::new(&schema, 9000, 1.5);
    let mut qgen = QueryGen::new(&schema, 9001, 0.65);
    let mut sample_items: Vec<Item> = Vec::new();
    let mut phases = Vec::new();
    let mut workers = params.initial_workers;
    let mut db_size = 0u64;

    for phase in 1..=params.phases {
        if phase > 1 {
            for _ in 0..params.workers_per_phase {
                cluster.add_worker();
            }
            workers += params.workers_per_phase;
            wait_balanced(&cluster, Duration::from_secs(30));
        }
        // Load phase: pure insert stream, measured.
        let to_load = params.items_per_worker * workers - db_size as usize;
        let items = gen.items(to_load);
        sample_items.extend(items.iter().take(2_000).cloned());
        let ops: Vec<Op> = items.into_iter().map(Op::Insert).collect();
        let load_res = drive(&cluster, params.sessions, &ops);
        db_size += to_load as u64;

        // Let splits triggered by the load finish before benchmarking.
        wait_quiescent(&cluster, Duration::from_secs(30));

        // Benchmark phase: per-band query streams.
        if sample_items.len() > 30_000 {
            let excess = sample_items.len() - 30_000;
            sample_items.drain(..excess);
        }
        let bins = qgen.binned(&sample_items, params.queries_per_band, 300_000);
        let mut query_tput = [0.0; 3];
        let mut query_lat = [LatencyStats::from_samples(vec![]); 3];
        for (b, queries) in bins.iter().enumerate() {
            if queries.is_empty() {
                continue;
            }
            let ops: Vec<Op> = queries.iter().cloned().map(Op::Query).collect();
            let res = drive(&cluster, params.sessions, &ops);
            query_tput[b] = res.throughput();
            query_lat[b] = LatencyStats::from_samples(res.query_lat);
        }
        phases.push(PhaseReport {
            phase,
            workers,
            db_size,
            insert_tput: load_res.throughput(),
            insert_lat: LatencyStats::from_samples(load_res.insert_lat),
            query_tput,
            query_lat,
        });
    }

    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler");
    let samples = Arc::try_unwrap(samples)
        .expect("sampler done")
        .into_inner()
        .unwrap();
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still referenced"),
    }
    ScaleUpResult { samples, phases }
}

/// Coverage bands in report order.
pub fn bands() -> [CoverageBand; 3] {
    CoverageBand::all()
}

fn wait_balanced(cluster: &Cluster, deadline: Duration) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let loads = cluster.worker_loads();
        let total: u64 = loads.iter().map(|(_, l)| l).sum();
        let min = loads.iter().map(|(_, l)| *l).min().unwrap_or(0);
        let max = loads.iter().map(|(_, l)| *l).max().unwrap_or(0);
        let mean = total as f64 / loads.len().max(1) as f64;
        if total == 0 || (min > 0 && (max - min) as f64 <= 0.6 * mean + 2_000.0) {
            return;
        }
        std::thread::sleep(Duration::from_millis(60));
    }
}

/// Wait until the split backlog clears (no shard above the threshold).
fn wait_quiescent(cluster: &Cluster, deadline: Duration) {
    let start = Instant::now();
    let threshold = cluster.config().max_shard_items;
    while start.elapsed() < deadline {
        let oversized = cluster.image().shards().iter().any(|r| r.len > threshold);
        if !oversized {
            return;
        }
        std::thread::sleep(Duration::from_millis(60));
    }
}
