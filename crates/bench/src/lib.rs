//! Shared harness utilities for the experiment binaries.
//!
//! Every figure and table of the paper's evaluation (§IV) has a binary in
//! `src/bin/` that regenerates it at laptop scale; see `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for recorded results. This library
//! holds the measurement plumbing they share: latency capture, percentile
//! summaries, multi-session cluster drivers, and ASCII heat-map rendering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use volap::Cluster;
use volap_data::Op;
use volap_dims::Aggregate;

/// Summary statistics over a latency sample set.
#[derive(Debug, Clone, Copy)]
pub struct LatencyStats {
    /// Number of samples.
    pub n: usize,
    /// Mean seconds.
    pub mean: f64,
    /// Median seconds.
    pub p50: f64,
    /// 95th percentile seconds.
    pub p95: f64,
    /// Maximum seconds.
    pub max: f64,
}

impl LatencyStats {
    /// Compute from raw (unsorted) samples in seconds.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self {
                n: 0,
                mean: 0.0,
                p50: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Self {
            n,
            mean: samples.iter().sum::<f64>() / n as f64,
            p50: samples[n / 2],
            p95: samples[(n * 95 / 100).min(n - 1)],
            max: samples[n - 1],
        }
    }
}

/// Outcome of driving an operation stream against a cluster.
#[derive(Debug)]
pub struct DriveResult {
    /// Total operations executed.
    pub ops: u64,
    /// Wall time for the whole stream.
    pub elapsed: Duration,
    /// Insert latencies (seconds).
    pub insert_lat: Vec<f64>,
    /// Query latencies (seconds).
    pub query_lat: Vec<f64>,
    /// Shards searched per query.
    pub shards_searched: Vec<u32>,
    /// Merged aggregate over all query results (sanity checking).
    pub agg: Aggregate,
}

impl DriveResult {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Execute `ops` against the cluster from `sessions` concurrent client
/// sessions (work-stealing over one shared cursor), measuring per-op
/// latency. This mirrors the paper's benchmark clients: throughput comes
/// from parallel sessions, latency from per-operation timing.
pub fn drive(cluster: &Cluster, sessions: usize, ops: &[Op]) -> DriveResult {
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let start = Instant::now();
    // (insert latencies, query latencies, shards-searched counts, query total)
    type SessionResult = (Vec<f64>, Vec<f64>, Vec<u32>, Aggregate);
    let results: Vec<SessionResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions.max(1))
            .map(|_| {
                let client = cluster.client();
                s.spawn(move || {
                    let mut ins = Vec::new();
                    let mut qry = Vec::new();
                    let mut shards = Vec::new();
                    let mut agg = Aggregate::empty();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= ops.len() {
                            break;
                        }
                        // Routing is eventually consistent (a shard may be
                        // mid-split/mid-migration): retry transient errors
                        // briefly before giving up, like a real client.
                        match &ops[i] {
                            Op::Insert(item) => {
                                let t = Instant::now();
                                let mut attempt = 0;
                                loop {
                                    match client.insert(item) {
                                        Ok(()) => break,
                                        Err(e) if attempt < 50 => {
                                            attempt += 1;
                                            let _ = e;
                                            std::thread::sleep(Duration::from_millis(5));
                                        }
                                        Err(e) => panic!("insert failed after retries: {e}"),
                                    }
                                }
                                ins.push(t.elapsed().as_secs_f64());
                            }
                            Op::Query(q) => {
                                let t = Instant::now();
                                let mut attempt = 0;
                                let (a, n) = loop {
                                    match client.query(q) {
                                        Ok(r) => break r,
                                        Err(e) if attempt < 50 => {
                                            attempt += 1;
                                            let _ = e;
                                            std::thread::sleep(Duration::from_millis(5));
                                        }
                                        Err(e) => panic!("query failed after retries: {e}"),
                                    }
                                };
                                qry.push(t.elapsed().as_secs_f64());
                                shards.push(n);
                                agg.merge(&a);
                            }
                        }
                    }
                    (ins, qry, shards, agg)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut out = DriveResult {
        ops: ops.len() as u64,
        elapsed,
        insert_lat: Vec::new(),
        query_lat: Vec::new(),
        shards_searched: Vec::new(),
        agg: Aggregate::empty(),
    };
    for (ins, qry, shards, agg) in results {
        out.insert_lat.extend(ins);
        out.query_lat.extend(qry);
        out.shards_searched.extend(shards);
        out.agg.merge(&agg);
    }
    out
}

/// Render a y-flipped ASCII heat map of `(x, y)` points (both normalized to
/// their bounds) as the paper's Figure 9 does with colour.
pub fn heatmap(
    points: &[(f64, f64)],
    cols: usize,
    rows: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    if points.is_empty() {
        return "(no data)".to_string();
    }
    let (mut x_max, mut y_max) = (f64::MIN, f64::MIN);
    let (mut x_min, mut y_min) = (f64::MAX, f64::MAX);
    for &(x, y) in points {
        x_max = x_max.max(x);
        y_max = y_max.max(y);
        x_min = x_min.min(x);
        y_min = y_min.min(y);
    }
    let x_span = (x_max - x_min).max(1e-12);
    let y_span = (y_max - y_min).max(1e-12);
    let mut grid = vec![0u32; cols * rows];
    for &(x, y) in points {
        let c = (((x - x_min) / x_span) * (cols - 1) as f64).round() as usize;
        let r = (((y - y_min) / y_span) * (rows - 1) as f64).round() as usize;
        grid[r * cols + c] += 1;
    }
    let peak = *grid.iter().max().unwrap() as f64;
    let mut out = String::new();
    out.push_str(&format!(
        "{y_label} (top = {y_max:.4}, bottom = {y_min:.4})\n"
    ));
    for r in (0..rows).rev() {
        out.push_str("  |");
        for c in 0..cols {
            let v = grid[r * cols + c] as f64;
            let shade = if v == 0.0 {
                b' '
            } else {
                let idx = 1 + ((v / peak) * (SHADES.len() - 2) as f64).round() as usize;
                SHADES[idx.min(SHADES.len() - 1)]
            };
            out.push(shade as char);
        }
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(cols));
    out.push('\n');
    out.push_str(&format!("   {x_label}: {x_min:.2} .. {x_max:.2}\n"));
    out
}

/// Whether `--quick` / `VOLAP_QUICK=1` was passed (CI-speed runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("VOLAP_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// Scale a full-size parameter down in quick mode.
pub fn scaled(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_are_ordered() {
        let s = LatencyStats::from_samples(vec![0.5, 0.1, 0.9, 0.2, 0.3]);
        assert_eq!(s.n, 5);
        assert!(s.p50 <= s.p95 && s.p95 <= s.max);
        assert!((s.mean - 0.4).abs() < 1e-12);
        let empty = LatencyStats::from_samples(vec![]);
        assert_eq!(empty.n, 0);
    }

    #[test]
    fn heatmap_renders_all_rows() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, (i * i) as f64)).collect();
        let map = heatmap(&pts, 20, 10, "x", "y");
        assert_eq!(map.lines().count(), 13); // header + 10 rows + axis + label
        assert!(map.contains('@') || map.contains('#') || map.contains('.'));
        assert_eq!(heatmap(&[], 5, 5, "x", "y"), "(no data)");
    }

    #[test]
    fn drive_executes_every_op() {
        let schema = volap_dims::Schema::uniform(2, 2, 8);
        let mut cfg = volap::VolapConfig::new(schema.clone());
        cfg.workers = 1;
        cfg.servers = 1;
        cfg.manager_enabled = false;
        let cluster = Cluster::start(cfg);
        let mut gen = volap_data::DataGen::new(&schema, 1, 1.0);
        let mut ops: Vec<Op> = gen.items(50).into_iter().map(Op::Insert).collect();
        ops.push(Op::Query(volap_dims::QueryBox::all(&schema)));
        let res = drive(&cluster, 3, &ops);
        assert_eq!(res.ops, 51);
        assert_eq!(res.insert_lat.len(), 50);
        assert_eq!(res.query_lat.len(), 1);
        assert!(res.throughput() > 0.0);
        cluster.shutdown();
    }
}

pub mod scaleup;
