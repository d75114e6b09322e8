//! Figure 6: real-time load balancing during horizontal scale-up.
//!
//! Paper setup: phases interleave loading with adding two workers; the
//! figure plots the min/max data size per worker over time (the red region)
//! with cumulative split and migration counts on the right axis. Paper
//! scale: N ≈ p × 50 M, p = 4…20. Scaled here to N ≈ p × (items/worker
//! below), same worker counts.
//!
//! Expected shape: each time workers are added, the minimum drops to zero
//! (new workers are empty), then the balancer closes the min/max gap by
//! migrating shards; loading then raises both curves together.

use volap_bench::scaleup::{run, ScaleUpParams};
use volap_bench::{quick_mode, scaled};

fn main() {
    let params = ScaleUpParams {
        initial_workers: 4,
        workers_per_phase: 2,
        phases: scaled(9, 3), // p = 4, 6, ..., 20 at full scale
        items_per_worker: scaled(8_000, 2_000),
        queries_per_band: scaled(20, 6),
        sessions: 4,
        max_shard_items: scaled(4_000, 1_500) as u64,
    };
    println!(
        "# Figure 6: load balancing during scale-up (p = {}..{}, items/worker = {})",
        params.initial_workers,
        params.initial_workers + params.workers_per_phase * (params.phases - 1),
        params.items_per_worker
    );
    if quick_mode() {
        println!("# (quick mode)");
    }
    let result = run(&params);
    println!(
        "{:>9} {:>8} {:>10} {:>10} {:>8} {:>12}",
        "t_s", "workers", "min_load", "max_load", "splits", "migrations"
    );
    for s in &result.samples {
        println!(
            "{:>9.2} {:>8} {:>10} {:>10} {:>8} {:>12}",
            s.t, s.workers, s.min_load, s.max_load, s.splits, s.migrations
        );
    }
    // Shape checks mirrored in EXPERIMENTS.md.
    let max_workers = result.samples.iter().map(|s| s.workers).max().unwrap_or(0);
    let final_ = result.samples.last().expect("samples");
    println!(
        "# final: workers={max_workers} splits={} migrations={}",
        final_.splits, final_.migrations
    );
    let dropped_to_zero = result
        .samples
        .windows(2)
        .any(|w| w[1].workers > w[0].workers && w[1].min_load == 0);
    println!("# min dropped to 0 on worker addition: {dropped_to_zero}");
    let gap_closed = result
        .samples
        .iter()
        .rev()
        .take(5)
        .all(|s| s.min_load > 0 && s.max_load - s.min_load <= s.max_load / 2 + 2_000);
    println!("# min/max gap closed by balancer at the end: {gap_closed}");
}
