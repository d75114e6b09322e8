//! Figure 10: query freshness between sessions on different servers (PBS).
//!
//! As in §IV-F, this is a simulation driven by *measured* system behaviour:
//! we run a live two-server cluster to capture (1) the insert latency
//! distribution and (2) the probability that an insert expands a shard
//! bounding box (the only inserts that a stale remote image can miss),
//! then feed both into the Monte-Carlo PBS model at the paper's scale
//! (3-second sync period, 50 k inserts/s).
//!
//! Expected shape: (a) the average number of missed inserts drops to near
//! zero by 0.25 s of elapsed time; (b) the probability of k = 1…4 missed
//! inserts collapses between 0.25 s and 2 s; consistency is always reached
//! within the sync period (paper: < 3 s).

use std::time::Duration;

use volap::{Cluster, FreshnessSim, VolapConfig};
use volap_bench::{drive, quick_mode, scaled};
use volap_data::{DataGen, Op};
use volap_dims::Schema;

fn main() {
    let schema = Schema::tpcds();
    let preload = scaled(60_000, 8_000);
    let trials = scaled(500_000, 50_000);

    println!("# Figure 10: PBS freshness (measured parameters, simulated at paper scale)");
    if quick_mode() {
        println!("# (quick mode)");
    }
    // Phase 1: measure from a live cluster.
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.workers = 4;
    cfg.servers = 2;
    cfg.max_shard_items = scaled(10_000, 3_000) as u64;
    cfg.sync_period = Duration::from_millis(50);
    // Model a datacenter wire so measured insert latencies are on the same
    // scale as the paper's EC2 deployment (in-process channels alone would
    // be unrealistically fast).
    cfg.net_latency = Some(Duration::from_millis(1));
    let cluster = Cluster::start(cfg);
    let mut gen = DataGen::new(&schema, 10_100, 1.5);
    // Expansion probability of a *mature* database: measure over the last
    // 20% of the load only (young databases expand boxes constantly; the
    // rate decays as boxes converge to the populated space).
    let warm: Vec<Op> = gen
        .items(preload * 4 / 5)
        .into_iter()
        .map(Op::Insert)
        .collect();
    let warm_res = drive(&cluster, 8, &warm);
    let tail_snapshot = cluster.expansion_counts();
    let tail_ops: Vec<Op> = gen.items(preload / 5).into_iter().map(Op::Insert).collect();
    let tail_res = drive(&cluster, 8, &tail_ops);
    let mut latencies = warm_res.insert_lat;
    latencies.extend(tail_res.insert_lat);
    let (ins_end, exp_end) = cluster.expansion_counts();
    let cumulative_prob = cluster.expansion_prob();
    let tail_ins = ins_end.saturating_sub(tail_snapshot.0).max(1);
    let tail_exp = exp_end.saturating_sub(tail_snapshot.1);
    let expansion_prob = tail_exp as f64 / tail_ins as f64;
    cluster.shutdown();
    println!(
        "# measured: {} insert-latency samples; expansion_prob cumulative = {cumulative_prob:.6}, \
mature tail (last 20% of load) = {expansion_prob:.6}",
        latencies.len()
    );
    println!(
        "# (the rate decays with database size; the paper's 1-billion-item system sits far \
further down this curve)"
    );

    let sim = FreshnessSim {
        insert_rate: 50_000.0,
        coverage: 0.5,
        sync_period: 3.0,
        apply_latency: 0.01,
        expansion_prob,
        insert_latency_samples: latencies,
    };

    // (a) average missed inserts vs elapsed time, under the measured tail
    // expansion rate and a rare-expansion sensitivity scenario.
    let mut rare = sim.clone();
    rare.expansion_prob = rare.expansion_prob.max(1e-5);
    println!("\n(a) avg missed inserts vs elapsed time (coverage 50%)");
    println!(
        "{:>12} {:>18} {:>24}",
        "elapsed_s", "avg_missed", "avg_missed(rare-exp)"
    );
    for e in [
        0.0, 0.01, 0.025, 0.05, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0,
    ] {
        println!(
            "{e:>12.3} {:>18.4} {:>24.6}",
            sim.avg_missed(e, trials, 1),
            rare.avg_missed(e, trials, 1)
        );
    }

    // (b) P[k missed] for k = 1..4 at several elapsed times x coverages.
    // Our in-process latency tail is ~10 ms where the paper's EC2 tail
    // reached ~0.25 s, so the interesting elapsed times scale down with it;
    // the 0.005 s column plays the role of the paper's 0.25 s one.
    println!("\n(b) P[k missed inserts] at elapsed 0.005 / 0.25 / 1 s");
    for coverage in [0.25, 0.5, 0.75, 1.0] {
        let mut s = sim.clone();
        s.coverage = coverage;
        let pa = s.missed_pmf(0.005, 4, trials, 2);
        let pb = s.missed_pmf(0.25, 4, trials, 3);
        let pc = s.missed_pmf(1.0, 4, trials, 4);
        println!("  coverage {:.0}%:", coverage * 100.0);
        println!(
            "  {:>3} {:>12} {:>12} {:>12}",
            "k", "@0.005s", "@0.25s", "@1s"
        );
        for k in 1..=4 {
            println!("  {k:>3} {:>12.6} {:>12.6} {:>12.6}", pa[k], pb[k], pc[k]);
        }
    }

    let max_v = sim.max_visibility(trials * 2, 5);
    let max_v_rare = rare.max_visibility(trials * 2, 5);
    println!(
        "\n# max visibility delay over {} simulated inserts: {max_v:.3} s \
(with rare expansions: {max_v_rare:.3} s)",
        trials * 2
    );
    println!("# paper: consistency between servers always observed in under 3 seconds");
}
