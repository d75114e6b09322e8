//! The observability overhead gate, recorded to `BENCH_overhead.json`: one
//! row per runtime switch of `volap_obs` — today only the latency
//! histograms — saying what having it armed costs a client, with a
//! confidence interval — and a verdict that can fail.
//!
//! `bench_overhead [--check]`
//!
//! The kernel is the same for every row. One long-lived cluster (one
//! server, one worker, no manager) runs short blocks of client operations
//! from one session; each **pair** runs one block with the feature
//! paused and one with it armed, through its runtime switch, in a seeded
//! random order (strict alternation can beat against the cluster's periodic
//! threads and show up as a bias). Each pair yields `ln(t_on / t_off)`, so
//! the slow drift of a growing tree and most scheduler noise — which hit
//! both blocks of a pair alike — cancel inside the pair instead of widening
//! the estimate.
//! The statistic is the median of those log-ratios with its order-statistic
//! 95 % interval. Pairs are added until the interval is narrower than the
//! row's tolerance and lies on one side of it, or the row's time cap
//! runs out:
//!
//! * `pass` — upper bound below the tolerance, interval no wider than it;
//! * `fail` — lower bound above the tolerance;
//! * `inconclusive` — neither, at the cap.
//!
//! The `none` row toggles nothing: it is the kernel's A/A. Its interval must
//! contain 0, or the machine was too uneven for the histograms row to mean
//! anything and the run is marked invalid. `--check` exits non-zero on an
//! invalid run and on any row that is not `pass`.
//!
//! Every feature runs at its shipped default, which is what `bench_e2e`
//! measures too.

use std::time::{Duration, Instant};

use volap::{ClientSession, Cluster, VolapConfig};
use volap_data::DataGen;
use volap_dims::{QueryBox, Schema};

/// Client operations per block: every fifth is a full-space query (answered
/// from cached aggregates, so its cost is the request path's), the rest are
/// point inserts.
const BLOCK_OPS: usize = 500;
const QUERY_EVERY: usize = 5;
/// Untimed blocks after a cluster starts (threads, allocator, first levels).
const WARMUP_BLOCKS: usize = 20;
/// Pairs before the first look at the interval, and between looks.
const MIN_PAIRS: usize = 40;
const LOOK_EVERY: usize = 10;
/// A cluster is replaced once it holds this many items, which bounds the
/// gate's memory however long a row runs. Pairs never span a restart.
const MAX_ITEMS: usize = 400_000;

/// One gated feature: its name, whether a pair flips the histogram switch
/// (`false`: the A/A row, which flips nothing), the overhead it may cost,
/// and how long the row may run.
struct Feature {
    name: &'static str,
    histograms: bool,
    tolerance: f64,
    cap: Duration,
}

/// An interval narrower than 3 % takes 10–30 s of pairs on the 2-core box
/// this was sized on; the caps leave twice that.
const FEATURES: &[Feature] = &[
    Feature {
        name: "none",
        histograms: false,
        tolerance: 0.03,
        cap: Duration::from_secs(60),
    },
    Feature {
        name: "histograms",
        histograms: true,
        tolerance: 0.05,
        cap: Duration::from_secs(60),
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Pass,
    Fail,
    Inconclusive,
}

/// Median overhead fraction of the pairs so far and its 95 % interval.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    median: f64,
    lower: f64,
    upper: f64,
}

impl Estimate {
    /// From per-pair `ln(t_on / t_off)`. The interval is the distribution-free
    /// one for a median: the order statistics at `n/2 ∓ 1.96·√n/2`.
    fn from_log_ratios(log_ratios: &[f64]) -> Self {
        let mut sorted = log_ratios.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let half_width = 0.98 * (n as f64).sqrt();
        let lo = ((n as f64 / 2.0 - half_width).floor() as usize).clamp(1, n) - 1;
        let hi = ((1.0 + n as f64 / 2.0 + half_width).ceil() as usize).clamp(1, n) - 1;
        let median = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
        let frac = |log_ratio: f64| log_ratio.exp() - 1.0;
        Self {
            median: frac(median),
            lower: frac(sorted[lo]),
            upper: frac(sorted[hi]),
        }
    }

    fn verdict(&self, tolerance: f64) -> Verdict {
        if self.lower > tolerance {
            Verdict::Fail
        } else if self.upper < tolerance && self.upper - self.lower <= tolerance {
            Verdict::Pass
        } else {
            Verdict::Inconclusive
        }
    }
}

struct Row {
    feature: &'static Feature,
    pairs: usize,
    seconds: f64,
    estimate: Estimate,
    verdict: Verdict,
}

/// The cluster under measurement, replaced when it has grown enough.
struct Rig {
    schema: Schema,
    gen: DataGen,
    cluster: Cluster,
    client: ClientSession,
    items: usize,
}

impl Rig {
    fn start_cluster(schema: &Schema) -> (Cluster, ClientSession) {
        let mut cfg = VolapConfig::new(schema.clone());
        cfg.servers = 1;
        cfg.workers = 1;
        cfg.initial_shards_per_worker = 2;
        cfg.manager_enabled = false;
        let cluster = Cluster::start(cfg);
        let client = cluster.client();
        (cluster, client)
    }

    fn new() -> Self {
        let schema = Schema::uniform(3, 2, 8);
        let (cluster, client) = Self::start_cluster(&schema);
        let gen = DataGen::new(&schema, 17, 1.3);
        let mut rig = Self {
            schema,
            gen,
            cluster,
            client,
            items: 0,
        };
        rig.warm_up();
        rig
    }

    fn warm_up(&mut self) {
        for _ in 0..WARMUP_BLOCKS {
            self.block();
        }
    }

    /// One block of client operations; returns its wall time in seconds.
    fn block(&mut self) -> f64 {
        let all = QueryBox::all(&self.schema);
        let items = self.gen.items(BLOCK_OPS - BLOCK_OPS / QUERY_EVERY);
        self.items += items.len();
        let t = Instant::now();
        for (i, item) in items.iter().enumerate() {
            self.client.insert(item).expect("insert");
            if i % (QUERY_EVERY - 1) == 0 {
                self.client.query(&all).expect("query");
            }
        }
        t.elapsed().as_secs_f64()
    }

    /// One off/on pair through the histogram switch (or, for the A/A row,
    /// none); `ln(t_on / t_off)`.
    fn pair(&mut self, histograms: bool, on_first: bool) -> f64 {
        if self.items >= MAX_ITEMS {
            let (cluster, client) = Self::start_cluster(&self.schema);
            std::mem::replace(&mut self.cluster, cluster).shutdown();
            self.client = client;
            self.items = 0;
            self.warm_up();
        }
        let mut seconds = [0.0; 2];
        for on in [on_first, !on_first] {
            if histograms {
                self.cluster.obs().registry().set_histograms_enabled(on);
            }
            seconds[usize::from(on)] = self.block();
        }
        (seconds[1] / seconds[0]).ln()
    }
}

fn measure(feature: &'static Feature) -> Row {
    let mut rig = Rig::new();
    let mut log_ratios = Vec::new();
    let mut order = 0x9E37_79B9_7F4A_7C15u64; // xorshift64 state: which block of a pair goes first
    let start = Instant::now();
    let (estimate, verdict) = loop {
        order ^= order << 13;
        order ^= order >> 7;
        order ^= order << 17;
        log_ratios.push(rig.pair(feature.histograms, order & 1 == 0));
        if log_ratios.len() < MIN_PAIRS || log_ratios.len() % LOOK_EVERY != 0 {
            continue;
        }
        let estimate = Estimate::from_log_ratios(&log_ratios);
        let verdict = estimate.verdict(feature.tolerance);
        if verdict != Verdict::Inconclusive || start.elapsed() >= feature.cap {
            break (estimate, verdict);
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    rig.cluster.shutdown();
    Row {
        feature,
        pairs: log_ratios.len(),
        seconds,
        estimate,
        verdict,
    }
}

fn main() {
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            other => panic!("unknown argument {other:?} (expected --check)"),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows = Vec::new();
    for feature in FEATURES {
        let row = measure(feature);
        println!(
            "{:<11} {:>+6.2}% [{:>+6.2}%, {:>+6.2}%]  tolerance {:.0}%  {:>4} pairs {:>5.0} s  {:?}",
            feature.name,
            row.estimate.median * 100.0,
            row.estimate.lower * 100.0,
            row.estimate.upper * 100.0,
            feature.tolerance * 100.0,
            row.pairs,
            row.seconds,
            row.verdict,
        );
        rows.push(row);
    }
    let aa = &rows[0].estimate;
    let valid = aa.lower <= 0.0 && 0.0 <= aa.upper;
    if !valid {
        println!("INVALID RUN: the A/A row's interval excludes 0; rerun on a quieter machine");
    }

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"feature\": \"{}\", \"pairs\": {}, \"seconds\": {:.1}, \
                 \"overhead_frac_median\": {:.4}, \"ci95\": [{:.4}, {:.4}], \
                 \"tolerance_frac\": {}, \"verdict\": \"{}\"}}",
                r.feature.name,
                r.pairs,
                r.seconds,
                r.estimate.median,
                r.estimate.lower,
                r.estimate.upper,
                r.feature.tolerance,
                format!("{:?}", r.verdict).to_lowercase(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"overhead\",\n  \"cores\": {cores},\n  \"block_ops\": {BLOCK_OPS},\n  \
         \"valid\": {valid},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rendered.join(",\n")
    );
    std::fs::write("BENCH_overhead.json", &json).expect("write BENCH_overhead.json");
    println!("wrote BENCH_overhead.json");
    if check && (!valid || rows.iter().any(|r| r.verdict != Verdict::Pass)) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_brackets_the_median_and_narrows_with_pairs() {
        // A deterministic spread of log-ratios around ln(1.02).
        let sample = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| 1.02f64.ln() + ((i * 37 % 101) as f64 - 50.0) * 1e-3)
                .collect()
        };
        let few = Estimate::from_log_ratios(&sample(40));
        let many = Estimate::from_log_ratios(&sample(1000));
        for e in [few, many] {
            assert!(e.lower <= e.median && e.median <= e.upper);
            assert!((e.median - 0.02).abs() < 0.005, "median {}", e.median);
        }
        assert!(many.upper - many.lower < few.upper - few.lower);
        // n = 40: order statistics 13 and 28 (1-based) of the sorted sample.
        let mut sorted = sample(40);
        sorted.sort_by(f64::total_cmp);
        assert_eq!(few.lower, sorted[12].exp() - 1.0);
        assert_eq!(few.upper, sorted[27].exp() - 1.0);
    }

    #[test]
    fn verdict_follows_from_interval_and_tolerance() {
        let e = |lower, upper| Estimate {
            median: (lower + upper) / 2.0,
            lower,
            upper,
        };
        assert_eq!(e(-0.004, 0.005).verdict(0.01), Verdict::Pass);
        assert_eq!(e(0.012, 0.03).verdict(0.01), Verdict::Fail);
        assert_eq!(
            e(0.005, 0.012).verdict(0.01),
            Verdict::Inconclusive,
            "straddles the tolerance"
        );
        assert_eq!(
            e(-0.02, 0.005).verdict(0.01),
            Verdict::Inconclusive,
            "wider than the tolerance"
        );
    }
}
