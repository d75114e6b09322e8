//! `bench_e2e`: the repository's end-to-end benchmark.
//!
//! Drives a real `Cluster` through `ClientSession` on one of six workloads for
//! `--seconds`, checks every answer, and prints one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` in this directory.

mod check;
mod layers;
mod load;
mod setup;
mod spec;
mod stats;
mod trace;

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use volap_data::{CoverageBand, DataGen};

use layers::{EchoServer, Tracing};
use load::{Clock, NoTrace, Observer, Samples, Session};
use setup::{quiesce, setup, stream_seed, Env};
use spec::{Kind, Workload, DATA_SKEW, END_TO_END, PER_LAYER, SESSIONS, WORKLOADS};
use stats::{mean, median, percentile, sliced_rate};
use trace::{mean_self_by_name, write_jsonl, Span};

/// Throughput is the median over slices this long.
const RATE_SLICE_NS: u64 = 500_000_000;
/// Rounds of an untraced run: set-ups, and clusters measured.
const ROUNDS: u64 = 3;
/// The process prints a failed result and exits once this much time has
/// passed, whatever is still running: the caller allows 180 s.
const HARD_LIMIT: Duration = Duration::from_secs(150);
/// Share of a traced closed-loop run that goes untraced first, as the base
/// for `trace.overhead_frac`.
const UNTRACED_SHARE: f64 = 0.25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
}

const USAGE: &str = "usage: bench_e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out, mut smoke) =
        (1u64, 10.0f64, false, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(name).ok_or_else(|| {
                    format!(
                        "unknown workload {name}; one of: {}",
                        WORKLOADS.map(|w| w.name).join(", ")
                    )
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
        smoke,
    })
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// What a run found, printed as the last line of standard output.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    if v.is_finite() { *v } else { 0.0 }
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// A run that could not measure: every metric of its list, all 0.
    fn unmeasured(trace: bool) -> Outcome {
        let names: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: names.iter().map(|&(n, u)| (n, u, 0.0)).collect(),
        }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointer and may be called at any time
    // from any thread; it only returns free heap pages to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Resident set after free heap pages went back to the kernel: what the
/// process holds, not what splits, migrations and decoded requests once held.
/// Without the trim the figure moves by a sixth between runs of one commit.
fn rss_bytes() -> u64 {
    release_free_heap();
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// What the measured phase produced.
struct Measured {
    samples: Samples,
    wall_ns: u64,
    /// Spans and plan counters of the traced sessions.
    traced: Vec<Tracing>,
    /// When the traced part of the run began.
    traced_from_ns: u64,
}

fn sessions(env: &Env) -> Vec<Session> {
    let n = if env.w.kind == Kind::Bulk {
        1
    } else {
        SESSIONS
    };
    let pool_len = match env.w.kind {
        Kind::Query(band) => env.pool[band as usize].len(),
        _ => 0,
    };
    (0..n)
        .map(|i| {
            // Mixed: inserts through server-0, queries through server-1.
            let server = if env.w.kind == Kind::Mixed { i } else { 0 };
            let gen = DataGen::new(&env.schema, stream_seed(env.seed, 2 + i as u64), DATA_SKEW);
            Session::new(
                env.cluster.client_on(server),
                gen,
                i * pool_len / n,
                pool_len,
            )
        })
        .collect()
}

/// Session `i`'s closed loop until `until_ns`.
fn run_session<O: Observer>(
    env: &Env,
    i: usize,
    s: &mut Session,
    clock: &Clock,
    until_ns: u64,
    obs: &mut O,
) {
    match env.w.kind {
        Kind::Point => s.run_point(clock, until_ns, obs),
        Kind::Bulk => s.run_bulk(clock, until_ns, obs),
        Kind::Query(band) => s.run_query(&env.pool[band as usize], true, clock, until_ns, obs),
        // Session 0 is the writer on server-0, session 1 the reader of
        // high-coverage queries on server-1.
        Kind::Mixed if i == 0 => s.run_point(clock, until_ns, obs),
        Kind::Mixed => s.run_query(
            &env.pool[CoverageBand::High as usize],
            false,
            clock,
            until_ns,
            obs,
        ),
    }
}

fn measure(env: &Env, seconds: f64, trace: bool) -> Measured {
    let mut sess = sessions(env);
    let end_ns = (seconds * 1e9) as u64;
    let traced_from_ns = if trace {
        (seconds * UNTRACED_SHARE * 1e9) as u64
    } else {
        end_ns
    };
    // A session makes under 10 000 calls a second at this commit, one span
    // each and a dozen more for one call in 64: ten times that is room enough.
    let capacity = (seconds * 100_000.0) as usize;
    let clock = Clock::start();
    let mut traced: Vec<Tracing> = if trace {
        (0..sess.len())
            .map(|i| Tracing::new(env, i, clock, capacity))
            .collect()
    } else {
        Vec::new()
    };
    std::thread::scope(|sc| {
        for (i, s) in sess.iter_mut().enumerate() {
            sc.spawn(move || run_session(env, i, s, &clock, traced_from_ns, &mut NoTrace));
        }
    });
    std::thread::scope(|sc| {
        for (i, (s, t)) in sess.iter_mut().zip(traced.iter_mut()).enumerate() {
            sc.spawn(move || run_session(env, i, s, &clock, end_ns, t));
        }
    });
    let wall_ns = clock.now_ns();
    let mut samples = Samples::default();
    // The sessions must agree with each other, too.
    if let [a, b] = sess.as_slice() {
        for (x, y) in a.answers.iter().zip(&b.answers) {
            if let (Some(x), Some(y)) = (x, y) {
                if !load::same_answer(x, y) {
                    samples.failed += 1;
                    samples.first_error.get_or_insert_with(|| {
                        format!("two sessions got different answers to one query: {x:?} and {y:?}")
                    });
                }
            }
        }
    }
    for s in sess {
        samples.merge(s.samples);
    }
    Measured {
        samples,
        wall_ns,
        traced,
        traced_from_ns,
    }
}

/// The `p`-th percentile in microseconds, or the largest sample when fewer
/// than ten lie beyond it. Never a lower percentile under the same name: a
/// slowdown that thins the sample would then read as a gain. The largest
/// sample errs the other way, and says so on standard error.
fn pct_us(sorted: &[u64], p: f64) -> f64 {
    let v = percentile(sorted, p).or_else(|| {
        if !sorted.is_empty() {
            eprintln!(
                "bench_e2e: {} samples do not support p{:.0}; reporting the largest",
                sorted.len(),
                p * 100.0
            );
        }
        sorted.last().copied()
    });
    v.unwrap_or(0) as f64 / 1e3
}

/// The calls whose throughput and whose latency a workload reports. The mix
/// reports each side's view of the other: the reader's query rate beside the
/// writer, and the writer's insert latency beside the reader.
fn reported<'a>(w: &Workload, s: &'a Samples) -> (&'a [(u64, u64, u64)], &'a [u64]) {
    match w.kind {
        Kind::Point | Kind::Bulk => (&s.insert_done, &s.insert_ns),
        Kind::Query(_) => (&s.query_done, &s.query_ns),
        Kind::Mixed => (&s.query_done, &s.insert_ns),
    }
}

fn per_layer(env: &Env, m: &Measured, layer: Vec<(&'static str, f64)>, spans: &[Span]) -> Metrics {
    let mut v: HashMap<&'static str, f64> = layer.into_iter().collect();
    let s = &m.samples;
    let (inserts, queries) = (sorted(&s.insert_ns), sorted(&s.query_ns));
    v.insert("client.insert_p50_us", pct_us(&inserts, 0.5));
    v.insert("client.insert_p99_us", pct_us(&inserts, 0.99));
    v.insert("client.query_p50_us", pct_us(&queries, 0.5));
    v.insert("client.query_p95_us", pct_us(&queries, 0.95));
    if !s.query_ns.is_empty() {
        v.insert(
            "server_index.shards_per_query",
            s.shards_searched as f64 / s.query_ns.len() as f64,
        );
    }

    let t = &m.traced;
    let sum = |f: fn(&Tracing) -> u64| t.iter().map(f).sum::<u64>() as f64;
    let plans = sum(|t| t.plans);
    if plans > 0.0 {
        v.insert("tree.nodes_visited", sum(|t| t.nodes_visited) / plans);
        v.insert("tree.items_scanned", sum(|t| t.items_scanned) / plans);
        v.insert("tree.covered_hits", sum(|t| t.covered_hits) / plans);
        v.insert("tree.plan_critical_us", sum(|t| t.tree_us) / plans);
        v.insert(
            "tree.scanned_per_result",
            sum(|t| t.items_scanned) / sum(|t| t.results).max(1.0),
        );
    }

    // The budget of the replayed operations.
    let selfs = mean_self_by_name(spans);
    let replayed: HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| s.parent)
        .collect();
    let dur_us = |pick: &dyn Fn(&Span) -> bool| {
        mean(
            &spans
                .iter()
                .filter(|s| pick(s))
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let rtt_us = dur_us(&|s| s.parent == 0 && replayed.contains(&s.id));
    v.insert("client.rtt_us", rtt_us);
    v.insert(
        "server.self_us",
        selfs.get("client").copied().unwrap_or(0.0) / 1e3,
    );
    v.insert("worker.direct_rtt_us", dur_us(&|s| s.name == "worker"));
    v.insert(
        "worker.self_us",
        selfs.get("worker").copied().unwrap_or(0.0) / 1e3,
    );
    // What the client waited that neither its own codec, nor a bare hop, nor
    // the server's own handler time explains. Inserts and queries are
    // replayed in the proportion they were called in, so the handler time to
    // set against the mean client span is the mean over both.
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let handler_us = if env.w.kind == Kind::Bulk {
        get("server.bulk_mean_ms") * 1e3
    } else {
        let (ni, nq) = (s.insert_ns.len() as f64, s.query_ns.len() as f64);
        (get("server.insert_mean_us") * ni + get("server.query_mean_us") * nq) / (ni + nq).max(1.0)
    };
    if rtt_us > 0.0 && handler_us > 0.0 {
        let codec_us = mean(
            &t.iter()
                .flat_map(|t| t.client_codec_ns.iter().copied())
                .collect::<Vec<_>>(),
        ) / 1e3;
        let hop_us = dur_us(&|s| s.name == "net");
        v.insert(
            "budget.unattributed_frac",
            ((rtt_us - codec_us - hop_us - handler_us) / rtt_us).max(0.0),
        );
    }

    if m.traced_from_ns > 0 {
        let done = reported(&env.w, s).0;
        let rate = |from: u64, to: u64| {
            done.iter()
                .filter(|d| (from..to).contains(&d.1))
                .map(|d| d.2)
                .sum::<u64>() as f64
                / ((to - from).max(1) as f64 / 1e9)
        };
        let (plain, traced) = (rate(0, m.traced_from_ns), rate(m.traced_from_ns, m.wall_ns));
        if plain > 0.0 {
            v.insert("trace.overhead_frac", 1.0 - traced / plain);
        }
    }
    v.insert("trace.spans", spans.len() as f64);
    v.insert("trace.replays", sum(|t| t.replays));
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, v.get(n).copied().unwrap_or(0.0)))
        .collect()
}

/// What one round found: one set-up, one measured phase, one check.
struct Round {
    correct: bool,
    attempted: u64,
    failed: u64,
    setup_s: f64,
    ops_per_s: f64,
    /// Latency of every reported call of this round, nanoseconds.
    lat_ns: Vec<u64>,
    /// `VmRSS` once the cluster is quiescent after the measured phase, and
    /// the items stored then.
    rss: u64,
    stored: u64,
    per_layer: Metrics,
}

/// One round on a fresh cluster. `corrupt` shifts the expected item count by
/// one: the test that the check can fail.
fn round(args: &Args, seed: u64, seconds: f64, corrupt: bool) -> Result<Round, String> {
    let env = setup(args.workload, seed, args.smoke)?;
    let echo = args.trace.then(|| EchoServer::start(&env));
    let before = args.trace.then(|| env.cluster.snapshot());

    let mut m = measure(&env, seconds, args.trace);
    if let Some(e) = &m.samples.first_error {
        eprintln!(
            "bench_e2e: {} of {} operations failed, the first: {e}",
            m.samples.failed, m.samples.attempted
        );
    }

    // Correctness, on the quiescent cluster.
    let mut expected = env.preload_agg;
    expected.merge(&m.samples.acked);
    for t in &m.traced {
        expected.merge(&t.extra);
    }
    let stored = expected.count;
    if corrupt {
        expected.count += 1;
    }
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    let mut checks = Vec::new();
    if env.w.manager {
        match quiesce(&env) {
            Ok(s) => layer.push(("manager.settle_s", s)),
            Err(e) => checks.push(Err(e)),
        }
    }
    env.cluster.settle(Duration::from_secs(5));
    // Memory is read on the quiescent cluster: while a shard splits or moves
    // its worker holds it twice, a fifth of all that is stored here.
    let rss = rss_bytes();
    checks.push(check::conservation(&env, &expected));
    if matches!(env.w.kind, Kind::Query(_)) {
        checks.push(check::against_scan(&env));
    }
    let mut correct = true;
    for e in checks.into_iter().filter_map(Result::err) {
        correct = false;
        eprintln!("bench_e2e: INCORRECT: {e}");
    }

    let mut per_layer_metrics = Vec::new();
    if let Some(before) = before {
        let after = env.cluster.snapshot();
        layers::counter_metrics(&env, &before, &after, m.samples.attempted, &mut layer);
        layers::static_probes(&env, args.smoke, &mut layer);
        let spans: Vec<Span> = m.traced.iter_mut().flat_map(|t| t.take_spans()).collect();
        if let Some(path) = &args.trace_out {
            if let Err(e) = write_jsonl(path, &spans) {
                eprintln!("bench_e2e: --trace-out {path}: {e}");
            }
        }
        per_layer_metrics = per_layer(&env, &m, layer, &spans);
    }
    if let Some(echo) = echo {
        echo.stop();
    }
    let (done, lat) = reported(&env.w, &m.samples);
    let ops_per_s = sliced_rate(done, m.wall_ns, RATE_SLICE_NS);
    let lat_ns = lat.to_vec();
    let setup_s = env.setup_s;
    env.cluster.shutdown();
    Ok(Round {
        correct,
        attempted: m.samples.attempted,
        failed: m.samples.failed,
        setup_s,
        ops_per_s,
        lat_ns,
        rss,
        stored,
        per_layer: per_layer_metrics,
    })
}

/// One whole run. Untraced it is [`ROUNDS`] rounds, each on a cluster set up
/// afresh with a third of `--seconds`: how fast a cluster runs depends on
/// where its set-up happened to put shards and memory, by a tenth and more
/// between set-ups of one commit, and one run should not be one draw of that.
/// Set-up time and throughput are medians over the rounds; the latency
/// percentiles are taken over the calls of all rounds together, so that the
/// p90 of a workload with a hundred calls a round has its ten samples beyond
/// it with room to spare. Traced it is one round.
fn run(args: &Args, corrupt: bool) -> Outcome {
    measured_run(args, corrupt).unwrap_or_else(|e| {
        eprintln!("bench_e2e: set-up failed: {e}");
        Outcome::unmeasured(args.trace)
    })
}

fn measured_run(args: &Args, corrupt: bool) -> Result<Outcome, String> {
    let rss0 = rss_bytes();
    let rounds = if args.trace || args.smoke { 1 } else { ROUNDS };
    let mut done: Vec<Round> = Vec::new();
    for k in 0..rounds {
        let r = round(
            args,
            args.seed * ROUNDS + k,
            args.seconds / rounds as f64,
            corrupt,
        )?;
        eprintln!(
            "bench_e2e: round {k}: setup_s {:.4}, ops_per_s {:.1}, {} calls timed",
            r.setup_s,
            r.ops_per_s,
            r.lat_ns.len()
        );
        done.push(r);
    }
    let metrics = if args.trace {
        std::mem::take(&mut done[0].per_layer)
    } else {
        let mut setups: Vec<f64> = done.iter().map(|r| r.setup_s).collect();
        // The set-ups beyond the measured rounds, each shut down at once.
        let total = if args.smoke {
            rounds
        } else {
            args.workload.setups
        };
        for k in rounds..total {
            let env = setup(args.workload, args.seed * ROUNDS + k % ROUNDS, false)?;
            setups.push(env.setup_s);
            env.cluster.shutdown();
        }
        // Memory is read in the first round only: later rounds find what the
        // earlier ones left in the allocator.
        let rss_per_item = done[0].rss.saturating_sub(rss0) as f64 / done[0].stored.max(1) as f64;
        let lat: Vec<u64> = done.iter().flat_map(|r| r.lat_ns.iter().copied()).collect();
        let lat = sorted(&lat);
        let values = [
            median(&mut setups),
            median(&mut done.iter().map(|r| r.ops_per_s).collect::<Vec<_>>()),
            pct_us(&lat, 0.5),
            pct_us(&lat, 0.9),
            rss_per_item,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    Ok(Outcome {
        correct: done.iter().all(|r| r.correct),
        attempted: done.iter().map(|r| r.attempted).sum(),
        failed: done.iter().map(|r| r.failed).sum(),
        metrics,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Never hang: past the hard limit, print a failed result and go.
    let trace = args.trace;
    std::thread::spawn(move || {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("bench_e2e: still running after {HARD_LIMIT:?}; giving up");
        println!("{}", Outcome::unmeasured(trace).json());
        std::process::exit(3);
    });
    let out = run(&args, false);
    println!("{}", out.json());
    std::process::exit(if out.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Args {
        Args {
            workload: Workload::by_name(workload).expect("workload"),
            seed: 5,
            seconds: 0.4,
            trace,
            trace_out: None,
            smoke: true,
        }
    }

    /// Every name of `expected` is printed exactly once, with a finite value.
    fn assert_prints(out: &Outcome, expected: &[(&str, &str)]) {
        assert_eq!(out.metrics.len(), expected.len());
        for (name, unit) in expected {
            let hits: Vec<_> = out.metrics.iter().filter(|m| m.0 == *name).collect();
            assert_eq!(hits.len(), 1, "{name} printed {} times", hits.len());
            assert_eq!(hits[0].1, *unit);
            assert!(hits[0].2.is_finite(), "{name} = {}", hits[0].2);
        }
        let json = out.json();
        assert!(
            json.starts_with("{\"correct\": ") && json.ends_with("}}"),
            "{json}"
        );
    }

    /// A hundredth-size run of `workload` prints every metric of its list.
    fn check_smoke(workload: &str, trace: bool) {
        let out = run(&smoke(workload, trace), false);
        assert!(
            out.correct && out.failed == 0 && out.attempted > 0,
            "{workload}: {}",
            out.json()
        );
        let get = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.0 == name)
                .map(|m| m.2)
                .unwrap_or(f64::NAN)
        };
        if trace {
            assert_prints(&out, &PER_LAYER);
            assert!(
                get("trace.spans") > 0.0
                    && get("tree.insert_ns") > 0.0
                    && get("net.echo_rtt_us") > 0.0,
                "{}",
                out.json()
            );
        } else {
            assert_prints(&out, &END_TO_END);
            // Never 0, or the driver cannot take a ratio. (Memory is left out:
            // the tests of this binary share one process and one heap.)
            for name in ["setup_s", "ops_per_s", "lat_p50_us", "lat_p90_us"] {
                assert!(get(name) > 0.0, "{workload} {name}: {}", out.json());
            }
        }
    }

    // One test per workload, so that their waits for quiescence overlap.
    macro_rules! smoke_tests {
        ($($name:ident: $workload:literal, $trace:literal;)*) => {$(
            #[test]
            fn $name() {
                check_smoke($workload, $trace);
            }
        )*};
    }

    smoke_tests! {
        smoke_ingest_point: "ingest_point", false;
        smoke_ingest_bulk_growth: "ingest_bulk_growth", false;
        smoke_query_bands_low: "query_bands_low", false;
        smoke_query_bands_med: "query_bands_med", false;
        smoke_query_bands_high: "query_bands_high", false;
        smoke_mixed_rw: "mixed_rw", false;
        smoke_traced_ingest_point: "ingest_point", true;
        smoke_traced_ingest_bulk_growth: "ingest_bulk_growth", true;
        smoke_traced_query_bands_med: "query_bands_med", true;
        smoke_traced_mixed_rw: "mixed_rw", true;
    }

    #[test]
    fn a_thin_sample_never_reports_a_lower_percentile() {
        // `ingest_bulk_growth` at the commit that added the benchmark: three
        // rounds of about 116 chunks. Together they leave 34 beyond the p90.
        let pooled: Vec<u64> = (1..=348).map(|us| us * 1000).collect();
        assert_eq!(pct_us(&pooled, 0.9), 314.0);
        assert_eq!(pct_us(&pooled, 0.5), 174.0);
        // Chunks four times slower leave nine beyond it: the largest sample
        // is reported, which is worse than the p90, never the p50.
        let thin: Vec<u64> = (1..=90).map(|us| us * 1000).collect();
        assert_eq!(pct_us(&thin, 0.9), 90.0);
        assert_eq!(pct_us(&[], 0.9), 0.0);
    }

    #[test]
    fn a_corrupted_expectation_makes_the_run_incorrect() {
        let out = run(&smoke("ingest_point", false), true);
        assert!(
            !out.correct,
            "an expected count that is off by one must fail conservation"
        );
    }

    #[test]
    fn unknown_flags_and_values_are_errors() {
        let parse = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&[
            "--workload",
            "ingest_point",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(parse(&["--workload", "ingest_point", "--all"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "--workload is required");
        assert!(parse(&["--workload", "ingest_point", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "ingest_point", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "ingest_point", "--seed"]).is_err());
    }

    /// `"name": "<x>"` values between `from` and `to` in BENCHMARK.json.
    fn names(json: &str, from: &str, to: Option<&str>) -> Vec<String> {
        let start = json.find(from).expect(from);
        let end = to.map_or(json.len(), |t| json.find(t).expect(t));
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_names_this_program_prints() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            names(&json, "\"workloads\"", Some("\"end_to_end\"")),
            WORKLOADS.map(|w| w.name)
        );
        assert_eq!(
            names(&json, "\"end_to_end\"", Some("\"per_layer\"")),
            END_TO_END.map(|m| m.0)
        );
        assert_eq!(names(&json, "\"per_layer\"", None), PER_LAYER.map(|m| m.0));
    }
}
