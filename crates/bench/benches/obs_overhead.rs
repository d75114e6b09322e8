//! Criterion microbenchmarks: the observability record path.
//!
//! Measures the primitives every hot path pays per operation — counter
//! increment, histogram observation (enabled and disabled), the drop-timer,
//! and an event-log append — plus a contended 8-thread histogram hammer.
//! `bench_overhead` (bin) measures each section's end-to-end overhead in
//! `BENCH_overhead.json`; these benches watch the per-record cost at
//! criterion precision so a regression is attributable to a specific
//! primitive.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use volap_obs::{Obs, ObsConfig, Registry, TraceConfig, Tracer};

fn bench_record_path(c: &mut Criterion) {
    let reg = Registry::new(true);
    let counter = reg.counter("volap_bench_total");
    let hist = reg.histogram("volap_bench_seconds");
    let reg_off = Registry::new(false);
    let hist_off = reg_off.histogram("volap_bench_seconds");
    let obs = Obs::new(ObsConfig::default());

    let mut group = c.benchmark_group("obs_record");
    group.throughput(Throughput::Elements(1));
    group.bench_function("counter_inc", |b| {
        b.iter(|| {
            counter.inc();
            counter.get()
        })
    });
    group.bench_function("histogram_observe", |b| {
        let mut ns = 1u64;
        b.iter(|| {
            ns = ns.wrapping_mul(2654435761).max(1);
            hist.observe_ns(ns);
            ns
        })
    });
    group.bench_function("histogram_observe_disabled", |b| {
        b.iter(|| {
            hist_off.observe_ns(1234);
            hist_off.count()
        })
    });
    group.bench_function("timer_start_drop", |b| {
        b.iter(|| {
            let _timer = hist.start();
        })
    });
    group.bench_function("event_record", |b| {
        b.iter(|| obs.events().record("bench", String::from("k=v")))
    });
    group.finish();
}

fn bench_contended_histogram(c: &mut Criterion) {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let reg = Registry::new(true);
    let hist = reg.histogram("volap_contended_seconds");
    let mut group = c.benchmark_group("obs_contended");
    group.throughput(Throughput::Elements((THREADS as u64) * PER_THREAD));
    group.sample_size(10);
    group.bench_function("histogram_8_threads", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let hist = hist.clone();
                    s.spawn(move || {
                        for i in 0..PER_THREAD {
                            hist.observe_ns((t as u64) * PER_THREAD + i);
                        }
                    });
                }
            });
            hist.count()
        })
    });
    group.finish();
}

fn bench_trace_path(c: &mut Criterion) {
    let off = Tracer::new(TraceConfig { sample: 0, ..TraceConfig::default() });
    let sampled = Tracer::new(TraceConfig { sample: 64, ..TraceConfig::default() });
    let always = Tracer::new(TraceConfig { sample: 1, ..TraceConfig::default() });
    let ctx = always.sample_root().expect("always-on samples");

    let mut group = c.benchmark_group("obs_trace");
    group.throughput(Throughput::Elements(1));
    // The cost every unsampled request pays: one relaxed load + a branch.
    group.bench_function("sample_root_off", |b| b.iter(|| off.sample_root().is_none()));
    // Amortized decision cost at the production rate (63 misses + 1 hit).
    group.bench_function("sample_root_1_in_64", |b| {
        b.iter(|| sampled.sample_root().is_some())
    });
    // Full span lifecycle for a sampled request: child ctx + guard + record.
    group.bench_function("span_record", |b| {
        b.iter(|| {
            let child = always.child(&ctx);
            let mut span = always.span(&child, "bench");
            span.annotate("k", "v");
        })
    });
    group.finish();
}

criterion_group!(benches, bench_record_path, bench_contended_histogram, bench_trace_path);
criterion_main!(benches);
