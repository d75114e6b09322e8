//! Criterion microbenchmarks: the observability record path.
//!
//! Measures the primitives every hot path pays per operation — counter
//! increment, histogram observation, the drop-timer, and an event-log
//! append — plus a contended 8-thread histogram hammer, at criterion
//! precision, so a regression is attributable to a specific primitive.
//! End to end, the histograms' cost shows in `bench_e2e`, which runs with
//! every instrument recording.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use volap_obs::{Obs, Registry};

fn bench_record_path(c: &mut Criterion) {
    let reg = Registry::new();
    let counter = reg.counter("volap_bench_total");
    let hist = reg.histogram("volap_bench_seconds");
    let obs = Obs::new();

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
    let reg = Registry::new();
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

criterion_group!(benches, bench_record_path, bench_contended_histogram);
criterion_main!(benches);
