//! Criterion microbenchmarks: compact Hilbert index computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use volap_data::DataGen;
use volap_dims::{HilbertMapper, Schema};
use volap_hilbert::HilbertCurve;

fn bench_curve_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("hilbert_index");
    for dims in [4usize, 8, 16, 32, 64] {
        let bits = vec![8u32; dims];
        let curve = HilbertCurve::new(&bits);
        let point: Vec<u64> = (0..dims).map(|j| (j as u64 * 37) % 256).collect();
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("dims", dims), &point, |b, p| {
            b.iter(|| curve.index(p))
        });
    }
    group.finish();
}

fn bench_roundtrip(c: &mut Criterion) {
    let curve = HilbertCurve::new(&[8; 16]);
    let point: Vec<u64> = (0..16).map(|j| (j * 11) % 256).collect();
    let h = curve.index(&point);
    c.bench_function("hilbert_inverse_16d", |b| b.iter(|| curve.point(&h)));
}

fn bench_mapper(c: &mut Criterion) {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 9, 1.5);
    let items = gen.items(1_000);
    let expanded = HilbertMapper::new(&schema, true);
    let raw = HilbertMapper::new(&schema, false);
    let mut group = c.benchmark_group("tpcds_mapper");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.bench_function("expanded", |b| {
        b.iter(|| {
            items
                .iter()
                .map(|it| expanded.key(it).bit_len())
                .sum::<u32>()
        })
    });
    group.bench_function("raw", |b| {
        b.iter(|| items.iter().map(|it| raw.key(it).bit_len()).sum::<u32>())
    });
    group.finish();
}

criterion_group!(benches, bench_curve_widths, bench_roundtrip, bench_mapper);
criterion_main!(benches);
