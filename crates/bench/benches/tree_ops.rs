//! Criterion microbenchmarks: shard data-structure operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use volap_data::{DataGen, QueryGen};
use volap_dims::Schema;
use volap_tree::{build_store, StoreKind, TreeConfig};

fn bench_inserts(c: &mut Criterion) {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 1, 1.5);
    let items = gen.items(20_000);
    let mut group = c.benchmark_group("insert");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.sample_size(10);
    for kind in [
        StoreKind::Array,
        StoreKind::PdcMbr,
        StoreKind::PdcMds,
        StoreKind::HilbertPdcMds,
        StoreKind::HilbertRTree,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &items, |b, items| {
            b.iter(|| {
                let store = build_store(kind, &schema, &TreeConfig::default());
                for it in items {
                    store.insert(it);
                }
                store.len()
            })
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 2, 1.5);
    let items = gen.items(100_000);
    let sample = &items[..10_000];
    let mut qg = QueryGen::new(&schema, 3, 0.65);
    let queries: Vec<_> = (0..64).map(|_| qg.query(sample)).collect();
    let mut group = c.benchmark_group("query");
    group.throughput(Throughput::Elements(queries.len() as u64));
    for kind in [StoreKind::PdcMds, StoreKind::HilbertPdcMds, StoreKind::HilbertRTree] {
        let store = build_store(kind, &schema, &TreeConfig::default());
        store.bulk_insert(items.clone());
        group.bench_with_input(BenchmarkId::new("seq", kind), &queries, |b, queries| {
            b.iter(|| {
                let mut total = 0u64;
                for q in queries {
                    total = total.wrapping_add(store.query(q).count);
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 4, 1.5);
    let items = gen.items(50_000);
    let mut group = c.benchmark_group("bulk_load");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.sample_size(10);
    group.bench_function("hilbert_pdc_mds", |b| {
        b.iter(|| {
            let store = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
            store.bulk_insert(items.clone());
            store.len()
        })
    });
    group.finish();
}

fn bench_split_and_serialize(c: &mut Criterion) {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 5, 1.5);
    let store = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    store.bulk_insert(gen.items(50_000));
    let mut group = c.benchmark_group("balance_ops");
    group.sample_size(10);
    group.bench_function("split_query+split_50k", |b| {
        b.iter(|| {
            let plan = store.split_query().expect("splittable");
            let (l, r) = store.split(&plan);
            l.len() + r.len()
        })
    });
    group.bench_function("serialize_50k", |b| b.iter(|| store.serialize().len()));
    group.finish();
}

criterion_group!(benches, bench_inserts, bench_queries, bench_bulk_load, bench_split_and_serialize);
criterion_main!(benches);
