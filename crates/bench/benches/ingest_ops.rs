//! Criterion microbenchmarks: the batched ingest pipeline.
//!
//! Tracks the tree-level `insert_batch` speedup over per-item `insert` at
//! several batch sizes, and the cost of bulk Hilbert key derivation — the
//! two levers behind every worker bulk insert. `bench_insert` (bin)
//! records the headline per-item-vs-batched number to `BENCH_insert.json`;
//! these benches watch the same path at criterion precision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use volap_data::DataGen;
use volap_dims::{HilbertMapper, Mds, Schema};
use volap_tree::{ConcurrentTree, InsertPolicy, TreeConfig};

fn fresh(schema: &Schema) -> ConcurrentTree<Mds> {
    ConcurrentTree::new(
        schema.clone(),
        InsertPolicy::Hilbert { expand: true },
        TreeConfig::default(),
    )
}

fn bench_insert_batch(c: &mut Criterion) {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 21, 1.5);
    let items = gen.items(50_000);
    let mut group = c.benchmark_group("ingest");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.sample_size(10);
    group.bench_function("per_item", |b| {
        b.iter(|| {
            let tree = fresh(&schema);
            for it in &items {
                tree.insert(it);
            }
            tree.len()
        })
    });
    for chunk in [1_024usize, 16_384, 65_536] {
        group.bench_with_input(BenchmarkId::new("batched", chunk), &items, |b, items| {
            b.iter(|| {
                let tree = fresh(&schema);
                for c in items.chunks(chunk) {
                    tree.insert_batch(c);
                }
                tree.len()
            })
        });
    }
    group.finish();
}

fn bench_key_batch(c: &mut Criterion) {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 22, 1.5);
    let items = gen.items(10_000);
    let mut group = c.benchmark_group("hilbert_keys");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.bench_function("key_batch_10k", |b| {
        let mapper = HilbertMapper::new(&schema, true);
        let mut keys = mapper.batch();
        b.iter(|| {
            let mut bits = 0u64;
            for it in &items {
                bits += u64::from(keys.key(it).bit_len());
            }
            bits
        })
    });
    group.finish();
}

criterion_group!(benches, bench_insert_batch, bench_key_batch);
criterion_main!(benches);
