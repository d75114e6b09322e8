//! Figure 4: Hilbert PDC tree vs PDC tree query time for low / medium /
//! high coverage queries as the database grows.
//!
//! Paper setup: TPC-DS data, a single tree on one worker instance, sizes
//! 1–10 million. Scaled here to 1–10 × 100 k (`--quick`: × 10 k). Trees are
//! built by point insertion so each insertion policy shapes its own
//! structure, and queries are drawn from coverage bins measured against a
//! data sample, exactly as §IV describes.
//!
//! Expected shape: both trees fast at high coverage (cached aggregates);
//! Hilbert PDC significantly faster at low and medium coverage.

use std::time::Instant;

use volap_bench::{scaled, LatencyStats};
use volap_data::{CoverageBand, DataGen, QueryGen};
use volap_dims::Schema;
use volap_tree::{build_store, StoreKind, TreeConfig};

fn main() {
    let schema = Schema::tpcds();
    let step = scaled(100_000, 10_000);
    let steps = 10;
    let queries_per_band = scaled(40, 10);

    let mut gen = DataGen::new(&schema, 4001, 1.5);
    let all_items = gen.items(step * steps);
    let kinds = [StoreKind::HilbertPdcMds, StoreKind::PdcMds];
    let stores: Vec<_> = kinds
        .iter()
        .map(|&k| build_store(k, &schema, &TreeConfig::default()))
        .collect();

    println!(
        "# Figure 4: query time vs database size (single tree, TPC-DS, {} dims)",
        schema.dims()
    );
    println!(
        "{:<10} {:<22} {:<8} {:>12} {:>12} {:>10}",
        "size", "tree", "band", "mean_ms", "p95_ms", "checksum"
    );
    let mut inserted = 0usize;
    for s in 1..=steps {
        // Incremental load up to s*step items.
        let target = s * step;
        for it in &all_items[inserted..target] {
            for store in &stores {
                store.insert(it);
            }
        }
        inserted = target;
        // Bin queries against the current contents.
        let sample = &all_items[..target.min(20_000)];
        let mut qg = QueryGen::new(&schema, 5000 + s as u64, 0.65);
        let bins = qg.binned(sample, queries_per_band, 200_000);
        for (kind, store) in kinds.iter().zip(&stores) {
            for (band, queries) in CoverageBand::all().iter().zip(&bins) {
                if queries.is_empty() {
                    continue;
                }
                let mut lats = Vec::with_capacity(queries.len());
                let mut checksum = 0u64;
                for q in queries {
                    let t = Instant::now();
                    let agg = store.query(q);
                    lats.push(t.elapsed().as_secs_f64());
                    checksum = checksum.wrapping_add(agg.count);
                }
                let st = LatencyStats::from_samples(lats);
                println!(
                    "{:<10} {:<22} {:<8} {:>12.4} {:>12.4} {:>10}",
                    target,
                    kind.to_string(),
                    band.to_string(),
                    st.mean * 1e3,
                    st.p95 * 1e3,
                    checksum
                );
            }
        }
    }
    println!("# paper shape: Hilbert PDC <= PDC everywhere; largest gap at low/medium coverage");
}
