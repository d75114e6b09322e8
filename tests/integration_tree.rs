//! Cross-crate tests: the tree family against generated TPC-DS workloads.

use volap_data::{coverage, CoverageBand, DataGen, QueryGen};
use volap_dims::{Aggregate, HilbertMapper, Item, QueryBox, Schema};
use volap_tree::{build_store, StoreKind, TreeConfig};

fn brute(items: &[Item], q: &QueryBox) -> Aggregate {
    let mut a = Aggregate::empty();
    for it in items.iter().filter(|it| q.contains_item(it)) {
        a.add(it.measure);
    }
    a
}

fn all_kinds() -> [StoreKind; 6] {
    [
        StoreKind::Array,
        StoreKind::PdcMbr,
        StoreKind::PdcMds,
        StoreKind::HilbertPdcMbr,
        StoreKind::HilbertPdcMds,
        StoreKind::HilbertRTree,
    ]
}

#[test]
fn every_store_kind_is_exact_on_tpcds() {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 77, 1.5);
    let items = gen.items(4_000);
    let mut qg = QueryGen::new(&schema, 78, 0.6);
    let queries: Vec<QueryBox> = (0..30).map(|_| qg.query(&items)).collect();

    for kind in all_kinds() {
        let store = build_store(kind, &schema, &TreeConfig::default());
        store.bulk_insert(items.clone());
        for q in &queries {
            let expect = brute(&items, q);
            let got = store.query(q);
            assert_eq!(got.count, expect.count, "{kind} count mismatch");
            assert!((got.sum - expect.sum).abs() < 1e-6, "{kind} sum mismatch");
            if expect.count > 0 {
                assert_eq!(got.min, expect.min, "{kind} min mismatch");
                assert_eq!(got.max, expect.max, "{kind} max mismatch");
            }
        }
    }
}

#[test]
fn point_inserts_and_bulk_load_agree_on_tpcds() {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 79, 1.5);
    let items = gen.items(2_000);
    let point = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    let bulk = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    for it in &items {
        point.insert(it);
    }
    bulk.bulk_insert(items.clone());
    let mut qg = QueryGen::new(&schema, 80, 0.5);
    for _ in 0..20 {
        let q = qg.query(&items);
        assert_eq!(point.query(&q).count, bulk.query(&q).count);
    }
}

/// The headline property behind Figure 4: at equal contents, the Hilbert
/// PDC tree answers low/medium-coverage queries while touching fewer leaf
/// items than the PDC tree, thanks to less overlap and better-cached
/// aggregates.
#[test]
fn hilbert_pdc_scans_less_than_pdc_at_low_coverage() {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 81, 1.5);
    let items = gen.items(6_000);
    let mut qg = QueryGen::new(&schema, 82, 0.55);
    let bins = qg.binned(&items, 15, 60_000);

    let pdc = build_store(StoreKind::PdcMds, &schema, &TreeConfig::default());
    let hpdc = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    // Point inserts (not bulk) so each tree's own insertion policy shapes it.
    for it in &items {
        pdc.insert(it);
        hpdc.insert(it);
    }
    let mut pdc_scanned = 0u64;
    let mut hpdc_scanned = 0u64;
    for q in bins[CoverageBand::Low as usize].iter() {
        let (a, ta) = pdc.query_traced(q);
        let (b, tb) = hpdc.query_traced(q);
        assert_eq!(a.count, b.count, "both exact");
        pdc_scanned += ta.items_scanned;
        hpdc_scanned += tb.items_scanned;
    }
    assert!(
        hpdc_scanned <= pdc_scanned,
        "Hilbert PDC must not scan more than PDC at low coverage \
         (hpdc {hpdc_scanned} vs pdc {pdc_scanned})"
    );
}

/// High-coverage queries must be answered dominantly from cached
/// aggregates — the paper's coverage resilience.
#[test]
fn high_coverage_hits_cached_aggregates() {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 83, 1.5);
    let items = gen.items(5_000);
    let store = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    store.bulk_insert(items.clone());
    let q = QueryBox::all(&schema);
    let (agg, trace) = store.query_traced(&q);
    assert_eq!(agg.count, items.len() as u64);
    assert_eq!(
        trace.items_scanned, 0,
        "full coverage must use node caches only"
    );
    assert!(trace.covered_hits > 0);
}

/// The Figure-3 expansion must change the Hilbert order (otherwise the
/// Hilbert PDC tree degenerates to a Hilbert R-tree).
#[test]
fn expansion_changes_hilbert_order_on_tpcds() {
    let schema = Schema::tpcds();
    let expanded = HilbertMapper::new(&schema, true);
    let raw = HilbertMapper::new(&schema, false);
    let mut gen = DataGen::new(&schema, 84, 1.5);
    let items = gen.items(400);
    let mut by_expanded: Vec<usize> = (0..items.len()).collect();
    let mut by_raw: Vec<usize> = (0..items.len()).collect();
    by_expanded.sort_by_key(|&i| expanded.key(&items[i]));
    by_raw.sort_by_key(|&i| raw.key(&items[i]));
    assert_ne!(
        by_expanded, by_raw,
        "expansion must produce a different curve order"
    );
}

#[test]
fn coverage_bands_partition_generated_queries() {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 85, 1.5);
    let items = gen.items(3_000);
    let mut qg = QueryGen::new(&schema, 86, 0.7);
    let bins = qg.binned(&items, 8, 50_000);
    for (band, bin) in CoverageBand::all().iter().zip(&bins) {
        for q in bin {
            assert_eq!(CoverageBand::of(coverage(&items, q)), *band);
        }
    }
}
