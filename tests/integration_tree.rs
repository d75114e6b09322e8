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

/// Per-item inserts, one bulk load, and a bulk load in chunks (the first
/// chunk packs the empty tree, later ones take `insert_batch`) build stores
/// with the same contents.
#[test]
fn point_inserts_and_bulk_load_agree_on_tpcds() {
    let schema = Schema::tpcds();
    let mut gen = DataGen::new(&schema, 79, 1.5);
    let items = gen.items(2_000);
    let point = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    let bulk = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    let chunked = build_store(StoreKind::HilbertPdcMds, &schema, &TreeConfig::default());
    for it in &items {
        point.insert(it);
    }
    bulk.bulk_insert(items.clone());
    for chunk in items.chunks(256) {
        chunked.bulk_insert(chunk.to_vec());
    }
    let total = point.total();
    for store in [&bulk, &chunked] {
        assert_eq!(store.len(), point.len());
        assert_eq!(store.total().count, total.count);
        assert!((store.total().sum - total.sum).abs() < 1e-6);
    }
    let mut qg = QueryGen::new(&schema, 80, 0.5);
    for _ in 0..20 {
        let q = qg.query(&items);
        let count = point.query(&q).count;
        assert_eq!(bulk.query(&q).count, count);
        assert_eq!(chunked.query(&q).count, count);
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

/// Hilbert PDC keys of `DataGen` items (seed 2016, skew 1.5) as hex words,
/// most significant first: the first items of TPC-DS (130-bit keys) and of
/// the widest Figure-5 schema, 64 dimensions of 2 levels x fanout 16
/// (512-bit keys). They pin the key bits, and so the order of every Hilbert
/// tree, across changes to how a key is computed or stored.
const GOLDEN_TPCDS: [&str; 32] = [
    "78df4043f83cc4021ed000cfc2e1c6364000000000000000",
    "fc3d2f638e38cdb43f303f30c0d1f801c000000000000000",
    "fc26126dc840c3c4abc3302340e0f1c44000000000000000",
    "fff143630f2cb2f5b13020cc40d7dfcd8000000000000000",
    "002f30000000007640efc0bffff831c70000000000000000",
    "03cd3000000ececd4f2e383dc72822060000000000000000",
    "fc62e4bce03f9e714000000001c9d8f30000000000000000",
    "78c0078d0f2ff55a603fa03fffe0305c0000000000000000",
    "003f0f03f83ebbf1bba0005fcfa61bc60000000000000000",
    "03ddfdb20fb0978c2ebfc00fe0c83ff30000000000000000",
    "7f391000000f9a7420a03fa0205bdc3c0000000000000000",
    "03b98c7a0f3701cffbdc23c001ae33bac000000000000000",
    "003efcf3bc3f3339b85f303f303f5020c000000000000000",
    "0001e871cc3b3c17e2043c3fff180e3ac000000000000000",
    "fff1ff43f03efa463dd83e0fdc20af504000000000000000",
    "19f91b930f3ff271dfc79fcfac3cd21fc000000000000000",
    "0000000000037d1b38cccfff34cfa0d0c000000000000000",
    "80c960bce03f6342afa03fbff03f2fff0000000000000000",
    "001f775dc850f37a043c33c3c3c3c0d00000000000000000",
    "03c2ee9c4c1cd1f23cce38207ffc3e7f0000000000000000",
    "78d135b30f36d995de3831c627ded43cc000000000000000",
    "00313000000001c20c5c3c33c05e26390000000000000000",
    "00d8f871cc3cc0dda1303f3038823f4f0000000000000000",
    "000ecc780ffefa725021303fffa3fc3ec000000000000000",
    "032d900000035aed303f303f1000cfcf0000000000000000",
    "ffffd0000000fbce9fbe3839a05042398000000000000000",
    "00338e03f83ebe33cf307020b821d7ce4000000000000000",
    "0bb4ff81cc23439730032fff33fbfec74000000000000000",
    "003d6a63e03ede03edc72fc0f7dacc64c000000000000000",
    "7b50afff0f20f9fca33038c8463a5979c000000000000000",
    "78c0e863e823130fc1d820395fbff8320000000000000000",
    "0002beb3c87f8c182a383e242cd1d9b1c000000000000000",
];
const GOLDEN_UNIFORM_64: [&str; 8] = [
    concat!(
        "0fffffffc02fc3bf1ce007ff80005f87263fefff68fbf1f04bca0f8b834839af",
        "f62da384bfc189417ffbf308c0fc821c0e03816907e06fc1059fdc7a51cbff9f",
    ),
    concat!(
        "00ffff8fffffffff7fe03ffff1c6f0034200e791c0ffdee019f7948ef003db63",
        "2c80f31deb1fe773ce1003e00000000321c7ff83f7f70de75c08631af74170af",
    ),
    concat!(
        "43ff818000fff7ffe0120007ffe0007ea303e000e9f87c3071f7f0f8f9be1c3a",
        "60f7ffe1c04f9809403fff0fe7e01818e023f80bc1a0418ee13ce5020c486e63",
    ),
    concat!(
        "00001fffffffffff7ffe3ffe3c18381f477ff907f82f806fb1fbf218074681c4",
        "c80ffdbd00e8c030b8dc601fff3ffc78e38e0607ad7fd74686a2020e125fc60f",
    ),
    concat!(
        "3e02be3fe000fbff7fca204811ef1fdf41f227fea03f428ffc539ee67212c598",
        "1763c0e65a4d60217ff3e03f017f00e084c0cf70f0243fcf600207d867b811e6",
    ),
    concat!(
        "0000007f80003fefcfffc0007c003ff0f21f17f87c260de0e7f6836fdb8920c7",
        "6210900f7fa0658fe9f200005fe01ff1e9ec1fc36fc6011e497dd670cdd9fea2",
    ),
    concat!(
        "000f1fe000fff800ffde400e01ffc03f7c07e27e0bfb93f010e0111078bec373",
        "342cfbc48fe3dbe281fff869e03ffffcc7cffe7cc000d8dca1b81bd7240f1ffa",
    ),
    concat!(
        "00000f07ffffffff4001fef8e04f9f2c87ff37e0fe57f3f425ff0ec6302101bf",
        "8e3801df8399ea032f8e7200000e3bf33c39f3bbc3fe3f7f648254c2c3c56068",
    ),
];

#[test]
fn hilbert_keys_match_golden_values() {
    for (schema, golden) in [
        (Schema::tpcds(), &GOLDEN_TPCDS[..]),
        (Schema::uniform(64, 2, 16), &GOLDEN_UNIFORM_64[..]),
    ] {
        let mapper = HilbertMapper::new(&schema, true);
        assert_eq!(mapper.limbs() * 16, golden[0].len());
        let mut gen = DataGen::new(&schema, 2016, 1.5);
        for (i, (item, want)) in gen.items(golden.len()).iter().zip(golden).enumerate() {
            let hex: String = mapper
                .key(item)
                .iter()
                .map(|w| format!("{w:016x}"))
                .collect();
            assert_eq!(&hex, want, "item {i}: {:?}", item.coords);
        }
    }
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
