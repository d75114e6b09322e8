//! Property-based tests for the observability core: histogram correctness
//! under concurrency, exporter round-trip fidelity over every section, and
//! text decoders that reject damaged input without panicking.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use volap_obs::{
    bucket_index, export, AuditLog, BalanceDecision, CostVec, EventLog, HeatEntry, HeatMap,
    LockClass, Obs, ObsConfig, ObsMutex, RateEwma, Registry, Section, COST_DIMS, HIST_BUCKETS,
};

/// Names that exercise the JSON escaper: quotes, a backslash, a control
/// character and multi-byte UTF-8 beside realistic name characters.
const NAME: &str = "[a-z0-9_\"\\\u{1}\u{e9}\u{4e16}-]{1,10}";

/// Any finite non-negative float (a rate or a weight), bit-exact.
fn rate() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| f64::from_bits(bits >> 1)).prop_filter("finite", |f| f.is_finite())
}

/// Hammer one histogram from many threads and check that not a single
/// observation is lost or double-counted: total count, total sum, and the
/// per-bucket tallies all match an offline replay of the same values.
#[test]
fn histogram_is_exact_under_concurrent_recording() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let reg = Registry::new(true);
    let hist = reg.histogram("volap_hammer_seconds");
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    // Deterministic spread over many octaves, disjoint
                    // per thread.
                    let ns = (t * PER_THREAD + i).wrapping_mul(2654435761) % (1 << 36);
                    hist.observe_ns(ns);
                }
            });
        }
    });
    assert_eq!(hist.count(), THREADS * PER_THREAD, "no observation lost");
    let mut expected = [0u64; HIST_BUCKETS];
    let mut expected_sum = 0u128;
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let ns = (t * PER_THREAD + i).wrapping_mul(2654435761) % (1 << 36);
            expected[bucket_index(ns)] += 1;
            expected_sum += ns as u128;
        }
    }
    assert_eq!(hist.bucket_counts(), expected);
    let sum_ns = (hist.sum_seconds() * 1e9).round() as u128;
    // f64 seconds round-trips the exact integer sum only up to 2^53 ns;
    // this workload stays far below that.
    assert_eq!(sum_ns, expected_sum, "sum preserved exactly");
    // Snapshot buckets are cumulative, hence monotone by construction —
    // verify against the raw tallies.
    let (_, _, histos) = reg.snapshot();
    let snap = &histos[0];
    let mut running = 0;
    for (i, &(le, cum)) in snap.buckets.iter().enumerate() {
        running += expected[i];
        assert_eq!(cum, running, "cumulative bucket {i} (le={le})");
        if i > 0 {
            assert!(le > snap.buckets[i - 1].0, "bucket bounds strictly increase");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any snapshot assembled from arbitrary activity in **every** section
    /// survives the JSON exporter losslessly and the Prometheus exporter up
    /// to its defined scope (metrics plus each section's fold), and passes
    /// the structural validation each section declares.
    #[test]
    fn exporters_round_trip_arbitrary_snapshots(
        counters in prop::collection::vec(("[a-z_]{1,12}", any::<u64>()), 0..6),
        gauges in prop::collection::vec(("[a-z_]{1,12}", any::<i64>()), 0..6),
        observations in prop::collection::vec(any::<u64>(), 0..64),
        events in prop::collection::vec(("[a-z_]{1,8}", "[ -~]{0,24}"), 0..8),
        (heat, decisions) in (
            prop::collection::vec((0u64..16, NAME, any::<u64>(), rate(), rate(), 0u64..=1 << 53), 1..6),
            prop::collection::vec(
                (NAME, NAME, prop::collection::vec((NAME, NAME), 0..3), prop::collection::vec(any::<u64>(), 0..3)),
                1..4,
            ),
        ),
        (tenants, expansions) in (
            prop::collection::vec((NAME, prop::collection::vec(any::<u64>(), COST_DIMS)), 1..5),
            1u64..4,
        ),
    ) {
        static LOCK: LockClass = LockClass::new("prop.exported", 9500);
        drop(ObsMutex::new(&LOCK, ()).lock());
        let obs = Obs::new(ObsConfig::default());
        for (shard, worker, total, insert_rate, query_rate, volume) in heat {
            obs.heat().publish(HeatEntry {
                shard,
                worker,
                items: total / 2,
                inserts_total: total,
                queries_total: total / 3,
                insert_rate,
                query_rate,
                volume_frac: volume as f64 / (1u64 << 53) as f64,
            });
        }
        for (action, dest, inputs, result_shards) in decisions {
            obs.audit().record(BalanceDecision {
                action,
                shard: result_shards.len() as u64,
                src: "worker-0".into(),
                dest,
                inputs,
                result_shards,
                outcome: "ok".into(),
                ..BalanceDecision::default()
            });
        }
        for (name, dims) in &tenants {
            let mut cost = [0u64; COST_DIMS];
            cost.copy_from_slice(dims);
            obs.accounting().charge(obs.accounting().intern(name), &CostVec::from_array(cost));
        }
        for key in 0..expansions {
            obs.staleness().expansion(key, "s0");
            obs.staleness().pushed(key, "s0");
            obs.staleness().applied(key, "s1");
        }
        let reg = obs.registry();
        for (name, v) in &counters {
            reg.counter(&format!("volap_{name}_total")).add(*v);
        }
        for (name, v) in &gauges {
            reg.gauge_labeled(&format!("volap_{name}"), "worker", "w0").set(*v);
        }
        let hist = reg.histogram("volap_prop_seconds");
        for ns in &observations {
            hist.observe_ns(*ns);
        }
        for (kind, detail) in &events {
            obs.events().record(kind, detail.clone());
        }
        let snap = obs.snapshot();
        for &section in Section::ALL {
            let expected = match section {
                Section::Events => !events.is_empty(),
                Section::Traces => false, // not a snapshot member
                _ => true,
            };
            prop_assert_eq!(snap.is_populated(section), expected, "{}", section.name());
        }
        prop_assert_eq!(snap.validate(), Ok(()));
        let json_back = export::from_json(&export::to_json(&snap)).unwrap();
        prop_assert_eq!(&json_back, &snap, "JSON must be lossless");
        let prom_back = export::from_prometheus(&export::to_prometheus(&snap)).unwrap();
        prop_assert_eq!(prom_back, snap.metrics_only(), "exposition must cover all metrics");
    }

    /// Bucket indexing is monotone in the observed value and every value
    /// falls under its bucket's upper bound (the histogram invariant the
    /// PBS quantiles rely on).
    #[test]
    fn bucket_index_is_monotone_and_bounding(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        let idx = bucket_index(lo);
        prop_assert!(idx < HIST_BUCKETS);
        if idx < HIST_BUCKETS - 1 {
            let le_ns = ((1u128 << idx) - 1) as u64;
            prop_assert!(lo <= le_ns, "value {lo} exceeds bucket bound {le_ns}");
        }
    }

    /// Event logs never exceed their capacity, never reorder, and account
    /// for every drop.
    #[test]
    fn event_log_is_bounded_and_ordered(n in 0usize..2000, cap in 16usize..256) {
        let log = EventLog::new(cap);
        for i in 0..n {
            log.record("e", format!("i={i}"));
        }
        let events = log.snapshot();
        prop_assert!(events.len() <= cap.max(64)); // 16 shards × min 4/shard floor
        prop_assert_eq!(events.len() as u64 + log.dropped(), n as u64);
        for w in events.windows(2) {
            prop_assert!(w[0].seq < w[1].seq, "sequence order preserved");
        }
    }
}

/// Event-ring eviction under contention: many writers overflowing a small
/// ring must keep the *global* sequencing monotone (and
/// collision-free) and must account for every single drop — what a
/// snapshot retains plus what it admits to dropping equals exactly what
/// was recorded, even while eviction races recording on every shard.
#[test]
fn event_ring_eviction_under_contention_is_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 2_000;
    // Far below the workload: 128 events total → 8 per shard, so eviction
    // runs continuously on every shard.
    let log = EventLog::new(128);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let events = log.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    events.record("hammer", format!("t={t} i={i}"));
                }
            });
        }
    });
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(log.recorded(), total, "every record counted");
    let snapshot = log.snapshot();
    assert!(!snapshot.is_empty(), "overflow must not evict everything");
    assert!(snapshot.len() <= 128, "capacity bound held under contention");
    assert_eq!(
        snapshot.len() as u64 + log.dropped(),
        total,
        "retained + dropped = recorded exactly"
    );
    // Global sequencing stays monotone and collision-free across shards.
    let seqs: Vec<u64> = snapshot.iter().map(|e| e.seq).collect();
    for w in seqs.windows(2) {
        assert!(w[0] < w[1], "seq strictly increasing: {} then {}", w[0], w[1]);
    }
    assert!(seqs.iter().all(|&s| s < total), "seq values within the issued range");
    // Eviction drops oldest-first per shard, so what survives skews recent:
    // every shard's retained run must be a suffix of what that thread wrote.
    let max_seq = *seqs.iter().max().unwrap();
    assert!(max_seq >= total - 128, "newest events survive eviction");
}

/// Audit-ring eviction under contention, mirroring the event-ring test
/// above: many manager-like writers overflowing a small ring must keep the
/// global sequencing monotone and collision-free, account for every drop,
/// and retain the newest history.
#[test]
fn audit_ring_eviction_under_contention_is_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 2_000;
    // 128 decisions total → 8 per thread-shard, so eviction runs
    // continuously on every shard.
    let log = AuditLog::new(128);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let log = log.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    log.record(BalanceDecision {
                        action: "split".into(),
                        shard: (t * PER_THREAD + i) as u64,
                        src: format!("worker-{t}"),
                        inputs: vec![("len".into(), i.to_string())],
                        result_shards: vec![i as u64, i as u64 + 1],
                        outcome: "ok".into(),
                        ..Default::default()
                    });
                }
            });
        }
    });
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(log.recorded(), total, "every decision counted");
    let snapshot = log.snapshot();
    assert!(!snapshot.is_empty(), "overflow must not evict everything");
    assert!(snapshot.len() <= 128, "capacity bound held under contention");
    assert_eq!(
        snapshot.len() as u64 + log.dropped(),
        total,
        "retained + dropped = recorded exactly"
    );
    let seqs: Vec<u64> = snapshot.iter().map(|d| d.seq).collect();
    for w in seqs.windows(2) {
        assert!(w[0] < w[1], "seq strictly increasing: {} then {}", w[0], w[1]);
    }
    assert!(seqs.iter().all(|&s| s < total), "seq values within the issued range");
    assert!(*seqs.iter().max().unwrap() >= total - 128, "newest decisions survive eviction");
    // Structured payloads survive the ring untouched.
    for d in &snapshot {
        assert_eq!(d.action, "split");
        assert_eq!(d.result_shards.len(), 2);
        assert_eq!(d.inputs.len(), 1);
        assert!(d.src.starts_with("worker-"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The half-life EWMA: the first observation seeds the estimate exactly,
    /// one silent half-life halves it, and the estimate always stays inside
    /// the [min, max] envelope of the instantaneous rates it was fed.
    #[test]
    fn rate_ewma_seeds_halves_and_stays_in_envelope(
        seed_events in 1u64..100_000,
        feeds in prop::collection::vec((0u64..100_000, 1u64..5_000), 1..32),
        hl_ms in 50u64..5_000,
    ) {
        let hl = Duration::from_millis(hl_ms);
        let mut e = RateEwma::default();

        // Seeding: the first observation becomes the rate verbatim.
        e.update(seed_events, Duration::from_millis(250), hl);
        let seeded = seed_events as f64 / 0.25;
        prop_assert_eq!(e.rate(), seeded);

        // Decay: one silent half-life halves the estimate exactly.
        let mut h = e;
        h.update(0, hl, hl);
        prop_assert!((h.rate() - seeded / 2.0).abs() <= seeded * 1e-9);

        // Envelope: however the feed sequence looks, the smoothed rate can
        // never leave the span of the instantaneous rates seen so far.
        let mut lo = seeded;
        let mut hi = seeded;
        for &(events, dt_ms) in &feeds {
            let dt = Duration::from_millis(dt_ms);
            e.update(events, dt, hl);
            let inst = events as f64 / dt.as_secs_f64();
            lo = lo.min(inst);
            hi = hi.max(inst);
            prop_assert!(
                e.rate() >= lo - 1e-9 && e.rate() <= hi + 1e-9,
                "rate {} left envelope [{}, {}]", e.rate(), lo, hi
            );
        }

        // Zero-dt feeds are ignored entirely.
        let before = e.rate();
        e.update(123, Duration::ZERO, hl);
        prop_assert_eq!(e.rate(), before);
    }

    /// HeatMap semantics under arbitrary publish/retire interleavings: the
    /// snapshot is exactly the last publish per shard id, ordered by id,
    /// minus shards whose current owner retired them. A retire by a stale
    /// owner is always a no-op.
    #[test]
    fn heat_map_is_last_writer_wins_with_owner_guarded_retire(
        ops in prop::collection::vec(
            (0u64..8, 0u8..4, any::<bool>(), 1u64..1_000_000),
            0..64,
        ),
    ) {
        let map = HeatMap::default();
        let mut model: std::collections::BTreeMap<u64, HeatEntry> = Default::default();
        for &(shard, worker, is_publish, items) in &ops {
            let worker_name = format!("w{worker}");
            if is_publish {
                let entry = HeatEntry {
                    shard,
                    worker: worker_name,
                    items,
                    inserts_total: items * 2,
                    queries_total: items / 2,
                    insert_rate: items as f64,
                    query_rate: items as f64 / 4.0,
                    volume_frac: 0.5,
                };
                map.publish(entry.clone());
                model.insert(shard, entry);
            } else {
                map.retire(shard, &worker_name);
                if model.get(&shard).is_some_and(|e| e.worker == worker_name) {
                    model.remove(&shard);
                }
            }
        }
        let snap = map.snapshot();
        let expect: Vec<HeatEntry> = model.into_values().collect();
        prop_assert_eq!(snap, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every text decoder turns damaged input — the golden documents with a
    /// few bytes overwritten, or cut short — into `Ok` or `Err`, never a
    /// panic. (Unbounded nesting, the one input that used to kill the
    /// process, has its own test in `json.rs`.)
    #[test]
    fn text_decoders_never_panic_on_mutated_or_truncated_text(
        edits in prop::collection::vec((any::<usize>(), 0u8..128), 1..4),
        cut in any::<usize>(),
    ) {
        type Decode = fn(&str) -> bool;
        let decoders: [(&str, Decode); 3] = [
            (include_str!("golden/snapshot.json"), |t| export::from_json(t).is_ok()),
            (include_str!("golden/snapshot.prom"), |t| export::from_prometheus(t).is_ok()),
            (include_str!("golden/traces.perfetto.json"), |t| export::traces_from_perfetto(t).is_ok()),
        ];
        for (golden, decode) in decoders {
            prop_assert!(decode(golden), "the undamaged document decodes");
            // The goldens are ASCII, so overwriting bytes with ASCII keeps
            // the text valid UTF-8.
            let mut bytes = golden.as_bytes().to_vec();
            for &(at, byte) in &edits {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
            let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            decode(&mutated);
            decode(&mutated[..cut % mutated.len()]);
            decode(&golden[..cut % golden.len()]);
        }
    }
}

/// A cloned histogram handle observes into the same series (handles are
/// cached at component startup and cloned across threads).
#[test]
fn cloned_handles_share_state() {
    let reg = Registry::new(true);
    let h1 = reg.histogram("volap_h_seconds");
    let h2 = reg.histogram("volap_h_seconds");
    let h3 = Arc::new(h1.clone());
    h1.observe_ns(10);
    h2.observe_ns(20);
    h3.observe_ns(30);
    assert_eq!(h1.count(), 3);
    assert_eq!(reg.counter("c").get(), reg.counter("c").get());
}
