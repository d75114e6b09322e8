//! Property-based tests for per-principal accounting: the space-saving
//! sketch's error bound on arbitrary streams, and exporter round trips with
//! a populated accounting section.

use proptest::prelude::*;
use volap_obs::{export, Accounting, CostVec, Obs, Snapshot, SpaceSaving, COST_DIMS, COST_DIM_NAMES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Metwally guarantee on any stream: every tracked
    /// principal's estimate never undercounts, overcounts by at most its
    /// recorded `err`, and `err ≤ N/k` where `N` is the total offered
    /// weight. Any principal whose true weight exceeds `N/k` is tracked.
    #[test]
    fn sketch_error_is_bounded_by_n_over_k(
        k in 1usize..12,
        stream in prop::collection::vec((0u32..20, 1u64..1_000), 1..300),
    ) {
        let mut sketch = SpaceSaving::new(k);
        let mut truth = std::collections::HashMap::<u32, u64>::new();
        for &(p, w) in &stream {
            sketch.offer(p, w);
            *truth.entry(p).or_default() += w;
        }
        let n: u64 = stream.iter().map(|&(_, w)| w).sum();
        prop_assert_eq!(sketch.offered(), n as f64, "offered total drifted");
        let bound = n as f64 / k.max(1) as f64;
        let entries = sketch.entries();
        prop_assert!(entries.len() <= k, "sketch exceeded its capacity");
        for &(p, count, err) in &entries {
            let true_w = truth[&p] as f64;
            prop_assert!(count >= true_w, "estimate undercounts {p}: {count} < {true_w}");
            prop_assert!(
                count - true_w <= err + 1e-9,
                "overestimate beyond recorded err for {p}: {count} - {true_w} > {err}"
            );
            prop_assert!(err <= bound + 1e-9, "err {err} exceeds N/k = {bound}");
        }
        // Completeness: a principal heavier than N/k cannot be evicted.
        for (&p, &w) in &truth {
            if w as f64 > bound {
                prop_assert!(
                    entries.iter().any(|&(q, _, _)| q == p),
                    "heavy principal {p} (weight {w} > {bound}) missing from the sketch"
                );
            }
        }
    }

    /// Snapshots with a populated accounting section survive the JSON
    /// exporter losslessly and the Prometheus exporter up to its defined
    /// scope (metrics + accounting counter fold).
    #[test]
    fn exporters_round_trip_populated_accounting(
        topk in 1usize..10,
        charges in prop::collection::vec(
            ("[a-z]{1,8}", prop::collection::vec(any::<u32>(), COST_DIMS)),
            1..20,
        ),
    ) {
        let acc = Accounting::new(topk);
        for (name, dims) in &charges {
            let p = acc.intern(name);
            let mut a = [0u64; COST_DIMS];
            for (slot, &v) in a.iter_mut().zip(dims.iter()) {
                *slot = u64::from(v);
            }
            acc.charge(p, &CostVec::from_array(a));
        }
        let snap = Snapshot { accounting: acc.snapshot(), ..Obs::default().snapshot() };
        prop_assert!(!snap.accounting.principals.is_empty());
        prop_assert_eq!(snap.accounting.top.len(), COST_DIM_NAMES.len());
        let json_back = export::from_json(&export::to_json(&snap)).unwrap();
        prop_assert_eq!(&json_back, &snap, "JSON must round-trip accounting losslessly");
        let prom_back = export::from_prometheus(&export::to_prometheus(&snap)).unwrap();
        prop_assert_eq!(
            prom_back,
            snap.metrics_only(),
            "exposition must cover the accounting counter fold"
        );
    }
}
