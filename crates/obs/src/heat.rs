//! Per-shard heat tracking: exponentially-weighted moving averages of
//! insert/query rates plus the shard's normalized box volume.
//!
//! Workers own the raw per-shard activity counters (two relaxed atomics
//! bumped on the hot path, gated behind [`HeatMap::enabled`] so a disabled
//! map costs one load and a branch). The worker's periodic stats publisher
//! folds counter deltas into [`RateEwma`]s and publishes one [`HeatEntry`]
//! per live shard into the shared [`HeatMap`]; the manager and `volap-stat
//! --heat` read the merged view to explain *where* load concentrates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::snapshot::{ascending, Row};

crate::record! {
    /// One shard's published heat.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct HeatEntry {
        /// Shard id.
        shard: u64,
        /// Owning worker name.
        worker: String,
        /// Items stored at publish time.
        items: u64,
        /// Total inserts absorbed since the shard appeared on this worker.
        inserts_total: u64,
        /// Total queries that scanned this shard since it appeared here.
        queries_total: u64,
        /// EWMA insert rate, items/second.
        insert_rate: f64,
        /// EWMA query rate, scans/second.
        query_rate: f64,
        /// Normalized volume of the shard's bounding box in `[0, 1]`.
        volume_frac: f64,
    }
}

impl Row for HeatEntry {
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        ascending(prev.map(|p| p.shard), self.shard, "shard")?;
        let rates_ok = [self.insert_rate, self.query_rate].iter().all(|r| r.is_finite() && *r >= 0.0);
        if !rates_ok || !(0.0..=1.0).contains(&self.volume_frac) {
            return Err(format!("shard {}: rate or box volume out of range", self.shard));
        }
        Ok(())
    }
}

/// A half-life EWMA over a rate: after one silent half-life the estimate
/// decays to exactly half. Fed with `(events, elapsed)` deltas, so callers
/// only keep monotonic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RateEwma {
    rate: f64,
    primed: bool,
}

impl RateEwma {
    /// Fold `events` observed over `dt` into the estimate, with decay
    /// parameterized by `halflife`. The first observation seeds the rate
    /// directly (no warm-up bias toward zero).
    pub fn update(&mut self, events: u64, dt: Duration, halflife: Duration) {
        let dt_s = dt.as_secs_f64();
        if dt_s <= 0.0 {
            return;
        }
        let value = events as f64 / dt_s;
        if !self.primed {
            self.rate = value;
            self.primed = true;
            return;
        }
        let hl = halflife.as_secs_f64().max(f64::MIN_POSITIVE);
        // alpha = 1 - 2^(-dt/hl): one half-life of silence halves the rate.
        let alpha = 1.0 - (-dt_s / hl * std::f64::consts::LN_2).exp();
        self.rate += alpha * (value - self.rate);
    }

    /// The current estimate, events/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

struct HeatMapInner {
    enabled: AtomicBool,
    entries: Mutex<BTreeMap<u64, HeatEntry>>,
}

/// The cluster-wide shard heat view. Cheap to clone (shared); publish and
/// retire come from worker stats threads, snapshots from readers.
#[derive(Clone)]
pub struct HeatMap {
    inner: Arc<HeatMapInner>,
}

impl Default for HeatMap {
    /// An empty heat map, tracking enabled.
    fn default() -> Self {
        Self {
            inner: Arc::new(HeatMapInner {
                enabled: AtomicBool::new(true),
                entries: Mutex::new(BTreeMap::new()),
            }),
        }
    }
}

impl HeatMap {
    /// Whether hot-path activity counting should happen at all. This is the
    /// single branch the non-introspected path pays.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Toggle heat tracking at runtime ([`crate::Obs::set_enabled`]).
    pub(crate) fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Publish (insert or replace) one shard's heat.
    pub fn publish(&self, entry: HeatEntry) {
        self.inner.entries.lock().unwrap().insert(entry.shard, entry);
    }

    /// Remove a shard's entry, but only if `worker` still owns it — after a
    /// migration the destination's publish must not be erased by the
    /// source's retire racing in late.
    pub fn retire(&self, shard: u64, worker: &str) {
        let mut entries = self.inner.entries.lock().unwrap();
        if entries.get(&shard).is_some_and(|e| e.worker == worker) {
            entries.remove(&shard);
        }
    }

    /// All entries, ordered by shard id.
    pub fn snapshot(&self) -> Vec<HeatEntry> {
        self.inner.entries.lock().unwrap().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_seeds_then_halves_per_silent_halflife() {
        let hl = Duration::from_secs(2);
        let mut e = RateEwma::default();
        e.update(100, Duration::from_secs(1), hl); // seeds at 100/s
        assert_eq!(e.rate(), 100.0);
        e.update(0, hl, hl); // one silent half-life
        assert!((e.rate() - 50.0).abs() < 1e-9, "got {}", e.rate());
        e.update(0, hl, hl);
        assert!((e.rate() - 25.0).abs() < 1e-9, "got {}", e.rate());
    }

    #[test]
    fn ewma_converges_toward_steady_rate() {
        let hl = Duration::from_millis(500);
        let mut e = RateEwma::default();
        for _ in 0..64 {
            e.update(50, Duration::from_millis(100), hl); // 500/s steady
        }
        assert!((e.rate() - 500.0).abs() < 1.0, "got {}", e.rate());
    }

    #[test]
    fn zero_dt_is_ignored() {
        let mut e = RateEwma::default();
        e.update(10, Duration::ZERO, Duration::from_secs(1));
        assert_eq!(e.rate(), 0.0);
    }

    #[test]
    fn publish_retire_and_ownership_guard() {
        let map = HeatMap::default();
        map.publish(HeatEntry { shard: 3, worker: "w0".into(), ..Default::default() });
        map.publish(HeatEntry { shard: 1, worker: "w1".into(), ..Default::default() });
        assert_eq!(map.snapshot().iter().map(|e| e.shard).collect::<Vec<_>>(), vec![1, 3]);
        // Migration: w1 now owns shard 3; w0's late retire must be a no-op.
        map.publish(HeatEntry { shard: 3, worker: "w1".into(), ..Default::default() });
        map.retire(3, "w0");
        assert_eq!(map.snapshot().len(), 2);
        map.retire(3, "w1");
        assert_eq!(map.snapshot().iter().map(|e| e.shard).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn disabled_flag_round_trips() {
        let map = HeatMap::default();
        assert!(map.enabled());
        map.set_enabled(false);
        assert!(!map.enabled());
    }
}
