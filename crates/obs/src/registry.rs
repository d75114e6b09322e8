//! The metrics registry: named counters, gauges, and fixed-bucket log2
//! latency histograms.
//!
//! Registration (name → handle) takes a `Mutex` once; the **record path
//! never locks**: counters and gauges are single atomics, histograms are a
//! fixed array of atomic buckets indexed by the bit length of the observed
//! nanosecond value. Handles are cheap `Arc` clones meant to be acquired at
//! component startup and stored, not looked up per operation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::snapshot::{ascending, Row};

/// Number of histogram buckets. Bucket `i < HIST_BUCKETS-1` holds values
/// whose bit length is `i` (i.e. `ns ≤ 2^i − 1`); the last bucket is the
/// overflow. 40 buckets cover 0 ns .. ~9 minutes, plenty for any latency
/// this system produces.
pub const HIST_BUCKETS: usize = 40;

/// Bucket index for a nanosecond observation: its bit length, clipped.
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Upper bound (inclusive, in seconds) of finite bucket `i`.
#[inline]
pub fn bucket_le_seconds(i: usize) -> f64 {
    (((1u64 << i) - 1) as f64) * 1e-9
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (tests, detached components).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistoCore {
    /// Shared with the owning registry: flipping it off turns every
    /// `observe` into a single relaxed load and a branch.
    enabled: Arc<AtomicBool>,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// A log2-bucketed latency histogram over nanosecond observations.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistoCore>);

impl Histogram {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        Self(Arc::new(HistoCore {
            enabled,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }))
    }

    /// A histogram not attached to any registry, always enabled.
    pub fn detached() -> Self {
        Self::new(Arc::new(AtomicBool::new(true)))
    }

    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        let core = &*self.0;
        if !core.enabled.load(Ordering::Relaxed) {
            return;
        }
        core.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one observation of a [`Duration`].
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Start a timer that records into this histogram when dropped.
    #[inline]
    pub fn start(&self) -> Timer {
        Timer { hist: self.clone(), start: Instant::now() }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.0.sum_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

/// A drop-recording timer from [`Histogram::start`]. Recording on drop keeps
/// every early-return path of a handler covered.
pub struct Timer {
    hist: Histogram,
    start: Instant,
}

impl Timer {
    /// Elapsed time so far (the timer keeps running).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed());
    }
}

crate::record! {
    /// A metric's identity: a name plus an optional single `key="value"` label
    /// pair (enough to distinguish per-server / per-worker instances without a
    /// full label-set model).
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub struct MetricId {
        /// Metric name (`[a-z0-9_]+` by convention, `volap_` prefixed).
        name: String,
        /// Optional `(key, value)` label.
        label: Option<(String, String)>,
    }
}

impl MetricId {
    /// An unlabeled id.
    pub fn plain(name: impl Into<String>) -> Self {
        Self { name: name.into(), label: None }
    }

    /// A labeled id.
    pub fn labeled(name: impl Into<String>, k: impl Into<String>, v: impl Into<String>) -> Self {
        Self { name: name.into(), label: Some((k.into(), v.into())) }
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

crate::record! {
    /// A snapshot of one counter or gauge.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ScalarSnapshot<T> {
        /// Metric identity.
        id: MetricId = flat,
        /// Value at snapshot time.
        value: T,
    }
}

crate::record! {
    /// A snapshot of one histogram: cumulative finite buckets plus totals.
    #[derive(Clone, Debug, PartialEq)]
    pub struct HistogramSnapshot {
        /// Metric identity.
        id: MetricId = flat,
        /// Total observation count (the implicit `+Inf` bucket).
        count: u64,
        /// Sum of observations in seconds.
        sum_seconds: f64,
        /// Cumulative counts for the finite buckets: `(le_seconds, count ≤ le)`.
        buckets: Vec<(f64, u64)>,
    }
}

impl<T> Row for ScalarSnapshot<T> {
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        ascending(prev.map(|p| &p.id), &self.id, "metric id")
    }
}

impl Row for HistogramSnapshot {
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        ascending(prev.map(|p| &p.id), &self.id, "metric id")?;
        let (mut last_le, mut last_n) = (f64::NEG_INFINITY, 0);
        for &(le, n) in &self.buckets {
            if le <= last_le || n < last_n {
                return Err(format!("{}: bucket ({le}, {n}) is not cumulative", self.id.name));
            }
            (last_le, last_n) = (le, n);
        }
        if last_n > self.count {
            return Err(format!("{}: buckets hold {last_n} of {} samples", self.id.name, self.count));
        }
        Ok(())
    }
}

impl HistogramSnapshot {
    /// Approximate quantile from the bucket upper bounds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        for &(le, c) in &self.buckets {
            if c >= target.max(1) {
                return le;
            }
        }
        f64::INFINITY
    }
}

struct RegistryInner {
    hist_enabled: Arc<AtomicBool>,
    slots: Mutex<BTreeMap<MetricId, Slot>>,
}

/// The registry: a name → handle map. Cheap to clone (shared).
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new(true)
    }
}

impl Registry {
    /// Create a registry; `histograms` arms or disarms every histogram it
    /// ever hands out ([`crate::ObsConfig::histograms`]).
    pub fn new(histograms: bool) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                hist_enabled: Arc::new(AtomicBool::new(histograms)),
                slots: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Arm or disarm every histogram handed out by this registry
    /// ([`crate::Obs::set_enabled`]).
    pub(crate) fn set_histograms_enabled(&self, on: bool) {
        self.inner.hist_enabled.store(on, Ordering::Relaxed);
    }

    fn slot_for(&self, id: MetricId, make: impl FnOnce(&Self) -> Slot) -> Slot {
        let mut slots = self.inner.slots.lock().unwrap();
        let slot = slots.entry(id).or_insert_with(|| make(self));
        match slot {
            Slot::Counter(c) => Slot::Counter(c.clone()),
            Slot::Gauge(g) => Slot::Gauge(g.clone()),
            Slot::Histogram(h) => Slot::Histogram(h.clone()),
        }
    }

    /// Get or register an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_id(MetricId::plain(name))
    }

    /// Get or register a labeled counter.
    pub fn counter_labeled(&self, name: &str, k: &str, v: &str) -> Counter {
        self.counter_id(MetricId::labeled(name, k, v))
    }

    /// Get or register a counter by full id.
    pub fn counter_id(&self, id: MetricId) -> Counter {
        match self.slot_for(id.clone(), |_| Slot::Counter(Counter::default())) {
            Slot::Counter(c) => c,
            _ => panic!("metric {id:?} already registered with a different kind"),
        }
    }

    /// Get or register an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_id(MetricId::plain(name))
    }

    /// Get or register a labeled gauge.
    pub fn gauge_labeled(&self, name: &str, k: &str, v: &str) -> Gauge {
        self.gauge_id(MetricId::labeled(name, k, v))
    }

    /// Get or register a gauge by full id.
    pub fn gauge_id(&self, id: MetricId) -> Gauge {
        match self.slot_for(id.clone(), |_| Slot::Gauge(Gauge::default())) {
            Slot::Gauge(g) => g,
            _ => panic!("metric {id:?} already registered with a different kind"),
        }
    }

    /// Get or register an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_id(MetricId::plain(name))
    }

    /// Get or register a histogram by full id.
    pub fn histogram_id(&self, id: MetricId) -> Histogram {
        let make =
            |reg: &Self| Slot::Histogram(Histogram::new(Arc::clone(&reg.inner.hist_enabled)));
        match self.slot_for(id.clone(), make) {
            Slot::Histogram(h) => h,
            _ => panic!("metric {id:?} already registered with a different kind"),
        }
    }

    /// Sum of all counters with the given name across labels.
    pub fn sum_counters(&self, name: &str) -> u64 {
        let slots = self.inner.slots.lock().unwrap();
        slots
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|(_, s)| match s {
                Slot::Counter(c) => c.get(),
                _ => 0,
            })
            .sum()
    }

    /// Snapshot every metric, sorted by id.
    pub fn snapshot(
        &self,
    ) -> (Vec<ScalarSnapshot<u64>>, Vec<ScalarSnapshot<i64>>, Vec<HistogramSnapshot>) {
        let slots = self.inner.slots.lock().unwrap();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histos = Vec::new();
        for (id, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    counters.push(ScalarSnapshot { id: id.clone(), value: c.get() })
                }
                Slot::Gauge(g) => gauges.push(ScalarSnapshot { id: id.clone(), value: g.get() }),
                Slot::Histogram(h) => {
                    let per_bucket = h.bucket_counts();
                    let mut cum = 0u64;
                    let mut buckets = Vec::with_capacity(HIST_BUCKETS - 1);
                    for (i, &c) in per_bucket.iter().enumerate().take(HIST_BUCKETS - 1) {
                        cum += c;
                        buckets.push((bucket_le_seconds(i), cum));
                    }
                    histos.push(HistogramSnapshot {
                        id: id.clone(),
                        count: h.count(),
                        sum_seconds: h.sum_seconds(),
                        buckets,
                    });
                }
            }
        }
        (counters, gauges, histos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let reg = Registry::new(true);
        let c = reg.counter("volap_test_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("volap_test_total").get(), 5, "handles share state");
        let g = reg.gauge_labeled("volap_depth", "worker", "w0");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        let a = reg.counter_labeled("volap_lbl_total", "server", "s0");
        let b = reg.counter_labeled("volap_lbl_total", "server", "s1");
        a.add(2);
        b.add(3);
        assert_eq!(reg.sum_counters("volap_lbl_total"), 5);
    }

    #[test]
    fn histogram_buckets_and_disable() {
        let reg = Registry::new(true);
        let h = reg.histogram("volap_lat_seconds");
        h.observe_ns(0);
        h.observe_ns(1);
        h.observe_ns(3);
        h.observe_ns(1 << 20);
        assert_eq!(h.count(), 4);
        let b = h.bucket_counts();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 1);
        assert_eq!(b[21], 1);
        reg.set_histograms_enabled(false);
        h.observe_ns(5);
        assert_eq!(h.count(), 4, "disabled histogram must not record");
        reg.set_histograms_enabled(true);
        {
            let _t = h.start();
        }
        assert_eq!(h.count(), 5, "timer drop records");
    }

    #[test]
    fn bucket_index_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index((1 << 39) - 1), 39);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Every value in finite bucket i satisfies ns <= 2^i - 1.
        for i in 0..HIST_BUCKETS - 1 {
            let le = bucket_le_seconds(i);
            assert!(le >= 0.0);
            if i > 0 {
                assert!(le > bucket_le_seconds(i - 1), "le strictly increasing");
            }
        }
    }

    #[test]
    fn snapshot_is_cumulative_and_sorted() {
        let reg = Registry::new(true);
        reg.counter("volap_b_total").inc();
        reg.counter("volap_a_total").inc();
        let h = reg.histogram("volap_h_seconds");
        h.observe_ns(1);
        h.observe_ns(100);
        let (counters, _, histos) = reg.snapshot();
        assert_eq!(counters[0].id.name, "volap_a_total");
        assert_eq!(counters[1].id.name, "volap_b_total");
        let hs = &histos[0];
        assert_eq!(hs.count, 2);
        let mut prev = 0;
        for &(_, c) in &hs.buckets {
            assert!(c >= prev, "cumulative buckets are monotone");
            prev = c;
        }
        assert_eq!(hs.buckets.last().unwrap().1, 2, "finite buckets cover both samples");
    }
}
