//! The measured staleness probe (§IV-F, Figure 10 — but measured, not
//! simulated).
//!
//! `crates/core/src/freshness.rs` *models* the delay between a box-expanding
//! insert on one server and its visibility on another as a Monte-Carlo
//! process fed with assumed parameters. This probe measures the same
//! quantity empirically from a running cluster. The protocol mirrors the
//! real visibility chain:
//!
//! 1. **expansion** — a server routes an insert that grows a shard's box;
//!    the probe stamps the earliest unsynchronized expansion per shard
//!    (later expansions coalesce into the same pending window, exactly as
//!    the server's dirty map coalesces them into one push).
//! 2. **pushed** — the origin server's sync thread pushes the dirty box to
//!    the global image; the pending window becomes *published*. Only now
//!    can a remote reader observe the expansion.
//! 3. **applied** — another server applies a watch event for that shard
//!    (any image apply after the push reads the merged record and therefore
//!    sees the expansion). The first apply per remote server records
//!    `now − expansion_origin` as one staleness sample.
//!
//! Applies that land while a window is still pending (e.g. worker statistics
//! publishes) are ignored: the record they read predates the expansion.
//! Samples feed a histogram handle (for the exporters) plus a bounded raw
//! ring from which [`StalenessSnapshot::pbs_curve`] derives the empirical
//! PBS curve `P[visible ≤ t]`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::registry::Histogram;
use crate::snapshot::SectionData;

/// Raw samples retained for the PBS curve.
const SAMPLE_CAP: usize = 4096;

struct Published {
    origin: Instant,
    owner: String,
    observers: HashSet<String>,
}

#[derive(Default)]
struct KeyState {
    /// Earliest unsynchronized expansion: `(origin time, origin server)`.
    pending: Option<(Instant, String)>,
    published: Option<Published>,
}

struct ProbeInner {
    keys: HashMap<u64, KeyState>,
    samples: VecDeque<f64>,
    count: u64,
}

/// The probe. Cheap to clone (shared). All methods are off the per-item
/// hot path: they fire only on box expansions, sync pushes, and image
/// applies, so a mutex is fine here.
#[derive(Clone)]
pub struct StalenessProbe {
    inner: Arc<Mutex<ProbeInner>>,
    hist: Histogram,
}

impl StalenessProbe {
    /// A probe recording delay observations into `hist` as well.
    pub fn new(hist: Histogram) -> Self {
        Self {
            inner: Arc::new(Mutex::new(ProbeInner {
                keys: HashMap::new(),
                samples: VecDeque::new(),
                count: 0,
            })),
            hist,
        }
    }

    /// A box-expanding insert for `key` was routed on `owner`.
    pub fn expansion(&self, key: u64, owner: &str) {
        let mut inner = self.inner.lock().unwrap();
        let state = inner.keys.entry(key).or_default();
        if state.pending.is_none() {
            state.pending = Some((Instant::now(), owner.to_string()));
        }
    }

    /// `owner` pushed its dirty box for `key` to the global image.
    pub fn pushed(&self, key: u64, _owner: &str) {
        let mut inner = self.inner.lock().unwrap();
        let Some(state) = inner.keys.get_mut(&key) else { return };
        if let Some((origin, owner)) = state.pending.take() {
            state.published = Some(Published { origin, owner, observers: HashSet::new() });
        }
    }

    /// `server` applied an image update for `key`. Records one staleness
    /// sample per `(published window, remote server)` pair.
    pub fn applied(&self, key: u64, server: &str) {
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        let Some(state) = inner.keys.get_mut(&key) else { return };
        let Some(p) = state.published.as_mut() else { return };
        if p.owner == server || !p.observers.insert(server.to_string()) {
            return;
        }
        let delay = now.duration_since(p.origin).as_secs_f64();
        if inner.samples.len() >= SAMPLE_CAP {
            inner.samples.pop_front();
        }
        inner.samples.push_back(delay);
        inner.count += 1;
        self.hist.observe_ns((delay * 1e9).min(u64::MAX as f64) as u64);
    }

    /// Total staleness samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.lock().unwrap().count
    }

    /// Snapshot the retained samples.
    pub fn snapshot(&self) -> StalenessSnapshot {
        let inner = self.inner.lock().unwrap();
        StalenessSnapshot {
            count: inner.count,
            samples_seconds: inner.samples.iter().copied().collect(),
        }
    }
}

crate::record! {
    /// Measured staleness at snapshot time.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct StalenessSnapshot {
        /// Total samples ever recorded (samples beyond the ring are evicted).
        count: u64,
        /// Retained expansion-visibility delays, oldest first, in seconds.
        samples_seconds: Vec<f64>,
    }
}

impl SectionData for StalenessSnapshot {
    fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn validate(&self) -> Result<(), String> {
        if self.samples_seconds.len() as u64 > self.count {
            return Err(format!("{} samples retained of {}", self.samples_seconds.len(), self.count));
        }
        match self.samples_seconds.iter().find(|s| !s.is_finite() || **s < 0.0) {
            Some(s) => Err(format!("sample {s} is not a delay")),
            None => Ok(()),
        }
    }
}

impl StalenessSnapshot {
    /// The empirical PBS curve: `points` pairs `(t_seconds, P[visible ≤ t])`
    /// over the retained samples, t swept from 0 to the sample maximum.
    /// Empty when no samples were recorded.
    pub fn pbs_curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.samples_seconds.is_empty() || points == 0 {
            return Vec::new();
        }
        let mut sorted = self.samples_seconds.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let max = *sorted.last().unwrap();
        let n = sorted.len() as f64;
        (0..points)
            .map(|i| {
                let t = max * i as f64 / (points - 1).max(1) as f64;
                let visible = sorted.partition_point(|&s| s <= t) as f64;
                (t, visible / n)
            })
            .collect()
    }

    /// Quantile of the retained samples (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples_seconds.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples_seconds.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round()) as usize;
        sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_protocol_records_one_sample_per_remote_server() {
        let probe = StalenessProbe::new(Histogram::detached());
        probe.expansion(7, "server-0");
        probe.expansion(7, "server-0"); // coalesces into same window
        // Applies before the push must not count (record predates expansion).
        probe.applied(7, "server-1");
        assert_eq!(probe.count(), 0);
        probe.pushed(7, "server-0");
        probe.applied(7, "server-0"); // self-apply ignored
        probe.applied(7, "server-1");
        probe.applied(7, "server-1"); // repeat apply ignored
        probe.applied(7, "server-2");
        assert_eq!(probe.count(), 2);
        let snap = probe.snapshot();
        assert_eq!(snap.samples_seconds.len(), 2);
        assert!(snap.samples_seconds.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn pbs_curve_is_monotone_cdf() {
        let snap = StalenessSnapshot {
            count: 4,
            samples_seconds: vec![0.01, 0.02, 0.03, 0.5],
        };
        let curve = snap.pbs_curve(11);
        assert_eq!(curve.len(), 11);
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
        assert!((snap.quantile(0.5) - 0.02).abs() < 1e-12 || (snap.quantile(0.5) - 0.03).abs() < 1e-12);
    }
}
