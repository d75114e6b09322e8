//! The metrics time-series ring: fixed-interval frames of registry deltas.
//!
//! Every other observability surface in this crate is a point-in-time view;
//! this module adds *time*. A dedicated sampler thread (owned by the
//! cluster) calls [`History::capture`] once per `history_interval`, which
//! walks the [`Registry`], the [`HeatMap`], the [`EventLog`] drop counters,
//! and the process-global lock classes, and folds them into one [`Frame`]:
//!
//! * counters → the **interval delta** (stored exactly; divide by the frame
//!   length for a rate). Deltas across the retained frames sum back to the
//!   live totals, which is what the exactness tests assert.
//! * histograms → the interval's observation-count delta plus interval
//!   p50/p99 computed from the log2 bucket deltas. Intervals with no
//!   observations carry the previous quantiles forward, so sparse series
//!   (staleness between sync rounds) don't flap health rules.
//! * gauges → sampled as-is.
//! * derived series → heat-rate spread/imbalance across shards, per-class
//!   lock `contention_frac`, the waited-seconds-per-second `lock_wait_frac`,
//!   and event-ring drop/record deltas.
//!
//! Frames live in a bounded ring of [`History::capacity`] entries. The
//! steady-state capture path performs **zero heap allocation**: series are
//! interned once (indices are append-only and stable), keys are rebuilt in
//! a reused buffer for lookup, scratch and frame value vectors are reused,
//! and evicting the oldest frame recycles its allocation. The runtime
//! switch ([`crate::Obs::set_enabled`]) reduces a disabled capture to one
//! relaxed load.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::account::Accounting;
use crate::events::EventLog;
use crate::heat::HeatMap;
use crate::json::{write_str, Field, Json};
use crate::lock;
use crate::registry::{
    bucket_le_seconds, MetricId, MetricView, Registry, ScalarSnapshot, HIST_BUCKETS,
};
use crate::snapshot::SectionData;

/// How a series' per-frame value is to be interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Interval delta of a monotonic counter (exact; divide by the frame
    /// length for a per-second rate).
    Rate,
    /// A value sampled at frame end (registry gauges and derived series
    /// like spreads and fractions).
    Gauge,
    /// Interval p50 computed from histogram bucket deltas (carried forward
    /// over empty intervals).
    P50,
    /// Interval p99, same semantics as [`SeriesKind::P50`].
    P99,
}

impl SeriesKind {
    /// Stable string form, used in series keys and the JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Rate => "rate",
            SeriesKind::Gauge => "gauge",
            SeriesKind::P50 => "p50",
            SeriesKind::P99 => "p99",
        }
    }

}

impl std::str::FromStr for SeriesKind {
    type Err = String;

    /// Parse the string form back (exporter parser).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "rate" => Ok(SeriesKind::Rate),
            "gauge" => Ok(SeriesKind::Gauge),
            "p50" => Ok(SeriesKind::P50),
            "p99" => Ok(SeriesKind::P99),
            other => Err(format!("unknown series kind {other:?}")),
        }
    }
}

/// Exported as its [`SeriesKind::as_str`] name.
impl Field for SeriesKind {
    fn write(&self, out: &mut String) {
        write_str(self.as_str(), out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        v.str()?.parse()
    }
}

crate::record! {
    /// One column of the history ring: a canonical key like
    /// `rate(volap_server_inserts_total{server=server-0})` or
    /// `gauge(heat_insert_rate_spread)` plus its value semantics. Health-rule
    /// selectors are these keys verbatim.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SeriesDef {
        /// Canonical key: `kind(name)` or `kind(name{label_key=label_value})`.
        key: String,
        /// Value semantics.
        kind: SeriesKind,
    }
}

/// Build the canonical series key into `buf` (cleared first).
fn write_key(buf: &mut String, kind: SeriesKind, name: &str, label: Option<(&str, &str)>) {
    buf.clear();
    match label {
        None => {
            let _ = write!(buf, "{}({name})", kind.as_str());
        }
        Some((k, v)) => {
            let _ = write!(buf, "{}({name}{{{k}={v}}})", kind.as_str());
        }
    }
}

/// The canonical key for a series, as an owned string (tests, rule
/// construction). The sampler itself never calls this on the hot path.
pub fn series_key(kind: SeriesKind, name: &str, label: Option<(&str, &str)>) -> String {
    let mut s = String::new();
    write_key(&mut s, kind, name, label);
    s
}

crate::record! {
    /// One sampled interval. `values[i]` belongs to `series[i]` of the owning
    /// snapshot; frames captured before a series first appeared are shorter
    /// than the series list (missing = "series did not exist yet").
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct Frame {
        /// Monotonic frame number (survives ring eviction, so gaps in a
        /// snapshot's `seq` range mean frames were dropped).
        seq: u64,
        /// Interval start, microseconds since the observability epoch.
        start_us: u64,
        /// Interval end (capture time), microseconds since the epoch.
        end_us: u64,
        /// Per-series values, indexed like `HistorySnapshot::series`.
        values: Vec<f64>,
    }
}

impl Frame {
    /// Interval length in seconds.
    pub fn dt_seconds(&self) -> f64 {
        (self.end_us.saturating_sub(self.start_us)) as f64 * 1e-6
    }
}

/// Sizing of the history ring. The default (240 frames × 250 ms) covers the
/// last minute.
#[derive(Clone, Debug)]
pub struct HistoryConfig {
    /// Sampling interval: the period of the cluster's sampler thread, which
    /// captures one frame and runs the health watchdog per tick (recorded
    /// in snapshots as metadata — frames carry their real bounds).
    /// `Duration::ZERO` disables the sampler thread.
    pub interval: Duration,
    /// Frames retained (oldest evicted first); `0` disables the ring and
    /// the sampler thread.
    pub capacity: usize,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        Self { interval: Duration::from_millis(250), capacity: 240 }
    }
}

/// Per-series sampler state, parallel to the interned series list.
#[derive(Clone, Copy, Default)]
struct SeriesState {
    /// Rate kind: previous cumulative total (counters, wait-ns sums).
    prev_total: u64,
    /// P50/P99 kinds: last computed quantile, carried forward over empty
    /// intervals.
    carry: f64,
}

/// Per-histogram sampler state: previous bucket array for delta quantiles.
struct HistTrack {
    rate_idx: usize,
    p50_idx: usize,
    p99_idx: usize,
    prev_count: u64,
    prev_buckets: [u64; HIST_BUCKETS],
}

#[derive(Default)]
struct State {
    series: Vec<SeriesDef>,
    sstate: Vec<SeriesState>,
    index: BTreeMap<String, usize>,
    hists: Vec<HistTrack>,
    hist_index: BTreeMap<String, usize>,
    ring: Vec<Frame>,
    /// Oldest frame's slot once the ring is full; 0 while filling.
    head: usize,
    len: usize,
    next_seq: u64,
    dropped: u64,
    last_end_us: u64,
    scratch: Vec<f64>,
    key_buf: String,
}

impl State {
    /// Get-or-create the series index for `kind(name{label})`. Allocates
    /// only on first sight of a series.
    fn intern(&mut self, kind: SeriesKind, name: &str, label: Option<(&str, &str)>) -> usize {
        let mut key_buf = std::mem::take(&mut self.key_buf);
        write_key(&mut key_buf, kind, name, label);
        let idx = match self.index.get(key_buf.as_str()) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.index.insert(key_buf.clone(), i);
                self.series.push(SeriesDef { key: key_buf.clone(), kind });
                self.sstate.push(SeriesState::default());
                i
            }
        };
        self.key_buf = key_buf;
        idx
    }

    /// Write a value into the scratch frame (non-finite values are
    /// recorded as 0 — frames must round-trip through JSON).
    fn set(&mut self, idx: usize, v: f64) {
        if idx >= self.scratch.len() {
            self.scratch.resize(idx + 1, 0.0);
        }
        self.scratch[idx] = if v.is_finite() { v } else { 0.0 };
    }

    /// Record a monotonic total as a [`SeriesKind::Rate`] series: the
    /// stored value is `scale * (total - prev_total)`.
    fn record_total(
        &mut self,
        name: &str,
        label: Option<(&str, &str)>,
        total: u64,
        scale: f64,
    ) -> f64 {
        let i = self.intern(SeriesKind::Rate, name, label);
        let delta = total.saturating_sub(self.sstate[i].prev_total);
        self.sstate[i].prev_total = total;
        let v = delta as f64 * scale;
        self.set(i, v);
        v
    }
}

/// Quantile of an interval's delta distribution, from per-bucket deltas.
/// Clipped to the last finite bucket bound so every stored value is finite.
fn delta_quantile(delta: &[u64; HIST_BUCKETS], total: u64, q: f64) -> f64 {
    debug_assert!(total > 0);
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut cum = 0u64;
    for (i, &d) in delta.iter().enumerate().take(HIST_BUCKETS - 1) {
        cum += d;
        if cum >= target {
            return bucket_le_seconds(i);
        }
    }
    bucket_le_seconds(HIST_BUCKETS - 2)
}

struct HistoryInner {
    enabled: AtomicBool,
    interval_us: u64,
    capacity: usize,
    epoch: Instant,
    state: Mutex<State>,
}

/// The bounded time-series ring. Cheap to clone (shared); one writer (the
/// sampler thread or a test driving [`History::capture`] directly), any
/// number of snapshot readers.
#[derive(Clone)]
pub struct History {
    inner: Arc<HistoryInner>,
}

impl History {
    /// Build a ring per `cfg`, with interval timestamps measured from
    /// `epoch` (the owning `Obs`'s construction instant, so frame times
    /// align with event timestamps and snapshot uptime).
    pub fn new(cfg: &HistoryConfig, epoch: Instant) -> Self {
        Self {
            inner: Arc::new(HistoryInner {
                enabled: AtomicBool::new(true),
                interval_us: cfg.interval.as_micros() as u64,
                capacity: cfg.capacity,
                epoch,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// Runtime kill switch ([`crate::Obs::set_enabled`]): a disabled
    /// [`History::capture`] is one relaxed load and a branch (the sampler
    /// thread keeps ticking).
    pub(crate) fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Frames retained at capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Capture one frame: walk the registry, heat map, event-ring counters,
    /// and lock classes, and append interval deltas/samples to the ring.
    /// When an accounting core is supplied its sketches take one EWMA
    /// decay step and the dominance fraction lands in the derived
    /// `gauge(accounting_dominance_frac)` series (so the window advances
    /// exactly once per captured frame). Returns `false` (and records
    /// nothing) when disabled, sized to zero, or when no time has passed
    /// since the previous frame.
    pub fn capture(
        &self,
        registry: &Registry,
        heat: &HeatMap,
        events: &EventLog,
        accounting: Option<&Accounting>,
    ) -> bool {
        if self.inner.capacity == 0 || !self.inner.enabled.load(Ordering::Relaxed) {
            return false;
        }
        let now_us = self.inner.epoch.elapsed().as_micros() as u64;
        let mut guard = self.inner.state.lock().unwrap();
        let st = &mut *guard;
        let start_us = st.last_end_us;
        if now_us <= start_us {
            return false;
        }
        let dt_s = (now_us - start_us) as f64 * 1e-6;

        st.scratch.clear();
        st.scratch.resize(st.series.len(), 0.0);

        // Registry: counters → deltas, gauges → samples, histograms →
        // count delta + interval quantiles from bucket deltas.
        registry.visit(|id, view| {
            let label = id.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()));
            match view {
                MetricView::Counter(total) => {
                    st.record_total(&id.name, label, total, 1.0);
                }
                MetricView::Gauge(v) => {
                    let i = st.intern(SeriesKind::Gauge, &id.name, label);
                    st.set(i, v as f64);
                }
                MetricView::Histogram(h) => {
                    // The rate-series key doubles as the histogram-track key.
                    let rate_idx = st.intern(SeriesKind::Rate, &id.name, label);
                    let ti = match st.hist_index.get(st.series[rate_idx].key.as_str()).copied() {
                        Some(t) => t,
                        None => {
                            let p50_idx = st.intern(SeriesKind::P50, &id.name, label);
                            let p99_idx = st.intern(SeriesKind::P99, &id.name, label);
                            let t = st.hists.len();
                            st.hist_index.insert(st.series[rate_idx].key.clone(), t);
                            st.hists.push(HistTrack {
                                rate_idx,
                                p50_idx,
                                p99_idx,
                                prev_count: 0,
                                prev_buckets: [0; HIST_BUCKETS],
                            });
                            t
                        }
                    };
                    let tr = &mut st.hists[ti];
                    let (rate_idx, p50_idx, p99_idx) = (tr.rate_idx, tr.p50_idx, tr.p99_idx);
                    let dcount = h.count.saturating_sub(tr.prev_count);
                    let mut delta = [0u64; HIST_BUCKETS];
                    let mut dtotal = 0u64;
                    for (d, (&cur, &prev)) in delta
                        .iter_mut()
                        .zip(h.buckets.iter().zip(tr.prev_buckets.iter()))
                    {
                        *d = cur.saturating_sub(prev);
                        dtotal += *d;
                    }
                    tr.prev_count = h.count;
                    tr.prev_buckets = h.buckets;
                    if dtotal > 0 {
                        st.sstate[p50_idx].carry = delta_quantile(&delta, dtotal, 0.50);
                        st.sstate[p99_idx].carry = delta_quantile(&delta, dtotal, 0.99);
                    }
                    let (v50, v99) = (st.sstate[p50_idx].carry, st.sstate[p99_idx].carry);
                    st.set(rate_idx, dcount as f64);
                    st.set(p50_idx, v50);
                    st.set(p99_idx, v99);
                }
            }
        });

        // Event ring: recorded/dropped totals as delta series.
        st.record_total("volap_events_recorded_total", None, events.recorded(), 1.0);
        st.record_total("volap_events_dropped_total", None, events.dropped(), 1.0);

        // Heat: spread (max − min EWMA rate across shards) and imbalance
        // (hottest shard over the mean) as derived gauges.
        let (mut n, mut ins_min, mut ins_max, mut ins_sum) = (0u64, f64::INFINITY, 0f64, 0f64);
        let (mut q_min, mut q_max) = (f64::INFINITY, 0f64);
        heat.visit(|e| {
            n += 1;
            ins_min = ins_min.min(e.insert_rate);
            ins_max = ins_max.max(e.insert_rate);
            ins_sum += e.insert_rate;
            q_min = q_min.min(e.query_rate);
            q_max = q_max.max(e.query_rate);
        });
        let ins_spread = if n >= 2 { ins_max - ins_min } else { 0.0 };
        let q_spread = if n >= 2 { q_max - q_min } else { 0.0 };
        let imbalance = if n > 0 && ins_sum > 0.0 { ins_max / (ins_sum / n as f64) } else { 1.0 };
        let i = st.intern(SeriesKind::Gauge, "heat_insert_rate_spread", None);
        st.set(i, ins_spread);
        let i = st.intern(SeriesKind::Gauge, "heat_query_rate_spread", None);
        st.set(i, q_spread);
        let i = st.intern(SeriesKind::Gauge, "heat_insert_imbalance", None);
        st.set(i, imbalance);

        // Lock classes: per-class acquisition/contention deltas, the
        // interval contention fraction, and the waited-seconds-per-second
        // fraction across all classes.
        let (mut max_frac, mut wait_delta_s) = (0f64, 0f64);
        lock::visit_classes(|name, acq, cont, wait_ns| {
            let label = Some(("class", name));
            let d_acq = st.record_total("volap_lock_acquisitions_total", label, acq, 1.0);
            let d_cont = st.record_total("volap_lock_contended_total", label, cont, 1.0);
            wait_delta_s += st.record_total("volap_lock_wait_seconds_total", label, wait_ns, 1e-9);
            let frac = if d_acq > 0.0 { d_cont / d_acq } else { 0.0 };
            max_frac = max_frac.max(frac);
            let i = st.intern(SeriesKind::Gauge, "lock_contention_frac", label);
            st.set(i, frac);
        });
        let i = st.intern(SeriesKind::Gauge, "lock_contention_frac_max", None);
        st.set(i, max_frac);
        let i = st.intern(SeriesKind::Gauge, "lock_wait_frac", None);
        st.set(i, wait_delta_s / dt_s);

        // Accounting: advance the heavy-hitter EWMA window one step and
        // record the hottest principal's share of the decayed scan weight.
        if let Some(acc) = accounting {
            let i = st.intern(SeriesKind::Gauge, "accounting_dominance_frac", None);
            let frac = acc.decay_tick();
            st.set(i, frac);
        }

        // Commit the frame, recycling the evicted slot's allocation.
        let slot = if st.len < self.inner.capacity {
            st.ring.push(Frame::default());
            st.len += 1;
            st.len - 1
        } else {
            let s = st.head;
            st.head = (st.head + 1) % self.inner.capacity;
            st.dropped += 1;
            s
        };
        let seq = st.next_seq;
        st.next_seq += 1;
        let State { ring, scratch, .. } = &mut *st;
        let frame = &mut ring[slot];
        frame.seq = seq;
        frame.start_us = start_us;
        frame.end_us = now_us;
        frame.values.clear();
        frame.values.extend_from_slice(scratch);
        st.last_end_us = now_us;
        true
    }

    /// Run `f` over the series table and the newest frame, without copying
    /// the ring (the watchdog's per-interval read). `None` until the first
    /// frame is captured.
    pub fn with_latest<R>(&self, f: impl FnOnce(&[SeriesDef], &Frame) -> R) -> Option<R> {
        let st = self.inner.state.lock().unwrap();
        if st.len == 0 {
            return None;
        }
        let newest = if st.len < self.inner.capacity {
            st.len - 1
        } else {
            (st.head + self.inner.capacity - 1) % self.inner.capacity
        };
        Some(f(&st.series, &st.ring[newest]))
    }

    /// Copy out the whole ring, frames oldest → newest.
    pub fn snapshot(&self) -> HistorySnapshot {
        let st = self.inner.state.lock().unwrap();
        let mut frames = Vec::with_capacity(st.len);
        for i in 0..st.len {
            let slot =
                if st.len < self.inner.capacity { i } else { (st.head + i) % self.inner.capacity };
            frames.push(st.ring[slot].clone());
        }
        HistorySnapshot {
            interval_us: self.inner.interval_us,
            capacity: self.inner.capacity as u64,
            dropped: st.dropped,
            series: st.series.clone(),
            frames,
        }
    }
}

crate::record! {
    /// A copied-out history ring: the series table plus frames oldest → newest.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct HistorySnapshot {
        /// Nominal sampling interval in microseconds (frames carry their real
        /// bounds; this is the sampler's configured period).
        interval_us: u64,
        /// Ring capacity in frames.
        capacity: u64,
        /// Frames evicted so far (ring overwrites oldest-first).
        dropped: u64,
        /// Series table; `frames[*].values[i]` belongs to `series[i]`.
        series: Vec<SeriesDef> = rows,
        /// Frames oldest → newest.
        frames: Vec<Frame> = rows,
    }
}

impl HistorySnapshot {
    /// Index of a series by canonical key.
    pub fn series_idx(&self, key: &str) -> Option<usize> {
        self.series.iter().position(|s| s.key == key)
    }

    /// The newest frame.
    pub fn latest(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// A frame's raw stored value for a series key (`None` if the series
    /// didn't exist yet when the frame was captured).
    pub fn value(&self, frame: &Frame, key: &str) -> Option<f64> {
        self.series_idx(key).and_then(|i| frame.values.get(i)).copied()
    }

    /// Sum of one series' deltas across every retained frame (exactness
    /// checks: with no frames dropped and a final capture after ingest
    /// stops, this equals the live counter total).
    pub fn delta_sum(&self, key: &str) -> f64 {
        match self.series_idx(key) {
            None => 0.0,
            Some(i) => {
                self.frames.iter().filter_map(|f| f.values.get(i)).sum()
            }
        }
    }

    /// Sum of `rate(name{..})` deltas across all label variants and frames.
    pub fn delta_sum_all_labels(&self, name: &str) -> f64 {
        let plain = format!("rate({name})");
        let labeled = format!("rate({name}{{");
        let mut total = 0.0;
        for (i, s) in self.series.iter().enumerate() {
            if s.kind == SeriesKind::Rate && (s.key == plain || s.key.starts_with(&labeled)) {
                total += self.frames.iter().filter_map(|f| f.values.get(i)).sum::<f64>();
            }
        }
        total
    }

    /// Per-second rate of `name`, summed across label variants, in one
    /// frame (the `--top` ingest/query columns).
    pub fn rate_sum(&self, frame: &Frame, name: &str) -> f64 {
        let dt = frame.dt_seconds();
        if dt <= 0.0 {
            return 0.0;
        }
        let plain = format!("rate({name})");
        let labeled = format!("rate({name}{{");
        let mut total = 0.0;
        for (i, s) in self.series.iter().enumerate() {
            if s.kind == SeriesKind::Rate && (s.key == plain || s.key.starts_with(&labeled)) {
                total += frame.values.get(i).copied().unwrap_or(0.0);
            }
        }
        total / dt
    }

}

impl SectionData for HistorySnapshot {
    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Ring totals: `volap_history_frames`, `volap_history_dropped_total`.
    fn fold(
        &self,
        counters: &mut Vec<ScalarSnapshot<u64>>,
        gauges: &mut Vec<ScalarSnapshot<i64>>,
    ) {
        gauges.push(ScalarSnapshot {
            id: MetricId::plain("volap_history_frames"),
            value: self.frames.len() as i64,
        });
        counters.push(ScalarSnapshot {
            id: MetricId::plain("volap_history_dropped_total"),
            value: self.dropped,
        });
    }

    /// Contiguous strictly-increasing seqs and interval bounds, value rows
    /// no wider than the series table, every value finite.
    fn validate(&self) -> Result<(), String> {
        let mut prev: Option<&Frame> = None;
        for f in &self.frames {
            if f.end_us < f.start_us {
                return Err(format!("frame {}: end {} before start {}", f.seq, f.end_us, f.start_us));
            }
            if f.values.len() > self.series.len() {
                return Err(format!(
                    "frame {}: {} values but only {} series",
                    f.seq,
                    f.values.len(),
                    self.series.len()
                ));
            }
            if let Some(v) = f.values.iter().find(|v| !v.is_finite()) {
                return Err(format!("frame {}: non-finite value {v}", f.seq));
            }
            if let Some(p) = prev {
                if f.seq != p.seq + 1 {
                    return Err(format!("frame seq jumps {} -> {}", p.seq, f.seq));
                }
                if f.start_us != p.end_us {
                    return Err(format!(
                        "frame {}: starts at {} but previous ended at {}",
                        f.seq, f.start_us, p.end_us
                    ));
                }
            }
            prev = Some(f);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn capture_env() -> (Registry, HeatMap, EventLog) {
        (Registry::new(true), HeatMap::default(), EventLog::new(64))
    }

    fn ring(capacity: usize) -> History {
        History::new(
            &HistoryConfig { interval: Duration::from_millis(1), capacity },
            Instant::now(),
        )
    }

    #[test]
    fn counter_deltas_sum_to_live_total() {
        let (reg, heat, ev) = capture_env();
        let h = ring(64);
        let c = reg.counter_labeled("volap_t_total", "server", "s0");
        for add in [3u64, 0, 41, 7] {
            c.add(add);
            std::thread::sleep(Duration::from_millis(2));
            assert!(h.capture(&reg, &heat, &ev, None));
        }
        let snap = h.snapshot();
        assert_eq!(snap.frames.len(), 4);
        assert_eq!(snap.dropped, 0);
        let key = series_key(SeriesKind::Rate, "volap_t_total", Some(("server", "s0")));
        assert_eq!(snap.delta_sum(&key), 51.0);
        assert_eq!(snap.delta_sum_all_labels("volap_t_total"), 51.0);
        snap.validate().expect("well-formed ring");
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seqs_contiguous() {
        let (reg, heat, ev) = capture_env();
        let h = ring(4);
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(1));
            assert!(h.capture(&reg, &heat, &ev, None));
        }
        let snap = h.snapshot();
        assert_eq!(snap.frames.len(), 4);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.frames.first().unwrap().seq, 6);
        assert_eq!(snap.frames.last().unwrap().seq, 9);
        snap.validate().expect("evicted ring still contiguous");
    }

    #[test]
    fn quantiles_carry_forward_over_empty_intervals() {
        let (reg, heat, ev) = capture_env();
        let h = ring(16);
        let hist = reg.histogram("volap_lat_seconds");
        hist.observe_ns(1000);
        hist.observe_ns(1000);
        std::thread::sleep(Duration::from_millis(2));
        assert!(h.capture(&reg, &heat, &ev, None));
        // Nothing observed this interval: p50/p99 must carry forward.
        std::thread::sleep(Duration::from_millis(2));
        assert!(h.capture(&reg, &heat, &ev, None));
        let snap = h.snapshot();
        let p99 = series_key(SeriesKind::P99, "volap_lat_seconds", None);
        let first = snap.value(&snap.frames[0], &p99).unwrap();
        let second = snap.value(&snap.frames[1], &p99).unwrap();
        assert!(first > 0.0, "p99 of a 1000ns sample is positive");
        assert_eq!(first, second, "empty interval carries the quantile forward");
        let rate = series_key(SeriesKind::Rate, "volap_lat_seconds", None);
        assert_eq!(snap.value(&snap.frames[0], &rate), Some(2.0));
        assert_eq!(snap.value(&snap.frames[1], &rate), Some(0.0));
    }

    #[test]
    fn kill_switch_and_zero_capacity_disable_capture() {
        let (reg, heat, ev) = capture_env();
        let h = ring(8);
        h.set_enabled(false);
        std::thread::sleep(Duration::from_millis(1));
        assert!(!h.capture(&reg, &heat, &ev, None));
        h.set_enabled(true);
        std::thread::sleep(Duration::from_millis(1));
        assert!(h.capture(&reg, &heat, &ev, None));
        let none = ring(0);
        std::thread::sleep(Duration::from_millis(1));
        assert!(!none.capture(&reg, &heat, &ev, None));
        assert_eq!(none.snapshot().frames.len(), 0);
    }

    #[test]
    fn validate_rejects_corruption() {
        let (reg, heat, ev) = capture_env();
        let h = ring(8);
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(1));
            h.capture(&reg, &heat, &ev, None);
        }
        let good = h.snapshot();
        good.validate().unwrap();
        let mut bad = good.clone();
        bad.frames[1].seq += 5;
        assert!(bad.validate().is_err(), "seq gap detected");
        let mut bad = good.clone();
        bad.frames[2].start_us += 1;
        assert!(bad.validate().is_err(), "non-contiguous intervals detected");
        let mut bad = good.clone();
        bad.frames[0].values.push(f64::NAN);
        assert!(bad.validate().is_err(), "non-finite value detected");
    }

    #[test]
    fn derived_series_present() {
        let (reg, heat, ev) = capture_env();
        heat.publish(crate::heat::HeatEntry {
            shard: 1,
            insert_rate: 10.0,
            ..Default::default()
        });
        heat.publish(crate::heat::HeatEntry {
            shard: 2,
            insert_rate: 30.0,
            ..Default::default()
        });
        ev.record("x", "y".into());
        let h = ring(8);
        std::thread::sleep(Duration::from_millis(1));
        assert!(h.capture(&reg, &heat, &ev, None));
        let snap = h.snapshot();
        let f = snap.latest().unwrap();
        assert_eq!(snap.value(f, "gauge(heat_insert_rate_spread)"), Some(20.0));
        assert_eq!(snap.value(f, "gauge(heat_insert_imbalance)"), Some(1.5));
        assert_eq!(snap.value(f, "rate(volap_events_recorded_total)"), Some(1.0));
        assert!(snap.value(f, "gauge(lock_contention_frac_max)").is_some());
    }
}
