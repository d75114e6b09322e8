//! Causal tracing: propagated trace context, a sharded span collector, and
//! a slow-query flight recorder.
//!
//! Aggregate metrics (the [`crate::registry`]) answer "how fast is the
//! system"; this module answers "*why was this one request slow*". A
//! [`TraceCtx`] is minted at the request's entry point (head-based
//! sampling: the decision is made once and inherited by everything
//! downstream) and rides inside every network envelope the request causes,
//! so causality survives server→worker hops, scatter/gather fan-outs, and
//! insertion-queue detours during shard migration. Each component wraps its
//! stage in a named span ([`Tracer::span`]), optionally annotated with
//! `key:value` details (shard id, items scanned, batch size); completed
//! spans land in a bounded [`Ring`] (the event log's per-thread-sharded
//! ring, so recording never contends in steady state).
//!
//! When the *root* span finishes, the trace is assembled into a tree and,
//! if it exceeded the slow threshold, pushed into the **flight recorder** —
//! a bounded ring of the most recent slow traces, retrievable after the
//! fact (`Cluster::slow_traces()` upstream) without having had any
//! per-request logging enabled.
//!
//! The unsampled hot path is one relaxed load and one branch
//! ([`Tracer::sample_root`] with sampling off); everything below only runs
//! for sampled requests.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::ring::Ring;

std::thread_local! {
    /// `(trace_id, span_id)` of the innermost [`SpanGuard`] open on this
    /// thread — backtrace-lite context for lock-order violations. `(0, 0)`
    /// when no span is open.
    static CURRENT_SPAN: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// The innermost traced span open on the calling thread, as
/// `(trace_id, span_id)`; `None` when the thread is not inside a sampled
/// span. Used by the lock-order checker to tie a violation to the request
/// that triggered it.
pub fn current_span() -> Option<(u64, u64)> {
    let cur = CURRENT_SPAN.with(|c| c.get());
    if cur == (0, 0) {
        None
    } else {
        Some(cur)
    }
}

/// The propagated trace context: one context names one span. Children are
/// derived with [`Tracer::child`], which allocates a fresh span id and
/// records the parent edge — the paper-standard Dapper model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace this request belongs to (all spans share it).
    pub trace_id: u64,
    /// This context's own span.
    pub span_id: u64,
    /// The span that caused this one (0 at the root).
    pub parent_span_id: u64,
    /// Head-based sampling decision, inherited by every child. Unsampled
    /// contexts are never created by [`Tracer::sample_root`]; the flag
    /// exists so embedders can thread a "definitely off" context.
    pub sampled: bool,
}

/// One completed (named, timed, annotated) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace_id: u64,
    /// This span's id (unique within the tracer).
    pub span_id: u64,
    /// Causal parent (0 for the root).
    pub parent_span_id: u64,
    /// Stage name, e.g. `"server_route"`, `"net_hop"`, `"tree_exec"`.
    pub name: String,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// End, microseconds since the tracer's epoch.
    pub end_us: u64,
    /// Free-form `key:value` annotations (shard id, items scanned, …).
    pub annotations: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Look up one annotation by key.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// An assembled trace: every collected span of one `trace_id`, in canonical
/// `(start_us, span_id)` order (the root first when spans nest properly).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The trace id.
    pub trace_id: u64,
    /// Spans in canonical order.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// The canonical span order's sort key.
    fn order(s: &SpanRecord) -> (u64, u64) {
        (s.start_us, s.span_id)
    }

    /// The root span: the span whose parent is 0 (or whose parent was never
    /// collected), earliest-starting if several qualify.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .find(|s| {
                s.parent_span_id == 0
                    || !self.spans.iter().any(|p| p.span_id == s.parent_span_id)
            })
            .or(self.spans.first())
    }

    /// Direct children of `span_id`, in canonical order.
    pub fn children_of(&self, span_id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent_span_id == span_id).collect()
    }

    /// Render an indented span tree (one line per span) for terminals.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let Some(root) = self.root() else { return out };
        out.push_str(&format!("trace {} ({} us, {} spans)\n", self.trace_id, root.duration_us(), self.spans.len()));
        self.render_span(&mut out, root, 1);
        out
    }

    fn render_span(&self, out: &mut String, span: &SpanRecord, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&span.name);
        for (k, v) in &span.annotations {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push_str(&format!(" ({} us)\n", span.duration_us()));
        for child in self.children_of(span.span_id) {
            self.render_span(out, child, depth + 1);
        }
    }
}

/// Sizing and switches for one [`Tracer`].
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Head-based sampling rate: sample one root in every `sample` requests
    /// (`0` = tracing off, `1` = every request). With `0` the entire record
    /// path is one relaxed load + branch.
    pub sample: u32,
    /// Root spans at least this long enter the flight recorder.
    pub slow_threshold: Duration,
    /// Completed spans retained across the collector shards.
    pub span_capacity: usize,
    /// Slow traces retained by the flight recorder.
    pub slow_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample: 0,
            slow_threshold: Duration::from_millis(100),
            span_capacity: 8192,
            slow_capacity: 32,
        }
    }
}

struct TracerInner {
    epoch: Instant,
    /// The configured [`TraceConfig::sample`], restored when tracing resumes.
    configured_sample: u32,
    /// The live rate: `configured_sample`, or `0` while paused. `0` disables
    /// sampling entirely (the common production-off state).
    sample_every: AtomicU32,
    roots_seen: AtomicU64,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    slow_threshold_ns: AtomicU64,
    /// Completed spans.
    spans: Ring<SpanRecord>,
    /// The flight recorder: most recent slow traces, oldest evicted.
    slow: Mutex<VecDeque<Trace>>,
    slow_cap: usize,
}

/// The tracing engine. Cheap to clone; clones share all state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(TraceConfig::default())
    }
}

impl Tracer {
    /// Build a tracer.
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                configured_sample: cfg.sample,
                sample_every: AtomicU32::new(cfg.sample),
                roots_seen: AtomicU64::new(0),
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                slow_threshold_ns: AtomicU64::new(
                    cfg.slow_threshold.as_nanos().min(u128::from(u64::MAX)) as u64,
                ),
                spans: Ring::new(cfg.span_capacity),
                slow: Mutex::new(VecDeque::new()),
                slow_cap: cfg.slow_capacity.max(1),
            }),
        }
    }

    /// Pause sampling, or resume it at the configured rate
    /// ([`crate::Obs::set_enabled`]).
    pub(crate) fn set_enabled(&self, on: bool) {
        let rate = if on { self.inner.configured_sample } else { 0 };
        self.inner.sample_every.store(rate, Ordering::Relaxed);
    }

    /// Change the slow-trace threshold at runtime.
    pub fn set_slow_threshold(&self, d: Duration) {
        self.inner
            .slow_threshold_ns
            .store(d.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
    }

    /// Microseconds since this tracer's epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// Head-based sampling decision for a new request. **This is the hot
    /// path**: with sampling off it is one relaxed load and one branch.
    #[inline]
    pub fn sample_root(&self) -> Option<TraceCtx> {
        let every = self.inner.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        let tick = self.inner.roots_seen.fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(u64::from(every)) {
            return None;
        }
        Some(TraceCtx {
            trace_id: self.inner.next_trace.fetch_add(1, Ordering::Relaxed),
            span_id: self.inner.next_span.fetch_add(1, Ordering::Relaxed),
            parent_span_id: 0,
            sampled: true,
        })
    }

    /// Derive a child context (fresh span id, parent edge to `ctx`).
    #[inline]
    pub fn child(&self, ctx: &TraceCtx) -> TraceCtx {
        TraceCtx {
            trace_id: ctx.trace_id,
            span_id: self.inner.next_span.fetch_add(1, Ordering::Relaxed),
            parent_span_id: ctx.span_id,
            sampled: ctx.sampled,
        }
    }

    /// Open the span named by `ctx` (one context = one span). Records on
    /// drop; annotate along the way.
    pub fn span(&self, ctx: &TraceCtx, name: &'static str) -> SpanGuard {
        let prev_span = CURRENT_SPAN.with(|c| c.replace((ctx.trace_id, ctx.span_id)));
        SpanGuard {
            tracer: self.clone(),
            ctx: *ctx,
            name,
            start: Instant::now(),
            start_us: self.now_us(),
            annotations: Vec::new(),
            armed: true,
            prev_span,
        }
    }

    /// Record a span whose interval was measured externally (e.g. the time
    /// an envelope spent in a receive queue). Allocates its own span id as
    /// a child of `parent`.
    pub fn record_manual(
        &self,
        parent: &TraceCtx,
        name: &str,
        start_us: u64,
        end_us: u64,
        annotations: Vec<(String, String)>,
    ) {
        self.record(SpanRecord {
            trace_id: parent.trace_id,
            span_id: self.inner.next_span.fetch_add(1, Ordering::Relaxed),
            parent_span_id: parent.span_id,
            name: name.to_string(),
            start_us,
            end_us,
            annotations,
        });
    }

    fn record(&self, span: SpanRecord) {
        self.inner.spans.push(|_| span);
    }

    /// Spans evicted by collector overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.spans.dropped()
    }

    /// Snapshot every retained span, in canonical order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.collect(|_| true, Trace::order)
    }

    /// Assemble every retained span of one trace. `None` when the collector
    /// holds nothing for it (never sampled, or fully evicted).
    pub fn assemble(&self, trace_id: u64) -> Option<Trace> {
        let spans = self.inner.spans.collect(|s| s.trace_id == trace_id, Trace::order);
        (!spans.is_empty()).then_some(Trace { trace_id, spans })
    }

    /// Called by the component that owns the root span once it has finished:
    /// if the root took at least the slow threshold, the assembled trace
    /// enters the flight recorder.
    pub fn complete_root(&self, ctx: &TraceCtx, root_duration: Duration) {
        let threshold = self.inner.slow_threshold_ns.load(Ordering::Relaxed);
        let dur = root_duration.as_nanos().min(u128::from(u64::MAX)) as u64;
        if dur < threshold {
            return;
        }
        if let Some(trace) = self.assemble(ctx.trace_id) {
            let mut slow = self.inner.slow.lock().unwrap();
            if slow.len() >= self.inner.slow_cap {
                slow.pop_front();
            }
            slow.push_back(trace);
        }
    }

    /// The flight recorder's contents, oldest first.
    pub fn slow_traces(&self) -> Vec<Trace> {
        self.inner.slow.lock().unwrap().iter().cloned().collect()
    }
}

/// A drop-recording span from [`Tracer::span`]: covers every early-return
/// path of a handler; call [`SpanGuard::finish`] to record eagerly and get
/// the duration (the root span needs it for the slow-trace decision).
pub struct SpanGuard {
    tracer: Tracer,
    ctx: TraceCtx,
    name: &'static str,
    start: Instant,
    start_us: u64,
    annotations: Vec<(String, String)>,
    armed: bool,
    /// The thread's previous [`current_span`], restored when this records.
    prev_span: (u64, u64),
}

impl SpanGuard {
    /// Attach one `key:value` annotation.
    pub fn annotate(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.annotations.push((key.into(), value.into()));
    }

    /// The context this span records under.
    pub fn ctx(&self) -> &TraceCtx {
        &self.ctx
    }

    /// Record now and return the measured duration.
    pub fn finish(mut self) -> Duration {
        let dur = self.start.elapsed();
        self.record_now();
        dur
    }

    fn record_now(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        CURRENT_SPAN.with(|c| c.set(self.prev_span));
        self.tracer.record(SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.ctx.parent_span_id,
            name: self.name.to_string(),
            start_us: self.start_us,
            end_us: self.tracer.now_us(),
            annotations: std::mem::take(&mut self.annotations),
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn always_on() -> Tracer {
        Tracer::new(TraceConfig {
            sample: 1,
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        })
    }

    #[test]
    fn sampling_off_yields_no_contexts() {
        let t = Tracer::new(TraceConfig::default());
        for _ in 0..100 {
            assert!(t.sample_root().is_none());
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn one_in_n_sampling_rate() {
        let t = Tracer::new(TraceConfig { sample: 4, ..TraceConfig::default() });
        let sampled = (0..400).filter(|_| t.sample_root().is_some()).count();
        assert_eq!(sampled, 100);
        t.set_enabled(false);
        assert!((0..400).all(|_| t.sample_root().is_none()), "paused: nothing sampled");
        t.set_enabled(true);
        let sampled = (0..400).filter(|_| t.sample_root().is_some()).count();
        assert_eq!(sampled, 100, "resumed at the configured rate");
    }

    #[test]
    fn spans_assemble_into_a_tree() {
        let t = always_on();
        let root = t.sample_root().unwrap();
        {
            let mut g = t.span(&root, "server_route");
            g.annotate("server", "s0");
            let hop = t.child(&root);
            {
                let mut h = t.span(&hop, "net_hop");
                h.annotate("dest", "w0");
                t.record_manual(&hop, "worker_queue", 1, 2, vec![("worker".into(), "w0".into())]);
            }
        }
        let trace = t.assemble(root.trace_id).expect("trace assembled");
        assert_eq!(trace.spans.len(), 3);
        let r = trace.root().unwrap();
        assert_eq!(r.name, "server_route");
        assert_eq!(r.parent_span_id, 0);
        assert_eq!(r.annotation("server"), Some("s0"));
        let hops = trace.children_of(r.span_id);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].name, "net_hop");
        let leaves = trace.children_of(hops[0].span_id);
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].name, "worker_queue");
        assert!(trace.render_tree().contains("net_hop dest=w0"));
    }

    #[test]
    fn flight_recorder_keeps_slow_traces_bounded() {
        let t = Tracer::new(TraceConfig {
            sample: 1,
            slow_threshold: Duration::ZERO,
            slow_capacity: 2,
            ..TraceConfig::default()
        });
        let mut ids = Vec::new();
        for _ in 0..4 {
            let root = t.sample_root().unwrap();
            let g = t.span(&root, "op");
            let d = g.finish();
            t.complete_root(&root, d);
            ids.push(root.trace_id);
        }
        let slow = t.slow_traces();
        assert_eq!(slow.len(), 2, "ring bounded");
        assert_eq!(slow[0].trace_id, ids[2], "oldest evicted");
        assert_eq!(slow[1].trace_id, ids[3]);
    }

    #[test]
    fn slow_threshold_filters_fast_roots() {
        let t = Tracer::new(TraceConfig {
            sample: 1,
            slow_threshold: Duration::from_secs(1),
            ..TraceConfig::default()
        });
        let root = t.sample_root().unwrap();
        let d = t.span(&root, "op").finish();
        t.complete_root(&root, d);
        assert!(t.slow_traces().is_empty(), "fast trace must not enter the recorder");
        t.set_slow_threshold(Duration::ZERO);
        let root2 = t.sample_root().unwrap();
        let d2 = t.span(&root2, "op").finish();
        t.complete_root(&root2, d2);
        assert_eq!(t.slow_traces().len(), 1);
    }

    #[test]
    fn collector_overflow_drops_oldest_and_counts() {
        let t = Tracer::new(TraceConfig {
            sample: 1,
            span_capacity: 64, // 4 per shard
            ..TraceConfig::default()
        });
        let root = t.sample_root().unwrap();
        for _ in 0..100 {
            t.record_manual(&root, "tick", 0, 1, Vec::new());
        }
        let spans = t.spans();
        assert!(spans.len() <= 64);
        assert_eq!(spans.len() as u64 + t.dropped(), 100);
    }
}
