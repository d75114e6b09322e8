//! # volap-obs — the cluster observability core
//!
//! A zero-dependency, lock-free-on-the-record-path observability layer for
//! the VOLAP reproduction. The paper's evaluation (Figures 6–10) hinges on
//! per-stage insert/query latency and on the staleness of server images;
//! this crate makes both measurable from a *running* cluster instead of an
//! offline model:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, and fixed-bucket log2
//!   latency [`Histogram`]s. Registration takes a mutex once; recording is
//!   pure relaxed atomics. A registry-wide switch ([`ObsConfig::histograms`])
//!   turns every histogram into a single load-and-branch.
//! * [`EventLog`] — a bounded ring-buffer log of structured events (shard
//!   splits, migrations, sync rounds, route misses) with per-thread ring
//!   shards and a merge-on-snapshot reader.
//! * [`StalenessProbe`] — an empirical PBS probe: servers stamp box
//!   expansions, sync pushes, and remote image applies, and the probe turns
//!   them into measured expansion-visibility delays — the measured
//!   counterpart of the `FreshnessSim` Monte-Carlo model.
//! * [`Snapshot`] + [`export`] — one coherent view of everything, rendered
//!   as Prometheus text exposition or JSON; both exporters have parsers so
//!   output round-trips and CI can validate it. Every exported section is
//!   declared once ([`snapshot`]); the codecs, the validation and
//!   [`Obs::set_enabled`]'s key are derived from that list.
//!
//! [`Obs`] bundles the instruments; the cluster crate owns one `Obs` per
//! deployment (shared through its `ImageStore`) and surfaces it as
//! `Cluster::snapshot()`.

pub mod account;
pub mod audit;
pub mod events;
pub mod export;
pub mod heat;
pub mod json;
pub mod lock;
pub mod registry;
mod ring;
pub mod snapshot;
pub mod staleness;
pub mod trace;

pub use account::{
    Accounting, AccountingSnapshot, CostVec, DimTop, PrincipalId, PrincipalTotals, SpaceSaving,
    TopEntry, COST_DIMS, COST_DIM_NAMES,
};
pub use audit::{AuditLog, BalanceDecision};
pub use events::{Event, EventLog};
pub use heat::{HeatEntry, HeatMap, RateEwma};
pub use lock::{
    CheckMode, LockClass, LockClassSnapshot, LockOrderViolation, ObsMutex, ObsMutexGuard,
    ObsRwLock, ObsRwLockReadGuard, ObsRwLockWriteGuard,
};
pub use registry::{
    bucket_index, bucket_le_seconds, Counter, Gauge, Histogram, HistogramSnapshot, MetricId,
    Registry, ScalarSnapshot, Timer, HIST_BUCKETS,
};
pub use snapshot::{Section, SectionData, Snapshot};
pub use staleness::{StalenessProbe, StalenessSnapshot};
pub use trace::{SpanGuard, SpanRecord, Trace, TraceConfig, TraceCtx, Tracer};

/// Structured events retained across the event ring's shards.
pub const EVENT_CAPACITY: usize = 4096;

/// Load-balance decisions retained across the audit ring's shards.
pub const AUDIT_CAPACITY: usize = 1024;

/// The knobs of one [`Obs`] instance — each decision declared here and
/// nowhere else (`VolapConfig::obs` upstream is this struct). Everything not
/// listed is a constant ([`EVENT_CAPACITY`], [`AUDIT_CAPACITY`],
/// [`account::TOPK`]) and starts enabled; [`Obs::set_enabled`] is the
/// runtime switch.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Whether latency histograms record at all. Counters, gauges, events
    /// and the staleness probe are always on (a relaxed atomic, or rare
    /// events only); a histogram additionally costs two `Instant::now()`
    /// calls per timed operation.
    pub histograms: bool,
    /// Causal-tracing sampling and sizing.
    pub trace: TraceConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self { histograms: true, trace: TraceConfig::default() }
    }
}

/// The bundled observability core one cluster owns. Cheap to clone; clones
/// share all state.
#[derive(Clone)]
pub struct Obs {
    registry: Registry,
    events: EventLog,
    staleness: StalenessProbe,
    tracer: Tracer,
    heat: HeatMap,
    audit: AuditLog,
    accounting: Accounting,
    /// When this core was built: `Snapshot::uptime_us` counts from it.
    epoch: std::time::Instant,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new(ObsConfig::default())
    }
}

impl Obs {
    /// Build an observability core.
    pub fn new(cfg: ObsConfig) -> Self {
        let registry = Registry::new(cfg.histograms);
        let staleness = StalenessProbe::new(registry.histogram("volap_staleness_seconds"));
        Self {
            registry,
            events: EventLog::new(EVENT_CAPACITY),
            staleness,
            tracer: Tracer::new(cfg.trace),
            heat: HeatMap::default(),
            audit: AuditLog::new(AUDIT_CAPACITY),
            accounting: Accounting::default(),
            epoch: std::time::Instant::now(),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The staleness probe.
    pub fn staleness(&self) -> &StalenessProbe {
        &self.staleness
    }

    /// The causal tracer (span collector + slow-query flight recorder).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The per-shard heat map.
    pub fn heat(&self) -> &HeatMap {
        &self.heat
    }

    /// The load-balance decision audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The per-principal workload accounting core.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// The one runtime on/off call: pause or resume a section's recording.
    /// Returns `false`, doing nothing, for a section that has no switch
    /// (its record path is a relaxed atomic or fires on rare events only).
    /// A paused section costs its record path one relaxed load and a branch
    /// — the load an enabled section already pays. Sections start enabled;
    /// traces resume at the configured [`TraceConfig::sample`] rate (so stay
    /// off when that is 0), and lock telemetry is process-global.
    pub fn set_enabled(&self, section: Section, on: bool) -> bool {
        match section {
            Section::Histograms => self.registry.set_histograms_enabled(on),
            Section::Heat => self.heat.set_enabled(on),
            Section::Locks => lock::set_telemetry_enabled(on),
            Section::Accounting => self.accounting.set_enabled(on),
            Section::Traces => self.tracer.set_enabled(on),
            Section::Counters
            | Section::Gauges
            | Section::Events
            | Section::Audit
            | Section::Staleness => return false,
        }
        true
    }

    /// Route lock-order violations into this core's event log as
    /// `lock_order_violation` events. The hook is process-global (lock
    /// telemetry itself is); the cluster installs it once at start.
    pub fn install_lock_hook(&self) {
        let events = self.events.clone();
        lock::set_violation_hook(Some(Box::new(move |v| {
            events.record("lock_order_violation", v.to_string());
        })));
    }

    /// One coherent snapshot of metrics, events, heat, balance decisions,
    /// lock contention, and measured staleness. Lock telemetry is
    /// process-global, so its per-class metrics appear identically in every
    /// core's snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let (mut counters, mut gauges, mut histograms) = self.registry.snapshot();
        let locks = lock::export_into(&mut counters, &mut histograms);
        gauges.push(build_info_gauge());
        counters.sort_by(|a, b| a.id.cmp(&b.id));
        gauges.sort_by(|a, b| a.id.cmp(&b.id));
        histograms.sort_by(|a, b| a.id.cmp(&b.id));
        let captured_unix_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Snapshot {
            captured_unix_us,
            uptime_us: self.epoch.elapsed().as_micros() as u64,
            counters,
            gauges,
            histograms,
            events: self.events.snapshot(),
            heat: self.heat.snapshot(),
            audit: self.audit.snapshot(),
            locks,
            staleness: self.staleness.snapshot(),
            accounting: self.accounting.snapshot(),
        }
    }
}

/// The `volap_build_info` gauge: crate version, build profile, and rustc
/// version folded into one label value (the registry carries at most one
/// label pair per metric), with the conventional constant value 1. Present
/// in every [`Obs::snapshot`], so both expositions carry it and the
/// `from_prometheus ∘ to_prometheus` round trip preserves it like any
/// other labeled gauge.
pub fn build_info_gauge() -> ScalarSnapshot<i64> {
    let build = format!(
        "volap {} {} {}",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("VOLAP_RUSTC_VERSION"),
    );
    ScalarSnapshot { id: MetricId::labeled("volap_build_info", "build", &build), value: 1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_snapshot_round_trips_through_both_exporters() {
        let obs = Obs::new(ObsConfig::default());
        obs.registry().counter("volap_x_total").add(9);
        obs.registry().gauge_labeled("volap_g", "worker", "w0").set(3);
        obs.registry().histogram("volap_h_seconds").observe_ns(1500);
        obs.events().record("test_event", "k=v".into());
        obs.staleness().expansion(1, "s0");
        obs.staleness().pushed(1, "s0");
        obs.staleness().applied(1, "s1");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("volap_x_total"), 9);
        assert_eq!(snap.staleness.count, 1);
        assert_eq!(snap.events.len(), 1);
        let json_back = export::from_json(&export::to_json(&snap)).unwrap();
        assert_eq!(json_back, snap);
        let prom_back = export::from_prometheus(&export::to_prometheus(&snap)).unwrap();
        assert_eq!(prom_back, snap.metrics_only());
        // The staleness distribution is in the exposition as a histogram.
        assert_eq!(prom_back.histogram("volap_staleness_seconds").unwrap().count, 1);
    }

    #[test]
    fn build_info_gauge_rides_every_snapshot_and_round_trips() {
        let obs = Obs::new(ObsConfig::default());
        let snap = obs.snapshot();
        let info = snap
            .gauges
            .iter()
            .find(|g| g.id.name == "volap_build_info")
            .expect("build info gauge present in every snapshot");
        assert_eq!(info.value, 1, "build info uses the conventional constant value");
        let label = info.id.label.as_ref().expect("build label attached");
        assert_eq!(label.0, "build");
        assert!(label.1.starts_with("volap "), "label folds crate version: {}", label.1);
        assert!(
            label.1.contains("debug") || label.1.contains("release"),
            "label folds the build profile: {}",
            label.1
        );
        assert!(label.1.contains("rustc"), "label folds the rustc version: {}", label.1);
        let prom = export::to_prometheus(&snap);
        assert!(prom.contains("volap_build_info{build="), "exposition carries build info");
        let back = export::from_prometheus(&prom).unwrap();
        assert_eq!(back, snap.metrics_only(), "round trip preserves the gauge");
    }

    #[test]
    fn histograms_knob_disables_recording() {
        let obs = Obs::new(ObsConfig { histograms: false, ..ObsConfig::default() });
        let h = obs.registry().histogram("volap_h_seconds");
        h.observe_ns(5);
        assert_eq!(h.count(), 0);
        // Staleness raw samples still record; only its histogram is gated.
        obs.staleness().expansion(1, "s0");
        obs.staleness().pushed(1, "s0");
        obs.staleness().applied(1, "s1");
        let snap = obs.snapshot();
        assert_eq!(snap.staleness.count, 1);
        assert_eq!(snap.histogram("volap_staleness_seconds").unwrap().count, 0);
    }
}
