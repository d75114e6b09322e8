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
//!   pure relaxed atomics, and every histogram always records.
//! * [`EventLog`] — a bounded ring-buffer log of structured events (shard
//!   splits, migrations, sync rounds, route misses) with per-thread ring
//!   shards and a merge-on-snapshot reader.
//! * [`StalenessProbe`] — an empirical PBS probe: servers stamp box
//!   expansions, sync pushes, and remote image applies, and the probe turns
//!   them into measured expansion-visibility delays — the measured
//!   counterpart of the `FreshnessSim` Monte-Carlo model.
//! * [`Snapshot`] + [`export`] — one coherent view of everything, rendered
//!   as Prometheus text exposition or JSON. Every exported section is
//!   declared once ([`snapshot`]); the JSON writer and the structural
//!   validation are derived from that list. Exports are write-only.
//!
//! [`Obs`] bundles the instruments; the cluster crate owns one `Obs` per
//! deployment (shared through its `ImageStore`) and surfaces it as
//! `Cluster::snapshot()`.

pub mod audit;
pub mod events;
pub mod export;
pub mod json;
pub mod lock;
pub mod registry;
mod ring;
pub mod snapshot;
pub mod staleness;

pub use audit::{AuditLog, BalanceDecision};
pub use events::{Event, EventLog};
pub use lock::{
    CheckMode, LockClass, LockOrderViolation, ObsMutex, ObsMutexGuard, ObsRwLock,
    ObsRwLockReadGuard, ObsRwLockWriteGuard,
};
pub use registry::{
    bucket_index, bucket_le_seconds, Counter, Gauge, Histogram, HistogramSnapshot, MetricId,
    Registry, ScalarSnapshot, Timer, HIST_BUCKETS,
};
pub use snapshot::{Section, SectionData, Snapshot};
pub use staleness::{StalenessProbe, StalenessSnapshot};

/// Structured events retained across the event ring's shards.
pub const EVENT_CAPACITY: usize = 4096;

/// Load-balance decisions retained across the audit ring's shards.
pub const AUDIT_CAPACITY: usize = 1024;

/// The bundled observability core one cluster owns. Cheap to clone; clones
/// share all state. It has no knobs: every instrument always records, and
/// the rings are sized by [`EVENT_CAPACITY`] and [`AUDIT_CAPACITY`].
#[derive(Clone)]
pub struct Obs {
    registry: Registry,
    events: EventLog,
    staleness: StalenessProbe,
    audit: AuditLog,
    /// When this core was built: `Snapshot::uptime_us` counts from it.
    epoch: std::time::Instant,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// Build an observability core.
    pub fn new() -> Self {
        let registry = Registry::new();
        let staleness = StalenessProbe::new(registry.histogram("volap_staleness_seconds"));
        Self {
            registry,
            events: EventLog::new(EVENT_CAPACITY),
            staleness,
            audit: AuditLog::new(AUDIT_CAPACITY),
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

    /// The load-balance decision audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Route lock-order violations into this core's event log as
    /// `lock_order_violation` events. The hook is process-global (the
    /// debug-build checker is); the cluster installs it once at start.
    pub fn install_lock_hook(&self) {
        let events = self.events.clone();
        lock::set_violation_hook(Some(Box::new(move |v| {
            events.record("lock_order_violation", v.to_string());
        })));
    }

    /// One coherent snapshot of metrics, events, balance decisions and
    /// measured staleness.
    pub fn snapshot(&self) -> Snapshot {
        let (counters, mut gauges, histograms) = self.registry.snapshot();
        gauges.push(build_info_gauge());
        gauges.sort_by(|a, b| a.id.cmp(&b.id));
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
            audit: self.audit.snapshot(),
            staleness: self.staleness.snapshot(),
        }
    }
}

/// The `volap_build_info` gauge: crate version, build profile, and rustc
/// version folded into one label value (the registry carries at most one
/// label pair per metric), with the conventional constant value 1. Present
/// in every [`Obs::snapshot`], so both expositions carry it like any other
/// labeled gauge.
pub fn build_info_gauge() -> ScalarSnapshot<i64> {
    let build = format!(
        "volap {} {} {}",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env!("VOLAP_RUSTC_VERSION"),
    );
    ScalarSnapshot {
        id: MetricId::labeled("volap_build_info", "build", &build),
        value: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_snapshot_carries_every_instrument_into_both_exporters() {
        let obs = Obs::new();
        obs.registry().counter("volap_x_total").add(9);
        obs.registry()
            .gauge_labeled("volap_g", "worker", "w0")
            .set(3);
        obs.registry().histogram("volap_h_seconds").observe_ns(1500);
        obs.events().record("test_event", "k=v".into());
        obs.staleness().expansion(1, "s0");
        obs.staleness().pushed(1, "s0");
        obs.staleness().applied(1, "s1");
        let snap = obs.snapshot();
        assert_eq!(snap.validate(), Ok(()));
        assert_eq!(snap.counter("volap_x_total"), 9);
        assert_eq!(snap.staleness.count, 1);
        assert_eq!(snap.events.len(), 1);
        // The staleness distribution is a histogram like any other.
        assert_eq!(snap.histogram("volap_staleness_seconds").unwrap().count, 1);
        let prom = export::to_prometheus(&snap);
        for line in [
            "volap_x_total 9\n",
            "volap_g{worker=\"w0\"} 3\n",
            "volap_h_seconds_count 1\n",
            "volap_staleness_seconds_count 1\n",
        ] {
            assert!(prom.contains(line), "exposition lacks {line:?}:\n{prom}");
        }
        let json = export::to_json(&snap);
        for member in ["\"kind\": \"test_event\"", "\"staleness\": {\"count\": 1"] {
            assert!(json.contains(member), "JSON lacks {member:?}:\n{json}");
        }
    }

    #[test]
    fn build_info_gauge_rides_every_snapshot() {
        let obs = Obs::new();
        let snap = obs.snapshot();
        let info = snap
            .gauges
            .iter()
            .find(|g| g.id.name == "volap_build_info")
            .expect("build info gauge present in every snapshot");
        assert_eq!(
            info.value, 1,
            "build info uses the conventional constant value"
        );
        let label = info.id.label.as_ref().expect("build label attached");
        assert_eq!(label.0, "build");
        assert!(
            label.1.starts_with("volap "),
            "label folds crate version: {}",
            label.1
        );
        assert!(
            label.1.contains("debug") || label.1.contains("release"),
            "label folds the build profile: {}",
            label.1
        );
        assert!(
            label.1.contains("rustc"),
            "label folds the rustc version: {}",
            label.1
        );
        let prom = export::to_prometheus(&snap);
        assert!(
            prom.contains(&format!("volap_build_info{{build=\"{}\"}} 1\n", label.1)),
            "exposition carries build info"
        );
    }
}
