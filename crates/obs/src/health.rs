//! The SLO health watchdog: declarative rules over history series, with
//! hysteresis state machines and EWMA anomaly baselines.
//!
//! Each [`HealthRule`] names a component, a [`crate::history`] series key
//! as its selector, and `degraded`/`critical` thresholds with a hysteresis
//! window. The watchdog runs once per sampler interval, right after the
//! frame is captured: it reads the newest frame (rate-kind deltas are
//! normalized to per-second values first), classifies it against the
//! thresholds, and advances a per-rule `Healthy → Degraded → Critical`
//! state machine that only transitions after the classification has held
//! for `hysteresis` **consecutive** frames — a one-frame spike can't flap
//! a component, and a sustained breach transitions exactly once. Every
//! transition emits a `health_transition` event into the shared event ring.
//!
//! Independently of the static thresholds, each rule keeps an EWMA mean
//! and an EWMA squared-deviation of its selector (both [`RateEwma`]s), and
//! flags the component anomalous when the latest value sits more than
//! [`ANOMALY_Z`] deviations from the baseline — the flash-crowd detector:
//! a sudden shift trips the flag (and a `health_anomaly` event) even while
//! the absolute value is still inside the SLO.

use std::sync::{Arc, Mutex};

use crate::events::EventLog;
use crate::heat::RateEwma;
use crate::history::{History, SeriesKind};
use crate::json::{write_str, Field, Json};
use crate::registry::{MetricId, ScalarSnapshot};
use crate::snapshot::{ascending, Row};
use std::time::Duration;

/// Component health, ordered: comparisons pick the worst state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Inside every threshold.
    #[default]
    Healthy,
    /// Past `degraded_above` for a full hysteresis window.
    Degraded,
    /// Past `critical_above` for a full hysteresis window.
    Critical,
}

impl HealthState {
    /// Stable string form (events, JSON export).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// Numeric severity for the `volap_health_state` Prometheus gauge:
    /// 0 healthy, 1 degraded, 2 critical.
    pub fn score(self) -> i64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Critical => 2,
        }
    }
}

impl std::str::FromStr for HealthState {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "healthy" => Ok(HealthState::Healthy),
            "degraded" => Ok(HealthState::Degraded),
            "critical" => Ok(HealthState::Critical),
            other => Err(format!("unknown health state {other:?}")),
        }
    }
}

/// Exported as its [`HealthState::as_str`] name.
impl Field for HealthState {
    fn write(&self, out: &mut String) {
        write_str(self.as_str(), out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        v.str()?.parse()
    }
}

/// One declarative SLO rule (the `VolapConfig::health_rules` knob).
#[derive(Clone, Debug, PartialEq)]
pub struct HealthRule {
    /// Rule name (unique per component by convention).
    pub name: String,
    /// Component this rule guards; `Cluster::health()` reports per rule,
    /// the Prometheus gauge folds to the worst state per component.
    pub component: String,
    /// History series key, e.g. `p99(volap_staleness_seconds)` or
    /// `gauge(lock_contention_frac_max)`. Rate-kind series are compared as
    /// per-second rates, everything else raw.
    pub selector: String,
    /// Values above this (for a full window) classify as Degraded.
    pub degraded_above: f64,
    /// Values above this (for a full window) classify as Critical.
    pub critical_above: f64,
    /// Consecutive frames a classification must hold before the state
    /// machine transitions. `1` transitions on the first breaching frame.
    pub hysteresis: u32,
}

impl HealthRule {
    /// The shipped default rule set, sized for the scaled-down cluster
    /// defaults (see DESIGN.md §11.2 for the table and rationale).
    pub fn defaults() -> Vec<HealthRule> {
        let rule = |name: &str, component: &str, selector: &str, d: f64, c: f64, h: u32| {
            HealthRule {
                name: name.into(),
                component: component.into(),
                selector: selector.into(),
                degraded_above: d,
                critical_above: c,
                hysteresis: h,
            }
        };
        vec![
            rule("staleness_p99", "image_sync", "p99(volap_staleness_seconds)", 1.0, 5.0, 3),
            rule("event_drops", "event_ring", "rate(volap_events_dropped_total)", 10.0, 1000.0, 2),
            rule("contention", "locks", "gauge(lock_contention_frac_max)", 0.6, 0.95, 4),
            rule("heat_imbalance", "balance", "gauge(heat_insert_imbalance)", 8.0, 64.0, 8),
            rule("net_timeouts", "net", "rate(volap_net_timeouts_total)", 1.0, 100.0, 2),
            // Single-principal dominance: one tenant holding > 90% of the
            // decayed rows-scanned weight for 3 consecutive frames is
            // Degraded. The fraction can never exceed 1.0, so the rule
            // never escalates to Critical — a seeded hog transitions the
            // `tenants` component exactly once.
            rule("tenant_dominance", "tenants", "gauge(accounting_dominance_frac)", 0.9, 1.5, 3),
        ]
    }
}

/// Anomaly flag threshold: |z| at or above this flips `anomalous`.
pub const ANOMALY_Z: f64 = 4.0;
/// Frames of baseline warm-up before anomaly flags can fire.
const ANOMALY_WARMUP: u32 = 8;
/// Baseline EWMA half-life, in sampler intervals.
const ANOMALY_HALFLIFE_INTERVALS: f64 = 32.0;

crate::record! {
    /// One rule's reported health.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ComponentHealth {
        /// Component the rule guards.
        component: String,
        /// Rule name.
        rule: String,
        /// The rule's history-series selector.
        selector: String,
        /// Current state-machine state.
        state: HealthState,
        /// Latest evaluated value (per-second for rate selectors).
        value: f64,
        /// Z-score of `value` against the rule's EWMA baseline (0 until the
        /// baseline warms up).
        z_score: f64,
        /// Whether the latest value sits ≥ [`ANOMALY_Z`] deviations from the
        /// baseline.
        anomalous: bool,
        /// State transitions since start (flap detector: a breach held for the
        /// full window bumps this exactly once).
        transitions: u64,
        /// Frame-end time (µs since the obs epoch) of the last transition;
        /// 0 while the rule has never transitioned.
        since_us: u64,
    }
}

impl Row for ComponentHealth {
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        ascending(
            prev.map(|p| (&p.component, &p.rule)),
            (&self.component, &self.rule),
            "health rule",
        )?;
        if !self.value.is_finite() || !self.z_score.is_finite() {
            return Err(format!("{}/{}: non-finite value", self.component, self.rule));
        }
        Ok(())
    }

    /// `volap_health_state{component=..}`: the worst rule state per component.
    fn fold(&self, _: &mut Vec<ScalarSnapshot<u64>>, gauges: &mut Vec<ScalarSnapshot<i64>>) {
        let id = MetricId::labeled("volap_health_state", "component", &self.component);
        match gauges.iter_mut().find(|g| g.id == id) {
            Some(g) => g.value = g.value.max(self.state.score()),
            None => gauges.push(ScalarSnapshot { id, value: self.state.score() }),
        }
    }
}

struct RuleState {
    rule: HealthRule,
    /// Cached series index; re-resolved while `None` (series appear as
    /// components first touch their metrics).
    idx: Option<usize>,
    state: HealthState,
    streak_target: HealthState,
    streak: u32,
    transitions: u64,
    since_us: u64,
    value: f64,
    observed: bool,
    base_mean: RateEwma,
    base_var: RateEwma,
    warmup: u32,
    z: f64,
    anomalous: bool,
}

impl RuleState {
    fn new(rule: HealthRule) -> Self {
        Self {
            rule,
            idx: None,
            state: HealthState::Healthy,
            streak_target: HealthState::Healthy,
            streak: 0,
            transitions: 0,
            since_us: 0,
            value: 0.0,
            observed: false,
            base_mean: RateEwma::default(),
            base_var: RateEwma::default(),
            warmup: 0,
            z: 0.0,
            anomalous: false,
        }
    }

    fn classify(&self, v: f64) -> HealthState {
        if v > self.rule.critical_above {
            HealthState::Critical
        } else if v > self.rule.degraded_above {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        }
    }
}

struct WatchdogInner {
    rules: Vec<RuleState>,
    last_seq: Option<u64>,
}

/// The per-interval rule evaluator. Cheap to clone (shared).
#[derive(Clone)]
pub struct Watchdog {
    inner: Arc<Mutex<WatchdogInner>>,
}

impl Watchdog {
    /// Build a watchdog over a rule set.
    pub fn new(rules: Vec<HealthRule>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(WatchdogInner {
                rules: rules.into_iter().map(RuleState::new).collect(),
                last_seq: None,
            })),
        }
    }

    /// Evaluate every rule against the newest history frame, advancing the
    /// hysteresis state machines and emitting `health_transition` /
    /// `health_anomaly` events. Idempotent per frame (re-evaluating the
    /// same seq is a no-op), and a no-op before the first frame exists.
    pub fn evaluate(&self, history: &History, events: &EventLog) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        history.with_latest(|series, frame| {
            if inner.last_seq == Some(frame.seq) {
                return;
            }
            inner.last_seq = Some(frame.seq);
            let dt = Duration::from_secs_f64(frame.dt_seconds().max(1e-9));
            let halflife = Duration::from_secs_f64(
                frame.dt_seconds().max(1e-9) * ANOMALY_HALFLIFE_INTERVALS,
            );
            for rs in inner.rules.iter_mut() {
                if rs.idx.is_none() {
                    rs.idx = series.iter().position(|s| s.key == rs.rule.selector);
                }
                let Some(i) = rs.idx else { continue };
                let Some(&raw) = frame.values.get(i) else { continue };
                let v = match series[i].kind {
                    SeriesKind::Rate => raw / frame.dt_seconds().max(1e-9),
                    _ => raw,
                };
                rs.value = v;
                rs.observed = true;

                // Anomaly baseline: z against the EWMA mean/deviation from
                // *before* this frame, then fold the frame in.
                if rs.warmup >= ANOMALY_WARMUP {
                    let mean = rs.base_mean.rate();
                    let std = rs.base_var.rate().max(0.0).sqrt();
                    let floor = (0.05 * rs.rule.degraded_above.abs()).max(1e-12);
                    let z = (v - mean) / std.max(floor);
                    rs.z = z.clamp(-1e6, 1e6);
                    let now_anomalous = rs.z.abs() >= ANOMALY_Z;
                    if now_anomalous && !rs.anomalous {
                        events.record(
                            "health_anomaly",
                            format!(
                                "component={} rule={} value={v:.6} mean={mean:.6} z={:.2}",
                                rs.rule.component, rs.rule.name, rs.z
                            ),
                        );
                    }
                    rs.anomalous = now_anomalous;
                } else {
                    rs.warmup += 1;
                }
                let dev = v - rs.base_mean.rate();
                rs.base_mean.update_value(v, dt, halflife);
                rs.base_var.update_value(dev * dev, dt, halflife);

                // Hysteresis state machine: a classification must hold for
                // `hysteresis` consecutive frames to transition.
                let target = rs.classify(v);
                if target == rs.state {
                    rs.streak_target = rs.state;
                    rs.streak = 0;
                } else {
                    if target == rs.streak_target {
                        rs.streak += 1;
                    } else {
                        rs.streak_target = target;
                        rs.streak = 1;
                    }
                    if rs.streak >= rs.rule.hysteresis.max(1) {
                        let from = rs.state;
                        rs.state = target;
                        rs.streak = 0;
                        rs.transitions += 1;
                        rs.since_us = frame.end_us;
                        events.record(
                            "health_transition",
                            format!(
                                "component={} rule={} from={} to={} value={v:.6} seq={}",
                                rs.rule.component,
                                rs.rule.name,
                                from.as_str(),
                                target.as_str(),
                                frame.seq
                            ),
                        );
                    }
                }
            }
        });
    }

    /// Current per-rule health, sorted by component then rule.
    pub fn snapshot(&self) -> Vec<ComponentHealth> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<ComponentHealth> = inner
            .rules
            .iter()
            .map(|rs| ComponentHealth {
                component: rs.rule.component.clone(),
                rule: rs.rule.name.clone(),
                selector: rs.rule.selector.clone(),
                state: rs.state,
                value: rs.value,
                z_score: rs.z,
                anomalous: rs.anomalous,
                transitions: rs.transitions,
                since_us: rs.since_us,
            })
            .collect();
        out.sort_by(|a, b| (a.component.as_str(), a.rule.as_str()).cmp(&(&b.component, &b.rule)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_ordering_and_strings() {
        assert!(HealthState::Healthy < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Critical);
        for s in [HealthState::Healthy, HealthState::Degraded, HealthState::Critical] {
            assert_eq!(s.as_str().parse::<HealthState>().unwrap(), s);
        }
        assert!("bogus".parse::<HealthState>().is_err());
        assert_eq!(HealthState::Critical.score(), 2);
    }

    #[test]
    fn default_rules_cover_the_core_components() {
        let rules = HealthRule::defaults();
        assert!(rules.len() >= 4);
        for r in &rules {
            assert!(r.degraded_above < r.critical_above, "{}: thresholds ordered", r.name);
            assert!(r.hysteresis >= 1, "{}: hysteresis at least one frame", r.name);
        }
        assert!(rules.iter().any(|r| r.component == "image_sync"));
        assert!(rules.iter().any(|r| r.component == "locks"));
    }
}
