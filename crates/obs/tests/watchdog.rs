//! Health watchdog semantics (hysteresis, escalation, anomaly flags),
//! history-ring exactness under concurrent ingest, and exporter round-trips
//! of snapshots carrying history + health sections.

use std::time::Duration;

use volap_obs::export;
use volap_obs::{
    EventLog, HealthRule, HealthState, HeatMap, History, HistoryConfig, Obs, ObsConfig, Registry,
    SectionData, Watchdog,
};

struct Rig {
    reg: Registry,
    heat: HeatMap,
    events: EventLog,
    history: History,
    watchdog: Watchdog,
}

impl Rig {
    fn new(rules: Vec<HealthRule>) -> Self {
        let cfg = HistoryConfig { interval: Duration::from_millis(5), capacity: 1024 };
        Self {
            reg: Registry::new(true),
            heat: HeatMap::default(),
            events: EventLog::new(256),
            history: History::new(&cfg, std::time::Instant::now()),
            watchdog: Watchdog::new(rules),
        }
    }

    /// One sampler interval: capture a frame, evaluate the rules. Sleeps a
    /// hair so the frame has a non-zero span.
    fn tick(&self) {
        std::thread::sleep(Duration::from_millis(2));
        assert!(
            self.history.capture(&self.reg, &self.heat, &self.events, None),
            "capture refused"
        );
        self.watchdog.evaluate(&self.history, &self.events);
    }

    fn state_of(&self, component: &str, rule: &str) -> volap_obs::ComponentHealth {
        self.watchdog
            .snapshot()
            .into_iter()
            .find(|h| h.component == component && h.rule == rule)
            .expect("rule present")
    }

    fn transition_events(&self) -> usize {
        self.events.snapshot().iter().filter(|e| e.kind == "health_transition").count()
    }
}

fn gauge_rule(hysteresis: u32) -> HealthRule {
    HealthRule {
        name: "g".into(),
        component: "c".into(),
        selector: "gauge(volap_g)".into(),
        degraded_above: 10.0,
        critical_above: 100.0,
        hysteresis,
    }
}

#[test]
fn breaches_shorter_than_hysteresis_do_not_transition() {
    let rig = Rig::new(vec![gauge_rule(3)]);
    let g = rig.reg.gauge("volap_g");
    g.set(1);
    for _ in 0..3 {
        rig.tick();
    }
    // Two breaching frames, then recovery: one short of the window.
    g.set(50);
    rig.tick();
    rig.tick();
    g.set(1);
    rig.tick();
    let h = rig.state_of("c", "g");
    assert_eq!(h.state, HealthState::Healthy, "short breach must not flip the state");
    assert_eq!(h.transitions, 0);
    assert_eq!(rig.transition_events(), 0, "no transition events for a sub-window breach");
}

#[test]
fn sustained_breach_transitions_exactly_once_and_recovers() {
    let rig = Rig::new(vec![gauge_rule(3)]);
    let g = rig.reg.gauge("volap_g");
    g.set(1);
    rig.tick();
    g.set(50);
    // Window fills on the third breaching frame: exactly one transition.
    rig.tick();
    rig.tick();
    assert_eq!(rig.state_of("c", "g").state, HealthState::Healthy);
    rig.tick();
    let h = rig.state_of("c", "g");
    assert_eq!(h.state, HealthState::Degraded);
    assert_eq!(h.transitions, 1);
    assert!(h.since_us > 0);
    // Staying degraded must not flap or re-emit.
    for _ in 0..5 {
        rig.tick();
    }
    let h = rig.state_of("c", "g");
    assert_eq!(h.state, HealthState::Degraded);
    assert_eq!(h.transitions, 1, "sustained breach re-transitioned");
    assert_eq!(rig.transition_events(), 1);
    // Recovery needs its own full window, then transitions back once.
    g.set(1);
    rig.tick();
    rig.tick();
    assert_eq!(rig.state_of("c", "g").state, HealthState::Degraded);
    rig.tick();
    let h = rig.state_of("c", "g");
    assert_eq!(h.state, HealthState::Healthy);
    assert_eq!(h.transitions, 2);
    assert_eq!(rig.transition_events(), 2);
    let evs = rig.events.snapshot();
    let details: Vec<&str> = evs
        .iter()
        .filter(|e| e.kind == "health_transition")
        .map(|e| e.detail.as_str())
        .collect();
    assert!(details[0].contains("from=healthy") && details[0].contains("to=degraded"));
    assert!(details[1].contains("from=degraded") && details[1].contains("to=healthy"));
}

#[test]
fn critical_values_escalate_directly() {
    let rig = Rig::new(vec![gauge_rule(2)]);
    let g = rig.reg.gauge("volap_g");
    g.set(1);
    rig.tick();
    g.set(500); // past critical_above
    rig.tick();
    rig.tick();
    let h = rig.state_of("c", "g");
    assert_eq!(h.state, HealthState::Critical);
    assert_eq!(h.transitions, 1, "healthy -> critical is one transition, not two");
}

#[test]
fn interrupted_streaks_restart_the_window() {
    let rig = Rig::new(vec![gauge_rule(3)]);
    let g = rig.reg.gauge("volap_g");
    g.set(1);
    rig.tick();
    // Alternate breach / recover so no 3-frame streak ever completes.
    for _ in 0..4 {
        g.set(50);
        rig.tick();
        rig.tick();
        g.set(1);
        rig.tick();
    }
    let h = rig.state_of("c", "g");
    assert_eq!(h.state, HealthState::Healthy);
    assert_eq!(h.transitions, 0, "flapping input produced a transition");
}

#[test]
fn anomaly_flags_on_baseline_departure_without_threshold_breach() {
    // Thresholds far away: only the z-score can fire.
    let rule = HealthRule {
        name: "g".into(),
        component: "c".into(),
        selector: "gauge(volap_g)".into(),
        degraded_above: 100_000.0,
        critical_above: 200_000.0,
        hysteresis: 2,
    };
    let rig = Rig::new(vec![rule]);
    let g = rig.reg.gauge("volap_g");
    g.set(10);
    for _ in 0..12 {
        rig.tick(); // warm the EWMA baseline well past the 8-frame warmup
    }
    assert!(!rig.state_of("c", "g").anomalous, "stable series flagged anomalous");
    g.set(50_000); // huge departure, still below degraded_above
    rig.tick();
    let h = rig.state_of("c", "g");
    assert_eq!(h.state, HealthState::Healthy, "anomaly must not change SLO state");
    assert!(h.anomalous, "baseline departure not flagged (z = {})", h.z_score);
    assert!(h.z_score.abs() >= 4.0);
    let anomalies =
        rig.events.snapshot().iter().filter(|e| e.kind == "health_anomaly").count();
    assert_eq!(anomalies, 1, "anomaly event must fire on the rising edge only");
    rig.tick(); // still departed: flag stays, no second event
    assert_eq!(
        rig.events.snapshot().iter().filter(|e| e.kind == "health_anomaly").count(),
        1
    );
}

#[test]
fn history_deltas_stay_exact_under_concurrent_ingest() {
    // Satellite 4 at the obs level: sample continuously while writer
    // threads hammer a counter; every increment must land in exactly one
    // frame, so the ring's deltas sum to the final counter total.
    let obs = Obs::new(ObsConfig {
        history: HistoryConfig { interval: Duration::from_millis(1), capacity: 100_000 },
        ..ObsConfig::default()
    });
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 50_000;
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let c = obs.registry().counter("volap_ingest_total");
            s.spawn(move || {
                for _ in 0..PER_WRITER {
                    c.inc();
                }
            });
        }
        let obs = &obs;
        s.spawn(move || {
            for _ in 0..200 {
                obs.sample_tick();
                std::thread::sleep(Duration::from_micros(200));
            }
        });
    });
    obs.sample_tick(); // final frame covers the tail
    let hist = obs.history().snapshot();
    assert_eq!(hist.dropped, 0, "ring sized to be lossless");
    hist.validate().expect("ring valid under concurrency");
    let total = obs.registry().counter("volap_ingest_total").get();
    assert_eq!(total, (WRITERS as u64) * PER_WRITER);
    let framed = hist.delta_sum("rate(volap_ingest_total)");
    assert_eq!(framed, total as f64, "frame deltas lost or double-counted increments");
}

#[test]
fn exporters_round_trip_history_and_health() {
    let obs = Obs::new(ObsConfig {
        history: HistoryConfig { interval: Duration::from_millis(5), capacity: 64 },
        ..ObsConfig::default()
    });
    obs.registry().counter("volap_x_total").add(7);
    obs.registry().histogram("volap_h_seconds").observe_ns(1_500);
    obs.events().record("test_event", "k=v".into());
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(2));
        obs.sample_tick();
    }
    let snap = obs.snapshot();
    assert!(!snap.history.frames.is_empty());
    assert!(!snap.health.is_empty());
    assert!(snap.uptime_us > 0);
    assert!(snap.captured_unix_us > 0);

    let back = export::from_json(&export::to_json(&snap)).expect("JSON parse");
    assert_eq!(back, snap, "JSON round trip lost history/health data");

    let prom = export::to_prometheus(&snap);
    let prom_back = export::from_prometheus(&prom).expect("prometheus parse");
    assert_eq!(prom_back, snap.metrics_only());
    assert!(
        prom.contains("volap_health_state{component=\"image_sync\"}"),
        "health gauge missing from exposition"
    );
    assert!(prom.contains("volap_uptime_microseconds"));
    assert!(prom.contains("volap_history_frames"));

    // metrics_only folding must be idempotent (the round-trip relies on it).
    assert_eq!(prom_back.metrics_only(), prom_back);
}
