//! Exporters: Prometheus-style text exposition and a JSON document, each
//! with a parser so snapshots **round-trip** — `volap-stat` and CI validate
//! output by re-parsing it, and tests assert exact equality.
//!
//! Floating-point values are written with Rust's shortest-round-trip
//! `Display`, so `parse::<f64>()` recovers them bit-exactly; `u64` counters
//! are written as integers and never pass through `f64`.

use crate::json::{self, Field, Record};
use crate::registry::{HistogramSnapshot, MetricId, ScalarSnapshot};
use crate::snapshot::Snapshot;
use crate::trace::{SpanRecord, Trace};

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn label_block(id: &MetricId, extra: Option<(&str, String)>) -> String {
    let mut pairs = Vec::new();
    if let Some((k, v)) = &id.label {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(&v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn type_line(out: &mut String, last: &mut Option<String>, name: &str, kind: &str) {
    if last.as_deref() != Some(name) {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        *last = Some(name.to_string());
    }
}

/// Render the metric part of a snapshot as Prometheus text exposition.
/// Renders [`Snapshot::metrics_only`], so capture time, uptime and the
/// exact per-principal accounting totals appear as the synthetic
/// `volap_captured_unix_microseconds` / `volap_uptime_microseconds` /
/// `volap_accounting_*_total{principal=..}` series.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let snap = snap.metrics_only();
    let mut out = String::new();
    let mut last = None;
    for c in &snap.counters {
        type_line(&mut out, &mut last, &c.id.name, "counter");
        out.push_str(&format!("{}{} {}\n", c.id.name, label_block(&c.id, None), c.value));
    }
    for g in &snap.gauges {
        type_line(&mut out, &mut last, &g.id.name, "gauge");
        out.push_str(&format!("{}{} {}\n", g.id.name, label_block(&g.id, None), g.value));
    }
    for h in &snap.histograms {
        type_line(&mut out, &mut last, &h.id.name, "histogram");
        for &(le, count) in &h.buckets {
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                h.id.name,
                label_block(&h.id, Some(("le", format!("{le}")))),
                count
            ));
        }
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            h.id.name,
            label_block(&h.id, Some(("le", "+Inf".to_string()))),
            h.count
        ));
        out.push_str(&format!(
            "{}_sum{} {}\n",
            h.id.name,
            label_block(&h.id, None),
            h.sum_seconds
        ));
        out.push_str(&format!(
            "{}_count{} {}\n",
            h.id.name,
            label_block(&h.id, None),
            h.count
        ));
    }
    out
}

/// Parse one `name{k="v",...}` prefix into `(name, labels)`.
fn parse_series(s: &str) -> Result<(String, Vec<(String, String)>), String> {
    match s.find('{') {
        None => Ok((s.to_string(), Vec::new())),
        Some(open) => {
            let name = s[..open].to_string();
            let rest = &s[open + 1..];
            let close = rest.rfind('}').ok_or_else(|| format!("unclosed label block: {s}"))?;
            let mut labels = Vec::new();
            let body = &rest[..close];
            let mut i = 0;
            let bytes = body.as_bytes();
            while i < bytes.len() {
                let eq = body[i..].find('=').ok_or_else(|| format!("bad label in {s}"))? + i;
                let key = body[i..eq].trim_start_matches(',').to_string();
                if bytes.get(eq + 1) != Some(&b'"') {
                    return Err(format!("label value not quoted: {s}"));
                }
                // Find the closing unescaped quote.
                let mut j = eq + 2;
                while j < bytes.len() {
                    if bytes[j] == b'\\' {
                        j += 2;
                        continue;
                    }
                    if bytes[j] == b'"' {
                        break;
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(format!("unterminated label value: {s}"));
                }
                labels.push((key, unescape_label(&body[eq + 2..j])));
                i = j + 1;
                if bytes.get(i) == Some(&b',') {
                    i += 1;
                }
            }
            Ok((name, labels))
        }
    }
}

/// Parse text exposition produced by [`to_prometheus`] back into the metric
/// part of a [`Snapshot`] (events and staleness samples have no exposition
/// form). Any malformed line is an error — this is the validator CI runs.
pub fn from_prometheus(text: &str) -> Result<Snapshot, String> {
    let mut types: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut snap = Snapshot::default();
    // Histograms are assembled incrementally keyed by id.
    let mut open_histos: Vec<HistogramSnapshot> = Vec::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or("TYPE line missing name")?;
            let kind = parts.next().ok_or("TYPE line missing kind")?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown metric type {kind}"));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments
        }
        let sp = line.rfind(' ').ok_or_else(|| format!("no value on line: {line}"))?;
        let (series, value) = (&line[..sp], line[sp + 1..].trim());
        let (full_name, labels) = parse_series(series)?;

        // Histogram component lines end in _bucket/_sum/_count and their base
        // name carries TYPE histogram.
        let histo_base = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
            full_name
                .strip_suffix(suf)
                .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                .map(|base| (base.to_string(), *suf))
        });

        if let Some((base, suffix)) = histo_base {
            let id_labels: Vec<(String, String)> =
                labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            if id_labels.len() > 1 {
                return Err(format!("more than one id label on {line}"));
            }
            let id = MetricId { name: base, label: id_labels.into_iter().next() };
            let slot = match open_histos.iter_mut().find(|h| h.id == id) {
                Some(h) => h,
                None => {
                    open_histos.push(HistogramSnapshot {
                        id,
                        count: 0,
                        sum_seconds: 0.0,
                        buckets: Vec::new(),
                    });
                    open_histos.last_mut().unwrap()
                }
            };
            match suffix {
                "_bucket" => {
                    let le = &labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .ok_or_else(|| format!("bucket without le: {line}"))?
                        .1;
                    let count: u64 =
                        value.parse().map_err(|e| format!("bad bucket count {value}: {e}"))?;
                    if le != "+Inf" {
                        let le: f64 =
                            le.parse().map_err(|e| format!("bad le {le}: {e}"))?;
                        slot.buckets.push((le, count));
                    }
                }
                "_sum" => {
                    slot.sum_seconds =
                        value.parse().map_err(|e| format!("bad sum {value}: {e}"))?;
                }
                "_count" => {
                    slot.count = value.parse().map_err(|e| format!("bad count {value}: {e}"))?;
                }
                _ => unreachable!(),
            }
            continue;
        }

        if labels.len() > 1 {
            return Err(format!("more than one label on {line}"));
        }
        let id = MetricId { name: full_name.clone(), label: labels.into_iter().next() };
        match types.get(&full_name).map(String::as_str) {
            Some("counter") => snap.counters.push(ScalarSnapshot {
                id,
                value: value.parse().map_err(|e| format!("bad counter {value}: {e}"))?,
            }),
            Some("gauge") => snap.gauges.push(ScalarSnapshot {
                id,
                value: value.parse().map_err(|e| format!("bad gauge {value}: {e}"))?,
            }),
            Some(other) => return Err(format!("{full_name}: unexpected sample for {other}")),
            None => return Err(format!("sample before TYPE line: {line}")),
        }
    }
    snap.histograms = open_histos;
    Ok(snap)
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Render a full snapshot — every section of [`crate::snapshot`] — as JSON,
/// one top-level member per line. Lossless: [`from_json`] recovers the exact
/// input. Writer and parser are both derived from the record declarations.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n  ");
    snap.write_members(&mut out, ",\n  ");
    out.push_str("\n}\n");
    out
}

/// Parse JSON produced by [`to_json`] back into a full [`Snapshot`].
pub fn from_json(text: &str) -> Result<Snapshot, String> {
    Snapshot::read_members(&json::parse(text)?)
}

// ---------------------------------------------------------------------------
// Chrome/Perfetto trace_event JSON
// ---------------------------------------------------------------------------

crate::record! {
    /// What the `trace_event` format has no slot for: trace and span identity,
    /// the exact end time, and the raw annotations.
    struct SpanArgs {
        trace_id: u64,
        span_id: u64,
        parent_span_id: u64,
        end_us: u64,
        ann: Vec<(String, String)>,
    }
}

crate::record! {
    /// One complete (`"ph": "X"`) event: a span as `trace_event` spells it —
    /// the trace as the process, the span as the thread.
    struct TraceEvent {
        ph: String,
        name: String,
        ts: u64,
        dur: u64,
        pid: u64,
        tid: u64,
        args: SpanArgs,
    }
}

impl From<&SpanRecord> for TraceEvent {
    fn from(s: &SpanRecord) -> Self {
        TraceEvent {
            ph: "X".into(),
            name: s.name.clone(),
            ts: s.start_us,
            dur: s.duration_us(),
            pid: s.trace_id,
            tid: s.span_id,
            args: SpanArgs {
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent_span_id: s.parent_span_id,
                end_us: s.end_us,
                ann: s.annotations.clone(),
            },
        }
    }
}

impl TryFrom<TraceEvent> for SpanRecord {
    type Error = String;

    fn try_from(ev: TraceEvent) -> Result<Self, String> {
        if ev.ph != "X" {
            return Err(format!("unsupported event phase {:?}", ev.ph));
        }
        let span = SpanRecord {
            trace_id: ev.args.trace_id,
            span_id: ev.args.span_id,
            parent_span_id: ev.args.parent_span_id,
            name: ev.name,
            start_us: ev.ts,
            end_us: ev.args.end_us,
            annotations: ev.args.ann,
        };
        if span.duration_us() != ev.dur {
            return Err(format!("dur {} disagrees with ts {}..{}", ev.dur, ev.ts, span.end_us));
        }
        Ok(span)
    }
}

/// Render traces in the Chrome/Perfetto `trace_event` JSON format: one
/// complete (`"ph": "X"`) event per span, timestamps and durations in
/// microseconds. Load the output in `ui.perfetto.dev` or
/// `chrome://tracing`. Trace and span identity (trace/span/parent ids and
/// the raw annotations) ride in each event's `args`, so the export is
/// **lossless**: [`traces_from_perfetto`] recovers the exact input.
pub fn traces_to_perfetto(traces: &[Trace]) -> String {
    let events: Vec<TraceEvent> =
        traces.iter().flat_map(|t| &t.spans).map(TraceEvent::from).collect();
    let mut out = String::from("{\"traceEvents\": ");
    json::write_rows(&events, "", &mut out);
    out.push_str("}\n");
    out
}

/// Parse Perfetto JSON produced by [`traces_to_perfetto`] back into traces,
/// grouped by `trace_id` in first-seen order. Any malformed or non-`X`
/// event is an error — this is the validator `volap-stat --traces` and CI
/// run over exported traces.
pub fn traces_from_perfetto(text: &str) -> Result<Vec<Trace>, String> {
    let root = json::parse(text)?;
    let mut traces: Vec<Trace> = Vec::new();
    for ev in Vec::<TraceEvent>::read(root.get("traceEvents")?)? {
        let span = SpanRecord::try_from(ev)?;
        match traces.iter_mut().find(|t| t.trace_id == span.trace_id) {
            Some(t) => t.spans.push(span),
            None => traces.push(Trace { trace_id: span.trace_id, spans: vec![span] }),
        }
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{AccountingSnapshot, CostVec, DimTop, PrincipalTotals, TopEntry};
    use crate::audit::BalanceDecision;
    use crate::events::Event;
    use crate::heat::HeatEntry;
    use crate::lock::LockClassSnapshot;
    use crate::staleness::StalenessSnapshot;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            captured_unix_us: 1_754_000_000_123_456,
            uptime_us: 9_876_543,
            counters: vec![
                ScalarSnapshot { id: MetricId::plain("volap_a_total"), value: 3 },
                ScalarSnapshot {
                    id: MetricId::labeled("volap_b_total", "server", "server-0"),
                    value: u64::MAX,
                },
            ],
            gauges: vec![ScalarSnapshot {
                id: MetricId::labeled("volap_depth", "worker", "w-1"),
                value: -17,
            }],
            histograms: vec![HistogramSnapshot {
                id: MetricId::plain("volap_lat_seconds"),
                count: 5,
                sum_seconds: 0.12345678901234567,
                buckets: vec![(0.0, 0), (1e-9, 1), (3e-9, 5)],
            }],
            events: vec![Event {
                seq: 0,
                ts_us: 12,
                kind: "shard_split".into(),
                detail: "shard=1 \"quoted\"\nline".into(),
            }],
            heat: vec![HeatEntry {
                shard: 4,
                worker: "worker \"w0\"".into(),
                items: 120,
                inserts_total: u64::MAX,
                queries_total: 7,
                insert_rate: 123.456789012345,
                query_rate: 0.25,
                volume_frac: 0.001953125,
            }],
            audit: vec![BalanceDecision {
                seq: 3,
                ts_us: 99,
                action: "migrate".into(),
                shard: 4,
                src: "worker-0".into(),
                dest: "worker \"1\"\n".into(),
                inputs: vec![
                    ("src_load".into(), "31000".into()),
                    ("hi".into(), "25000".into()),
                ],
                result_shards: vec![4],
                outcome: "ok".into(),
                duration_us: 1234,
            }],
            locks: vec![LockClassSnapshot {
                class: "server.index".into(),
                rank: 21,
                acquisitions: u64::MAX,
                contended: 12,
                wait_count: 12,
                wait_sum_seconds: 0.001953125,
                hold_count: 12,
                hold_sum_seconds: 3.25,
            }],
            staleness: StalenessSnapshot { count: 2, samples_seconds: vec![0.001, 0.25] },
            accounting: AccountingSnapshot {
                enabled: true,
                topk: 4,
                principals: vec![
                    PrincipalTotals {
                        principal: "tenant \"a\"\n".into(),
                        requests: 12,
                        cost: CostVec {
                            rows_scanned: u64::MAX,
                            nodes_visited: 7,
                            queue_wait_us: 1234,
                            wall_us: 5678,
                            bytes: 4096,
                            net_hops: 9,
                            fanout: 4,
                        },
                    },
                    PrincipalTotals {
                        principal: "tenant-b".into(),
                        requests: 1,
                        cost: CostVec { rows_scanned: 17, ..CostVec::default() },
                    },
                ],
                top: vec![DimTop {
                    dim: "rows_scanned".into(),
                    offered: 123.456789,
                    entries: vec![
                        TopEntry {
                            principal: "tenant \"a\"\n".into(),
                            count: 100.25,
                            err: 0.5,
                        },
                        TopEntry { principal: "tenant-b".into(), count: 17.0, err: 0.0 },
                    ],
                }],
            },
        }
    }

    #[test]
    fn prometheus_round_trip() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        let back = from_prometheus(&text).unwrap();
        assert_eq!(back, snap.metrics_only());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample_snapshot();
        let back = from_json(&to_json(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    /// `tests/golden/` holds the bytes the hand-written exporters this module
    /// replaced produced for the fixtures above: the derived codecs must
    /// reproduce them exactly and re-parse them exactly.
    #[test]
    fn goldens_are_reproduced_byte_for_byte() {
        let snap = sample_snapshot();
        let json = include_str!("../tests/golden/snapshot.json");
        assert_eq!(to_json(&snap), json);
        assert_eq!(from_json(json).unwrap(), snap);
        let prom = include_str!("../tests/golden/snapshot.prom");
        assert_eq!(to_prometheus(&snap), prom);
        assert_eq!(from_prometheus(prom).unwrap(), snap.metrics_only());
        let perfetto = include_str!("../tests/golden/traces.perfetto.json");
        assert_eq!(traces_to_perfetto(&sample_traces()), perfetto);
        assert_eq!(traces_from_perfetto(perfetto).unwrap(), sample_traces());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(from_prometheus("volap_x_total 5").is_err(), "sample before TYPE");
        assert!(from_prometheus("# TYPE volap_x_total counter\nvolap_x_total five").is_err());
        assert!(from_json("{").is_err());
        assert!(from_json("{}").is_err(), "missing keys");
        assert!(from_json(&(to_json(&sample_snapshot()) + "x")).is_err(), "trailing bytes");
    }

    fn sample_traces() -> Vec<Trace> {
        vec![
            Trace {
                trace_id: 7,
                spans: vec![
                    SpanRecord {
                        trace_id: 7,
                        span_id: 1,
                        parent_span_id: 0,
                        name: "server_route".into(),
                        start_us: 10,
                        end_us: 90,
                        annotations: vec![("server".into(), "s0".into())],
                    },
                    SpanRecord {
                        trace_id: 7,
                        span_id: 2,
                        parent_span_id: 1,
                        name: "net_hop".into(),
                        start_us: 12,
                        end_us: 80,
                        annotations: vec![("dest".into(), "w \"quoted\"\n1".into())],
                    },
                ],
            },
            Trace {
                trace_id: 9,
                spans: vec![SpanRecord {
                    trace_id: 9,
                    span_id: 3,
                    parent_span_id: 0,
                    name: "op".into(),
                    start_us: 100,
                    end_us: 100,
                    annotations: Vec::new(),
                }],
            },
        ]
    }

    #[test]
    fn perfetto_round_trip_is_lossless() {
        let traces = sample_traces();
        let text = traces_to_perfetto(&traces);
        let back = traces_from_perfetto(&text).unwrap();
        assert_eq!(back, traces);
    }

    #[test]
    fn malformed_perfetto_is_rejected() {
        assert!(traces_from_perfetto("{").is_err());
        assert!(traces_from_perfetto("{\"traceEvents\": [{\"ph\": \"B\"}]}").is_err());
        let good = traces_to_perfetto(&sample_traces());
        assert!(traces_from_perfetto(&(good.clone() + "x")).is_err(), "trailing bytes");
        // A corrupted duration must not pass the dur/ts consistency check.
        let bad = good.replace("\"dur\": 80", "\"dur\": 81");
        assert!(traces_from_perfetto(&bad).is_err());
    }
}
