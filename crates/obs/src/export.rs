//! Exporters: Prometheus-style text exposition and a JSON document, each
//! with a parser so snapshots **round-trip** — `volap-stat` and CI validate
//! output by re-parsing it, and tests assert exact equality.
//!
//! Floating-point values are written with Rust's shortest-round-trip
//! `Display`, so `parse::<f64>()` recovers them bit-exactly; `u64` counters
//! are written as integers and never pass through `f64`.

use crate::json::{self, Record};
use crate::registry::{HistogramSnapshot, MetricId, ScalarSnapshot};
use crate::snapshot::Snapshot;

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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
/// Renders [`Snapshot::metrics_only`], so capture time and uptime appear as
/// the synthetic `volap_captured_unix_microseconds` /
/// `volap_uptime_microseconds` gauges.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let snap = snap.metrics_only();
    let mut out = String::new();
    let mut last = None;
    for c in &snap.counters {
        type_line(&mut out, &mut last, &c.id.name, "counter");
        out.push_str(&format!(
            "{}{} {}\n",
            c.id.name,
            label_block(&c.id, None),
            c.value
        ));
    }
    for g in &snap.gauges {
        type_line(&mut out, &mut last, &g.id.name, "gauge");
        out.push_str(&format!(
            "{}{} {}\n",
            g.id.name,
            label_block(&g.id, None),
            g.value
        ));
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
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("unclosed label block: {s}"))?;
            let mut labels = Vec::new();
            let body = &rest[..close];
            let mut i = 0;
            let bytes = body.as_bytes();
            while i < bytes.len() {
                let eq = body[i..]
                    .find('=')
                    .ok_or_else(|| format!("bad label in {s}"))?
                    + i;
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
        let sp = line
            .rfind(' ')
            .ok_or_else(|| format!("no value on line: {line}"))?;
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
            let id = MetricId {
                name: base,
                label: id_labels.into_iter().next(),
            };
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
                    let count: u64 = value
                        .parse()
                        .map_err(|e| format!("bad bucket count {value}: {e}"))?;
                    if le != "+Inf" {
                        let le: f64 = le.parse().map_err(|e| format!("bad le {le}: {e}"))?;
                        slot.buckets.push((le, count));
                    }
                }
                "_sum" => {
                    slot.sum_seconds =
                        value.parse().map_err(|e| format!("bad sum {value}: {e}"))?;
                }
                "_count" => {
                    slot.count = value
                        .parse()
                        .map_err(|e| format!("bad count {value}: {e}"))?;
                }
                _ => unreachable!(),
            }
            continue;
        }

        if labels.len() > 1 {
            return Err(format!("more than one label on {line}"));
        }
        let id = MetricId {
            name: full_name.clone(),
            label: labels.into_iter().next(),
        };
        match types.get(&full_name).map(String::as_str) {
            Some("counter") => snap.counters.push(ScalarSnapshot {
                id,
                value: value
                    .parse()
                    .map_err(|e| format!("bad counter {value}: {e}"))?,
            }),
            Some("gauge") => snap.gauges.push(ScalarSnapshot {
                id,
                value: value
                    .parse()
                    .map_err(|e| format!("bad gauge {value}: {e}"))?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::BalanceDecision;
    use crate::events::Event;
    use crate::staleness::StalenessSnapshot;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            captured_unix_us: 1_754_000_000_123_456,
            uptime_us: 9_876_543,
            counters: vec![
                ScalarSnapshot {
                    id: MetricId::plain("volap_a_total"),
                    value: 3,
                },
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
            staleness: StalenessSnapshot {
                count: 2,
                samples_seconds: vec![0.001, 0.25],
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
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(
            from_prometheus("volap_x_total 5").is_err(),
            "sample before TYPE"
        );
        assert!(from_prometheus("# TYPE volap_x_total counter\nvolap_x_total five").is_err());
        assert!(from_json("{").is_err());
        assert!(from_json("{}").is_err(), "missing keys");
        assert!(
            from_json(&(to_json(&sample_snapshot()) + "x")).is_err(),
            "trailing bytes"
        );
    }
}
