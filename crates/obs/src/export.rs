//! Exporters: Prometheus-style text exposition and a JSON document. Both
//! are write-only; their bytes are pinned by the golden files in
//! `tests/golden/`.
//!
//! Floating-point values are written with Rust's shortest-round-trip
//! `Display`, so a reader's `parse::<f64>()` recovers them bit-exactly;
//! `u64` counters are written as integers and never pass through `f64`.

use crate::json::Record;
use crate::registry::{MetricId, ScalarSnapshot};
use crate::snapshot::Snapshot;

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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

/// Render the metric part of a snapshot (counters, gauges, histograms) as
/// Prometheus text exposition. Capture time and uptime appear as the
/// synthetic `volap_captured_unix_microseconds` / `volap_uptime_microseconds`
/// gauges, sorted in among the others; no other section has an exposition
/// form.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut gauges = snap.gauges.clone();
    for (name, value) in [
        ("volap_captured_unix_microseconds", snap.captured_unix_us),
        ("volap_uptime_microseconds", snap.uptime_us),
    ] {
        gauges.push(ScalarSnapshot {
            id: MetricId::plain(name),
            value: value as i64,
        });
    }
    gauges.sort_by(|a, b| a.id.cmp(&b.id));
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
    for g in &gauges {
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

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Render a full snapshot — every section of [`crate::snapshot`] — as JSON,
/// one top-level member per line. The writer is derived from the record
/// declarations.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n  ");
    snap.write_members(&mut out, ",\n  ");
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::BalanceDecision;
    use crate::events::Event;
    use crate::registry::HistogramSnapshot;
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
                ScalarSnapshot {
                    id: MetricId::labeled("volap_c_total", "worker", "w \"q\" \\b\nn\tt\u{1}"),
                    value: 7,
                },
            ],
            gauges: vec![
                ScalarSnapshot {
                    id: MetricId::labeled("volap_depth", "worker", "w-1"),
                    value: -17,
                },
                ScalarSnapshot {
                    id: MetricId::plain("volap_floor"),
                    value: i64::MIN,
                },
            ],
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
                detail: "shard=1 \"quoted\"\nline\ttab \\back \u{1}ctl".into(),
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
                count: 3,
                samples_seconds: vec![0.001, 0.25, 0.1 + 0.2],
            },
        }
    }

    /// `tests/golden/` holds the bytes these exporters produce for the
    /// fixture above; any change to them is a format change.
    #[test]
    fn goldens_are_reproduced_byte_for_byte() {
        let snap = sample_snapshot();
        assert_eq!(
            to_json(&snap),
            include_str!("../tests/golden/snapshot.json")
        );
        assert_eq!(
            to_prometheus(&snap),
            include_str!("../tests/golden/snapshot.prom")
        );
    }

    /// The exposition format escapes exactly `\`, `"` and newline in a
    /// label value; every other character, control characters included,
    /// passes through.
    #[test]
    fn label_escape_table() {
        for (raw, escaped) in [
            ("server-0", "server-0"),
            ("\"", "\\\""),
            ("\\", "\\\\"),
            ("\n", "\\n"),
            ("\t", "\t"),
            ("\r", "\r"),
            ("\u{1}", "\u{1}"),
            ("\u{e9}\u{4e16}", "\u{e9}\u{4e16}"),
            ("a\\\"b\n", "a\\\\\\\"b\\n"),
        ] {
            assert_eq!(escape_label(raw), escaped, "escape_label({raw:?})");
        }
    }
}
