//! Spans recorded by the benchmark around its own calls into each layer.
//! They live in a preallocated `Vec` and are written out after the clock
//! stops; nothing inside the program is instrumented.

use std::collections::HashMap;
use std::io::Write;

/// One timed call. Spans of one client operation share its root: `parent` is
/// the id of the span that caused this one, 0 for the client call itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A session's spans. Full means dropped, never reallocated: a reallocation
/// in the middle of a run would be charged to whichever call came next.
pub struct SpanLog {
    spans: Vec<Span>,
    next_id: u64,
    pub dropped: u64,
}

impl SpanLog {
    /// `lane` keeps ids of different sessions apart.
    pub fn with_capacity(capacity: usize, lane: u64) -> Self {
        SpanLog {
            spans: Vec::with_capacity(capacity),
            next_id: (lane << 48) + 1,
            dropped: 0,
        }
    }

    pub fn push(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the durations of the spans it
/// caused, floored at 0. Child spans here are replays made after the parent
/// returned, so they are subtracted by duration, not by overlap in time.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.dur_ns()
                    .saturating_sub(children.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Mean self time per span name over the operations that were replayed, that
/// is, over roots that have children, and their descendants.
pub fn mean_self_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let selfs = self_times(spans);
    let replayed: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| s.parent)
        .collect();
    let roots = spans
        .iter()
        .filter(|s| s.parent == 0 && replayed.contains(&s.id))
        .count()
        .max(1) as f64;
    let mut sums: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        if s.parent != 0 || replayed.contains(&s.id) {
            *sums.entry(s.name).or_default() += selfs[&s.id] as f64;
        }
    }
    sums.into_iter().map(|(k, v)| (k, v / roots)).collect()
}

/// One JSON object per line: `name, start, end, id, parent` (nanoseconds
/// since the measured phase began).
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"id\":{},\"parent\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_spans_a_span_caused() {
        let mut log = SpanLog::with_capacity(16, 1);
        // client 100 µs ⊃ worker 40 µs ⊃ tree 10 µs; plus a 5 µs codec probe.
        let root = log.push(0, "client", 0, 100_000);
        let worker = log.push(root, "worker", 200_000, 240_000);
        let tree = log.push(worker, "tree", 300_000, 310_000);
        let proto = log.push(root, "proto", 400_000, 405_000);
        // An operation that was not replayed: a root with no children.
        let bare = log.push(0, "client", 500_000, 600_000);
        let spans = log.into_spans();
        let selfs = self_times(&spans);
        assert_eq!(selfs[&root], 55_000);
        assert_eq!(selfs[&worker], 30_000);
        assert_eq!(selfs[&tree], 10_000);
        assert_eq!(selfs[&proto], 5_000);
        assert_eq!(selfs[&bare], 100_000);
        // Self times of one replayed operation add up to its client span.
        assert_eq!(
            selfs[&root] + selfs[&worker] + selfs[&tree] + selfs[&proto],
            100_000
        );
        let by_name = mean_self_by_name(&spans);
        assert_eq!(
            by_name["client"], 55_000.0,
            "the bare root is left out of the budget"
        );
        assert_eq!(by_name["tree"], 10_000.0);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let mut log = SpanLog::with_capacity(4, 0);
        let root = log.push(0, "client", 0, 10);
        log.push(root, "worker", 20, 50);
        assert_eq!(self_times(&log.into_spans())[&root], 0);
    }

    #[test]
    fn a_full_log_drops_and_counts() {
        let mut log = SpanLog::with_capacity(1, 2);
        let a = log.push(0, "client", 0, 1);
        let b = log.push(0, "client", 1, 2);
        assert_ne!(a, b);
        assert_eq!(a >> 48, 2);
        assert_eq!(log.dropped, 1);
        assert_eq!(log.into_spans().len(), 1);
    }
}
