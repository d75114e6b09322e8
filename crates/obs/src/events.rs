//! A bounded ring-buffer log for structured events.
//!
//! Writers append to **per-thread ring shards**: each thread is assigned a
//! fixed shard (by a cached thread ordinal), so in steady state a shard's
//! mutex is touched by exactly one writer and is uncontended — the cost of
//! recording an event is an uncontended lock, a `VecDeque` push, and at
//! capacity a pop of the oldest entry. Readers merge all shards on
//! [`EventLog::snapshot`], restoring global order via a shared sequence
//! counter. Overflow drops the *oldest* events per shard and is counted, so
//! a snapshot always says how much history it is missing.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::{ascending, Row};

/// Number of ring shards. Threads map onto shards by ordinal; with the
/// handful of service threads a simulated cluster runs, collisions are rare
/// and harmless (the shard mutex is still only briefly held).
const SHARDS: usize = 16;

static NEXT_THREAD_ORDINAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> =
        Cell::new(NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed));
}

/// This thread's cached ordinal — shared with the span collector so both
/// rings shard writers the same way.
pub(crate) fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|o| o.get())
}

crate::record! {
    /// One recorded event.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Event {
        /// Global sequence number (total order across threads).
        seq: u64,
        /// Microseconds since the log's epoch (creation time).
        ts_us: u64,
        /// Event kind, e.g. `"shard_split"`.
        kind: String,
        /// Free-form `key=value` detail string.
        detail: String,
    }
}

impl Row for Event {
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        ascending(prev.map(|p| p.seq), self.seq, "event seq")
    }
}

struct EventLogInner {
    epoch: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    /// Per-shard bounded rings.
    shards: Vec<Mutex<VecDeque<Event>>>,
    cap_per_shard: usize,
}

/// The event log. Cheap to clone (shared).
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<EventLogInner>,
}

impl EventLog {
    /// A log retaining roughly `capacity` events in total.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(EventLogInner {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
                cap_per_shard: (capacity / SHARDS).max(4),
            }),
        }
    }

    /// Record one event.
    pub fn record(&self, kind: &str, detail: String) {
        let inner = &*self.inner;
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let slot = thread_ordinal() % SHARDS;
        let mut ring = inner.shards[slot].lock().unwrap();
        if ring.len() >= inner.cap_per_shard {
            ring.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Event { seq, ts_us, kind: kind.to_string(), detail });
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Events evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Merge every shard into one sequence-ordered view.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for shard in &self.inner.shards {
            all.extend(shard.lock().unwrap().iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_bounds_memory() {
        let log = EventLog::new(64);
        for i in 0..200 {
            log.record("tick", format!("i={i}"));
        }
        let events = log.snapshot();
        assert!(events.len() <= 200);
        assert_eq!(log.recorded(), 200);
        assert_eq!(log.recorded() - log.dropped(), events.len() as u64);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq, "snapshot is sequence-ordered");
        }
        // Single-threaded writers land in one shard: the newest events win.
        assert_eq!(events.last().unwrap().detail, "i=199");
    }

    #[test]
    fn concurrent_writers_merge() {
        let log = EventLog::new(100_000);
        std::thread::scope(|s| {
            for t in 0..8 {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        log.record("w", format!("t={t} i={i}"));
                    }
                });
            }
        });
        let events = log.snapshot();
        assert_eq!(events.len(), 4000, "nothing dropped below capacity");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4000, "sequence numbers are unique");
        assert_eq!(seqs, sorted, "snapshot is globally ordered");
    }
}
