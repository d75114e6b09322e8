//! A bounded ring-buffer log for structured events.
//!
//! Events land in a [`Ring`]: per-thread shards, so recording is an
//! uncontended lock and a push, merged back into global sequence order on
//! [`EventLog::snapshot`]. Overflow drops the *oldest* events per shard and
//! is counted, so a snapshot always says how much history it is missing.

use std::sync::Arc;
use std::time::Instant;

use crate::ring::Ring;
use crate::snapshot::{ascending, Row};

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
    ring: Ring<Event>,
}

/// The event log. Cheap to clone (shared).
#[derive(Clone)]
pub struct EventLog {
    inner: Arc<EventLogInner>,
}

impl EventLog {
    /// A log retaining roughly `capacity` events in total.
    pub fn new(capacity: usize) -> Self {
        Self { inner: Arc::new(EventLogInner { epoch: Instant::now(), ring: Ring::new(capacity) }) }
    }

    /// Record one event.
    pub fn record(&self, kind: &str, detail: String) {
        let ts_us = self.inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.inner.ring.push(|seq| Event { seq, ts_us, kind: kind.to_string(), detail });
    }

    /// Total events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.ring.recorded()
    }

    /// Events evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.ring.dropped()
    }

    /// Merge every shard into one sequence-ordered view.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.ring.collect(|_| true, |e| e.seq)
    }
}
