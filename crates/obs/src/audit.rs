//! A bounded audit trail of load-balance decisions.
//!
//! Every manager action — orphan reap, shard split, migration — is recorded
//! as one structured [`BalanceDecision`]: the inputs that drove it (shard
//! sizes, heat rates, thresholds), the chosen action, the resulting shard
//! ids, and the outcome with its duration. The ring uses the same
//! per-thread-shard design as [`crate::events::EventLog`] (uncontended
//! mutex per writer thread, global sequencing, counted oldest-first
//! eviction), so a snapshot always knows how much history it is missing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::events::thread_ordinal;
use crate::snapshot::{ascending, Row};

const SHARDS: usize = 16;

crate::record! {
    /// One recorded load-balance decision.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct BalanceDecision {
        /// Global sequence number (total order across threads).
        seq: u64,
        /// Microseconds since the log's epoch (creation time).
        ts_us: u64,
        /// Chosen action: `"split"`, `"migrate"`, or `"orphan_reap"`.
        action: String,
        /// The shard the decision acted on.
        shard: u64,
        /// Worker holding the shard when the decision fired.
        src: String,
        /// Destination worker (migrations) or empty.
        dest: String,
        /// The inputs that drove the decision, as ordered `(key, value)` pairs
        /// (shard sizes, thresholds, heat rates — values pre-rendered).
        inputs: Vec<(String, String)>,
        /// Shard ids that exist because of this decision (split halves; the
        /// moved shard for migrations).
        result_shards: Vec<u64>,
        /// `"ok"` or a short failure tag.
        outcome: String,
        /// Wall time the action took, start of decision to acknowledgement.
        duration_us: u64,
    }
}

impl Row for BalanceDecision {
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        ascending(prev.map(|p| p.seq), self.seq, "decision seq")
    }
}

struct AuditLogInner {
    epoch: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    shards: Vec<Mutex<VecDeque<BalanceDecision>>>,
    cap_per_shard: usize,
}

/// The audit ring. Cheap to clone (shared).
#[derive(Clone)]
pub struct AuditLog {
    inner: Arc<AuditLogInner>,
}

impl AuditLog {
    /// A ring retaining roughly `capacity` decisions in total.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(AuditLogInner {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
                cap_per_shard: (capacity / SHARDS).max(4),
            }),
        }
    }

    /// Record one decision. `seq` and `ts_us` are stamped here; whatever the
    /// caller put in those fields is overwritten.
    pub fn record(&self, mut decision: BalanceDecision) {
        let inner = &*self.inner;
        decision.seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        decision.ts_us = inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let slot = thread_ordinal() % SHARDS;
        let mut ring = inner.shards[slot].lock().unwrap();
        if ring.len() >= inner.cap_per_shard {
            ring.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(decision);
    }

    /// Total decisions ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Decisions evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Merge every shard into one sequence-ordered view.
    pub fn snapshot(&self) -> Vec<BalanceDecision> {
        let mut all = Vec::new();
        for shard in &self.inner.shards {
            all.extend(shard.lock().unwrap().iter().cloned());
        }
        all.sort_by_key(|d| d.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(shard: u64) -> BalanceDecision {
        BalanceDecision {
            action: "split".into(),
            shard,
            src: "worker-0".into(),
            inputs: vec![("len".into(), "21000".into()), ("max".into(), "20000".into())],
            result_shards: vec![shard + 100, shard + 101],
            outcome: "ok".into(),
            duration_us: 42,
            ..Default::default()
        }
    }

    #[test]
    fn records_in_order_and_bounds_memory() {
        let log = AuditLog::new(64);
        for i in 0..200 {
            log.record(decision(i));
        }
        let all = log.snapshot();
        assert!(all.len() <= 200);
        assert_eq!(log.recorded(), 200);
        assert_eq!(log.recorded() - log.dropped(), all.len() as u64);
        for w in all.windows(2) {
            assert!(w[0].seq < w[1].seq, "snapshot is sequence-ordered");
        }
        // Single-threaded writers land in one shard: the newest win, and the
        // caller-provided seq was overwritten by the ring's own stamp.
        assert_eq!(all.last().unwrap().shard, 199);
        assert_eq!(all.last().unwrap().seq, 199);
    }

    #[test]
    fn structured_fields_survive() {
        let log = AuditLog::new(16);
        log.record(decision(7));
        let d = &log.snapshot()[0];
        assert_eq!(d.action, "split");
        assert_eq!(d.inputs[1], ("max".to_string(), "20000".to_string()));
        assert_eq!(d.result_shards, vec![107, 108]);
        assert_eq!(d.outcome, "ok");
    }
}
