//! A bounded audit trail of load-balance decisions.
//!
//! Every manager action — orphan reap, shard split, migration — is recorded
//! as one structured [`BalanceDecision`]: the inputs that drove it (shard
//! sizes, thresholds), the chosen action, the resulting shard ids, and the
//! outcome with its duration. The decisions live in the same
//! `Ring` as the event log (uncontended per-thread shards, global
//! sequencing, counted oldest-first eviction), so a snapshot always knows
//! how much history it is missing.

use std::sync::Arc;
use std::time::Instant;

use crate::ring::Ring;
use crate::snapshot::{ascending, Row};

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
        /// (shard sizes, thresholds — values pre-rendered).
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
    ring: Ring<BalanceDecision>,
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
                ring: Ring::new(capacity),
            }),
        }
    }

    /// Record one decision. `seq` and `ts_us` are stamped here; whatever the
    /// caller put in those fields is overwritten.
    pub fn record(&self, decision: BalanceDecision) {
        let ts_us = self
            .inner
            .epoch
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        self.inner.ring.push(|seq| BalanceDecision {
            seq,
            ts_us,
            ..decision
        });
    }

    /// Total decisions ever recorded.
    pub fn recorded(&self) -> u64 {
        self.inner.ring.recorded()
    }

    /// Decisions evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.ring.dropped()
    }

    /// Merge every shard into one sequence-ordered view.
    pub fn snapshot(&self) -> Vec<BalanceDecision> {
        self.inner.ring.collect(|_| true, |d| d.seq)
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
            inputs: vec![
                ("len".into(), "21000".into()),
                ("max".into(), "20000".into()),
            ],
            result_shards: vec![shard + 100, shard + 101],
            outcome: "ok".into(),
            duration_us: 42,
            ..Default::default()
        }
    }

    #[test]
    fn structured_fields_survive() {
        let log = AuditLog::new(16);
        log.record(decision(6));
        log.record(BalanceDecision {
            seq: 99,
            ..decision(7)
        });
        let d = &log.snapshot()[1];
        assert_eq!(d.seq, 1, "the ring's own stamp overwrites the caller's seq");
        assert_eq!(d.action, "split");
        assert_eq!(d.inputs[1], ("max".to_string(), "20000".to_string()));
        assert_eq!(d.result_shards, vec![107, 108]);
        assert_eq!(d.outcome, "ok");
    }
}
