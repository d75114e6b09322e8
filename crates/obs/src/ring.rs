//! The bounded, per-thread-sharded ring behind the event log, the audit
//! trail and the span collector.
//!
//! Writers append to **per-thread ring shards**: each thread is assigned a
//! fixed shard (by a cached thread ordinal), so in steady state a shard's
//! mutex is touched by exactly one writer and is uncontended — the cost of
//! recording is an uncontended lock, a `VecDeque` push, and at capacity a
//! pop of the oldest entry. Readers merge all shards on demand and restore
//! a global order by a key of the caller's choosing (the shared sequence
//! number every record is stamped with, or a timestamp). Overflow drops the
//! *oldest* entries per shard and is counted, so a reader always knows how
//! much history it is missing: `recorded − dropped == retained`.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of ring shards. Threads map onto shards by ordinal; with the
/// handful of service threads a simulated cluster runs, collisions are rare
/// and harmless (the shard mutex is still only briefly held).
pub(crate) const SHARDS: usize = 16;

static NEXT_THREAD_ORDINAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> =
        Cell::new(NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed));
}

/// This thread's cached ordinal — the ring's shard key, and the thread
/// identity lock-order violations report.
pub(crate) fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|o| o.get())
}

/// A bounded ring retaining roughly `capacity` entries across its shards.
pub(crate) struct Ring<T> {
    seq: AtomicU64,
    dropped: AtomicU64,
    shards: Vec<Mutex<VecDeque<T>>>,
    cap_per_shard: usize,
}

impl<T: Clone> Ring<T> {
    /// A ring of `capacity / 16` slots per shard, at least 4.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            cap_per_shard: (capacity / SHARDS).max(4),
        }
    }

    /// Append the entry `make` builds from the next global sequence number,
    /// evicting this thread's shard's oldest entry when it is full.
    pub(crate) fn push(&self, make: impl FnOnce(u64) -> T) {
        let entry = make(self.seq.fetch_add(1, Ordering::Relaxed));
        let slot = thread_ordinal() % SHARDS;
        let mut ring = self.shards[slot].lock().unwrap();
        if ring.len() >= self.cap_per_shard {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    /// Entries ever pushed.
    pub(crate) fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Entries evicted by overflow.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every retained entry `keep` accepts, merged across shards and sorted
    /// by `key`.
    pub(crate) fn collect<K: Ord>(
        &self,
        keep: impl Fn(&T) -> bool,
        key: impl FnMut(&T) -> K,
    ) -> Vec<T> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().unwrap().iter().filter(|e| keep(e)).cloned());
        }
        all.sort_by_key(key);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(seq, payload)` entries, merged in sequence order.
    fn merged(ring: &Ring<(u64, String)>) -> Vec<(u64, String)> {
        ring.collect(|_| true, |e| e.0)
    }

    #[test]
    fn records_in_order_and_bounds_memory() {
        let ring = Ring::new(64);
        for i in 0..200 {
            ring.push(|seq| (seq, format!("i={i}")));
        }
        let all = merged(&ring);
        assert!(all.len() <= 200);
        assert_eq!(ring.recorded(), 200);
        assert_eq!(ring.recorded() - ring.dropped(), all.len() as u64);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "merge is sequence-ordered");
        }
        // Single-threaded writers land in one shard: the newest entries win.
        assert_eq!(all.last().unwrap(), &(199, "i=199".to_string()));
    }

    #[test]
    fn concurrent_writers_merge() {
        let ring = Ring::new(100_000);
        std::thread::scope(|s| {
            for t in 0..8 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..500 {
                        ring.push(|seq| (seq, format!("t={t} i={i}")));
                    }
                });
            }
        });
        let all = merged(&ring);
        assert_eq!(all.len(), 4000, "nothing dropped below capacity");
        assert_eq!(ring.recorded() - ring.dropped(), 4000);
        let seqs: Vec<u64> = all.iter().map(|e| e.0).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4000, "sequence numbers are unique");
        assert_eq!(seqs, sorted, "merge is globally ordered");
    }
}
