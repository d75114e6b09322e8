//! `QueryPlan`: the structured result of an ANALYZE'd query.
//!
//! The plan is a tree mirroring the execution: the routing server at the
//! root (which image leaves matched, the image generation and measured
//! staleness *at decision time*), one [`WorkerExec`] per contacted worker
//! (alias chases, scan fan-out width, wall time, plus nested
//! `WorkerExec`s for remote forwards chased through stale image windows),
//! and one [`ShardExec`] per scanned shard carrying the exact
//! [`QueryTrace`] traversal counters the tree layer measured — so per-shard
//! `pruned`/`nodes_visited`/`items_scanned` sums in a plan equal an
//! independently traced run of the same query over the same data.
//!
//! Plans have two encodings. The binary wire form rides the
//! `AggPlan`/`AggExec` responses; it is lossless, and its decoder rejects
//! malformed input. JSON is a write-only document for tooling, derived from
//! the `record!` declarations below like every `volap_obs` export.

use bytes::{Buf, BufMut};
use volap_obs::json::Field;
use volap_tree::QueryTrace;

use crate::wire::{self, WireError};

/// Remote-forward nesting bound: decode rejects deeper plans (a forward
/// chain this long means a routing loop, not a real execution).
const MAX_FORWARD_DEPTH: usize = 64;

volap_obs::record! {
    /// One shard's measured execution.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ShardExec {
        /// Shard id.
        shard: u64,
        /// Items stored in the shard when it was scanned.
        items: u64,
        /// Tree nodes whose lock was taken.
        nodes_visited: u64,
        /// Directory entries answered from the cached aggregate.
        covered_hits: u64,
        /// Rows held by the visited leaves, whether the scan tested them or a
        /// per-column range proof settled them wholesale.
        items_scanned: u64,
        /// Directory entries pruned (no overlap).
        pruned: u64,
        /// Wall time scanning this shard, microseconds.
        wall_us: u64,
    }
}

impl ShardExec {
    /// The traversal counters as a [`QueryTrace`].
    pub fn trace(&self) -> QueryTrace {
        QueryTrace {
            nodes_visited: self.nodes_visited,
            covered_hits: self.covered_hits,
            items_scanned: self.items_scanned,
            pruned: self.pruned,
        }
    }
}

volap_obs::record! {
    /// One worker's measured execution, possibly nesting remote forwards.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct WorkerExec {
        /// Worker name.
        worker: String,
        /// Shard ids the server asked this worker for (pre alias-chase).
        requested: Vec<u64>,
        /// Split/move aliases chased while resolving the requested shards.
        alias_chases: u32,
        /// Shards descended into side by side, one on the service thread
        /// and the rest on the worker's scan threads; `1` when the local
        /// shards were scanned one after another on the service thread
        /// (shards answered at their root always are), `0` when none were.
        fanout: u32,
        /// Wall time for the whole worker-side execution, microseconds.
        wall_us: u64,
        /// Shards scanned locally.
        shards: Vec<ShardExec>,
        /// Executions on other workers this one forwarded moved shards to.
        forwards: Vec<WorkerExec>,
    }
}

volap_obs::record! {
    /// The assembled plan for one ANALYZE'd query.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct QueryPlan {
        /// The server that routed the query.
        server: String,
        /// The server's image generation (applied image records) at routing
        /// time — join key against `route_miss`/`shard_adopt` events.
        image_generation: u64,
        /// Staleness samples the probe had measured when the route was chosen.
        staleness_samples: u64,
        /// p95 measured image staleness at routing time, microseconds.
        staleness_p95_us: u64,
        /// Image leaves (shard ids) the routing index matched, sorted.
        image_leaves: Vec<u64>,
        /// Time spent in the routing index, microseconds.
        route_us: u64,
        /// End-to-end server wall time, microseconds.
        wall_us: u64,
        /// Per-worker executions, sorted by worker name.
        workers: Vec<WorkerExec>,
    }
}

impl QueryPlan {
    /// Sum of every shard's traversal counters across the whole plan,
    /// forwards included.
    pub fn totals(&self) -> QueryTrace {
        let mut t = QueryTrace::default();
        for w in &self.workers {
            worker_totals(w, &mut t);
        }
        t
    }

    /// Every shard actually scanned (forwards included), sorted by id.
    pub fn executed_shards(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for w in &self.workers {
            collect_shards(w, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    /// Append the binary form to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        wire::put_str(buf, &self.server);
        buf.put_u64(self.image_generation);
        buf.put_u64(self.staleness_samples);
        buf.put_u64(self.staleness_p95_us);
        buf.put_u32(self.image_leaves.len() as u32);
        for &leaf in &self.image_leaves {
            buf.put_u64(leaf);
        }
        buf.put_u64(self.route_us);
        buf.put_u64(self.wall_us);
        buf.put_u32(self.workers.len() as u32);
        for w in &self.workers {
            encode_worker(w, buf);
        }
    }

    /// Decode from bytes, consuming from `buf`.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        let server = wire::get_str(buf)?;
        need(buf, 24, "plan stamps")?;
        let image_generation = buf.get_u64();
        let staleness_samples = buf.get_u64();
        let staleness_p95_us = buf.get_u64();
        need(buf, 4, "image leaf count")?;
        let n = buf.get_u32() as usize;
        need(buf, n * 8, "image leaves")?;
        let image_leaves = (0..n).map(|_| buf.get_u64()).collect();
        need(buf, 20, "plan timings")?;
        let route_us = buf.get_u64();
        let wall_us = buf.get_u64();
        let n = buf.get_u32() as usize;
        let mut workers = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            workers.push(decode_worker(buf, 0)?);
        }
        Ok(Self {
            server,
            image_generation,
            staleness_samples,
            staleness_p95_us,
            image_leaves,
            route_us,
            wall_us,
            workers,
        })
    }

    /// Decode a standalone encoding (rejects trailing bytes).
    pub fn decode(mut data: &[u8]) -> Result<Self, WireError> {
        let plan = Self::decode_from(&mut data)?;
        if !data.is_empty() {
            return Err(format!("{} trailing bytes after plan", data.len()));
        }
        Ok(plan)
    }

    /// Render as JSON, written by the writer derived from the record
    /// declarations above.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out.push('\n');
        out
    }

    /// Pretty-print the plan as an indented execution tree.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: routed {} image leaf(s) {:?} in {} us (image gen {}, staleness p95 {} us \
             over {} sample(s)); total {} us\n",
            self.server,
            self.image_leaves.len(),
            self.image_leaves,
            self.route_us,
            self.image_generation,
            self.staleness_p95_us,
            self.staleness_samples,
            self.wall_us
        );
        for w in &self.workers {
            render_worker(w, 1, &mut out);
        }
        out
    }
}

impl WorkerExec {
    /// Append the binary form to `buf` (nested inside plan and `AggExec`
    /// encodings).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_worker(self, buf);
    }

    /// Decode one worker execution, consuming from `buf`.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        decode_worker(buf, 0)
    }
}

fn need(buf: &&[u8], n: usize, what: &str) -> Result<(), WireError> {
    if buf.len() < n {
        Err(format!(
            "truncated plan: need {n} bytes for {what}, have {}",
            buf.len()
        ))
    } else {
        Ok(())
    }
}

fn worker_totals(w: &WorkerExec, t: &mut QueryTrace) {
    for s in &w.shards {
        t.merge(&s.trace());
    }
    for f in &w.forwards {
        worker_totals(f, t);
    }
}

fn collect_shards(w: &WorkerExec, out: &mut Vec<u64>) {
    out.extend(w.shards.iter().map(|s| s.shard));
    for f in &w.forwards {
        collect_shards(f, out);
    }
}

fn encode_worker(w: &WorkerExec, buf: &mut Vec<u8>) {
    wire::put_str(buf, &w.worker);
    buf.put_u32(w.requested.len() as u32);
    for &s in &w.requested {
        buf.put_u64(s);
    }
    buf.put_u32(w.alias_chases);
    buf.put_u32(w.fanout);
    buf.put_u64(w.wall_us);
    buf.put_u32(w.shards.len() as u32);
    for s in &w.shards {
        buf.put_u64(s.shard);
        buf.put_u64(s.items);
        buf.put_u64(s.nodes_visited);
        buf.put_u64(s.covered_hits);
        buf.put_u64(s.items_scanned);
        buf.put_u64(s.pruned);
        buf.put_u64(s.wall_us);
    }
    buf.put_u32(w.forwards.len() as u32);
    for f in &w.forwards {
        encode_worker(f, buf);
    }
}

fn decode_worker(buf: &mut &[u8], depth: usize) -> Result<WorkerExec, WireError> {
    if depth > MAX_FORWARD_DEPTH {
        return Err(format!("plan forward nesting exceeds {MAX_FORWARD_DEPTH}"));
    }
    let worker = wire::get_str(buf)?;
    need(buf, 4, "requested count")?;
    let n = buf.get_u32() as usize;
    need(buf, n * 8, "requested shards")?;
    let requested = (0..n).map(|_| buf.get_u64()).collect();
    need(buf, 20, "worker stats")?;
    let alias_chases = buf.get_u32();
    let fanout = buf.get_u32();
    let wall_us = buf.get_u64();
    let n = buf.get_u32() as usize;
    need(buf, n * 56, "shard executions")?;
    let shards = (0..n)
        .map(|_| ShardExec {
            shard: buf.get_u64(),
            items: buf.get_u64(),
            nodes_visited: buf.get_u64(),
            covered_hits: buf.get_u64(),
            items_scanned: buf.get_u64(),
            pruned: buf.get_u64(),
            wall_us: buf.get_u64(),
        })
        .collect();
    need(buf, 4, "forward count")?;
    let n = buf.get_u32() as usize;
    let mut forwards = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        forwards.push(decode_worker(buf, depth + 1)?);
    }
    Ok(WorkerExec {
        worker,
        requested,
        alias_chases,
        fanout,
        wall_us,
        shards,
        forwards,
    })
}

fn render_worker(w: &WorkerExec, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!(
        "{pad}{}: requested {:?}, {} alias chase(s), fanout {}, {} us\n",
        w.worker, w.requested, w.alias_chases, w.fanout, w.wall_us
    ));
    for s in &w.shards {
        out.push_str(&format!(
            "{pad}  shard {} ({} items): visited {}, covered {}, scanned {}, pruned {}, {} us\n",
            s.shard, s.items, s.nodes_visited, s.covered_hits, s.items_scanned, s.pruned, s.wall_us
        ));
    }
    for f in &w.forwards {
        render_worker(f, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> QueryPlan {
        QueryPlan {
            server: "server \"0\"\n".into(),
            image_generation: 7,
            staleness_samples: 3,
            staleness_p95_us: 1500,
            image_leaves: vec![1, 2, 9],
            route_us: 12,
            wall_us: 480,
            workers: vec![
                WorkerExec {
                    worker: "worker-0".into(),
                    requested: vec![1, 9],
                    alias_chases: 1,
                    fanout: 2,
                    wall_us: 300,
                    shards: vec![
                        ShardExec {
                            shard: 1,
                            items: 100,
                            nodes_visited: 10,
                            covered_hits: 3,
                            items_scanned: 40,
                            pruned: 5,
                            wall_us: 80,
                        },
                        ShardExec {
                            shard: 12,
                            items: u64::MAX,
                            ..Default::default()
                        },
                    ],
                    forwards: vec![WorkerExec {
                        worker: "worker-1".into(),
                        requested: vec![9],
                        fanout: 1,
                        wall_us: 90,
                        shards: vec![ShardExec {
                            shard: 9,
                            items: 5,
                            nodes_visited: 1,
                            items_scanned: 5,
                            ..Default::default()
                        }],
                        ..Default::default()
                    }],
                },
                WorkerExec {
                    worker: "worker-2".into(),
                    requested: vec![2],
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let plan = sample_plan();
        assert_eq!(QueryPlan::decode(&plan.encode()).unwrap(), plan);
    }

    /// `tests/golden/plan.json` holds the bytes the writer produces for
    /// `sample_plan()`; any change to them is a format change.
    #[test]
    fn json_golden_is_reproduced_byte_for_byte() {
        let golden = include_str!("../../../tests/golden/plan.json");
        assert_eq!(sample_plan().to_json(), golden);
    }

    /// The plan decoder and the standalone worker decoder (an `AggExec`
    /// reply's) both bound the forward nesting.
    #[test]
    fn both_decoders_reject_runaway_forward_chains() {
        let chain = |levels: usize| {
            let mut w = WorkerExec::default();
            for _ in 0..levels {
                w = WorkerExec {
                    forwards: vec![w],
                    ..Default::default()
                };
            }
            w
        };
        let plan = |w: WorkerExec| QueryPlan {
            workers: vec![w],
            ..Default::default()
        };
        let worker = |w: &WorkerExec| {
            let mut buf = Vec::new();
            w.encode_into(&mut buf);
            WorkerExec::decode_from(&mut buf.as_slice())
        };
        let deepest = chain(MAX_FORWARD_DEPTH);
        assert_eq!(worker(&deepest).unwrap(), deepest);
        let deepest = plan(deepest);
        assert_eq!(QueryPlan::decode(&deepest.encode()).unwrap(), deepest);
        let runaway = chain(MAX_FORWARD_DEPTH + 1);
        assert!(worker(&runaway).is_err());
        assert!(QueryPlan::decode(&plan(runaway).encode()).is_err());
    }

    #[test]
    fn totals_sum_over_forwards() {
        let t = sample_plan().totals();
        assert_eq!(t.nodes_visited, 11);
        assert_eq!(t.covered_hits, 3);
        assert_eq!(t.items_scanned, 45);
        assert_eq!(t.pruned, 5);
    }

    #[test]
    fn executed_shards_are_sorted_and_include_forwards() {
        assert_eq!(sample_plan().executed_shards(), vec![1, 9, 12]);
    }

    #[test]
    fn malformed_encodings_are_rejected() {
        let good = sample_plan().encode();
        for cut in 0..good.len() {
            assert!(
                QueryPlan::decode(&good[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(
            QueryPlan::decode(&padded).is_err(),
            "trailing bytes must fail"
        );
    }

    #[test]
    fn render_names_every_shard() {
        let text = sample_plan().render();
        for needle in ["shard 1 ", "shard 12 ", "shard 9 ", "fanout 2"] {
            assert!(text.contains(needle), "render missing {needle:?}:\n{text}");
        }
    }
}
