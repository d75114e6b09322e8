//! Request/response protocol between clients, servers, workers and the
//! manager.

use bytes::{Buf, BufMut};
use volap_dims::{Aggregate, Item, QueryBox, Schema};

use crate::image::ShardRecord;
use crate::plan::{QueryPlan, WorkerExec};
use crate::wire::{self, WireError};

/// A request message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Worker: insert an item into a shard.
    Insert {
        /// Target shard.
        shard: u64,
        /// The item.
        item: Item,
    },
    /// Worker: bulk-insert items into a shard.
    BulkInsert {
        /// Target shard.
        shard: u64,
        /// The items.
        items: Vec<Item>,
    },
    /// Worker: aggregate `query` over the listed local shards.
    Query {
        /// Shards to search.
        shards: Vec<u64>,
        /// The query box.
        query: QueryBox,
    },
    /// Worker: split a shard into two new shards (manager-initiated).
    SplitShard {
        /// Shard to split.
        shard: u64,
        /// ID for the left half.
        left_id: u64,
        /// ID for the right half.
        right_id: u64,
    },
    /// Worker: migrate a shard to another worker (manager-initiated).
    Migrate {
        /// Shard to move.
        shard: u64,
        /// Destination worker endpoint.
        dest: String,
    },
    /// Worker: adopt a serialized shard (sent by the migration source).
    Adopt {
        /// Shard ID.
        shard: u64,
        /// Serialized shard blob.
        blob: Vec<u8>,
    },
    /// Server: client-facing insert.
    ClientInsert {
        /// The item.
        item: Item,
        /// Interned accounting principal (0 = untagged).
        principal: u32,
    },
    /// Server: client-facing bulk ingestion — the batch is routed in one
    /// pass and shipped to workers as per-shard bulk inserts (the system
    /// path behind the paper's 400 k items/s claim).
    ClientBulkInsert {
        /// The items.
        items: Vec<Item>,
        /// Interned accounting principal (0 = untagged).
        principal: u32,
    },
    /// Server: client-facing aggregate query.
    ClientQuery {
        /// The query box.
        query: QueryBox,
        /// Interned accounting principal (0 = untagged).
        principal: u32,
    },
    /// Server: client-facing ANALYZE'd query — same routing and execution
    /// as [`Request::ClientQuery`], answered with the assembled
    /// [`QueryPlan`] alongside the aggregate.
    ClientQueryAnalyze {
        /// The query box.
        query: QueryBox,
        /// Interned accounting principal (0 = untagged).
        principal: u32,
    },
    /// Worker: like [`Request::Query`] but returning per-shard execution
    /// stats ([`WorkerExec`]) alongside the aggregate.
    QueryAnalyze {
        /// Shards to search.
        shards: Vec<u64>,
        /// The query box.
        query: QueryBox,
    },
    /// Worker: report per-shard statistics.
    GetWorkerStats,
    /// Liveness probe.
    Ping,
}

/// A response message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success without payload.
    Ack,
    /// Aggregate result.
    Agg {
        /// The aggregate.
        agg: Aggregate,
        /// How many shards were searched (Figure 9b's metric).
        shards_searched: u32,
    },
    /// Split finished; the two replacement shard records.
    SplitDone {
        /// Left half.
        left: ShardRecord,
        /// Right half.
        right: ShardRecord,
    },
    /// Worker statistics.
    WorkerStats {
        /// One record per local shard.
        shards: Vec<ShardRecord>,
    },
    /// Aggregate result with the assembled query plan (server → client,
    /// answers [`Request::ClientQueryAnalyze`]).
    AggPlan {
        /// The aggregate.
        agg: Aggregate,
        /// How many shards were searched.
        shards_searched: u32,
        /// The assembled execution plan.
        plan: QueryPlan,
    },
    /// Aggregate result with this worker's execution stats (worker →
    /// server, answers [`Request::QueryAnalyze`]).
    AggExec {
        /// The aggregate.
        agg: Aggregate,
        /// How many shards were searched.
        shards_searched: u32,
        /// The worker-side execution record.
        exec: WorkerExec,
    },
    /// Failure with explanation.
    Err(String),
}

const T_INSERT: u8 = 1;
const T_BULK: u8 = 2;
const T_QUERY: u8 = 3;
const T_SPLIT: u8 = 4;
const T_MIGRATE: u8 = 5;
const T_ADOPT: u8 = 6;
const T_CINSERT: u8 = 7;
const T_CQUERY: u8 = 8;
const T_STATS: u8 = 9;
const T_PING: u8 = 10;
const T_CBULK: u8 = 11;
const T_CANALYZE: u8 = 12;
const T_QANALYZE: u8 = 13;

const R_ACK: u8 = 101;
const R_AGG: u8 = 102;
const R_SPLIT: u8 = 103;
const R_WSTATS: u8 = 104;
const R_ERR: u8 = 105;
const R_AGGPLAN: u8 = 106;
const R_AGGEXEC: u8 = 107;

/// Exact wire size of one item (see `wire::put_item`).
fn item_wire_len(dims: usize) -> usize {
    2 + dims * 8 + 8
}

/// Decode the trailing principal tag every client op carries.
fn get_principal(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.len() < 4 {
        return Err("truncated principal tag".into());
    }
    Ok(buf.get_u32())
}

impl Request {
    /// The worker query over `shards`: [`Request::QueryAnalyze`] when the
    /// sender wants the execution stats back, else [`Request::Query`].
    pub(crate) fn worker_query(shards: Vec<u64>, query: QueryBox, want_plan: bool) -> Self {
        if want_plan {
            Request::QueryAnalyze { shards, query }
        } else {
            Request::Query { shards, query }
        }
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        // Bulk payloads dominate the ingest path; size them exactly up
        // front so encoding a large batch never reallocates mid-stream.
        let cap = match self {
            Request::BulkInsert { items, .. } | Request::ClientBulkInsert { items, .. } => {
                17 + items.len() * items.first().map_or(0, |it| item_wire_len(it.coords.len()))
            }
            Request::Adopt { blob, .. } => 13 + blob.len(),
            _ => 32,
        };
        let mut buf = Vec::with_capacity(cap);
        match self {
            Request::Insert { shard, item } => {
                buf.put_u8(T_INSERT);
                buf.put_u64(*shard);
                wire::put_item(&mut buf, item);
            }
            Request::BulkInsert { shard, items } => {
                buf.put_u8(T_BULK);
                buf.put_u64(*shard);
                buf.put_u32(items.len() as u32);
                for it in items {
                    wire::put_item(&mut buf, it);
                }
            }
            Request::Query { shards, query } | Request::QueryAnalyze { shards, query } => {
                let analyze = matches!(self, Request::QueryAnalyze { .. });
                buf.put_u8(if analyze { T_QANALYZE } else { T_QUERY });
                buf.put_u32(shards.len() as u32);
                for s in shards {
                    buf.put_u64(*s);
                }
                wire::put_query(&mut buf, query);
            }
            Request::SplitShard { shard, left_id, right_id } => {
                buf.put_u8(T_SPLIT);
                buf.put_u64(*shard);
                buf.put_u64(*left_id);
                buf.put_u64(*right_id);
            }
            Request::Migrate { shard, dest } => {
                buf.put_u8(T_MIGRATE);
                buf.put_u64(*shard);
                wire::put_str(&mut buf, dest);
            }
            Request::Adopt { shard, blob } => {
                buf.put_u8(T_ADOPT);
                buf.put_u64(*shard);
                wire::put_bytes(&mut buf, blob);
            }
            Request::ClientInsert { item, principal } => {
                buf.put_u8(T_CINSERT);
                wire::put_item(&mut buf, item);
                buf.put_u32(*principal);
            }
            Request::ClientBulkInsert { items, principal } => {
                buf.put_u8(T_CBULK);
                buf.put_u32(items.len() as u32);
                for it in items {
                    wire::put_item(&mut buf, it);
                }
                buf.put_u32(*principal);
            }
            Request::ClientQuery { query, principal }
            | Request::ClientQueryAnalyze { query, principal } => {
                let analyze = matches!(self, Request::ClientQueryAnalyze { .. });
                buf.put_u8(if analyze { T_CANALYZE } else { T_CQUERY });
                wire::put_query(&mut buf, query);
                buf.put_u32(*principal);
            }
            Request::GetWorkerStats => buf.put_u8(T_STATS),
            Request::Ping => buf.put_u8(T_PING),
        }
        buf
    }

    /// [`Request::decode`], then check every item and query box against the
    /// schema: `decode` has no schema, so a well-formed message can still
    /// carry the wrong number of coordinates or ranges — which the routing
    /// and tree layers index by dimension without checking — or a
    /// coordinate outside its dimension's domain, which would be stored and
    /// acknowledged yet never counted ([`Item::check`]). This is how servers
    /// and workers read an incoming request.
    pub fn decode_checked(data: &[u8], schema: &Schema) -> Result<Self, WireError> {
        let req = Self::decode(data)?;
        req.check(schema)?;
        Ok(req)
    }

    fn check(&self, schema: &Schema) -> Result<(), WireError> {
        let dims = schema.dims();
        match self {
            Request::Insert { item, .. } | Request::ClientInsert { item, .. } => item.check(schema),
            Request::BulkInsert { items, .. } | Request::ClientBulkInsert { items, .. } => {
                items.iter().try_for_each(|it| it.check(schema))
            }
            Request::Query { query, .. }
            | Request::QueryAnalyze { query, .. }
            | Request::ClientQuery { query, .. }
            | Request::ClientQueryAnalyze { query, .. } => match query.dims() {
                n if n == dims => Ok(()),
                n => Err(format!("query has {n} ranges, schema has {dims} dimensions")),
            },
            Request::SplitShard { .. }
            | Request::Migrate { .. }
            | Request::Adopt { .. }
            | Request::GetWorkerStats
            | Request::Ping => Ok(()),
        }
    }

    /// Decode from bytes.
    pub fn decode(mut data: &[u8]) -> Result<Self, WireError> {
        if data.is_empty() {
            return Err("empty request".into());
        }
        let tag = data.get_u8();
        let buf = &mut data;
        Ok(match tag {
            T_INSERT => {
                if buf.len() < 8 {
                    return Err("truncated insert".into());
                }
                Request::Insert { shard: buf.get_u64(), item: wire::get_item(buf)? }
            }
            T_BULK => {
                if buf.len() < 12 {
                    return Err("truncated bulk insert".into());
                }
                let shard = buf.get_u64();
                let n = buf.get_u32() as usize;
                let items = (0..n).map(|_| wire::get_item(buf)).collect::<Result<_, _>>()?;
                Request::BulkInsert { shard, items }
            }
            T_QUERY | T_QANALYZE => {
                if buf.len() < 4 {
                    return Err("truncated query".into());
                }
                let n = buf.get_u32() as usize;
                if buf.len() < n * 8 {
                    return Err("truncated query shard list".into());
                }
                let shards = (0..n).map(|_| buf.get_u64()).collect();
                let query = wire::get_query(buf)?;
                if tag == T_QUERY {
                    Request::Query { shards, query }
                } else {
                    Request::QueryAnalyze { shards, query }
                }
            }
            T_SPLIT => {
                if buf.len() < 24 {
                    return Err("truncated split".into());
                }
                Request::SplitShard {
                    shard: buf.get_u64(),
                    left_id: buf.get_u64(),
                    right_id: buf.get_u64(),
                }
            }
            T_MIGRATE => {
                if buf.len() < 8 {
                    return Err("truncated migrate".into());
                }
                Request::Migrate { shard: buf.get_u64(), dest: wire::get_str(buf)? }
            }
            T_ADOPT => {
                if buf.len() < 8 {
                    return Err("truncated adopt".into());
                }
                Request::Adopt { shard: buf.get_u64(), blob: wire::get_bytes(buf)? }
            }
            T_CINSERT => {
                let item = wire::get_item(buf)?;
                Request::ClientInsert { item, principal: get_principal(buf)? }
            }
            T_CBULK => {
                if buf.len() < 4 {
                    return Err("truncated client bulk insert".into());
                }
                let n = buf.get_u32() as usize;
                let items = (0..n).map(|_| wire::get_item(buf)).collect::<Result<_, _>>()?;
                Request::ClientBulkInsert { items, principal: get_principal(buf)? }
            }
            T_CQUERY | T_CANALYZE => {
                let query = wire::get_query(buf)?;
                let principal = get_principal(buf)?;
                if tag == T_CQUERY {
                    Request::ClientQuery { query, principal }
                } else {
                    Request::ClientQueryAnalyze { query, principal }
                }
            }
            T_STATS => Request::GetWorkerStats,
            T_PING => Request::Ping,
            other => return Err(format!("unknown request tag {other}")),
        })
    }
}

impl Response {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        match self {
            Response::Ack => buf.put_u8(R_ACK),
            Response::Agg { agg, shards_searched } => {
                buf.put_u8(R_AGG);
                wire::put_agg(&mut buf, agg);
                buf.put_u32(*shards_searched);
            }
            Response::SplitDone { left, right } => {
                buf.put_u8(R_SPLIT);
                wire::put_bytes(&mut buf, &left.encode());
                wire::put_bytes(&mut buf, &right.encode());
            }
            Response::WorkerStats { shards } => {
                buf.put_u8(R_WSTATS);
                buf.put_u32(shards.len() as u32);
                for s in shards {
                    wire::put_bytes(&mut buf, &s.encode());
                }
            }
            Response::AggPlan { agg, shards_searched, plan } => {
                buf.put_u8(R_AGGPLAN);
                wire::put_agg(&mut buf, agg);
                buf.put_u32(*shards_searched);
                plan.encode_into(&mut buf);
            }
            Response::AggExec { agg, shards_searched, exec } => {
                buf.put_u8(R_AGGEXEC);
                wire::put_agg(&mut buf, agg);
                buf.put_u32(*shards_searched);
                exec.encode_into(&mut buf);
            }
            Response::Err(msg) => {
                buf.put_u8(R_ERR);
                wire::put_str(&mut buf, msg);
            }
        }
        buf
    }

    /// Decode from bytes (needs the schema to rebuild bounding boxes).
    pub fn decode(schema: &Schema, mut data: &[u8]) -> Result<Self, WireError> {
        if data.is_empty() {
            return Err("empty response".into());
        }
        let tag = data.get_u8();
        let buf = &mut data;
        Ok(match tag {
            R_ACK => Response::Ack,
            R_AGG => {
                let agg = wire::get_agg(buf)?;
                if buf.len() < 4 {
                    return Err("truncated agg response".into());
                }
                Response::Agg { agg, shards_searched: buf.get_u32() }
            }
            R_SPLIT => {
                let left = ShardRecord::decode(schema, &wire::get_bytes(buf)?)?;
                let right = ShardRecord::decode(schema, &wire::get_bytes(buf)?)?;
                Response::SplitDone { left, right }
            }
            R_WSTATS => {
                if buf.len() < 4 {
                    return Err("truncated stats".into());
                }
                let n = buf.get_u32() as usize;
                let shards = (0..n)
                    .map(|_| wire::get_bytes(buf).and_then(|b| ShardRecord::decode(schema, &b)))
                    .collect::<Result<_, _>>()?;
                Response::WorkerStats { shards }
            }
            R_AGGPLAN => {
                let agg = wire::get_agg(buf)?;
                if buf.len() < 4 {
                    return Err("truncated agg-plan response".into());
                }
                let shards_searched = buf.get_u32();
                Response::AggPlan { agg, shards_searched, plan: QueryPlan::decode_from(buf)? }
            }
            R_AGGEXEC => {
                let agg = wire::get_agg(buf)?;
                if buf.len() < 4 {
                    return Err("truncated agg-exec response".into());
                }
                let shards_searched = buf.get_u32();
                Response::AggExec { agg, shards_searched, exec: WorkerExec::decode_from(buf)? }
            }
            R_ERR => Response::Err(wire::get_str(buf)?),
            other => return Err(format!("unknown response tag {other}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volap_dims::{Key, Mbr};

    fn schema() -> Schema {
        Schema::uniform(2, 2, 8)
    }

    #[test]
    fn all_requests_roundtrip() {
        let reqs = vec![
            Request::Insert { shard: 3, item: Item::new(vec![1, 2], 5.0) },
            Request::BulkInsert {
                shard: 4,
                items: vec![Item::new(vec![0, 0], 1.0), Item::new(vec![63, 63], 2.0)],
            },
            Request::Query {
                shards: vec![1, 2, 9],
                query: QueryBox::from_ranges(vec![(0, 5), (1, 63)]),
            },
            Request::SplitShard { shard: 8, left_id: 20, right_id: 21 },
            Request::Migrate { shard: 8, dest: "worker-5".into() },
            Request::Adopt { shard: 9, blob: vec![1, 2, 3, 4] },
            Request::ClientInsert { item: Item::new(vec![7, 7], 9.0), principal: 0 },
            Request::ClientBulkInsert {
                items: vec![Item::new(vec![1, 1], 2.0), Item::new(vec![2, 2], 3.0)],
                principal: 3,
            },
            Request::ClientQuery {
                query: QueryBox::from_ranges(vec![(0, 63), (0, 63)]),
                principal: u32::MAX,
            },
            Request::ClientQueryAnalyze {
                query: QueryBox::from_ranges(vec![(1, 9), (0, 63)]),
                principal: 1,
            },
            Request::QueryAnalyze {
                shards: vec![5, 6],
                query: QueryBox::from_ranges(vec![(0, 5), (1, 63)]),
            },
            Request::GetWorkerStats,
            Request::Ping,
        ];
        for r in reqs {
            let back = Request::decode(&r.encode()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn all_responses_roundtrip() {
        let s = schema();
        let mut mbr = Mbr::empty(&s);
        mbr.extend_item(&s, &Item::new(vec![2, 3], 1.0));
        let rec = |id: u64| ShardRecord { id, worker: format!("w{id}"), len: id * 10, mbr: mbr.clone() };
        let exec = WorkerExec {
            worker: "worker-1".into(),
            requested: vec![5, 6],
            alias_chases: 1,
            fanout: 2,
            wall_us: 120,
            shards: vec![crate::plan::ShardExec {
                shard: 5,
                items: 10,
                nodes_visited: 4,
                covered_hits: 1,
                items_scanned: 6,
                pruned: 2,
                wall_us: 30,
            }],
            forwards: vec![WorkerExec { worker: "worker-2".into(), ..Default::default() }],
        };
        let plan = QueryPlan {
            server: "server-0".into(),
            image_generation: 9,
            staleness_samples: 2,
            staleness_p95_us: 700,
            image_leaves: vec![5, 6],
            route_us: 3,
            wall_us: 200,
            workers: vec![exec.clone()],
        };
        let resps = vec![
            Response::Ack,
            Response::Agg { agg: Aggregate::of(4.0), shards_searched: 17 },
            Response::SplitDone { left: rec(1), right: rec(2) },
            Response::WorkerStats { shards: vec![rec(5), rec(6)] },
            Response::AggPlan { agg: Aggregate::of(2.0), shards_searched: 2, plan },
            Response::AggExec { agg: Aggregate::of(3.0), shards_searched: 1, exec },
            Response::Err("boom".into()),
        ];
        for r in resps {
            let back = Response::decode(&s, &r.encode()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[250]).is_err());
        assert!(Response::decode(&schema(), &[7]).is_err());
        let good = Request::Insert { shard: 1, item: Item::new(vec![1, 2], 0.0) }.encode();
        assert!(Request::decode(&good[..good.len() - 1]).is_err());
        // Dropping the trailing principal tag must not decode as untagged.
        let tagged =
            Request::ClientInsert { item: Item::new(vec![1, 2], 0.0), principal: 7 }.encode();
        assert!(Request::decode(&tagged[..tagged.len() - 1]).is_err());
    }

    #[test]
    fn decode_checked_rejects_items_outside_the_schema() {
        let s = schema();
        let edge = Request::ClientInsert { item: Item::new(vec![63, 0], 0.0), principal: 0 }.encode();
        assert!(Request::decode_checked(&edge, &s).is_ok());
        for coords in [vec![64, 0], vec![u64::MAX, u64::MAX], vec![1]] {
            let items = vec![Item::new(vec![1, 1], 0.0), Item::new(coords, 0.0)];
            let bad = Request::ClientBulkInsert { items, principal: 0 }.encode();
            assert!(Request::decode_checked(&bad, &s).is_err());
        }
    }
}
