//! Property-based tests for the system layer: wire codec robustness and
//! server-index invariants.
//!
//! Every decoder that reads bytes off the fabric — requests, responses,
//! shard records, shard blobs — returns an error rather than panicking on
//! arbitrary bytes and on every truncation of a valid encoding.

use proptest::prelude::*;
use volap::{Request, Response, ServerIndex, ShardExec, ShardRecord, WorkerExec};
use volap_dims::{Aggregate, Item, Key, Mbr, QueryBox, Schema};
use volap_tree::serial::{decode_items, encode_items, SHARD_MAGIC};
use volap_tree::{deserialize_store, StoreKind, TreeConfig};

fn schema() -> Schema {
    Schema::uniform(2, 2, 16)
}

fn mbr(lo0: u64, hi0: u64, lo1: u64, hi1: u64) -> Mbr {
    Mbr::from_ranges(vec![
        (lo0.min(hi0), lo0.max(hi0)),
        (lo1.min(hi1), lo1.max(hi1)),
    ])
}

/// Items inside [`schema`]'s domain of 256 leaves per dimension.
fn items_strategy() -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec((0u64..256, 0u64..256, 0u32..1000), 0..40).prop_map(|raw| {
        raw.into_iter()
            .map(|(a, b, m)| Item::new(vec![a, b], m as f64))
            .collect()
    })
}

/// [`decode_items`] on `blob`, and when it accepts, a store rebuilt from the
/// same blob holding exactly those items.
fn decode_shard_blob(blob: &[u8]) -> Result<Vec<Item>, String> {
    let s = schema();
    let items = decode_items(&s, blob)?;
    let store = deserialize_store(StoreKind::HilbertPdcMds, &s, &TreeConfig::default(), blob)
        .expect("deserialize_store accepts what decode_items accepts");
    assert_eq!(store.len(), items.len() as u64);
    Ok(items)
}

/// A worker execution with one [`ShardExec`] row per seven counters in
/// `rows`, forwarding to `forwards`.
fn worker_exec(worker: &str, rows: &[Vec<u64>], forwards: Vec<WorkerExec>) -> WorkerExec {
    let shards: Vec<ShardExec> = rows
        .iter()
        .map(|v| ShardExec {
            shard: v[0],
            items: v[1],
            nodes_visited: v[2],
            covered_hits: v[3],
            items_scanned: v[4],
            pruned: v[5],
            wall_us: v[6],
        })
        .collect();
    WorkerExec {
        worker: worker.into(),
        requested: shards.iter().map(|s| s.shard).collect(),
        alias_chases: forwards.len() as u32,
        fanout: shards.len() as u32,
        wall_us: rows.len() as u64 * 17,
        shards,
        forwards,
    }
}

/// Rows of seven counters for [`worker_exec`].
fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 7), 0..max)
}

proptest! {
    /// Request decoding never panics on arbitrary bytes, and every decoded
    /// request re-encodes to something that decodes equal (partial
    /// round-trip robustness).
    #[test]
    fn request_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(req) = Request::decode(&bytes) {
            let re = Request::decode(&req.encode()).unwrap();
            prop_assert_eq!(re, req);
        }
    }

    /// Response decoding never panics on arbitrary bytes.
    #[test]
    fn response_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let s = schema();
        if let Ok(resp) = Response::decode(&s, &bytes) {
            let re = Response::decode(&s, &resp.encode()).unwrap();
            prop_assert_eq!(re, resp);
        }
    }

    /// Checked request decoding never panics on arbitrary bytes, and what it
    /// accepts carries only items inside the schema's domain.
    #[test]
    fn request_decode_checked_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let s = schema();
        if let Ok(req) = Request::decode_checked(&bytes, &s) {
            if let Request::BulkInsert { items, .. } | Request::ClientBulkInsert { items, .. } = &req {
                for it in items {
                    prop_assert!(it.check(&s).is_ok());
                }
            }
            prop_assert_eq!(Request::decode_checked(&req.encode(), &s).unwrap(), req);
        }
    }

    /// Every strict prefix of a valid request is rejected, and the whole
    /// encoding decodes to the request, for every variant.
    #[test]
    fn request_decode_checked_rejects_truncations(
        kind in 0u8..13,
        items in items_strategy(),
        ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
        shards in prop::collection::vec(any::<u64>(), 0..6),
        ranges in ((0u64..256, 0u64..256), (0u64..256, 0u64..256)),
        (dest, blob) in ("[a-z0-9-]{0,16}", prop::collection::vec(any::<u8>(), 0..64)),
    ) {
        let s = schema();
        let (shard, left_id, right_id, principal) = ids;
        let ((a0, b0), (a1, b1)) = ranges;
        let query = QueryBox::from_ranges(vec![(a0.min(b0), a0.max(b0)), (a1.min(b1), a1.max(b1))]);
        let item = items.first().cloned().unwrap_or_else(|| Item::new(vec![0, 0], 1.0));
        let req = match kind {
            0 => Request::Insert { shard, item },
            1 => Request::BulkInsert { shard, items },
            2 => Request::Query { shards, query },
            3 => Request::QueryAnalyze { shards, query },
            4 => Request::SplitShard { shard, left_id, right_id },
            5 => Request::Migrate { shard, dest },
            6 => Request::Adopt { shard, blob },
            7 => Request::ClientInsert { item, principal },
            8 => Request::ClientBulkInsert { items, principal },
            9 => Request::ClientQuery { query, principal },
            10 => Request::ClientQueryAnalyze { query, principal },
            11 => Request::GetWorkerStats,
            _ => Request::Ping,
        };
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode_checked(&bytes[..cut], &s).is_err(), "prefix of {} bytes", cut);
        }
        prop_assert_eq!(Request::decode_checked(&bytes, &s).unwrap(), req);
    }

    /// Every strict prefix of a valid response is rejected, and the whole
    /// encoding decodes to the response: aggregates, worker executions with
    /// several shard rows and nested forwards, worker stats and errors.
    #[test]
    fn response_decode_rejects_truncations(
        kind in 0u8..4,
        agg in (any::<u64>(), 0u32..1_000_000, 0u32..1000, any::<u32>()),
        rows in rows_strategy(5),
        forwards in prop::collection::vec((rows_strategy(3), rows_strategy(3)), 0..3),
        text in "[a-z0-9 -]{0,24}",
        records in prop::collection::vec(
            (any::<u64>(), prop::collection::vec((0u64..256, 0u64..256), 2)),
            0..4,
        ),
    ) {
        let s = schema();
        let (count, sum, min, shards_searched) = agg;
        let agg = Aggregate { count, sum: sum as f64, min: min as f64, max: (min + 1) as f64 };
        let resp = match kind {
            0 => Response::Agg { agg, shards_searched },
            1 => {
                // Each forward nests one more execution of its own.
                let forwards = forwards
                    .iter()
                    .enumerate()
                    .map(|(i, (outer, inner))| {
                        let nested = worker_exec(&format!("{text}-{i}-n"), inner, Vec::new());
                        worker_exec(&format!("{text}-{i}"), outer, vec![nested])
                    })
                    .collect();
                let exec = worker_exec(&text, &rows, forwards);
                Response::AggExec { agg, shards_searched, exec }
            }
            2 => Response::WorkerStats {
                shards: records
                    .iter()
                    .map(|(id, r)| ShardRecord {
                        id: *id,
                        worker: text.clone(),
                        len: id / 3,
                        mbr: mbr(r[0].0, r[0].1, r[1].0, r[1].1),
                    })
                    .collect(),
            },
            _ => Response::Err(text),
        };
        let bytes = resp.encode();
        for cut in 0..bytes.len() {
            let prefix = Response::decode(&s, &bytes[..cut]);
            prop_assert!(prefix.is_err(), "prefix of {} bytes of {:?}", cut, resp);
        }
        prop_assert_eq!(Response::decode(&s, &bytes).unwrap(), resp);
    }

    /// Shard-record decoding never panics on arbitrary bytes or on any
    /// truncation of a valid record.
    #[test]
    fn shard_record_decode_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
        id in any::<u64>(),
        worker in "[a-z0-9-]{0,16}",
        r in prop::collection::vec((0u64..256, 0u64..256), 2),
    ) {
        let s = schema();
        let _ = ShardRecord::decode(&s, &bytes);
        let rec = ShardRecord { id, worker, len: 7, mbr: mbr(r[0].0, r[0].1, r[1].0, r[1].1) };
        let valid = rec.encode();
        for cut in 0..valid.len() {
            prop_assert!(ShardRecord::decode(&s, &valid[..cut]).is_err(), "prefix of {} bytes", cut);
        }
    }

    /// Shard-blob decoding never panics on arbitrary bytes, with or without
    /// a valid header in front of them.
    #[test]
    fn decode_items_never_panics(header in any::<bool>(), tail in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut blob = Vec::new();
        if header {
            blob.extend_from_slice(SHARD_MAGIC);
            blob.extend_from_slice(&(schema().dims() as u16).to_be_bytes());
        }
        blob.extend_from_slice(&tail);
        if let Ok(items) = decode_shard_blob(&blob) {
            for it in &items {
                prop_assert!(it.check(&schema()).is_ok());
            }
        }
    }

    /// Every strict prefix of a valid shard blob is rejected, and the whole
    /// blob decodes to its items.
    #[test]
    fn decode_items_rejects_truncations(items in items_strategy()) {
        let blob = encode_items(&schema(), &items);
        for cut in 0..blob.len() {
            prop_assert!(decode_shard_blob(&blob[..cut]).is_err(), "prefix of {} bytes", cut);
        }
        prop_assert_eq!(decode_shard_blob(&blob).unwrap(), items);
    }

    /// Shard records survive encode/decode for arbitrary contents.
    #[test]
    fn shard_record_roundtrip(id in any::<u64>(), len in any::<u64>(),
                              worker in "[a-z0-9-]{0,16}",
                              r in prop::collection::vec((0u64..256, 0u64..256), 2)) {
        let s = schema();
        let rec = ShardRecord {
            id,
            worker,
            len,
            mbr: mbr(r[0].0, r[0].1, r[1].0, r[1].1),
        };
        let back = ShardRecord::decode(&s, &rec.encode()).unwrap();
        prop_assert_eq!(back, rec);
    }

    /// ServerIndex stays structurally valid under arbitrary interleavings
    /// of add / expand / remove / route operations, and routing agrees with
    /// a naive box scan.
    #[test]
    fn server_index_matches_naive_scan(
        ops in prop::collection::vec((0u8..4, 0u64..24, prop::collection::vec(0u64..256, 4)), 1..60)
    ) {
        let s = schema();
        let mut idx = ServerIndex::new(s.clone(), 4);
        let mut naive: std::collections::HashMap<u64, Mbr> = std::collections::HashMap::new();
        for (op, id, v) in ops {
            match op {
                0 => {
                    naive.entry(id).or_insert_with(|| {
                        let m = mbr(v[0], v[1], v[2], v[3]);
                        idx.add_shard(id, m.clone());
                        m
                    });
                }
                1 => {
                    if naive.contains_key(&id) {
                        let m = mbr(v[0], v[1], v[2], v[3]);
                        prop_assert!(idx.expand_shard(id, &m));
                        naive.get_mut(&id).unwrap().extend_mbr(&m);
                    }
                }
                2 => {
                    let existed = naive.remove(&id).is_some();
                    prop_assert_eq!(idx.remove_shard(id), existed);
                }
                _ => {
                    // Route an insert; the chosen shard must exist, and the
                    // item must now be inside its (possibly expanded) box.
                    let item = Item::new(vec![v[0], v[1]], 1.0);
                    match idx.route_insert(&item) {
                        None => prop_assert!(naive.is_empty()),
                        Some((chosen, _)) => {
                            prop_assert!(naive.contains_key(&chosen));
                            prop_assert!(idx.shard_box(chosen).unwrap().contains_item(&item));
                            naive.get_mut(&chosen).unwrap().extend_item(&s, &item);
                        }
                    }
                }
            }
            idx.check_invariants();
            prop_assert_eq!(idx.shard_count(), naive.len());
        }
        // Final routing equivalence: for a panel of queries, the index
        // returns a superset-equal set of the naive overlap scan. (The
        // index may only differ by being *conservative* — never by missing
        // a shard, since keys only grow.)
        for (qlo, qhi) in [(0u64, 255), (0, 63), (64, 191), (200, 255)] {
            let q = QueryBox::from_ranges(vec![(qlo, qhi), (qlo, qhi)]);
            let mut got = idx.route_query(&q);
            got.sort_unstable();
            let mut want: Vec<u64> = naive
                .iter()
                .filter(|(_, m)| m.overlaps_query(&q))
                .map(|(&id, _)| id)
                .collect();
            want.sort_unstable();
            for id in &want {
                prop_assert!(got.contains(id), "index missed shard {id}");
            }
        }
    }
}
