//! Property-based tests for the system layer: wire codec robustness and
//! server-index invariants.
//!
//! Every decoder that reads bytes off the fabric — requests, responses,
//! shard records, shard blobs — returns an error rather than panicking on
//! arbitrary bytes and on every truncation of a valid encoding.

use proptest::prelude::*;
use volap::{Request, Response, ServerIndex, ShardRecord};
use volap_dims::{Item, Key, Mbr, QueryBox, Schema};
use volap_tree::serial::{decode_items, encode_items, SHARD_MAGIC};
use volap_tree::{deserialize_store, StoreKind, TreeConfig};

fn schema() -> Schema {
    Schema::uniform(2, 2, 16)
}

fn mbr(lo0: u64, hi0: u64, lo1: u64, hi1: u64) -> Mbr {
    Mbr::from_ranges(vec![(lo0.min(hi0), lo0.max(hi0)), (lo1.min(hi1), lo1.max(hi1))])
}

/// Items inside [`schema`]'s domain of 256 leaves per dimension.
fn items_strategy() -> impl Strategy<Value = Vec<Item>> {
    prop::collection::vec((0u64..256, 0u64..256, 0u32..1000), 0..40)
        .prop_map(|raw| raw.into_iter().map(|(a, b, m)| Item::new(vec![a, b], m as f64)).collect())
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

    /// Every strict prefix of a valid bulk insert is rejected.
    #[test]
    fn request_decode_checked_rejects_truncations(items in items_strategy(), principal in any::<u32>()) {
        let s = schema();
        let req = Request::ClientBulkInsert { items, principal };
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode_checked(&bytes[..cut], &s).is_err(), "prefix of {} bytes", cut);
        }
        prop_assert_eq!(Request::decode_checked(&bytes, &s).unwrap(), req);
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
