//! The global system image: shard records in the coordination store.
//!
//! The image (§III-B) contains "lists of the current workers and servers,
//! configuration parameters, and for each shard its size, bounding box, and
//! the address of the worker where it is located". It lives under these
//! coordination paths:
//!
//! | path                 | payload                              |
//! |----------------------|--------------------------------------|
//! | `/workers/<name>`    | empty marker                         |
//! | `/servers/<name>`    | empty marker                         |
//! | `/shards/<id>`       | encoded [`ShardRecord`]              |
//! | `/meta/next_id`      | 8-byte shard-ID allocation counter   |

use bytes::{Buf, BufMut};
use volap_coord::{CoordError, CoordService};
use volap_dims::{Mbr, Schema};
use volap_obs::{Counter, Obs};

use crate::wire::{self, WireError};

/// Path prefix for shard records.
pub const SHARDS_PREFIX: &str = "/shards/";
/// Path prefix for worker membership.
pub const WORKERS_PREFIX: &str = "/workers/";
/// Path prefix for server membership.
pub const SERVERS_PREFIX: &str = "/servers/";
/// Shard-ID allocator path.
pub const NEXT_ID_PATH: &str = "/meta/next_id";

/// One shard's entry in the global image.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Shard ID.
    pub id: u64,
    /// Name (endpoint) of the worker holding the shard.
    pub worker: String,
    /// Item count at last publish.
    pub len: u64,
    /// Bounding box (union of worker-observed and server-predicted).
    pub mbr: Mbr,
}

impl ShardRecord {
    /// Coordination path of this record.
    pub fn path(id: u64) -> String {
        format!("{SHARDS_PREFIX}{id:020}")
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.put_u64(self.id);
        wire::put_str(&mut buf, &self.worker);
        buf.put_u64(self.len);
        wire::put_mbr(&mut buf, &self.mbr);
        buf
    }

    /// Decode from bytes.
    pub fn decode(schema: &Schema, mut data: &[u8]) -> Result<Self, WireError> {
        if data.len() < 8 {
            return Err("shard record truncated".into());
        }
        let id = data.get_u64();
        let worker = wire::get_str(&mut data)?;
        if data.len() < 8 {
            return Err("shard record truncated after worker".into());
        }
        let len = data.get_u64();
        let mbr = wire::get_mbr(&mut data, schema)?;
        Ok(Self {
            id,
            worker,
            len,
            mbr,
        })
    }
}

/// Typed facade over the coordination store for image operations.
///
/// Also the distribution channel for the deployment's observability core:
/// every component (server, worker, manager) receives the `ImageStore` at
/// spawn, so the [`Obs`] handle embedded here reaches them all without
/// widening any spawn signature.
#[derive(Clone)]
pub struct ImageStore {
    coord: CoordService,
    schema: Schema,
    obs: Obs,
    merges: Counter,
    cas_retries: Counter,
    removes: Counter,
}

impl ImageStore {
    /// Wrap a coordination service (with a default observability core).
    pub fn new(coord: CoordService, schema: Schema) -> Self {
        Self::with_obs(coord, schema, Obs::default())
    }

    /// Wrap a coordination service sharing an existing observability core.
    pub fn with_obs(coord: CoordService, schema: Schema, obs: Obs) -> Self {
        let reg = obs.registry();
        let merges = reg.counter("volap_image_merges_total");
        let cas_retries = reg.counter("volap_image_cas_retries_total");
        let removes = reg.counter("volap_image_removes_total");
        Self {
            coord,
            schema,
            obs,
            merges,
            cas_retries,
            removes,
        }
    }

    /// The underlying coordination service.
    pub fn coord(&self) -> &CoordService {
        &self.coord
    }

    /// The deployment-wide observability core.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The global image generation: total mutations (merges + removals)
    /// applied to shard records. Monotonic; ANALYZE plans stamp it so a
    /// plan's routing decision can be ordered against image churn.
    pub fn generation(&self) -> u64 {
        self.merges.get() + self.removes.get()
    }

    /// Allocate `n` consecutive fresh shard IDs (CAS loop on the counter).
    pub fn alloc_ids(&self, n: u64) -> std::ops::Range<u64> {
        loop {
            match self.coord.get(NEXT_ID_PATH) {
                None => {
                    let mut buf = Vec::new();
                    buf.put_u64(n);
                    if self.coord.create(NEXT_ID_PATH, buf).is_ok() {
                        return 0..n;
                    }
                }
                Some((data, version)) => {
                    let mut r: &[u8] = &data;
                    let cur = if r.len() >= 8 { r.get_u64() } else { 0 };
                    let mut buf = Vec::new();
                    buf.put_u64(cur + n);
                    if self.coord.set(NEXT_ID_PATH, buf, Some(version)).is_ok() {
                        return cur..cur + n;
                    }
                }
            }
        }
    }

    /// Publish (upsert) a shard record, *merging* with any concurrent
    /// update: boxes union, the larger item count wins. Server-side box
    /// expansions and worker-side statistics thus never clobber each other.
    pub fn merge_shard(&self, rec: &ShardRecord) {
        let path = ShardRecord::path(rec.id);
        let mut attempts = 0u64;
        loop {
            attempts += 1;
            match self.coord.get(&path) {
                None => {
                    // Only a publisher that actually owns the shard (names a
                    // worker) may create the record. A server pushing a box
                    // expansion for a shard that was just split/retired must
                    // not resurrect it as an ownerless ghost.
                    if rec.worker.is_empty() {
                        self.record_merge(attempts);
                        return;
                    }
                    if self.coord.create(&path, rec.encode()).is_ok() {
                        self.record_merge(attempts);
                        return;
                    }
                }
                Some((data, version)) => {
                    let merged = match ShardRecord::decode(&self.schema, &data) {
                        Ok(mut existing) => {
                            existing.mbr.extend_mbr(&rec.mbr);
                            existing.len = existing.len.max(rec.len);
                            // Worker address: the publisher of the record
                            // being merged wins only if it actually moved
                            // the shard (non-empty worker name).
                            if !rec.worker.is_empty() {
                                existing.worker = rec.worker.clone();
                            }
                            existing
                        }
                        Err(_) => rec.clone(),
                    };
                    if self
                        .coord
                        .set(&path, merged.encode(), Some(version))
                        .is_ok()
                    {
                        self.record_merge(attempts);
                        return;
                    }
                }
            }
        }
    }

    /// Account one completed merge and any CAS retries it needed.
    fn record_merge(&self, attempts: u64) {
        self.merges.inc();
        if attempts > 1 {
            self.cas_retries.add(attempts - 1);
        }
    }

    /// Overwrite a shard record unconditionally (used when a split replaces
    /// a shard).
    pub fn put_shard(&self, rec: &ShardRecord) {
        let _ = self
            .coord
            .set(&ShardRecord::path(rec.id), rec.encode(), None);
    }

    /// Remove a shard record.
    pub fn remove_shard(&self, id: u64) -> Result<(), CoordError> {
        let res = self.coord.delete(&ShardRecord::path(id));
        if res.is_ok() {
            self.removes.inc();
        }
        res
    }

    /// Read one shard record.
    pub fn shard(&self, id: u64) -> Option<ShardRecord> {
        let (data, _) = self.coord.get(&ShardRecord::path(id))?;
        ShardRecord::decode(&self.schema, &data).ok()
    }

    /// Read all shard records.
    pub fn shards(&self) -> Vec<ShardRecord> {
        self.coord
            .list_with_data(SHARDS_PREFIX)
            .into_iter()
            .filter_map(|(_, data, _)| ShardRecord::decode(&self.schema, &data).ok())
            .collect()
    }

    /// Register a worker persistently (bootstrap/testing path).
    pub fn add_worker(&self, name: &str) {
        let _ = self
            .coord
            .set(&format!("{WORKERS_PREFIX}{name}"), Vec::new(), None);
    }

    /// Register a worker under a coordination session: the membership node
    /// is ephemeral and vanishes when the worker stops heartbeating, which
    /// is how the manager learns of dead workers.
    pub fn add_worker_ephemeral(&self, name: &str, session: volap_coord::SessionId) {
        let path = format!("{WORKERS_PREFIX}{name}");
        let _ = self.coord.delete(&path); // replace any stale persistent node
        let _ = self.coord.create_ephemeral(&path, Vec::new(), session);
    }

    /// Registered worker names.
    pub fn workers(&self) -> Vec<String> {
        self.coord
            .list(WORKERS_PREFIX)
            .into_iter()
            .map(|p| p[WORKERS_PREFIX.len()..].to_string())
            .collect()
    }

    /// Register a server.
    pub fn add_server(&self, name: &str) {
        let _ = self
            .coord
            .set(&format!("{SERVERS_PREFIX}{name}"), Vec::new(), None);
    }

    /// Registered server names.
    pub fn servers(&self) -> Vec<String> {
        self.coord
            .list(SERVERS_PREFIX)
            .into_iter()
            .map(|p| p[SERVERS_PREFIX.len()..].to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volap_dims::Key;

    fn schema() -> Schema {
        Schema::uniform(2, 2, 8)
    }

    fn mbr_of(s: &Schema, lo: u64, hi: u64) -> Mbr {
        Mbr::from_ranges(vec![(lo, hi); s.dims()])
    }

    #[test]
    fn record_roundtrip() {
        let s = schema();
        let rec = ShardRecord {
            id: 7,
            worker: "worker-1".into(),
            len: 42,
            mbr: mbr_of(&s, 3, 9),
        };
        let back = ShardRecord::decode(&s, &rec.encode()).unwrap();
        assert_eq!(back, rec);
        let empty = ShardRecord {
            id: 8,
            worker: "w".into(),
            len: 0,
            mbr: Mbr::empty(&s),
        };
        assert_eq!(ShardRecord::decode(&s, &empty.encode()).unwrap(), empty);
        assert!(ShardRecord::decode(&s, &rec.encode()[..5]).is_err());
    }

    #[test]
    fn id_allocation_is_collision_free_under_contention() {
        let s = schema();
        let store = ImageStore::new(CoordService::new(), s);
        let ids: Vec<std::ops::Range<u64>> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let st = store.clone();
                    scope.spawn(move || st.alloc_ids(10))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut all: Vec<u64> = ids.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 80, "no duplicate IDs");
    }

    #[test]
    fn merge_unions_boxes_and_keeps_max_len() {
        let s = schema();
        let store = ImageStore::new(CoordService::new(), s.clone());
        store.merge_shard(&ShardRecord {
            id: 1,
            worker: "w1".into(),
            len: 10,
            mbr: mbr_of(&s, 0, 5),
        });
        store.merge_shard(&ShardRecord {
            id: 1,
            worker: String::new(),
            len: 4,
            mbr: mbr_of(&s, 8, 9),
        });
        let rec = store.shard(1).unwrap();
        assert_eq!(rec.worker, "w1", "empty worker must not clobber");
        assert_eq!(rec.len, 10);
        assert_eq!(rec.mbr, mbr_of(&s, 0, 9));
    }

    #[test]
    fn membership_lists() {
        let store = ImageStore::new(CoordService::new(), schema());
        store.add_worker("w2");
        store.add_worker("w1");
        store.add_server("s1");
        assert_eq!(store.workers(), vec!["w1", "w2"]);
        assert_eq!(store.servers(), vec!["s1"]);
    }

    #[test]
    fn shard_listing_and_removal() {
        let s = schema();
        let store = ImageStore::new(CoordService::new(), s.clone());
        for id in [3u64, 1, 2] {
            store.put_shard(&ShardRecord {
                id,
                worker: "w".into(),
                len: id,
                mbr: Mbr::empty(&s),
            });
        }
        let ids: Vec<u64> = store.shards().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 3], "zero-padded paths keep numeric order");
        store.remove_shard(2).unwrap();
        assert_eq!(store.shards().len(), 2);
        assert!(store.shard(2).is_none());
    }
}
