//! The worker process: shard storage and OLAP operation service.
//!
//! Workers hold the data. Each shard lives in a [`ShardStore`]; a per-shard
//! *mapping table* entry tracks in-flight splits and migrations (§III-E):
//! while a shard is being split or serialized for migration, new inserts go
//! to an **insertion queue** (itself a shard store) that is queried together
//! with the main structure, so neither inserts nor queries ever stall.
//! After a split the entry becomes an alias routing old-ID traffic to the
//! two halves; after a migration it forwards to the destination worker.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Sender};
use volap_dims::{Aggregate, Item, QueryBox, Schema};
use volap_net::{Endpoint, Incoming, Network};
use volap_obs::lock::{LockClass, ObsRwLock};
use volap_obs::{Counter, Gauge, Histogram};

/// Worker slice of the global lock hierarchy (DESIGN.md §11.1). Stats and
/// alias resolution hold the slot map while reading individual slot states,
/// so slots < slot_state; a slot state guard is held across store calls
/// that take tree locks (ranks 50+), so slot_state < every tree class.
static SLOTS_CLASS: LockClass = LockClass::new("worker.slots", 30);
static SLOT_STATE_CLASS: LockClass = LockClass::new("worker.slot_state", 31);
use volap_tree::{build_store, deserialize_store, serial::encode_items, ShardStore, SplitPlan};

use crate::config::VolapConfig;
use crate::image::{ImageStore, ShardRecord};
use crate::plan::{ShardExec, WorkerExec};
use crate::proto::{Request, Response};
use crate::util::{micros, Process};

/// Observability handles registered once at spawn. Counters and gauges are
/// labeled per worker; latency histograms are shared deployment-wide.
struct WorkerObs {
    inserts: Counter,
    bulk_items: Counter,
    queries: Counter,
    /// Items diverted to an insertion queue while their shard was busy
    /// splitting or migrating (§III-E).
    queue_inserts: Counter,
    splits: Counter,
    migrations_out: Counter,
    adoptions: Counter,
    /// Active + busy shard slots on this worker.
    shards: Gauge,
    /// Total queued items across busy slots (non-zero only while a split
    /// or migration is in flight).
    queue_depth: Gauge,
    /// Total items held across active + busy stores.
    items: Gauge,
    insert_seconds: Histogram,
    bulk_insert_seconds: Histogram,
    query_seconds: Histogram,
    split_seconds: Histogram,
    migrate_seconds: Histogram,
}

impl WorkerObs {
    fn new(image: &ImageStore, name: &str) -> Self {
        let reg = image.obs().registry();
        Self {
            inserts: reg.counter_labeled("volap_worker_inserts_total", "worker", name),
            bulk_items: reg.counter_labeled("volap_worker_bulk_items_total", "worker", name),
            queries: reg.counter_labeled("volap_worker_queries_total", "worker", name),
            queue_inserts: reg.counter_labeled("volap_worker_queue_inserts_total", "worker", name),
            splits: reg.counter_labeled("volap_worker_splits_total", "worker", name),
            migrations_out: reg.counter_labeled(
                "volap_worker_migrations_out_total",
                "worker",
                name,
            ),
            adoptions: reg.counter_labeled("volap_worker_adoptions_total", "worker", name),
            shards: reg.gauge_labeled("volap_worker_shards", "worker", name),
            queue_depth: reg.gauge_labeled("volap_worker_queue_depth", "worker", name),
            items: reg.gauge_labeled("volap_worker_items", "worker", name),
            insert_seconds: reg.histogram("volap_worker_insert_seconds"),
            bulk_insert_seconds: reg.histogram("volap_worker_bulk_insert_seconds"),
            query_seconds: reg.histogram("volap_worker_query_seconds"),
            split_seconds: reg.histogram("volap_worker_split_seconds"),
            migrate_seconds: reg.histogram("volap_worker_migrate_seconds"),
        }
    }
}

enum SlotState {
    /// Normal service.
    Active { store: Arc<dyn ShardStore> },
    /// Split or migration in progress: inserts land in `queue`; queries
    /// search `store` *and* `queue` (paper §III-E).
    Busy {
        store: Arc<dyn ShardStore>,
        queue: Arc<dyn ShardStore>,
    },
    /// This shard was split; route by hyperplane to the two halves.
    SplitInto {
        left: u64,
        right: u64,
        plan: SplitPlan,
    },
    /// This shard now lives on another worker; forward.
    MovedTo { dest: String },
}

type Slot = ObsRwLock<SlotState>;

fn new_slot(state: SlotState) -> Arc<Slot> {
    Arc::new(ObsRwLock::new(&SLOT_STATE_CLASS, state))
}

struct WorkerState {
    name: String,
    schema: Schema,
    cfg: VolapConfig,
    endpoint: Endpoint,
    image: ImageStore,
    slots: ObsRwLock<HashMap<u64, Arc<Slot>>>,
    /// Queue of the worker's scan threads: a query with several shards to
    /// descend into scans all but one of them there, side by side.
    scan_jobs: Sender<Box<dyn FnOnce() + Send>>,
    obs: WorkerObs,
}

/// Handle to a running worker: name plus the machinery to stop it.
pub struct WorkerHandle {
    /// The worker's endpoint name.
    pub name: String,
    process: Process,
}

impl WorkerHandle {
    /// Stop the statistics publisher, unregister the endpoint and join all
    /// of the worker's threads.
    pub fn stop(self) {
        self.process.stop();
    }
}

/// Spawn a worker with `cfg.worker_threads` service threads, which sleep in
/// the endpoint's `serve` until a request arrives, a statistics publisher
/// that wakes every `cfg.stats_period`, and one scan thread per available
/// core, which sleeps until a query hands it a shard to scan.
pub fn spawn_worker(
    net: &Network,
    image: &ImageStore,
    cfg: &VolapConfig,
    name: &str,
) -> WorkerHandle {
    let endpoint = net.endpoint(name.to_string());
    // Liveness: membership is an ephemeral node under a heartbeated
    // session; if this worker dies, the node expires and the manager
    // removes its shard records.
    let session_ttl = (cfg.stats_period * 10).max(Duration::from_millis(500));
    let session = image.coord().open_session(session_ttl);
    image.add_worker_ephemeral(name, session);
    let (scan_jobs, scan_queue) = channel::unbounded();
    let state = Arc::new(WorkerState {
        name: name.to_string(),
        schema: cfg.schema.clone(),
        cfg: cfg.clone(),
        endpoint: endpoint.clone(),
        image: image.clone(),
        slots: ObsRwLock::new(&SLOTS_CLASS, HashMap::new()),
        scan_jobs,
        obs: WorkerObs::new(image, name),
    });
    // Statistics publisher: lets the manager plan and keeps image lens fresh.
    let st = Arc::clone(&state);
    let mut process = Process::start(
        &endpoint,
        format!("{name}-stats"),
        cfg.stats_period,
        move || {
            st.image.coord().heartbeat(session);
            publish_stats(&st);
        },
    );
    for t in 0..cfg.worker_threads.max(1) {
        let st = Arc::clone(&state);
        process.spawn(format!("{name}-svc{t}"), move || {
            st.endpoint.serve(|msg| handle(&st, msg))
        });
    }
    // Scan threads are joined last: they exit only once the last
    // `WorkerState`, and with it their job sender, is dropped. So a scan
    // thread must not hold one.
    let scanners = std::thread::available_parallelism().map_or(1, |n| n.get());
    for t in 0..scanners {
        let queue = scan_queue.clone();
        process.spawn(format!("{name}-scan{t}"), move || {
            while let Ok(job) = queue.recv() {
                job();
            }
        });
    }
    WorkerHandle {
        name: name.to_string(),
        process,
    }
}

/// The image record of a store this worker serves under shard `id`.
fn shard_record(st: &WorkerState, id: u64, store: &Arc<dyn ShardStore>) -> ShardRecord {
    ShardRecord {
        id,
        worker: st.name.clone(),
        len: store.len(),
        mbr: store.mbr(),
    }
}

fn publish_stats(st: &WorkerState) {
    let slots: Vec<(u64, Arc<Slot>)> = st
        .slots
        .read()
        .iter()
        .map(|(&id, s)| (id, Arc::clone(s)))
        .collect();
    let (mut live, mut items, mut queued) = (0i64, 0i64, 0i64);
    for (id, slot) in slots {
        // The state guard stays held across the publish: `do_split` and
        // `do_migrate` retire a shard's record right after swapping the
        // slot to an alias under the write lock, so a record built from the
        // old state but merged after that swap would resurrect the retired
        // shard in the image for good.
        let guard = slot.read();
        let (SlotState::Active { store } | SlotState::Busy { store, .. }) = &*guard else {
            continue;
        };
        live += 1;
        items += store.len() as i64;
        if let SlotState::Busy { queue, .. } = &*guard {
            queued += queue.len() as i64;
        }
        st.image.merge_shard(&shard_record(st, id, store));
    }
    st.obs.shards.set(live);
    st.obs.items.set(items);
    st.obs.queue_depth.set(queued);
}

fn reply(msg: &Incoming, resp: Response) {
    let _ = msg.reply(resp.encode());
}

fn handle(st: &Arc<WorkerState>, msg: Incoming) {
    let req = match Request::decode_checked(&msg.payload, &st.schema) {
        Ok(r) => r,
        Err(e) => {
            reply(&msg, Response::Err(format!("bad request: {e}")));
            return;
        }
    };
    match req {
        Request::Ping => reply(&msg, Response::Ack),
        // The insert timers stop before the reply is encoded and sent.
        Request::Insert { shard, item } => {
            let resp = {
                let _timer = st.obs.insert_seconds.start();
                st.obs.inserts.inc();
                insert_group(st, shard, vec![item])
            };
            reply(&msg, resp);
        }
        Request::BulkInsert { shard, items } => {
            let resp = {
                let _timer = st.obs.bulk_insert_seconds.start();
                st.obs.bulk_items.add(items.len() as u64);
                insert_group(st, shard, items)
            };
            reply(&msg, resp);
        }
        Request::Query { shards, query } => {
            let resp = local_query(st, &shards, &query, false);
            reply(&msg, resp);
        }
        Request::QueryAnalyze { shards, query } => {
            let resp = local_query(st, &shards, &query, true);
            reply(&msg, resp);
        }
        Request::SplitShard {
            shard,
            left_id,
            right_id,
        } => {
            let resp = do_split(st, shard, left_id, right_id);
            reply(&msg, resp);
        }
        Request::Migrate { shard, dest } => {
            let resp = do_migrate(st, shard, &dest);
            reply(&msg, resp);
        }
        Request::Adopt { shard, blob } => {
            let resp = do_adopt(st, shard, &blob);
            reply(&msg, resp);
        }
        Request::GetWorkerStats => {
            let mut shards = Vec::new();
            for (&id, slot) in st.slots.read().iter() {
                let guard = slot.read();
                if let SlotState::Active { store } | SlotState::Busy { store, .. } = &*guard {
                    shards.push(shard_record(st, id, store));
                }
            }
            reply(&msg, Response::WorkerStats { shards });
        }
        other => reply(
            &msg,
            Response::Err(format!("unsupported worker request: {other:?}")),
        ),
    }
}

/// Insert a group of items — one for a point insert — into a local shard,
/// chasing aliases per shard *group* rather than per item: a group landing
/// on an Active store (or a Busy shard's insertion queue) drains through
/// the store's batch path in one call; a split alias partitions the group
/// by its hyperplane into two child groups; a moved shard forwards its
/// whole group as one `BulkInsert`.
fn insert_group(st: &Arc<WorkerState>, shard: u64, items: Vec<Item>) -> Response {
    let mut work: Vec<(u64, Vec<Item>, u32)> = vec![(shard, items, 0)];
    while let Some((id, group, depth)) = work.pop() {
        if group.is_empty() {
            continue;
        }
        if depth > 64 {
            return Response::Err("alias chain too deep".into());
        }
        let slot = match st.slots.read().get(&id) {
            Some(s) => Arc::clone(s),
            None => return Response::Err(format!("unknown shard {id} on {}", st.name)),
        };
        let guard = slot.read();
        // The state guard stays held across the Active/Busy inserts:
        // `do_split` snapshots the store's items and drains the queue under
        // the write lock, so a group inserted after the guard dropped could
        // land in an already-captured store or an already-drained queue and
        // vanish.
        match &*guard {
            SlotState::Active { store } => store.bulk_insert(group),
            SlotState::Busy { queue, .. } => {
                st.obs.queue_inserts.add(group.len() as u64);
                queue.bulk_insert(group);
            }
            SlotState::SplitInto { left, right, plan } => {
                let (l, r): (Vec<Item>, Vec<Item>) =
                    group.into_iter().partition(|it| !plan.side(it));
                work.push((*left, l, depth + 1));
                work.push((*right, r, depth + 1));
            }
            SlotState::MovedTo { dest } => {
                let dest = dest.clone();
                drop(guard);
                if let Response::Err(e) = forward(
                    st,
                    &dest,
                    &Request::BulkInsert {
                        shard: id,
                        items: group,
                    },
                ) {
                    return Response::Err(e);
                }
            }
        }
    }
    Response::Ack
}

/// One local store (plus its in-flight insertion queue, if splitting or
/// migrating) that a query must scan.
struct ScanTarget {
    /// Shard id (names the plan row).
    id: u64,
    store: Arc<dyn ShardStore>,
    queue: Option<Arc<dyn ShardStore>>,
}

impl ScanTarget {
    /// Aggregate `q` over the store and, when the shard is splitting or
    /// migrating, its insertion queue ("queried along with the shard
    /// itself", §III-E). An ANALYZE'd query (`want_plan`) gets the
    /// [`ShardExec`] row back, carrying the exact traversal counters
    /// ([`volap_tree::QueryTrace`]) the tree layer maintains on every
    /// query. Everything reported is such a counter or an O(1) read — never
    /// a structure walk (`ShardStore::stats`) — and a plain query reads no
    /// clock and allocates nothing here.
    ///
    /// With `at_root` the scan only succeeds when both the store and the
    /// queue answer at their roots ([`ShardStore::query_at_root`]); `None`
    /// means a descent is needed, and then nothing was recorded.
    fn scan(
        &self,
        q: &QueryBox,
        want_plan: bool,
        at_root: bool,
    ) -> Option<(Aggregate, Option<ShardExec>)> {
        let start = want_plan.then(Instant::now);
        let walk = |s: &Arc<dyn ShardStore>| {
            if at_root {
                s.query_at_root(q)
            } else {
                Some(s.query_traced(q))
            }
        };
        let (mut agg, mut qt) = walk(&self.store)?;
        if let Some(queue) = &self.queue {
            let (a, t) = walk(queue)?;
            agg.merge(&a);
            qt.merge(&t);
        }
        let exec = start.map(|start| ShardExec {
            shard: self.id,
            items: self.store.len(),
            nodes_visited: qt.nodes_visited,
            covered_hits: qt.covered_hits,
            items_scanned: qt.items_scanned,
            pruned: qt.pruned,
            wall_us: micros(start.elapsed()),
        });
        Some((agg, exec))
    }

    /// [`ScanTarget::scan`] with a walk allowed to go as deep as it needs.
    fn descend(&self, q: &QueryBox, want_plan: bool) -> (Aggregate, Option<ShardExec>) {
        self.scan(q, want_plan, false)
            .expect("an unbounded walk always completes")
    }
}

/// Fold one shard's scan into a worker query's running answer.
fn absorb(out: &mut (Aggregate, Vec<ShardExec>), (agg, exec): (Aggregate, Option<ShardExec>)) {
    out.0.merge(&agg);
    out.1.extend(exec);
}

/// Aggregate `query` over the listed shards. With `want_plan` the answer is
/// `AggExec` — the same aggregate plus the [`WorkerExec`] describing how
/// this worker ran its part (alias chases, per-shard [`ShardExec`] rows,
/// the parallel fan-out width, nested executions for shards forwarded to
/// other workers) — otherwise plain `Agg`.
fn local_query(
    st: &Arc<WorkerState>,
    shards: &[u64],
    query: &QueryBox,
    want_plan: bool,
) -> Response {
    let _timer = st.obs.query_seconds.start();
    st.obs.queries.inc();
    let wall = want_plan.then(Instant::now);
    // Phase 1: chase aliases sequentially (cheap pointer work) to resolve
    // the local stores to scan and the per-destination remote batches.
    let mut scans: Vec<ScanTarget> = Vec::new();
    // Forwards accumulated per destination to batch remote shards.
    let mut remote: HashMap<String, Vec<u64>> = HashMap::new();
    let mut pending: Vec<u64> = shards.to_vec();
    // A server image transiently lists both a split parent and its halves
    // (halves are published before the parent is retired), so the request
    // may name a shard the alias chase also reaches. Scan each id once.
    let mut seen: HashSet<u64> = HashSet::new();
    let mut alias_chases: u32 = 0;
    let mut hops = 0;
    while let Some(id) = pending.pop() {
        if !seen.insert(id) {
            continue;
        }
        hops += 1;
        if hops > 10_000 {
            return Response::Err("query alias expansion too deep".into());
        }
        let slot = match st.slots.read().get(&id) {
            Some(s) => Arc::clone(s),
            None => continue, // stale routing: shard no longer known here
        };
        let guard = slot.read();
        match &*guard {
            SlotState::Active { store } | SlotState::Busy { store, .. } => {
                let queue = match &*guard {
                    SlotState::Busy { queue, .. } => Some(Arc::clone(queue)),
                    _ => None,
                };
                scans.push(ScanTarget {
                    id,
                    store: Arc::clone(store),
                    queue,
                });
            }
            SlotState::SplitInto { left, right, .. } => {
                alias_chases += 1;
                pending.push(*left);
                pending.push(*right);
            }
            SlotState::MovedTo { dest } => {
                alias_chases += 1;
                remote.entry(dest.clone()).or_default().push(id);
            }
        }
    }
    // Phase 2: answer on this thread every store whose walk stops at its
    // root — handing a few microseconds of work to another thread costs
    // more than doing it — then descend into the rest side by side: every
    // descent but the first goes to the worker's scan threads and answers
    // over a reply channel built for this query, the first runs here.
    let mut searched = scans.len() as u32;
    let mut out = (Aggregate::empty(), Vec::new());
    scans.retain(|t| match t.scan(query, want_plan, true) {
        Some(done) => {
            absorb(&mut out, done);
            false
        }
        None => true,
    });
    let mut fanout = searched.min(1);
    let mut descents = scans.into_iter();
    if let Some(first) = descents.next() {
        let handed_off = descents.len();
        fanout += handed_off as u32;
        let replies = (handed_off > 0).then(|| {
            let (reply, replies) = channel::unbounded();
            for t in descents {
                let (reply, q) = (reply.clone(), query.clone());
                let _ = st.scan_jobs.send(Box::new(move || {
                    let _ = reply.send(t.descend(&q, want_plan));
                }));
            }
            replies
        });
        absorb(&mut out, first.descend(query, want_plan));
        if let Some(replies) = replies {
            for _ in 0..handed_off {
                // Only the jobs hold reply senders, so a job that died
                // unanswered disconnects the channel once the rest answered.
                let Ok(done) = replies.recv() else {
                    return Response::Err(format!("a shard scan on {} failed", st.name));
                };
                absorb(&mut out, done);
            }
        }
    }
    let (mut agg, mut shard_execs) = out;
    let mut forwards: Vec<WorkerExec> = Vec::new();
    for (dest, shards) in remote {
        let req = Request::worker_query(shards, query.clone(), want_plan);
        match (forward(st, &dest, &req), want_plan) {
            (
                Response::Agg {
                    agg: a,
                    shards_searched,
                },
                false,
            ) => {
                agg.merge(&a);
                searched += shards_searched;
            }
            (
                Response::AggExec {
                    agg: a,
                    shards_searched,
                    exec,
                },
                true,
            ) => {
                agg.merge(&a);
                searched += shards_searched;
                forwards.push(exec);
            }
            (Response::Err(e), _) => return Response::Err(e),
            _ => return Response::Err("unexpected forward response".into()),
        }
    }
    let Some(wall) = wall else {
        return Response::Agg {
            agg,
            shards_searched: searched,
        };
    };
    shard_execs.sort_by_key(|e| e.shard);
    forwards.sort_by(|a, b| a.worker.cmp(&b.worker));
    let mut requested = shards.to_vec();
    requested.sort_unstable();
    requested.dedup();
    let exec = WorkerExec {
        worker: st.name.clone(),
        requested,
        alias_chases,
        fanout,
        wall_us: micros(wall.elapsed()),
        shards: shard_execs,
        forwards,
    };
    Response::AggExec {
        agg,
        shards_searched: searched,
        exec,
    }
}

/// Send `req` on to the worker a shard moved to.
fn forward(st: &Arc<WorkerState>, dest: &str, req: &Request) -> Response {
    match st
        .endpoint
        .request(dest, req.encode(), st.cfg.request_timeout)
    {
        Ok(bytes) => Response::decode(&st.schema, &bytes)
            .unwrap_or_else(|e| Response::Err(format!("bad forwarded response: {e}"))),
        Err(e) => Response::Err(format!("forward to {dest} failed: {e}")),
    }
}

/// Enter the Busy state at the start of a split or migration: from here on
/// inserts land in a fresh insertion queue that queries search together
/// with the store. Returns the shard's store, or the error to reply with
/// when the shard is not Active.
fn enter_busy(st: &WorkerState, slot: &Slot, shard: u64) -> Result<Arc<dyn ShardStore>, String> {
    let mut guard = slot.write();
    let SlotState::Active { store } = &*guard else {
        return Err(format!("shard {shard} busy or gone"));
    };
    let store = Arc::clone(store);
    let queue: Arc<dyn ShardStore> =
        build_store(st.cfg.store_kind, &st.schema, &st.cfg.tree_config()).into();
    *guard = SlotState::Busy {
        store: Arc::clone(&store),
        queue,
    };
    Ok(store)
}

/// Leave the Busy state after an aborted split or migration, folding the
/// insertion queue back into the shard. Builds a fresh store instead of
/// inserting into the old one in place: an in-flight query may have
/// captured the `(store, queue)` pair and would count the queued items
/// twice if they moved into `store`.
fn revert_busy(st: &WorkerState, slot: &Slot) {
    let mut guard = slot.write();
    let SlotState::Busy { store, queue } = &*guard else {
        return;
    };
    let queued = queue.items();
    let store = if queued.is_empty() {
        Arc::clone(store)
    } else {
        let mut items = store.items();
        items.extend(queued);
        let merged: Arc<dyn ShardStore> =
            build_store(st.cfg.store_kind, &st.schema, &st.cfg.tree_config()).into();
        merged.bulk_insert(items);
        merged
    };
    *guard = SlotState::Active { store };
}

/// Split a shard in place (manager-initiated). The shard keeps serving
/// throughout: inserts go to the queue, queries search main + queue.
fn do_split(st: &Arc<WorkerState>, shard: u64, left_id: u64, right_id: u64) -> Response {
    let _timer = st.obs.split_seconds.start();
    let slot = match st.slots.read().get(&shard) {
        Some(s) => Arc::clone(s),
        None => return Response::Err(format!("unknown shard {shard}")),
    };
    let store = match enter_busy(st, &slot, shard) {
        Ok(store) => store,
        Err(e) => return Response::Err(e),
    };
    let Some(plan) = store.split_query() else {
        // Un-splittable (identical items): revert, preserving anything that
        // entered the queue meanwhile.
        revert_busy(st, &slot);
        return Response::Err(format!("shard {shard} cannot be split"));
    };
    let (left, right) = store.split(&plan);
    let (left, right): (Arc<dyn ShardStore>, Arc<dyn ShardStore>) = (left.into(), right.into());
    // Publish the halves into the slot map *before* taking the parent's
    // state lock: they are unreachable (in no alias chain and not yet in
    // the image) until the alias below makes them visible, and acquiring
    // `slots` (rank 30) while holding `slot_state` (rank 31) would invert
    // the lock hierarchy against the alias-chase paths, which hold the map
    // while reading slot states.
    {
        let mut slots = st.slots.write();
        slots.insert(
            left_id,
            new_slot(SlotState::Active {
                store: Arc::clone(&left),
            }),
        );
        slots.insert(
            right_id,
            new_slot(SlotState::Active {
                store: Arc::clone(&right),
            }),
        );
    }
    // Swap in the alias and drain the queue by hyperplane side. Holding the
    // state lock exclusively makes drain + alias swap atomic against
    // inserters, so no queued item is lost or double-counted.
    {
        let mut guard = slot.write();
        let queued = match &*guard {
            SlotState::Busy { queue, .. } => queue.items(),
            _ => Vec::new(),
        };
        for it in &queued {
            if plan.side(it) {
                right.insert(it);
            } else {
                left.insert(it);
            }
        }
        *guard = SlotState::SplitInto {
            left: left_id,
            right: right_id,
            plan,
        };
    }
    // Update the global image: old record out, halves in.
    let left_rec = shard_record(st, left_id, &left);
    let right_rec = shard_record(st, right_id, &right);
    // Publish the halves before retiring the parent so no server image ever
    // sees a routing gap (events are applied in order).
    st.image.merge_shard(&left_rec);
    st.image.merge_shard(&right_rec);
    let _ = st.image.remove_shard(shard);
    st.obs.splits.inc();
    // Splits are rare enough to afford a structure walk: the parent's shape
    // at split time (was it deep? leaf-heavy?) is the diagnostic that
    // explains why the manager chose it.
    let shape = store
        .stats()
        .annotations()
        .into_iter()
        .map(|(k, v)| format!(" {k}={v}"))
        .collect::<String>();
    st.image.obs().events().record(
        "shard_split",
        format!(
            "worker={} shard={shard} left={left_id}({}) right={right_id}({}){shape}",
            st.name, left_rec.len, right_rec.len
        ),
    );
    Response::SplitDone {
        left: left_rec,
        right: right_rec,
    }
}

/// Migrate a shard to `dest` while continuing to serve it.
fn do_migrate(st: &Arc<WorkerState>, shard: u64, dest: &str) -> Response {
    if dest == st.name {
        return Response::Ack; // no-op
    }
    let _timer = st.obs.migrate_seconds.start();
    let slot = match st.slots.read().get(&shard) {
        Some(s) => Arc::clone(s),
        None => return Response::Err(format!("unknown shard {shard}")),
    };
    let store = match enter_busy(st, &slot, shard) {
        Ok(store) => store,
        Err(e) => return Response::Err(e),
    };
    // Ship the serialized shard.
    let blob = store.serialize();
    match forward(st, dest, &Request::Adopt { shard, blob }) {
        Response::Ack => {}
        Response::Err(e) => {
            revert_busy(st, &slot);
            return Response::Err(format!("adopt failed: {e}"));
        }
        _ => return Response::Err("unexpected adopt response".into()),
    }
    // Cut over: capture the queue, mark moved, ship the tail.
    let queued = {
        let mut guard = slot.write();
        let queued = match &*guard {
            SlotState::Busy { queue, .. } => queue.items(),
            _ => Vec::new(),
        };
        *guard = SlotState::MovedTo {
            dest: dest.to_string(),
        };
        queued
    };
    if !queued.is_empty() {
        if let Response::Err(e) = forward(
            st,
            dest,
            &Request::BulkInsert {
                shard,
                items: queued,
            },
        ) {
            return Response::Err(format!("queue drain failed: {e}"));
        }
    }
    // Publish the new location.
    st.image.merge_shard(&ShardRecord {
        id: shard,
        worker: dest.to_string(),
        len: store.len(),
        mbr: store.mbr(),
    });
    st.obs.migrations_out.inc();
    st.image.obs().events().record(
        "shard_migrate",
        format!(
            "worker={} shard={shard} dest={dest} items={}",
            st.name,
            store.len()
        ),
    );
    Response::Ack
}

fn do_adopt(st: &Arc<WorkerState>, shard: u64, blob: &[u8]) -> Response {
    match deserialize_store(st.cfg.store_kind, &st.schema, &st.cfg.tree_config(), blob) {
        Ok(store) => {
            let store: Arc<dyn ShardStore> = store.into();
            let rec = shard_record(st, shard, &store);
            st.slots
                .write()
                .insert(shard, new_slot(SlotState::Active { store }));
            st.image.merge_shard(&rec);
            st.obs.adoptions.inc();
            // `gen=` stamps the adopter's image generation so the event joins
            // against ANALYZE plans and staleness probe data.
            st.image.obs().events().record(
                "shard_adopt",
                format!(
                    "worker={} shard={shard} items={} gen={}",
                    st.name,
                    rec.len,
                    st.image.generation()
                ),
            );
            Response::Ack
        }
        Err(e) => Response::Err(format!("adopt decode failed: {e}")),
    }
}

/// Create an empty shard on a worker by sending it an empty blob to adopt
/// (bootstrap helper).
pub fn create_empty_shard(
    endpoint: &Endpoint,
    worker: &str,
    schema: &Schema,
    shard: u64,
    timeout: Duration,
) -> Result<(), String> {
    let blob = encode_items(schema, &[]);
    let bytes = endpoint
        .request(worker, Request::Adopt { shard, blob }.encode(), timeout)
        .map_err(|e| e.to_string())?;
    match Response::decode(schema, &bytes) {
        Ok(Response::Ack) => Ok(()),
        Ok(Response::Err(e)) => Err(e),
        Ok(other) => Err(format!("unexpected response: {other:?}")),
        Err(e) => Err(e),
    }
}
