//! The server process: client sessions, routing, and image synchronization.
//!
//! Servers own no data. Each keeps a **local image** — a [`ServerIndex`]
//! over shard bounding boxes plus a shard → worker location map — used to
//! route every client insert and query (§III-C). Local box expansions are
//! pushed to the global image at the configurable sync rate, and remote
//! changes arrive through coordination-store watches, giving the bounded
//! staleness analyzed in §IV-F.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use volap_coord::EventKind;
use volap_dims::{Aggregate, Item, Key, Mbr, QueryBox, Schema};
use volap_net::{Endpoint, Incoming, Network, ReqCtx};
use volap_obs::lock::{self, LockClass, ObsMutex, ObsRwLock};
use volap_obs::{Accounting, CostVec, Counter, Histogram, PrincipalId, StalenessProbe, TraceCtx, Tracer};

/// Server slice of the global lock hierarchy (DESIGN.md §11.1). The
/// routing paths hold `index` while updating `locations` (bootstrap, image
/// applies) and while folding expansions into `dirty` (insert routing), so
/// index < locations and index < dirty.
static INDEX_CLASS: LockClass = LockClass::new("server.index", 21);
static LOCATIONS_CLASS: LockClass = LockClass::new("server.locations", 22);
static DIRTY_CLASS: LockClass = LockClass::new("server.dirty", 23);

use crate::config::VolapConfig;
use crate::image::{ImageStore, ShardRecord, SHARDS_PREFIX};
use crate::plan::QueryPlan;
use crate::proto::{Request, Response};
use crate::server_index::ServerIndex;
use crate::util::{micros, Process};

/// Observability handles registered once at spawn (recording is pure
/// relaxed atomics). Counters are labeled per server; latency histograms
/// are shared deployment-wide to bound metric cardinality.
struct ServerObs {
    inserts: Counter,
    expansions: Counter,
    queries: Counter,
    route_misses: Counter,
    sync_rounds: Counter,
    image_applies: Counter,
    insert_seconds: Histogram,
    bulk_insert_seconds: Histogram,
    query_seconds: Histogram,
    staleness: StalenessProbe,
}

impl ServerObs {
    fn new(image: &ImageStore, name: &str) -> Self {
        let reg = image.obs().registry();
        Self {
            inserts: reg.counter_labeled("volap_server_inserts_total", "server", name),
            expansions: reg.counter_labeled("volap_server_box_expansions_total", "server", name),
            queries: reg.counter_labeled("volap_server_queries_total", "server", name),
            route_misses: reg.counter_labeled("volap_server_route_misses_total", "server", name),
            sync_rounds: reg.counter_labeled("volap_server_sync_rounds_total", "server", name),
            image_applies: reg.counter_labeled("volap_server_image_applies_total", "server", name),
            insert_seconds: reg.histogram("volap_server_insert_seconds"),
            bulk_insert_seconds: reg.histogram("volap_server_bulk_insert_seconds"),
            query_seconds: reg.histogram("volap_server_query_seconds"),
            staleness: image.obs().staleness().clone(),
        }
    }
}

struct ServerState {
    name: String,
    schema: Schema,
    cfg: VolapConfig,
    endpoint: Endpoint,
    image: ImageStore,
    index: ObsRwLock<ServerIndex>,
    locations: ObsRwLock<HashMap<u64, String>>,
    /// Locally observed box expansions awaiting the next sync push.
    dirty: ObsMutex<HashMap<u64, Mbr>>,
    /// This server's local image generation: image records applied (at
    /// bootstrap or via watch events). ANALYZE plans and `route_miss`
    /// events stamp it so routing decisions can be ordered against image
    /// churn and joined to staleness-probe data.
    generation: AtomicU64,
    obs: ServerObs,
    /// Causal tracer: client requests are the trace roots (head-based
    /// sampling happens here; workers inherit the decision).
    tracer: Tracer,
    /// Per-principal workload accounting: tagged requests charge their
    /// measured cost here as they complete.
    accounting: Accounting,
}

/// Handle to a running server.
pub struct ServerHandle {
    /// The server's endpoint name.
    pub name: String,
    process: Process,
}

impl ServerHandle {
    /// Stop the sync thread, unregister the endpoint and join all threads.
    pub fn stop(self) {
        self.process.stop();
    }
}

/// Spawn a server: `cfg.server_threads` service threads, which sleep in the
/// endpoint's `serve` until a request arrives, plus a sync thread that wakes
/// every `cfg.sync_period`.
pub fn spawn_server(net: &Network, image: &ImageStore, cfg: &VolapConfig, name: &str) -> ServerHandle {
    let endpoint = net.endpoint(name.to_string());
    image.add_server(name);
    let state = Arc::new(ServerState {
        name: name.to_string(),
        schema: cfg.schema.clone(),
        cfg: cfg.clone(),
        endpoint: endpoint.clone(),
        image: image.clone(),
        index: ObsRwLock::new(&INDEX_CLASS, ServerIndex::new(cfg.schema.clone(), cfg.index_dir_cap)),
        locations: ObsRwLock::new(&LOCATIONS_CLASS, HashMap::new()),
        dirty: ObsMutex::new(&DIRTY_CLASS, HashMap::new()),
        generation: AtomicU64::new(0),
        obs: ServerObs::new(image, name),
        tracer: image.obs().tracer().clone(),
        accounting: image.obs().accounting().clone(),
    });
    // Watch before the initial load so no update can slip between them.
    let watch_rx = image.coord().watch_prefix(SHARDS_PREFIX);
    bootstrap(&state);

    // Synchronization thread: push dirty expansions, apply watch events.
    let st = Arc::clone(&state);
    let mut process = Process::start(&endpoint, format!("{name}-sync"), cfg.sync_period, move || {
        push_dirty(&st);
        while let Ok(ev) = watch_rx.try_recv() {
            apply_event(&st, &ev.path, ev.kind);
        }
    });
    for t in 0..cfg.server_threads.max(1) {
        let st = Arc::clone(&state);
        process.spawn(format!("{name}-svc{t}"), move || st.endpoint.serve(|msg| handle(&st, msg)));
    }
    ServerHandle { name: name.to_string(), process }
}

fn bootstrap(st: &Arc<ServerState>) {
    let mut index = st.index.write();
    let mut locations = st.locations.write();
    for rec in st.image.shards() {
        if !index.contains(rec.id) {
            index.add_shard(rec.id, rec.mbr.clone());
        }
        locations.insert(rec.id, rec.worker);
        st.generation.fetch_add(1, Ordering::Relaxed);
    }
}

/// Push locally observed expansions to the global image ("servers update
/// Zookeeper every 3 seconds as necessary").
fn push_dirty(st: &Arc<ServerState>) {
    st.obs.sync_rounds.inc();
    let dirty: Vec<(u64, Mbr)> = st.dirty.lock().drain().collect();
    if dirty.is_empty() {
        return;
    }
    let pushed = dirty.len();
    for (id, mbr) in dirty {
        st.image.merge_shard(&ShardRecord { id, worker: String::new(), len: 0, mbr });
        st.obs.staleness.pushed(id, &st.name);
    }
    st.image
        .obs()
        .events()
        .record("image_sync", format!("server={} shards_pushed={pushed}", st.name));
}

/// Apply one global-image change to the local image.
fn apply_event(st: &Arc<ServerState>, path: &str, kind: EventKind) {
    let Some(id) = path
        .strip_prefix(SHARDS_PREFIX)
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return;
    };
    match kind {
        EventKind::Deleted => {
            st.index.write().remove_shard(id);
            st.locations.write().remove(&id);
        }
        EventKind::Created | EventKind::Changed => {
            if let Some(rec) = st.image.shard(id) {
                let mut index = st.index.write();
                if index.contains(id) {
                    index.expand_shard(id, &rec.mbr);
                } else {
                    index.add_shard(id, rec.mbr.clone());
                }
                if !rec.worker.is_empty() {
                    st.locations.write().insert(id, rec.worker);
                }
                st.generation.fetch_add(1, Ordering::Relaxed);
                st.obs.image_applies.inc();
                // Staleness probe: this server's local image now reflects
                // the shard's published box (self-applies are ignored by
                // the probe).
                st.obs.staleness.applied(id, &st.name);
            }
        }
    }
}

fn reply(msg: &Incoming, resp: Response) {
    let _ = msg.reply(resp.encode());
}

/// Everything needed to charge one tagged client request when it
/// completes. Opened before routing (stamping the measured queue wait and
/// request bytes), carried through the route so it can accumulate scan and
/// fan-out counters, settled after the reply is encoded. Untagged requests
/// (or a disabled accounting core) never construct one — their dispatch
/// path costs one branch.
struct Bill {
    principal: PrincipalId,
    started: Instant,
    cost: CostVec,
}

impl Bill {
    fn open(st: &ServerState, p: PrincipalId, msg: &Incoming) -> Option<Bill> {
        if !p.is_tagged() || !st.accounting.enabled() {
            return None;
        }
        Some(Bill {
            principal: p,
            started: Instant::now(),
            cost: CostVec {
                queue_wait_us: micros(msg.queued),
                bytes: msg.payload.len() as u64,
                ..CostVec::default()
            },
        })
    }

    /// Encode the response, fold in reply bytes and end-to-end wall time,
    /// charge the principal, and send the reply.
    fn settle(mut self, st: &ServerState, msg: &Incoming, resp: Response) {
        let bytes = resp.encode();
        self.cost.bytes = self.cost.bytes.saturating_add(bytes.len() as u64);
        self.cost.wall_us = micros(self.started.elapsed());
        st.accounting.charge(self.principal, &self.cost);
        let _ = msg.reply(bytes);
    }
}

/// Dispatch one client op: open a [`Bill`] when the request is tagged, run
/// the op under a (possibly sampled) trace root, then settle the bill and
/// reply. The op receives the request's [`ReqCtx`] — everything it forwards
/// to workers — and the bill's cost vector. The untagged path takes the
/// `None` bill branch: no clock reads, no encoding detour.
fn dispatch(
    st: &Arc<ServerState>,
    msg: Incoming,
    p: PrincipalId,
    op: &str,
    f: impl FnOnce(ReqCtx, Option<&mut CostVec>) -> Response,
) {
    let mut bill = Bill::open(st, p, &msg);
    let resp = traced_root(st, op, p, |t| {
        f(ReqCtx { trace: t, principal: p.0 }, bill.as_mut().map(|b| &mut b.cost))
    });
    match bill {
        Some(b) => b.settle(st, &msg, resp),
        None => reply(&msg, resp),
    }
}

/// Run one client operation under a (possibly sampled) trace root. When the
/// head-based sampler picks this request, the whole operation becomes the
/// `server_route` root span (annotated with the op, server, and — for tagged
/// requests — the accounting principal, so flight-recorder entries say who
/// a slow request belonged to), the context flows into `f`, and on
/// completion the tracer decides whether the assembled trace enters the
/// slow-query flight recorder.
fn traced_root<R>(
    st: &Arc<ServerState>,
    op: &str,
    principal: PrincipalId,
    f: impl FnOnce(Option<TraceCtx>) -> R,
) -> R {
    match st.tracer.sample_root() {
        Some(ctx) => {
            let mut span = st.tracer.span(&ctx, "server_route");
            span.annotate("op", op);
            span.annotate("server", st.name.clone());
            if principal.is_tagged() {
                let who = st
                    .accounting
                    .name(principal)
                    .unwrap_or_else(|| principal.0.to_string());
                span.annotate("principal", who);
            }
            let wait0 = lock::thread_wait_ns();
            let out = f(Some(ctx));
            let waited = lock::thread_wait_ns() - wait0;
            if waited > 0 {
                span.annotate("held_lock_wait_us", (waited / 1_000).to_string());
            }
            let dur = span.finish();
            st.tracer.complete_root(&ctx, dur);
            out
        }
        None => f(None),
    }
}

fn handle(st: &Arc<ServerState>, msg: Incoming) {
    let req = match Request::decode_checked(&msg.payload, &st.schema) {
        Ok(r) => r,
        Err(e) => {
            reply(&msg, Response::Err(format!("bad request: {e}")));
            return;
        }
    };
    match req {
        Request::Ping => reply(&msg, Response::Ack),
        Request::ClientInsert { item, principal } => {
            dispatch(st, msg, PrincipalId(principal), "insert", |ctx, c| {
                route_insert(st, item, ctx, c)
            });
        }
        Request::ClientBulkInsert { items, principal } => {
            dispatch(st, msg, PrincipalId(principal), "bulk_insert", |ctx, c| {
                route_bulk_insert(st, items, ctx, c)
            });
        }
        Request::ClientQuery { query, principal } => {
            dispatch(st, msg, PrincipalId(principal), "query", |ctx, c| {
                route_query(st, &query, ctx, false, c)
            });
        }
        Request::ClientQueryAnalyze { query, principal } => {
            dispatch(st, msg, PrincipalId(principal), "query_analyze", |ctx, c| {
                route_query(st, &query, ctx, true, c)
            });
        }
        other => reply(&msg, Response::Err(format!("unsupported server request: {other:?}"))),
    }
}

/// Resolve a shard's worker from the local map, falling back to the global
/// image (and caching the answer) when the local map is stale.
fn shard_location(st: &Arc<ServerState>, shard: u64) -> Option<String> {
    if let Some(d) = st.locations.read().get(&shard).filter(|d| !d.is_empty()).cloned() {
        return Some(d);
    }
    // Local map is stale: fall back to the global image.
    st.obs.route_misses.inc();
    st.image.obs().events().record(
        "route_miss",
        format!(
            "server={} shard={shard} gen={} image_gen={}",
            st.name,
            st.generation.load(Ordering::Relaxed),
            st.image.generation()
        ),
    );
    let w = st.image.shard(shard).map(|r| r.worker).filter(|w| !w.is_empty())?;
    st.locations.write().insert(shard, w.clone());
    Some(w)
}

/// Items grouped by the shard they were routed to.
type Routed = HashMap<u64, Vec<Item>>;

/// The routing pass both insert paths share: route each item under one
/// `index` + `dirty` acquisition, folding box expansions into `dirty` for
/// the next sync push. Returns the per-shard groups, or `None` when the
/// image holds no shard at all.
fn route_items(st: &Arc<ServerState>, items: Vec<Item>) -> Option<Routed> {
    let mut by_shard = Routed::new();
    let mut index = st.index.write();
    let mut dirty = st.dirty.lock();
    for item in items {
        let (shard, expanded) = index.route_insert(&item)?;
        if expanded {
            st.obs.expansions.inc();
            st.obs.staleness.expansion(shard, &st.name);
            let entry = dirty.entry(shard).or_insert_with(|| Mbr::empty(&st.schema));
            entry.extend_item(&st.schema, &item);
        }
        by_shard.entry(shard).or_default().push(item);
    }
    Some(by_shard)
}

/// What became of one group of routed items.
struct Delivered {
    /// The owning worker's answer (`Ack` or `Err`), or the routing error.
    resp: Response,
    /// Whether a worker request went out for the group (a charged net hop).
    sent: bool,
}

/// Route `items` and deliver every per-shard group to the worker owning
/// its shard, all groups in flight at once; `encode` builds the worker
/// request for one group.
///
/// Routing and location lookup are two steps under different locks, so a
/// concurrent split can retire a routed shard in between (its record
/// leaves the image once the halves are published). Re-routing through the
/// refreshed index then lands on a half, so a bounded retry makes the
/// window harmless. Groups that did reach a worker are never retried, and
/// one group's error does not stop the others being delivered.
fn deliver_inserts(
    st: &Arc<ServerState>,
    mut items: Vec<Item>,
    ctx: ReqCtx,
    encode: impl Fn(u64, Vec<Item>) -> Request,
) -> Vec<Delivered> {
    let mut out = Vec::new();
    for _ in 0..4 {
        let Some(by_shard) = route_items(st, std::mem::take(&mut items)) else {
            out.push(Delivered { resp: Response::Err("no shards available".into()), sent: false });
            return out;
        };
        let mut requests: Vec<(String, Vec<u8>)> = Vec::with_capacity(by_shard.len());
        for (shard, group) in by_shard {
            match shard_location(st, shard) {
                Some(dest) => requests.push((dest, encode(shard, group).encode())),
                None => items.extend(group),
            }
        }
        let replies = st.endpoint.request_many_ctx(&requests, st.cfg.request_timeout, ctx);
        for (reply, (dest, _)) in replies.into_iter().zip(&requests) {
            let resp = match reply {
                Ok(bytes) => match Response::decode(&st.schema, &bytes) {
                    Ok(resp @ (Response::Ack | Response::Err(_))) => resp,
                    Ok(other) => Response::Err(format!("unexpected insert response: {other:?}")),
                    Err(e) => Response::Err(format!("bad worker response: {e}")),
                },
                Err(e) => Response::Err(format!("insert to {dest} failed: {e}")),
            };
            out.push(Delivered { resp, sent: true });
        }
        if items.is_empty() {
            return out;
        }
    }
    let resp = Response::Err("no location for routed shard after re-route retries".into());
    out.push(Delivered { resp, sent: false });
    out
}

fn route_insert(
    st: &Arc<ServerState>,
    item: Item,
    ctx: ReqCtx,
    cost: Option<&mut CostVec>,
) -> Response {
    let _timer = st.obs.insert_seconds.start();
    st.obs.inserts.inc();
    let point_request = |shard, mut group: Vec<Item>| Request::Insert {
        shard,
        item: group.pop().expect("a point insert routes exactly one item"),
    };
    let done = deliver_inserts(st, vec![item], ctx, point_request)
        .pop()
        .expect("one item has one outcome");
    if let (Some(c), true) = (cost, done.sent) {
        c.net_hops += 1;
        c.fanout = c.fanout.max(1);
    }
    done.resp
}

/// Route a whole batch: one routing pass over the local image, then one
/// bulk request per shard. Answers with the first error any shard group
/// met, `Ack` when every group landed.
fn route_bulk_insert(
    st: &Arc<ServerState>,
    items: Vec<Item>,
    ctx: ReqCtx,
    cost: Option<&mut CostVec>,
) -> Response {
    if items.is_empty() {
        return Response::Ack;
    }
    let _timer = st.obs.bulk_insert_seconds.start();
    st.obs.inserts.add(items.len() as u64);
    let bulk_request = |shard, items| Request::BulkInsert { shard, items };
    let mut sent = 0u64;
    let mut resp = Response::Ack;
    for done in deliver_inserts(st, items, ctx, bulk_request) {
        sent += u64::from(done.sent);
        if matches!(resp, Response::Ack) {
            resp = done.resp;
        }
    }
    if let Some(c) = cost {
        c.net_hops += sent;
        c.fanout = c.fanout.max(sent);
    }
    resp
}

/// Route one query: read the local image, group the matching shards by
/// worker, scatter, gather, merge. An ANALYZE'd query (`analyze`) and a
/// tagged one (`cost`) are the same query plus a flag: workers are asked
/// for their per-shard execution stats, assembled here into a [`QueryPlan`]
/// that is returned (`analyze`), charged to the principal (`cost`), or
/// both. The response shape is chosen at the very end; a plain query reads
/// no clock and builds no plan.
fn route_query(
    st: &Arc<ServerState>,
    query: &QueryBox,
    ctx: ReqCtx,
    analyze: bool,
    cost: Option<&mut CostVec>,
) -> Response {
    let _timer = st.obs.query_seconds.start();
    st.obs.queries.inc();
    let want_plan = analyze || cost.is_some();
    // Stamp the decision context *before* routing so the plan reflects what
    // the server knew when it chose: the image generation and the measured
    // staleness at decision time.
    let mut plan = want_plan.then(|| {
        let staleness = st.obs.staleness.snapshot();
        let plan = QueryPlan {
            server: st.name.clone(),
            image_generation: st.generation.load(Ordering::Relaxed),
            staleness_samples: staleness.count,
            staleness_p95_us: (staleness.quantile(0.95) * 1e6) as u64,
            ..QueryPlan::default()
        };
        (Instant::now(), plan)
    });
    let shard_ids = st.index.read().route_query(query);
    if let Some((wall, plan)) = plan.as_mut() {
        plan.route_us = micros(wall.elapsed());
        plan.image_leaves = shard_ids.clone();
        plan.image_leaves.sort_unstable();
    }
    let mut by_worker: HashMap<String, Vec<u64>> = HashMap::new();
    {
        let locations = st.locations.read();
        for id in shard_ids {
            match locations.get(&id) {
                Some(w) => by_worker.entry(w.clone()).or_default().push(id),
                None => continue, // stale: shard disappeared between index and map
            }
        }
    }
    // Asynchronous scatter/gather: all worker requests go out at once and
    // the replies are demultiplexed by correlation ID — one round trip of
    // query latency regardless of fan-out (the ZeroMQ pattern of §III-B).
    let requests: Vec<(String, Vec<u8>)> = by_worker
        .into_iter()
        .map(|(dest, shards)| {
            (dest, Request::worker_query(shards, query.clone(), want_plan).encode())
        })
        .collect();
    let replies = st.endpoint.request_many_ctx(&requests, st.cfg.request_timeout, ctx);
    let mut agg = Aggregate::empty();
    let mut searched = 0u32;
    for (reply, (dest, _)) in replies.into_iter().zip(&requests) {
        let resp = match reply {
            Ok(bytes) => Response::decode(&st.schema, &bytes)
                .unwrap_or_else(|e| Response::Err(format!("bad worker response: {e}"))),
            Err(e) => Response::Err(format!("query to {dest} failed: {e}")),
        };
        match (resp, plan.as_mut()) {
            (Response::Agg { agg: a, shards_searched }, None) => {
                agg.merge(&a);
                searched += shards_searched;
            }
            (Response::AggExec { agg: a, shards_searched, exec }, Some((_, plan))) => {
                agg.merge(&a);
                searched += shards_searched;
                plan.workers.push(exec);
            }
            (Response::Err(e), _) => return Response::Err(e),
            _ => return Response::Err("unexpected worker response".into()),
        }
    }
    let Some((wall, mut plan)) = plan else {
        return Response::Agg { agg, shards_searched: searched };
    };
    plan.workers.sort_by(|a, b| a.worker.cmp(&b.worker));
    plan.wall_us = micros(wall.elapsed());
    if let Some(cost) = cost {
        let totals = plan.totals();
        cost.rows_scanned += totals.items_scanned;
        cost.nodes_visited += totals.nodes_visited;
        cost.net_hops += requests.len() as u64;
        cost.fanout = cost.fanout.max(requests.len() as u64);
    }
    if analyze {
        Response::AggPlan { agg, shards_searched: searched, plan }
    } else {
        Response::Agg { agg, shards_searched: searched }
    }
}
