//! The per-layer budget, measured from outside: probes that call each layer's
//! public functions on the inputs of the run, and deltas of the counters the
//! program already keeps.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use volap::{QueryPlan, Request, Response, ServerIndex, Snapshot, WorkerExec};
use volap_data::{DataGen, QueryGen};
use volap_dims::{Aggregate, HilbertMapper, Item, QueryBox, Schema};
use volap_net::Endpoint;
use volap_tree::{build_store, deserialize_store, ShardStore, StoreKind, TreeConfig};

use crate::load::{Clock, Observer};
use crate::setup::{stream_seed, Env};
use crate::spec::{BULK_CHUNK, DATA_SKEW, QUERY_ROOT_PROB};
use crate::stats::mean;
use crate::trace::SpanLog;

/// One operation in this many is replayed through the probes.
pub const REPLAY_EVERY: u64 = 64;
/// One bulk chunk in this many is.
const REPLAY_BULK_EVERY: u64 = 16;
/// Items in the bare tree that the static probes time.
const PROBE_TREE_ITEMS: usize = 50_000;
/// Round trips timed for `net.echo_rtt_us` and `net.ping_worker_rtt_us`.
const PROBE_RTTS: usize = 2000;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A bench-owned endpoint that answers every request with its payload: the
/// cost of one request/reply hop with no handler behind it.
pub struct EchoServer {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

pub const ECHO: &str = "bench-echo";

impl EchoServer {
    pub fn start(env: &Env) -> Self {
        let ep = env.cluster.network().endpoint(ECHO);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let join = std::thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                if let Ok(msg) = ep.recv(Duration::from_millis(20)) {
                    let _ = msg.reply(msg.payload.clone());
                }
            }
        });
        EchoServer {
            stop,
            join: Some(join),
        }
    }

    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// What a session needs to replay an operation layer by layer.
pub struct Probes {
    ep: Endpoint,
    timeout: Duration,
    schema: Schema,
    /// Mirror of the server's routing index, built from the image.
    index: ServerIndex,
    /// Shard → worker, from the image.
    owner: HashMap<u64, String>,
    /// A bare tree that takes the replayed inserts, started afresh when it
    /// outgrows a shard.
    store: Box<dyn ShardStore>,
    store_kind: StoreKind,
    tree_cfg: TreeConfig,
    store_limit: u64,
}

impl Probes {
    pub fn new(env: &Env, lane: usize) -> Self {
        let mut index = ServerIndex::new(env.schema.clone(), env.cfg.index_dir_cap);
        let mut owner = HashMap::new();
        for rec in env.cluster.image().shards() {
            index.add_shard(rec.id, rec.mbr.clone());
            owner.insert(rec.id, rec.worker);
        }
        Probes {
            ep: env
                .cluster
                .network()
                .endpoint(format!("bench-probe-{lane}")),
            timeout: env.cfg.request_timeout,
            schema: env.schema.clone(),
            index,
            owner,
            store: new_store(env),
            store_kind: env.cfg.store_kind,
            tree_cfg: env.cfg.tree_config(),
            store_limit: env.cfg.max_shard_items,
        }
    }

    fn echo(&self, clock: &Clock) -> (u64, u64) {
        let start = clock.now_ns();
        let _ = black_box(self.ep.request(ECHO, vec![0u8; 32], self.timeout));
        (start, clock.now_ns())
    }
}

fn new_store(env: &Env) -> Box<dyn ShardStore> {
    build_store(env.cfg.store_kind, &env.schema, &env.cfg.tree_config())
}

/// Critical path of a query inside the tree layer, from the plan: a worker
/// scans its shards side by side when its pool fans out, one after another
/// otherwise, and the server waits for the slowest worker.
fn tree_critical_us(plan: &QueryPlan) -> u64 {
    fn worker_us(w: &WorkerExec) -> u64 {
        let own = if w.fanout > 1 {
            w.shards.iter().map(|s| s.wall_us).max().unwrap_or(0)
        } else {
            w.shards.iter().map(|s| s.wall_us).sum()
        };
        own.max(w.forwards.iter().map(worker_us).max().unwrap_or(0))
    }
    plan.workers.iter().map(worker_us).max().unwrap_or(0)
}

/// The traced run's observer: a root span around every client call, and for
/// one call in [`REPLAY_EVERY`] the same input replayed through the probes,
/// each as a child span named after its layer.
pub struct Tracing {
    pub log: SpanLog,
    probes: Probes,
    clock: Clock,
    seen: u64,
    /// Duration of the span timed last.
    last_ns: u64,
    pub replays: u64,
    /// Items the replays inserted into the cluster, for the conservation check.
    pub extra: Aggregate,
    /// Client-side codec time over the replays, nanoseconds.
    pub client_codec_ns: Vec<f64>,
    /// Plan counters summed over every analysed query.
    pub plans: u64,
    pub nodes_visited: u64,
    pub items_scanned: u64,
    pub covered_hits: u64,
    pub results: u64,
    pub tree_us: u64,
}

impl Tracing {
    pub fn new(env: &Env, lane: usize, clock: Clock, capacity: usize) -> Self {
        Tracing {
            log: SpanLog::with_capacity(capacity, lane as u64 + 1),
            probes: Probes::new(env, lane),
            clock,
            seen: 0,
            last_ns: 0,
            replays: 0,
            extra: Aggregate::empty(),
            client_codec_ns: Vec::new(),
            plans: 0,
            nodes_visited: 0,
            items_scanned: 0,
            covered_hits: 0,
            results: 0,
            tree_us: 0,
        }
    }

    pub fn take_spans(&mut self) -> Vec<crate::trace::Span> {
        std::mem::replace(&mut self.log, SpanLog::with_capacity(0, 0)).into_spans()
    }

    fn due(&mut self, every: u64) -> bool {
        self.seen += 1;
        self.seen.is_multiple_of(every)
    }

    /// Time `f` as a span caused by `parent`.
    fn span<R>(
        &mut self,
        parent: u64,
        name: &'static str,
        f: impl FnOnce(&mut Probes) -> R,
    ) -> (u64, R) {
        let start = self.clock.now_ns();
        let r = f(&mut self.probes);
        let end = self.clock.now_ns();
        self.last_ns = end - start;
        (self.log.push(parent, name, start, end), r)
    }

    fn net_span(&mut self, parent: u64) {
        let (start, end) = self.probes.echo(&self.clock);
        self.log.push(parent, "net", start, end);
    }

    fn replay_insert(&mut self, root: u64, item: &Item) {
        self.replays += 1;
        let (_, shard) = self.span(root, "server_index", |p| {
            p.index.route_insert(item).map(|(s, _)| s)
        });
        let shard = shard.unwrap_or(0);
        self.span(root, "proto", |p| codec_insert_client(&p.schema, item));
        self.client_codec_ns.push(self.last_ns as f64);
        self.span(root, "proto", |p| {
            codec_insert_server(&p.schema, item, shard)
        });
        self.net_span(root);
        // Straight to the worker that owned the shard when the mirror was
        // built. On `mixed_rw` the shard may have split or moved since; the
        // worker then follows its alias, as it does for a stale server route.
        let parent = match self.probes.owner.get(&shard).cloned() {
            Some(dest) => {
                let bytes = Request::Insert {
                    shard,
                    item: item.clone(),
                }
                .encode();
                let (worker, reply) =
                    self.span(root, "worker", |p| p.ep.request(&dest, bytes, p.timeout));
                let acked = reply
                    .ok()
                    .and_then(|b| Response::decode(&self.probes.schema, &b).ok())
                    == Some(Response::Ack);
                if acked {
                    self.extra.add(item.measure);
                }
                self.net_span(worker);
                self.span(worker, "proto", |_| codec_insert_worker(item, shard));
                worker
            }
            None => root,
        };
        self.span(parent, "tree", |p| p.store.insert(item));
        self.recycle_store();
    }

    fn replay_query(&mut self, root: u64, q: &QueryBox, plan: Option<&QueryPlan>) {
        self.replays += 1;
        let (_, shards) = self.span(root, "server_index", |p| p.index.route_query(q));
        self.span(root, "proto", |p| codec_query_client(&p.schema, q));
        self.client_codec_ns.push(self.last_ns as f64);
        let mut by_worker: HashMap<&str, Vec<u64>> = HashMap::new();
        for id in &shards {
            if let Some(w) = self.probes.owner.get(id) {
                by_worker.entry(w.as_str()).or_default().push(*id);
            }
        }
        let requests: Vec<(String, Vec<u8>)> = by_worker
            .into_iter()
            .map(|(dest, ids)| {
                (
                    dest.to_string(),
                    Request::Query {
                        shards: ids,
                        query: q.clone(),
                    }
                    .encode(),
                )
            })
            .collect();
        self.span(root, "proto", |p| {
            codec_query_server(&p.schema, q, &shards, requests.len())
        });
        self.net_span(root);
        let mut parent = root;
        if !requests.is_empty() {
            let (worker, _) = self.span(root, "worker", |p| {
                black_box(p.ep.request_many(&requests, p.timeout))
            });
            self.net_span(worker);
            self.span(worker, "proto", |_| codec_query_worker(q, &shards));
            parent = worker;
        }
        if let Some(plan) = plan {
            // The tree's share comes from the plan the program returned; it
            // is entered as a span so that the worker's self time excludes it.
            let start = self.clock.now_ns();
            self.log
                .push(parent, "tree", start, start + tree_critical_us(plan) * 1000);
        }
    }

    fn recycle_store(&mut self) {
        if self.probes.store.len() > self.probes.store_limit {
            let p = &mut self.probes;
            p.store = build_store(p.store_kind, &p.schema, &p.tree_cfg);
        }
    }
}

impl Observer for Tracing {
    const ANALYZE: bool = true;

    fn wants_bulk(&mut self) -> bool {
        (self.seen + 1).is_multiple_of(REPLAY_BULK_EVERY)
    }

    fn insert(&mut self, item: &Item, start_ns: u64, end_ns: u64) {
        let root = self.log.push(0, "client", start_ns, end_ns);
        if self.due(REPLAY_EVERY) {
            self.replay_insert(root, item);
        }
    }

    fn bulk(&mut self, items: Option<&[Item]>, start_ns: u64, end_ns: u64) {
        let root = self.log.push(0, "client", start_ns, end_ns);
        self.seen += 1;
        if let Some(items) = items {
            self.replays += 1;
            self.span(root, "proto", |p| codec_bulk(&p.schema, items));
            self.client_codec_ns.push(self.last_ns as f64);
            self.span(root, "tree", |p| p.store.bulk_insert(items.to_vec()));
            self.recycle_store();
        }
    }

    fn query(
        &mut self,
        q: &QueryBox,
        answer: &Aggregate,
        plan: Option<&QueryPlan>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let root = self.log.push(0, "client", start_ns, end_ns);
        if let Some(plan) = plan {
            self.results += answer.count;
            let t = plan.totals();
            self.plans += 1;
            self.nodes_visited += t.nodes_visited;
            self.items_scanned += t.items_scanned;
            self.covered_hits += t.covered_hits;
            self.tree_us += tree_critical_us(plan);
        }
        if self.due(REPLAY_EVERY) {
            self.replay_query(root, q, plan);
        }
    }
}

// --- codec probes: the encode/decode calls each hop of a request makes ---

fn codec_insert_client(schema: &Schema, item: &Item) {
    black_box(
        Request::ClientInsert {
            item: item.clone(),
            principal: 0,
        }
        .encode(),
    );
    black_box(Response::decode(schema, &Response::Ack.encode()).is_ok());
}

fn codec_insert_server(schema: &Schema, item: &Item, shard: u64) {
    let bytes = Request::ClientInsert {
        item: item.clone(),
        principal: 0,
    }
    .encode();
    black_box(Request::decode(&bytes).is_ok());
    black_box(
        Request::Insert {
            shard,
            item: item.clone(),
        }
        .encode(),
    );
    black_box(Response::decode(schema, &Response::Ack.encode()).is_ok());
}

fn codec_insert_worker(item: &Item, shard: u64) {
    let bytes = Request::Insert {
        shard,
        item: item.clone(),
    }
    .encode();
    black_box(Request::decode(&bytes).is_ok());
    black_box(Response::Ack.encode());
}

fn agg_reply() -> Vec<u8> {
    Response::Agg {
        agg: Aggregate::of(1.0),
        shards_searched: 4,
    }
    .encode()
}

fn codec_query_client(schema: &Schema, q: &QueryBox) {
    black_box(
        Request::ClientQuery {
            query: q.clone(),
            principal: 0,
        }
        .encode(),
    );
    black_box(Response::decode(schema, &agg_reply()).is_ok());
}

fn codec_query_server(schema: &Schema, q: &QueryBox, shards: &[u64], workers: usize) {
    let bytes = Request::ClientQuery {
        query: q.clone(),
        principal: 0,
    }
    .encode();
    black_box(Request::decode(&bytes).is_ok());
    for _ in 0..workers.max(1) {
        black_box(
            Request::Query {
                shards: shards.to_vec(),
                query: q.clone(),
            }
            .encode(),
        );
        black_box(Response::decode(schema, &agg_reply()).is_ok());
    }
}

fn codec_query_worker(q: &QueryBox, shards: &[u64]) {
    let bytes = Request::Query {
        shards: shards.to_vec(),
        query: q.clone(),
    }
    .encode();
    black_box(Request::decode(&bytes).is_ok());
    black_box(agg_reply());
}

fn codec_bulk(schema: &Schema, items: &[Item]) {
    let bytes = Request::ClientBulkInsert {
        items: items.to_vec(),
        principal: 0,
    }
    .encode();
    black_box(Request::decode(&bytes).is_ok());
    black_box(Response::decode(schema, &Response::Ack.encode()).is_ok());
}

/// Per-call time of `f` over `inputs`, nanoseconds.
fn per_call_ns<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for x in inputs {
        f(x);
    }
    ns(t.elapsed()) as f64 / inputs.len().max(1) as f64
}

/// Unit costs of each layer on this run's inputs, timed on the quiet cluster
/// after the measured phase. They do not depend on the workload, only on the
/// seed: a layer's unit cost that moves here moved in the layer.
pub fn static_probes(env: &Env, smoke: bool, out: &mut Vec<(&'static str, f64)>) {
    let schema = &env.schema;
    let scale = if smoke { 50 } else { 1 };
    let (tree_items, rtts) = (PROBE_TREE_ITEMS / scale, PROBE_RTTS / scale);
    let mut gen = DataGen::new(schema, stream_seed(env.seed, 9), DATA_SKEW);
    let items = gen.items(tree_items + tree_items / 2);
    let queries: Vec<QueryBox> = if env.pool.iter().any(|p| !p.is_empty()) {
        env.pool
            .iter()
            .flat_map(|p| p.iter().take(64).cloned())
            .collect()
    } else {
        let mut qg = QueryGen::new(schema, stream_seed(env.seed, 1), QUERY_ROOT_PROB);
        (0..192)
            .map(|_| qg.query(&items[..tree_items / 25]))
            .collect()
    };
    let few = &items[..tree_items / 10];

    let mapper = HilbertMapper::new(schema, true);
    out.push((
        "hilbert.key_ns",
        per_call_ns(&items[..tree_items / 2], |it| {
            black_box(mapper.key(it));
        }),
    ));

    out.push((
        "proto.insert_codec_ns",
        per_call_ns(few, |it| {
            codec_insert_client(schema, it);
            codec_insert_server(schema, it, 1);
            codec_insert_worker(it, 1);
        }),
    ));
    let chunks: Vec<&[Item]> = items
        .chunks_exact(BULK_CHUNK.min(items.len()))
        .take(4)
        .collect();
    out.push((
        "proto.bulk_codec_ns_per_item",
        per_call_ns(&chunks, |c| codec_bulk(schema, c)) / chunks[0].len() as f64,
    ));
    out.push((
        "proto.query_codec_ns",
        per_call_ns(&queries, |q| {
            codec_query_client(schema, q);
            codec_query_server(schema, q, &[0, 1, 2, 3], 2);
            codec_query_worker(q, &[0, 1]);
        }),
    ));
    out.push((
        "proto.bytes_per_insert",
        Request::ClientInsert {
            item: items[0].clone(),
            principal: 0,
        }
        .encode()
        .len() as f64,
    ));

    let probes = Probes::new(env, 9);
    let clock = Clock::start();
    let rtts: Vec<()> = vec![(); rtts];
    out.push((
        "net.echo_rtt_us",
        per_call_ns(&rtts, |_| {
            probes.echo(&clock);
        }) / 1e3,
    ));
    let worker = env
        .cluster
        .image()
        .workers()
        .into_iter()
        .next()
        .unwrap_or_default();
    let ping = Request::Ping.encode();
    out.push((
        "net.ping_worker_rtt_us",
        per_call_ns(&rtts, |_| {
            let _ = black_box(probes.ep.request(&worker, ping.clone(), probes.timeout));
        }) / 1e3,
    ));

    let mut index = probes.index;
    out.push((
        "server_index.route_insert_ns",
        per_call_ns(&items[..tree_items / 2], |it| {
            black_box(index.route_insert(it));
        }),
    ));
    out.push((
        "server_index.route_query_ns",
        per_call_ns(&queries, |q| {
            black_box(index.route_query(q));
        }),
    ));

    let store = new_store(env);
    let t = Instant::now();
    store.bulk_insert(items[..tree_items].to_vec());
    out.push((
        "tree.bulk_insert_ns_per_item",
        ns(t.elapsed()) as f64 / tree_items as f64,
    ));
    out.push((
        "tree.insert_ns",
        per_call_ns(&items[tree_items..], |it| store.insert(it)),
    ));
    out.push(("tree.node_splits", store.stats().node_splits as f64));
    let t = Instant::now();
    let halves = store.split_query().map(|plan| store.split(&plan));
    black_box(&halves);
    out.push(("tree.split_ms", ns(t.elapsed()) as f64 / 1e6));
    let t = Instant::now();
    let blob = store.serialize();
    out.push(("tree.serialize_ms", ns(t.elapsed()) as f64 / 1e6));
    out.push((
        "tree.bytes_per_item",
        blob.len() as f64 / store.len().max(1) as f64,
    ));
    let t = Instant::now();
    black_box(deserialize_store(env.cfg.store_kind, schema, &env.cfg.tree_config(), &blob).is_ok());
    out.push(("tree.deserialize_ms", ns(t.elapsed()) as f64 / 1e6));
    // The bare tree at the same size, same queries: what the tree layer
    // alone needs for them.
    out.push((
        "tree.query_us",
        per_call_ns(&queries, |q| {
            black_box(store.query_traced(q));
        }) / 1e3,
    ));
}

/// Deltas of the program's own counters and histograms over the measured
/// phase, per layer.
pub fn counter_metrics(
    env: &Env,
    before: &Snapshot,
    after: &Snapshot,
    ops: u64,
    out: &mut Vec<(&'static str, f64)>,
) {
    let count = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let hist = |name: &str| {
        let get = |s: &Snapshot| {
            s.histogram(name)
                .map_or((0, 0.0), |h| (h.count, h.sum_seconds))
        };
        let (c0, s0) = get(before);
        let (c1, s1) = get(after);
        (c1.saturating_sub(c0) as f64, (s1 - s0).max(0.0))
    };
    let mean_of = |name: &str, scale: f64| {
        let (n, sum) = hist(name);
        if n > 0.0 {
            sum / n * scale
        } else {
            0.0
        }
    };
    let per_op = |v: f64| v / ops.max(1) as f64;

    out.push((
        "net.requests_per_op",
        per_op(count("volap_net_requests_total")),
    ));
    out.push(("net.bytes_per_op", per_op(count("volap_net_bytes_total"))));
    out.push(("net.outstanding_s", hist("volap_net_request_seconds").1));
    out.push(("net.timeouts", count("volap_net_timeouts_total")));
    out.push(("net.late_replies", count("volap_net_late_replies_total")));
    out.push((
        "server.insert_mean_us",
        mean_of("volap_server_insert_seconds", 1e6),
    ));
    out.push((
        "server.query_mean_us",
        mean_of("volap_server_query_seconds", 1e6),
    ));
    out.push((
        "server.bulk_mean_ms",
        mean_of("volap_server_bulk_insert_seconds", 1e3),
    ));
    out.push((
        "server.route_misses",
        count("volap_server_route_misses_total"),
    ));
    out.push((
        "server.box_expansions",
        count("volap_server_box_expansions_total"),
    ));
    out.push((
        "worker.insert_mean_us",
        mean_of("volap_worker_insert_seconds", 1e6),
    ));
    out.push((
        "worker.query_mean_us",
        mean_of("volap_worker_query_seconds", 1e6),
    ));
    out.push((
        "worker.bulk_mean_ms",
        mean_of("volap_worker_bulk_insert_seconds", 1e3),
    ));
    out.push((
        "worker.queue_inserts",
        count("volap_worker_queue_inserts_total"),
    ));
    out.push(("worker.splits", count("volap_worker_splits_total")));
    out.push((
        "worker.migrations_out",
        count("volap_worker_migrations_out_total"),
    ));
    out.push(("worker.adoptions", count("volap_worker_adoptions_total")));
    out.push(("worker.split_s", hist("volap_worker_split_seconds").1));
    out.push(("worker.migrate_s", hist("volap_worker_migrate_seconds").1));
    let loads: Vec<f64> = env
        .cluster
        .worker_loads()
        .into_iter()
        .map(|(_, n)| n as f64)
        .collect();
    let mean_load = mean(&loads);
    out.push((
        "worker.load_imbalance",
        if mean_load > 0.0 {
            loads.iter().cloned().fold(0.0, f64::max) / mean_load
        } else {
            0.0
        },
    ));
    out.push(("manager.splits", count("volap_manager_splits_total")));
    out.push((
        "manager.migrations",
        count("volap_manager_migrations_total"),
    ));
    out.push((
        "manager.round_mean_ms",
        mean_of("volap_manager_round_seconds", 1e3),
    ));
    out.push(("image.merges", count("volap_image_merges_total")));
    out.push(("image.cas_retries", count("volap_image_cas_retries_total")));
    let mut stale: Vec<f64> = after.staleness.samples_seconds.clone();
    stale.sort_by(f64::total_cmp);
    let at = |p: f64| {
        stale
            .get(((stale.len() as f64 * p) as usize).min(stale.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0)
            * 1e3
    };
    out.push(("image.staleness_p50_ms", at(0.5)));
    out.push(("image.staleness_p99_ms", at(0.99)));
}
