//! The single-process cluster harness and client sessions.
//!
//! Assembles the full VOLAP deployment of Figure 2 — `m` servers, `p`
//! workers, a coordination store and the manager — inside one process,
//! connected by the [`volap_net`] fabric. Workers and servers run real
//! service threads and speak the real wire protocol; only the physical
//! network is simulated.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use volap_coord::CoordService;
use volap_dims::{Aggregate, Item, QueryBox, Schema};
use volap_net::{Endpoint, Network};
use volap_obs::lock::{LockClass, ObsMutex};
use volap_obs::{Obs, Snapshot};

/// Handle list of the harness itself; held only for push/remove, never
/// while any component lock is taken, but it ranks lowest so it could be.
static WORKERS_CLASS: LockClass = LockClass::new("cluster.workers", 10);

use crate::config::VolapConfig;
use crate::image::ImageStore;
use crate::manager::{spawn_manager, ManagerHandle};
use crate::proto::{Request, Response};
use crate::server::{spawn_server, ServerHandle};
use crate::worker::{create_empty_shard, spawn_worker, WorkerHandle};

/// A running VOLAP deployment.
pub struct Cluster {
    net: Network,
    image: ImageStore,
    cfg: VolapConfig,
    workers: ObsMutex<Vec<WorkerHandle>>,
    servers: Vec<ServerHandle>,
    manager: Option<ManagerHandle>,
    bootstrap_ep: Endpoint,
    next_client: AtomicUsize,
    next_worker_id: AtomicUsize,
}

impl Cluster {
    /// Start a cluster per `cfg`: workers first, then the initial empty
    /// shards, then servers (which bootstrap from the image), then the
    /// manager.
    pub fn start(cfg: VolapConfig) -> Self {
        let net = match cfg.net_latency {
            Some(lat) => Network::with_latency(lat),
            None => Network::new(),
        };
        let coord = CoordService::new();
        let obs = Obs::new();
        net.attach_obs(obs.registry());
        // Lock-order violations (debug builds) land in this deployment's
        // event log alongside the rest of the structured events.
        obs.install_lock_hook();
        let image = ImageStore::with_obs(coord, cfg.schema.clone(), obs);
        let bootstrap_ep = net.endpoint("bootstrap");

        let mut workers = Vec::new();
        for i in 0..cfg.workers {
            workers.push(spawn_worker(&net, &image, &cfg, &format!("worker-{i}")));
        }
        // Seed initial empty shards round-robin.
        for w in &workers {
            for _ in 0..cfg.initial_shards_per_worker {
                let id = image.alloc_ids(1).start;
                create_empty_shard(&bootstrap_ep, &w.name, &cfg.schema, id, cfg.request_timeout)
                    .expect("bootstrap shard");
            }
        }
        let servers: Vec<ServerHandle> = (0..cfg.servers)
            .map(|i| spawn_server(&net, &image, &cfg, &format!("server-{i}")))
            .collect();
        let manager = cfg
            .manager_enabled
            .then(|| spawn_manager(&net, &image, &cfg, "manager"));
        let next_worker_id = AtomicUsize::new(cfg.workers);
        Self {
            net,
            image,
            cfg,
            workers: ObsMutex::new(&WORKERS_CLASS, workers),
            servers,
            manager,
            bootstrap_ep,
            next_client: AtomicUsize::new(0),
            next_worker_id,
        }
    }

    /// The cluster's schema.
    pub fn schema(&self) -> &Schema {
        &self.cfg.schema
    }

    /// The configuration in force.
    pub fn config(&self) -> &VolapConfig {
        &self.cfg
    }

    /// The global image (inspection by experiments).
    pub fn image(&self) -> &ImageStore {
        &self.image
    }

    /// The message fabric (advanced embedding and fault-injection tests).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Kill a worker abruptly: stop its threads and unregister its endpoint
    /// (future messages to it fail). Its shards remain in the image, as
    /// after a real crash. Returns `false` for unknown names.
    pub fn kill_worker(&self, name: &str) -> bool {
        let handle = {
            let mut workers = self.workers.lock();
            match workers.iter().position(|w| w.name == name) {
                Some(pos) => workers.remove(pos),
                None => return false,
            }
        };
        handle.stop();
        true
    }

    /// Elastically add a worker (it starts empty; the manager migrates data
    /// onto it).
    pub fn add_worker(&self) -> String {
        let id = self.next_worker_id.fetch_add(1, Ordering::Relaxed);
        let name = format!("worker-{id}");
        let handle = spawn_worker(&self.net, &self.image, &self.cfg, &name);
        self.workers.lock().push(handle);
        name
    }

    /// Open a client session, attached round-robin to one of the servers
    /// ("each user session is attached to one of the server nodes").
    pub fn client(&self) -> ClientSession {
        let i = self.next_client.fetch_add(1, Ordering::Relaxed);
        let server = format!("server-{}", i % self.servers.len());
        let endpoint = self.net.endpoint(format!("client-{i}"));
        ClientSession {
            endpoint,
            server,
            schema: self.cfg.schema.clone(),
            timeout: self.cfg.request_timeout,
        }
    }

    /// A client session pinned to a specific server (freshness experiments
    /// need cross-server pairs).
    pub fn client_on(&self, server_idx: usize) -> ClientSession {
        let i = self.next_client.fetch_add(1, Ordering::Relaxed);
        ClientSession {
            endpoint: self.net.endpoint(format!("client-{i}")),
            server: format!("server-{}", server_idx % self.servers.len()),
            schema: self.cfg.schema.clone(),
            timeout: self.cfg.request_timeout,
        }
    }

    /// The deployment's observability core (metrics registry, event log,
    /// and staleness probe), shared by every component.
    pub fn obs(&self) -> &Obs {
        self.image.obs()
    }

    /// One coherent observability snapshot: every counter, gauge, and
    /// latency histogram, the recent structured events, and the measured
    /// staleness distribution. Render it with `volap_obs::export`.
    pub fn snapshot(&self) -> Snapshot {
        self.obs().snapshot()
    }

    /// The load-balance audit trail: every manager decision (split,
    /// migration, orphan reap) with the inputs that drove it, sequence
    /// ordered, bounded by `volap_obs::AUDIT_CAPACITY`.
    pub fn balance_audit(&self) -> Vec<volap_obs::BalanceDecision> {
        self.obs().audit().snapshot()
    }

    /// `(splits, migrations)` performed so far by the manager.
    pub fn balance_counts(&self) -> (u64, u64) {
        match &self.manager {
            Some(m) => (m.stats.splits.get(), m.stats.migrations.get()),
            None => (0, 0),
        }
    }

    /// Per-worker data sizes from the global image: `(worker, items)`,
    /// including workers that currently hold nothing.
    pub fn worker_loads(&self) -> Vec<(String, u64)> {
        let mut loads: Vec<(String, u64)> =
            self.image.workers().into_iter().map(|w| (w, 0)).collect();
        for rec in self.image.shards() {
            if let Some(entry) = loads.iter_mut().find(|(w, _)| *w == rec.worker) {
                entry.1 += rec.len;
            }
        }
        loads
    }

    /// Cumulative `(inserts, box_expansions)` across all servers. Snapshot
    /// twice and difference to get the expansion probability of a *mature*
    /// database window (feeds the Figure-10 simulation).
    pub fn expansion_counts(&self) -> (u64, u64) {
        let reg = self.obs().registry();
        (
            reg.sum_counters("volap_server_inserts_total"),
            reg.sum_counters("volap_server_box_expansions_total"),
        )
    }

    /// Cumulative fraction of inserts that expanded a shard box.
    pub fn expansion_prob(&self) -> f64 {
        let (ins, exp) = self.expansion_counts();
        if ins == 0 {
            0.0
        } else {
            exp as f64 / ins as f64
        }
    }

    /// Total shard count in the image.
    pub fn shard_count(&self) -> usize {
        self.image.shards().len()
    }

    /// Wait until every server has at least `n` shards in its local image
    /// (sync settling helper for tests/benches).
    pub fn settle(&self, deadline: Duration) {
        let start = Instant::now();
        let want = self.shard_count();
        while start.elapsed() < deadline {
            // Probe via a tiny query through each server: a full-space query
            // must route to every live shard's worker without error.
            let ok = {
                let c = self.client();
                c.query(&QueryBox::all(&self.cfg.schema)).is_ok()
            };
            if ok && self.shard_count() >= want {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stop everything: manager, servers, workers.
    pub fn shutdown(self) {
        if let Some(m) = self.manager {
            m.stop();
        }
        for s in self.servers {
            s.stop();
        }
        for w in self.workers.into_inner() {
            w.stop();
        }
        let _ = self.bootstrap_ep;
    }
}

/// A client session bound to one server.
pub struct ClientSession {
    endpoint: Endpoint,
    server: String,
    schema: Schema,
    timeout: Duration,
}

/// A dropped session takes its `client-N` endpoint off the fabric, so
/// short-lived sessions (`Cluster::settle` opens one per probe) do not
/// accumulate in the registry.
impl Drop for ClientSession {
    fn drop(&mut self) {
        self.endpoint.network().unregister(self.endpoint.name());
    }
}

impl ClientSession {
    /// The server this session is attached to.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// Bulk-ingest a batch: routed in one pass on the server and shipped
    /// to workers as per-shard bulk loads. Far faster than per-item
    /// round trips (paper §IV-C).
    pub fn bulk_insert(&self, items: Vec<Item>) -> Result<(), String> {
        let bytes = self
            .endpoint
            .request(
                &self.server,
                Request::ClientBulkInsert {
                    items,
                    principal: 0,
                }
                .encode(),
                self.timeout,
            )
            .map_err(|e| e.to_string())?;
        match Response::decode(&self.schema, &bytes).map_err(|e| e.to_string())? {
            Response::Ack => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    /// Insert one item; returns when the item is durably placed in a shard.
    pub fn insert(&self, item: &Item) -> Result<(), String> {
        let bytes = self
            .endpoint
            .request(
                &self.server,
                Request::ClientInsert {
                    item: item.clone(),
                    principal: 0,
                }
                .encode(),
                self.timeout,
            )
            .map_err(|e| e.to_string())?;
        match Response::decode(&self.schema, &bytes).map_err(|e| e.to_string())? {
            Response::Ack => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    /// Run an aggregate query; returns the aggregate and the number of
    /// shards searched (Figure 9b's metric).
    pub fn query(&self, q: &QueryBox) -> Result<(Aggregate, u32), String> {
        let bytes = self
            .endpoint
            .request(
                &self.server,
                Request::ClientQuery {
                    query: q.clone(),
                    principal: 0,
                }
                .encode(),
                self.timeout,
            )
            .map_err(|e| e.to_string())?;
        match Response::decode(&self.schema, &bytes).map_err(|e| e.to_string())? {
            Response::Agg {
                agg,
                shards_searched,
            } => Ok((agg, shards_searched)),
            Response::Err(e) => Err(e),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }

    /// [`ClientSession::query`] with EXPLAIN/ANALYZE: the same aggregate,
    /// plus the assembled [`crate::QueryPlan`] describing exactly how the
    /// query executed — which image leaves the server's routing index
    /// matched (and the image generation/staleness at that moment), and for
    /// every contacted worker the alias chases, parallel fan-out, and
    /// per-shard traversal counters. The non-analyzed path is untouched:
    /// introspection cost is paid only by this call.
    pub fn query_analyze(
        &self,
        q: &QueryBox,
    ) -> Result<(Aggregate, u32, crate::QueryPlan), String> {
        let bytes = self
            .endpoint
            .request(
                &self.server,
                Request::ClientQueryAnalyze {
                    query: q.clone(),
                    principal: 0,
                }
                .encode(),
                self.timeout,
            )
            .map_err(|e| e.to_string())?;
        match Response::decode(&self.schema, &bytes).map_err(|e| e.to_string())? {
            Response::AggPlan {
                agg,
                shards_searched,
                plan,
            } => Ok((agg, shards_searched, plan)),
            Response::Err(e) => Err(e),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }
}
