//! Set-up: start the cluster, preload it, let the manager balance it, and
//! build the query pool. All of it is timed as `setup_s`.

use std::time::{Duration, Instant};

use volap::{Cluster, Request, Response, VolapConfig};
use volap_data::{DataGen, QueryGen};
use volap_dims::{Aggregate, Item, QueryBox, Schema};
use volap_net::Endpoint;

use crate::spec::{Workload, BULK_CHUNK, COVERAGE_SAMPLE, DATA_SKEW, QUERY_ROOT_PROB};

/// Candidates tried before the query pool gives up on a band.
const POOL_ATTEMPTS: usize = 2_000_000;
/// How long quiescence may take before set-up is abandoned.
const QUIESCE_LIMIT: Duration = Duration::from_secs(30);

/// Seed of the preload. The database a run starts from is the same for every
/// `--seed`, as a dataset of a given scale is; the seed varies the operations
/// run against it. With a database per seed the bootstrap shards take other
/// boxes each time, and query latency then differs by a quarter from seed to
/// seed at the same commit.
const DATABASE_SEED: u64 = 2016;

/// The seed of input stream `k` of a run: 1 query pool, 2.. the sessions,
/// 9 the probes.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(16).wrapping_add(k)
}

/// A cluster ready for the measured phase.
pub struct Env {
    pub w: Workload,
    pub schema: Schema,
    pub cfg: VolapConfig,
    pub cluster: Cluster,
    /// The benchmark's own endpoint on the cluster's network, for asking the
    /// workers what they hold.
    pub probe: Endpoint,
    pub seed: u64,
    pub preload: usize,
    pub preload_agg: Aggregate,
    /// The first [`COVERAGE_SAMPLE`] preload items.
    pub sample: Vec<Item>,
    /// Query pool by band: low, medium, high.
    pub pool: [Vec<QueryBox>; 3],
    pub setup_s: f64,
}

/// Smoke runs preload a hundredth.
pub fn preload_size(w: &Workload, smoke: bool) -> usize {
    if smoke {
        w.preload / 100
    } else {
        w.preload
    }
}

/// The preload stream of a run, regenerated where it is needed so that the
/// harness holds no copy of the database while memory is measured.
pub fn preload_gen(schema: &Schema) -> DataGen {
    DataGen::new(schema, DATABASE_SEED, DATA_SKEW)
}

pub fn setup(w: Workload, seed: u64, smoke: bool) -> Result<Env, String> {
    let t = Instant::now();
    let schema = Schema::tpcds();
    let cfg = w.config(&schema);
    let preload = preload_size(&w, smoke);
    let cluster = Cluster::start(cfg.clone());
    let probe = cluster.network().endpoint("bench-setup");
    let mut env = Env {
        w,
        schema,
        cfg,
        cluster,
        probe,
        seed,
        preload,
        preload_agg: Aggregate::empty(),
        sample: Vec::new(),
        pool: [Vec::new(), Vec::new(), Vec::new()],
        setup_s: 0.0,
    };
    match fill(&mut env, smoke) {
        Ok(()) => {
            env.setup_s = t.elapsed().as_secs_f64();
            Ok(env)
        }
        Err(e) => {
            env.cluster.shutdown();
            Err(e)
        }
    }
}

fn fill(env: &mut Env, smoke: bool) -> Result<(), String> {
    let mut gen = preload_gen(&env.schema);
    let client = env.cluster.client_on(0);
    let mut left = env.preload;
    while left > 0 {
        let items = gen.items(left.min(BULK_CHUNK));
        left -= items.len();
        for it in &items {
            env.preload_agg.add(it.measure);
        }
        if env.sample.len() < COVERAGE_SAMPLE {
            let take = (COVERAGE_SAMPLE - env.sample.len()).min(items.len());
            env.sample.extend_from_slice(&items[..take]);
        }
        client
            .bulk_insert(items)
            .map_err(|e| format!("preload: {e}"))?;
    }
    if env.w.manager {
        quiesce(env)?;
    }
    env.cluster.settle(Duration::from_secs(5));
    let want = env.w.pool(smoke);
    if want.iter().any(|&n| n > 0) {
        env.pool = query_pool(&env.schema, stream_seed(env.seed, 1), &env.sample, want)?;
    }
    Ok(())
}

/// The shards over the split threshold, as `(id, worker, items)`, asked of the
/// workers themselves; `None` when a worker did not answer. The image is not
/// asked: a worker's periodic statistics can publish the record of a shard a
/// moment after a split retired it, and that record then stays in the image,
/// over the threshold and unsplittable, for as long as the cluster runs (one
/// set-up in a few hundred at the commit that added the benchmark).
fn oversize_shards(env: &Env) -> Option<Vec<(u64, String, u64)>> {
    let mut oversize = Vec::new();
    for worker in env.cluster.image().workers() {
        let reply = env
            .probe
            .request(
                &worker,
                Request::GetWorkerStats.encode(),
                env.cfg.request_timeout,
            )
            .ok()?;
        let Ok(Response::WorkerStats { shards }) = Response::decode(&env.schema, &reply) else {
            return None;
        };
        oversize.extend(
            shards
                .into_iter()
                .filter(|r| r.len > env.cfg.max_shard_items)
                .map(|r| (r.id, r.worker, r.len)),
        );
    }
    Some(oversize)
}

/// Wait until the manager has been idle for five of its periods and no worker
/// holds a shard over the split threshold. Returns how long that took.
pub fn quiesce(env: &Env) -> Result<f64, String> {
    let t = Instant::now();
    let period = env.cfg.manager_period;
    let mut last = env.cluster.balance_counts();
    let mut since = Instant::now();
    loop {
        std::thread::sleep(period / 4);
        let now = env.cluster.balance_counts();
        let oversize = oversize_shards(env);
        if now != last || oversize.as_ref().is_none_or(|o| !o.is_empty()) {
            last = now;
            since = Instant::now();
        } else if since.elapsed() >= period * 5 {
            return Ok(t.elapsed().as_secs_f64());
        }
        if t.elapsed() > QUIESCE_LIMIT {
            return Err(format!(
                "cluster not quiescent after {QUIESCE_LIMIT:?}: splits/migrations {now:?}, oversize shards {oversize:?}"
            ));
        }
    }
}

/// `want[b]` queries of band `b`, binned by their coverage of `sample`.
/// `binned` fills every band to the same count, so the bands a workload does
/// not ask for are cut back afterwards.
fn query_pool(
    schema: &Schema,
    seed: u64,
    sample: &[Item],
    want: [usize; 3],
) -> Result<[Vec<QueryBox>; 3], String> {
    let per_band = want.into_iter().max().unwrap_or(0);
    let mut pool =
        QueryGen::new(schema, seed, QUERY_ROOT_PROB).binned(sample, per_band, POOL_ATTEMPTS);
    for (band, n) in pool.iter_mut().zip(want) {
        if band.len() < n {
            return Err(format!(
                "query pool short after {POOL_ATTEMPTS} candidates: a band has {} of {n}",
                band.len()
            ));
        }
        band.truncate(n);
    }
    Ok(pool)
}
