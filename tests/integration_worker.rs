//! Direct worker-protocol tests: drive a single worker over the wire
//! without servers or manager, exercising the §III-E state machine.

use std::time::Duration;

use volap::worker::{create_empty_shard, spawn_worker};
use volap::{ImageStore, Obs, ObsConfig, Request, Response, VolapConfig, WorkerExec};
use volap_coord::CoordService;
use volap_data::DataGen;
use volap_dims::{Aggregate, QueryBox, Schema};
use volap_net::{Endpoint, Network, ReqCtx};

const TIMEOUT: Duration = Duration::from_secs(5);

fn setup(schema: &Schema) -> (Network, ImageStore, VolapConfig, Endpoint) {
    let net = Network::new();
    let image = ImageStore::new(CoordService::new(), schema.clone());
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.worker_threads = 2;
    cfg.stats_period = Duration::from_millis(25);
    let driver = net.endpoint("driver");
    (net, image, cfg, driver)
}

fn ask(driver: &Endpoint, to: &str, req: Request, schema: &Schema) -> Response {
    let bytes = driver.request(to, req.encode(), TIMEOUT).expect("request");
    Response::decode(schema, &bytes).expect("decode")
}

#[test]
fn insert_query_roundtrip_over_wire() {
    let schema = Schema::uniform(3, 2, 8);
    let (net, image, cfg, driver) = setup(&schema);
    let w = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();

    let mut gen = DataGen::new(&schema, 1, 1.0);
    for it in gen.items(100) {
        let resp = ask(&driver, "w0", Request::Insert { shard: 1, item: it }, &schema);
        assert_eq!(resp, Response::Ack);
    }
    match ask(
        &driver,
        "w0",
        Request::Query { shards: vec![1], query: QueryBox::all(&schema) },
        &schema,
    ) {
        Response::Agg { agg, shards_searched } => {
            assert_eq!(agg.count, 100);
            assert_eq!(shards_searched, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    w.stop();
}

#[test]
fn unknown_shard_and_garbage_are_rejected() {
    let schema = Schema::uniform(2, 2, 8);
    let (net, image, cfg, driver) = setup(&schema);
    let w = spawn_worker(&net, &image, &cfg, "w0");
    let mut gen = DataGen::new(&schema, 2, 1.0);
    let item = gen.item();
    match ask(&driver, "w0", Request::Insert { shard: 99, item }, &schema) {
        Response::Err(e) => assert!(e.contains("unknown shard")),
        other => panic!("unexpected {other:?}"),
    }
    // Garbage payload gets an error reply, not a hang.
    let bytes = driver.request("w0", vec![0xDE, 0xAD], TIMEOUT).unwrap();
    assert!(matches!(Response::decode(&schema, &bytes), Ok(Response::Err(_))));
    // Ping works.
    assert_eq!(ask(&driver, "w0", Request::Ping, &schema), Response::Ack);
    w.stop();
}

#[test]
fn split_over_wire_updates_image_and_aliases() {
    let schema = Schema::uniform(2, 2, 16);
    let (net, image, cfg, driver) = setup(&schema);
    let w = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    let mut gen = DataGen::new(&schema, 3, 1.0);
    let items = gen.items(500);
    assert_eq!(
        ask(&driver, "w0", Request::BulkInsert { shard: 1, items: items.clone() }, &schema),
        Response::Ack
    );
    // Split 1 -> (10, 11).
    let (left, right) = match ask(
        &driver,
        "w0",
        Request::SplitShard { shard: 1, left_id: 10, right_id: 11 },
        &schema,
    ) {
        Response::SplitDone { left, right } => (left, right),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(left.len + right.len, 500);
    assert!(left.len > 0 && right.len > 0);
    // Image: old record gone, halves present.
    assert!(image.shard(1).is_none());
    assert_eq!(image.shard(10).unwrap().worker, "w0");
    assert_eq!(image.shard(11).unwrap().worker, "w0");
    // Old-ID traffic still works through the alias (bounded staleness).
    let it = gen.item();
    assert_eq!(ask(&driver, "w0", Request::Insert { shard: 1, item: it }, &schema), Response::Ack);
    match ask(
        &driver,
        "w0",
        Request::Query { shards: vec![1], query: QueryBox::all(&schema) },
        &schema,
    ) {
        Response::Agg { agg, shards_searched } => {
            assert_eq!(agg.count, 501);
            assert_eq!(shards_searched, 2, "alias expands to both halves");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Splitting an already-split shard fails gracefully.
    match ask(&driver, "w0", Request::SplitShard { shard: 1, left_id: 20, right_id: 21 }, &schema) {
        Response::Err(e) => assert!(e.contains("busy or gone")),
        other => panic!("unexpected {other:?}"),
    }
    w.stop();
}

#[test]
fn bulk_insert_through_split_and_migration_aliases() {
    let schema = Schema::uniform(2, 2, 16);
    let (net, image, cfg, driver) = setup(&schema);
    let w0 = spawn_worker(&net, &image, &cfg, "w0");
    let w1 = spawn_worker(&net, &image, &cfg, "w1");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    let mut gen = DataGen::new(&schema, 6, 1.0);
    ask(&driver, "w0", Request::BulkInsert { shard: 1, items: gen.items(400) }, &schema);
    // Split twice so the alias for 1 is a chain: 1 -> (10, 11), 10 -> (12, 13).
    for (shard, l, r) in [(1, 10, 11), (10, 12, 13)] {
        match ask(
            &driver,
            "w0",
            Request::SplitShard { shard, left_id: l, right_id: r },
            &schema,
        ) {
            Response::SplitDone { left, right } => assert!(left.len > 0 && right.len > 0),
            other => panic!("unexpected {other:?}"),
        }
    }
    // A bulk insert addressed to the pre-split ID must partition across the
    // whole alias chain in one request.
    assert_eq!(
        ask(&driver, "w0", Request::BulkInsert { shard: 1, items: gen.items(200) }, &schema),
        Response::Ack
    );
    match ask(
        &driver,
        "w0",
        Request::Query { shards: vec![1], query: QueryBox::all(&schema) },
        &schema,
    ) {
        Response::Agg { agg, shards_searched } => {
            assert_eq!(agg.count, 600);
            assert_eq!(shards_searched, 3, "alias chain expands to all three leaves");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Move one leaf away: the partitioned group for it must be forwarded as
    // a single bulk request, the rest stay local.
    assert_eq!(
        ask(&driver, "w0", Request::Migrate { shard: 12, dest: "w1".into() }, &schema),
        Response::Ack
    );
    assert_eq!(
        ask(&driver, "w0", Request::BulkInsert { shard: 1, items: gen.items(100) }, &schema),
        Response::Ack
    );
    let mut total = 0;
    for (worker, shards) in [("w0", vec![11, 13]), ("w1", vec![12])] {
        match ask(
            &driver,
            worker,
            Request::Query { shards, query: QueryBox::all(&schema) },
            &schema,
        ) {
            Response::Agg { agg, .. } => total += agg.count,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(total, 700, "every bulk item landed exactly once across the halves");
    w0.stop();
    w1.stop();
}

#[test]
fn migrate_over_wire_forwards_and_updates_image() {
    let schema = Schema::uniform(2, 2, 16);
    let (net, image, cfg, driver) = setup(&schema);
    let w0 = spawn_worker(&net, &image, &cfg, "w0");
    let w1 = spawn_worker(&net, &image, &cfg, "w1");
    create_empty_shard(&driver, "w0", &schema, 5, TIMEOUT).unwrap();
    let mut gen = DataGen::new(&schema, 4, 1.0);
    let items = gen.items(300);
    ask(&driver, "w0", Request::BulkInsert { shard: 5, items }, &schema);

    assert_eq!(
        ask(&driver, "w0", Request::Migrate { shard: 5, dest: "w1".into() }, &schema),
        Response::Ack
    );
    assert_eq!(image.shard(5).unwrap().worker, "w1");
    // Queries through the OLD worker are forwarded transparently.
    match ask(
        &driver,
        "w0",
        Request::Query { shards: vec![5], query: QueryBox::all(&schema) },
        &schema,
    ) {
        Response::Agg { agg, .. } => assert_eq!(agg.count, 300),
        other => panic!("unexpected {other:?}"),
    }
    // Inserts through the old worker land on the new one.
    let it = gen.item();
    assert_eq!(ask(&driver, "w0", Request::Insert { shard: 5, item: it }, &schema), Response::Ack);
    match ask(
        &driver,
        "w1",
        Request::Query { shards: vec![5], query: QueryBox::all(&schema) },
        &schema,
    ) {
        Response::Agg { agg, .. } => assert_eq!(agg.count, 301),
        other => panic!("unexpected {other:?}"),
    }
    // Migrating to self is a no-op ack; to a dead worker an error.
    assert_eq!(
        ask(&driver, "w1", Request::Migrate { shard: 5, dest: "w1".into() }, &schema),
        Response::Ack
    );
    match ask(&driver, "w1", Request::Migrate { shard: 5, dest: "ghost".into() }, &schema) {
        Response::Err(e) => assert!(e.contains("adopt failed")),
        other => panic!("unexpected {other:?}"),
    }
    // The failed migration must have reverted to serving state.
    match ask(
        &driver,
        "w1",
        Request::Query { shards: vec![5], query: QueryBox::all(&schema) },
        &schema,
    ) {
        Response::Agg { agg, .. } => assert_eq!(agg.count, 301),
        other => panic!("unexpected {other:?}"),
    }
    w0.stop();
    w1.stop();
}

#[test]
fn worker_stats_reflect_contents() {
    let schema = Schema::uniform(2, 2, 8);
    let (net, image, cfg, driver) = setup(&schema);
    let w = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    create_empty_shard(&driver, "w0", &schema, 2, TIMEOUT).unwrap();
    let mut gen = DataGen::new(&schema, 5, 1.0);
    ask(&driver, "w0", Request::BulkInsert { shard: 1, items: gen.items(40) }, &schema);
    ask(&driver, "w0", Request::BulkInsert { shard: 2, items: gen.items(7) }, &schema);
    match ask(&driver, "w0", Request::GetWorkerStats, &schema) {
        Response::WorkerStats { mut shards } => {
            shards.sort_by_key(|r| r.id);
            assert_eq!(shards.len(), 2);
            assert_eq!((shards[0].id, shards[0].len), (1, 40));
            assert_eq!((shards[1].id, shards[1].len), (2, 7));
            assert!(shards[0].mbr.ranges().is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
    w.stop();
}

/// A request that crosses a `MovedTo` forward reaches the second worker
/// under the context it was sent with: the original principal, and a trace
/// context hanging off the first worker's op span. The "second worker" is
/// an endpoint the test serves by hand, so it sees exactly what arrives.
#[test]
fn forwards_carry_the_request_context() {
    let schema = Schema::uniform(2, 2, 16);
    let (net, _, cfg, driver) = setup(&schema);
    let mut sample_all = ObsConfig::default();
    sample_all.trace.sample = 1;
    let image = ImageStore::with_obs(CoordService::new(), schema.clone(), Obs::new(sample_all));
    let tracer = image.obs().tracer().clone();
    net.attach_tracer(&tracer);
    let w0 = spawn_worker(&net, &image, &cfg, "w0");
    let second = net.endpoint("second");
    create_empty_shard(&driver, "w0", &schema, 5, TIMEOUT).unwrap();
    // Serve one request at `second`: reply `answer`, report what arrived.
    let serve_one = |answer: Response| {
        let msg = second.recv(TIMEOUT).expect("forwarded request");
        msg.reply(answer.encode()).unwrap();
        (msg.ctx, Request::decode(&msg.payload).expect("decode"))
    };
    // Drive the migration by hand: `second` adopts, w0 keeps a forward.
    std::thread::scope(|s| {
        let adopt = s.spawn(|| serve_one(Response::Ack));
        let migrate = Request::Migrate { shard: 5, dest: "second".into() };
        assert_eq!(ask(&driver, "w0", migrate, &schema), Response::Ack);
        assert!(matches!(adopt.join().unwrap().1, Request::Adopt { shard: 5, .. }));
    });
    let item = DataGen::new(&schema, 8, 1.0).item();
    let query = QueryBox::all(&schema);
    let agg = Response::Agg { agg: Aggregate::empty(), shards_searched: 1 };
    let agg_exec = Response::AggExec {
        agg: Aggregate::empty(),
        shards_searched: 1,
        exec: WorkerExec::default(),
    };
    for (req, op, answer) in [
        (Request::Insert { shard: 5, item }, "worker_insert", Response::Ack),
        (Request::Query { shards: vec![5], query: query.clone() }, "worker_query", agg),
        (Request::QueryAnalyze { shards: vec![5], query }, "worker_query_analyze", agg_exec),
    ] {
        let root = tracer.sample_root().expect("sampling is on");
        let ctx = ReqCtx { trace: Some(root), principal: 7 };
        let (seen, forwarded) = std::thread::scope(|s| {
            let second = s.spawn(|| serve_one(answer));
            driver.request_ctx("w0", req.encode(), TIMEOUT, ctx).expect("request");
            second.join().unwrap()
        });
        assert_eq!(forwarded, req, "{op}: the request is forwarded as it came");
        assert_eq!(seen.principal, 7, "{op}: the principal survives the forward");
        let seen = seen.trace.unwrap_or_else(|| panic!("{op}: the trace survives the forward"));
        assert_eq!(seen.trace_id, root.trace_id);
        let trace = tracer.assemble(root.trace_id).expect("spans recorded");
        let parent = trace.spans.iter().find(|sp| sp.span_id == seen.parent_span_id);
        assert_eq!(parent.map(|sp| sp.name.as_str()), Some(op), "{op}: forward hangs off the op span");
    }
    w0.stop();
}

/// Regression: the stats publisher used to build a shard's record under the
/// slot-state guard, drop the guard, and only then merge the record into
/// the image. A split finishing in between retired the parent's record —
/// and the late merge re-created it, a ghost nothing ever removed (a few
/// per thousand splits when more threads than cores keep the publisher
/// preempted inside that window). With publishers running flat out beside
/// long cascades of splits, no retired parent may be left in the image.
#[test]
fn stats_publisher_never_resurrects_a_split_parent() {
    use volap_dims::Item;
    let schema = Schema::uniform(2, 2, 16);
    let (net, image, mut cfg, _driver) = setup(&schema);
    cfg.stats_period = Duration::from_micros(50);
    let (lanes, rounds, seed_items) = (4u64, 4, 256u64);
    // Each lane drives its own workers: a shard of distinct items is split
    // all the way down to singletons, oldest shard first so the publisher
    // has seen every shard it races.
    let parents: Vec<u64> = std::thread::scope(|s| {
        let lanes: Vec<_> = (0..lanes)
            .map(|lane| {
                let (net, image, cfg, schema) = (&net, &image, &cfg, &schema);
                s.spawn(move || {
                    let driver = net.endpoint(format!("driver{lane}"));
                    let mut next_id = lane << 32;
                    let mut parents = Vec::new();
                    for r in 0..rounds {
                        let name = format!("w{lane}-{r}");
                        let w = spawn_worker(net, image, cfg, &name);
                        let seed = next_id;
                        next_id += 1;
                        create_empty_shard(&driver, &name, schema, seed, TIMEOUT).unwrap();
                        let items: Vec<Item> = (0..seed_items)
                            .map(|i| Item::new(vec![i % 256, i / 256], 1.0))
                            .collect();
                        let load = Request::BulkInsert { shard: seed, items };
                        assert_eq!(ask(&driver, &name, load, schema), Response::Ack);
                        let mut todo = std::collections::VecDeque::from([(seed, seed_items)]);
                        while let Some((shard, len)) = todo.pop_front() {
                            if len < 2 {
                                continue;
                            }
                            let split =
                                Request::SplitShard { shard, left_id: next_id, right_id: next_id + 1 };
                            next_id += 2;
                            match ask(&driver, &name, split, schema) {
                                Response::SplitDone { left, right } => {
                                    parents.push(shard);
                                    todo.push_back((left.id, left.len));
                                    todo.push_back((right.id, right.len));
                                }
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                        w.stop();
                    }
                    parents
                })
            })
            .collect();
        lanes.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let ghosts: Vec<u64> = parents.iter().copied().filter(|&p| image.shard(p).is_some()).collect();
    assert_eq!(parents.len() as u64, lanes * rounds * (seed_items - 1));
    assert!(ghosts.is_empty(), "retired parents resurrected in the image: {ghosts:?}");
}
