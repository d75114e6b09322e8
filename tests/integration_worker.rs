//! Direct worker-protocol tests: drive a single worker over the wire
//! without servers or manager, exercising the §III-E state machine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use volap::worker::{create_empty_shard, spawn_worker};
use volap::{ImageStore, Request, Response, VolapConfig, WorkerExec};
use volap_coord::CoordService;
use volap_data::DataGen;
use volap_dims::{Aggregate, QueryBox, Schema};
use volap_net::{Endpoint, Network};

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
        let resp = ask(
            &driver,
            "w0",
            Request::Insert { shard: 1, item: it },
            &schema,
        );
        assert_eq!(resp, Response::Ack);
    }
    match ask(
        &driver,
        "w0",
        Request::Query {
            shards: vec![1],
            query: QueryBox::all(&schema),
        },
        &schema,
    ) {
        Response::Agg {
            agg,
            shards_searched,
        } => {
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
    assert!(matches!(
        Response::decode(&schema, &bytes),
        Ok(Response::Err(_))
    ));
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
        ask(
            &driver,
            "w0",
            Request::BulkInsert {
                shard: 1,
                items: items.clone()
            },
            &schema
        ),
        Response::Ack
    );
    // Split 1 -> (10, 11).
    let (left, right) = match ask(
        &driver,
        "w0",
        Request::SplitShard {
            shard: 1,
            left_id: 10,
            right_id: 11,
        },
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
    assert_eq!(
        ask(
            &driver,
            "w0",
            Request::Insert { shard: 1, item: it },
            &schema
        ),
        Response::Ack
    );
    match ask(
        &driver,
        "w0",
        Request::Query {
            shards: vec![1],
            query: QueryBox::all(&schema),
        },
        &schema,
    ) {
        Response::Agg {
            agg,
            shards_searched,
        } => {
            assert_eq!(agg.count, 501);
            assert_eq!(shards_searched, 2, "alias expands to both halves");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Splitting an already-split shard fails gracefully.
    match ask(
        &driver,
        "w0",
        Request::SplitShard {
            shard: 1,
            left_id: 20,
            right_id: 21,
        },
        &schema,
    ) {
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
    ask(
        &driver,
        "w0",
        Request::BulkInsert {
            shard: 1,
            items: gen.items(400),
        },
        &schema,
    );
    // Split twice so the alias for 1 is a chain: 1 -> (10, 11), 10 -> (12, 13).
    for (shard, l, r) in [(1, 10, 11), (10, 12, 13)] {
        match ask(
            &driver,
            "w0",
            Request::SplitShard {
                shard,
                left_id: l,
                right_id: r,
            },
            &schema,
        ) {
            Response::SplitDone { left, right } => assert!(left.len > 0 && right.len > 0),
            other => panic!("unexpected {other:?}"),
        }
    }
    // A bulk insert addressed to the pre-split ID must partition across the
    // whole alias chain in one request.
    assert_eq!(
        ask(
            &driver,
            "w0",
            Request::BulkInsert {
                shard: 1,
                items: gen.items(200)
            },
            &schema
        ),
        Response::Ack
    );
    match ask(
        &driver,
        "w0",
        Request::Query {
            shards: vec![1],
            query: QueryBox::all(&schema),
        },
        &schema,
    ) {
        Response::Agg {
            agg,
            shards_searched,
        } => {
            assert_eq!(agg.count, 600);
            assert_eq!(
                shards_searched, 3,
                "alias chain expands to all three leaves"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    // Move one leaf away: the partitioned group for it must be forwarded as
    // a single bulk request, the rest stay local.
    assert_eq!(
        ask(
            &driver,
            "w0",
            Request::Migrate {
                shard: 12,
                dest: "w1".into()
            },
            &schema
        ),
        Response::Ack
    );
    assert_eq!(
        ask(
            &driver,
            "w0",
            Request::BulkInsert {
                shard: 1,
                items: gen.items(100)
            },
            &schema
        ),
        Response::Ack
    );
    let mut total = 0;
    for (worker, shards) in [("w0", vec![11, 13]), ("w1", vec![12])] {
        match ask(
            &driver,
            worker,
            Request::Query {
                shards,
                query: QueryBox::all(&schema),
            },
            &schema,
        ) {
            Response::Agg { agg, .. } => total += agg.count,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(
        total, 700,
        "every bulk item landed exactly once across the halves"
    );
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
    ask(
        &driver,
        "w0",
        Request::BulkInsert { shard: 5, items },
        &schema,
    );

    assert_eq!(
        ask(
            &driver,
            "w0",
            Request::Migrate {
                shard: 5,
                dest: "w1".into()
            },
            &schema
        ),
        Response::Ack
    );
    assert_eq!(image.shard(5).unwrap().worker, "w1");
    // Queries through the OLD worker are forwarded transparently.
    match ask(
        &driver,
        "w0",
        Request::Query {
            shards: vec![5],
            query: QueryBox::all(&schema),
        },
        &schema,
    ) {
        Response::Agg { agg, .. } => assert_eq!(agg.count, 300),
        other => panic!("unexpected {other:?}"),
    }
    // Inserts through the old worker land on the new one.
    let it = gen.item();
    assert_eq!(
        ask(
            &driver,
            "w0",
            Request::Insert { shard: 5, item: it },
            &schema
        ),
        Response::Ack
    );
    match ask(
        &driver,
        "w1",
        Request::Query {
            shards: vec![5],
            query: QueryBox::all(&schema),
        },
        &schema,
    ) {
        Response::Agg { agg, .. } => assert_eq!(agg.count, 301),
        other => panic!("unexpected {other:?}"),
    }
    // Migrating to self is a no-op ack; to a dead worker an error.
    assert_eq!(
        ask(
            &driver,
            "w1",
            Request::Migrate {
                shard: 5,
                dest: "w1".into()
            },
            &schema
        ),
        Response::Ack
    );
    match ask(
        &driver,
        "w1",
        Request::Migrate {
            shard: 5,
            dest: "ghost".into(),
        },
        &schema,
    ) {
        Response::Err(e) => assert!(e.contains("adopt failed")),
        other => panic!("unexpected {other:?}"),
    }
    // The failed migration must have reverted to serving state.
    match ask(
        &driver,
        "w1",
        Request::Query {
            shards: vec![5],
            query: QueryBox::all(&schema),
        },
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
    ask(
        &driver,
        "w0",
        Request::BulkInsert {
            shard: 1,
            items: gen.items(40),
        },
        &schema,
    );
    ask(
        &driver,
        "w0",
        Request::BulkInsert {
            shard: 2,
            items: gen.items(7),
        },
        &schema,
    );
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

/// A request that crosses a `MovedTo` forward is answered by the shard's new
/// owner: the second worker gets the request (a point insert as the
/// one-item group its alias chase carried), and its answer is what the
/// sender receives. The "second worker" is an endpoint the test serves by
/// hand, so it sees exactly what arrives.
#[test]
fn forwards_are_answered_by_the_new_owner() {
    let schema = Schema::uniform(2, 2, 16);
    let (net, image, cfg, driver) = setup(&schema);
    let w0 = spawn_worker(&net, &image, &cfg, "w0");
    let second = net.endpoint("second");
    create_empty_shard(&driver, "w0", &schema, 5, TIMEOUT).unwrap();
    // Serve one request at `second`: reply `answer`, report what arrived.
    let serve_one = |answer: Response| {
        let msg = second.recv(TIMEOUT).expect("forwarded request");
        msg.reply(answer.encode()).unwrap();
        Request::decode(&msg.payload).expect("decode")
    };
    // Drive the migration by hand: `second` adopts, w0 keeps a forward.
    std::thread::scope(|s| {
        let adopt = s.spawn(|| serve_one(Response::Ack));
        let migrate = Request::Migrate {
            shard: 5,
            dest: "second".into(),
        };
        assert_eq!(ask(&driver, "w0", migrate, &schema), Response::Ack);
        assert!(matches!(
            adopt.join().unwrap(),
            Request::Adopt { shard: 5, .. }
        ));
    });
    let item = DataGen::new(&schema, 8, 1.0).item();
    let query = QueryBox::all(&schema);
    // The new owner's answers carry a value w0 could not have made up.
    let owned = Aggregate::of(3.0);
    let exec = WorkerExec {
        worker: "second".into(),
        requested: vec![5],
        ..WorkerExec::default()
    };
    let query_req = Request::Query {
        shards: vec![5],
        query: query.clone(),
    };
    let analyze_req = Request::QueryAnalyze {
        shards: vec![5],
        query,
    };
    for (req, forwarded_as, answer) in [
        (
            Request::Insert {
                shard: 5,
                item: item.clone(),
            },
            Request::BulkInsert {
                shard: 5,
                items: vec![item],
            },
            Response::Ack,
        ),
        (
            query_req.clone(),
            query_req,
            Response::Agg {
                agg: owned,
                shards_searched: 1,
            },
        ),
        (
            analyze_req.clone(),
            analyze_req,
            Response::AggExec {
                agg: owned,
                shards_searched: 1,
                exec: exec.clone(),
            },
        ),
    ] {
        let (forwarded, got) = std::thread::scope(|s| {
            let second = s.spawn(|| serve_one(answer.clone()));
            let got = ask(&driver, "w0", req, &schema);
            (second.join().unwrap(), got)
        });
        assert_eq!(forwarded, forwarded_as, "the forwarded request");
        match (got, answer) {
            // w0 nests the new owner's execution as a forward of its own.
            (
                Response::AggExec {
                    agg,
                    shards_searched,
                    exec: outer,
                },
                Response::AggExec { .. },
            ) => {
                assert_eq!((agg, shards_searched), (owned, 1));
                assert_eq!(
                    outer.forwards,
                    vec![exec.clone()],
                    "the new owner's execution"
                );
                assert!(outer.shards.is_empty(), "w0 scanned nothing itself");
            }
            (got, answer) => assert_eq!(got, answer, "the sender gets the new owner's answer"),
        }
    }
    w0.stop();
}

/// Regression: an empty shard — fresh, or a busy shard's insertion queue —
/// takes a bulk insert by loading it bottom-up, and a second insert racing
/// that load used to kill the worker service thread serving one of them
/// (its request was never answered) or vanish. Each round creates a fresh
/// shard and releases two requests into it at once on a two-thread worker.
#[test]
fn racing_inserts_into_a_fresh_shard_are_all_answered_and_counted() {
    use std::sync::Barrier;
    let schema = Schema::uniform(3, 2, 8);
    let (net, image, cfg, driver) = setup(&schema);
    assert_eq!(cfg.worker_threads, 2);
    let w = spawn_worker(&net, &image, &cfg, "w0");
    let senders = [net.endpoint("racer0"), net.endpoint("racer1")];
    let short = Duration::from_secs(2);
    let rounds = if cfg!(debug_assertions) { 100 } else { 300 };
    let mut gen = DataGen::new(&schema, 9, 1.0);
    let mut shard = 100;
    for point in [false, true] {
        for round in 0..rounds {
            shard += 1;
            create_empty_shard(&driver, "w0", &schema, shard, TIMEOUT).unwrap();
            let first = if point {
                Request::Insert {
                    shard,
                    item: gen.item(),
                }
            } else {
                Request::BulkInsert {
                    shard,
                    items: gen.items(30),
                }
            };
            let second = Request::BulkInsert {
                shard,
                items: gen.items(100),
            };
            let want = if point { 101 } else { 130 };
            let start = Barrier::new(2);
            let answers: Vec<Result<Response, String>> = std::thread::scope(|s| {
                let racers: Vec<_> = [first, second]
                    .into_iter()
                    .zip(&senders)
                    .map(|(req, ep)| {
                        let (start, schema) = (&start, &schema);
                        s.spawn(move || {
                            let bytes = req.encode();
                            start.wait();
                            let reply =
                                ep.request("w0", bytes, short).map_err(|e| e.to_string())?;
                            Response::decode(schema, &reply)
                        })
                    })
                    .collect();
                racers.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for a in &answers {
                assert_eq!(
                    a,
                    &Ok(Response::Ack),
                    "point={point} round {round}: every request is acked"
                );
            }
            match ask(
                &driver,
                "w0",
                Request::Query {
                    shards: vec![shard],
                    query: QueryBox::all(&schema),
                },
                &schema,
            ) {
                Response::Agg { agg, .. } => {
                    assert_eq!(
                        agg.count, want,
                        "point={point} round {round}: every item counted once"
                    )
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    assert_eq!(ask(&driver, "w0", Request::Ping, &schema), Response::Ack);
    w.stop();
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
                            let split = Request::SplitShard {
                                shard,
                                left_id: next_id,
                                right_id: next_id + 1,
                            };
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
    let ghosts: Vec<u64> = parents
        .iter()
        .copied()
        .filter(|&p| image.shard(p).is_some())
        .collect();
    assert_eq!(parents.len() as u64, lanes * rounds * (seed_items - 1));
    assert!(
        ghosts.is_empty(),
        "retired parents resurrected in the image: {ghosts:?}"
    );
}

/// Bulk inserts race a split: the split drains the items queued meanwhile
/// into its halves. The racer sends chunks from before the split is asked
/// for until it has answered, and at least one chunk must have reached the
/// split's queue. Every acked item is counted exactly once across the
/// halves, and no item sits on the wrong side of the split's hyperplane.
#[test]
fn bulk_inserts_racing_a_split_land_once_on_their_side() {
    let schema = Schema::uniform(3, 2, 8);
    let (net, image, cfg, driver) = setup(&schema);
    let w = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    let mut gen = DataGen::new(&schema, 21, 1.0);
    let loaded = 200_000;
    let bulk = Request::BulkInsert {
        shard: 1,
        items: gen.items(loaded),
    };
    assert_eq!(ask(&driver, "w0", bulk, &schema), Response::Ack);
    let racer = net.endpoint("racer");
    let split_done = AtomicBool::new(false);
    let racing = AtomicBool::new(false);
    let (acked, split) = std::thread::scope(|s| {
        let inserts = s.spawn(|| {
            let mut acked = 0;
            for _ in 0..2_000 {
                if split_done.load(Ordering::Acquire) {
                    break;
                }
                let req = Request::BulkInsert {
                    shard: 1,
                    items: gen.items(50),
                };
                assert_eq!(ask(&racer, "w0", req, &schema), Response::Ack);
                acked += 50;
                racing.store(true, Ordering::Release);
            }
            acked
        });
        // A split takes a few milliseconds: ask for it only once the racer
        // is sending, or it may be over before the first chunk arrives.
        while !racing.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let split = Request::SplitShard {
            shard: 1,
            left_id: 10,
            right_id: 11,
        };
        let split = ask(&driver, "w0", split, &schema);
        split_done.store(true, Ordering::Release);
        (inserts.join().unwrap(), split)
    });
    assert!(
        matches!(split, Response::SplitDone { .. }),
        "unexpected {split:?}"
    );
    let count = |shard: u64, ranges: Vec<(u64, u64)>| {
        let query = QueryBox::from_ranges(ranges);
        match ask(
            &driver,
            "w0",
            Request::Query {
                shards: vec![shard],
                query,
            },
            &schema,
        ) {
            Response::Agg { agg, .. } => agg.count,
            other => panic!("unexpected {other:?}"),
        }
    };
    let all = || vec![(0, u64::MAX); schema.dims()];
    assert_eq!(
        count(10, all()) + count(11, all()),
        (loaded + acked) as u64,
        "every acked item is counted once"
    );
    // Some dimension separates the halves: along it, the right half holds
    // nothing at or below the left half's largest coordinate.
    let range = |d: usize, r: (u64, u64)| {
        let mut ranges = all();
        ranges[d] = r;
        ranges
    };
    let separated = (0..schema.dims()).any(|d| {
        let (mut lo, mut hi) = (0, schema.dim(d).ordinal_end() - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if count(10, range(d, (mid + 1, u64::MAX))) == 0 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        count(11, range(d, (0, lo))) == 0
    });
    assert!(separated, "an item sits on the wrong side of the split");
    let queued = image
        .obs()
        .registry()
        .sum_counters("volap_worker_queue_inserts_total");
    assert!(queued > 0, "no bulk insert reached the split's queue");
    w.stop();
}

/// A migration whose adopt fails after inserts have queued folds the queue
/// back into the shard (`revert_busy`'s merge): the destination holds the
/// `Adopt` until inserts to the shard are acknowledged, then refuses it.
/// Every item, loaded or queued, is then counted exactly once, and the
/// rebuilt shard still splits.
#[test]
fn failed_migration_folds_queued_inserts_back_into_the_shard() {
    let schema = Schema::uniform(2, 2, 16);
    let (net, image, cfg, driver) = setup(&schema);
    let w = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 5, TIMEOUT).unwrap();
    let mut gen = DataGen::new(&schema, 31, 1.0);
    let (loaded, queued) = (2_000, 50);
    let bulk = Request::BulkInsert {
        shard: 5,
        items: gen.items(loaded),
    };
    assert_eq!(ask(&driver, "w0", bulk, &schema), Response::Ack);
    let holder = net.endpoint("holder");
    let racer = net.endpoint("racer");
    let migrated = std::thread::scope(|s| {
        let migrate = s.spawn(|| {
            let req = Request::Migrate {
                shard: 5,
                dest: "holder".into(),
            };
            ask(&driver, "w0", req, &schema)
        });
        let adopt = holder.recv(TIMEOUT).expect("the adopt reaches the holder");
        assert!(matches!(
            Request::decode(&adopt.payload),
            Ok(Request::Adopt { shard: 5, .. })
        ));
        // The shard is Busy until the adopt is answered: these land in its
        // insertion queue.
        for it in gen.items(queued) {
            let req = Request::Insert { shard: 5, item: it };
            assert_eq!(ask(&racer, "w0", req, &schema), Response::Ack);
        }
        let in_queue = image
            .obs()
            .registry()
            .sum_counters("volap_worker_queue_inserts_total");
        assert_eq!(in_queue, queued as u64, "every insert went to the queue");
        adopt
            .reply(Response::Err("adopt refused".into()).encode())
            .unwrap();
        migrate.join().unwrap()
    });
    match migrated {
        Response::Err(e) => assert!(e.contains("adopt failed"), "{e}"),
        other => panic!("unexpected {other:?}"),
    }
    let count = |shard: u64| match ask(
        &driver,
        "w0",
        Request::Query {
            shards: vec![shard],
            query: QueryBox::all(&schema),
        },
        &schema,
    ) {
        Response::Agg { agg, .. } => agg.count,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(count(5), (loaded + queued) as u64, "each item counts once");
    let split = Request::SplitShard {
        shard: 5,
        left_id: 6,
        right_id: 7,
    };
    match ask(&driver, "w0", split, &schema) {
        Response::SplitDone { left, right } => {
            assert_eq!(left.len + right.len, (loaded + queued) as u64)
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(count(6) + count(7), (loaded + queued) as u64);
    w.stop();
}
