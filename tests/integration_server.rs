//! Direct server tests: routing, sync pushes and watch application,
//! without the full cluster harness or manager.

use std::time::Duration;

use volap::server::spawn_server;
use volap::worker::{create_empty_shard, spawn_worker};
use volap::{ImageStore, Request, Response, ShardRecord, VolapConfig};
use volap_coord::CoordService;
use volap_data::DataGen;
use volap_dims::{Key, QueryBox, Schema};
use volap_net::{Endpoint, Network};

const TIMEOUT: Duration = Duration::from_secs(5);

fn ask(driver: &Endpoint, to: &str, req: Request, schema: &Schema) -> Response {
    let bytes = driver.request(to, req.encode(), TIMEOUT).expect("request");
    Response::decode(schema, &bytes).expect("decode")
}

fn eventually(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn server_routes_and_pushes_expansions() {
    let schema = Schema::uniform(3, 2, 8);
    let net = Network::new();
    let image = ImageStore::new(CoordService::new(), schema.clone());
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.sync_period = Duration::from_millis(20);
    cfg.stats_period = Duration::from_secs(3600); // isolate: no worker stats
    let driver = net.endpoint("driver");
    let worker = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    let server = spawn_server(&net, &image, &cfg, "s0");

    let mut gen = DataGen::new(&schema, 9, 1.0);
    for it in gen.items(50) {
        assert_eq!(
            ask(
                &driver,
                "s0",
                Request::ClientInsert {
                    item: it,
                    principal: 0
                },
                &schema
            ),
            Response::Ack
        );
    }
    match ask(
        &driver,
        "s0",
        Request::ClientQuery {
            query: QueryBox::all(&schema),
            principal: 0,
        },
        &schema,
    ) {
        Response::Agg {
            agg,
            shards_searched,
        } => {
            assert_eq!(agg.count, 50);
            assert_eq!(shards_searched, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    // With worker stats disabled, only the server's periodic dirty push can
    // grow the image record's box — prove the sync path works.
    assert!(
        eventually(Duration::from_secs(5), || {
            image.shard(1).is_some_and(|r| !r.mbr.is_empty())
        }),
        "server never pushed its local box expansions to the global image"
    );
    server.stop();
    worker.stop();
}

#[test]
fn server_learns_new_shards_through_watches() {
    let schema = Schema::uniform(2, 2, 8);
    let net = Network::new();
    let image = ImageStore::new(CoordService::new(), schema.clone());
    let mut cfg = VolapConfig::new(schema.clone());
    cfg.sync_period = Duration::from_millis(20);
    let driver = net.endpoint("driver");
    let worker = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    // Server boots knowing only shard 1.
    let server = spawn_server(&net, &image, &cfg, "s0");
    let mut gen = DataGen::new(&schema, 10, 1.0);
    for it in gen.items(20) {
        ask(
            &driver,
            "s0",
            Request::ClientInsert {
                item: it,
                principal: 0,
            },
            &schema,
        );
    }
    // A new shard appears (as if another server/manager created it).
    create_empty_shard(&driver, "w0", &schema, 2, TIMEOUT).unwrap();
    // Load it directly at the worker so it has content and a box.
    ask(
        &driver,
        "w0",
        Request::BulkInsert {
            shard: 2,
            items: gen.items(30),
        },
        &schema,
    );
    let rec = ShardRecord {
        id: 2,
        worker: "w0".into(),
        len: 30,
        mbr: volap_dims::Mbr::from_ranges(vec![(0, 63), (0, 63)]),
    };
    image.merge_shard(&rec);
    // The server must pick it up via its watch and include it in queries.
    assert!(
        eventually(Duration::from_secs(5), || {
            match ask(
                &driver,
                "s0",
                Request::ClientQuery {
                    query: QueryBox::all(&schema),
                    principal: 0,
                },
                &schema,
            ) {
                Response::Agg {
                    agg,
                    shards_searched,
                } => agg.count == 50 && shards_searched == 2,
                _ => false,
            }
        }),
        "server never learned about the new shard"
    );
    server.stop();
    worker.stop();
}

#[test]
fn server_routes_concurrent_point_and_bulk_inserts() {
    let schema = Schema::uniform(2, 2, 8);
    let net = Network::new();
    let image = ImageStore::new(CoordService::new(), schema.clone());
    let cfg = VolapConfig::new(schema.clone());
    let driver = net.endpoint("driver");
    let worker = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    create_empty_shard(&driver, "w0", &schema, 2, TIMEOUT).unwrap();
    let server = spawn_server(&net, &image, &cfg, "s0");
    // 16 clients at once, half sending point inserts and half 5-item bulk
    // inserts, all routed into the same two fresh shards: every request is
    // acknowledged and every item lands exactly once.
    std::thread::scope(|scope| {
        for t in 0..16u64 {
            let client = net.endpoint(format!("c{t}"));
            let schema = schema.clone();
            scope.spawn(move || {
                let mut gen = DataGen::new(&schema, 100 + t, 1.0);
                let requests: Vec<Request> = if t % 2 == 0 {
                    gen.items(25)
                        .into_iter()
                        .map(|item| Request::ClientInsert { item, principal: 0 })
                        .collect()
                } else {
                    (0..5)
                        .map(|_| Request::ClientBulkInsert {
                            items: gen.items(5),
                            principal: 0,
                        })
                        .collect()
                };
                for req in requests {
                    let bytes = client
                        .request("s0", req.encode(), TIMEOUT)
                        .expect("request");
                    assert_eq!(
                        Response::decode(&schema, &bytes).expect("decode"),
                        Response::Ack
                    );
                }
            });
        }
    });
    match ask(
        &driver,
        "s0",
        Request::ClientQuery {
            query: QueryBox::all(&schema),
            principal: 0,
        },
        &schema,
    ) {
        Response::Agg { agg, .. } => assert_eq!(agg.count, 400),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        image
            .obs()
            .registry()
            .sum_counters("volap_server_inserts_total"),
        400
    );
    server.stop();
    worker.stop();
}

#[test]
fn server_with_no_shards_errors_cleanly() {
    let schema = Schema::uniform(2, 2, 8);
    let net = Network::new();
    let image = ImageStore::new(CoordService::new(), schema.clone());
    let cfg = VolapConfig::new(schema.clone());
    let driver = net.endpoint("driver");
    let server = spawn_server(&net, &image, &cfg, "s0");
    let mut gen = DataGen::new(&schema, 11, 1.0);
    match ask(
        &driver,
        "s0",
        Request::ClientInsert {
            item: gen.item(),
            principal: 0,
        },
        &schema,
    ) {
        Response::Err(e) => assert!(e.contains("no shards")),
        other => panic!("unexpected {other:?}"),
    }
    match ask(
        &driver,
        "s0",
        Request::ClientQuery {
            query: QueryBox::all(&schema),
            principal: 0,
        },
        &schema,
    ) {
        Response::Agg {
            agg,
            shards_searched,
        } => {
            assert!(agg.is_empty());
            assert_eq!(shards_searched, 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    server.stop();
}

#[test]
fn server_metrics_count_operations() {
    let schema = Schema::uniform(2, 2, 8);
    let net = Network::new();
    let image = ImageStore::new(CoordService::new(), schema.clone());
    let cfg = VolapConfig::new(schema.clone());
    let driver = net.endpoint("driver");
    let worker = spawn_worker(&net, &image, &cfg, "w0");
    create_empty_shard(&driver, "w0", &schema, 1, TIMEOUT).unwrap();
    let server = spawn_server(&net, &image, &cfg, "s0");
    let mut gen = DataGen::new(&schema, 12, 1.0);
    for it in gen.items(25) {
        ask(
            &driver,
            "s0",
            Request::ClientInsert {
                item: it,
                principal: 0,
            },
            &schema,
        );
    }
    for _ in 0..5 {
        ask(
            &driver,
            "s0",
            Request::ClientQuery {
                query: QueryBox::all(&schema),
                principal: 0,
            },
            &schema,
        );
    }
    let reg = image.obs().registry();
    let ins = reg.sum_counters("volap_server_inserts_total");
    let qs = reg.sum_counters("volap_server_queries_total");
    let exp = reg.sum_counters("volap_server_box_expansions_total");
    assert_eq!(ins, 25);
    assert_eq!(qs, 5);
    assert!(
        (1..=25).contains(&exp),
        "some early inserts must expand the empty box"
    );
    // The shared insert/query latency histograms saw every operation.
    let snap = image.obs().snapshot();
    assert_eq!(
        snap.histogram("volap_server_insert_seconds").unwrap().count,
        25
    );
    assert_eq!(
        snap.histogram("volap_server_query_seconds").unwrap().count,
        5
    );
    server.stop();
    worker.stop();
}
