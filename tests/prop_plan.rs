//! Property tests for the distributed EXPLAIN/ANALYZE plan encodings: the
//! JSON and binary forms are both lossless for arbitrary plans (including
//! nested forwards and pathological strings), and the binary decoder never
//! panics on arbitrary or truncated input.

use proptest::prelude::*;
use volap::{QueryPlan, ShardExec, WorkerExec};

fn arb_shard_exec() -> impl Strategy<Value = ShardExec> {
    // Traversal counters stay below 2^32 so that summing them across a
    // whole plan (QueryTrace::merge is a checked add) cannot overflow;
    // the id/size/time fields exercise the full u64 domain.
    let counter = 0u64..=u32::MAX as u64;
    (
        (any::<u64>(), any::<u64>(), counter.clone()),
        (counter.clone(), counter.clone(), counter, any::<u64>()),
    )
        .prop_map(
            |((shard, items, nodes_visited), (covered_hits, items_scanned, pruned, wall_us))| {
                ShardExec {
                    shard,
                    items,
                    nodes_visited,
                    covered_hits,
                    items_scanned,
                    pruned,
                    wall_us,
                }
            },
        )
}

/// Worker names exercise the JSON escaper: quotes, backslashes, a control
/// character, and multi-byte UTF-8, alongside realistic name characters.
fn arb_name() -> impl Strategy<Value = String> {
    "[a-z0-9_\"\\\u{1}\u{e9}\u{4e16}-]{0,12}"
}

fn arb_worker_leaf() -> impl Strategy<Value = WorkerExec> {
    (
        arb_name(),
        prop::collection::vec(any::<u64>(), 0..6),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(arb_shard_exec(), 0..4),
    )
        .prop_map(|(worker, requested, alias_chases, fanout, wall_us, shards)| WorkerExec {
            worker,
            requested,
            alias_chases,
            fanout,
            wall_us,
            shards,
            forwards: vec![],
        })
}

/// Up to `depth` levels of forward nesting — deeper than any stable cluster
/// produces, well under the decoder's forward-depth cap.
fn arb_worker(depth: u32) -> BoxedStrategy<WorkerExec> {
    if depth == 0 {
        return arb_worker_leaf().boxed();
    }
    (arb_worker_leaf(), prop::collection::vec(arb_worker(depth - 1), 0..3))
        .prop_map(|(mut w, forwards)| {
            w.forwards = forwards;
            w
        })
        .boxed()
}

fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    (
        (arb_name(), any::<u64>(), any::<u64>(), any::<u64>()),
        (
            prop::collection::vec(any::<u64>(), 0..8),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_worker(2), 0..3),
        ),
    )
        .prop_map(
            |(
                (server, image_generation, staleness_samples, staleness_p95_us),
                (image_leaves, route_us, wall_us, workers),
            )| QueryPlan {
                server,
                image_generation,
                staleness_samples,
                staleness_p95_us,
                image_leaves,
                route_us,
                wall_us,
                workers,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_binary_round_trips(plan in arb_plan()) {
        let bytes = plan.encode();
        let back = QueryPlan::decode(&bytes).expect("self-encoded plans decode");
        prop_assert_eq!(back, plan);
    }

    #[test]
    fn plan_json_round_trips(plan in arb_plan()) {
        let json = plan.to_json();
        let back = QueryPlan::from_json(&json).expect("self-encoded JSON parses");
        prop_assert_eq!(back, plan);
    }

    #[test]
    fn plan_totals_and_render_are_consistent(plan in arb_plan()) {
        // totals() equals a manual sum over every shard, forwards included.
        fn walk(w: &WorkerExec, sum: &mut [u64; 4]) {
            for s in &w.shards {
                sum[0] += s.nodes_visited;
                sum[1] += s.covered_hits;
                sum[2] += s.items_scanned;
                sum[3] += s.pruned;
            }
            for f in &w.forwards {
                walk(f, sum);
            }
        }
        let mut sum = [0u64; 4];
        for w in &plan.workers {
            walk(w, &mut sum);
        }
        let t = plan.totals();
        prop_assert_eq!([t.nodes_visited, t.covered_hits, t.items_scanned, t.pruned], sum);
        // The renderer never panics and names the routing server.
        let rendered = plan.render();
        prop_assert!(rendered.contains(plan.server.as_str()));
    }

    #[test]
    fn plan_decode_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not. (The bytes shim aborts on
        // underflow, so every read in the decoder must be length-guarded.)
        let _ = QueryPlan::decode(&bytes);
    }

    #[test]
    fn plan_decode_never_panics_on_truncations(plan in arb_plan()) {
        let bytes = plan.encode();
        for cut in 0..bytes.len() {
            prop_assert!(QueryPlan::decode(&bytes[..cut]).is_err(), "truncated at {} decoded", cut);
        }
    }
}
