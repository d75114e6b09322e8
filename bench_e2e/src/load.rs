//! The load generators: closed loops of point inserts, bulk chunks and
//! queries. None of them retries and none panics on a reply: an `Err` is
//! counted as a failed operation.

use std::time::Instant;

use volap::{ClientSession, QueryPlan};
use volap_data::DataGen;
use volap_dims::{Aggregate, Item, QueryBox};

use crate::spec::BULK_CHUNK;

/// Items a point-insert session generates at a time, between calls.
const POINT_BATCH: usize = 256;

/// Nanoseconds since the measured phase began.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What a load generator tells the traced run about each operation. The
/// untraced run uses [`NoTrace`], which compiles to nothing.
pub trait Observer {
    /// Whether queries go through `query_analyze`, for the plan counters.
    const ANALYZE: bool;
    /// Whether the next bulk chunk should be copied for a replay.
    fn wants_bulk(&mut self) -> bool {
        false
    }
    fn insert(&mut self, _item: &Item, _start_ns: u64, _end_ns: u64) {}
    fn bulk(&mut self, _items: Option<&[Item]>, _start_ns: u64, _end_ns: u64) {}
    fn query(
        &mut self,
        _q: &QueryBox,
        _answer: &Aggregate,
        _plan: Option<&QueryPlan>,
        _start_ns: u64,
        _end_ns: u64,
    ) {
    }
}

pub struct NoTrace;

impl Observer for NoTrace {
    const ANALYZE: bool = false;
}

/// What one session measured.
#[derive(Default)]
pub struct Samples {
    /// Per-call latency of inserts (or bulk chunks), nanoseconds.
    pub insert_ns: Vec<u64>,
    /// Per-call latency of queries, nanoseconds.
    pub query_ns: Vec<u64>,
    /// `(start, end, items)` of every acknowledged insert call.
    pub insert_done: Vec<(u64, u64, u64)>,
    /// `(start, end, 1)` of every answered query.
    pub query_done: Vec<(u64, u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Aggregate of the items whose insert was acknowledged.
    pub acked: Aggregate,
    /// Shards searched, summed over successful queries.
    pub shards_searched: u64,
}

impl Samples {
    fn fail(&mut self, what: &str, err: String) {
        self.failed += 1;
        self.first_error
            .get_or_insert_with(|| format!("{what}: {err}"));
    }

    pub fn merge(&mut self, other: Samples) {
        self.insert_ns.extend(other.insert_ns);
        self.query_ns.extend(other.query_ns);
        self.insert_done.extend(other.insert_done);
        self.query_done.extend(other.query_done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.acked.merge(&other.acked);
        self.shards_searched += other.shards_searched;
    }
}

/// One client session with the state that outlives a phase of the run.
pub struct Session {
    pub client: ClientSession,
    /// Source of the items this session inserts.
    pub gen: DataGen,
    /// Next index into the query pool.
    pub cursor: usize,
    /// The first answer each pool query got; a later answer that differs
    /// while the data is static is a wrong answer.
    pub answers: Vec<Option<Aggregate>>,
    pub samples: Samples,
}

impl Session {
    pub fn new(client: ClientSession, gen: DataGen, cursor: usize, pool_len: usize) -> Self {
        Session {
            client,
            gen,
            cursor,
            answers: vec![None; pool_len],
            samples: Samples::default(),
        }
    }

    fn insert<O: Observer>(&mut self, item: &Item, clock: &Clock, obs: &mut O) {
        let start = clock.now_ns();
        let res = self.client.insert(item);
        let end = clock.now_ns();
        self.samples.attempted += 1;
        match res {
            Ok(()) => {
                self.samples.insert_ns.push(end - start);
                self.samples.insert_done.push((start, end, 1));
                self.samples.acked.add(item.measure);
                obs.insert(item, start, end);
            }
            Err(e) => self.samples.fail("insert", e),
        }
    }

    fn query<O: Observer>(
        &mut self,
        pool: &[QueryBox],
        k: usize,
        is_static: bool,
        clock: &Clock,
        obs: &mut O,
    ) {
        let q = &pool[k];
        let start = clock.now_ns();
        let res = if O::ANALYZE {
            self.client
                .query_analyze(q)
                .map(|(agg, shards, plan)| (agg, shards, Some(plan)))
        } else {
            self.client
                .query(q)
                .map(|(agg, shards)| (agg, shards, None))
        };
        let end = clock.now_ns();
        self.samples.attempted += 1;
        match res {
            Ok((agg, shards, plan)) => {
                self.samples.query_ns.push(end - start);
                self.samples.query_done.push((start, end, 1));
                self.samples.shards_searched += shards as u64;
                if is_static {
                    match &self.answers[k] {
                        Some(first) if !same_answer(first, &agg) => {
                            self.samples.fail(
                                "query",
                                format!(
                                    "answer changed on static data: {q:?}: {first:?} then {agg:?}"
                                ),
                            );
                        }
                        Some(_) => {}
                        None => self.answers[k] = Some(agg),
                    }
                }
                obs.query(q, &agg, plan.as_ref(), start, end);
            }
            Err(e) => self.samples.fail("query", e),
        }
    }

    /// Closed loop of point inserts until `until_ns`.
    pub fn run_point<O: Observer>(&mut self, clock: &Clock, until_ns: u64, obs: &mut O) {
        while clock.now_ns() < until_ns {
            let items = self.gen.items(POINT_BATCH);
            for item in &items {
                if clock.now_ns() >= until_ns {
                    return;
                }
                self.insert(item, clock, obs);
            }
        }
    }

    /// Closed loop of bulk chunks until `until_ns`.
    pub fn run_bulk<O: Observer>(&mut self, clock: &Clock, until_ns: u64, obs: &mut O) {
        while clock.now_ns() < until_ns {
            let items = self.gen.items(BULK_CHUNK);
            let mut agg = Aggregate::empty();
            for it in &items {
                agg.add(it.measure);
            }
            let copy = obs.wants_bulk().then(|| items.clone());
            let start = clock.now_ns();
            let res = self.client.bulk_insert(items);
            let end = clock.now_ns();
            self.samples.attempted += 1;
            match res {
                Ok(()) => {
                    self.samples.insert_ns.push(end - start);
                    self.samples
                        .insert_done
                        .push((start, end, BULK_CHUNK as u64));
                    self.samples.acked.merge(&agg);
                    obs.bulk(copy.as_deref(), start, end);
                }
                // A chunk that failed may have been applied in part: the
                // conservation check then fails too, as it should.
                Err(e) => self.samples.fail("bulk_insert", e),
            }
        }
    }

    /// Closed loop over the query pool, in pool order from this session's
    /// cursor, until `until_ns`. `is_static` says that nothing is writing, so
    /// every repeat of a query must repeat its answer.
    pub fn run_query<O: Observer>(
        &mut self,
        pool: &[QueryBox],
        is_static: bool,
        clock: &Clock,
        until_ns: u64,
        obs: &mut O,
    ) {
        while clock.now_ns() < until_ns {
            let k = self.cursor % pool.len();
            self.cursor += 1;
            self.query(pool, k, is_static, clock, obs);
        }
    }
}

/// Counts match exactly; sums to 1e-6 relative (merge order differs between
/// runs of the same query); min and max exactly.
pub fn same_answer(a: &Aggregate, b: &Aggregate) -> bool {
    a.count == b.count
        && (a.sum - b.sum).abs() <= 1e-6 * a.sum.abs().max(b.sum.abs()).max(1.0)
        && (a.count == 0 || (a.min == b.min && a.max == b.max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_answer_tolerates_merge_order_only() {
        let a = Aggregate {
            count: 3,
            sum: 1000.0,
            min: 1.0,
            max: 900.0,
        };
        assert!(same_answer(
            &a,
            &Aggregate {
                sum: 1000.0 + 1e-7,
                ..a
            }
        ));
        assert!(!same_answer(&a, &Aggregate { sum: 1000.1, ..a }));
        assert!(!same_answer(&a, &Aggregate { count: 4, ..a }));
        assert!(!same_answer(&a, &Aggregate { max: 901.0, ..a }));
        assert!(same_answer(&Aggregate::empty(), &Aggregate::empty()));
    }
}
