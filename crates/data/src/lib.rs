//! Workload generation for the VOLAP experiments.
//!
//! The paper evaluates on TPC-DS data (Figure 1's hierarchies) with
//! randomly generated queries that "span a wide range of coverages, and
//! specify values at various levels in all dimensions"; queries are then
//! *binned by their true coverage* — the fraction of the database a query
//! aggregates (§IV). This crate reproduces that pipeline synthetically:
//!
//! * [`DataGen`] — deterministic item generator over any [`Schema`], with a
//!   Zipf-like per-level skew so that hierarchy prefixes hold realistic,
//!   unequal shares of the data (what makes medium/high coverage queries
//!   exist at all).
//! * [`QueryGen`] — query generator that anchors prefixes on sampled data
//!   items (so queries always hit populated subtrees) and varies the
//!   constrained levels.
//! * [`coverage`] / [`CoverageBand`] — true-coverage measurement and the
//!   paper's low / medium / high binning (< 33 %, 33–66 %, > 66 %), plus
//!   fine-grained bins for the Figure-9 heat maps.
//! * [`Op`] / [`mixed_stream`] — interleaved insert/query streams for the
//!   workload-mix experiments (Figure 8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use volap_dims::{DimPath, Item, QueryBox, Schema};

/// Deterministic, skewed item generator.
///
/// Each hierarchy child at every level is drawn from a truncated power-law:
/// child `i` has probability proportional to `1 / (i + 1)^skew`. `skew = 0`
/// is uniform; `1.5` (the default used by the experiments) concentrates
/// roughly a third of the mass in the first child, mimicking the hot
/// products / hot stores shape of retail data.
pub struct DataGen {
    schema: Schema,
    rng: StdRng,
    /// Per dimension, per level: cumulative child-probability table.
    tables: Vec<Vec<Vec<f64>>>,
}

impl DataGen {
    /// Create a generator with the given seed and skew exponent.
    pub fn new(schema: &Schema, seed: u64, skew: f64) -> Self {
        assert!(skew >= 0.0, "skew must be non-negative");
        let tables = schema
            .dimensions()
            .iter()
            .map(|dim| {
                dim.levels
                    .iter()
                    .map(|level| {
                        let mut cum = Vec::with_capacity(level.fanout as usize);
                        let mut total = 0.0;
                        for i in 0..level.fanout {
                            total += 1.0 / ((i + 1) as f64).powf(skew);
                            cum.push(total);
                        }
                        for c in &mut cum {
                            *c /= total;
                        }
                        cum
                    })
                    .collect()
            })
            .collect();
        Self {
            schema: schema.clone(),
            rng: StdRng::seed_from_u64(seed),
            tables,
        }
    }

    /// The schema items are generated for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Generate one item.
    pub fn item(&mut self) -> Item {
        let dims = self.schema.dims();
        let mut coords = Vec::with_capacity(dims);
        for d in 0..dims {
            let dim = self.schema.dim(d);
            let mut components = Vec::with_capacity(dim.depth());
            for l in 0..dim.depth() {
                let table = &self.tables[d][l];
                let u: f64 = self.rng.gen();
                let child = table.partition_point(|&c| c < u).min(table.len() - 1);
                components.push(child as u64);
            }
            coords.push(dim.ordinal(&components));
        }
        // Log-normal-ish positive measure (e.g. a sale price).
        let m: f64 = self.rng.gen::<f64>() * 2.0 - 1.0;
        Item::new(coords, (m * 1.5).exp() * 25.0)
    }

    /// Generate `n` items.
    pub fn items(&mut self, n: usize) -> Vec<Item> {
        (0..n).map(|_| self.item()).collect()
    }
}

/// Fraction of `items` that fall inside `q` — the paper's *query coverage*.
pub fn coverage(items: &[Item], q: &QueryBox) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let hit = items.iter().filter(|it| q.contains_item(it)).count();
    hit as f64 / items.len() as f64
}

/// The paper's coverage bands: low (< 33 %), medium (33–66 %), high (> 66 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoverageBand {
    /// Below 33 % of the database.
    Low,
    /// Between 33 % and 66 %.
    Medium,
    /// Above 66 %.
    High,
}

impl CoverageBand {
    /// Classify a coverage fraction.
    pub fn of(frac: f64) -> Self {
        if frac < 1.0 / 3.0 {
            CoverageBand::Low
        } else if frac <= 2.0 / 3.0 {
            CoverageBand::Medium
        } else {
            CoverageBand::High
        }
    }

    /// All bands in order.
    pub fn all() -> [CoverageBand; 3] {
        [CoverageBand::Low, CoverageBand::Medium, CoverageBand::High]
    }
}

impl std::fmt::Display for CoverageBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoverageBand::Low => "low",
            CoverageBand::Medium => "medium",
            CoverageBand::High => "high",
        })
    }
}

/// Random query generator.
///
/// Every query names, per dimension, either the ALL root or a prefix (at a
/// random level) of a data item sampled from the database — anchoring on
/// real items is what lets generated queries cover populated subtrees
/// instead of empty space.
pub struct QueryGen {
    schema: Schema,
    rng: StdRng,
    /// Probability that a dimension is left unconstrained (ALL root).
    pub root_prob: f64,
}

impl QueryGen {
    /// Create a query generator.
    pub fn new(schema: &Schema, seed: u64, root_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&root_prob));
        Self {
            schema: schema.clone(),
            rng: StdRng::seed_from_u64(seed),
            root_prob,
        }
    }

    /// Generate one query anchored on `sample` (non-empty).
    pub fn query(&mut self, sample: &[Item]) -> QueryBox {
        assert!(!sample.is_empty(), "query generation needs sample items");
        let anchor = &sample[self.rng.gen_range(0..sample.len())];
        let dims = self.schema.dims();
        let paths: Vec<DimPath> = (0..dims)
            .map(|d| {
                if self.rng.gen::<f64>() < self.root_prob {
                    DimPath::root(d)
                } else {
                    let full = anchor.path(&self.schema, d);
                    let depth = full.components.len();
                    let level = self.rng.gen_range(1..=depth);
                    DimPath::new(d, full.components[..level].to_vec())
                }
            })
            .collect();
        QueryBox::from_paths(&self.schema, &paths)
    }

    /// Generate queries until each of the three coverage bands holds
    /// `per_band` queries (measured against `sample`), or `max_attempts`
    /// generations have been made. Returns `[low, medium, high]`.
    pub fn binned(
        &mut self,
        sample: &[Item],
        per_band: usize,
        max_attempts: usize,
    ) -> [Vec<QueryBox>; 3] {
        let mut bins: [Vec<QueryBox>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..max_attempts {
            if bins.iter().all(|b| b.len() >= per_band) {
                break;
            }
            let q = self.query(sample);
            let band = CoverageBand::of(coverage(sample, &q));
            let idx = band as usize;
            if bins[idx].len() < per_band {
                bins[idx].push(q);
            }
        }
        bins
    }

    /// Fine-grained coverage bins for the Figure-9 heat maps: `nbins`
    /// equal-width coverage buckets over (0, 1], each holding up to
    /// `per_bin` queries with their measured coverage. Zero-coverage
    /// queries are discarded.
    pub fn fine_binned(
        &mut self,
        sample: &[Item],
        nbins: usize,
        per_bin: usize,
        max_attempts: usize,
    ) -> Vec<Vec<(f64, QueryBox)>> {
        let mut bins = vec![Vec::new(); nbins];
        for _ in 0..max_attempts {
            if bins
                .iter()
                .all(|b: &Vec<(f64, QueryBox)>| b.len() >= per_bin)
            {
                break;
            }
            let q = self.query(sample);
            let c = coverage(sample, &q);
            if c <= 0.0 {
                continue;
            }
            let idx = ((c * nbins as f64) as usize).min(nbins - 1);
            if bins[idx].len() < per_bin {
                bins[idx].push((c, q));
            }
        }
        bins
    }
}

/// One operation of a client stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// Insert a new item.
    Insert(Item),
    /// Run an aggregate query.
    Query(QueryBox),
}

/// Build an interleaved operation stream with the given insert fraction
/// (the paper's *workload mix*), drawing queries uniformly from `queries`.
pub fn mixed_stream(
    gen: &mut DataGen,
    queries: &[QueryBox],
    insert_pct: f64,
    n: usize,
    seed: u64,
) -> Vec<Op> {
    assert!((0.0..=1.0).contains(&insert_pct));
    assert!(
        insert_pct >= 1.0 - f64::EPSILON || !queries.is_empty(),
        "need queries for a mixed stream"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < insert_pct {
                Op::Insert(gen.item())
            } else {
                Op::Query(queries[rng.gen_range(0..queries.len())].clone())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_valid_and_deterministic() {
        let schema = Schema::tpcds();
        let mut g1 = DataGen::new(&schema, 42, 1.5);
        let mut g2 = DataGen::new(&schema, 42, 1.5);
        let a = g1.items(200);
        let b = g2.items(200);
        assert_eq!(a, b, "same seed, same stream");
        for it in &a {
            assert!(it.validate(&schema));
            assert!(it.measure > 0.0);
        }
        let mut g3 = DataGen::new(&schema, 43, 1.5);
        assert_ne!(a, g3.items(200), "different seed, different stream");
    }

    #[test]
    fn skew_concentrates_mass() {
        let schema = Schema::uniform(1, 1, 16);
        let mut skewed = DataGen::new(&schema, 7, 2.0);
        let mut uniform = DataGen::new(&schema, 7, 0.0);
        let count_zero = |items: &[Item]| items.iter().filter(|i| i.coords[0] == 0).count();
        let s = skewed.items(4000);
        let u = uniform.items(4000);
        assert!(
            count_zero(&s) > 2 * count_zero(&u),
            "skew must concentrate on child 0"
        );
        let uz = count_zero(&u) as f64 / 4000.0;
        assert!(
            (uz - 1.0 / 16.0).abs() < 0.03,
            "uniform should spread evenly, got {uz}"
        );
    }

    #[test]
    fn queries_have_positive_coverage() {
        let schema = Schema::tpcds();
        let mut dg = DataGen::new(&schema, 1, 1.5);
        let sample = dg.items(2000);
        let mut qg = QueryGen::new(&schema, 2, 0.6);
        for _ in 0..50 {
            let q = qg.query(&sample);
            assert!(
                coverage(&sample, &q) > 0.0,
                "anchored queries must hit data"
            );
        }
    }

    #[test]
    fn binning_fills_all_bands() {
        let schema = Schema::tpcds();
        let mut dg = DataGen::new(&schema, 1, 1.5);
        let sample = dg.items(3000);
        let mut qg = QueryGen::new(&schema, 3, 0.7);
        let bins = qg.binned(&sample, 10, 50_000);
        for (band, bin) in CoverageBand::all().iter().zip(&bins) {
            assert!(
                bin.len() >= 10,
                "band {band} only has {} queries",
                bin.len()
            );
            for q in bin {
                assert_eq!(CoverageBand::of(coverage(&sample, q)), *band);
            }
        }
    }

    #[test]
    fn band_classification_boundaries() {
        assert_eq!(CoverageBand::of(0.0), CoverageBand::Low);
        assert_eq!(CoverageBand::of(0.32), CoverageBand::Low);
        assert_eq!(CoverageBand::of(0.34), CoverageBand::Medium);
        assert_eq!(CoverageBand::of(0.66), CoverageBand::Medium);
        assert_eq!(CoverageBand::of(0.67), CoverageBand::High);
        assert_eq!(CoverageBand::of(1.0), CoverageBand::High);
    }

    #[test]
    fn mixed_stream_respects_ratio() {
        let schema = Schema::tpcds();
        let mut dg = DataGen::new(&schema, 5, 1.5);
        let sample = dg.items(500);
        let mut qg = QueryGen::new(&schema, 6, 0.6);
        let queries: Vec<QueryBox> = (0..20).map(|_| qg.query(&sample)).collect();
        let stream = mixed_stream(&mut dg, &queries, 0.25, 4000, 9);
        let inserts = stream
            .iter()
            .filter(|op| matches!(op, Op::Insert(_)))
            .count();
        let frac = inserts as f64 / stream.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "got insert fraction {frac}");
    }

    #[test]
    fn pure_insert_stream_needs_no_queries() {
        let schema = Schema::uniform(2, 2, 4);
        let mut dg = DataGen::new(&schema, 5, 0.0);
        let stream = mixed_stream(&mut dg, &[], 1.0, 100, 1);
        assert!(stream.iter().all(|op| matches!(op, Op::Insert(_))));
    }

    #[test]
    fn fine_bins_are_ordered() {
        let schema = Schema::tpcds();
        let mut dg = DataGen::new(&schema, 8, 1.5);
        let sample = dg.items(2000);
        let mut qg = QueryGen::new(&schema, 9, 0.7);
        let bins = qg.fine_binned(&sample, 10, 3, 30_000);
        for (i, bin) in bins.iter().enumerate() {
            for (c, _) in bin {
                let lo = i as f64 / 10.0;
                let hi = (i + 1) as f64 / 10.0;
                assert!(
                    *c > lo - 1e-9 && *c <= hi + 1e-9,
                    "coverage {c} outside bin {i}"
                );
            }
        }
        // At least the low bins must fill for this workload.
        assert!(!bins[0].is_empty() || !bins[1].is_empty());
    }
}
