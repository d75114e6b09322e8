//! Per-principal workload accounting: request cost attribution plus a
//! heavy-hitter profiler.
//!
//! Every other surface in this crate answers *what* the cluster spent
//! (latency histograms, counters, heat). This module answers *who* spent
//! it. A client-supplied principal tag (an interned [`PrincipalId`]) rides
//! each client proto op and the `volap_net` envelope alongside the trace
//! context; when a tagged request completes, the server folds a
//! [`CostVec`] — rows scanned, tree nodes visited, queue wait, wall
//! time, bytes encoded, net hops, fan-out — into:
//!
//! * **exact per-principal totals** (and a request count) in a registry
//!   keyed by the interned id, and
//! * **one space-saving top-K sketch per cost dimension**, so the
//!   hot-principal view survives unbounded principal cardinality in
//!   bounded memory. Each sketch holds at most `topk` entries; the classic
//!   space-saving guarantee applies: for every tracked principal the
//!   sketched count overestimates the true count by at most `err`, and
//!   `err ≤ N/k` where `N` is the total weight offered and `k = topk`.
//!   Like the exact totals, the sketches are all-time: nothing decays.
//!
//! Untagged requests pay one relaxed load and a branch; the `accounting`
//! row of the overhead gate (`bench_overhead`) measures what the armed core
//! costs them.

use std::collections::HashMap;

use crate::json::{Field, Json};
use crate::registry::{MetricId, ScalarSnapshot};
use crate::snapshot::{ascending, SectionData};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Number of cost dimensions in a [`CostVec`].
pub const COST_DIMS: usize = 7;

/// An interned principal tag. `0` is reserved for "untagged" — the hot
/// path branches on it before touching any accounting state. Ids are
/// dense (1, 2, 3, ...) in interning order and never recycled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub u32);

impl PrincipalId {
    /// The untagged principal: requests carrying it are never accounted.
    pub const NONE: PrincipalId = PrincipalId(0);

    /// Whether this id names a real (interned) principal.
    pub fn is_tagged(self) -> bool {
        self.0 != 0
    }
}

/// Declare the cost dimensions once: the [`CostVec`] fields, their stable
/// names and the array view all follow this one ordered list.
macro_rules! cost_dims {
    ($( $(#[$doc:meta])* $dim:ident ),* $(,)?) => {
        /// Stable dimension names, in [`CostVec::as_array`] order. These are the
        /// `dim` strings in [`AccountingSnapshot::top`] and the metric-name
        /// suffixes of the folded Prometheus counters
        /// (`volap_accounting_<dim>_total{principal=..}`).
        pub const COST_DIM_NAMES: [&str; COST_DIMS] = [$(stringify!($dim)),*];

        /// The per-request cost attribution vector. All dimensions are additive
        /// `u64`s so per-principal totals are exact (no float drift between the
        /// registry and the cross-checks `volap-stat --tenants` runs).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CostVec {
            $( $(#[$doc])* pub $dim: u64, )*
        }

        impl CostVec {
            /// The vector as an array indexed like [`COST_DIM_NAMES`].
            pub fn as_array(&self) -> [u64; COST_DIMS] {
                [$(self.$dim),*]
            }

            /// Rebuild from an array indexed like [`COST_DIM_NAMES`].
            pub fn from_array([$($dim),*]: [u64; COST_DIMS]) -> Self {
                Self { $($dim),* }
            }

            /// Element-wise saturating accumulate.
            pub fn add(&mut self, other: &CostVec) {
                $( self.$dim = self.$dim.saturating_add(other.$dim); )*
            }
        }
    };
}

cost_dims! {
    /// Leaf items scanned across all shards touched (from `ShardExec`).
    rows_scanned,
    /// Tree nodes visited across all shards touched.
    nodes_visited,
    /// Microseconds the request sat in the server's inbound queue before
    /// a handler picked it up.
    queue_wait_us,
    /// Route + execute wall time on the server, microseconds.
    wall_us,
    /// Request payload bytes decoded at the server (what the client's
    /// encoding cost on the wire).
    bytes,
    /// Network hops the request caused (worker requests, re-route
    /// attempts, forwards).
    net_hops,
    /// Scatter width: distinct workers contacted (1 for point routes).
    fanout,
}

/// Exported as an array indexed like [`COST_DIM_NAMES`].
impl Field for CostVec {
    fn write(&self, out: &mut String) {
        self.as_array().to_vec().write(out);
    }
    fn read(v: &Json) -> Result<Self, String> {
        let dims: [u64; COST_DIMS] = Vec::read(v)?
            .try_into()
            .map_err(|_| format!("accounting cost must have {COST_DIMS} dims"))?;
        Ok(Self::from_array(dims))
    }
}

/// One tracked entry of a [`SpaceSaving`] sketch.
#[derive(Clone, Copy, Debug, PartialEq)]
struct SketchSlot {
    principal: u32,
    /// Estimated weight. Overestimates the true weight by at most `err`.
    count: f64,
    /// Maximum possible overestimate inherited at eviction time.
    err: f64,
}

/// A space-saving heavy-hitter sketch (Metwally et al.) over weighted
/// offers. At most `capacity` principals are tracked; offering an untracked
/// principal when full evicts the minimum entry and inherits its count as
/// the new entry's error bound. For any stream of total weight `N`:
/// `true ≤ count` and
/// `count − true ≤ err ≤ N / capacity` for every tracked principal, and
/// any principal with true weight `> N / capacity` is tracked.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    slots: Vec<SketchSlot>,
    /// Total weight offered — the `N` in the error bound.
    offered: f64,
}

impl SpaceSaving {
    /// An empty sketch tracking at most `capacity` principals
    /// (`capacity ≥ 1` enforced).
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), slots: Vec::new(), offered: 0.0 }
    }

    /// Offer `weight` for `principal`. Zero weights are ignored (they
    /// carry no ranking information and would churn evictions).
    pub fn offer(&mut self, principal: u32, weight: u64) {
        if weight == 0 {
            return;
        }
        let w = weight as f64;
        self.offered += w;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.principal == principal) {
            slot.count += w;
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(SketchSlot { principal, count: w, err: 0.0 });
            return;
        }
        // Evict the minimum: the newcomer inherits its count as both the
        // starting estimate and the error bound.
        let min = self
            .slots
            .iter_mut()
            .min_by(|a, b| a.count.total_cmp(&b.count))
            .expect("capacity >= 1");
        *min = SketchSlot { principal, count: min.count + w, err: min.count };
    }

    /// Total weight offered — the `N` of the error bound.
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Tracked entries as `(principal, count, err)`, heaviest first.
    pub fn entries(&self) -> Vec<(u32, f64, f64)> {
        let mut v: Vec<_> = self.slots.iter().map(|s| (s.principal, s.count, s.err)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// Per-principal exact totals (interner-side state).
#[derive(Default)]
struct AccountState {
    /// Principal names; `PrincipalId(i + 1)` owns `names[i]`.
    names: Vec<String>,
    index: HashMap<String, u32>,
    /// Exact all-time cost totals, parallel to `names`.
    totals: Vec<CostVec>,
    /// Exact all-time request counts, parallel to `names`.
    requests: Vec<u64>,
    /// One sketch per cost dimension, indexed like [`COST_DIM_NAMES`].
    sketches: Vec<SpaceSaving>,
}

/// Sketch capacity per cost dimension (the K of top-K; error bound `N/K`).
pub const TOPK: usize = 8;

struct AccountingInner {
    enabled: AtomicBool,
    topk: usize,
    state: Mutex<AccountState>,
}

/// The per-principal accounting core. Cheap to clone (shared); writers
/// are request handlers calling [`Accounting::charge`], readers are
/// snapshots.
#[derive(Clone)]
pub struct Accounting {
    inner: Arc<AccountingInner>,
}

impl Default for Accounting {
    /// The shipped sizing: [`TOPK`] slots per sketch.
    fn default() -> Self {
        Self::new(TOPK)
    }
}

impl Accounting {
    /// An accounting core, charging enabled, with `topk` slots per sketch.
    pub fn new(topk: usize) -> Self {
        let topk = topk.max(1);
        Self {
            inner: Arc::new(AccountingInner {
                enabled: AtomicBool::new(true),
                topk,
                state: Mutex::new(AccountState {
                    sketches: (0..COST_DIMS).map(|_| SpaceSaving::new(topk)).collect(),
                    ..AccountState::default()
                }),
            }),
        }
    }

    /// Whether charging is currently enabled.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Runtime kill switch ([`crate::Obs::set_enabled`]): with accounting
    /// off, [`Accounting::charge`] is one relaxed load and a branch.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Intern `name`, returning its stable id (idempotent). Empty names
    /// are not principals and intern to [`PrincipalId::NONE`].
    pub fn intern(&self, name: &str) -> PrincipalId {
        if name.is_empty() {
            return PrincipalId::NONE;
        }
        let mut st = self.inner.state.lock().unwrap();
        if let Some(&id) = st.index.get(name) {
            return PrincipalId(id);
        }
        st.names.push(name.to_string());
        st.totals.push(CostVec::default());
        st.requests.push(0);
        let id = st.names.len() as u32;
        st.index.insert(name.to_string(), id);
        PrincipalId(id)
    }

    /// The name behind an id (None for untagged or never-interned ids).
    pub fn name(&self, p: PrincipalId) -> Option<String> {
        if !p.is_tagged() {
            return None;
        }
        let st = self.inner.state.lock().unwrap();
        st.names.get(p.0 as usize - 1).cloned()
    }

    /// Attribute one request's cost to `p`. Untagged requests and a
    /// disabled core return after a branch; ids that were never interned
    /// here are ignored (a foreign id cannot grow the tables).
    pub fn charge(&self, p: PrincipalId, cost: &CostVec) {
        if !p.is_tagged() || !self.enabled() {
            return;
        }
        let mut st = self.inner.state.lock().unwrap();
        let slot = p.0 as usize - 1;
        if slot >= st.names.len() {
            return;
        }
        st.totals[slot].add(cost);
        st.requests[slot] += 1;
        let arr = cost.as_array();
        for (sketch, &w) in st.sketches.iter_mut().zip(arr.iter()) {
            sketch.offer(p.0, w);
        }
    }

    /// Copy out the whole accounting state.
    pub fn snapshot(&self) -> AccountingSnapshot {
        let st = self.inner.state.lock().unwrap();
        let mut principals: Vec<PrincipalTotals> = st
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| PrincipalTotals {
                principal: name.clone(),
                requests: st.requests[i],
                cost: st.totals[i],
            })
            .collect();
        principals.sort_by(|a, b| a.principal.cmp(&b.principal));
        let top = st
            .sketches
            .iter()
            .enumerate()
            .map(|(d, sketch)| DimTop {
                dim: COST_DIM_NAMES[d].to_string(),
                offered: sketch.offered(),
                entries: sketch
                    .entries()
                    .into_iter()
                    .map(|(id, count, err)| TopEntry {
                        principal: st
                            .names
                            .get(id as usize - 1)
                            .cloned()
                            .unwrap_or_else(|| format!("principal-{id}")),
                        count,
                        err,
                    })
                    .collect(),
            })
            .collect();
        AccountingSnapshot {
            enabled: self.enabled(),
            topk: self.inner.topk as u64,
            principals,
            top,
        }
    }
}

crate::record! {
    /// A copied-out accounting state: exact per-principal totals plus the
    /// per-dimension top-K tables. Round-trips losslessly through the JSON
    /// exporter; the Prometheus exposition folds the exact totals in as
    /// `volap_accounting_*_total{principal=..}` counters.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct AccountingSnapshot {
        /// Whether charging was enabled at capture.
        enabled: bool,
        /// Sketch capacity per dimension (the K of the `N/K` error bound).
        topk: u64,
        /// Exact all-time totals, sorted by principal name.
        principals: Vec<PrincipalTotals> = rows,
        /// Per-dimension top-K tables, in [`COST_DIM_NAMES`] order (empty
        /// when accounting never charged).
        top: Vec<DimTop> = rows,
    }
}

impl SectionData for AccountingSnapshot {
    fn is_empty(&self) -> bool {
        self.principals.is_empty()
    }

    fn validate(&self) -> Result<(), String> {
        for pair in self.principals.windows(2) {
            ascending(Some(&pair[0].principal), &pair[1].principal, "principal")?;
        }
        for top in &self.top {
            if top.entries.windows(2).any(|e| e[0].count < e[1].count) {
                return Err(format!("top-K of {} is not heaviest-first", top.dim));
            }
        }
        Ok(())
    }

    /// The exact totals: `volap_accounting_{requests,<dim>}_total{principal=..}`.
    fn fold(&self, counters: &mut Vec<ScalarSnapshot<u64>>, _: &mut Vec<ScalarSnapshot<i64>>) {
        for p in &self.principals {
            let dims = COST_DIM_NAMES.iter().copied().zip(p.cost.as_array());
            for (dim, value) in std::iter::once(("requests", p.requests)).chain(dims) {
                let name = format!("volap_accounting_{dim}_total");
                counters.push(ScalarSnapshot {
                    id: MetricId::labeled(name, "principal", &p.principal),
                    value,
                });
            }
        }
    }
}

impl AccountingSnapshot {
    /// The exact totals row for one principal.
    pub fn principal(&self, name: &str) -> Option<&PrincipalTotals> {
        self.principals.iter().find(|p| p.principal == name)
    }

    /// The top-K table for one dimension name.
    pub fn top_of(&self, dim: &str) -> Option<&DimTop> {
        self.top.iter().find(|t| t.dim == dim)
    }
}

crate::record! {
    /// Exact all-time totals for one principal.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct PrincipalTotals {
        /// The principal tag as the client supplied it.
        principal: String,
        /// Tagged requests charged.
        requests: u64,
        /// Summed cost vector.
        cost: CostVec,
    }
}

crate::record! {
    /// The top-K table for one cost dimension.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct DimTop {
        /// Dimension name (one of [`COST_DIM_NAMES`]).
        dim: String,
        /// Total weight offered (the `N` of the error bound).
        offered: f64,
        /// Tracked principals, heaviest first.
        entries: Vec<TopEntry>,
    }
}

crate::record! {
    /// One row of a [`DimTop`] table.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct TopEntry {
        /// Principal tag.
        principal: String,
        /// Estimated weight; overestimates truth by at most `err`.
        count: f64,
        /// Error bound inherited at eviction (`≤ offered / topk`).
        err: f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let acc = Accounting::default();
        let a = acc.intern("tenant-a");
        let b = acc.intern("tenant-b");
        assert_eq!(a, PrincipalId(1));
        assert_eq!(b, PrincipalId(2));
        assert_eq!(acc.intern("tenant-a"), a);
        assert_eq!(acc.name(a).as_deref(), Some("tenant-a"));
        assert_eq!(acc.name(PrincipalId::NONE), None);
        assert_eq!(acc.intern(""), PrincipalId::NONE);
    }

    #[test]
    fn charge_accumulates_exact_totals() {
        let acc = Accounting::default();
        let a = acc.intern("a");
        let cost = CostVec { rows_scanned: 10, bytes: 3, fanout: 2, ..CostVec::default() };
        acc.charge(a, &cost);
        acc.charge(a, &cost);
        // Untagged and foreign ids are no-ops.
        acc.charge(PrincipalId::NONE, &cost);
        acc.charge(PrincipalId(99), &cost);
        let snap = acc.snapshot();
        let row = snap.principal("a").unwrap();
        assert_eq!(row.requests, 2);
        assert_eq!(row.cost.rows_scanned, 20);
        assert_eq!(row.cost.bytes, 6);
        assert_eq!(snap.principals.len(), 1);
        let top = snap.top_of("rows_scanned").unwrap();
        assert_eq!(top.entries[0].principal, "a");
        assert_eq!(top.entries[0].count, 20.0);
    }

    #[test]
    fn disabled_charge_is_a_noop() {
        let acc = Accounting::default();
        acc.set_enabled(false);
        let a = acc.intern("a");
        acc.charge(a, &CostVec { rows_scanned: 5, ..CostVec::default() });
        assert!(acc.snapshot().principals[0].requests == 0);
        acc.set_enabled(true);
        acc.charge(a, &CostVec { rows_scanned: 5, ..CostVec::default() });
        assert_eq!(acc.snapshot().principal("a").unwrap().cost.rows_scanned, 5);
    }

    #[test]
    fn sketch_error_bound_holds_under_eviction() {
        let k = 4;
        let mut sketch = SpaceSaving::new(k);
        let mut truth = vec![0u64; 64];
        let mut n = 0u64;
        // A skewed deterministic stream over 64 principals.
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let p = ((x >> 33) % 64) as u32;
            let w = if p < 4 { 50 } else { 1 };
            sketch.offer(p + 1, w);
            truth[p as usize] += w;
            n += w;
        }
        assert_eq!(sketch.offered(), n as f64);
        let bound = n as f64 / k as f64;
        for (p, count, err) in sketch.entries() {
            let t = truth[p as usize - 1] as f64;
            assert!(count >= t, "sketch must overestimate: {count} < {t}");
            assert!(count - t <= err + 1e-9, "overestimate exceeds recorded err");
            assert!(err <= bound + 1e-9, "err {err} exceeds N/k {bound}");
        }
    }
}
