//! Columnar leaf storage and the branch-free containment-scan kernel.
//!
//! Leaves keep their items in structure-of-arrays form: one coordinate
//! [`Column`] per dimension plus a parallel measure column. A column is its
//! values plus `[lo, hi]`, their range, which every mutation widens.
//!
//! The containment test against a query box first compiles each dimension's
//! value range into a predicate, proving emptiness (`Never`) or full
//! coverage (`All`) from the column's range without touching any row.
//! Surviving predicates then run dimension-major over 256-row blocks of four
//! 64-row lanes, combining range checks into `u64` bitmasks with no
//! data-dependent branches in the inner loop — the shape LLVM
//! autovectorizes. A block whose combined mask reaches zero skips its
//! remaining dimensions.

use volap_dims::{Aggregate, Item, QueryBox};
use volap_hilbert::BigIndex;

use crate::tree::Entry;

/// Range-test up to 64 coordinates.
#[inline]
fn mask64(col: &[u64], lo: u64, hi: u64) -> u64 {
    let mut m = 0u64;
    for (i, &c) in col.iter().enumerate() {
        m |= (((c >= lo) as u64) & ((c <= hi) as u64)) << i;
    }
    m
}

/// One coordinate column: its values and `[lo, hi]`, their range (`lo > hi`
/// while empty). Every mutation widens the range over the values it adds
/// (VOLAP never deletes, so a range never has to shrink); [`Column::pred`]
/// proves `Never` or `All` from it.
#[derive(Clone)]
struct Column {
    vals: Vec<u64>,
    lo: u64,
    hi: u64,
}

/// Widen the range `[lo, hi]` to take in `v`.
#[inline]
fn widen(lo: &mut u64, hi: &mut u64, v: u64) {
    *lo = (*lo).min(v);
    *hi = (*hi).max(v);
}

/// A per-dimension predicate compiled against the column's range.
enum Pred<'a> {
    /// Every row matches; the dimension drops out of the scan.
    All,
    /// No row can match; the whole leaf misses.
    Never,
    /// Compare each coordinate against the value range.
    Test { col: &'a [u64], lo: u64, hi: u64 },
}

impl Column {
    /// A column over `vals`, its range computed from them.
    fn new(vals: Vec<u64>) -> Self {
        let (mut lo, mut hi) = (u64::MAX, u64::MIN);
        for &v in &vals {
            widen(&mut lo, &mut hi, v);
        }
        Column { vals, lo, hi }
    }

    fn push(&mut self, v: u64) {
        self.vals.push(v);
        widen(&mut self.lo, &mut self.hi, v);
    }

    fn insert(&mut self, pos: usize, v: u64) {
        self.vals.insert(pos, v);
        widen(&mut self.lo, &mut self.hi, v);
    }

    fn splice_at(&mut self, pos: usize, new: impl Iterator<Item = u64>) {
        let Column { vals, lo, hi } = self;
        vals.splice(pos..pos, new.inspect(|&v| widen(lo, hi, v)));
    }

    /// Compile a value range into a predicate, proving `Never` (no row
    /// matches) before `All` (every row does) from the column's range, which
    /// is exact: mutations widen it and splits recompute it.
    ///
    /// The proof uses only state read under the leaf's own lock, never the
    /// parent's slot key: an insert can extend that key and add a row here
    /// between a reader's parent and child visits, and an `All` proven from
    /// the old key would count the new row even where it lies outside `q`.
    fn pred(&self, lo: u64, hi: u64) -> Pred<'_> {
        if self.hi < lo || hi < self.lo {
            Pred::Never
        } else if lo <= self.lo && self.hi <= hi {
            Pred::All
        } else {
            Pred::Test { col: &self.vals, lo, hi }
        }
    }
}

/// Rows of a leaf node in column-major layout.
///
/// Invariant: every column (and `hkeys`) has the same length. Under a
/// Hilbert insert policy every row has `Some` hkey and rows are kept sorted
/// by it; under the geometric policy every hkey is `None`.
#[derive(Clone)]
pub struct LeafColumns {
    /// `cols[d].vals[i]` is the coordinate of row `i` along dimension `d`.
    cols: Vec<Column>,
    /// `measures[i]` is the measure of row `i`.
    measures: Vec<f64>,
    /// Compact Hilbert key per row (`None` under the geometric policy).
    hkeys: Vec<Option<BigIndex>>,
}

impl LeafColumns {
    pub fn new(dims: usize) -> Self {
        Self {
            cols: (0..dims).map(|_| Column::new(Vec::new())).collect(),
            measures: Vec::new(),
            hkeys: Vec::new(),
        }
    }

    pub(crate) fn from_entries(dims: usize, entries: Vec<Entry>) -> Self {
        let mut out = Self::new(dims);
        out.measures.reserve(entries.len());
        out.hkeys.reserve(entries.len());
        for e in entries {
            out.push(e);
        }
        out
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Append a row from plain parts (the benchmark/test entry point; the
    /// tree inserts interchange `Entry` values instead).
    pub fn push_row(&mut self, coords: &[u64], measure: f64) {
        debug_assert_eq!(coords.len(), self.cols.len());
        for (col, &c) in self.cols.iter_mut().zip(coords.iter()) {
            col.push(c);
        }
        self.measures.push(measure);
        self.hkeys.push(None);
    }

    /// Append a row.
    pub(crate) fn push(&mut self, e: Entry) {
        debug_assert_eq!(e.coords.len(), self.cols.len());
        for (col, &c) in self.cols.iter_mut().zip(e.coords.iter()) {
            col.push(c);
        }
        self.measures.push(e.measure);
        self.hkeys.push(e.hkey);
    }

    /// Insert a row at `pos`, shifting later rows (leaves are small, so the
    /// per-column shift is cheap and keeps Hilbert order intact).
    pub(crate) fn insert(&mut self, pos: usize, e: Entry) {
        debug_assert_eq!(e.coords.len(), self.cols.len());
        for (col, &c) in self.cols.iter_mut().zip(e.coords.iter()) {
            col.insert(pos, c);
        }
        self.measures.insert(pos, e.measure);
        self.hkeys.insert(pos, e.hkey);
    }

    /// First index whose hkey is strictly greater than `h` (Hilbert insert
    /// position).
    pub(crate) fn hkey_partition_point(&self, h: &BigIndex) -> usize {
        self.hkeys.partition_point(|k| k.as_ref().is_some_and(|k| k <= h))
    }

    /// Insert a run of items pre-sorted by Hilbert key (`keyed` pairs each
    /// key with its index into `items`), equivalent to inserting them one by
    /// one. The search for each insert position resumes after the previous
    /// one, and keys falling between the same pair of existing rows are
    /// spliced into each column in one contiguous group instead of one
    /// element-shifting insert per row. Keys are moved out of `keyed`
    /// (batch-insert leaves never recompute them).
    ///
    /// Only meaningful under a Hilbert policy: every existing row must
    /// already carry a key.
    pub(crate) fn insert_run(&mut self, items: &[Item], keyed: &mut [(BigIndex, u32)]) {
        debug_assert!(keyed.windows(2).all(|w| w[0].0 <= w[1].0), "run must be sorted");
        debug_assert!(self.hkeys.iter().all(|k| k.is_some()), "run insert into keyless leaf");
        let mut pos = 0;
        let mut i = 0;
        while i < keyed.len() {
            let h = &keyed[i].0;
            pos += self.hkeys[pos..].partition_point(|k| k.as_ref().is_some_and(|k| k <= h));
            // Everything strictly below the existing row at `pos` lands in
            // this same gap (appending at the end takes the whole tail).
            let group_end = match self.hkeys.get(pos).and_then(|k| k.as_ref()) {
                None => keyed.len(),
                Some(ex) => {
                    let mut j = i + 1;
                    while j < keyed.len() && keyed[j].0 < *ex {
                        j += 1;
                    }
                    j
                }
            };
            let group = i..group_end;
            for (d, col) in self.cols.iter_mut().enumerate() {
                col.splice_at(pos, keyed[group.clone()].iter().map(|&(_, r)| items[r as usize].coords[d]));
            }
            self.measures
                .splice(pos..pos, keyed[group.clone()].iter().map(|&(_, r)| items[r as usize].measure));
            self.hkeys
                .splice(pos..pos, keyed[group.clone()].iter_mut().map(|(k, _)| Some(std::mem::take(k))));
            pos += group_end - i;
            i = group_end;
        }
    }

    pub(crate) fn hkey(&self, i: usize) -> Option<&BigIndex> {
        self.hkeys[i].as_ref()
    }

    /// Copy rows `r` into a fresh column set — the Hilbert split path, which
    /// duplicates each side with a handful of column memcpys instead of one
    /// interchange [`Entry`] per row.
    pub fn clone_range(&self, r: std::ops::Range<usize>) -> Self {
        Self {
            cols: self.cols.iter().map(|c| Column::new(c.vals[r.clone()].to_vec())).collect(),
            measures: self.measures[r.clone()].to_vec(),
            hkeys: self.hkeys[r.clone()].to_vec(),
        }
    }

    /// Check the leaf's invariants: every column holds [`Self::len`] rows,
    /// and every column's stored range contains each of its values.
    pub fn check(&self) -> Result<(), String> {
        let n = self.len();
        if self.hkeys.len() != n {
            return Err(format!("{} hkeys for {n} rows", self.hkeys.len()));
        }
        for (d, Column { vals, lo, hi }) in self.cols.iter().enumerate() {
            if vals.len() != n {
                return Err(format!("column {d} holds {} values for {n} rows", vals.len()));
            }
            if let Some(v) = vals.iter().find(|&&v| v < *lo || v > *hi) {
                return Err(format!("column {d}: value {v} outside its range [{lo}, {hi}]"));
            }
        }
        Ok(())
    }

    /// Overwrite `item` with row `i` (reusing its coordinate buffer).
    pub(crate) fn read_row_into(&self, i: usize, item: &mut Item) {
        debug_assert_eq!(item.coords.len(), self.cols.len());
        for (slot, col) in item.coords.iter_mut().zip(self.cols.iter()) {
            *slot = col.vals[i];
        }
        item.measure = self.measures[i];
    }

    /// Rebuild row `i` as an interchange [`Entry`].
    pub(crate) fn entry(&self, i: usize) -> Entry {
        Entry {
            coords: self.cols.iter().map(|col| col.vals[i]).collect(),
            measure: self.measures[i],
            hkey: self.hkeys[i].clone(),
        }
    }

    /// All rows as interchange entries (split path).
    pub(crate) fn to_entries(&self) -> Vec<Entry> {
        (0..self.len()).map(|i| self.entry(i)).collect()
    }

    /// Row `i` as an [`Item`].
    pub fn item(&self, i: usize) -> Item {
        Item { coords: self.cols.iter().map(|col| col.vals[i]).collect(), measure: self.measures[i] }
    }

    pub(crate) fn append_items(&self, out: &mut Vec<Item>) {
        out.extend((0..self.len()).map(|i| self.item(i)));
    }

    /// Aggregate every row contained in `q` into `agg`.
    ///
    /// Compiles one predicate per dimension first: a dimension that provably
    /// misses short-circuits the leaf, one that provably covers it drops out,
    /// and a leaf covered on every dimension aggregates the measure column
    /// straight. The survivors run over 256-row blocks of four 64-row lanes:
    /// each dimension ANDs its range-check bitmask into the lanes, and a
    /// block whose four
    /// lanes reach zero skips its remaining dimensions. Only rows surviving
    /// all dimensions touch the measure column.
    pub fn scan(&self, q: &QueryBox, agg: &mut Aggregate) {
        let n = self.len();
        debug_assert_eq!(q.ranges.len(), self.cols.len());
        if n == 0 {
            return;
        }
        let mut tests: Vec<(&[u64], u64, u64)> = Vec::with_capacity(self.cols.len());
        for (col, &(lo, hi)) in self.cols.iter().zip(q.ranges.iter()) {
            match col.pred(lo, hi) {
                Pred::Never => return,
                Pred::All => {}
                Pred::Test { col, lo, hi } => tests.push((col, lo, hi)),
            }
        }
        if tests.is_empty() {
            for &m in &self.measures {
                agg.add(m);
            }
            return;
        }
        let mut base = 0;
        while base < n {
            let block = (n - base).min(256);
            let nlanes = block.div_ceil(64);
            let mut lanes = [0u64; 4];
            for (l, lane) in lanes.iter_mut().enumerate().take(nlanes) {
                let rows = (block - l * 64).min(64);
                *lane = if rows == 64 { u64::MAX } else { (1u64 << rows) - 1 };
            }
            'dims: for &(col, lo, hi) in &tests {
                let mut any = 0u64;
                for (l, lane) in lanes.iter_mut().enumerate().take(nlanes) {
                    if *lane == 0 {
                        continue;
                    }
                    let lbase = base + l * 64;
                    let rows = (n - lbase).min(64);
                    *lane &= mask64(&col[lbase..lbase + rows], lo, hi);
                    any |= *lane;
                }
                if any == 0 {
                    break 'dims;
                }
            }
            for (l, &lane) in lanes.iter().enumerate().take(nlanes) {
                let mut mask = lane;
                let lbase = base + l * 64;
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    agg.add(self.measures[lbase + i]);
                    mask &= mask - 1;
                }
            }
            base += block;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(coords: &[u64], measure: f64) -> Entry {
        Entry { coords: coords.into(), measure, hkey: None }
    }

    fn brute(rows: &[(&[u64], f64)], q: &QueryBox) -> Aggregate {
        let mut agg = Aggregate::empty();
        for (coords, m) in rows {
            if coords.iter().zip(q.ranges.iter()).all(|(&c, &(lo, hi))| lo <= c && c <= hi) {
                agg.add(*m);
            }
        }
        agg
    }

    fn check_queries(leaf: &LeafColumns, rows: &[(Vec<u64>, f64)], queries: &[Vec<(u64, u64)>]) {
        for ranges in queries {
            let q = QueryBox::from_ranges(ranges.clone());
            let rows_ref: Vec<(&[u64], f64)> =
                rows.iter().map(|(c, m)| (c.as_slice(), *m)).collect();
            let expect = brute(&rows_ref, &q);
            let mut got = Aggregate::empty();
            leaf.scan(&q, &mut got);
            assert_eq!(got.count, expect.count, "ranges {ranges:?}");
            assert_eq!(got.sum, expect.sum);
            assert_eq!(got.min.to_bits(), expect.min.to_bits());
            assert_eq!(got.max.to_bits(), expect.max.to_bits());
        }
    }

    fn lcg_rows(n: u64, dims_mod: [u64; 2]) -> (LeafColumns, Vec<(Vec<u64>, f64)>) {
        let mut leaf = LeafColumns::new(2);
        let mut rows: Vec<(Vec<u64>, f64)> = Vec::new();
        let mut state = 99u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let coords = vec![state % dims_mod[0], (state >> 20) % dims_mod[1]];
            rows.push((coords.clone(), i as f64));
            leaf.push(entry(&coords, i as f64));
        }
        (leaf, rows)
    }

    #[test]
    fn scan_matches_row_filter_across_chunk_boundaries() {
        // 150 rows forces a partial block (two full lanes + a 22-row tail).
        let (leaf, rows) = lcg_rows(150, [32, 32]);
        let queries = vec![
            vec![(0, 31), (0, 31)],
            vec![(5, 12), (0, 31)],
            vec![(0, 31), (30, 31)],
            vec![(8, 8), (8, 8)],
            vec![(31, 31), (0, 0)], // almost certainly empty result
        ];
        check_queries(&leaf, &rows, &queries);
        // 300 rows spans two blocks; dim 1 holds 6 distinct values.
        let (leaf, rows) = lcg_rows(300, [32, 6]);
        let queries = vec![
            vec![(0, 31), (0, 5)],  // All on both dims: the measure column straight
            vec![(0, 31), (2, 4)],  // dim 0 All, dim 1 tested
            vec![(5, 12), (0, 5)],
            vec![(8, 8), (3, 3)],
            vec![(40, 50), (0, 5)], // past dim 0's range: Never
            vec![(0, 0), (5, 5)],   // exact range ends
        ];
        check_queries(&leaf, &rows, &queries);
    }

    /// Every row of `leaf` against boxes drawn at its ranges' edges:
    /// exactly the range (`All`), one past each end (`Never`), touching
    /// either end, and nested strictly inside.
    fn check_at_edges(leaf: &LeafColumns) {
        leaf.check().unwrap();
        let rows: Vec<(Vec<u64>, f64)> =
            (0..leaf.len()).map(|i| (leaf.item(i).coords.to_vec(), leaf.item(i).measure)).collect();
        let dims = leaf.cols.len();
        let (mut mins, mut maxs) = (vec![u64::MAX; dims], vec![0u64; dims]);
        for (c, _) in &rows {
            for d in 0..dims {
                mins[d] = mins[d].min(c[d]);
                maxs[d] = maxs[d].max(c[d]);
            }
        }
        let mut queries = Vec::new();
        for d in 0..dims {
            let (lo, hi) = (mins[d], maxs[d]);
            let edges = [
                (lo, hi),
                (hi.saturating_add(1), hi.saturating_add(9)),
                (0, lo.saturating_sub(1)),
                (hi, hi),
                (lo, lo),
                (lo.saturating_add(1), hi.saturating_sub(1)),
            ];
            for r in edges.into_iter().filter(|&(a, b)| a <= b) {
                let mut q = vec![(0, u64::MAX); dims];
                q[d] = r;
                queries.push(q);
            }
        }
        check_queries(leaf, &rows, &queries);
    }

    fn keyed_entry(coords: &[u64], h: u64) -> Entry {
        Entry { coords: coords.into(), measure: h as f64, hkey: Some(BigIndex::from(h)) }
    }

    #[test]
    fn raw_ranges_follow_every_mutation_path() {
        // from_entries, then a Hilbert insert in the middle.
        let entries = (0..40).map(|h| keyed_entry(&[h % 5, 100 + h], h * 10)).collect();
        let mut leaf = LeafColumns::from_entries(2, entries);
        check_at_edges(&leaf);
        let pos = leaf.hkey_partition_point(&BigIndex::from(155));
        leaf.insert(pos, keyed_entry(&[7, 3], 155));
        check_at_edges(&leaf);
        // A run whose groups splice between existing rows and past the end.
        let items: Vec<Item> = [[9u64, 1], [0, 500], [2, 2], [11, 0]]
            .iter()
            .map(|c| Item::new(c.to_vec(), 1.0))
            .collect();
        let mut keyed: Vec<(BigIndex, u32)> = [5u64, 205, 206, 9_999]
            .iter()
            .enumerate()
            .map(|(i, &h)| (BigIndex::from(h), i as u32))
            .collect();
        leaf.insert_run(&items, &mut keyed);
        check_at_edges(&leaf);
        // Split: each half recomputes its ranges from its own rows.
        let mut half = leaf.clone_range(0..10);
        check_at_edges(&half);
        check_at_edges(&leaf.clone_range(10..leaf.len()));
        // A push past the half's ranges widens them.
        half.push(keyed_entry(&[1_000, 1_000], 99_999));
        check_at_edges(&half);
        // push_row on an empty leaf: the empty range admits the first value.
        let mut fresh = LeafColumns::new(2);
        fresh.push_row(&[u64::MAX, 0], 1.0);
        check_at_edges(&fresh);
    }

    #[test]
    fn roundtrip_entries() {
        let entries: Vec<Entry> =
            (0..10).map(|i| entry(&[i, i * 2, 63 - i], i as f64 * 0.5)).collect();
        let leaf = LeafColumns::from_entries(3, entries.clone());
        assert_eq!(leaf.len(), 10);
        let back = leaf.to_entries();
        for (a, b) in entries.iter().zip(&back) {
            assert_eq!(a.coords, b.coords);
            assert_eq!(a.measure, b.measure);
        }
        assert_eq!(leaf.item(3).coords.as_ref(), &[3, 6, 60]);
    }
}
