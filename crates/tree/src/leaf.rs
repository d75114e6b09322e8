//! Columnar leaf storage and the branch-free containment-scan kernel.
//!
//! Leaves keep their items in structure-of-arrays form: one coordinate
//! `Column` per dimension plus a parallel measure column. A column is its
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
            Pred::Test {
                col: &self.vals,
                lo,
                hi,
            }
        }
    }
}

/// Rows of a leaf node in column-major layout.
///
/// Invariant: every column holds [`Self::len`] rows, and `hkeys` holds
/// `limbs` words per row. Under a Hilbert insert policy `limbs` is the
/// tree's key width and rows are kept sorted by key; under the geometric
/// policy `limbs` is 0 and no key is stored.
///
/// Columns are built at their exact size and a column that must grow goes
/// straight to `cap` rows (the tree's `leaf_cap`, which no leaf exceeds),
/// never doubling past it.
#[derive(Clone)]
pub struct LeafColumns {
    /// `cols[d].vals[i]` is the coordinate of row `i` along dimension `d`.
    cols: Vec<Column>,
    /// `measures[i]` is the measure of row `i`.
    measures: Vec<f64>,
    /// Compact Hilbert key of row `i` at `hkeys[i * limbs..(i + 1) * limbs]`.
    hkeys: Vec<u64>,
    /// Words per key.
    limbs: usize,
    /// Rows a growing column makes room for at once.
    cap: usize,
}

impl LeafColumns {
    /// An empty leaf of `dims` columns and `limbs`-word keys that grows
    /// straight to `cap` rows.
    pub fn new(dims: usize, limbs: usize, cap: usize) -> Self {
        Self::with_capacity(dims, limbs, cap, 0)
    }

    /// [`Self::new`] with room for exactly `rows` rows.
    pub fn with_capacity(dims: usize, limbs: usize, cap: usize, rows: usize) -> Self {
        Self {
            cols: (0..dims)
                .map(|_| Column::new(Vec::with_capacity(rows)))
                .collect(),
            measures: Vec::with_capacity(rows),
            hkeys: Vec::with_capacity(rows * limbs),
            limbs,
            cap,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Make room for `extra` more rows: straight to `cap` rows while that
    /// suffices, by doubling past it.
    fn reserve(&mut self, extra: usize) {
        let (len, need) = (self.len(), self.len() + extra);
        if need <= self.measures.capacity() {
            return;
        }
        let more = if need <= self.cap {
            self.cap
        } else {
            need.max(2 * len)
        } - len;
        for col in &mut self.cols {
            col.vals.reserve_exact(more);
        }
        self.measures.reserve_exact(more);
        self.hkeys.reserve_exact(more * self.limbs);
    }

    /// Append a row; `hkey` has `limbs` words.
    pub fn push_row(&mut self, coords: &[u64], measure: f64, hkey: &[u64]) {
        debug_assert_eq!(coords.len(), self.cols.len());
        debug_assert_eq!(hkey.len(), self.limbs);
        self.reserve(1);
        for (col, &c) in self.cols.iter_mut().zip(coords) {
            col.push(c);
        }
        self.measures.push(measure);
        self.hkeys.extend_from_slice(hkey);
    }

    /// Append row `i` of `src`, with its key.
    pub(crate) fn push_from(&mut self, src: &Self, i: usize) {
        debug_assert_eq!(src.limbs, self.limbs);
        self.reserve(1);
        for (col, from) in self.cols.iter_mut().zip(&src.cols) {
            col.push(from.vals[i]);
        }
        self.measures.push(src.measures[i]);
        self.hkeys.extend_from_slice(src.hkey(i));
    }

    /// Insert a row at `pos`, shifting later rows (leaves are small, so the
    /// per-column shift is cheap and keeps Hilbert order intact).
    pub(crate) fn insert(&mut self, pos: usize, item: &Item, hkey: &[u64]) {
        debug_assert_eq!(item.coords.len(), self.cols.len());
        debug_assert_eq!(hkey.len(), self.limbs);
        self.reserve(1);
        for (col, &c) in self.cols.iter_mut().zip(item.coords.iter()) {
            col.insert(pos, c);
        }
        self.measures.insert(pos, item.measure);
        self.key_gap(pos, 1).copy_from_slice(hkey);
    }

    /// Open room for `rows` keys before row `pos` and return it.
    fn key_gap(&mut self, pos: usize, rows: usize) -> &mut [u64] {
        let (l, old) = (self.limbs, self.hkeys.len());
        self.hkeys.resize(old + rows * l, 0);
        self.hkeys.copy_within(pos * l..old, (pos + rows) * l);
        &mut self.hkeys[pos * l..(pos + rows) * l]
    }

    /// The key of row `i` (empty under the geometric policy).
    #[inline]
    pub fn hkey(&self, i: usize) -> &[u64] {
        &self.hkeys[i * self.limbs..(i + 1) * self.limbs]
    }

    /// First row at or after `from` whose key is strictly greater than `h`
    /// (the Hilbert insert position; the end under the geometric policy,
    /// where every key is empty).
    pub(crate) fn hkey_partition_point(&self, from: usize, h: &[u64]) -> usize {
        let (mut lo, mut hi) = (from, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.hkey(mid) <= h {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Insert a run of items pre-sorted by Hilbert key, equivalent to
    /// inserting them one by one: `run` lists indices into `items`, and the
    /// key of item `r` is `keys[r * limbs..(r + 1) * limbs]`. The search for
    /// each insert position resumes after the previous one, and keys falling
    /// between the same pair of existing rows are spliced into each column
    /// in one contiguous group instead of one element-shifting insert per
    /// row.
    ///
    /// Only meaningful under a Hilbert policy.
    pub(crate) fn insert_run(&mut self, items: &[Item], keys: &[u64], run: &[u32]) {
        let l = self.limbs;
        debug_assert!(l > 0, "run insert into a keyless leaf");
        let key = |r: u32| &keys[r as usize * l..(r as usize + 1) * l];
        debug_assert!(
            run.windows(2).all(|w| key(w[0]) <= key(w[1])),
            "run must be sorted"
        );
        self.reserve(run.len());
        let mut pos = 0;
        let mut i = 0;
        while i < run.len() {
            pos = self.hkey_partition_point(pos, key(run[i]));
            // Everything strictly below the existing row at `pos` lands in
            // this same gap (appending at the end takes the whole tail).
            let group_end = if pos == self.len() {
                run.len()
            } else {
                let ex = self.hkey(pos);
                i + 1 + run[i + 1..].partition_point(|&r| key(r) < ex)
            };
            let group = &run[i..group_end];
            for (d, col) in self.cols.iter_mut().enumerate() {
                col.splice_at(pos, group.iter().map(|&r| items[r as usize].coords[d]));
            }
            self.measures
                .splice(pos..pos, group.iter().map(|&r| items[r as usize].measure));
            let gap = self.key_gap(pos, group.len());
            for (dst, &r) in gap.chunks_exact_mut(l).zip(group) {
                dst.copy_from_slice(key(r));
            }
            pos += group.len();
            i = group_end;
        }
    }

    /// Copy rows `r` into a fresh column set — the Hilbert split path, which
    /// duplicates each side with a handful of column memcpys.
    pub fn clone_range(&self, r: std::ops::Range<usize>) -> Self {
        Self {
            cols: self
                .cols
                .iter()
                .map(|c| Column::new(c.vals[r.clone()].to_vec()))
                .collect(),
            measures: self.measures[r.clone()].to_vec(),
            hkeys: self.hkeys[r.start * self.limbs..r.end * self.limbs].to_vec(),
            limbs: self.limbs,
            cap: self.cap,
        }
    }

    /// Copy the listed rows, in that order, into a fresh column set — the
    /// geometric split path.
    pub(crate) fn gather(&self, rows: &[u32]) -> Self {
        let mut out = Self::with_capacity(self.cols.len(), self.limbs, self.cap, rows.len());
        for &i in rows {
            out.push_from(self, i as usize);
        }
        out
    }

    /// These rows sorted by their coordinates, compared dimension by
    /// dimension, ties in row order: the order a geometric tree packs.
    pub(crate) fn sorted_by_coords(&self) -> Self {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.cols
                .iter()
                .map(|c| c.vals[a].cmp(&c.vals[b]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.gather(&order)
    }

    /// The coordinates of every row along dimension `d`.
    pub(crate) fn column(&self, d: usize) -> &[u64] {
        &self.cols[d].vals
    }

    /// Check the leaf's invariants: every column holds [`Self::len`] rows,
    /// the keys `limbs` words per row, and every column's stored range
    /// contains each of its values.
    pub fn check(&self) -> Result<(), String> {
        let n = self.len();
        if self.hkeys.len() != n * self.limbs {
            return Err(format!(
                "{} key words for {n} rows of {} words",
                self.hkeys.len(),
                self.limbs
            ));
        }
        for (d, Column { vals, lo, hi }) in self.cols.iter().enumerate() {
            if vals.len() != n {
                return Err(format!(
                    "column {d} holds {} values for {n} rows",
                    vals.len()
                ));
            }
            if let Some(v) = vals.iter().find(|&&v| v < *lo || v > *hi) {
                return Err(format!(
                    "column {d}: value {v} outside its range [{lo}, {hi}]"
                ));
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

    /// Row `i` as an [`Item`].
    pub fn item(&self, i: usize) -> Item {
        Item {
            coords: self.cols.iter().map(|col| col.vals[i]).collect(),
            measure: self.measures[i],
        }
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
                *lane = if rows == 64 {
                    u64::MAX
                } else {
                    (1u64 << rows) - 1
                };
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

    fn brute(rows: &[(&[u64], f64)], q: &QueryBox) -> Aggregate {
        let mut agg = Aggregate::empty();
        for (coords, m) in rows {
            if coords
                .iter()
                .zip(q.ranges.iter())
                .all(|(&c, &(lo, hi))| lo <= c && c <= hi)
            {
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
        let mut leaf = LeafColumns::new(2, 0, 64);
        let mut rows: Vec<(Vec<u64>, f64)> = Vec::new();
        let mut state = 99u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let coords = vec![state % dims_mod[0], (state >> 20) % dims_mod[1]];
            rows.push((coords.clone(), i as f64));
            leaf.push_row(&coords, i as f64, &[]);
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
            vec![(0, 31), (0, 5)], // All on both dims: the measure column straight
            vec![(0, 31), (2, 4)], // dim 0 All, dim 1 tested
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
        let rows: Vec<(Vec<u64>, f64)> = (0..leaf.len())
            .map(|i| (leaf.item(i).coords.to_vec(), leaf.item(i).measure))
            .collect();
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

    /// A one-word-key leaf of `n` rows from `row(h)`, keyed `h * 10`.
    fn keyed_leaf(n: u64, cap: usize, row: impl Fn(u64) -> [u64; 2]) -> LeafColumns {
        let mut leaf = LeafColumns::with_capacity(2, 1, cap, n as usize);
        for h in 0..n {
            leaf.push_row(&row(h), h as f64, &[h * 10]);
        }
        leaf
    }

    #[test]
    fn raw_ranges_follow_every_mutation_path() {
        // A packed leaf, then a Hilbert insert in the middle.
        let mut leaf = keyed_leaf(40, 64, |h| [h % 5, 100 + h]);
        check_at_edges(&leaf);
        let pos = leaf.hkey_partition_point(0, &[155]);
        assert_eq!(pos, 16);
        leaf.insert(pos, &Item::new(vec![7, 3], 155.0), &[155]);
        check_at_edges(&leaf);
        // A run whose groups splice between existing rows and past the end.
        let items: Vec<Item> = [[9u64, 1], [0, 500], [2, 2], [11, 0]]
            .iter()
            .map(|c| Item::new(c.to_vec(), 1.0))
            .collect();
        leaf.insert_run(&items, &[5, 205, 206, 9_999], &[0, 1, 2, 3]);
        check_at_edges(&leaf);
        let keys: Vec<u64> = (0..leaf.len()).map(|i| leaf.hkey(i)[0]).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{keys:?}");
        assert_eq!(keys.len(), 45);
        // Split: each half recomputes its ranges from its own rows.
        let mut half = leaf.clone_range(0..10);
        check_at_edges(&half);
        check_at_edges(&leaf.clone_range(10..leaf.len()));
        // A push past the half's ranges widens them.
        half.push_row(&[1_000, 1_000], 1.0, &[99_999]);
        check_at_edges(&half);
        // push_row on an empty leaf: the empty range admits the first value.
        let mut fresh = LeafColumns::new(2, 0, 64);
        fresh.push_row(&[u64::MAX, 0], 1.0, &[]);
        check_at_edges(&fresh);
    }

    #[test]
    fn roundtrip_entries() {
        let mut leaf = LeafColumns::new(3, 0, 64);
        let rows: Vec<Item> = (0..10)
            .map(|i| Item::new(vec![i, i * 2, 63 - i], i as f64 * 0.5))
            .collect();
        for it in &rows {
            leaf.push_row(&it.coords, it.measure, &[]);
        }
        assert_eq!(leaf.len(), 10);
        let mut back = Vec::new();
        leaf.append_items(&mut back);
        assert_eq!(back, rows);
        let order = [9, 0, 4];
        let picked = leaf.gather(&order);
        picked.check().unwrap();
        for (i, &r) in order.iter().enumerate() {
            assert_eq!(picked.item(i), rows[r as usize]);
        }
        assert_eq!(leaf.item(3).coords.as_ref(), &[3, 6, 60]);
    }

    /// Every column's capacity, in rows.
    fn capacities(leaf: &LeafColumns) -> Vec<usize> {
        let mut caps: Vec<usize> = leaf.cols.iter().map(|c| c.vals.capacity()).collect();
        caps.push(leaf.measures.capacity());
        caps.push(leaf.hkeys.capacity() / leaf.limbs);
        caps
    }

    /// A packed leaf is built at its exact size and, filled by inserts and
    /// runs, grows straight to `leaf_cap` rows: no column outgrows it.
    #[test]
    fn packed_leaf_columns_never_outgrow_leaf_cap() {
        let cap = 64;
        let mut leaf = keyed_leaf(48, cap, |h| [h % 7, h]);
        assert_eq!(capacities(&leaf), vec![48; 4]);
        leaf.insert(3, &Item::new(vec![1, 1], 1.0), &[25]);
        assert_eq!(capacities(&leaf), vec![cap; 4]);
        let items: Vec<Item> = (0..14).map(|i| Item::new(vec![i, i], 1.0)).collect();
        let keys: Vec<u64> = (0..14).map(|i| i * 37).collect();
        let run: Vec<u32> = (0..14).collect();
        leaf.insert_run(&items, &keys, &run);
        while leaf.len() < cap {
            leaf.insert(leaf.len(), &Item::new(vec![2, 2], 1.0), &[u64::MAX]);
        }
        leaf.check().unwrap();
        assert_eq!(capacities(&leaf), vec![cap; 4]);
        // A split half is exact too, and grows straight back to the cap.
        let mut half = leaf.clone_range(0..32);
        assert_eq!(capacities(&half), vec![32; 4]);
        half.push_row(&[0, 0], 0.0, &[u64::MAX]);
        assert_eq!(capacities(&half), vec![cap; 4]);
    }
}
