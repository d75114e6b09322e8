//! Columnar leaf storage: per-dimension dictionary encodings and the
//! branch-free containment-scan kernel.
//!
//! Leaves keep their items in structure-of-arrays form: one coordinate
//! [`Column`] per dimension plus a parallel measure column. At build and
//! split time each column independently chooses between a raw `Vec<u64>` and
//! a sorted dictionary with bit-packed codes (widths 1/2/4/8/16 so codes
//! never straddle a word); point mutations decay a column back to raw and the
//! next split re-encodes it wholesale, keeping the hot ingest path free of
//! per-insert dictionary maintenance.
//!
//! The containment test against a query box first compiles each dimension's
//! value range into a per-encoding predicate — for dictionary columns a range
//! of *codes* — which also proves emptiness (`Never`) or full coverage
//! (`All`) without touching any row: a raw column from the `[lo, hi]` of its
//! values it carries, a dictionary column from its rank range. Surviving
//! predicates then run dimension-major over 256-row blocks of four 64-row
//! lanes, combining range checks into `u64` bitmasks with no data-dependent
//! branches in the inner loop — the shape LLVM autovectorizes — reading
//! packed words directly so an encoded column moves a fraction of the bytes.
//! A block whose combined mask reaches zero skips its remaining dimensions.

use volap_dims::{Aggregate, Item, QueryBox};
use volap_hilbert::BigIndex;

use crate::tree::Entry;

/// Packed code widths: powers of two, so a code never straddles a `u64`
/// word and a 64-row lane always starts on a word boundary.
const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Hard cardinality cap: beyond this, a column stays raw no matter what the
/// size heuristic says (dictionary binary searches stop paying for
/// themselves long before this).
const MAX_DICT: usize = 1 << 16;

/// Fixed-width bit-packed dictionary codes, little-endian within each word.
#[derive(Clone)]
pub(crate) struct PackedCodes {
    words: Vec<u64>,
    width: usize,
    len: usize,
}

impl PackedCodes {
    fn with_capacity(width: usize, n: usize) -> Self {
        debug_assert!(WIDTHS.contains(&width));
        Self { words: Vec::with_capacity((n * width).div_ceil(64)), width, len: 0 }
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let per = 64 / self.width;
        (self.words[i / per] >> ((i % per) * self.width)) & ((1u64 << self.width) - 1)
    }

    fn push(&mut self, code: u64) {
        debug_assert!(code < (1u64 << self.width));
        let per = 64 / self.width;
        if self.len.is_multiple_of(per) {
            self.words.push(0);
        }
        let last = self.words.last_mut().unwrap();
        *last |= code << ((self.len % per) * self.width);
        self.len += 1;
    }

    /// Containment mask for the 64-row lane starting at row `base` (which
    /// must be a multiple of 64): bit `k` set iff code `base + k` lies in
    /// `[clo, chi]`. Bits at and past `rows` are garbage the caller trims.
    #[inline]
    fn mask64(&self, base: usize, rows: usize, clo: u64, chi: u64) -> u64 {
        debug_assert_eq!(base % 64, 0);
        let start = base * self.width / 64;
        let nw = (rows * self.width).div_ceil(64);
        let ws = &self.words[start..start + nw];
        match self.width {
            1 => mask64_packed::<1>(ws, clo, chi),
            2 => mask64_packed::<2>(ws, clo, chi),
            4 => mask64_packed::<4>(ws, clo, chi),
            8 => mask64_packed::<8>(ws, clo, chi),
            16 => mask64_packed::<16>(ws, clo, chi),
            _ => unreachable!("width is always one of WIDTHS"),
        }
    }
}

/// Range-test up to 64 rows of `W`-bit codes (at most `W` words). The shifts
/// inside a word are independent of each other, so the loop vectorizes; the
/// final shift `wi * per + k` never reaches 64 because a 64-row window spans
/// at most `W` words of `64 / W` codes each.
#[inline]
fn mask64_packed<const W: usize>(words: &[u64], clo: u64, chi: u64) -> u64 {
    let per = 64 / W;
    let cmask: u64 = (1u64 << W) - 1;
    let mut m = 0u64;
    for (wi, &word) in words.iter().enumerate() {
        let mut lane = 0u64;
        for k in 0..per {
            let code = (word >> (k * W)) & cmask;
            lane |= (((code >= clo) as u64) & ((code <= chi) as u64)) << k;
        }
        m |= lane << (wi * per);
    }
    m
}

/// Range-test up to 64 raw coordinates.
#[inline]
fn mask64_raw(col: &[u64], lo: u64, hi: u64) -> u64 {
    let mut m = 0u64;
    for (i, &c) in col.iter().enumerate() {
        m |= (((c >= lo) as u64) & ((c <= hi) as u64)) << i;
    }
    m
}

/// One coordinate column: raw values, or a sorted dictionary of distinct
/// values plus one packed code (the value's rank) per row.
#[derive(Clone)]
pub(crate) enum Column {
    /// Raw values and `[lo, hi]`, their range (`lo > hi` while empty). Every
    /// mutation widens the range over the values it adds (VOLAP never
    /// deletes, so a range never has to shrink); [`Column::pred`] proves
    /// `Never` or `All` from it.
    Raw { vals: Vec<u64>, lo: u64, hi: u64 },
    Dict { dict: Vec<u64>, codes: PackedCodes },
}

/// Widen the range `[lo, hi]` to take in `v`.
#[inline]
fn widen(lo: &mut u64, hi: &mut u64, v: u64) {
    *lo = (*lo).min(v);
    *hi = (*hi).max(v);
}

/// A per-dimension predicate compiled against the column's encoding.
enum Pred<'a> {
    /// Every row matches; the dimension drops out of the scan.
    All,
    /// No row can match; the whole leaf misses.
    Never,
    /// Compare raw coordinates against the value range.
    Raw { col: &'a [u64], lo: u64, hi: u64 },
    /// Compare packed codes against the dictionary-code range.
    Packed { codes: &'a PackedCodes, clo: u64, chi: u64 },
}

impl Column {
    fn new() -> Self {
        Column::raw(Vec::new())
    }

    /// A raw column over `vals`, its range computed from them.
    fn raw(vals: Vec<u64>) -> Self {
        let (mut lo, mut hi) = (u64::MAX, u64::MIN);
        for &v in &vals {
            widen(&mut lo, &mut hi, v);
        }
        Column::Raw { vals, lo, hi }
    }

    fn len(&self) -> usize {
        match self {
            Column::Raw { vals, .. } => vals.len(),
            Column::Dict { codes, .. } => codes.len,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Column::Raw { vals, .. } => vals[i],
            Column::Dict { dict, codes } => dict[codes.get(i) as usize],
        }
    }

    /// Mutable raw view — the values and their range — decoding a
    /// dictionary column first. Point mutations are the hot ingest path;
    /// they pay one O(rows) decode on the first touch of an encoded leaf and
    /// the next split re-encodes wholesale. A caller adding values widens
    /// the range over each.
    fn make_raw(&mut self) -> (&mut Vec<u64>, &mut u64, &mut u64) {
        if let Column::Dict { dict, codes } = self {
            *self = Column::raw((0..codes.len).map(|i| dict[codes.get(i) as usize]).collect());
        }
        match self {
            Column::Raw { vals, lo, hi } => (vals, lo, hi),
            Column::Dict { .. } => unreachable!("decoded above"),
        }
    }

    fn push(&mut self, v: u64) {
        match self {
            Column::Raw { vals, lo, hi } => {
                vals.push(v);
                widen(lo, hi, v);
            }
            Column::Dict { dict, codes } => {
                // Appending a value the dictionary already knows keeps the
                // encoding; anything else decays to raw.
                if let Ok(code) = dict.binary_search(&v) {
                    codes.push(code as u64);
                } else {
                    let (vals, lo, hi) = self.make_raw();
                    vals.push(v);
                    widen(lo, hi, v);
                }
            }
        }
    }

    fn insert(&mut self, pos: usize, v: u64) {
        let (vals, lo, hi) = self.make_raw();
        vals.insert(pos, v);
        widen(lo, hi, v);
    }

    fn splice_at(&mut self, pos: usize, new: impl Iterator<Item = u64>) {
        let (vals, lo, hi) = self.make_raw();
        vals.splice(pos..pos, new.inspect(|&v| widen(lo, hi, v)));
    }

    /// Re-choose this column's encoding from its current values: build the
    /// sorted distinct dictionary, pick the narrowest width that fits, and
    /// keep the encoding only when packed codes plus dictionary take at most
    /// half the raw footprint (and the cardinality is within [`MAX_DICT`]).
    /// Deterministic in the values alone, so a serialized shard re-encodes
    /// identically on the receiving worker.
    fn encode(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let mut dict: Vec<u64> = (0..n).map(|i| self.get(i)).collect();
        dict.sort_unstable();
        dict.dedup();
        let width = WIDTHS.into_iter().find(|&w| dict.len() <= 1usize << w);
        let worth = dict.len() <= MAX_DICT
            && width.is_some_and(|w| (n * w + dict.len() * 64) * 2 <= n * 64);
        if worth {
            let width = width.unwrap();
            let mut codes = PackedCodes::with_capacity(width, n);
            for i in 0..n {
                codes.push(dict.binary_search(&self.get(i)).unwrap() as u64);
            }
            *self = Column::Dict { dict, codes };
        } else if matches!(self, Column::Dict { .. }) {
            // A re-check after a split can decide a small half is no longer
            // worth its dictionary.
            self.make_raw();
        }
    }

    fn clone_range(&self, r: std::ops::Range<usize>) -> Self {
        match self {
            Column::Raw { vals, .. } => Column::raw(vals[r].to_vec()),
            Column::Dict { dict, codes } => {
                // Repack the code subrange against the same dictionary.
                // Entries absent from this half go stale — they cost bytes,
                // never correctness — and the encode pass that follows every
                // split rebuilds a tight dictionary.
                let mut sub = PackedCodes::with_capacity(codes.width, r.len());
                for i in r {
                    sub.push(codes.get(i));
                }
                Column::Dict { dict: dict.clone(), codes: sub }
            }
        }
    }

    /// Compile a value range into an encoding-aware predicate, proving
    /// `Never` (no row matches) before `All` (every row does). A raw column
    /// proves both from its stored range. For a dictionary column the range
    /// check becomes a rank check: `clo` is the rank of the first dict value
    /// `>= lo`, `chi` the rank of the last `<= hi`, and an empty or full rank
    /// range is the proof. A raw range is exact (mutations widen it, decodes
    /// and splits recompute it); a dictionary may hold stale entries after a
    /// split, which only widen the rank range, so that proof stays
    /// conservative and correct.
    ///
    /// The proof uses only state read under the leaf's own lock, never the
    /// parent's slot key: an insert can extend that key and add a row here
    /// between a reader's parent and child visits, and an `All` proven from
    /// the old key would count the new row even where it lies outside `q`.
    fn pred(&self, lo: u64, hi: u64) -> Pred<'_> {
        match self {
            Column::Raw { vals, lo: vlo, hi: vhi } => {
                if *vhi < lo || hi < *vlo {
                    Pred::Never
                } else if lo <= *vlo && *vhi <= hi {
                    Pred::All
                } else {
                    Pred::Raw { col: vals, lo, hi }
                }
            }
            Column::Dict { dict, codes } => {
                let clo = dict.partition_point(|&d| d < lo);
                let chi = dict.partition_point(|&d| d <= hi);
                if clo == chi {
                    Pred::Never
                } else if clo == 0 && chi == dict.len() {
                    Pred::All
                } else {
                    Pred::Packed { codes, clo: clo as u64, chi: (chi - 1) as u64 }
                }
            }
        }
    }
}

/// Encoding footprint of a column set, accumulated over many leaves.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Coordinate columns observed.
    pub columns: u64,
    /// Columns currently dictionary-encoded.
    pub dict_columns: u64,
    /// Total dictionary entries across encoded columns.
    pub dict_entries: u64,
    /// Bytes the coordinate columns would occupy raw (8 per row per dim).
    pub plain_bytes: u64,
    /// Bytes they actually occupy (packed words plus dictionaries for
    /// encoded columns, raw vectors otherwise).
    pub stored_bytes: u64,
}

impl ColumnStats {
    /// Compression ratio `plain / stored` (1.0 when nothing is stored).
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.plain_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Mean stored bits per coordinate value (64.0 when raw everywhere).
    pub fn bits_per_value(&self) -> f64 {
        if self.plain_bytes == 0 {
            64.0
        } else {
            self.stored_bytes as f64 * 8.0 / (self.plain_bytes as f64 / 8.0)
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
    /// `cols[d].get(i)` is the coordinate of row `i` along dimension `d`.
    cols: Vec<Column>,
    /// `measures[i]` is the measure of row `i`.
    measures: Vec<f64>,
    /// Compact Hilbert key per row (`None` under the geometric policy).
    hkeys: Vec<Option<BigIndex>>,
}

impl LeafColumns {
    pub fn new(dims: usize) -> Self {
        Self {
            cols: (0..dims).map(|_| Column::new()).collect(),
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
    /// duplicates each side with a handful of column memcpys (or code
    /// repacks) instead of one interchange [`Entry`] per row.
    pub(crate) fn clone_range(&self, r: std::ops::Range<usize>) -> Self {
        Self {
            cols: self.cols.iter().map(|c| c.clone_range(r.clone())).collect(),
            measures: self.measures[r.clone()].to_vec(),
            hkeys: self.hkeys[r.clone()].to_vec(),
        }
    }

    /// Re-choose every column's encoding from its current values. Called at
    /// build and split time; never on the per-insert path.
    pub fn encode(&mut self) {
        for col in &mut self.cols {
            col.encode();
        }
    }

    /// Check the leaf's invariants: every column holds [`Self::len`] rows,
    /// and every raw column's stored range contains each of its values.
    pub fn check(&self) -> Result<(), String> {
        let n = self.len();
        if self.hkeys.len() != n {
            return Err(format!("{} hkeys for {n} rows", self.hkeys.len()));
        }
        for (d, col) in self.cols.iter().enumerate() {
            if col.len() != n {
                return Err(format!("column {d} holds {} values for {n} rows", col.len()));
            }
            if let Column::Raw { vals, lo, hi } = col {
                if let Some(v) = vals.iter().find(|&&v| v < *lo || v > *hi) {
                    return Err(format!("column {d}: value {v} outside its range [{lo}, {hi}]"));
                }
            }
        }
        Ok(())
    }

    /// Accumulate this leaf's encoding footprint into `out`.
    pub fn column_stats(&self, out: &mut ColumnStats) {
        for col in &self.cols {
            let n = col.len() as u64;
            out.columns += 1;
            out.plain_bytes += 8 * n;
            match col {
                Column::Raw { .. } => out.stored_bytes += 8 * n,
                Column::Dict { dict, codes } => {
                    out.dict_columns += 1;
                    out.dict_entries += dict.len() as u64;
                    out.stored_bytes += 8 * (codes.words.len() as u64 + dict.len() as u64);
                }
            }
        }
    }

    /// Overwrite `item` with row `i` (reusing its coordinate buffer).
    pub(crate) fn read_row_into(&self, i: usize, item: &mut Item) {
        debug_assert_eq!(item.coords.len(), self.cols.len());
        for (slot, col) in item.coords.iter_mut().zip(self.cols.iter()) {
            *slot = col.get(i);
        }
        item.measure = self.measures[i];
    }

    /// Rebuild row `i` as an interchange [`Entry`].
    pub(crate) fn entry(&self, i: usize) -> Entry {
        Entry {
            coords: self.cols.iter().map(|col| col.get(i)).collect(),
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
        Item { coords: self.cols.iter().map(|col| col.get(i)).collect(), measure: self.measures[i] }
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
    /// each dimension ANDs its range-check bitmask into the lanes — reading
    /// packed words directly for encoded columns — and a block whose four
    /// lanes reach zero skips its remaining dimensions. Only rows surviving
    /// all dimensions touch the measure column.
    pub fn scan(&self, q: &QueryBox, agg: &mut Aggregate) {
        let n = self.len();
        debug_assert_eq!(q.ranges.len(), self.cols.len());
        if n == 0 {
            return;
        }
        let mut preds: Vec<Pred<'_>> = Vec::with_capacity(self.cols.len());
        for (col, &(lo, hi)) in self.cols.iter().zip(q.ranges.iter()) {
            match col.pred(lo, hi) {
                Pred::Never => return,
                Pred::All => {}
                p => preds.push(p),
            }
        }
        if preds.is_empty() {
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
            'dims: for p in &preds {
                let mut any = 0u64;
                for (l, lane) in lanes.iter_mut().enumerate().take(nlanes) {
                    if *lane == 0 {
                        continue;
                    }
                    let lbase = base + l * 64;
                    let rows = (n - lbase).min(64);
                    let m = match *p {
                        Pred::Raw { col, lo, hi } => mask64_raw(&col[lbase..lbase + rows], lo, hi),
                        Pred::Packed { codes, clo, chi } => codes.mask64(lbase, rows, clo, chi),
                        Pred::All | Pred::Never => unreachable!("filtered during compilation"),
                    };
                    *lane &= m;
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
    }

    #[test]
    fn encoded_scan_matches_raw_scan() {
        // 300 rows spans multiple blocks; dim 0 packs at width 8 (32
        // distinct values), dim 1 at width 4 (6 distinct).
        let (mut leaf, rows) = lcg_rows(300, [32, 6]);
        let queries = vec![
            vec![(0, 31), (0, 5)],   // all-rows-match on both dims
            vec![(0, 31), (2, 4)],   // dim 0 AllMatch, dim 1 packed
            vec![(5, 12), (0, 5)],
            vec![(8, 8), (3, 3)],
            vec![(40, 50), (0, 5)],  // outside dim 0's domain: Never
            vec![(31, 31), (0, 0)],
            vec![(0, 0), (5, 5)],    // dictionary boundary: exact min/max hits
        ];
        check_queries(&leaf, &rows, &queries);
        leaf.encode();
        let mut st = ColumnStats::default();
        leaf.column_stats(&mut st);
        assert_eq!(st.dict_columns, 2, "both low-cardinality columns encode");
        assert!(st.stored_bytes * 2 <= st.plain_bytes, "heuristic guarantees 2x");
        check_queries(&leaf, &rows, &queries);
    }

    #[test]
    fn mutation_decays_encoding_and_stays_correct() {
        let (mut leaf, mut rows) = lcg_rows(100, [8, 8]);
        leaf.encode();
        // Push a known value: the dictionary absorbs it without decaying.
        leaf.push(entry(&rows[0].0.clone(), 123.0));
        rows.push((rows[0].0.clone(), 123.0));
        let mut st = ColumnStats::default();
        leaf.column_stats(&mut st);
        assert_eq!(st.dict_columns, 2, "known values append to the dictionary");
        // Push a brand-new value: the column decays to raw.
        leaf.push(entry(&[63, 63], 7.0));
        rows.push((vec![63, 63], 7.0));
        st = ColumnStats::default();
        leaf.column_stats(&mut st);
        assert_eq!(st.dict_columns, 0, "unknown values decay the encoding");
        check_queries(&leaf, &rows, &[vec![(0, 63), (0, 63)], vec![(2, 6), (0, 63)]]);
    }

    #[test]
    fn clone_range_preserves_encoding() {
        let (mut leaf, rows) = lcg_rows(128, [4, 4]);
        leaf.encode();
        let half = leaf.clone_range(0..64);
        let mut st = ColumnStats::default();
        half.column_stats(&mut st);
        assert_eq!(st.dict_columns, 2, "split halves keep their packed codes");
        let half_rows: Vec<(Vec<u64>, f64)> = rows[..64].to_vec();
        check_queries(&half, &half_rows, &[vec![(0, 3), (1, 2)], vec![(2, 2), (0, 3)]]);
    }

    #[test]
    fn high_cardinality_stays_raw() {
        let mut leaf = LeafColumns::new(1);
        for i in 0..200u64 {
            // All-distinct values: a dictionary would be as large as the data.
            leaf.push(entry(&[i * 1_000_003], i as f64));
        }
        leaf.encode();
        let mut st = ColumnStats::default();
        leaf.column_stats(&mut st);
        assert_eq!(st.dict_columns, 0);
        assert_eq!(st.plain_bytes, st.stored_bytes);
    }

    /// Every row of `leaf` against boxes drawn at its raw ranges' edges:
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
        // Encode, then split: the low half keeps a stale dictionary on dim 0.
        leaf.encode();
        let mut half = leaf.clone_range(0..10);
        check_at_edges(&half);
        // A value the dictionary does not know decays it to raw.
        half.push(keyed_entry(&[1_000, 1_000], 99_999));
        check_at_edges(&half);
        let mut st = ColumnStats::default();
        half.column_stats(&mut st);
        assert_eq!(st.dict_columns, 0);
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
