//! Per-table statistics: a fold over blocks.
//!
//! A table's blocks are append-only and sealed when full, so its
//! summary is `merge(what the sealed blocks hold, the tail block)`:
//!
//! * `SealedStats` is the fold of the sealed blocks. The write that
//!   fills a block folds that one block in (`SealedStats::seal`, one
//!   `INSERT` in a hundred at ten rows each); clones of the table share
//!   it behind an `Arc` until one of them seals another block, which
//!   copies it first — two forks never share a fold past the blocks
//!   they both hold.
//! * The tail — at most 1023 rows, one short of a block — is folded
//!   lazily, the first time anyone asks for a table *version*'s [`TableStats`]
//!   ([`Table::stats`](crate::Table::stats)), into a cell every clone
//!   holding that version shares. A write leaves the cell to the
//!   snapshots still reading the old rows and starts an empty one; the
//!   sealed fold is untouched, so the next plan reads the tail and
//!   nothing else.
//!
//! Every fact is a function of the rows the table holds, in the order
//! it holds them — never of how they got there: a bulk load, row-by-row
//! inserts and a fork written on both sides summarize equal rows
//! equally, and DELETE / UPDATE re-pack the blocks and fold them afresh.
//! What merges exactly is **exact** at every size: the row count, NULL
//! counts, min / max over non-NULL values, the dictionary codes in use
//! (hence a string column's distinct count and its value set up to
//! [`MAX_VALUE_SET`]) and the Booleans seen. What does not is an
//! **estimate** above one block's worth, defined once for every table:
//!
//! * a numeric column's distinct count is the [`DistinctSketch`] of its
//!   values' `=ⁿ` hashes — exact below [`SKETCH_K`] distinct values, a
//!   KMV estimate above ([`ColumnStats::ndv_exact`] says which) — the
//!   very number [`Table::joint_ndv`](crate::Table::joint_ndv) gives
//!   for that column alone;
//! * an `Int64` column's histogram is built from the equi-depth
//!   histogram of each sealed block (its minimum and
//!   [`HISTOGRAM_BUCKETS`] bounds) plus the tail's values: a table of
//!   at most `BLOCK_ROWS` rows reads the exact equi-depth histogram
//!   of its values; in a larger one each sealed block's count below a
//!   value is known to half a block-bucket, so a bucket's bound sits
//!   within 1/64 of the rows of its rank — far closer unless every
//!   block errs the same way.
//!
//! What a summary may claim about NULLs (after Franconi & Tessaris'
//! null-aware algebra and Libkin's two-valued reading of SQL):
//!
//! * the numeric range and the string value set describe the
//!   **non-NULL** values only;
//! * the NULL count is kept apart, so a column holding any NULL never
//!   proves `IS NOT NULL`;
//! * the distinct count is taken under the paper's `=ⁿ`: every NULL
//!   falls in **one** group, which is what lets the same number bound a
//!   `GROUP BY`'s output and serve as the `1/ndv` equality selectivity.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use gbj_expr::BinaryOp;
use gbj_types::value::canonical_f64_bits;
use gbj_types::{key_hash, stream_hash};

use crate::columnar::{Bitmap, ColumnVector, StringDict};
use crate::table::{Column, BLOCK_ROWS};

/// Selectivity assumed for predicates no summary can analyse.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// Buckets per equi-depth histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// KMV sketch size: exact distinct counts below this, estimated above.
pub const SKETCH_K: usize = 1024;

/// A string column's exact value set is kept while it has at most this
/// many members (the range pass tracks no larger dictionaries).
pub const MAX_VALUE_SET: usize = 16;

/// An equi-depth (equi-height) histogram over one integer column:
/// `buckets` upper bounds chosen so each bucket holds ~the same number
/// of values. Estimates the selectivity of `col < x` and friends by
/// counting full buckets below `x` and linearly interpolating inside
/// the straddling bucket. NULLs are excluded from the buckets (a range
/// predicate is never *true* of NULL) and discount the selectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    min: i64,
    /// Upper bound of each bucket (ascending, last = column max).
    bounds: Vec<i64>,
    non_null: usize,
    total: usize,
}

impl EquiDepthHistogram {
    /// Build from a column's values. Returns `None` when there are no
    /// non-NULL integer values to summarise.
    #[must_use]
    pub fn build(values: &[Option<i64>], buckets: usize) -> Option<EquiDepthHistogram> {
        let mut ints: Vec<i64> = values.iter().filter_map(|v| *v).collect();
        ints.sort_unstable();
        EquiDepthHistogram::from_sorted(&ints, values.len(), buckets)
    }

    /// [`EquiDepthHistogram::build`] over the already-sorted non-NULL
    /// values of a column of `total` rows.
    fn from_sorted(ints: &[i64], total: usize, buckets: usize) -> Option<EquiDepthHistogram> {
        let min = ints.first().copied()?;
        let non_null = ints.len();
        let buckets = buckets.max(1).min(non_null);
        let mut bounds = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            // Rank of this bucket's upper bound (1-based, inclusive).
            let rank = (b * non_null).div_ceil(buckets);
            if let Some(v) = ints.get(rank.saturating_sub(1)) {
                bounds.push(*v);
            }
        }
        Some(EquiDepthHistogram {
            min,
            bounds,
            non_null,
            total,
        })
    }

    /// The histogram of a column of `total` rows whose `non_null`
    /// values, the smallest being `min`, are summarized by `points`:
    /// ascending `(value, weight)` pairs whose weights count *half*
    /// rows and sum to `2 · non_null`. A value the summary holds itself
    /// is one point of weight 2; a run of `w` values of which only the
    /// ends `lo ≤ hi` are known is `w` half rows at `lo` and `w` at
    /// `hi` — so the half rows at or below any `x` count a run that
    /// straddles `x` by half, its least biased reading. A bucket's
    /// upper bound is the first value at which the count reaches the
    /// bucket's rank. With every weight 2 the points are the sorted
    /// values and this is [`EquiDepthHistogram::from_sorted`] exactly.
    fn from_points(
        points: impl Iterator<Item = (i64, u64)>,
        min: i64,
        non_null: usize,
        total: usize,
        buckets: usize,
    ) -> EquiDepthHistogram {
        let buckets = buckets.max(1).min(non_null);
        let ranks = (1..=buckets).map(|b| (b * non_null).div_ceil(buckets));
        let mut ranks = ranks.peekable();
        let mut bounds = Vec::with_capacity(buckets);
        let mut halves = 0usize;
        for (value, weight) in points {
            halves += weight as usize;
            while ranks.next_if(|rank| 2 * rank <= halves).is_some() {
                bounds.push(value);
            }
        }
        EquiDepthHistogram {
            min,
            bounds,
            non_null,
            total,
        }
    }

    /// Estimated fraction of **non-NULL** values `≤ x`.
    #[must_use]
    pub fn fraction_le(&self, x: i64) -> f64 {
        if x < self.min {
            return 0.0;
        }
        let n = self.bounds.len() as f64;
        let mut lower = self.min;
        for (i, &upper) in self.bounds.iter().enumerate() {
            if x >= upper {
                lower = upper;
                continue;
            }
            // x falls inside bucket i: interpolate linearly. The span
            // of an `i64` column can exceed `i64::MAX`, so subtract in
            // `i128`.
            let span = |hi: i64, lo: i64| (i128::from(hi) - i128::from(lo)) as f64;
            let width = span(upper, lower);
            let within = if width <= 0.0 {
                1.0
            } else {
                (span(x, lower) / width).clamp(0.0, 1.0)
            };
            return ((i as f64 + within) / n).clamp(0.0, 1.0);
        }
        1.0
    }

    /// Selectivity of `col op literal` over the whole column (NULLs
    /// count against: they never satisfy a range predicate).
    #[must_use]
    pub fn selectivity(&self, op: BinaryOp, lit: i64) -> f64 {
        let le = self.fraction_le(lit);
        // `fraction_lt` via the predecessor, exact enough for integers;
        // nothing lies below the type minimum.
        let lt = lit
            .checked_sub(1)
            .map_or(0.0, |pred| self.fraction_le(pred));
        let frac = match op {
            BinaryOp::Lt => lt,
            BinaryOp::LtEq => le,
            BinaryOp::Gt => 1.0 - le,
            BinaryOp::GtEq => 1.0 - lt,
            _ => return DEFAULT_SELECTIVITY,
        };
        let null_discount = if self.total == 0 {
            1.0
        } else {
            self.non_null as f64 / self.total as f64
        };
        (frac * null_discount).clamp(0.0, 1.0)
    }
}

/// A KMV (k-minimum-values) distinct-count sketch: keeps the `k`
/// smallest 64-bit hashes seen. Below `k` distinct values the count is
/// exact; above, the k-th smallest hash estimates the density as
/// `(k-1) · 2⁶⁴ / kth_min`. Two sketches merge exactly: the `k`
/// smallest hashes of a union are among the `k` smallest of its parts,
/// so a sketch kept block by block is the sketch of the rows.
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    k: usize,
    /// The smallest hashes seen: ascending, distinct, at most `k`.
    mins: Vec<u64>,
}

impl Default for DistinctSketch {
    /// A sketch of [`SKETCH_K`] minimum values.
    fn default() -> DistinctSketch {
        DistinctSketch::new(SKETCH_K)
    }
}

/// The elements of two ascending slices, ascending.
fn merged<'a, T: PartialOrd>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = &'a T> {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let (from_a, from_b) = (a.get(i), b.get(j));
        let first = match (from_a, from_b) {
            (Some(x), Some(y)) => x <= y,
            (from_a, _) => from_a.is_some(),
        };
        if first {
            i += 1;
            from_a
        } else {
            j += 1;
            from_b
        }
    })
}

impl DistinctSketch {
    /// A sketch keeping the `k` minimum hash values.
    #[must_use]
    pub fn new(k: usize) -> DistinctSketch {
        DistinctSketch {
            k: k.max(2),
            mins: Vec::new(),
        }
    }

    /// Record one (hashable) value: by the fixed-seed fold of its
    /// `Hash` stream, mixed (`gbj_types::stream_hash` — a block's fold
    /// hashes every distinct value it holds, so a multiply per word,
    /// not a SipHash).
    pub fn insert<T: Hash>(&mut self, value: &T) {
        let hash = stream_hash(|h| value.hash(h));
        let kth = self.mins.last().filter(|_| !self.is_exact());
        if kth.is_none_or(|kth| hash < *kth) {
            if let Err(at) = self.mins.binary_search(&hash) {
                self.mins.insert(at, hash);
                self.mins.truncate(self.k);
            }
        }
    }

    /// Record the values hashing to `hashes` (any order; repeats
    /// allowed).
    fn absorb(&mut self, mut hashes: Vec<u64>) {
        if let Some(kth) = self.mins.last().filter(|_| !self.is_exact()) {
            // Nothing at or above the k-th minimum can enter: once a
            // column has shown k values, most of a block stops here.
            hashes.retain(|h| h < kth);
        }
        hashes.sort_unstable();
        self.absorb_ascending(&hashes);
    }

    fn absorb_ascending(&mut self, hashes: &[u64]) {
        if hashes.is_empty() {
            return;
        }
        let mine = std::mem::take(&mut self.mins);
        self.mins.reserve(self.k.min(mine.len() + hashes.len()));
        for hash in merged(&mine, hashes) {
            if self.mins.len() == self.k {
                break;
            }
            if self.mins.last() != Some(hash) {
                self.mins.push(*hash);
            }
        }
    }

    /// Record everything `other` recorded.
    pub fn merge(&mut self, other: &DistinctSketch) {
        self.absorb_ascending(&other.mins);
    }

    /// Whether fewer than `k` distinct values were recorded, so that
    /// [`DistinctSketch::estimate`] is their exact count.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.mins.len() < self.k
    }

    /// Estimated number of distinct values inserted.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        match self.mins.last() {
            Some(&kth) if !self.is_exact() && kth > 0 => {
                (self.k as f64 - 1.0) * (u64::MAX as f64 / kth as f64)
            }
            _ => self.mins.len() as f64,
        }
    }
}

/// What one version of a table knows about one of its columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Rows holding NULL in this column.
    pub nulls: usize,
    /// Distinct values under `=ⁿ`: all NULLs count as **one** value
    /// (floats by numeric value, `-0.0 = 0.0`, NaN self-equal). Exact
    /// for `Utf8` and `Boolean` columns; for numeric ones the rounded
    /// [`DistinctSketch`] estimate, exact while
    /// [`ColumnStats::ndv_exact`].
    pub ndv: usize,
    /// Whether [`ColumnStats::ndv`] is a count and not an estimate: a
    /// numeric column holds fewer than [`SKETCH_K`] distinct values.
    pub ndv_exact: bool,
    /// `(min, max)` over the non-NULL values of a numeric column;
    /// `None` when there are none, or the column is not numeric.
    pub range: Option<(f64, f64)>,
    /// The exact non-NULL value set of a `Utf8` column, while it has at
    /// most [`MAX_VALUE_SET`] members.
    pub values: Option<BTreeSet<String>>,
    /// The [`HISTOGRAM_BUCKETS`]-bucket equi-depth histogram of an
    /// `Int64` column holding at least one non-NULL value: exact up to
    /// one block, merged from block summaries above.
    pub histogram: Option<EquiDepthHistogram>,
}

impl ColumnStats {
    /// Distinct **non-NULL** values: [`ColumnStats::ndv`] without the
    /// NULL group.
    #[must_use]
    pub fn non_null_ndv(&self) -> usize {
        self.ndv.saturating_sub(usize::from(self.nulls > 0))
    }
}

/// The summary of one version of a table's rows: everything the
/// estimator and the clamp read, so neither walks rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Rows in the table.
    pub rows: usize,
    /// One summary per column, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// The non-NULL values of one stored block, in row order.
fn non_null<'a, T: Copy>(values: &'a [T], validity: &'a Bitmap) -> impl Iterator<Item = T> + 'a {
    let cells = values.iter().zip(validity.iter());
    cells.filter_map(|(v, valid)| valid.then_some(*v))
}

/// The wider of two optional `(min, max)` pairs.
fn widest<T: Copy>(
    a: Option<(T, T)>,
    b: Option<(T, T)>,
    min: impl Fn(T, T) -> T,
    max: impl Fn(T, T) -> T,
) -> Option<(T, T)> {
    match (a, b) {
        (Some((lo, hi)), Some((lo2, hi2))) => Some((min(lo, lo2), max(hi, hi2))),
        (one, None) | (None, one) => one,
    }
}

/// The part of a column's summary that merges: what some of its blocks
/// hold. Inserts are coerced to the declared type by `validate_row`, so
/// every block of a column has that type, the fold is typed (no `Value`
/// is built) and only the fields of that type are ever filled.
#[derive(Debug, Clone, Default)]
struct ColumnFold {
    nulls: usize,
    /// `(min, max)` of the `Int64` values.
    ints: Option<(i64, i64)>,
    /// `(min, max)` of the `Float64` values (`f64::min` / `max`: a NaN
    /// never widens it).
    floats: Option<(f64, f64)>,
    /// Which of `false` / `true` occur.
    bools: [bool; 2],
    /// Which dictionary codes are in use, by code. The dictionary may
    /// outlive the rows that used a string (DELETE, UPDATE) and grows
    /// under the fold: codes past the end are not in use.
    codes: Vec<bool>,
    /// The `=ⁿ` hashes of the numeric values, NULL not among them.
    distinct: DistinctSketch,
    /// The `Int64` values as ascending points weighted in half rows
    /// (see [`EquiDepthHistogram::from_points`]): the tail's values at
    /// weight 2, and of a sealed block its equi-depth histogram — the
    /// minimum and the upper bound of each of its
    /// [`HISTOGRAM_BUCKETS`] buckets, every bucket half at the bound
    /// below it and half at its own.
    points: Vec<(i64, u64)>,
}

impl ColumnFold {
    /// Fold block `b` of `column` in. A sealed block leaves at most
    /// [`HISTOGRAM_BUCKETS`] + 1 points behind, the tail all its values.
    fn absorb(&mut self, column: &Column, b: usize, sealed: bool) {
        match column {
            Column::Utf8 { blocks, dict } => {
                if self.codes.len() < dict.len() {
                    self.codes.resize(dict.len(), false);
                }
                for code in blocks.get(b).into_iter().flat_map(|codes| codes.iter()) {
                    match self.codes.get_mut(*code as usize) {
                        Some(used) => *used = true,
                        None => self.nulls += 1,
                    }
                }
            }
            Column::Typed(blocks) => {
                let Some(block) = blocks.get(b) else { return };
                self.nulls += block.len() - block.count_valid();
                match block.as_ref() {
                    ColumnVector::Int { values, validity } => {
                        let mut ints: Vec<i64> = if validity.all_valid() {
                            values.clone()
                        } else {
                            non_null(values, validity).collect()
                        };
                        ints.sort_unstable();
                        self.absorb_sorted_ints(ints, sealed);
                    }
                    ColumnVector::Float { values, validity } => {
                        let mut bits = Vec::with_capacity(values.len());
                        for f in non_null(values, validity) {
                            let (lo, hi) = self.floats.unwrap_or((f, f));
                            self.floats = Some((lo.min(f), hi.max(f)));
                            bits.push(canonical_f64_bits(f));
                        }
                        bits.sort_unstable();
                        bits.dedup();
                        let hash =
                            |b: &u64| stream_hash(|h| key_hash::float(f64::from_bits(*b), h));
                        self.distinct.absorb(bits.iter().map(hash).collect());
                    }
                    ColumnVector::Bool { values, validity } => {
                        for b in non_null(values, validity) {
                            if let Some(seen) = self.bools.get_mut(usize::from(b)) {
                                *seen = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// The `Int64` half of [`ColumnFold::absorb`]: one sort yields the
    /// range, the points and the distinct values at once.
    fn absorb_sorted_ints(&mut self, mut ints: Vec<i64>, sealed: bool) {
        let span = ints.first().copied().zip(ints.last().copied());
        self.ints = widest(self.ints, span, i64::min, i64::max);
        let n = ints.len();
        if sealed {
            // Bucket `b` ends at rank `⌈b·n / buckets⌉`, as in
            // `EquiDepthHistogram::from_sorted`.
            let buckets = HISTOGRAM_BUCKETS.min(n);
            let mut below = (span.map(|(min, _)| min), 0);
            for b in 1..=buckets {
                let rank = (b * n).div_ceil(buckets);
                let width = (rank - below.1) as u64;
                let bound = ints.get(rank - 1).copied();
                let ends = below.0.into_iter().chain(bound);
                self.points.extend(ends.map(|end| (end, width)));
                below = (bound, rank);
            }
        } else {
            self.points.extend(ints.iter().map(|v| (*v, 2)));
        }
        // Ascending runs: the merge passes of a stable sort. Points at
        // one value become one point, so a column of few values keeps
        // few points however many blocks it fills.
        self.points.sort();
        self.points.dedup_by(|next, point| {
            let same = next.0 == point.0;
            point.1 += u64::from(same) * next.1;
            same
        });
        ints.dedup();
        let hash = |i: &i64| stream_hash(|h| key_hash::int(*i, h));
        self.distinct.absorb(ints.iter().map(hash).collect());
    }
}

impl ColumnStats {
    /// The summary of a column of `rows` rows from the fold of its
    /// sealed blocks and the fold of its tail; `dict` is a `Utf8`
    /// column's dictionary as it is now.
    fn finish(
        sealed: &ColumnFold,
        tail: &ColumnFold,
        rows: usize,
        dict: Option<&StringDict>,
    ) -> ColumnStats {
        let nulls = sealed.nulls + tail.nulls;
        // One sketch over every value, the NULL group included: the
        // sketch `Table::joint_ndv` keeps for this column alone.
        let mut distinct = sealed.distinct.clone();
        distinct.merge(&tail.distinct);
        if nulls > 0 {
            distinct.absorb(vec![stream_hash(key_hash::null)]);
        }
        let folds = [sealed, tail];
        let used = |code: &usize| folds.iter().any(|f| f.codes.get(*code) == Some(&true));
        let seen = |b: &usize| folds.iter().any(|f| f.bools.get(*b) == Some(&true));
        let codes = sealed.codes.len().max(tail.codes.len());
        let live = || (0..codes).filter(used);
        let strings = live().count();
        let values = dict.filter(|_| strings <= MAX_VALUE_SET).map(|dict| {
            let strings = live().filter_map(|code| dict.get(u32::try_from(code).ok()?));
            strings.map(str::to_owned).collect()
        });
        let ints = widest(sealed.ints, tail.ints, i64::min, i64::max);
        let floats = widest(sealed.floats, tail.floats, f64::min, f64::max);
        let histogram = ints.map(|(min, _)| {
            let points = merged(&sealed.points, &tail.points).copied();
            EquiDepthHistogram::from_points(points, min, rows - nulls, rows, HISTOGRAM_BUCKETS)
        });
        ColumnStats {
            nulls,
            ndv: distinct.estimate().round() as usize + strings + (0..2).filter(seen).count(),
            ndv_exact: distinct.is_exact(),
            range: ints.map(|(lo, hi)| (lo as f64, hi as f64)).or(floats),
            values,
            histogram,
        }
    }
}

/// The `=ⁿ` hashes of the `rows` rows of block `b` projected onto the
/// columns `ordinals`: what a [`DistinctSketch`] keeps of their
/// `GroupKey`s.
fn joint_hashes(columns: &[Column], ordinals: &[usize], b: usize, rows: usize) -> Vec<u64> {
    let key: Vec<&Column> = ordinals.iter().filter_map(|&c| columns.get(c)).collect();
    let hash = |i| stream_hash(|h| key.iter().for_each(|c| c.hash_cell(b, i, h)));
    (0..rows).map(hash).collect()
}

/// What the sealed blocks of a table hold: one [`ColumnFold`] per
/// column and, for every column list a joint distinct count was asked
/// of, its sketch — each extended by one block when that block seals.
#[derive(Debug, Default)]
pub(crate) struct SealedStats {
    /// Blocks folded in: the table's full blocks.
    blocks: usize,
    columns: Vec<ColumnFold>,
    /// Behind a mutex so that a reader can add the list it asks first;
    /// a sketch, once there, covers exactly `blocks` blocks.
    joint: Mutex<HashMap<Vec<usize>, DistinctSketch>>,
}

impl Clone for SealedStats {
    fn clone(&self) -> SealedStats {
        SealedStats {
            blocks: self.blocks,
            columns: self.columns.clone(),
            joint: Mutex::new(self.joint_sketches().clone()),
        }
    }
}

impl SealedStats {
    /// The fold of no block of a table of `columns` columns.
    pub(crate) fn new(columns: usize) -> SealedStats {
        SealedStats {
            columns: vec![ColumnFold::default(); columns],
            ..SealedStats::default()
        }
    }

    fn joint_sketches(&self) -> std::sync::MutexGuard<'_, HashMap<Vec<usize>, DistinctSketch>> {
        // A poisoned lock only means another asker panicked between
        // whole-entry updates; the map is still valid.
        self.joint.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold in the block that has just filled: the next one of
    /// `columns` after those folded so far.
    pub(crate) fn seal(&mut self, columns: &[Column]) {
        for (fold, column) in self.columns.iter_mut().zip(columns) {
            fold.absorb(column, self.blocks, true);
        }
        let joint = self.joint.get_mut().unwrap_or_else(PoisonError::into_inner);
        for (ordinals, sketch) in joint {
            sketch.absorb(joint_hashes(columns, ordinals, self.blocks, BLOCK_ROWS));
        }
        self.blocks += 1;
    }

    /// The sketch of the sealed blocks' rows projected onto `ordinals`:
    /// built by one pass over those blocks the first time the list is
    /// asked (`read` is told how many rows that reads; a concurrent
    /// asker waits), kept and extended from then on.
    fn joint(
        &self,
        columns: &[Column],
        ordinals: &[usize],
        read: impl FnOnce(usize),
    ) -> DistinctSketch {
        let mut joint = self.joint_sketches();
        if let Some(sketch) = joint.get(ordinals) {
            return sketch.clone();
        }
        read(self.blocks * BLOCK_ROWS);
        let mut sketch = DistinctSketch::default();
        for b in 0..self.blocks {
            sketch.absorb(joint_hashes(columns, ordinals, b, BLOCK_ROWS));
        }
        joint.insert(ordinals.to_vec(), sketch.clone());
        sketch
    }
}

impl TableStats {
    /// The summary of a table of `rows` rows: the fold of its sealed
    /// blocks merged with one pass over its tail block.
    pub(crate) fn merge(sealed: &SealedStats, columns: &[Column], rows: usize) -> TableStats {
        let tail_rows = rows % BLOCK_ROWS;
        let summarize = |(column, sealed): (&Column, &ColumnFold)| {
            let mut tail = ColumnFold::default();
            if tail_rows > 0 {
                tail.absorb(column, sealed_blocks(rows), false);
            }
            ColumnStats::finish(sealed, &tail, rows, column.dict().map(|d| &**d))
        };
        TableStats {
            rows,
            columns: columns.iter().zip(&sealed.columns).map(summarize).collect(),
        }
    }
}

/// How many of the blocks of a table of `rows` rows are sealed — and
/// so the number of its tail block, when it has one.
fn sealed_blocks(rows: usize) -> usize {
    rows / BLOCK_ROWS
}

/// The distinct count of a table's `rows` rows projected onto the
/// columns `ordinals`, under `=ⁿ`, through a [`SKETCH_K`]-minimum-values
/// sketch: exact below [`SKETCH_K`] distinct keys, estimated above.
/// `read` is told the rows of each pass made.
pub(crate) fn joint_ndv(
    sealed: &SealedStats,
    columns: &[Column],
    ordinals: &[usize],
    rows: usize,
    read: impl Fn(usize),
) -> f64 {
    let mut sketch = sealed.joint(columns, ordinals, &read);
    let tail_rows = rows % BLOCK_ROWS;
    read(tail_rows);
    sketch.absorb(joint_hashes(
        columns,
        ordinals,
        sealed_blocks(rows),
        tail_rows,
    ));
    sketch.estimate()
}

/// What a table remembers about one version of its rows, shared (behind
/// an `Arc`) by every clone holding that version: whichever holder asks
/// first builds a fact for all of them, and a second asker waits on the
/// cell instead of folding again.
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    pub(crate) summary: OnceLock<TableStats>,
    /// Joint distinct counts, one cell per column-ordinal list in the
    /// order it was asked with.
    joint: Mutex<HashMap<Vec<usize>, Arc<OnceLock<f64>>>>,
}

impl StatsCell {
    /// An empty cell in `this`, for the version a write is about to
    /// make. O(1), and without allocating while nobody else holds the
    /// cell; a cell shared with snapshots stays theirs.
    pub(crate) fn renew(this: &mut Arc<StatsCell>) {
        match Arc::get_mut(this) {
            Some(cell) => {
                cell.summary.take();
                cell.joint
                    .get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clear();
            }
            None => *this = Arc::default(),
        }
    }

    /// The cell memoizing the joint distinct count over `ordinals`.
    pub(crate) fn joint(&self, ordinals: &[usize]) -> Arc<OnceLock<f64>> {
        // A poisoned lock only means another asker panicked between
        // whole-entry updates; the map is still valid.
        let mut memo = self.joint.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = memo.get(ordinals) {
            return Arc::clone(cell);
        }
        Arc::clone(memo.entry(ordinals.to_vec()).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;
    use gbj_types::{DataType, Field, Schema, Value};

    fn histogram_of(vals: &[i64], buckets: usize) -> EquiDepthHistogram {
        let vals: Vec<Option<i64>> = vals.iter().copied().map(Some).collect();
        EquiDepthHistogram::build(&vals, buckets).unwrap()
    }

    /// `< i64::MIN` has no predecessor to ask about (the saturated one
    /// is `MIN` itself, which holds a third of this column), and the
    /// bucket `(MIN, 0]` is wider than `i64::MAX`.
    #[test]
    fn lt_at_the_type_minimum_selects_nothing() {
        let hist = histogram_of(&[i64::MIN, 0, i64::MAX], HISTOGRAM_BUCKETS);
        assert_eq!(hist.selectivity(BinaryOp::Lt, i64::MIN), 0.0);
        assert_eq!(hist.selectivity(BinaryOp::GtEq, i64::MIN), 1.0);
        assert_eq!(hist.selectivity(BinaryOp::LtEq, i64::MAX), 1.0);
    }

    /// One bucket spanning the whole type: `upper - lower` overflows
    /// `i64`, yet zero sits exactly half way.
    #[test]
    fn bucket_wider_than_i64_interpolates() {
        let hist = histogram_of(&[i64::MIN, i64::MAX], 1);
        assert_eq!(hist.fraction_le(0), 0.5);
        for x in [i64::MIN, -1, 1, i64::MAX] {
            assert!((0.0..=1.0).contains(&hist.fraction_le(x)), "x={x}");
        }
    }

    fn stats_of(data_type: DataType, values: Vec<Value>) -> ColumnStats {
        let mut table = Table::new(Schema::new(vec![Field::new("x", data_type, true)]));
        let rows = values.len();
        for v in values {
            table.push(&[v]).unwrap();
        }
        let stats = table.stats();
        assert_eq!(stats.rows, rows);
        stats.columns[0].clone()
    }

    #[test]
    fn null_counts_as_one_value_and_stays_out_of_the_range() {
        let c = stats_of(
            DataType::Int64,
            vec![Value::Null, Value::Int(7), Value::Null, Value::Int(-2)],
        );
        assert_eq!((c.nulls, c.ndv, c.non_null_ndv()), (2, 3, 2));
        assert_eq!(c.range, Some((-2.0, 7.0)));
        let all_null = stats_of(DataType::Int64, vec![Value::Null, Value::Null]);
        assert_eq!((all_null.nulls, all_null.ndv), (2, 1));
        assert_eq!((all_null.range, all_null.histogram), (None, None));
    }

    /// The one deliberate difference from the `Debug`-string count this
    /// fold replaced: `0.0` and `-0.0` are one value under `=ⁿ` (they
    /// used to print as two), which is still a true distinct-count
    /// bound, one tighter. NaN stays one value, as before.
    #[test]
    fn signed_zeros_are_one_value_under_null_eq() {
        let c = stats_of(
            DataType::Float64,
            [0.0, -0.0, f64::NAN, f64::NAN, 1.5]
                .map(Value::Float)
                .to_vec(),
        );
        assert_eq!((c.ndv, c.non_null_ndv(), c.nulls), (3, 3, 0));
        assert_eq!(c.range, Some((-0.0, 1.5)));
    }

    #[test]
    fn string_value_set_is_kept_up_to_the_cap_only() {
        let strings = |n: usize| (0..n).map(|i| Value::str(format!("s{i:02}"))).collect();
        let at = stats_of(DataType::Utf8, strings(MAX_VALUE_SET));
        assert_eq!(at.values.map(|v| v.len()), Some(MAX_VALUE_SET));
        let over = stats_of(DataType::Utf8, strings(MAX_VALUE_SET + 1));
        assert_eq!((over.ndv, over.values), (MAX_VALUE_SET + 1, None));
    }
}
