//! Per-table statistics: one [`TableStats`] per table *version*.
//!
//! A [`Table`](crate::Table) builds its summary lazily, in one typed
//! pass over each stored column, the first time anyone asks
//! ([`Table::stats`](crate::Table::stats)), and keeps it behind a cell
//! that every clone of the table shares — so a snapshot, a fork and the
//! authoritative database pay for one fold between them, and the two
//! places the rows change (`push`, `replace_rows`) drop it in O(1).
//! Only summaries are retained, never the per-value sets the fold
//! used to count them.
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
//!
//! Every fact is exact for the rows of its version — the KMV sketch
//! behind a multi-column distinct count above [`SKETCH_K`] keys is the
//! one estimate.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use gbj_expr::BinaryOp;
use gbj_types::value::canonical_f64_bits;
use gbj_types::{GroupKey, Value};

use crate::columnar::{Bitmap, ColumnVector};
use crate::table::Column;

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
/// `(k-1) · 2⁶⁴ / kth_min`.
#[derive(Debug, Clone, Default)]
pub struct DistinctSketch {
    k: usize,
    mins: BTreeSet<u64>,
}

impl DistinctSketch {
    /// A sketch keeping the `k` minimum hash values.
    #[must_use]
    pub fn new(k: usize) -> DistinctSketch {
        DistinctSketch {
            k: k.max(2),
            mins: BTreeSet::new(),
        }
    }

    /// Record one (hashable) value.
    pub fn insert<T: Hash>(&mut self, value: &T) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        let hv = h.finish();
        if self.mins.len() < self.k {
            self.mins.insert(hv);
        } else if let Some(&max) = self.mins.iter().next_back() {
            if hv < max && self.mins.insert(hv) {
                self.mins.remove(&max);
            }
        }
    }

    /// Estimated number of distinct values inserted.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        match self.mins.iter().next_back() {
            Some(&kth) if kth > 0 => (self.k as f64 - 1.0) * (u64::MAX as f64 / kth as f64),
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
    /// (floats by numeric value, `-0.0 = 0.0`, NaN self-equal).
    pub ndv: usize,
    /// `(min, max)` over the non-NULL values of a numeric column;
    /// `None` when there are none, or the column is not numeric.
    pub range: Option<(f64, f64)>,
    /// The exact non-NULL value set of a `Utf8` column, while it has at
    /// most [`MAX_VALUE_SET`] members.
    pub values: Option<BTreeSet<String>>,
    /// The [`HISTOGRAM_BUCKETS`]-bucket equi-depth histogram of an
    /// `Int64` column holding at least one non-NULL value.
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

impl ColumnStats {
    /// Fold one stored column of `rows` rows. Inserts are coerced to
    /// the declared type by `validate_row`, so every block of a column
    /// has that type and the fold is typed: no `Value` is built.
    fn fold(column: &Column, rows: usize) -> ColumnStats {
        let mut stats = ColumnStats {
            nulls: 0,
            ndv: 0,
            range: None,
            values: None,
            histogram: None,
        };
        match column {
            // The dictionary may outlive the rows that used a string
            // (DELETE, UPDATE): count the codes in use, not its length.
            Column::Utf8 { blocks, dict } => {
                let mut used = vec![false; dict.len()];
                for code in blocks.iter().flat_map(|codes| codes.iter()) {
                    match used.get_mut(*code as usize) {
                        Some(slot) => *slot = true,
                        None => stats.nulls += 1,
                    }
                }
                let live = || (0u32..).zip(&used).filter(|(_, used)| **used);
                stats.ndv = live().count();
                if stats.ndv <= MAX_VALUE_SET {
                    let strings = live().filter_map(|(code, _)| dict.get(code));
                    stats.values = Some(strings.map(str::to_owned).collect());
                }
            }
            Column::Typed(blocks) => {
                // Every non-NULL integer; sorted afterwards, which
                // yields the distinct count, the range and the
                // histogram at once.
                let mut ints: Vec<i64> = Vec::new();
                let mut float_bits: HashSet<u64> = HashSet::new();
                let mut bools = [false; 2];
                for block in blocks {
                    stats.nulls += block.len() - block.count_valid();
                    match block.as_ref() {
                        ColumnVector::Int { values, validity } if validity.all_valid() => {
                            ints.extend_from_slice(values);
                        }
                        ColumnVector::Int { values, validity } => {
                            ints.extend(non_null(values, validity));
                        }
                        ColumnVector::Float { values, validity } => {
                            for f in non_null(values, validity) {
                                float_bits.insert(canonical_f64_bits(f));
                                let (lo, hi) = stats.range.unwrap_or((f, f));
                                stats.range = Some((lo.min(f), hi.max(f)));
                            }
                        }
                        ColumnVector::Bool { values, validity } => {
                            for b in non_null(values, validity) {
                                if let Some(seen) = bools.get_mut(usize::from(b)) {
                                    *seen = true;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                ints.sort_unstable();
                stats.histogram = EquiDepthHistogram::from_sorted(&ints, rows, HISTOGRAM_BUCKETS);
                if let Some((lo, hi)) = ints.first().zip(ints.last()) {
                    stats.range = Some((*lo as f64, *hi as f64));
                }
                ints.dedup();
                stats.ndv = ints.len() + float_bits.len() + bools.iter().filter(|b| **b).count();
            }
        }
        stats.ndv += usize::from(stats.nulls > 0);
        stats
    }
}

impl TableStats {
    /// Fold the stored `columns` of a table of `rows` rows into their
    /// summary: one pass per column.
    pub(crate) fn build(rows: usize, columns: &[Column]) -> TableStats {
        TableStats {
            rows,
            columns: columns.iter().map(|c| ColumnStats::fold(c, rows)).collect(),
        }
    }
}

/// The distinct count of `keys` — the rows' projection onto some
/// columns — under `=ⁿ`, through a [`SKETCH_K`]-minimum-values sketch:
/// exact below [`SKETCH_K`] distinct keys, estimated above.
pub(crate) fn joint_ndv(keys: impl Iterator<Item = Vec<Value>>) -> f64 {
    let mut sketch = DistinctSketch::new(SKETCH_K);
    for key in keys {
        sketch.insert(&GroupKey(key));
    }
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
    /// Forget everything (the holder is the only one left and its rows
    /// are about to change). Frees what was built; touches nothing
    /// otherwise.
    pub(crate) fn clear(&mut self) {
        self.summary.take();
        self.joint
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
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
    use gbj_types::{DataType, Field, Schema};

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
