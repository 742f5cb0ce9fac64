//! The scan definitions of everything a [`TableStats`] holds, over
//! plain rows — shared by `layout_differential`, `stats_fold` and (by
//! path) the workspace's `tests/estimator_accuracy.rs`.
//!
//! Exact facts — rows, NULL counts, min / max over non-NULL values, a
//! string column's distinct count and value set, Booleans — are
//! computed here by walking the rows, at every size. The two facts that
//! are estimates above one block are checked twice: against their
//! *definition* (the sequential [`DistinctSketch`] of the column's
//! `=ⁿ` keys; the histogram of a storage freshly bulk-loaded with the
//! same rows, which below one block is [`EquiDepthHistogram::build`])
//! for equality, and against the *truth* for accuracy (the scan count
//! exactly below [`SKETCH_K`] and within the KMV error above; every
//! `fraction_le` within one bucket of the true rank, plus 1/64 of the
//! rows past one block).

#![allow(dead_code)]

use std::collections::{BTreeSet, HashSet};

use gbj_catalog::{ColumnDef, TableDef};
use gbj_storage::stats::{HISTOGRAM_BUCKETS, MAX_VALUE_SET, SKETCH_K};
use gbj_storage::{ColumnStats, DistinctSketch, EquiDepthHistogram, Storage, Table, TableStats};
use gbj_types::{DataType, GroupKey, Value};

/// Rows per stored block.
pub const BLOCK: usize = 1024;

/// How far a KMV estimate over [`SKETCH_K`] minima may sit from the
/// count it estimates: its standard error is `1/√(k−2)` ≈ 3.1 %, and
/// the suites' fixed seeds stay inside three of them.
pub const KMV_ERROR: f64 = 0.10;

/// A storage holding `rows` in a constraint-free table `T` of columns
/// `c0, c1, …` typed `types`, bulk-loaded in one statement.
pub fn fresh_load(types: &[DataType], rows: &[impl AsRef<[Value]>]) -> Storage {
    let mut s = Storage::new();
    let columns = types.iter().enumerate();
    let columns = columns.map(|(c, t)| ColumnDef::new(format!("c{c}"), *t));
    s.create_table(TableDef::new("T", columns.collect()))
        .expect("create");
    s.insert_many("T", rows.iter().map(|r| r.as_ref().to_vec()))
        .expect("load");
    s
}

fn cells<'a>(rows: &'a [impl AsRef<[Value]>], c: usize) -> impl Iterator<Item = &'a Value> + 'a {
    rows.iter().map(move |r| &r.as_ref()[c])
}

/// Distinct values of column `c` under `=ⁿ` (every NULL one value), by
/// a hash set of decoded keys.
pub fn distinct(rows: &[impl AsRef<[Value]>], c: usize) -> usize {
    let keys: HashSet<GroupKey> = cells(rows, c).map(|v| GroupKey(vec![v.clone()])).collect();
    keys.len()
}

/// The sequential [`SKETCH_K`]-minimum-values sketch of the rows
/// projected onto `ordinals`: the definition of a joint distinct count,
/// and of a numeric column's.
pub fn joint_ndv(rows: &[impl AsRef<[Value]>], ordinals: &[usize]) -> f64 {
    let mut sketch = DistinctSketch::new(SKETCH_K);
    for row in rows {
        let key = ordinals.iter().map(|&c| row.as_ref()[c].clone());
        sketch.insert(&GroupKey(key.collect()));
    }
    sketch.estimate()
}

fn ints(rows: &[impl AsRef<[Value]>], c: usize) -> Vec<Option<i64>> {
    let int = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        _ => None,
    };
    cells(rows, c).map(int).collect()
}

/// The histogram of `Int64` column `c`: [`EquiDepthHistogram::build`]
/// over the values up to one block; above, the one `fresh` — the
/// summary of a storage freshly loaded with the rows — reads, once
/// [`assert_histogram_ranks`] has held it against the true ranks.
fn histogram_of(
    types: &[DataType],
    rows: &[impl AsRef<[Value]>],
    c: usize,
    fresh: &TableStats,
) -> Option<EquiDepthHistogram> {
    if types[c] != DataType::Int64 {
        return None;
    }
    if rows.len() <= BLOCK {
        return EquiDepthHistogram::build(&ints(rows, c), HISTOGRAM_BUCKETS);
    }
    let hist = fresh.columns[c].histogram.clone();
    if let Some(hist) = &hist {
        assert_histogram_ranks(hist, rows, c, &format!("fresh load, column {c}"));
    }
    hist
}

/// [`histogram_of`], loading the fresh storage itself.
pub fn histogram(
    types: &[DataType],
    rows: &[impl AsRef<[Value]>],
    c: usize,
) -> Option<EquiDepthHistogram> {
    let fresh = fresh_load(types, rows);
    histogram_of(
        types,
        rows,
        c,
        fresh.table_data("T").expect("loaded").stats(),
    )
}

/// Every `fraction_le` of `hist` is within one bucket (and one value:
/// bucket ranks are rounded up) of the true rank of its argument among
/// the non-NULL values of column `c` — asked at every distinct value (a
/// spread of 200 of them when there are more), one below, one above,
/// and both ends of the type. One bucket is what reading inside a
/// bucket costs even an exact histogram (a value at the top of a
/// bucket's interval can sit at the bottom of its ranks); past one
/// block the bounds themselves are placed from block summaries that
/// know each block's count to half a block-bucket, which adds at most
/// 1/64 of the rows.
pub fn assert_histogram_ranks(
    hist: &EquiDepthHistogram,
    rows: &[impl AsRef<[Value]>],
    c: usize,
    ctx: &str,
) {
    let mut sorted: Vec<i64> = ints(rows, c).into_iter().flatten().collect();
    sorted.sort_unstable();
    let mut probes = sorted.clone();
    probes.dedup();
    let step = probes.len().div_ceil(200).max(1);
    let probes = probes.into_iter().step_by(step);
    let around = |x: i64| [x.saturating_sub(1), x, x.saturating_add(1)];
    let n = sorted.len() as f64;
    let bucket = 1.0 / n.min(HISTOGRAM_BUCKETS as f64);
    let placing = if rows.len() > BLOCK { 1.0 / 64.0 } else { 0.0 };
    for x in probes.flat_map(around).chain([i64::MIN, i64::MAX]) {
        let truth = sorted.partition_point(|v| *v <= x) as f64 / n;
        let got = hist.fraction_le(x);
        assert!(
            (got - truth).abs() <= bucket + placing + 1.0 / n + 1e-9,
            "{ctx}: fraction_le({x}) = {got}, true rank {truth} of {} values",
            sorted.len()
        );
    }
}

/// The summary of column `c` by definition (see the module
/// documentation); `fresh` is the summary of a fresh load of the rows.
fn column_stats(
    types: &[DataType],
    rows: &[impl AsRef<[Value]>],
    c: usize,
    fresh: &TableStats,
) -> ColumnStats {
    let numeric = matches!(types[c], DataType::Int64 | DataType::Float64);
    let mut range: Option<(f64, f64)> = None;
    for v in cells(rows, c) {
        let x = match v {
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            _ => continue,
        };
        let (lo, hi) = range.unwrap_or((x, x));
        range = Some((lo.min(x), hi.max(x)));
    }
    let strings: BTreeSet<String> = cells(rows, c)
        .filter_map(|v| match v {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    ColumnStats {
        nulls: cells(rows, c).filter(|v| v.is_null()).count(),
        ndv: if numeric {
            joint_ndv(rows, &[c]).round() as usize
        } else {
            distinct(rows, c)
        },
        ndv_exact: !numeric || distinct(rows, c) < SKETCH_K,
        range,
        values: (types[c] == DataType::Utf8 && strings.len() <= MAX_VALUE_SET).then_some(strings),
        histogram: histogram_of(types, rows, c, fresh),
    }
}

/// `table` summarizes `rows` — which it must hold, in this order — as
/// the definitions say, field for field; its estimates are as close to
/// the truth as promised; and its summary is the one a storage freshly
/// loaded with the same rows builds.
pub fn assert_stats(table: &Table, types: &[DataType], rows: &[impl AsRef<[Value]>], ctx: &str) {
    let stats = table.stats();
    assert_eq!(stats.rows, rows.len(), "{ctx}");
    assert_eq!(stats.columns.len(), types.len(), "{ctx}");
    let fresh = fresh_load(types, rows);
    let fresh: &TableStats = fresh.table_data("T").expect("loaded").stats();
    for (c, got) in stats.columns.iter().enumerate() {
        let ctx = format!("{ctx}: column {c}");
        let want = column_stats(types, rows, c, fresh);
        let range = |s: &ColumnStats| s.range.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        assert_eq!(range(got), range(&want), "{ctx}: range");
        assert_eq!(
            (got.nulls, got.ndv, got.ndv_exact, &got.values),
            (want.nulls, want.ndv, want.ndv_exact, &want.values),
            "{ctx}"
        );
        assert_eq!(got.histogram, want.histogram, "{ctx}");
        // The estimates against the truth.
        let truth = distinct(rows, c);
        if got.ndv_exact {
            assert_eq!(got.ndv, truth, "{ctx}: an exact distinct count");
        } else {
            let off = (got.ndv as f64 - truth as f64).abs() / truth as f64;
            assert!(off <= KMV_ERROR, "{ctx}: ndv {} for {truth}", got.ndv);
        }
        if let Some(hist) = &got.histogram {
            assert_histogram_ranks(hist, rows, c, &ctx);
        }
    }
    assert_eq!(stats, fresh, "{ctx}: a fresh load of the same rows");
}

/// `table`'s joint distinct count over `ordinals` is the sequential
/// sketch's, and the scan count while that is exact.
pub fn assert_joint_ndv(
    table: &Table,
    rows: &[impl AsRef<[Value]>],
    ordinals: &[usize],
    ctx: &str,
) {
    let got = table.joint_ndv(ordinals);
    assert_eq!(got, joint_ndv(rows, ordinals), "{ctx}: {ordinals:?}");
    let key = |r: &_| {
        GroupKey(
            ordinals
                .iter()
                .map(|&c| AsRef::<[Value]>::as_ref(r)[c].clone())
                .collect(),
        )
    };
    let truth = rows.iter().map(key).collect::<HashSet<GroupKey>>().len() as f64;
    if truth < SKETCH_K as f64 {
        assert_eq!(got, truth, "{ctx}: {ordinals:?} below the sketch size");
    } else {
        assert!(
            (got - truth).abs() / truth <= KMV_ERROR,
            "{ctx}: {got} for {truth}"
        );
    }
}
