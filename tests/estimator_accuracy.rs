//! Estimator-accuracy suite: Q-error bounds for the System-R style
//! cardinality estimator over seeded datagen instances.
//!
//! Every query runs through [`Database::last_query_metrics`], which
//! zips the estimator's per-node predictions onto the measured profile
//! (`audit_nodes`). The assertions bound the **max** and **median**
//! per-node Q-error — `max(est, actual) / min(est, actual)`, ≥ 1 —
//! rather than pinning exact estimates, so legitimate estimator
//! refinements don't churn this file. The bounds are tight where the
//! model is exact (scans, uniform keys) and explicitly loose where its
//! independence/uniformity assumptions are violated on purpose (fan-in
//! mismatch, selective joins).
//!
//! For the per-node estimate-vs-actual table behind a bound, run the
//! query under `EXPLAIN ANALYZE` or read `\metrics` in the REPL.

use gbj::datagen::{EmpDeptConfig, SweepConfig};
use gbj::engine::{max_q, median_q, NodeAudit, PushdownPolicy};
use gbj::Database;

mod common;

/// The scan definitions of every summary fact, shared with the storage
/// crate's own suites.
#[path = "../crates/storage/tests/stats_oracle/mod.rs"]
mod stats_oracle;

/// Run `sql` on `db` under `policy` and return the per-node audit.
fn audits_for(db: &mut Database, sql: &str, policy: PushdownPolicy) -> Vec<NodeAudit> {
    db.options_mut().policy = policy;
    db.query(sql).expect("query runs");
    db.last_query_metrics().expect("metrics recorded").audits()
}

/// Scans have exact table cardinalities in the catalog, so their
/// estimates must be perfect on every workload and policy.
#[test]
fn scan_estimates_are_exact() {
    let cfg = SweepConfig::default();
    let mut db = cfg.build().expect("build");
    for policy in [
        PushdownPolicy::Never,
        PushdownPolicy::Always,
        PushdownPolicy::CostBased,
    ] {
        for a in audits_for(&mut db, cfg.query(), policy) {
            if a.operator == "Scan" {
                assert_eq!(a.q_error, 1.0, "{policy:?}: scan {} must be exact", a.label);
            }
        }
    }
}

/// Join fan-in sweep (`fact_rows / groups`). The lazy plan groups on
/// `D.DimId` *after* the join, so the estimator's NDV-based group count
/// (the 1000 dimension keys) overshoots by exactly the unused-key
/// factor `dim_rows / groups`; everything else is exact. The eager
/// plan groups on `F.DimId`, whose NDV matches, and stays perfect.
#[test]
fn join_fan_in_q_error_is_bounded_by_the_unused_key_factor() {
    for groups in [10usize, 100, 1000] {
        let cfg = SweepConfig {
            fact_rows: 10_000,
            dim_rows: 1000,
            groups,
            match_fraction: 1.0,
            skew: 0.0,
        };
        let mut db = cfg.build().expect("build");

        let lazy = audits_for(&mut db, cfg.query(), PushdownPolicy::Never);
        let bound = (1000.0 / groups as f64).max(1.0) * 1.01;
        assert!(
            max_q(&lazy) <= bound,
            "groups={groups}: lazy max q {} exceeds {bound}",
            max_q(&lazy)
        );
        assert!(
            median_q(&lazy) <= 1.01,
            "groups={groups}: most lazy nodes must stay exact, median {}",
            median_q(&lazy)
        );

        let eager = audits_for(&mut db, cfg.query(), PushdownPolicy::CostBased);
        assert!(
            max_q(&eager) <= 1.01,
            "groups={groups}: eager plan should estimate exactly, max q {}",
            max_q(&eager)
        );
    }
}

/// Selectivity sweep: only `match_fraction` of fact keys exist in
/// `Dim`, but the estimator's `1 / max(ndv)` equi-join rule assumes
/// full containment — so the join (and the nodes above it) are over-
/// estimated by exactly `1 / match_fraction`, and no more.
#[test]
fn join_selectivity_q_error_is_bounded_by_the_match_fraction() {
    for match_fraction in [0.01f64, 0.1, 0.5, 1.0] {
        let cfg = SweepConfig {
            fact_rows: 10_000,
            dim_rows: 100,
            groups: 100,
            match_fraction,
            skew: 0.0,
        };
        let mut db = cfg.build().expect("build");
        let audits = audits_for(&mut db, cfg.query(), PushdownPolicy::Never);
        let bound = (1.0 / match_fraction) * 1.01;
        assert!(
            max_q(&audits) <= bound,
            "match={match_fraction}: max q {} exceeds {bound}",
            max_q(&audits)
        );
        assert!(
            median_q(&audits) <= 1.01,
            "match={match_fraction}: median q {} drifted",
            median_q(&audits)
        );
        let join = audits
            .iter()
            .find(|a| a.operator.contains("Join"))
            .expect("join node in audit");
        assert!(
            join.q_error <= bound,
            "match={match_fraction}: join q {} exceeds {bound}",
            join.q_error
        );
    }
}

/// Zipf-skewed key frequencies don't move *cardinality* estimates: the
/// distinct-key count is unchanged, so estimates stay exact even though
/// per-group row counts vary wildly.
#[test]
fn key_skew_does_not_degrade_cardinality_estimates() {
    for skew in [0.0f64, 1.5] {
        let cfg = SweepConfig {
            fact_rows: 10_000,
            dim_rows: 100,
            groups: 100,
            match_fraction: 1.0,
            skew,
        };
        let mut db = cfg.build().expect("build");
        let audits = audits_for(&mut db, cfg.query(), PushdownPolicy::Never);
        assert!(
            max_q(&audits) <= 1.01,
            "skew={skew}: max q {} should be exact",
            max_q(&audits)
        );
    }
}

/// NULL-flipped group keys (Example 1 with a NULL `DeptID` fraction):
/// NULL forms its own group in the eager aggregate but never survives
/// the join, so the estimator may be off by at most that one group on
/// the post-join nodes.
#[test]
fn null_group_keys_cost_at_most_one_group_of_error() {
    for null_fraction in [0.0f64, 0.3, 0.9] {
        let cfg = EmpDeptConfig {
            employees: 5000,
            departments: 50,
            null_dept_fraction: null_fraction,
            seed: 42,
        };
        let mut db = cfg.build().expect("build");
        let audits = audits_for(&mut db, cfg.query(), PushdownPolicy::CostBased);
        // 50 departments; one spurious NULL group ⇒ q ≤ 51/50 = 1.02.
        assert!(
            max_q(&audits) <= 1.05,
            "null_frac={null_fraction}: max q {} exceeds one-group slack",
            max_q(&audits)
        );
        assert!(
            median_q(&audits) <= 1.01,
            "null_frac={null_fraction}: median q {} drifted",
            median_q(&audits)
        );
    }
}

/// One audit-feedback round strictly improves accuracy on a workload
/// built to break both estimator assumptions at once: a selective join
/// (`match_fraction = 0.1` vs the containment assumption) under Zipf
/// skew. Absorbing the measured run's [`FeedbackDelta`] replaces the
/// `1/max(ndv)` selectivity and the NDV group count with observed
/// facts, so the max Q-error must drop — here all the way to exact —
/// and the median must not degrade.
#[test]
fn feedback_round_strictly_improves_q_error_on_skewed_workloads() {
    let cfg = SweepConfig {
        fact_rows: 10_000,
        dim_rows: 1000,
        groups: 100,
        match_fraction: 0.1,
        skew: 1.5,
    };
    let mut db = cfg.build().expect("build");
    let before = audits_for(&mut db, cfg.query(), PushdownPolicy::Never);
    assert!(
        max_q(&before) > 2.0,
        "workload must start inaccurate, max q {}",
        max_q(&before)
    );

    let delta = db.last_query_metrics().expect("metrics recorded").feedback;
    assert!(db.absorb_feedback(&delta), "the run must teach something");

    let after = audits_for(&mut db, cfg.query(), PushdownPolicy::Never);
    assert!(
        max_q(&after) < max_q(&before),
        "max q must strictly improve: {} → {}",
        max_q(&before),
        max_q(&after)
    );
    assert!(
        median_q(&after) <= median_q(&before),
        "median q must not degrade: {} → {}",
        median_q(&before),
        median_q(&after)
    );
    assert!(
        max_q(&after) <= 1.05,
        "learned facts make this workload exact, max q {}",
        max_q(&after)
    );
}

/// Injected short batches must never move an estimate-vs-actual audit:
/// the fault injector *resizes* scan batches (1/2/7-row chunks), it
/// never drops rows, so the actual cardinalities — and therefore every
/// Q-error — are identical to the unfaulted run. This pins the
/// boundary the estimator relies on: batch geometry is an execution
/// detail, invisible to cardinality accounting.
#[test]
fn short_batches_resize_but_never_drop_rows_in_the_audit() {
    use gbj::storage::{FaultConfig, FaultInjector};
    let cfg = SweepConfig::default();
    let mut db = cfg.build().expect("build");
    let clean: Vec<(String, f64, u64)> =
        audits_for(&mut db, cfg.query(), PushdownPolicy::CostBased)
            .into_iter()
            .map(|a| (a.label, a.estimated, a.actual))
            .collect();
    for batch_size in [1usize, 2, 7] {
        db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            batch_size: Some(batch_size),
            ..FaultConfig::default()
        })));
        let faulted: Vec<(String, f64, u64)> =
            audits_for(&mut db, cfg.query(), PushdownPolicy::CostBased)
                .into_iter()
                .map(|a| (a.label, a.estimated, a.actual))
                .collect();
        assert_eq!(
            faulted, clean,
            "batch_size={batch_size}: short batches must only resize, never drop"
        );
    }
}

/// The audit itself is well-formed on every workload: one record per
/// plan node, every Q-error ≥ 1, actual row counts populated from the
/// metrics layer (not defaulted to zero).
#[test]
fn audits_are_well_formed() {
    let cfg = SweepConfig::default();
    let mut db = cfg.build().expect("build");
    let audits = audits_for(&mut db, cfg.query(), PushdownPolicy::CostBased);
    assert!(audits.len() >= 4, "expected a multi-node plan");
    for a in &audits {
        assert!(a.q_error >= 1.0, "{}: q below floor", a.label);
        assert!(a.estimated >= 0.0, "{}: negative estimate", a.label);
    }
    assert!(
        audits.iter().any(|a| a.actual > 0),
        "actuals must be populated"
    );
    assert!(audits[0].depth == 0 && audits.iter().skip(1).all(|a| a.depth >= 1));
}

/// Build the per-node audit for one (config, policy, clamp) cell.
fn audits_with_clamp(cfg: &SweepConfig, policy: PushdownPolicy, clamp: bool) -> Vec<NodeAudit> {
    let mut db = cfg.build().expect("build");
    db.options_mut().clamp_estimates = clamp;
    audits_for(&mut db, cfg.query(), policy)
}

/// Domain clamps are sound upper bounds, so `min(estimate, bound)` can
/// only move estimates toward the truth: across the cardinality-audit
/// sweep matrix (fan-in × selectivity × skew, every policy), max and
/// median Q-error with clamps enabled are never worse than without.
#[test]
fn clamps_never_increase_q_error_on_the_audit_workloads() {
    let sweeps = [
        SweepConfig {
            fact_rows: 10_000,
            dim_rows: 1000,
            groups: 10,
            match_fraction: 1.0,
            skew: 0.0,
        },
        SweepConfig {
            fact_rows: 10_000,
            dim_rows: 1000,
            groups: 1000,
            match_fraction: 1.0,
            skew: 0.0,
        },
        SweepConfig {
            fact_rows: 10_000,
            dim_rows: 100,
            groups: 100,
            match_fraction: 0.1,
            skew: 0.0,
        },
        SweepConfig {
            fact_rows: 10_000,
            dim_rows: 100,
            groups: 100,
            match_fraction: 1.0,
            skew: 1.5,
        },
    ];
    for (i, cfg) in sweeps.iter().enumerate() {
        for policy in [
            PushdownPolicy::Never,
            PushdownPolicy::Always,
            PushdownPolicy::CostBased,
        ] {
            let unclamped = audits_with_clamp(cfg, policy, false);
            let clamped = audits_with_clamp(cfg, policy, true);
            assert!(
                max_q(&clamped) <= max_q(&unclamped) + 1e-9,
                "sweep {i} {policy:?}: clamp worsened max q: {} -> {}",
                max_q(&unclamped),
                max_q(&clamped)
            );
            assert!(
                median_q(&clamped) <= median_q(&unclamped) + 1e-9,
                "sweep {i} {policy:?}: clamp worsened median q: {} -> {}",
                median_q(&unclamped),
                median_q(&clamped)
            );
        }
    }
}

/// The fan-in workload where the clamp *strictly* tightens: the lazy
/// plan groups on `D.DimId` after the join, and the estimator's
/// NDV-based group count says 1000 (every dimension key). But the join
/// equality propagates `F.DimId ∈ [0,9]` onto `D.DimId`, so the range
/// pass proves at most 10 groups — the clamped estimate drops from
/// 1000 to 10 and the aggregate's Q-error collapses from 100 to exact.
#[test]
fn clamp_strictly_tightens_the_fan_in_group_estimate() {
    let cfg = SweepConfig {
        fact_rows: 10_000,
        dim_rows: 1000,
        groups: 10,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let agg_of = |audits: &[NodeAudit]| -> (f64, f64) {
        let a = audits
            .iter()
            .find(|a| a.operator.contains("Aggregate"))
            .expect("aggregate node in audit");
        (a.estimated, a.q_error)
    };
    let (est_off, q_off) = agg_of(&audits_with_clamp(&cfg, PushdownPolicy::Never, false));
    let (est_on, q_on) = agg_of(&audits_with_clamp(&cfg, PushdownPolicy::Never, true));
    assert!(
        est_on < est_off,
        "clamp must strictly tighten the group estimate: {est_off} -> {est_on}"
    );
    assert!(
        q_on < q_off,
        "tightening must improve the aggregate's Q-error: {q_off} -> {q_on}"
    );
    assert_eq!(est_on, 10.0, "the proven bound is the 10 live keys");
    assert_eq!(q_on, 1.0, "the clamped estimate is exact here");
}

/// `GBJ_CLAMP_ESTIMATES=0` maps onto the same switch the tests above
/// flip programmatically: a freshly-defaulted database honours the
/// option field.
#[test]
fn clamp_option_defaults_on() {
    let db = Database::new();
    // The suite never sets GBJ_CLAMP_ESTIMATES, so the default is on.
    assert!(
        std::env::var("GBJ_CLAMP_ESTIMATES").is_err(),
        "suite assumes the env override is unset"
    );
    drop(db);
    let cfg = SweepConfig::default();
    let db = cfg.build().expect("build");
    drop(db);
}

/// A strict bound meeting a fractional literal or a `Float64` column:
/// the range pass rounds a bound into the column's type, so `x > 5.5
/// AND x < 7` keeps the integer 6 and `x > 5 AND x < 6` keeps 5.25 and
/// 5.5 of a `FLOAT` column. At every node, from catalog seeds and from
/// observed ones, the proven bound is at least the rows that flowed.
#[test]
fn bounds_hold_where_a_strict_bound_meets_a_fraction_or_a_float() {
    for (script, sql, rows) in [
        (
            "CREATE TABLE W (x INTEGER); INSERT INTO W VALUES (6), (6), (9);",
            "SELECT W.x, COUNT(*) FROM W WHERE W.x > 5.5 AND W.x < 7 GROUP BY W.x",
            1,
        ),
        (
            "CREATE TABLE V (x FLOAT); INSERT INTO V VALUES (5.25), (5.5);",
            "SELECT V.x FROM V WHERE V.x > 5 AND V.x < 6",
            2,
        ),
    ] {
        let mut db = Database::new();
        db.run_script(script).expect("script runs");
        let (result, profile, report) = db.query_report(sql).expect("query runs");
        assert_eq!(result.len(), rows, "{sql}");
        for observed in [false, true] {
            let seeds = common::price_seeds(&db, observed);
            let root = gbj::analyze::analyze_plan(&report.plan, &seeds).root;
            let bounds = gbj::engine::database::bound_tree(&report.plan, &root, db.storage());
            for a in gbj::engine::audit_nodes(&bounds, &profile) {
                assert!(
                    a.estimated >= a.actual as f64,
                    "{sql} (observed seeds: {observed}): {} is bounded by {} but {} rows flowed",
                    a.label,
                    a.estimated,
                    a.actual
                );
            }
        }
    }
}

/// A column holding both `i64` extremes: the histogram's bucket widths
/// exceed `i64::MAX`. A range predicate over it must plan and run
/// without panicking (it overflowed in debug builds), with a
/// selectivity in `[0, 1]` — the filter's estimate stays within the
/// table's two rows.
#[test]
fn range_predicate_over_the_i64_extremes_estimates_sanely() {
    use gbj::Value;
    let mut db = Database::new();
    db.execute("CREATE TABLE T (x INTEGER)").expect("ddl");
    db.insert_rows("T", [i64::MIN, i64::MAX].map(|v| vec![Value::Int(v)]))
        .expect("insert");
    let out = db
        .execute("EXPLAIN ANALYZE SELECT T.x FROM T WHERE T.x < 0")
        .expect("explain analyze runs");
    assert!(matches!(out, gbj::engine::QueryOutput::Explain(_)));
    let audits = db.last_query_metrics().expect("metrics").audits();
    let filter = audits
        .iter()
        .find(|a| a.label.starts_with("Filter"))
        .expect("filter node audited");
    assert_eq!(filter.actual, 1);
    assert!(
        (0.0..=2.0).contains(&filter.estimated),
        "estimate {} outside [0, |T|]",
        filter.estimated
    );
}

/// The scan definitions of the four observed facts — what
/// `Estimator::{column_ndv, histogram, joint_ndv}` and the clamp's
/// `observed_domain` computed, once per call, by walking every stored
/// row before the tables kept a [`gbj::storage::TableStats`]. Kept
/// here, over `Table::value_rows`, as the reference the summaries are
/// checked against — through `stats_oracle`, which holds the definition
/// of the two facts that are estimates past one block: a numeric
/// column's distinct count (the sequential sketch of its values) and
/// the `Int64` histogram (that of a fresh load of the same rows, held
/// there against the true ranks).
mod scan_oracle {
    use std::collections::BTreeSet;

    use gbj::analyze::{ColumnDomain, Interval, Nullability};
    use gbj::engine::EquiDepthHistogram;
    use gbj::storage::stats::SKETCH_K;
    use gbj::storage::Table;
    use gbj::types::{ColumnRef, DataType};
    use gbj::Value;

    use super::stats_oracle;

    fn ordinal(data: &Table, column: &str) -> usize {
        data.schema()
            .index_of(&ColumnRef::bare(column.to_string()))
            .expect("column exists")
    }

    pub fn types(data: &Table) -> Vec<DataType> {
        data.schema().fields().iter().map(|f| f.data_type).collect()
    }

    pub fn rows(data: &Table) -> Vec<Vec<Value>> {
        data.value_rows().collect()
    }

    /// Distinct values of one column, NULL as one value (`=ⁿ`): counted
    /// for strings and Booleans, through the sketch for numbers.
    pub fn column_ndv(data: &Table, column: &str) -> f64 {
        let (idx, rows) = (ordinal(data, column), rows(data));
        let ndv = match types(data)[idx] {
            DataType::Int64 | DataType::Float64 => stats_oracle::joint_ndv(&rows, &[idx]).round(),
            _ => stats_oracle::distinct(&rows, idx) as f64,
        };
        ndv.max(1.0)
    }

    pub fn histogram(data: &Table, column: &str) -> Option<EquiDepthHistogram> {
        stats_oracle::histogram(&types(data), &rows(data), ordinal(data, column))
    }

    /// The column ordinals of a grouping set in the order the estimator
    /// keys its sketch: the `BTreeSet<ColumnRef>` order.
    pub fn joint_ordinals(data: &Table, columns: &[&str]) -> Vec<usize> {
        let cols: BTreeSet<ColumnRef> = columns
            .iter()
            .map(|c| ColumnRef::qualified("T", c.to_string()))
            .collect();
        cols.iter().map(|c| ordinal(data, &c.column)).collect()
    }

    /// KMV estimate of the distinct `=ⁿ` combinations over `ordinals`.
    pub fn joint_ndv(data: &Table, ordinals: &[usize]) -> f64 {
        stats_oracle::joint_ndv(&rows(data), ordinals).max(1.0)
    }

    /// The observed per-column domain, distinct values counted by their
    /// `Debug` rendering — and claimed only while a count of them is
    /// what the summary holds (a numeric column past the sketch size
    /// claims none).
    pub fn observed_domain(data: &Table, column: &str) -> ColumnDomain {
        let idx = ordinal(data, column);
        let data_type = data.schema().fields()[idx].data_type;
        let mut lo: Option<f64> = None;
        let mut hi: Option<f64> = None;
        let mut saw_null = false;
        let mut distinct: BTreeSet<String> = BTreeSet::new();
        for row in data.value_rows() {
            match &row[idx] {
                Value::Null => saw_null = true,
                other => {
                    let n = match other {
                        Value::Int(i) => Some(*i as f64),
                        Value::Float(f) => Some(*f),
                        _ => None,
                    };
                    if let Some(n) = n {
                        lo = Some(lo.map_or(n, |l| l.min(n)));
                        hi = Some(hi.map_or(n, |h| h.max(n)));
                    }
                    distinct.insert(match other {
                        Value::Str(s) => s.clone(),
                        other => format!("{other:?}"),
                    });
                }
            }
        }
        let integral = data_type == DataType::Int64;
        let interval = match data_type {
            DataType::Int64 | DataType::Float64 => Some(match (lo, hi) {
                (Some(lo), Some(hi)) => Interval {
                    lo: Some(lo),
                    hi: Some(hi),
                    integral,
                },
                _ => Interval::empty(integral),
            }),
            _ => None,
        };
        let values = (data_type == DataType::Utf8
            && distinct.len() <= gbj::analyze::domain::MAX_VALUE_SET)
            .then(|| distinct.clone());
        let counted = interval.is_none() || distinct.len() + usize::from(saw_null) < SKETCH_K;
        ColumnDomain {
            interval,
            values,
            nullability: if saw_null {
                Nullability::Maybe
            } else {
                Nullability::Never
            },
            ndv: counted.then_some(distinct.len() as f64),
        }
    }
}

/// Every column kind the summaries special-case, in one table: a key,
/// two small NULL-mixed integer domains whose names sort against their
/// schema order (`w` before `a`; together above `SKETCH_K` = 1024
/// combinations at 5000 rows), the `i64` extremes, an all-NULL column,
/// floats with NaN and both zeros, strings at 16 and at 17 distinct
/// values (the `MAX_VALUE_SET` edge) and booleans.
const SUMMARY_COLUMNS: [&str; 9] = ["k", "w", "ext", "allnull", "f", "s16", "s17", "b", "a"];

fn summary_table(rows: usize, seed: u64) -> Database {
    use gbj::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut db = Database::new();
    db.execute(
        "CREATE TABLE T (k INTEGER PRIMARY KEY, w INTEGER, ext INTEGER, allnull INTEGER, \
         f DOUBLE PRECISION, s16 VARCHAR(8), s17 VARCHAR(8), b BOOLEAN, a INTEGER)",
    )
    .expect("ddl");
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<Vec<Value>> = (0..rows as i64)
        .map(|k| {
            let ext = match rng.gen_range(0..10) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range(-1000..1000),
            };
            let f = match rng.gen_range(0..8) {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                _ => f64::from(rng.gen_range(-50..50)) / 4.0,
            };
            let mut row = vec![
                Value::Int(k),
                Value::Int(rng.gen_range(0..40)),
                Value::Int(ext),
                Value::Null,
                Value::Float(f),
                Value::str(format!("s{}", k % 16)),
                Value::str(format!("s{}", k % 17)),
                Value::Bool(rng.gen_bool(0.5)),
                Value::Int(rng.gen_range(0..40)),
            ];
            // Every column but the key is NULL in a tenth of the rows.
            for v in row.iter_mut().skip(1) {
                if rng.gen_bool(0.1) {
                    *v = Value::Null;
                }
            }
            row
        })
        .collect();
    db.insert_rows("T", data).expect("insert");
    db
}

/// Every fact a `TableStats` holds equals its scan definition, on
/// seeded random tables that are empty, small, either side of one and
/// two block edges, and large enough for the sketches to estimate:
/// every exact fact by a walk over the rows, the two estimates by their
/// definition and within their error of the truth, the whole summary
/// that of a fresh load of the same rows (`stats_oracle`). The
/// estimator and the clamp are pure functions of these facts, so equal
/// facts are equal `est=` columns; `estimates_equal_the_scan_oracles_on_every_column_kind`
/// checks the wiring on top. And every stored value lies inside the
/// domain the clamp is handed: a proof never rests on an estimate.
#[test]
fn summaries_equal_their_scan_definitions() {
    use gbj::engine::database::observed_domain;
    use gbj::engine::stats::Estimator;
    use gbj::Value;
    let sizes = [
        (0usize, 1u64),
        (1, 2),
        (50, 3),
        (50, 4),
        (1023, 6),
        (1024, 7),
        (1025, 8),
        (2049, 9),
        (5000, 5),
    ];
    for (rows, seed) in sizes {
        let db = summary_table(rows, seed);
        let ctx = format!("rows={rows} seed={seed}");
        let data = db.storage().table_data("T").expect("table");
        let (types, held) = (scan_oracle::types(data), scan_oracle::rows(data));
        stats_oracle::assert_stats(data, &types, &held, &ctx);
        let est = Estimator::new(db.storage());
        assert_eq!(est.table_rows("T"), rows as f64, "{ctx}");
        for (idx, col) in SUMMARY_COLUMNS.iter().enumerate() {
            let ctx = format!("{ctx} column={col}");
            assert_eq!(
                est.column_ndv("T", col),
                scan_oracle::column_ndv(data, col),
                "{ctx}"
            );
            assert_eq!(
                est.histogram("T", col),
                scan_oracle::histogram(data, col).as_ref(),
                "{ctx}"
            );
            let stats = &data.stats().columns[idx];
            let observed = scan_oracle::observed_domain(data, col);
            let handed = observed_domain(stats, types[idx]);
            assert_eq!(
                stats.nulls > 0,
                observed.nullability.can_be_null(),
                "{ctx}: a column holding a NULL never proves IS NOT NULL"
            );
            assert_eq!(handed.nullability, observed.nullability, "{ctx}");
            assert_eq!(handed.interval, observed.interval, "{ctx}");
            assert_eq!(handed.values, observed.values, "{ctx}");
            // The one deliberate difference: `0.0` and `-0.0` are one
            // value under `=ⁿ` but two `Debug` strings.
            let both_zeros = ["0.0", "-0.0"].map(|z| {
                held.iter()
                    .any(|r| matches!(r[idx], Value::Float(f) if format!("{f:?}") == z))
            });
            let debug_surplus = f64::from(u8::from(both_zeros == [true, true]));
            assert_eq!(
                handed.ndv.map(|ndv| ndv + debug_surplus),
                observed.ndv,
                "{ctx}: a distinct count is handed over only while it is one"
            );
            assert_eq!(handed.ndv.is_some(), stats.ndv_exact, "{ctx}");
            // Every stored value lies inside the domain handed over.
            for row in &held {
                let inside = match &row[idx] {
                    Value::Null => handed.nullability.can_be_null(),
                    Value::Int(i) => handed.interval.is_some_and(|d| d.contains(*i as f64)),
                    Value::Float(f) => {
                        f.is_nan() || handed.interval.is_some_and(|d| d.contains(*f))
                    }
                    Value::Str(s) => handed.values.as_ref().is_none_or(|set| set.contains(s)),
                    Value::Bool(_) => true,
                };
                assert!(inside, "{ctx}: {:?} outside {}", row[idx], handed.render());
            }
        }
        for group in [
            vec!["w", "a"],
            vec!["a", "w", "b"],
            vec!["s17", "f"],
            vec!["k", "allnull"],
        ] {
            let ords = scan_oracle::joint_ordinals(data, &group);
            stats_oracle::assert_joint_ndv(data, &held, &ords, &format!("{ctx} group={group:?}"));
            assert_eq!(
                data.joint_ndv(&ords).max(1.0),
                scan_oracle::joint_ndv(data, &ords),
                "{ctx} group={group:?}"
            );
        }
    }
}

/// Rows offered to each corpus table its script leaves empty.
const CORPUS_FILL_ROWS: i64 = 40;

/// Offer `table` [`CORPUS_FILL_ROWS`] rows, one at a time, keeping the
/// ones its constraints accept: the first column counts up (a key), the
/// other integers take values either side of the corpus's CHECK bounds
/// and inside its parents' keys, strings include the `'dragon'` of
/// Example 3, and nullable columns are NULL in every seventh row.
fn fill_corpus_table(db: &mut Database, table: &str) {
    use gbj::types::DataType;
    use gbj::Value;
    let def = db.catalog().table(table).expect("just created").clone();
    for r in 0..CORPUS_FILL_ROWS {
        let row = def
            .columns
            .iter()
            .enumerate()
            .map(|(j, col)| {
                let pick = usize::try_from(r).expect("small");
                if j > 0 && col.nullable && r % 7 == 6 {
                    return Value::Null;
                }
                match col.data_type {
                    DataType::Int64 if j == 0 => Value::Int(r + 1),
                    DataType::Int64 => Value::Int([1, 3, 5, 1999, 2001][pick % 5]),
                    DataType::Float64 => Value::Float(r as f64 / 2.0),
                    DataType::Utf8 => Value::str(["dragon", "s1", "s2"][pick % 3]),
                    DataType::Boolean => Value::Bool(r % 2 == 0),
                }
            })
            .collect::<Vec<_>>();
        // A row a constraint rejects is left out.
        let _ = db.insert_rows(table, [row]);
    }
}

/// What the audit estimated after every run before the plan carried
/// its own estimates: the feedback-aware estimate of the plan that ran,
/// clamped by the bound tree read off the observed domains — the scan
/// oracle's, met with the catalog's seeds — when `clamp` is on.
fn re_derived_estimates(
    db: &Database,
    plan: &gbj::plan::LogicalPlan,
    clamp: bool,
) -> gbj::optimizer::CardTree {
    use gbj::analyze::{analyze_plan, SeedDomains};
    use gbj::engine::database::bound_tree;
    use gbj::engine::stats::Estimator;
    let feedback = db.feedback_snapshot();
    let mut tree = Estimator::with_feedback(db.storage(), &feedback).estimate_plan(plan);
    if clamp {
        let mut seeds = SeedDomains::from_catalog(db.catalog());
        for def in db.catalog().tables() {
            let data = db.storage().table_data(&def.name).expect("table");
            for col in &def.columns {
                seeds.merge(
                    &def.name,
                    &col.name,
                    &scan_oracle::observed_domain(data, &col.name),
                );
            }
        }
        tree.clamp(&bound_tree(
            plan,
            &analyze_plan(plan, &seeds).root,
            db.storage(),
        ));
    }
    tree
}

/// The audit reads the estimates the plan was priced with instead of
/// estimating again after the run, and loses nothing by it: over every
/// corpus query, its tables filled, × every policy × clamp on and off,
/// before and after a feedback round, `QueryMetrics::estimates` equals
/// the re-derivation node for node — for the plan that ran, not the
/// shape the choice passed over.
#[test]
fn audited_estimates_equal_a_fresh_estimate_of_the_plan_that_ran() {
    let mut files: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    let mut checked = 0;
    let mut shapes_differ = 0;
    for file in files {
        let text: String = std::fs::read_to_string(&file)
            .expect("corpus file")
            .lines()
            .filter(|l| !l.trim_start().starts_with("--"))
            .collect::<Vec<_>>()
            .join("\n");
        let mut db = Database::new();
        let (mut selects, mut created) = (Vec::new(), Vec::new());
        for stmt in text.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let upper = stmt.to_ascii_uppercase();
            if upper.starts_with("SELECT") {
                selects.push(stmt.to_string());
                continue;
            }
            db.execute(stmt).expect("corpus DDL/DML runs");
            if let Some(rest) = upper.strip_prefix("CREATE TABLE ") {
                created.push(rest.split([' ', '(']).next().expect("name").to_string());
            }
        }
        // In creation order, so that parents are filled before their
        // children; a table the corpus loads itself keeps its rows.
        for table in &created {
            if db.storage().table_data(table).is_some_and(|d| d.is_empty()) {
                fill_corpus_table(&mut db, table);
            }
            let held = db.storage().table_data(table).map_or(0, |d| d.len());
            assert!(held > 0, "{}: {table} holds no rows", file.display());
        }
        for sql in &selects {
            for policy in [
                PushdownPolicy::CostBased,
                PushdownPolicy::Always,
                PushdownPolicy::Never,
            ] {
                for clamp in [true, false] {
                    let mut db = db.fork();
                    db.options_mut().policy = policy;
                    db.options_mut().clamp_estimates = clamp;
                    for round in 0..2 {
                        let ctx = format!(
                            "{}: {sql} {policy:?} clamp={clamp} round={round}",
                            file.display()
                        );
                        let (_, _, report) = db.query_report(sql).expect("corpus query runs");
                        let metrics = db.last_query_metrics().expect("metrics recorded");
                        let oracle = re_derived_estimates(&db, &report.plan, clamp);
                        assert_eq!(metrics.estimates, oracle, "{ctx}");
                        checked += 1;
                        if let Some(alt) = &report.alternative {
                            shapes_differ +=
                                usize::from(re_derived_estimates(&db, alt, clamp) != oracle);
                        }
                        db.absorb_feedback(&metrics.feedback);
                    }
                }
            }
        }
    }
    assert_eq!(checked, 20 * 3 * 2 * 2, "every corpus query in every cell");
    assert!(
        shapes_differ > 0,
        "the unchosen shape's tree must be told apart somewhere"
    );
}

/// The `est=` of every node of a scan, a range filter, an equality
/// filter and two- and three-column groupings equals what the scan
/// oracles give — unclamped (the estimator's own arithmetic) and
/// clamped (the bound tree read off the oracle's observed domains).
#[test]
fn estimates_equal_the_scan_oracles_on_every_column_kind() {
    use gbj::expr::BinaryOp;
    for (rows, seed) in [(0usize, 11u64), (50, 12), (5000, 13)] {
        let mut db = summary_table(rows, seed);
        let n = rows as f64;
        let oracle_db = db.fork();
        let data = oracle_db.storage().table_data("T").expect("table");
        let est_of = |db: &mut Database, sql: &str, node: &str, clamp: bool| -> f64 {
            db.options_mut().clamp_estimates = clamp;
            let audits = audits_for(db, sql, PushdownPolicy::CostBased);
            for a in audits.iter().filter(|a| a.operator == "Scan") {
                assert_eq!(a.estimated, n, "{sql}: scan");
            }
            audits
                .iter()
                .find(|a| a.label.starts_with(node))
                .unwrap_or_else(|| panic!("{sql}: no {node} node"))
                .estimated
        };
        let ctx = format!("rows={rows} seed={seed}");

        // Range predicate: rows × histogram selectivity. Inside the
        // observed range the clamp proves nothing; `ext` spans the
        // whole type.
        for (col, op, sym, lit) in [
            ("w", BinaryOp::Lt, "<", 7),
            ("ext", BinaryOp::GtEq, ">=", 3),
            ("a", BinaryOp::LtEq, "<=", 20),
        ] {
            let sql = format!("SELECT T.k FROM T WHERE T.{col} {sym} {lit}");
            let expected =
                scan_oracle::histogram(data, col).map_or(n / 3.0, |h| n * h.selectivity(op, lit));
            for clamp in [false, true] {
                assert_eq!(
                    est_of(&mut db, &sql, "Filter", clamp),
                    expected,
                    "{ctx}: {sql}"
                );
            }
        }
        // Equality: rows / ndv, NULL counted as one value.
        for col in ["w", "s17", "ext"] {
            let lit = if col == "s17" { "'s3'" } else { "3" };
            let sql = format!("SELECT T.k FROM T WHERE T.{col} = {lit}");
            let expected = n * (1.0 / scan_oracle::column_ndv(data, col));
            assert_eq!(
                est_of(&mut db, &sql, "Filter", false),
                expected,
                "{ctx}: {sql}"
            );
        }
        // What the observed domains prove empty, the clamp zeroes: a
        // literal above the float column's maximum (NaN never widens
        // it), any comparison with the all-NULL column, and a string
        // absent from a value set of 16 — while 17 values are past
        // `MAX_VALUE_SET` and prove nothing.
        for (sql, proven_empty) in [
            ("SELECT T.k FROM T WHERE T.f > 1000", true),
            ("SELECT T.k FROM T WHERE T.allnull >= 0", true),
            ("SELECT T.k FROM T WHERE T.s16 = 'absent'", true),
            ("SELECT T.k FROM T WHERE T.s17 = 'absent'", rows == 0),
        ] {
            let unclamped = est_of(&mut db, sql, "Filter", false);
            let clamped = est_of(&mut db, sql, "Filter", true);
            let expected = if proven_empty { 0.0 } else { unclamped };
            assert_eq!(clamped, expected, "{ctx}: {sql}");
        }
        // Grouping: the joint sketch (estimating above SKETCH_K keys),
        // capped by the rows, then clamped by Π (ndv + NULL group).
        for group in [vec!["w", "a"], vec!["a", "w", "b"], vec!["s16", "f"]] {
            let list: Vec<String> = group.iter().map(|c| format!("T.{c}")).collect();
            let sql = format!(
                "SELECT {0}, COUNT(T.k) FROM T GROUP BY {0}",
                list.join(", ")
            );
            let ords = scan_oracle::joint_ordinals(data, &group);
            let joint = scan_oracle::joint_ndv(data, &ords);
            if rows == 5000 && group.len() == 3 {
                assert!(joint > 1024.0, "{ctx}: the sketch must be estimating");
            }
            let unclamped = joint.min(n.max(1.0)).max(1.0);
            let bound: f64 = group
                .iter()
                .map(|c| {
                    scan_oracle::observed_domain(data, c)
                        .group_ndv_upper()
                        .expect("observed columns have an NDV")
                })
                .product();
            assert_eq!(
                est_of(&mut db, &sql, "Aggregate", false),
                unclamped,
                "{ctx}: {sql}"
            );
            assert_eq!(
                est_of(&mut db, &sql, "Aggregate", true),
                unclamped.min(n.min(bound)),
                "{ctx}: {sql}"
            );
        }
    }
}
