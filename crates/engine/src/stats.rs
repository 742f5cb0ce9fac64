//! Cardinality estimation for the Section 7 cost decision.
//!
//! Classic System-R-style estimates over the tables' statistics — the
//! one [`TableStats`](gbj_storage::TableStats) each table version
//! builds once and shares with every snapshot
//! ([`gbj_storage::stats`]); the estimator itself never reads a row:
//!
//! * per-column NDV (number of distinct values, NULL as one);
//! * equality-with-constant selectivity `1 / ndv(col)`;
//! * equi-join selectivity `1 / max(ndv(a), ndv(b))`;
//! * integer range predicates via a per-column **equi-depth
//!   histogram** ([`EquiDepthHistogram`]);
//! * other predicates at selectivity `1/3`;
//! * multi-column distinct counts via a **KMV distinct sketch**
//!   ([`DistinctSketch`]) over the joint key when every column lives in
//!   one base table (exact below the sketch size, so the classic
//!   independence-assumption overestimate disappears for correlated
//!   columns), `min(rows, Π ndv)` otherwise.
//!
//! [`Estimator::estimate_plan`] is the one entry point: it attaches an
//! estimate to every node of a lowered plan as a
//! [`CardTree`], which the engine clamps, costs
//! ([`shape_cost`](gbj_optimizer::shape_cost)), prices exchanges with
//! and audits against the measured profile. When planned with
//! [`Estimator::with_feedback`], learned facts from past measured
//! executions ([`FeedbackStore`](crate::FeedbackStore)) override the
//! model assumptions: an observed join selectivity replaces the
//! `1/max(ndv)` guess and an observed group count replaces the distinct
//! estimate — this is the adaptive half of the cost-based eager/lazy
//! choice.

use std::collections::BTreeSet;

use gbj_expr::{conjuncts, AtomClass, BinaryOp, Expr};
use gbj_optimizer::CardTree;
use gbj_plan::LogicalPlan;
use gbj_storage::stats::DEFAULT_SELECTIVITY;
pub use gbj_storage::stats::{DistinctSketch, EquiDepthHistogram};
use gbj_storage::{ColumnStats, Storage, Table};
use gbj_types::{ColumnRef, Value};

use crate::feedback::{group_signature, join_signature, FeedbackStore};

/// The Q-error of an estimate: `max(est, actual) / min(est, actual)`,
/// with both sides floored at one row so empty results don't divide by
/// zero. Always ≥ 1; 1.0 means a perfect estimate.
#[must_use]
pub fn q_error(estimated: f64, actual: f64) -> f64 {
    let e = estimated.max(1.0);
    let a = actual.max(1.0);
    e.max(a) / e.min(a)
}

/// Estimates cardinalities from the statistics of live storage,
/// optionally corrected by learned feedback facts.
pub struct Estimator<'a> {
    storage: &'a Storage,
    feedback: Option<&'a FeedbackStore>,
}

impl<'a> Estimator<'a> {
    /// An estimator over the given storage (no feedback).
    #[must_use]
    pub fn new(storage: &'a Storage) -> Estimator<'a> {
        Estimator {
            storage,
            feedback: None,
        }
    }

    /// An estimator that consults learned feedback facts before falling
    /// back to the model assumptions.
    #[must_use]
    pub fn with_feedback(storage: &'a Storage, feedback: &'a FeedbackStore) -> Estimator<'a> {
        Estimator {
            storage,
            feedback: Some(feedback),
        }
    }

    /// Row count of a base table (0 when unknown).
    #[must_use]
    pub fn table_rows(&self, table: &str) -> f64 {
        self.storage
            .table_data(table)
            .map_or(0.0, |t| t.stats().rows as f64)
    }

    /// The summary of one base-table column.
    fn column_stats(&self, table: &str, column: &str) -> Option<&'a ColumnStats> {
        let data = self.storage.table_data(table)?;
        data.stats().columns.get(column_ordinal(data, column)?)
    }

    /// Number of distinct values in a base-table column (NULL counts as
    /// one value, matching `=ⁿ` grouping).
    #[must_use]
    pub fn column_ndv(&self, table: &str, column: &str) -> f64 {
        self.column_stats(table, column)
            .map_or(1.0, |c| (c.ndv as f64).max(1.0))
    }

    /// NDV of a (qualified) column, given the mapping from qualifier to
    /// base table name.
    fn ndv_of(&self, col: &ColumnRef, tables: &[(String, String)]) -> f64 {
        let Some(q) = &col.table else { return 1.0 };
        let Some((_, table)) = tables.iter().find(|(qual, _)| qual.eq_ignore_ascii_case(q)) else {
            return 1.0;
        };
        self.column_ndv(table, &col.column)
    }

    /// Selectivity of one conjunct.
    fn selectivity(&self, conjunct: &Expr, tables: &[(String, String)]) -> f64 {
        match AtomClass::of(conjunct) {
            AtomClass::ColumnEqConstant(col, _) => 1.0 / self.ndv_of(&col, tables).max(1.0),
            AtomClass::ColumnEqColumn(a, b) => {
                1.0 / self
                    .ndv_of(&a, tables)
                    .max(self.ndv_of(&b, tables))
                    .max(1.0)
            }
            AtomClass::Other => self
                .range_selectivity(conjunct, tables)
                .unwrap_or(DEFAULT_SELECTIVITY),
        }
    }

    /// Histogram-based selectivity for `col <op> int-literal` (either
    /// operand order). `None` when the predicate has a different shape
    /// or the column has no non-NULL integers to summarise.
    fn range_selectivity(&self, conjunct: &Expr, tables: &[(String, String)]) -> Option<f64> {
        let Expr::Binary { left, op, right } = conjunct else {
            return None;
        };
        let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Literal(Value::Int(v))) => (c, *v, *op),
            (Expr::Literal(Value::Int(v)), Expr::Column(c)) => (c, *v, flip(*op)?),
            _ => return None,
        };
        if !matches!(
            op,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq
        ) {
            return None;
        }
        let q = col.table.as_deref()?;
        let (_, table) = tables
            .iter()
            .find(|(qual, _)| qual.eq_ignore_ascii_case(q))?;
        let hist = self.histogram(table, &col.column)?;
        Some(hist.selectivity(op, lit))
    }

    /// The equi-depth histogram of one integer column (`None` when the
    /// table/column is missing or holds no non-NULL integers).
    #[must_use]
    pub fn histogram(&self, table: &str, column: &str) -> Option<&'a EquiDepthHistogram> {
        self.column_stats(table, column)?.histogram.as_ref()
    }

    /// Joint distinct count of a multi-column set via a KMV sketch over
    /// the concatenated key, when every column maps into one base table
    /// — exact below the sketch size, so correlated columns (the
    /// classic `(DeptID, Name)` case) don't multiply out. `None` when
    /// the columns span tables or can't be resolved.
    fn joint_ndv(&self, cols: &BTreeSet<ColumnRef>, tables: &[(String, String)]) -> Option<f64> {
        if cols.len() < 2 {
            return None;
        }
        let mut table: Option<&str> = None;
        for c in cols {
            let q = c.table.as_deref()?;
            let (_, t) = tables
                .iter()
                .find(|(qual, _)| qual.eq_ignore_ascii_case(q))?;
            match table {
                None => table = Some(t),
                Some(prev) if prev.eq_ignore_ascii_case(t) => {}
                Some(_) => return None,
            }
        }
        let data = self.storage.table_data(table?)?;
        let idxs = cols
            .iter()
            .map(|c| column_ordinal(data, &c.column))
            .collect::<Option<Vec<usize>>>()?;
        Some(data.joint_ndv(&idxs).max(1.0))
    }

    /// Estimate the output cardinality of every node in a physical-ready
    /// logical plan, mirroring the tree shape so the result zips against
    /// the plan, its bound tree and the measured
    /// [`ProfileNode`](gbj_exec::ProfileNode) tree node by node.
    /// System-R rules per node: scans report table rows, filters and
    /// joins multiply conjunct selectivities, and grouping is capped by
    /// `min(input, Π ndv)`.
    #[must_use]
    pub fn estimate_plan(&self, plan: &LogicalPlan) -> CardTree {
        let mut tables = Vec::new();
        collect_plan_tables(plan, &mut tables);
        self.node_estimate(plan, &tables)
    }

    fn node_estimate(&self, plan: &LogicalPlan, tables: &[(String, String)]) -> CardTree {
        let children: Vec<CardTree> = plan
            .children()
            .into_iter()
            .map(|child| self.node_estimate(child, tables))
            .collect();
        let input_rows = |i: usize| children.get(i).map_or(0.0, |c| c.rows);
        let rows = match plan {
            LogicalPlan::Scan { table, .. } => self.table_rows(table),
            LogicalPlan::Filter { predicate, .. } => {
                let mut rows = input_rows(0);
                for c in conjuncts(predicate) {
                    rows *= self.selectivity(&c, tables);
                }
                rows
            }
            LogicalPlan::Project {
                exprs, distinct, ..
            } => {
                if *distinct {
                    let cols: BTreeSet<ColumnRef> =
                        exprs.iter().flat_map(|(e, _)| e.columns()).collect();
                    self.column_set_groups(&cols, input_rows(0), tables)
                } else {
                    input_rows(0)
                }
            }
            LogicalPlan::CrossJoin { .. } => input_rows(0) * input_rows(1),
            LogicalPlan::Join { condition, .. } => {
                // A learned selectivity for this exact join (by
                // canonical base-table signature) replaces the
                // 1/max(ndv) assumption.
                let learned = self.feedback.and_then(|fb| {
                    join_signature(condition, plan, tables)
                        .and_then(|sig| fb.join_selectivity(&sig))
                });
                if let Some(sel) = learned {
                    (input_rows(0) * input_rows(1) * sel).max(0.0)
                } else {
                    let mut rows = input_rows(0) * input_rows(1);
                    for c in conjuncts(condition) {
                        rows *= self.selectivity(&c, tables);
                    }
                    rows
                }
            }
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                let learned = self.feedback.and_then(|fb| {
                    group_signature(group_by, input, tables).and_then(|sig| fb.group_count(&sig))
                });
                if group_by.is_empty() {
                    1.0
                } else if let Some(groups) = learned {
                    groups.max(1.0)
                } else {
                    let cols: BTreeSet<ColumnRef> =
                        group_by.iter().flat_map(Expr::columns).collect();
                    self.column_set_groups(&cols, input_rows(0), tables)
                }
            }
            LogicalPlan::SubqueryAlias { .. } | LogicalPlan::Sort { .. } => input_rows(0),
        };
        CardTree { rows, children }
    }

    /// Distinct-group estimate over a column set, never below one row.
    /// Single-table multi-column sets use the joint KMV sketch (no
    /// independence assumption); everything else falls back to
    /// `min(rows, Π ndv(col))`.
    fn column_set_groups(
        &self,
        cols: &BTreeSet<ColumnRef>,
        rows: f64,
        tables: &[(String, String)],
    ) -> f64 {
        if let Some(joint) = self.joint_ndv(cols, tables) {
            return joint.min(rows.max(1.0)).max(1.0);
        }
        let mut ndv = 1.0;
        for c in cols {
            ndv *= self.ndv_of(c, tables).max(1.0);
        }
        ndv.min(rows).max(1.0)
    }
}

/// The ordinal of a (bare) column name in a stored table's schema.
fn column_ordinal(data: &Table, column: &str) -> Option<usize> {
    data.schema()
        .index_of(&ColumnRef::bare(column.to_string()))
        .ok()
}

/// Mirror a comparison operator for `lit op col → col flipped(op) lit`.
fn flip(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        _ => return None,
    })
}

/// Collect `(qualifier, base table)` pairs from a plan's scans. A
/// `SubqueryAlias` whose subtree reads exactly one base table also maps
/// its alias to that table, so estimates survive the rename that
/// re-qualifies the eager plan's aggregated side.
pub(crate) fn collect_plan_tables(plan: &LogicalPlan, out: &mut Vec<(String, String)>) {
    match plan {
        LogicalPlan::Scan {
            table, qualifier, ..
        } => out.push((qualifier.clone(), table.clone())),
        LogicalPlan::SubqueryAlias { input, alias } => {
            let before = out.len();
            collect_plan_tables(input, out);
            if out.len() == before + 1 {
                if let Some((_, table)) = out.last() {
                    out.push((alias.clone(), table.clone()));
                }
            }
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. } => collect_plan_tables(input, out),
        LogicalPlan::CrossJoin { left, right } | LogicalPlan::Join { left, right, .. } => {
            collect_plan_tables(left, out);
            collect_plan_tables(right, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_catalog::{ColumnDef, Constraint, TableDef};
    use gbj_types::{DataType, Value};

    /// Example 1 at 1/10 scale: 1000 employees over 10 departments.
    fn setup() -> Storage {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "Department",
                vec![
                    ColumnDef::new("DeptID", DataType::Int64),
                    ColumnDef::new("Name", DataType::Utf8),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["DeptID".into()])),
        )
        .unwrap();
        s.create_table(
            TableDef::new(
                "Employee",
                vec![
                    ColumnDef::new("EmpID", DataType::Int64),
                    ColumnDef::new("DeptID", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["EmpID".into()])),
        )
        .unwrap();
        for d in 0..10 {
            s.insert(
                "Department",
                vec![Value::Int(d), Value::str(format!("dept{d}"))],
            )
            .unwrap();
        }
        for e in 0..1000 {
            s.insert("Employee", vec![Value::Int(e), Value::Int(e % 10)])
                .unwrap();
        }
        s
    }

    #[test]
    fn ndv_and_rows() {
        let s = setup();
        let est = Estimator::new(&s);
        assert_eq!(est.table_rows("Employee"), 1000.0);
        assert_eq!(est.table_rows("Missing"), 0.0);
        assert_eq!(est.column_ndv("Employee", "DeptID"), 10.0);
        assert_eq!(est.column_ndv("Employee", "EmpID"), 1000.0);
        assert_eq!(est.column_ndv("Employee", "Nope"), 1.0);
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0, "symmetric");
        assert_eq!(q_error(0.0, 0.0), 1.0, "empty vs empty is perfect");
        assert_eq!(q_error(5.0, 0.0), 5.0, "actual floored at one row");
    }

    #[test]
    fn plan_estimates_mirror_the_tree_and_match_intuition() {
        let s = setup();
        let est = Estimator::new(&s);
        let scan_e = LogicalPlan::Scan {
            table: "Employee".into(),
            qualifier: "E".into(),
            schema: gbj_types::Schema::new(vec![
                gbj_types::Field::new("EmpID", DataType::Int64, false).with_qualifier("E"),
                gbj_types::Field::new("DeptID", DataType::Int64, true).with_qualifier("E"),
            ]),
        };
        let scan_d = LogicalPlan::Scan {
            table: "Department".into(),
            qualifier: "D".into(),
            schema: gbj_types::Schema::new(vec![
                gbj_types::Field::new("DeptID", DataType::Int64, false).with_qualifier("D"),
                gbj_types::Field::new("Name", DataType::Utf8, true).with_qualifier("D"),
            ]),
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan_e),
                right: Box::new(scan_d),
                condition: Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID")),
            }),
            group_by: vec![Expr::col("D", "DeptID")],
            aggregates: vec![(
                gbj_expr::AggregateCall::new(
                    gbj_expr::AggregateFunction::Count,
                    Expr::col("E", "EmpID"),
                ),
                "cnt".into(),
            )],
        };
        let e = est.estimate_plan(&plan);
        assert_eq!(e.rows, 10.0, "10 distinct D.DeptID groups");
        assert_eq!(e.children.len(), 1);
        let join = &e.children[0];
        // 1000 × 10 × 1/max(10,10) = 1000.
        assert_eq!(join.rows, 1000.0);
        assert_eq!(join.children[0].rows, 1000.0, "Employee scan");
        assert_eq!(join.children[1].rows, 10.0, "Department scan");
    }

    #[test]
    fn subquery_alias_over_one_table_keeps_estimates() {
        let s = setup();
        let est = Estimator::new(&s);
        let plan = LogicalPlan::SubqueryAlias {
            input: Box::new(LogicalPlan::Scan {
                table: "Department".into(),
                qualifier: "D".into(),
                schema: gbj_types::Schema::new(vec![gbj_types::Field::new(
                    "DeptID",
                    DataType::Int64,
                    false,
                )
                .with_qualifier("D")]),
            }),
            alias: "V".into(),
        };
        let mut tables = Vec::new();
        super::collect_plan_tables(&plan, &mut tables);
        assert!(tables.iter().any(|(q, t)| q == "V" && t == "Department"));
        assert_eq!(est.estimate_plan(&plan).rows, 10.0);
    }

    #[test]
    fn ndv_counts_null_as_one_group() {
        let mut s = Storage::new();
        s.create_table(TableDef::new(
            "T",
            vec![ColumnDef::new("x", DataType::Int64)],
        ))
        .unwrap();
        s.insert("T", vec![Value::Null]).unwrap();
        s.insert("T", vec![Value::Null]).unwrap();
        s.insert("T", vec![Value::Int(1)]).unwrap();
        let est = Estimator::new(&s);
        assert_eq!(est.column_ndv("T", "x"), 2.0);
    }
}
