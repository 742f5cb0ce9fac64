//! The logical operator tree.

use std::fmt;

use gbj_expr::{AggregateCall, Expr};
use gbj_types::{DataType, Error, Field, Result, Schema};

/// A logical plan node. Children are boxed; every node can compute its
/// output [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a base table (or a materialised intermediate). The schema is
    /// captured at plan-build time, with fields qualified by the table's
    /// alias in the query.
    Scan {
        /// Catalog table name.
        table: String,
        /// Qualifier the query knows this table by (alias or name).
        qualifier: String,
        /// Output schema (qualified).
        schema: Schema,
    },
    /// Selection `σ[predicate]` — keeps rows where the predicate is
    /// *true* (`⌊·⌋` semantics). Duplicates are preserved.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The search condition.
        predicate: Expr,
    },
    /// Projection `π[d; exprs]` — with `distinct = true` this is the
    /// paper's `D`-projection (duplicate elimination under `=ⁿ`),
    /// otherwise the `A`-projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions with their aliases.
        exprs: Vec<(Expr, String)>,
        /// Whether to eliminate duplicates.
        distinct: bool,
    },
    /// Cartesian product `R1 × R2`.
    CrossJoin {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Inner join: `σ[condition](left × right)`, kept as one node so the
    /// executor can pick a join algorithm.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join condition.
        condition: Expr,
    },
    /// Grouping plus aggregation: the paper's `F[AA] Γ[GA]` pair.
    ///
    /// With an empty `group_by` this is a scalar aggregate producing
    /// exactly one row (the paper's degenerate `GA1+ = ∅` case).
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions (column references in the paper's query
        /// class).
        group_by: Vec<Expr>,
        /// Aggregate calls with output aliases.
        aggregates: Vec<(AggregateCall, String)>,
    },
    /// Re-qualify the output of a subplan under a new alias (used when a
    /// derived table / view gets a FROM-clause alias).
    SubqueryAlias {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// The new qualifier for every output field.
        alias: String,
    },
    /// Sort (for ORDER BY); NULLs sort last.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort key expressions with ascending flags.
        keys: Vec<(Expr, bool)>,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> Result<Schema> {
        let inputs = self
            .children()
            .into_iter()
            .map(LogicalPlan::schema)
            .collect::<Result<Vec<_>>>()?;
        self.schema_over(inputs)
    }

    /// The node's output schema over its children's, in order.
    fn schema_over(&self, inputs: Vec<Schema>) -> Result<Schema> {
        let mut inputs = inputs.into_iter();
        let mut input = || {
            inputs
                .next()
                .ok_or_else(|| Error::Internal("plan node input schema missing".into()))
        };
        match self {
            LogicalPlan::Scan { schema, .. } => Ok(schema.clone()),
            LogicalPlan::Filter { .. } | LogicalPlan::Sort { .. } => input(),
            LogicalPlan::Project { exprs, .. } => project_schema(&input()?, exprs),
            LogicalPlan::CrossJoin { .. } | LogicalPlan::Join { .. } => {
                Ok(input()?.join(&input()?))
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => aggregate_schema(&input()?, group_by, aggregates),
            LogicalPlan::SubqueryAlias { alias, .. } => Ok(input()?.with_qualifier(alias)),
        }
    }

    /// The node's children.
    #[must_use]
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::Sort { input, .. } => vec![input],
            LogicalPlan::CrossJoin { left, right } | LogicalPlan::Join { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Short node label for display.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            LogicalPlan::Scan {
                table, qualifier, ..
            } => {
                if table.eq_ignore_ascii_case(qualifier) {
                    format!("Scan {table}")
                } else {
                    format!("Scan {table} AS {qualifier}")
                }
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Project {
                exprs, distinct, ..
            } => {
                let items: Vec<String> = exprs
                    .iter()
                    .map(|(e, a)| match e {
                        Expr::Column(c) if c.column.eq_ignore_ascii_case(a) => e.to_string(),
                        _ => format!("{e} AS {a}"),
                    })
                    .collect();
                format!(
                    "Project{} {}",
                    if *distinct { " DISTINCT" } else { "" },
                    items.join(", ")
                )
            }
            LogicalPlan::CrossJoin { .. } => "CrossJoin".to_string(),
            LogicalPlan::Join { condition, .. } => format!("Join on {condition}"),
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let groups: Vec<String> = group_by.iter().map(ToString::to_string).collect();
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|(c, a)| format!("{c} AS {a}"))
                    .collect();
                format!(
                    "Aggregate groupBy=[{}] aggs=[{}]",
                    groups.join(", "),
                    aggs.join(", ")
                )
            }
            LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias {alias}"),
            LogicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                format!("Sort {}", ks.join(", "))
            }
        }
    }

    /// Render the plan as an indented tree (EXPLAIN-style).
    #[must_use]
    pub fn display_tree(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(0, &mut out);
        out
    }

    fn fmt_tree(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.label());
        out.push('\n');
        for child in self.children() {
            child.fmt_tree(depth + 1, out);
        }
    }

    /// Count the nodes in the plan.
    #[must_use]
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Validate the plan bottom-up: every schema computes, every
    /// predicate is boolean over its input. One pass: each node's schema
    /// is computed once, from its children's.
    pub fn validate(&self) -> Result<()> {
        self.validated_schema().map(drop)
    }

    fn validated_schema(&self) -> Result<Schema> {
        let inputs = self
            .children()
            .into_iter()
            .map(LogicalPlan::validated_schema)
            .collect::<Result<Vec<_>>>()?;
        let schema = self.schema_over(inputs)?;
        let (what, predicate) = match self {
            LogicalPlan::Filter { predicate, .. } => ("filter predicate", predicate),
            LogicalPlan::Join { condition, .. } => ("join condition", condition),
            _ => return Ok(schema),
        };
        if predicate.data_type(&schema)? != DataType::Boolean {
            return Err(Error::Plan(format!("{what} {predicate} is not boolean")));
        }
        Ok(schema)
    }
}

/// The schema of `π[exprs]` over `in_schema`.
pub(crate) fn project_schema(in_schema: &Schema, exprs: &[(Expr, String)]) -> Result<Schema> {
    let mut fields = Vec::with_capacity(exprs.len());
    for (e, alias) in exprs {
        let dt = e.data_type(in_schema)?;
        let nullable = e.nullable(in_schema)?;
        // A bare column projected under its own name keeps its
        // qualifier so later references still resolve.
        let field = match e {
            Expr::Column(c) if c.column.eq_ignore_ascii_case(alias) => {
                let (_, f) = in_schema.resolve(c)?;
                f.clone()
            }
            _ => Field::new(alias.clone(), dt, nullable),
        };
        fields.push(field);
    }
    Ok(Schema::new(fields))
}

/// The schema of `F[aggregates] Γ[group_by]` over `in_schema`: the
/// grouping columns, then one field per aggregate.
pub(crate) fn aggregate_schema(
    in_schema: &Schema,
    group_by: &[Expr],
    aggregates: &[(AggregateCall, String)],
) -> Result<Schema> {
    let mut fields = Vec::with_capacity(group_by.len() + aggregates.len());
    for g in group_by {
        match g {
            Expr::Column(c) => {
                let (_, f) = in_schema.resolve(c)?;
                fields.push(f.clone());
            }
            other => {
                return Err(Error::Plan(format!(
                    "GROUP BY supports column references only, got {other}"
                )))
            }
        }
    }
    for (call, alias) in aggregates {
        let dt = call.data_type(in_schema)?;
        // COUNT never yields NULL; the others do on empty groups.
        let nullable = !matches!(
            call.func,
            gbj_expr::AggregateFunction::Count | gbj_expr::AggregateFunction::CountStar
        );
        fields.push(Field::new(alias.clone(), dt, nullable));
    }
    Ok(Schema::new(fields))
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::AggregateFunction;
    use gbj_types::ColumnRef;

    fn emp_scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "Employee".into(),
            qualifier: "E".into(),
            schema: Schema::new(vec![
                Field::new("EmpID", DataType::Int64, false).with_qualifier("E"),
                Field::new("DeptID", DataType::Int64, true).with_qualifier("E"),
            ]),
        }
    }

    fn dept_scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "Department".into(),
            qualifier: "D".into(),
            schema: Schema::new(vec![
                Field::new("DeptID", DataType::Int64, false).with_qualifier("D"),
                Field::new("Name", DataType::Utf8, true).with_qualifier("D"),
            ]),
        }
    }

    /// The paper's Plan 1 for Example 1.
    fn example1_plan() -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(emp_scan()),
                right: Box::new(dept_scan()),
                condition: Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID")),
            }),
            group_by: vec![Expr::col("D", "DeptID"), Expr::col("D", "Name")],
            aggregates: vec![(
                AggregateCall::new(AggregateFunction::Count, Expr::col("E", "EmpID")),
                "cnt".into(),
            )],
        }
    }

    #[test]
    fn schemas_compose() {
        let p = example1_plan();
        let s = p.schema().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).column_ref(), ColumnRef::qualified("D", "DeptID"));
        assert_eq!(s.field(1).column_ref(), ColumnRef::qualified("D", "Name"));
        assert_eq!(s.field(2).name, "cnt");
        assert_eq!(s.field(2).data_type, DataType::Int64);
        assert!(!s.field(2).nullable, "COUNT is never NULL");
    }

    #[test]
    fn join_schema_concatenates() {
        let j = LogicalPlan::CrossJoin {
            left: Box::new(emp_scan()),
            right: Box::new(dept_scan()),
        };
        let s = j.schema().unwrap();
        assert_eq!(s.len(), 4);
        assert!(s.contains(&ColumnRef::qualified("E", "DeptID")));
        assert!(s.contains(&ColumnRef::qualified("D", "DeptID")));
    }

    #[test]
    fn project_keeps_qualifier_for_bare_columns() {
        let p = LogicalPlan::Project {
            input: Box::new(emp_scan()),
            exprs: vec![
                (Expr::col("E", "DeptID"), "DeptID".into()),
                (
                    Expr::col("E", "EmpID").binary(gbj_expr::BinaryOp::Add, Expr::lit(1i64)),
                    "next_id".into(),
                ),
            ],
            distinct: false,
        };
        let s = p.schema().unwrap();
        assert_eq!(s.field(0).qualifier.as_deref(), Some("E"));
        assert_eq!(s.field(1).qualifier, None);
        assert_eq!(s.field(1).name, "next_id");
    }

    #[test]
    fn subquery_alias_requalifies() {
        let p = LogicalPlan::SubqueryAlias {
            input: Box::new(emp_scan()),
            alias: "X".into(),
        };
        let s = p.schema().unwrap();
        assert!(s.contains(&ColumnRef::qualified("X", "EmpID")));
        assert!(!s.contains(&ColumnRef::qualified("E", "EmpID")));
    }

    #[test]
    fn aggregate_rejects_non_column_group_by() {
        let p = LogicalPlan::Aggregate {
            input: Box::new(emp_scan()),
            group_by: vec![Expr::lit(1i64)],
            aggregates: vec![],
        };
        assert!(p.schema().is_err());
    }

    #[test]
    fn validate_catches_non_boolean_predicates() {
        let p = LogicalPlan::Filter {
            input: Box::new(emp_scan()),
            predicate: Expr::col("E", "EmpID"),
        };
        assert!(p.validate().is_err());
        let p = LogicalPlan::Join {
            left: Box::new(emp_scan()),
            right: Box::new(dept_scan()),
            condition: Expr::lit(1i64),
        };
        assert!(p.validate().is_err());
        assert!(example1_plan().validate().is_ok());
    }

    #[test]
    fn display_tree_shape() {
        let text = example1_plan().display_tree();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Aggregate"));
        assert!(lines[1].trim_start().starts_with("Join"));
        assert!(lines[2].trim_start().starts_with("Scan Employee AS E"));
        assert!(lines[3].trim_start().starts_with("Scan Department AS D"));
    }

    #[test]
    fn node_count() {
        assert_eq!(example1_plan().node_count(), 4);
        assert_eq!(emp_scan().node_count(), 1);
    }

    #[test]
    fn scalar_aggregate_schema() {
        let p = LogicalPlan::Aggregate {
            input: Box::new(emp_scan()),
            group_by: vec![],
            aggregates: vec![(AggregateCall::count_star(), "n".into())],
        };
        let s = p.schema().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.field(0).name, "n");
    }

    #[test]
    fn sort_preserves_schema() {
        let p = LogicalPlan::Sort {
            input: Box::new(emp_scan()),
            keys: vec![(Expr::col("E", "EmpID"), true)],
        };
        assert_eq!(p.schema().unwrap(), emp_scan().schema().unwrap());
        assert!(p.label().contains("ASC"));
    }
}
