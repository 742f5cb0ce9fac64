//! Pass 2: the FD-derivation audit.
//!
//! The Main Theorem makes eager aggregation valid **iff** two
//! functional dependencies hold in the join result:
//!
//! * `FD1: (GA1, GA2) → GA1+`
//! * `FD2: (GA1+, GA2) → RowID(R2)`
//!
//! The optimizer proves them with `TestFD` (Section 6.3), once per
//! candidate partition. A rewrite's certificate is that run's own
//! trace — the constraint/equality-closure chain deriving FD1 and FD2
//! per DNF disjunct — which the engine attaches to the eager plan and
//! EXPLAIN prints under `TestFD:`. This pass runs no TestFD of its own:
//! TestFD is deterministic, so a second run on the same inputs could
//! only agree.
//!
//! Refused rewrites are reported at Warning/Info severity with a stable
//! code per refusal cause, so the counterexample corpus can assert
//! exactly *why* each ineligible rewrite was rejected:
//!
//! | code   | cause                                                  |
//! |--------|--------------------------------------------------------|
//! | GBJ202 | Step 4h failed — FD1 (`(GA1,GA2) → GA1+`) underivable  |
//! | GBJ203 | Step 4d failed — FD2 (key of an `R2` relation) missing |
//! | GBJ204 | Step 3: no usable Type-1/Type-2 equality clauses       |
//! | GBJ205 | DNF conversion exceeded the clause budget              |
//! | GBJ206 | structurally inapplicable (no aggregates, HAVING, …)   |
//!
//! A rewrite raises no code here: its certificate is the trace that
//! made it, so it cannot be missing. A §8 view that TestFD refuses to
//! unfold is reported the same way ([`audit_reverse_outcome`]).

use gbj_core::{EagerOutcome, ReverseOutcome, TestFdTrace};

use crate::diag::{Code, Diagnostic, Report};

/// Map a TestFD failure string to its stable diagnostic code.
#[must_use]
pub fn failure_code(reason: &str) -> Code {
    if reason.contains("Step 4h") {
        Code::Fd1NotDerivable
    } else if reason.contains("Step 4d") {
        Code::Fd2NotDerivable
    } else if reason.contains("Step 3") {
        Code::NoUsableEqualities
    } else if reason.contains("clause budget") {
        Code::DnfBudgetExceeded
    } else {
        Code::RewriteInapplicable
    }
}

/// Audit the outcome of an eager-aggregation attempt: a refused
/// rewrite's cause as a warning/info diagnostic with a stable code. A
/// rewritten block audits clean here.
#[must_use]
pub fn audit_eager_outcome(outcome: &EagerOutcome) -> Report {
    let mut report = Report::new(String::new());
    let EagerOutcome::NotApplicable { reason, testfd } = outcome else {
        return report;
    };
    report.push(match testfd {
        Some(trace) => refusal("eager aggregation refused", reason, trace),
        None => Diagnostic::new(
            Code::RewriteInapplicable,
            format!("eager aggregation not applicable: {reason}"),
        ),
    });
    report
}

/// Audit the outcome of a §8 view unfolding the same way: TestFD's
/// refusal under the code its failing step maps to. A view left as
/// written for a structural reason — TestFD never ran — and an
/// unfolded view audit clean.
#[must_use]
pub fn audit_reverse_outcome(outcome: &ReverseOutcome) -> Report {
    let mut report = Report::new(String::new());
    if let ReverseOutcome::NotApplicable {
        reason,
        testfd: Some(trace),
    } = outcome
    {
        report.push(refusal("view not unfolded", reason, trace));
    }
    report
}

/// TestFD's refusal, `what`, under the code of the step that failed.
fn refusal(what: &str, reason: &str, trace: &TestFdTrace) -> Diagnostic {
    let why = trace.failure.clone().unwrap_or_else(|| reason.to_string());
    let code = failure_code(&why);
    let d = Diagnostic::new(code, format!("{what}: {why}"));
    match code {
        Code::Fd1NotDerivable => d.note(
            "FD1 `(GA1, GA2) → GA1+` has no derivation from keys, \
             constraints and the WHERE equality closure",
        ),
        Code::Fd2NotDerivable => d.note(
            "FD2 `(GA1+, GA2) → RowID(R2)` needs a candidate key of \
             every R2 relation in the closure",
        ),
        _ => d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use gbj_catalog::{ColumnDef, Constraint, TableDef};
    use gbj_core::{eager_aggregate, TransformOptions};
    use gbj_expr::{AggregateCall, AggregateFunction, Expr};
    use gbj_fd::FdContext;
    use gbj_plan::{BlockRelation, QueryBlock, SelectItem};
    use gbj_types::{DataType, Field, Schema};

    fn base(table: &str, qualifier: &str, cols: &[(&str, DataType)]) -> BlockRelation {
        BlockRelation::Base {
            table: table.into(),
            qualifier: qualifier.into(),
            schema: Schema::new(
                cols.iter()
                    .map(|(n, t)| Field::new(*n, *t, true).with_qualifier(qualifier))
                    .collect(),
            ),
        }
    }

    fn emp_dept_ctx() -> FdContext {
        let mut ctx = FdContext::new();
        ctx.add_table(
            "E",
            TableDef::new(
                "Employee",
                vec![
                    ColumnDef::new("EmpID", DataType::Int64),
                    ColumnDef::new("DeptID", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["EmpID".into()]))
            .validate()
            .expect("valid table"),
        );
        ctx.add_table(
            "D",
            TableDef::new(
                "Department",
                vec![
                    ColumnDef::new("DeptID", DataType::Int64),
                    ColumnDef::new("Name", DataType::Utf8),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["DeptID".into()]))
            .validate()
            .expect("valid table"),
        );
        ctx
    }

    fn emp_dept_block(group_by_name_only: bool) -> QueryBlock {
        let mut b = QueryBlock::new(vec![
            base(
                "Employee",
                "E",
                &[("EmpID", DataType::Int64), ("DeptID", DataType::Int64)],
            ),
            base(
                "Department",
                "D",
                &[("DeptID", DataType::Int64), ("Name", DataType::Utf8)],
            ),
        ]);
        b.predicate = vec![Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID"))];
        b.group_by = if group_by_name_only {
            vec![gbj_types::ColumnRef::qualified("D", "Name")]
        } else {
            vec![
                gbj_types::ColumnRef::qualified("D", "DeptID"),
                gbj_types::ColumnRef::qualified("D", "Name"),
            ]
        };
        b.aggregates = vec![(
            AggregateCall::new(AggregateFunction::Count, Expr::col("E", "EmpID")),
            "cnt".into(),
        )];
        b.select = b
            .group_by
            .iter()
            .map(|c| SelectItem::Column {
                col: c.clone(),
                alias: c.column.clone(),
            })
            .chain([SelectItem::Aggregate { index: 0 }])
            .collect();
        b
    }

    #[test]
    fn valid_rewrite_audits_clean() {
        let ctx = emp_dept_ctx();
        let b = emp_dept_block(false);
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).expect("transform runs");
        let EagerOutcome::Rewritten { testfd, .. } = &out else {
            panic!("FD1 and FD2 hold: {out:?}");
        };
        let report = audit_eager_outcome(&out);
        assert!(report.is_empty(), "{}", report.render_text());
        // The certificate is the planner's own trace: FD2 through the
        // key of D, FD1 through the join equality.
        let text = testfd.to_string();
        assert!(text.contains("key of D in S: yes"), "{text}");
        assert!(text.contains("GA1+ in S: yes"), "{text}");
        assert!(text.contains("answer: YES"), "{text}");
    }

    #[test]
    fn refused_fd1_maps_to_gbj202() {
        let ctx = emp_dept_ctx();
        // GROUP BY D.Name only: GA1+ = {E.DeptID} is not derivable from
        // {D.Name} — FD1 (Step 4h) fails.
        let b = emp_dept_block(true);
        let opts = TransformOptions {
            try_column_substitution: false,
            try_repartition: false,
            ..TransformOptions::default()
        };
        let out = eager_aggregate(&b, &ctx, &opts).expect("transform runs");
        assert!(!out.is_rewritten());
        let report = audit_eager_outcome(&out);
        assert_eq!(report.codes(), vec![Code::Fd1NotDerivable]);
        assert!(!report.has_severity(Severity::Error));
    }

    #[test]
    fn refused_fd2_maps_to_gbj203() {
        // Department without any declared key: GA1+ is derivable via
        // the join equality, but no candidate key of D exists in the
        // closure — FD2 (Step 4d) fails.
        let mut ctx = FdContext::new();
        ctx.add_table(
            "E",
            TableDef::new(
                "Employee",
                vec![
                    ColumnDef::new("EmpID", DataType::Int64),
                    ColumnDef::new("DeptID", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["EmpID".into()]))
            .validate()
            .expect("valid table"),
        );
        ctx.add_table(
            "D",
            TableDef::new(
                "Department",
                vec![
                    ColumnDef::new("DeptID", DataType::Int64),
                    ColumnDef::new("Name", DataType::Utf8),
                ],
            )
            .validate()
            .expect("valid table"),
        );
        let b = emp_dept_block(false);
        let opts = TransformOptions {
            try_column_substitution: false,
            try_repartition: false,
            ..TransformOptions::default()
        };
        let out = eager_aggregate(&b, &ctx, &opts).expect("transform runs");
        assert!(!out.is_rewritten());
        let report = audit_eager_outcome(&out);
        assert_eq!(report.codes(), vec![Code::Fd2NotDerivable]);
        assert!(!report.has_severity(Severity::Error));
    }

    #[test]
    fn structurally_inapplicable_is_gbj206_info() {
        let ctx = emp_dept_ctx();
        let mut b = emp_dept_block(false);
        b.having = Some(Expr::bare("cnt").binary(gbj_expr::BinaryOp::Gt, Expr::lit(1i64)));
        let opts = TransformOptions::default();
        let out = eager_aggregate(&b, &ctx, &opts).expect("transform runs");
        let report = audit_eager_outcome(&out);
        assert_eq!(report.codes(), vec![Code::RewriteInapplicable]);
        assert!(!report.has_severity(Severity::Warning));
    }

    #[test]
    fn failure_code_mapping_is_stable() {
        assert_eq!(
            failure_code("GA1+ is not derivable from (GA1, GA2) (Step 4h)"),
            Code::Fd1NotDerivable
        );
        assert_eq!(
            failure_code("a candidate key of R2 is not derivable (Step 4d)"),
            Code::Fd2NotDerivable
        );
        assert_eq!(
            failure_code("no usable equality clauses remain (Step 3)"),
            Code::NoUsableEqualities
        );
        assert_eq!(
            failure_code("DNF conversion exceeded the clause budget"),
            Code::DnfBudgetExceeded
        );
        assert_eq!(failure_code("anything else"), Code::RewriteInapplicable);
    }
}
