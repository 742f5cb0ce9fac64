//! Theorem 3: using semantic integrity constraints to test FD1 / FD2.
//!
//! Section 6.2 observes that, because every declared constraint holds in
//! every valid database instance, the constraint formulas `T1 ∧ T2` may
//! be conjoined to the query's WHERE clause without changing its result
//! — and therefore participate in deriving the functional dependencies.
//!
//! Under three-valued logic that holds only for a constraint that
//! cannot be *unknown*. A CHECK admits a row on which it is unknown
//! (it holds under `⌈·⌉`), while a WHERE conjunct keeps only the rows
//! on which it is true (`⌊·⌋`): `CHECK (G = 1)` admits `G IS NULL`, so
//! `G = 1` is no WHERE conjunct. A constraint is rendered here only if
//! every column it mentions is declared NOT NULL.
//!
//! This module renders catalog constraints as Boolean conjuncts over the
//! query's column space:
//!
//! * **column / domain CHECK constraints** become per-table conjuncts
//!   with the column qualified by the table's query alias (a domain
//!   check's `VALUE` pseudo-column is substituted by the column it
//!   constrains);
//! * **assertions** are re-qualified from table names to query aliases
//!   when the mapping is unambiguous;
//! * **key constraints** are *not* rendered as formulas — they enter the
//!   closure computation directly (see `gbj-fd`), exactly as in the
//!   paper's Theorem 3 statement where they appear as the second and
//!   third antecedent parts.
//!
//! Feeding these conjuncts to [`test_fd`](crate::testfd::test_fd)
//! implements the practical face of Theorem 3: any equality information
//! they carry (e.g. `CHECK (region = 'EU')`) strengthens the closure.

use gbj_catalog::Constraint;
use gbj_expr::Expr;
use gbj_fd::FdContext;
use gbj_types::ColumnRef;

/// Whether `expr` mentions only columns declared NOT NULL, so that a
/// constraint it states holds as a WHERE conjunct (module docs).
fn null_free(ctx: &FdContext, expr: &Expr) -> bool {
    expr.columns().iter().all(|c| ctx.is_not_null(c))
}

/// Render the CHECK/domain constraints of every table in the context as
/// query-space conjuncts (the paper's `T1 ∧ T2`), leaving out each one
/// that mentions a nullable column.
#[must_use]
pub fn constraint_conjuncts(ctx: &FdContext) -> Vec<Expr> {
    let mut out = Vec::new();
    let qualifiers: Vec<String> = ctx.qualifiers().map(str::to_string).collect();
    for q in &qualifiers {
        let Some(def) = ctx.table(q) else { continue };
        // Column-level (and domain-derived) checks.
        for col in &def.columns {
            for check in &col.checks {
                let col_name = col.name.clone();
                let mapped = check.map_columns(&|r| {
                    if r.table.is_none()
                        && (r.column.eq_ignore_ascii_case("VALUE")
                            || r.column.eq_ignore_ascii_case(&col_name))
                    {
                        ColumnRef::qualified(q.clone(), col_name.clone())
                    } else if r.table.is_none() {
                        // Another column of the same table.
                        ColumnRef::qualified(q.clone(), r.column.clone())
                    } else {
                        r.clone()
                    }
                });
                out.push(mapped);
            }
        }
        // Table-level checks.
        for cons in &def.constraints {
            if let Constraint::Check { expr, .. } = cons {
                let mapped = expr.map_columns(&|r| {
                    if r.table.is_none() {
                        ColumnRef::qualified(q.clone(), r.column.clone())
                    } else {
                        r.clone()
                    }
                });
                out.push(mapped);
            }
        }
    }
    out.retain(|c| null_free(ctx, c));
    out
}

/// Re-qualify assertion predicates (stated over *table names*) into the
/// query's alias space. An assertion is usable only when every table it
/// mentions maps to exactly one alias in the context, and only when
/// every column it mentions is declared NOT NULL; others are skipped
/// (conservative).
#[must_use]
pub fn assertion_conjuncts(ctx: &FdContext, assertions: &[Expr]) -> Vec<Expr> {
    let qualifiers: Vec<String> = ctx.qualifiers().map(str::to_string).collect();
    let mut out = Vec::new();
    'next: for a in assertions {
        let mut mapped = a.clone();
        for col in a.columns() {
            let Some(table) = &col.table else {
                continue 'next;
            };
            // Aliases whose underlying table is `table`.
            let hits: Vec<&String> = qualifiers
                .iter()
                .filter(|q| {
                    ctx.table(q)
                        .is_some_and(|d| d.name.eq_ignore_ascii_case(table))
                })
                .collect();
            match hits.as_slice() {
                [only] => {
                    let from = table.clone();
                    let to = (*only).clone();
                    mapped = mapped.map_columns(&|r| {
                        if r.table
                            .as_deref()
                            .is_some_and(|t| t.eq_ignore_ascii_case(&from))
                        {
                            ColumnRef::qualified(to.clone(), r.column.clone())
                        } else {
                            r.clone()
                        }
                    });
                }
                _ => continue 'next,
            }
        }
        if null_free(ctx, &mapped) {
            out.push(mapped);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_catalog::{ColumnDef, TableDef};
    use gbj_expr::BinaryOp;
    use gbj_types::DataType;

    /// Employee with a column CHECK on each column, a domain-style
    /// `VALUE` CHECK among them, and a table CHECK; each column NOT
    /// NULL unless `nullable` names it.
    fn employee_with_checks(nullable: &[&str]) -> TableDef {
        let col = |name: &str| {
            let c = ColumnDef::new(
                name,
                if name == "Region" {
                    DataType::Utf8
                } else {
                    DataType::Int64
                },
            );
            if nullable.contains(&name) {
                c
            } else {
                c.not_null()
            }
        };
        TableDef::new(
            "Employee",
            vec![
                col("EmpID").with_check(Expr::bare("EmpID").binary(BinaryOp::Gt, Expr::lit(0i64))),
                col("DeptID")
                    .with_check(Expr::bare("VALUE").binary(BinaryOp::Lt, Expr::lit(100i64))),
                col("Region").with_check(Expr::bare("Region").eq(Expr::lit("EU"))),
            ],
        )
        .with_constraint(Constraint::Check {
            name: None,
            expr: Expr::bare("EmpID").binary(BinaryOp::NotEq, Expr::bare("DeptID")),
        })
        .validate()
        .unwrap()
    }

    fn ctx_with_checks() -> FdContext {
        let mut ctx = FdContext::new();
        ctx.add_table("E", employee_with_checks(&[]));
        ctx
    }

    fn rendered(cs: &[Expr]) -> Vec<String> {
        cs.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn column_checks_are_qualified() {
        let cs = constraint_conjuncts(&ctx_with_checks());
        let rendered: Vec<String> = cs.iter().map(ToString::to_string).collect();
        assert!(rendered.contains(&"(E.EmpID > 0)".to_string()));
        assert!(rendered.contains(&"(E.Region = 'EU')".to_string()));
    }

    #[test]
    fn value_pseudo_column_is_substituted() {
        let cs = constraint_conjuncts(&ctx_with_checks());
        let rendered: Vec<String> = cs.iter().map(ToString::to_string).collect();
        assert!(
            rendered.contains(&"(E.DeptID < 100)".to_string()),
            "VALUE must become E.DeptID, got {rendered:?}"
        );
    }

    #[test]
    fn table_level_checks_are_qualified() {
        let cs = constraint_conjuncts(&ctx_with_checks());
        let rendered: Vec<String> = cs.iter().map(ToString::to_string).collect();
        assert!(rendered.contains(&"(E.EmpID <> E.DeptID)".to_string()));
    }

    #[test]
    fn equality_check_feeds_the_closure() {
        // The useful case for Theorem 3: CHECK (Region = 'EU') is a
        // Type-1 atom once qualified.
        let cs = constraint_conjuncts(&ctx_with_checks());
        let eq = cs
            .iter()
            .find(|c| c.to_string() == "(E.Region = 'EU')")
            .unwrap();
        assert!(gbj_expr::AtomClass::of(eq).is_usable());
    }

    #[test]
    fn assertions_remap_to_aliases() {
        let ctx = ctx_with_checks();
        let a = Expr::col("Employee", "EmpID").binary(BinaryOp::Gt, Expr::lit(0i64));
        let mapped = assertion_conjuncts(&ctx, &[a]);
        assert_eq!(mapped.len(), 1);
        assert_eq!(mapped[0].to_string(), "(E.EmpID > 0)");
    }

    /// A CHECK admits a row on which it is unknown, so a check over a
    /// nullable column is no WHERE conjunct: neither the column check,
    /// the `VALUE` check nor the table check that reads it survives.
    #[test]
    fn checks_over_nullable_columns_are_left_out() {
        let mut ctx = FdContext::new();
        ctx.add_table("E", employee_with_checks(&["Region"]));
        assert_eq!(
            rendered(&constraint_conjuncts(&ctx)),
            ["(E.EmpID > 0)", "(E.DeptID < 100)", "(E.EmpID <> E.DeptID)"]
        );
        let mut ctx = FdContext::new();
        ctx.add_table("E", employee_with_checks(&["DeptID"]));
        assert_eq!(
            rendered(&constraint_conjuncts(&ctx)),
            ["(E.EmpID > 0)", "(E.Region = 'EU')"]
        );
    }

    #[test]
    fn assertions_over_nullable_columns_are_skipped() {
        let mut ctx = FdContext::new();
        ctx.add_table("E", employee_with_checks(&["DeptID"]));
        let on_dept = Expr::col("Employee", "DeptID").eq(Expr::lit(1i64));
        let on_emp = Expr::col("Employee", "EmpID").eq(Expr::lit(1i64));
        assert_eq!(
            rendered(&assertion_conjuncts(&ctx, &[on_dept, on_emp])),
            ["(E.EmpID = 1)"]
        );
    }

    #[test]
    fn ambiguous_or_unknown_assertions_are_skipped() {
        let mut ctx = ctx_with_checks();
        // Second alias of the same table → ambiguous.
        let def = ctx.table("E").unwrap().clone();
        ctx.add_table("E2", def);
        let a = Expr::col("Employee", "EmpID").binary(BinaryOp::Gt, Expr::lit(0i64));
        assert!(assertion_conjuncts(&ctx, &[a]).is_empty());
        // Unknown table → skipped.
        let ctx = ctx_with_checks();
        let a = Expr::col("Mystery", "x").eq(Expr::lit(1i64));
        assert!(assertion_conjuncts(&ctx, &[a]).is_empty());
    }
}
