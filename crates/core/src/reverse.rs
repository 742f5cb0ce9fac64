//! Section 8: performing join *before* group-by.
//!
//! When a query joins an **aggregated view** with other tables, the
//! straightforward evaluation materialises the view (group-by first)
//! and then joins — the `E2` shape. The reverse transformation unfolds
//! the view into a single-block query that joins first and groups last
//! (`E1`), giving the optimizer the other plan choice. The paper's
//! Example 5 unfolds the `UserInfo` view back into the three-table
//! grouped join of Example 3.
//!
//! Validity is governed by the *same* Main-Theorem conditions: the
//! merged block, partitioned with `R1` = the view's relations, must
//! pass `TestFD`, and the partition's `GA1+` must coincide with the
//! view's grouping columns (so that the eager form of the merged block
//! *is* the original query).

use std::collections::BTreeSet;

use gbj_fd::FdContext;
use gbj_plan::{BlockRelation, QueryBlock, SelectItem};
use gbj_types::{ColumnRef, Error, Result};

use crate::partition::Partition;
use crate::testfd::{test_fd, TestFdTrace};
use crate::theorem3::constraint_conjuncts;

/// The outcome of attempting the reverse transformation.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // outcomes are built once per query, never stored in bulk
pub enum ReverseOutcome {
    /// The view was unfolded; `block` is the single-block `E1` form.
    Unfolded {
        /// The merged query block (join before group-by).
        block: QueryBlock,
        /// The TestFD trace proving the equivalence.
        testfd: TestFdTrace,
    },
    /// The unfolding does not apply or could not be proved valid.
    NotApplicable {
        /// Human-readable reason.
        reason: String,
        /// The TestFD trace, when TestFD ran and refused.
        testfd: Option<TestFdTrace>,
    },
}

impl ReverseOutcome {
    /// The unfolded block, if any.
    #[must_use]
    pub fn block(&self) -> Option<&QueryBlock> {
        match self {
            ReverseOutcome::Unfolded { block, .. } => Some(block),
            ReverseOutcome::NotApplicable { .. } => None,
        }
    }
}

fn not_applicable(reason: impl Into<String>) -> ReverseOutcome {
    ReverseOutcome::NotApplicable {
        reason: reason.into(),
        testfd: None,
    }
}

/// Attempt to unfold the (single) aggregated derived relation of
/// `outer` into a join-then-group block.
///
/// Requirements checked here:
/// * `outer` itself does not aggregate and has exactly one derived
///   relation, which aggregates and is itself flat (base relations,
///   no HAVING, no DISTINCT);
/// * outer predicates reference only the view's *grouping* outputs
///   (an aggregate-output predicate would become a HAVING clause);
/// * qualifiers do not collide after merging;
/// * the merged block passes TestFD with `R1` = the view's relations
///   and its `GA1+` equals the view's grouping set.
///
/// `fd_ctx` must register the view's inner relations *and* the outer
/// base relations under their qualifiers.
pub fn reverse_transform(outer: &QueryBlock, fd_ctx: &FdContext) -> Result<ReverseOutcome> {
    outer.validate()?;
    if outer.is_aggregating() {
        return Ok(not_applicable("outer query aggregates itself"));
    }
    if outer.having.is_some() {
        return Ok(not_applicable("outer query has HAVING"));
    }
    let derived: Vec<(usize, &QueryBlock, &str)> = outer
        .relations
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r {
            BlockRelation::Derived { block, qualifier } => {
                Some((i, block.as_ref(), qualifier.as_str()))
            }
            BlockRelation::Base { .. } => None,
        })
        .collect();
    let [(view_idx, view, view_alias)] = derived.as_slice() else {
        return Ok(not_applicable(format!(
            "expected exactly one derived relation, found {}",
            derived.len()
        )));
    };
    let (view_idx, view, view_alias) = (*view_idx, *view, *view_alias);
    if !view.is_aggregating() {
        return Ok(not_applicable("the derived relation does not aggregate"));
    }
    if view.having.is_some() || view.distinct {
        return Ok(not_applicable(
            "the aggregated view uses HAVING or DISTINCT",
        ));
    }
    if view.relations.iter().any(BlockRelation::is_derived) {
        return Ok(not_applicable("the aggregated view nests further views"));
    }

    // Qualifier disjointness after the merge.
    let outer_quals: BTreeSet<String> = outer
        .relations
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != view_idx)
        .map(|(_, r)| r.qualifier().to_ascii_lowercase())
        .collect();
    for r in &view.relations {
        if outer_quals.contains(&r.qualifier().to_ascii_lowercase()) {
            return Ok(not_applicable(format!(
                "qualifier {} appears both inside and outside the view",
                r.qualifier()
            )));
        }
    }

    // Map view outputs: alias → underlying column or aggregate index.
    enum ViewOutput {
        Column(ColumnRef),
        Aggregate(usize),
    }
    let lookup = |name: &str| -> Option<ViewOutput> {
        view.select.iter().find_map(|item| match item {
            SelectItem::Column { col, alias } if alias.eq_ignore_ascii_case(name) => {
                Some(ViewOutput::Column(col.clone()))
            }
            SelectItem::Aggregate { index } => {
                view.aggregates.get(*index).and_then(|(_, alias)| {
                    alias
                        .eq_ignore_ascii_case(name)
                        .then_some(ViewOutput::Aggregate(*index))
                })
            }
            SelectItem::Column { .. } => None,
        })
    };
    let is_view_col = |c: &ColumnRef| {
        c.table
            .as_deref()
            .is_some_and(|t| t.eq_ignore_ascii_case(view_alias))
    };

    // Outer predicates: rewrite view-column references to the
    // underlying columns; refuse aggregate-output references.
    let mut merged_predicate = view.predicate.clone();
    for conjunct in &outer.predicate {
        let mut aggregate_hit = false;
        let mapped = conjunct.map_columns(&|c| {
            if is_view_col(c) {
                match lookup(&c.column) {
                    Some(ViewOutput::Column(base)) => return base,
                    _ => {
                        // flag and leave unchanged; handled below
                    }
                }
            }
            c.clone()
        });
        // Detect aggregate-output references after mapping: any column
        // still qualified by the view alias is either unknown or an
        // aggregate output.
        for c in mapped.columns() {
            if is_view_col(&c) {
                aggregate_hit = true;
            }
        }
        if aggregate_hit {
            return Ok(not_applicable(format!(
                "outer predicate {conjunct} references an aggregate output of the view"
            )));
        }
        merged_predicate.push(mapped);
    }

    // Merged grouping: the view's grouping columns (so that the eager
    // form of the merged query reproduces the view exactly) plus the
    // outer query's plain select columns (SQL2 requires selected
    // columns to be grouped; Theorem 2 permits selecting a subset).
    let mut merged_group_by: Vec<ColumnRef> = view.group_by.clone();
    let mut merged_select: Vec<SelectItem> = Vec::new();
    for item in &outer.select {
        match item {
            SelectItem::Column { col, alias } if is_view_col(col) => match lookup(&col.column) {
                Some(ViewOutput::Column(base)) => {
                    if !merged_group_by.contains(&base) {
                        merged_group_by.push(base.clone());
                    }
                    merged_select.push(SelectItem::Column {
                        col: base,
                        alias: alias.clone(),
                    });
                }
                Some(ViewOutput::Aggregate(index)) => {
                    merged_select.push(SelectItem::Aggregate { index });
                }
                None => return Err(Error::Bind(format!("unknown view output {col}"))),
            },
            SelectItem::Column { col, alias } => {
                if !merged_group_by.contains(col) {
                    merged_group_by.push(col.clone());
                }
                merged_select.push(SelectItem::Column {
                    col: col.clone(),
                    alias: alias.clone(),
                });
            }
            SelectItem::Aggregate { .. } => {
                return Err(Error::Internal(
                    "non-aggregating outer block holds an aggregate item".into(),
                ))
            }
        }
    }
    if merged_group_by.is_empty() {
        return Ok(not_applicable(
            "outer query selects no plain columns to group on",
        ));
    }

    // Assemble the merged block.
    let mut relations: Vec<BlockRelation> = view.relations.clone();
    for (i, r) in outer.relations.iter().enumerate() {
        if i != view_idx {
            relations.push(r.clone());
        }
    }
    let merged = QueryBlock {
        relations,
        predicate: merged_predicate,
        group_by: merged_group_by,
        aggregates: view.aggregates.clone(),
        select: merged_select,
        distinct: outer.distinct,
        having: None,
    };
    merged.validate()?;

    // Validity: partition with R1 = the view's relations must pass
    // TestFD, and GA1+ must equal the view's grouping set (so the eager
    // form of the merged block is the original query).
    let r1: BTreeSet<String> = view
        .relations
        .iter()
        .map(|r| r.qualifier().to_string())
        .collect();
    let partition = match Partition::with_r1(&merged, r1) {
        Ok(p) => p,
        Err(e) => return Ok(not_applicable(format!("cannot partition: {e}"))),
    };
    let view_ga: BTreeSet<ColumnRef> = view.group_by.iter().cloned().collect();
    if partition.ga1_plus != view_ga {
        return Ok(not_applicable(format!(
            "GA1+ of the merged query ({:?}) differs from the view's grouping ({:?})",
            partition.ga1_plus, view_ga
        )));
    }
    let constraints = constraint_conjuncts(fd_ctx);
    let outcome = test_fd(&partition, fd_ctx, &constraints);
    if !outcome.valid {
        return Ok(ReverseOutcome::NotApplicable {
            reason: "TestFD could not prove the unfolding valid".into(),
            testfd: Some(outcome.trace),
        });
    }
    Ok(ReverseOutcome::Unfolded {
        block: merged,
        testfd: outcome.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_catalog::{ColumnDef, Constraint, TableDef};
    use gbj_expr::{AggregateCall, AggregateFunction, Expr};
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

    /// The `UserInfo` view of Example 5.
    fn user_info_view() -> QueryBlock {
        let mut v = QueryBlock::new(vec![
            base(
                "PrinterAuth",
                "A",
                &[
                    ("UserId", DataType::Int64),
                    ("Machine", DataType::Utf8),
                    ("PNo", DataType::Int64),
                    ("Usage", DataType::Int64),
                ],
            ),
            base(
                "Printer",
                "P",
                &[("PNo", DataType::Int64), ("Speed", DataType::Int64)],
            ),
        ]);
        v.predicate = vec![Expr::col("A", "PNo").eq(Expr::col("P", "PNo"))];
        v.group_by = vec![
            ColumnRef::qualified("A", "UserId"),
            ColumnRef::qualified("A", "Machine"),
        ];
        v.aggregates = vec![
            (
                AggregateCall::new(AggregateFunction::Sum, Expr::col("A", "Usage")),
                "TotUsage".into(),
            ),
            (
                AggregateCall::new(AggregateFunction::Max, Expr::col("P", "Speed")),
                "MaxSpeed".into(),
            ),
            (
                AggregateCall::new(AggregateFunction::Min, Expr::col("P", "Speed")),
                "MinSpeed".into(),
            ),
        ];
        v.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("A", "UserId"),
                alias: "UserId".into(),
            },
            SelectItem::Column {
                col: ColumnRef::qualified("A", "Machine"),
                alias: "Machine".into(),
            },
            SelectItem::Aggregate { index: 0 },
            SelectItem::Aggregate { index: 1 },
            SelectItem::Aggregate { index: 2 },
        ];
        v
    }

    /// Example 5's outer query: join UserInfo I with UserAccount U.
    fn example5_outer() -> QueryBlock {
        let mut b = QueryBlock::new(vec![
            BlockRelation::Derived {
                block: Box::new(user_info_view()),
                qualifier: "I".into(),
            },
            base(
                "UserAccount",
                "U",
                &[
                    ("UserId", DataType::Int64),
                    ("Machine", DataType::Utf8),
                    ("UserName", DataType::Utf8),
                ],
            ),
        ]);
        b.predicate = vec![
            Expr::col("I", "UserId").eq(Expr::col("U", "UserId")),
            Expr::col("I", "Machine").eq(Expr::col("U", "Machine")),
            Expr::col("U", "Machine").eq(Expr::lit("dragon")),
        ];
        b.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("I", "UserId"),
                alias: "UserId".into(),
            },
            SelectItem::Column {
                col: ColumnRef::qualified("U", "UserName"),
                alias: "UserName".into(),
            },
            SelectItem::Column {
                col: ColumnRef::qualified("I", "TotUsage"),
                alias: "TotUsage".into(),
            },
            SelectItem::Column {
                col: ColumnRef::qualified("I", "MaxSpeed"),
                alias: "MaxSpeed".into(),
            },
            SelectItem::Column {
                col: ColumnRef::qualified("I", "MinSpeed"),
                alias: "MinSpeed".into(),
            },
        ];
        b
    }

    fn example5_ctx() -> FdContext {
        let mut ctx = FdContext::new();
        ctx.add_table(
            "U",
            TableDef::new(
                "UserAccount",
                vec![
                    ColumnDef::new("UserId", DataType::Int64),
                    ColumnDef::new("Machine", DataType::Utf8),
                    ColumnDef::new("UserName", DataType::Utf8),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec![
                "UserId".into(),
                "Machine".into(),
            ]))
            .validate()
            .unwrap(),
        );
        ctx.add_table(
            "A",
            TableDef::new(
                "PrinterAuth",
                vec![
                    ColumnDef::new("UserId", DataType::Int64),
                    ColumnDef::new("Machine", DataType::Utf8),
                    ColumnDef::new("PNo", DataType::Int64),
                    ColumnDef::new("Usage", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec![
                "UserId".into(),
                "Machine".into(),
                "PNo".into(),
            ]))
            .validate()
            .unwrap(),
        );
        ctx.add_table(
            "P",
            TableDef::new(
                "Printer",
                vec![
                    ColumnDef::new("PNo", DataType::Int64),
                    ColumnDef::new("Speed", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["PNo".into()]))
            .validate()
            .unwrap(),
        );
        ctx
    }

    #[test]
    fn example5_unfolds_to_the_three_table_query() {
        let outer = example5_outer();
        let out = reverse_transform(&outer, &example5_ctx()).unwrap();
        let ReverseOutcome::Unfolded { block, .. } = out else {
            panic!("expected unfolding, got {out:?}");
        };
        // Merged FROM: A, P, U (view relations first).
        let quals: Vec<&str> = block.relations.iter().map(|r| r.qualifier()).collect();
        assert_eq!(quals, vec!["A", "P", "U"]);
        // Grouping: the outer's plain select columns, mapped to base
        // columns (A.UserId via the view, U.UserName directly).
        assert!(block
            .group_by
            .contains(&ColumnRef::qualified("A", "UserId")));
        assert!(block
            .group_by
            .contains(&ColumnRef::qualified("U", "UserName")));
        // All three view aggregates survive.
        assert_eq!(block.aggregates.len(), 3);
        // Join predicates are merged and re-rooted.
        let pred = block.predicate_expr().unwrap().to_string();
        assert!(pred.contains("(A.PNo = P.PNo)"));
        assert!(pred.contains("(A.UserId = U.UserId)"));
        assert!(pred.contains("(U.Machine = 'dragon')"));
        // The merged block is executable.
        block.lower(&[]).unwrap();
    }

    #[test]
    fn predicate_on_aggregate_output_blocks_unfolding() {
        let mut outer = example5_outer();
        outer
            .predicate
            .push(Expr::col("I", "TotUsage").binary(gbj_expr::BinaryOp::Gt, Expr::lit(10i64)));
        let out = reverse_transform(&outer, &example5_ctx()).unwrap();
        match out {
            ReverseOutcome::NotApplicable { reason, .. } => {
                assert!(reason.contains("aggregate output"), "{reason}");
            }
            ReverseOutcome::Unfolded { .. } => panic!("must not unfold"),
        }
    }

    #[test]
    fn aggregating_outer_is_refused() {
        let mut outer = example5_outer();
        outer.group_by = vec![ColumnRef::qualified("U", "UserName")];
        outer.aggregates = vec![(AggregateCall::count_star(), "n".into())];
        outer.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("U", "UserName"),
                alias: "UserName".into(),
            },
            SelectItem::Aggregate { index: 0 },
        ];
        let out = reverse_transform(&outer, &example5_ctx()).unwrap();
        assert!(matches!(out, ReverseOutcome::NotApplicable { .. }));
    }

    #[test]
    fn partial_join_still_unfolds_when_key_is_derivable() {
        // Drop the Machine *join* but keep the constant: the view's
        // grouping columns are forced into the merged GROUP BY, and
        // U's key (UserId, Machine) is still derivable from the
        // UserId join plus the Machine constant.
        let mut outer = example5_outer();
        outer.predicate = vec![
            Expr::col("I", "UserId").eq(Expr::col("U", "UserId")),
            Expr::col("U", "Machine").eq(Expr::lit("dragon")),
        ];
        let out = reverse_transform(&outer, &example5_ctx()).unwrap();
        let ReverseOutcome::Unfolded { block, .. } = out else {
            panic!("expected unfolding, got {out:?}");
        };
        // The merged grouping includes both view grouping columns.
        assert!(block
            .group_by
            .contains(&ColumnRef::qualified("A", "UserId")));
        assert!(block
            .group_by
            .contains(&ColumnRef::qualified("A", "Machine")));
    }

    #[test]
    fn underdetermined_r2_key_is_refused() {
        // No Machine join *and* no Machine constant: the key of U is
        // not derivable, so FD2 cannot be proved and the unfolding is
        // refused (two U rows could join one view row).
        let mut outer = example5_outer();
        outer.predicate = vec![Expr::col("I", "UserId").eq(Expr::col("U", "UserId"))];
        let out = reverse_transform(&outer, &example5_ctx()).unwrap();
        match out {
            ReverseOutcome::NotApplicable { reason, testfd } => {
                assert!(reason.contains("TestFD"), "{reason}");
                assert!(testfd.is_some_and(|trace| trace.failure.is_some()));
            }
            ReverseOutcome::Unfolded { .. } => panic!("must not unfold"),
        }
    }

    #[test]
    fn view_without_keys_fails_testfd() {
        let outer = example5_outer();
        // Context with keyless UserAccount: FD2 cannot be derived.
        let mut ctx = FdContext::new();
        ctx.add_table(
            "U",
            TableDef::new(
                "UserAccount",
                vec![
                    ColumnDef::new("UserId", DataType::Int64),
                    ColumnDef::new("Machine", DataType::Utf8),
                    ColumnDef::new("UserName", DataType::Utf8),
                ],
            )
            .validate()
            .unwrap(),
        );
        let base_ctx = example5_ctx();
        ctx.add_table("A", base_ctx.table("A").unwrap().clone());
        ctx.add_table("P", base_ctx.table("P").unwrap().clone());
        let out = reverse_transform(&outer, &ctx).unwrap();
        assert!(matches!(out, ReverseOutcome::NotApplicable { .. }));
    }

    #[test]
    fn no_derived_relation_is_refused() {
        let mut outer = example5_outer();
        outer.relations.remove(0);
        outer.predicate = vec![Expr::col("U", "Machine").eq(Expr::lit("dragon"))];
        outer.select = vec![SelectItem::Column {
            col: ColumnRef::qualified("U", "UserName"),
            alias: "UserName".into(),
        }];
        let out = reverse_transform(&outer, &example5_ctx()).unwrap();
        match out {
            ReverseOutcome::NotApplicable { reason, .. } => {
                assert!(reason.contains("derived"), "{reason}");
            }
            ReverseOutcome::Unfolded { .. } => panic!(),
        }
    }
}
