//! The eager-aggregation rewrite: constructing `E2` from `E1`.
//!
//! Given a query block in the paper's class and a passing `TestFD`
//! answer, [`eager_aggregate`] builds the transformed block
//!
//! ```sql
//! SELECT [ALL|DISTINCT] SGA1', SGA2, FAA
//! FROM   ( SELECT GA1+, F(AA) FROM R1 WHERE C1 GROUP BY GA1+ ) G1,
//!        R2
//! WHERE  C0'        -- C0 with R1 columns re-rooted onto G1
//!   AND  C2
//! ```
//!
//! which is Theorem 2's generalised form (select list a subset of the
//! grouping columns, optional DISTINCT). The projection `π[GA2+]` of
//! Lemma 1 is left to the executor's column pruning — the lemma proves
//! it is semantically irrelevant.

use std::collections::BTreeMap;

use gbj_expr::Expr;
use gbj_fd::FdContext;
use gbj_plan::{BlockRelation, QueryBlock, SelectItem};
use gbj_types::{ColumnRef, Error, Result};

use crate::partition::Partition;
use crate::testfd::{test_fd, TestFdTrace};
use crate::theorem3::constraint_conjuncts;

/// Options controlling the rewrite.
#[derive(Debug, Clone)]
pub struct TransformOptions {
    /// Try the Section 9 re-partitioning fallback (move relations
    /// without aggregation columns from `R2` to `R1`) when the minimal
    /// partition fails TestFD.
    pub try_repartition: bool,
    /// Skip the fallback for blocks with more relations than this (the
    /// enumeration is exponential in the movable-relation count).
    pub max_repartition_relations: usize,
    /// Conjoin catalog CHECK/domain constraints (Theorem 3's `T1 ∧ T2`,
    /// those over NOT NULL columns: [`crate::theorem3`]) into the
    /// TestFD predicate.
    pub use_constraint_atoms: bool,
    /// Try Section 9 *column substitution*: rewrite aggregate arguments
    /// along WHERE equalities when the natural partition fails, so an
    /// alternative R1/R2 split becomes available.
    pub try_column_substitution: bool,
    /// Qualifier given to the derived aggregated side in the rewritten
    /// query.
    pub derived_alias: String,
    /// Extra conjuncts known to hold in every valid instance (e.g.
    /// re-qualified `CREATE ASSERTION` predicates from
    /// [`crate::theorem3::assertion_conjuncts`]); conjoined into the
    /// TestFD predicate.
    pub extra_conjuncts: Vec<Expr>,
}

impl Default for TransformOptions {
    fn default() -> TransformOptions {
        TransformOptions {
            try_repartition: true,
            max_repartition_relations: 8,
            use_constraint_atoms: true,
            try_column_substitution: true,
            derived_alias: "G1".to_string(),
            extra_conjuncts: vec![],
        }
    }
}

/// The outcome of attempting the transformation.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // outcomes are built once per query, never stored in bulk
pub enum EagerOutcome {
    /// The transformation is valid; `block` is the `E2` form.
    Rewritten {
        /// The rewritten (eager) query block.
        block: QueryBlock,
        /// The partition that passed.
        partition: Partition,
        /// The TestFD trace that proved validity.
        testfd: TestFdTrace,
    },
    /// The transformation does not apply (or could not be proved valid).
    NotApplicable {
        /// Human-readable reason.
        reason: String,
        /// The last TestFD trace, when one was run.
        testfd: Option<TestFdTrace>,
    },
}

impl EagerOutcome {
    /// The rewritten block, if any.
    #[must_use]
    pub fn block(&self) -> Option<&QueryBlock> {
        match self {
            EagerOutcome::Rewritten { block, .. } => Some(block),
            EagerOutcome::NotApplicable { .. } => None,
        }
    }

    /// Whether the rewrite succeeded.
    #[must_use]
    pub fn is_rewritten(&self) -> bool {
        matches!(self, EagerOutcome::Rewritten { .. })
    }
}

/// Attempt the group-by-before-join transformation on `block`.
///
/// `fd_ctx` must register every FROM relation of the block under its
/// query qualifier (see [`FdContext::add_table`]). The function:
///
/// 1. refuses blocks with HAVING (Section 3's standing assumption);
/// 2. partitions the FROM clause (minimal first, Section 9 fallback on
///    demand);
/// 3. runs `TestFD` (optionally strengthened with Theorem-3 constraint
///    atoms);
/// 4. on YES, constructs the `E2` block.
pub fn eager_aggregate(
    block: &QueryBlock,
    fd_ctx: &FdContext,
    options: &TransformOptions,
) -> Result<EagerOutcome> {
    block.validate()?;
    if block.having.is_some() {
        return Ok(EagerOutcome::NotApplicable {
            reason: "query has a HAVING clause (outside the paper's query class)".into(),
            testfd: None,
        });
    }
    let mut constraints = if options.use_constraint_atoms {
        constraint_conjuncts(fd_ctx)
    } else {
        vec![]
    };
    constraints.extend(options.extra_conjuncts.iter().cloned());

    // Candidate blocks: the query as written, then (Section 9) its
    // column-substituted equivalents.
    let mut blocks: Vec<QueryBlock> = vec![block.clone()];
    if options.try_column_substitution {
        blocks.extend(crate::substitute::substitution_candidates(block));
    }

    let mut last_trace = None;
    let mut any_partition = false;
    for candidate_block in &blocks {
        let candidates = if options.try_repartition {
            Partition::candidates(candidate_block, options.max_repartition_relations)
        } else {
            match Partition::minimal(candidate_block) {
                Ok(p) => vec![p],
                Err(_) => vec![],
            }
        };
        any_partition |= !candidates.is_empty();
        for partition in candidates {
            let outcome = test_fd(&partition, fd_ctx, &constraints);
            if outcome.valid {
                let rewritten = build_e2(candidate_block, &partition, &options.derived_alias)?;
                return Ok(EagerOutcome::Rewritten {
                    block: rewritten,
                    partition,
                    testfd: outcome.trace,
                });
            }
            last_trace = Some(outcome.trace);
        }
    }
    if !any_partition {
        let reason = match Partition::minimal(block) {
            Err(e) => e.to_string(),
            Ok(_) => "no candidate partition".to_string(),
        };
        return Ok(EagerOutcome::NotApplicable {
            reason,
            testfd: None,
        });
    }
    Ok(EagerOutcome::NotApplicable {
        reason: "TestFD answered NO for every candidate partition".into(),
        testfd: last_trace,
    })
}

/// Build the `E2` block for a partition that passed TestFD.
fn build_e2(block: &QueryBlock, p: &Partition, derived_alias: &str) -> Result<QueryBlock> {
    let in_r1 = |q: &str| p.r1.iter().any(|r| r.eq_ignore_ascii_case(q));

    // --- Inner block: SELECT GA1+, F(AA) FROM R1 WHERE C1 GROUP BY GA1+.
    let r1_relations: Vec<BlockRelation> = block
        .relations
        .iter()
        .filter(|r| in_r1(r.qualifier()))
        .cloned()
        .collect();
    if r1_relations.is_empty() {
        return Err(Error::Internal("empty R1 side after partition".into()));
    }

    // Output names of the inner block: GA1+ columns as `{qual}_{col}`,
    // aggregates under their original aliases, all unique.
    let mut used_names: Vec<String> = Vec::new();
    let mut unique = |base: String| -> String {
        let mut name = base;
        while used_names.iter().any(|n| n.eq_ignore_ascii_case(&name)) {
            name.push('_');
        }
        used_names.push(name.clone());
        name
    };

    let mut col_alias: BTreeMap<ColumnRef, String> = BTreeMap::new();
    let mut inner_select = Vec::new();
    for col in p.ga1_plus_ordered() {
        let qual = col.table.clone().unwrap_or_default();
        let alias = unique(format!("{qual}_{}", col.column));
        col_alias.insert(col.clone(), alias.clone());
        inner_select.push(SelectItem::Column {
            col: col.clone(),
            alias,
        });
    }
    let mut agg_alias: Vec<String> = Vec::new();
    for (i, (_, alias)) in block.aggregates.iter().enumerate() {
        let name = unique(alias.clone());
        agg_alias.push(name);
        inner_select.push(SelectItem::Aggregate { index: i });
    }
    // If an aggregate alias collided and was renamed, rename it in the
    // inner aggregates list too.
    let inner_aggregates: Vec<_> = block
        .aggregates
        .iter()
        .zip(&agg_alias)
        .map(|((call, _), name)| (call.clone(), name.clone()))
        .collect();

    let inner = QueryBlock {
        relations: r1_relations,
        predicate: p.parts.c1.clone(),
        group_by: p.ga1_plus_ordered(),
        aggregates: inner_aggregates,
        select: inner_select,
        distinct: false,
        having: None,
    };
    inner.validate()?;

    // --- Outer block.
    // Re-root R1-side columns onto the derived alias.
    let map_col = |c: &ColumnRef| -> ColumnRef {
        match &c.table {
            Some(t) if in_r1(t) => match col_alias.get(c) {
                Some(alias) => ColumnRef::qualified(derived_alias, alias.clone()),
                None => c.clone(), // cannot happen for C0/select columns
            },
            _ => c.clone(),
        }
    };

    let mut relations = Vec::with_capacity(1 + p.r2.len());
    relations.push(BlockRelation::Derived {
        block: Box::new(inner),
        qualifier: derived_alias.to_string(),
    });
    for r in &block.relations {
        if !in_r1(r.qualifier()) {
            relations.push(r.clone());
        }
    }

    let mut predicate: Vec<Expr> = Vec::new();
    for c0 in &p.parts.c0 {
        predicate.push(c0.map_columns(&map_col));
    }
    predicate.extend(p.parts.c2.iter().cloned());
    predicate.extend(p.parts.constant.iter().cloned());

    let select: Vec<SelectItem> = block
        .select
        .iter()
        .map(|item| match item {
            SelectItem::Column { col, alias } => Ok(SelectItem::Column {
                col: map_col(col),
                alias: alias.clone(),
            }),
            SelectItem::Aggregate { index } => {
                let (inner_alias, (_, outer_alias)) = agg_alias
                    .get(*index)
                    .zip(block.aggregates.get(*index))
                    .ok_or_else(|| {
                        Error::Internal(format!(
                            "select item references unknown aggregate #{index}"
                        ))
                    })?;
                Ok(SelectItem::Column {
                    col: ColumnRef::qualified(derived_alias, inner_alias.clone()),
                    alias: outer_alias.clone(),
                })
            }
        })
        .collect::<Result<_>>()?;

    let outer = QueryBlock {
        relations,
        predicate,
        group_by: vec![],
        aggregates: vec![],
        select,
        distinct: block.distinct,
        having: None,
    };
    outer.validate()?;
    Ok(outer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_catalog::{ColumnDef, Constraint, TableDef};
    use gbj_expr::{AggregateCall, AggregateFunction};
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

    fn emp_dept() -> (QueryBlock, FdContext) {
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
        b.group_by = vec![
            ColumnRef::qualified("D", "DeptID"),
            ColumnRef::qualified("D", "Name"),
        ];
        b.aggregates = vec![(
            AggregateCall::new(AggregateFunction::Count, Expr::col("E", "EmpID")),
            "cnt".into(),
        )];
        b.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("D", "DeptID"),
                alias: "DeptID".into(),
            },
            SelectItem::Column {
                col: ColumnRef::qualified("D", "Name"),
                alias: "Name".into(),
            },
            SelectItem::Aggregate { index: 0 },
        ];

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
            .unwrap(),
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
            .unwrap(),
        );
        (b, ctx)
    }

    /// The paper's Example 1: the rewrite must produce Plan 2's shape —
    /// group Employee by DeptID first, then join with Department.
    #[test]
    fn example1_rewrites_to_plan2_shape() {
        let (b, ctx) = emp_dept();
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        let EagerOutcome::Rewritten {
            block, partition, ..
        } = out
        else {
            panic!("expected a rewrite");
        };

        // Partition: R1 = {E}, R2 = {D}; GA1+ = {E.DeptID}.
        assert!(partition.r1.contains("E"));
        assert!(partition.r2.contains("D"));
        assert_eq!(
            partition.ga1_plus_ordered(),
            vec![ColumnRef::qualified("E", "DeptID")]
        );

        // Outer block: derived G1 + Department, joined on G1.E_DeptID.
        assert_eq!(block.relations.len(), 2);
        assert!(block.relations[0].is_derived());
        assert_eq!(block.relations[0].qualifier(), "G1");
        assert!(block.group_by.is_empty());
        assert!(block.aggregates.is_empty());
        let pred = block.predicate_expr().unwrap().to_string();
        assert_eq!(pred, "(G1.E_DeptID = D.DeptID)");

        // Inner block: Employee grouped by E.DeptID with the COUNT.
        let BlockRelation::Derived { block: inner, .. } = &block.relations[0] else {
            unreachable!()
        };
        assert_eq!(inner.group_by, vec![ColumnRef::qualified("E", "DeptID")]);
        assert_eq!(inner.aggregates.len(), 1);
        assert_eq!(inner.aggregates[0].1, "cnt");
        assert!(inner.predicate.is_empty(), "C1 is empty in Example 1");

        // The whole thing lowers to a valid plan with the aggregate
        // *below* the join.
        let tree = block.lower(&[]).unwrap().display_tree();
        let agg_pos = tree.find("Aggregate").unwrap();
        let join_pos = tree.find("Join").unwrap();
        assert!(
            agg_pos > join_pos,
            "aggregate must appear deeper than the join:\n{tree}"
        );
        // Output schema matches the original.
        let orig = b.output_schema().unwrap();
        let new = block.output_schema().unwrap();
        assert_eq!(orig.len(), new.len());
        for (a, bfield) in orig.fields().iter().zip(new.fields()) {
            assert_eq!(a.name, bfield.name);
            assert_eq!(a.data_type, bfield.data_type);
        }
    }

    #[test]
    fn having_blocks_the_rewrite() {
        let (mut b, ctx) = emp_dept();
        b.having = Some(Expr::bare("cnt").binary(gbj_expr::BinaryOp::Gt, Expr::lit(1i64)));
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        match out {
            EagerOutcome::NotApplicable { reason, .. } => {
                assert!(reason.contains("HAVING"));
            }
            EagerOutcome::Rewritten { .. } => panic!("HAVING must block the rewrite"),
        }
    }

    #[test]
    fn failing_testfd_reports_not_applicable_with_trace() {
        let (mut b, ctx) = emp_dept();
        // Group by the non-key Name only: FD2 cannot be derived.
        b.group_by = vec![ColumnRef::qualified("D", "Name")];
        b.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("D", "Name"),
                alias: "Name".into(),
            },
            SelectItem::Aggregate { index: 0 },
        ];
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        match out {
            EagerOutcome::NotApplicable { testfd, .. } => {
                assert!(testfd.is_some());
            }
            EagerOutcome::Rewritten { .. } => panic!("must not rewrite"),
        }
    }

    #[test]
    fn distinct_is_preserved_on_the_outer_block() {
        let (mut b, ctx) = emp_dept();
        b.distinct = true;
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        let block = out.block().expect("rewrite");
        assert!(block.distinct);
        let BlockRelation::Derived { block: inner, .. } = &block.relations[0] else {
            unreachable!()
        };
        assert!(!inner.distinct, "inner aggregation is an ALL projection");
    }

    #[test]
    fn select_subset_of_grouping_columns_is_supported() {
        // Theorem 2: select only D.Name (a subset of GROUP BY).
        let (mut b, ctx) = emp_dept();
        b.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("D", "Name"),
                alias: "Name".into(),
            },
            SelectItem::Aggregate { index: 0 },
        ];
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        let block = out.block().expect("rewrite");
        let s = block.output_schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(0).name, "Name");
        assert_eq!(s.field(1).name, "cnt");
    }

    #[test]
    fn constraint_atoms_can_rescue_the_rewrite() {
        // Group by D.Name only: a UNIQUE(Name) constraint makes Name a
        // candidate key of Department, so FD2 holds — when Name is NOT
        // NULL. A nullable UNIQUE admits two departments named NULL,
        // which form one =ⁿ group over two RowIDs: no key.
        let (mut b, _) = emp_dept();
        b.group_by = vec![ColumnRef::qualified("D", "Name")];
        b.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("D", "Name"),
                alias: "Name".into(),
            },
            SelectItem::Aggregate { index: 0 },
        ];
        let ctx_with = |name: ColumnDef| {
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
                .unwrap(),
            );
            ctx.add_table(
                "D",
                TableDef::new(
                    "Department",
                    vec![ColumnDef::new("DeptID", DataType::Int64), name],
                )
                .with_constraint(Constraint::PrimaryKey(vec!["DeptID".into()]))
                .with_constraint(Constraint::Unique(vec!["Name".into()]))
                .validate()
                .unwrap(),
            );
            ctx
        };
        let opts = TransformOptions::default();
        let not_null = ctx_with(ColumnDef::new("Name", DataType::Utf8).not_null());
        let out = eager_aggregate(&b, &not_null, &opts).unwrap();
        assert!(
            out.is_rewritten(),
            "UNIQUE(Name) over a NOT NULL Name makes Name a candidate key, so FD2 holds"
        );
        let nullable = ctx_with(ColumnDef::new("Name", DataType::Utf8));
        let out = eager_aggregate(&b, &nullable, &opts).unwrap();
        assert!(
            !out.is_rewritten(),
            "UNIQUE(Name) over a nullable Name is no key"
        );
    }

    #[test]
    fn rewritten_block_handles_alias_collisions() {
        // An aggregate alias that collides with the mangled GA1+ name.
        let (mut b, ctx) = emp_dept();
        b.aggregates[0].1 = "E_DeptID".into();
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        let block = out.block().expect("rewrite");
        // Unique names: validation succeeded, and the output schema
        // still names the aggregate by the user's alias.
        let s = block.output_schema().unwrap();
        assert_eq!(s.field(2).name, "E_DeptID");
        block.lower(&[]).unwrap();
    }

    #[test]
    fn no_aggregates_not_applicable() {
        let (mut b, ctx) = emp_dept();
        b.aggregates.clear();
        b.select.retain(|s| matches!(s, SelectItem::Column { .. }));
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        match out {
            EagerOutcome::NotApplicable { reason, .. } => {
                assert!(reason.contains("aggregate"));
            }
            EagerOutcome::Rewritten { .. } => panic!(),
        }
    }
}

#[cfg(test)]
mod substitution_integration_tests {
    use super::*;
    use gbj_catalog::{ColumnDef, Constraint, TableDef};
    use gbj_expr::{AggregateCall, AggregateFunction};
    use gbj_plan::{BlockRelation, SelectItem};
    use gbj_types::{DataType, Field, Schema};

    /// `COUNT(D.DeptID)` — an aggregation column on what should be the
    /// R2 side — is only transformable via Section 9 substitution to
    /// `COUNT(E.DeptID)`.
    #[test]
    fn substitution_enables_the_rewrite() {
        let schema = |q: &str, cols: &[&str]| {
            Schema::new(
                cols.iter()
                    .map(|n| Field::new(*n, DataType::Int64, true).with_qualifier(q))
                    .collect(),
            )
        };
        let mut b = QueryBlock::new(vec![
            BlockRelation::Base {
                table: "Employee".into(),
                qualifier: "E".into(),
                schema: schema("E", &["EmpID", "DeptID"]),
            },
            BlockRelation::Base {
                table: "Department".into(),
                qualifier: "D".into(),
                schema: schema("D", &["DeptID", "Budget"]),
            },
        ]);
        b.predicate = vec![Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID"))];
        b.group_by = vec![ColumnRef::qualified("D", "DeptID")];
        b.aggregates = vec![(
            AggregateCall::new(AggregateFunction::Count, Expr::col("D", "DeptID")),
            "n".into(),
        )];
        b.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("D", "DeptID"),
                alias: "DeptID".into(),
            },
            SelectItem::Aggregate { index: 0 },
        ];

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
            .unwrap(),
        );
        ctx.add_table(
            "D",
            TableDef::new(
                "Department",
                vec![
                    ColumnDef::new("DeptID", DataType::Int64),
                    ColumnDef::new("Budget", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["DeptID".into()]))
            .validate()
            .unwrap(),
        );

        // Without substitution: both relations carry aggregation
        // columns… actually D is the only one — R1 = {D}, R2 = {E},
        // and FD2 needs a key of E from {D.DeptID}: refused.
        let no_subst = TransformOptions {
            try_column_substitution: false,
            ..TransformOptions::default()
        };
        let out = eager_aggregate(&b, &ctx, &no_subst).unwrap();
        assert!(!out.is_rewritten(), "without §9 the rewrite must fail");

        // With substitution: COUNT(D.DeptID) → COUNT(E.DeptID), R1 = {E}.
        let out = eager_aggregate(&b, &ctx, &TransformOptions::default()).unwrap();
        let EagerOutcome::Rewritten {
            block, partition, ..
        } = out
        else {
            panic!("substitution should enable the rewrite");
        };
        assert!(partition.r1.contains("E"));
        let BlockRelation::Derived { block: inner, .. } = &block.relations[0] else {
            panic!("derived aggregate side expected");
        };
        assert_eq!(
            inner.aggregates[0].0.arg.as_ref().unwrap(),
            &Expr::col("E", "DeptID"),
            "the aggregate argument was substituted"
        );
    }
}
