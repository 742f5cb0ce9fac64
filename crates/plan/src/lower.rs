//! Lowering a [`QueryBlock`] to the executable [`LogicalPlan`], in one
//! pass.
//!
//! A block is the paper's §4.1 normal form `F[AA] π[GA, AA] σ[C1 ∧ C0 ∧
//! C2](R1 × R2 × …)` with the WHERE conjuncts already split, so the plan
//! is built in its final shape directly:
//!
//! * a conjunct over one relation filters that relation (the first one
//!   that resolves it); several on one relation are conjoined last-first;
//! * the relations join left-deep in a greedy *connected* order: the next
//!   one joined is the first in FROM order that some remaining conjunct
//!   links to the prefix, and a Cartesian product appears only when the
//!   query graph is disconnected (§7 notes the rewrite fixes only that
//!   all of `R1` joins before the grouping; ordering the rest is free).
//!   Each join's condition is the conjuncts that first become evaluable
//!   there, in WHERE order;
//! * column-free conjuncts end the top join's condition (a product on top
//!   becomes `Join on (1 = 1)`); a one-relation block keeps its WHERE
//!   clause as one filter, as written;
//! * the grouping, HAVING, the select-list projection and ORDER BY (a
//!   `Sort` on output names) go on top;
//! * one top-down walk then prunes columns ([`prune`]).

use std::collections::BTreeSet;

use gbj_expr::{conjuncts, Expr};
use gbj_types::{ColumnRef, Error, Result, Schema};

use crate::block::{BlockRelation, QueryBlock, SelectItem};
use crate::plan::LogicalPlan;

impl QueryBlock {
    /// Lower the block to a validated plan, sorted by `order_by` (keys
    /// are output columns, referenced by bare name so both candidate
    /// shapes resolve them).
    pub fn lower(&self, order_by: &[(ColumnRef, bool)]) -> Result<LogicalPlan> {
        let mut plan = self.build()?;
        if !order_by.is_empty() {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys: order_by
                    .iter()
                    .map(|(c, asc)| (Expr::bare(c.column.clone()), *asc))
                    .collect(),
            };
        }
        let plan = prune(plan, None);
        plan.validate()?;
        Ok(plan)
    }

    /// The block's plan before pruning.
    fn build(&self) -> Result<LogicalPlan> {
        let mut leaves = Vec::with_capacity(self.relations.len());
        for r in &self.relations {
            leaves.push(match r {
                BlockRelation::Base {
                    table,
                    qualifier,
                    schema,
                } => LogicalPlan::Scan {
                    table: table.clone(),
                    qualifier: qualifier.clone(),
                    schema: schema.clone(),
                },
                BlockRelation::Derived { block, qualifier } => LogicalPlan::SubqueryAlias {
                    input: Box::new(block.build()?),
                    alias: qualifier.clone(),
                },
            });
        }
        let exprs = self.projection()?;
        let mut plan = match <[LogicalPlan; 1]>::try_from(leaves) {
            Ok([leaf]) => match self.predicate_expr() {
                Some(predicate) => LogicalPlan::Filter {
                    input: Box::new(leaf),
                    predicate,
                },
                None => leaf,
            },
            Err(leaves) => self.join(leaves)?,
        };
        if self.is_aggregating() {
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: self.group_by.iter().cloned().map(Expr::Column).collect(),
                aggregates: self.aggregates.clone(),
            };
            if let Some(h) = &self.having {
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: h.clone(),
                };
            }
        }
        Ok(LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            distinct: self.distinct,
        })
    }

    /// The select list as the top projection's expressions, once the
    /// block is known to have relations.
    pub(crate) fn projection(&self) -> Result<Vec<(Expr, String)>> {
        if self.relations.is_empty() {
            return Err(Error::Plan("query block has no relations".into()));
        }
        let exprs: Vec<(Expr, String)> = self
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Column { col, alias } => Ok((Expr::Column(col.clone()), alias.clone())),
                SelectItem::Aggregate { index } => {
                    let (_, alias) = self.aggregates.get(*index).ok_or_else(|| {
                        Error::Plan(format!("select item references unknown aggregate #{index}"))
                    })?;
                    Ok((Expr::Column(ColumnRef::bare(alias.clone())), alias.clone()))
                }
            })
            .collect::<Result<_>>()?;
        if exprs.is_empty() {
            return Err(Error::Plan("query block has an empty select list".into()));
        }
        Ok(exprs)
    }

    /// Join two or more relations (`leaves`, in FROM order) under the
    /// WHERE conjuncts.
    fn join(&self, leaves: Vec<LogicalPlan>) -> Result<LogicalPlan> {
        let mut pending = Vec::with_capacity(leaves.len());
        for (leaf, r) in leaves.into_iter().zip(&self.relations) {
            pending.push((leaf, r.schema()?, Vec::new()));
        }
        let mut loose = Vec::new();
        let mut remaining = Vec::new();
        for p in self.predicate.iter().flat_map(conjuncts) {
            if p.columns().is_empty() {
                loose.push(p);
            } else if let Some((_, _, own)) = pending.iter_mut().find(|(_, s, _)| covers(s, &p)) {
                own.push(p);
            } else {
                remaining.push(p);
            }
        }
        let mut pending: Vec<(LogicalPlan, Schema)> = pending
            .into_iter()
            .map(|(leaf, schema, own)| {
                let leaf = match own.into_iter().rev().reduce(Expr::and) {
                    Some(predicate) => LogicalPlan::Filter {
                        input: Box::new(leaf),
                        predicate,
                    },
                    None => leaf,
                };
                (leaf, schema)
            })
            .collect();

        let (mut plan, mut schema) = pending.remove(0);
        while !pending.is_empty() {
            let pick = pending
                .iter()
                .position(|(_, s)| {
                    let joined = schema.join(s);
                    remaining
                        .iter()
                        .any(|p| covers(&joined, p) && !covers(&schema, p) && !covers(s, p))
                })
                .unwrap_or(0);
            let (leaf, leaf_schema) = pending.remove(pick);
            schema = schema.join(&leaf_schema);
            let (mut conds, rest): (Vec<Expr>, Vec<Expr>) =
                remaining.into_iter().partition(|p| covers(&schema, p));
            remaining = rest;
            if pending.is_empty() {
                conds.append(&mut loose);
                conds.append(&mut remaining);
            }
            plan = match Expr::conjunction(conds) {
                Some(condition) => LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(leaf),
                    condition,
                },
                None => LogicalPlan::CrossJoin {
                    left: Box::new(plan),
                    right: Box::new(leaf),
                },
            };
        }
        Ok(plan)
    }
}

/// Whether `p` has columns and `schema` resolves them all.
fn covers(schema: &Schema, p: &Expr) -> bool {
    let cols = p.columns();
    !cols.is_empty() && cols.iter().all(|c| schema.contains(c))
}

/// Needed column *names* (lower-cased). `None` means "everything".
type Needed = Option<BTreeSet<String>>;

fn names_of<'a>(exprs: impl IntoIterator<Item = &'a Expr>) -> BTreeSet<String> {
    exprs
        .into_iter()
        .flat_map(Expr::columns)
        .map(|c| c.column.to_ascii_lowercase())
        .collect()
}

/// Put a projection above each scan keeping only the columns some
/// operator above needs — the paper's Lemma 1 (`π[GA2+] σ[C2] R2`)
/// generalised. Names are matched bare; a `COUNT(*)`-only aggregate
/// needs every column below it; a projection directly over a scan is
/// already the pruning projection; a derived block is pruned under its
/// own projection.
fn prune(plan: LogicalPlan, needed: Needed) -> LogicalPlan {
    let add = |needed: Needed, names: BTreeSet<String>| {
        needed.map(|mut n| {
            n.extend(names);
            n
        })
    };
    match plan {
        LogicalPlan::Scan { ref schema, .. } => {
            let Some(needed) = needed else {
                return plan;
            };
            let exprs: Vec<(Expr, String)> = schema
                .fields()
                .iter()
                .filter(|f| needed.contains(&f.name.to_ascii_lowercase()))
                .map(|f| (Expr::Column(f.column_ref()), f.name.clone()))
                .collect();
            if exprs.is_empty() || exprs.len() == schema.len() {
                return plan;
            }
            LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                distinct: false,
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            distinct,
        } => {
            let input = if matches!(*input, LogicalPlan::Scan { .. }) {
                input
            } else {
                let names = names_of(exprs.iter().map(|(e, _)| e));
                Box::new(prune(*input, Some(names)))
            };
            LogicalPlan::Project {
                input,
                exprs,
                distinct,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let needed = add(needed, names_of([&predicate]));
            LogicalPlan::Filter {
                input: Box::new(prune(*input, needed)),
                predicate,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let names = names_of(
                group_by
                    .iter()
                    .chain(aggregates.iter().filter_map(|(call, _)| call.arg.as_ref())),
            );
            let needed = (!names.is_empty()).then_some(names);
            LogicalPlan::Aggregate {
                input: Box::new(prune(*input, needed)),
                group_by,
                aggregates,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            let needed = add(needed, names_of([&condition]));
            LogicalPlan::Join {
                left: Box::new(prune(*left, needed.clone())),
                right: Box::new(prune(*right, needed)),
                condition,
            }
        }
        LogicalPlan::CrossJoin { left, right } => LogicalPlan::CrossJoin {
            left: Box::new(prune(*left, needed.clone())),
            right: Box::new(prune(*right, needed)),
        },
        LogicalPlan::SubqueryAlias { input, alias } => LogicalPlan::SubqueryAlias {
            input: Box::new(prune(*input, needed)),
            alias,
        },
        LogicalPlan::Sort { input, keys } => {
            let needed = add(needed, names_of(keys.iter().map(|(e, _)| e)));
            LogicalPlan::Sort {
                input: Box::new(prune(*input, needed)),
                keys,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::{AggregateCall, AggregateFunction, BinaryOp};
    use gbj_types::{DataType, Field};

    fn base(q: &str, cols: &[&str]) -> BlockRelation {
        BlockRelation::Base {
            table: q.to_string(),
            qualifier: q.to_string(),
            schema: Schema::new(
                cols.iter()
                    .map(|c| Field::new(*c, DataType::Int64, true).with_qualifier(q))
                    .collect(),
            ),
        }
    }

    fn column(q: &str, c: &str) -> SelectItem {
        SelectItem::Column {
            col: ColumnRef::qualified(q, c),
            alias: c.to_string(),
        }
    }

    fn gt(q: &str, c: &str, v: i64) -> Expr {
        Expr::col(q, c).binary(BinaryOp::Gt, Expr::lit(v))
    }

    fn lowered(block: &QueryBlock) -> String {
        block.lower(&[]).unwrap().display_tree()
    }

    /// `FROM P, U, A` with U↔A and A↔P conjuncts: the textual order
    /// would start with `P × U`; the connected order joins A next.
    #[test]
    fn joins_connected_relations_first() {
        let mut b = QueryBlock::new(vec![
            base("P", &["pno"]),
            base("U", &["uid"]),
            base("A", &["uid", "pno"]),
        ]);
        b.predicate = vec![
            Expr::col("U", "uid").eq(Expr::col("A", "uid")),
            Expr::col("A", "pno").eq(Expr::col("P", "pno")),
        ];
        b.select = vec![column("U", "uid")];
        assert_eq!(
            lowered(&b),
            "Project U.uid\n  \
             Join on (U.uid = A.uid)\n    \
             Join on (A.pno = P.pno)\n      \
             Scan P\n      \
             Scan A\n    \
             Scan U\n"
        );
    }

    /// A relation no conjunct reaches joins by a product, last.
    #[test]
    fn a_disconnected_relation_joins_by_one_product() {
        let mut b = QueryBlock::new(vec![
            base("A", &["x"]),
            base("C", &["y"]),
            base("B", &["x"]),
        ]);
        b.predicate = vec![Expr::col("A", "x").eq(Expr::col("B", "x"))];
        b.select = vec![column("C", "y")];
        assert_eq!(
            lowered(&b),
            "Project C.y\n  \
             CrossJoin\n    \
             Join on (A.x = B.x)\n      \
             Scan A\n      \
             Scan B\n    \
             Scan C\n"
        );
    }

    /// Single-relation conjuncts filter their relation, last-first;
    /// column-free ones end the top join's condition.
    #[test]
    fn conjuncts_land_where_they_first_evaluate() {
        let mut b = QueryBlock::new(vec![base("A", &["x", "v"]), base("B", &["x"])]);
        let one = Expr::lit(1i64).eq(Expr::lit(1i64));
        b.predicate = vec![
            gt("A", "v", 0),
            one.clone(),
            Expr::col("A", "x").eq(Expr::col("B", "x")),
            gt("A", "x", 5),
        ];
        b.select = vec![column("B", "x")];
        assert_eq!(
            lowered(&b),
            "Project B.x\n  \
             Join on ((A.x = B.x) AND (1 = 1))\n    \
             Filter ((A.x > 5) AND (A.v > 0))\n      \
             Scan A\n    \
             Scan B\n"
        );
        // Without a join predicate the product on top becomes a join
        // on the column-free conjunct; one relation keeps its WHERE
        // clause as written.
        b.predicate = vec![one.clone()];
        assert!(
            lowered(&b).contains("\n  Join on (1 = 1)\n"),
            "{}",
            lowered(&b)
        );
        let mut single = QueryBlock::new(vec![base("A", &["x", "v"])]);
        single.predicate = vec![gt("A", "v", 0), one];
        single.select = vec![column("A", "x")];
        assert_eq!(
            lowered(&single),
            "Project A.x\n  \
             Filter ((A.v > 0) AND (1 = 1))\n    \
             Scan A\n"
        );
    }

    /// Lemma 1's `π[GA2+]`: each scan keeps the columns used above it,
    /// and a `COUNT(*)`-only aggregate needs every column below it.
    #[test]
    fn scans_are_pruned_to_the_columns_used_above() {
        let mut b = QueryBlock::new(vec![
            base("E", &["id", "d", "name"]),
            base("D", &["d", "b"]),
        ]);
        b.predicate = vec![Expr::col("E", "d").eq(Expr::col("D", "d"))];
        b.group_by = vec![ColumnRef::qualified("D", "d")];
        b.aggregates = vec![(
            AggregateCall::new(AggregateFunction::Count, Expr::col("E", "id")),
            "cnt".into(),
        )];
        b.select = vec![column("D", "d"), SelectItem::Aggregate { index: 0 }];
        assert_eq!(
            lowered(&b),
            "Project D.d, cnt\n  \
             Aggregate groupBy=[D.d] aggs=[COUNT(E.id) AS cnt]\n    \
             Join on (E.d = D.d)\n      \
             Project E.id, E.d\n        \
             Scan E\n      \
             Project D.d\n        \
             Scan D\n"
        );
        b.group_by.clear();
        b.aggregates = vec![(AggregateCall::count_star(), "n".into())];
        b.select = vec![SelectItem::Aggregate { index: 0 }];
        assert!(!lowered(&b).contains("Project E"), "{}", lowered(&b));
    }

    /// ORDER BY sorts the output by bare name, above the projection.
    #[test]
    fn order_by_sorts_on_top() {
        let mut b = QueryBlock::new(vec![base("A", &["x", "v"])]);
        b.select = vec![column("A", "x")];
        let plan = b.lower(&[(ColumnRef::qualified("A", "x"), false)]).unwrap();
        assert_eq!(
            plan.display_tree(),
            "Sort x DESC\n  \
             Project A.x\n    \
             Scan A\n"
        );
    }

    /// The lowering validates what it builds.
    #[test]
    fn a_non_boolean_predicate_is_rejected() {
        let mut b = QueryBlock::new(vec![base("A", &["x"]), base("B", &["x"])]);
        b.predicate = vec![Expr::col("A", "x").binary(BinaryOp::Add, Expr::col("B", "x"))];
        b.select = vec![column("A", "x")];
        let err = b.lower(&[]).unwrap_err();
        assert!(err.message().contains("join condition"), "{err}");
    }
}
