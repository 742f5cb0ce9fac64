//! Where rows live and what must move: the one partition tracker.
//!
//! A plan that runs over hash-partitioned data needs one decision per
//! operator input — may the rows stay where they are, or must they be
//! re-routed first? [`distribute`] makes that decision for a whole plan
//! and returns it as a [`Distribution`], a tree shape-congruent with
//! the plan. The chunk pipeline (`gbj_exec::pipeline`) *executes* the
//! tree's [`Movement`]s as breakers and the optimizer's shipped-rows
//! predictor
//! (`gbj_optimizer::distributed`) *prices* them, so a prediction and a
//! measurement can only disagree about cardinalities, never about
//! which exchanges happen.
//!
//! The rules: a declared partition key makes a scan hash-partitioned on
//! it; filters and aliases keep their input's placement; a projection
//! or a co-located grouping keeps the key variants whose columns it
//! passes through; an equi join repartitions each side on its key
//! columns unless the side is already routed exactly that way; a
//! grouped aggregate stays put when some key variant is a subset of its
//! grouping columns (equal group ⇒ equal partition key ⇒ same shard),
//! otherwise repartitions on the grouping columns — or, below a join
//! with the combiner enabled, ships one partial per group per origin
//! shard instead; DISTINCT repartitions on the whole projected row;
//! scalar aggregates and sorts gather to one shard.
//!
//! **NULLs.** Every repartition routes on `GroupKey::shard`, i.e. under
//! `=ⁿ`: all NULL keys land on one part, `GroupKey(vec![Null]).shard(n)`
//! of the fixed-seed `gbj_types::stream_hash` — the same part in every
//! run. That is what a grouping or DISTINCT exchange needs (NULL is one
//! group). It is also why a movement can ship nothing: when every row
//! already sits on that part, none leaves it, though the movement still
//! happens and is still priced. A join key compares under 3VL instead —
//! a NULL key matches nothing — so where its NULL rows land is
//! irrelevant; they are routed, never joined.
//! [`Movement::Combine`] is sound only for the FD1/FD2-certified eager
//! pre-aggregation, which is why the caller, not this module, decides
//! the `combiner` flag.

use gbj_expr::{conjuncts, BinaryOp, Expr};
use gbj_types::Schema;

use crate::plan::LogicalPlan;

/// An equi-join key pair: ordinal in the left schema, ordinal in the
/// right schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquiKey {
    /// Left-side column ordinal.
    pub left: usize,
    /// Right-side column ordinal.
    pub right: usize,
}

/// Split a join condition into equi-key pairs and a residual predicate.
///
/// A conjunct `a = b` becomes an [`EquiKey`] when one side resolves in
/// the left schema and the other in the right schema; everything else
/// stays in the residual.
#[must_use]
pub fn split_equi_keys(
    condition: &Expr,
    left: &Schema,
    right: &Schema,
) -> (Vec<EquiKey>, Vec<Expr>) {
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in conjuncts(condition) {
        if let Expr::Binary {
            left: l,
            op: BinaryOp::Eq,
            right: r,
        } = &conjunct
        {
            if let (Expr::Column(lc), Expr::Column(rc)) = (l.as_ref(), r.as_ref()) {
                // Either orientation: `L.a = R.b` or `R.b = L.a`.
                let pair = match (left.index_of(lc), right.index_of(rc)) {
                    (Ok(li), Ok(ri)) => Some((li, ri)),
                    _ => left.index_of(rc).ok().zip(right.index_of(lc).ok()),
                };
                if let Some((li, ri)) = pair {
                    keys.push(EquiKey {
                        left: li,
                        right: ri,
                    });
                    continue;
                }
            }
        }
        residual.push(conjunct);
    }
    (keys, residual)
}

/// How one relation's rows are spread across the shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// Hash-partitioned on any of these equivalent ordinal vectors
    /// (e.g. after an equi join, both sides' key columns).
    Hash(Vec<Vec<usize>>),
    /// Unknown placement (round-robin scans, projected-away keys).
    Arbitrary,
    /// Everything on shard 0 (after a gather).
    Single,
}

impl Partitioning {
    /// The first key variant rows are hashed on, if any — what a scan
    /// partitions its table by.
    #[must_use]
    pub fn key(&self) -> Option<&[usize]> {
        match self {
            Partitioning::Hash(variants) => variants.first().map(Vec::as_slice),
            Partitioning::Arbitrary | Partitioning::Single => None,
        }
    }

    /// Whether rows are already routed exactly as a repartition on
    /// `ords` would route them (same key sequence, same hash).
    fn routed_on(&self, ords: &[usize]) -> bool {
        matches!(self, Partitioning::Hash(variants) if variants.iter().any(|v| v == ords))
    }

    /// Whether rows that agree on `ords` already share a shard: all
    /// rows sit on one shard, or some key variant is a subset of `ords`.
    fn colocates(&self, ords: &[usize]) -> bool {
        match self {
            Partitioning::Single => true,
            Partitioning::Arbitrary => false,
            Partitioning::Hash(variants) => variants
                .iter()
                .any(|key| key.iter().all(|o| ords.contains(o))),
        }
    }

    /// The placement after a projection or grouping whose output
    /// position `j` passes input column `outputs[j]` through (`None`
    /// for a computed column): a key variant survives iff every one of
    /// its columns is passed through (first output position wins).
    fn remap(&self, outputs: &[Option<usize>]) -> Partitioning {
        let Partitioning::Hash(variants) = self else {
            return self.clone();
        };
        let remapped: Vec<Vec<usize>> = variants
            .iter()
            .filter_map(|key| {
                key.iter()
                    .map(|o| outputs.iter().position(|out| *out == Some(*o)))
                    .collect()
            })
            .collect();
        if remapped.is_empty() {
            Partitioning::Arbitrary
        } else {
            Partitioning::Hash(remapped)
        }
    }
}

/// What happens to one operator input before the operator runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Movement {
    /// Rows are already where the operator needs them.
    Stay,
    /// Re-route every row to the shard the key made of these column
    /// ordinals hashes to. (For a DISTINCT projection the rows that
    /// move are the projected ones, keyed on every output column.)
    Repartition(Vec<usize>),
    /// Aggregate on each origin shard first and ship one partial per
    /// group, routed on these grouping ordinals' values.
    Combine(Vec<usize>),
    /// Concentrate all rows on shard 0.
    Gather,
}

/// The placement decisions for one plan node: where its output lives,
/// one [`Movement`] per input, and the inputs' own distributions, in
/// plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    /// Placement of this node's output rows.
    pub partitioning: Partitioning,
    /// What each input does before this operator runs (one per child).
    pub movements: Vec<Movement>,
    /// The inputs' distributions (one per child).
    pub children: Vec<Distribution>,
}

impl Distribution {
    /// Input `i`'s movement and distribution.
    #[must_use]
    pub fn input(&self, i: usize) -> Option<(&Movement, &Distribution)> {
        self.movements.get(i).zip(self.children.get(i))
    }

    /// A cross or non-equi join: no key to route on, so nothing moves
    /// and nothing is known — `execution_path` refuses such plans.
    fn keyless_join(left: Distribution, right: Distribution) -> Distribution {
        Distribution {
            partitioning: Partitioning::Arbitrary,
            movements: vec![Movement::Stay, Movement::Stay],
            children: vec![left, right],
        }
    }

    fn unary(partitioning: Partitioning, movement: Movement, child: Distribution) -> Distribution {
        Distribution {
            partitioning,
            movements: vec![movement],
            children: vec![child],
        }
    }
}

/// Decide, for every node of `plan`, where its rows live and what each
/// input must do first.
///
/// `combiner` says whether a grouped aggregate below a join may ship
/// partials instead of raw rows (the engine sets it from the FD1/FD2
/// certificate). `partition_key` resolves a base table's declared
/// partition-key ordinals.
#[must_use]
pub fn distribute(
    plan: &LogicalPlan,
    combiner: bool,
    partition_key: &impl Fn(&str) -> Option<Vec<usize>>,
) -> Distribution {
    walk(plan, combiner, partition_key, false)
}

/// The input ordinal a plain column expression passes through.
fn column_ordinal(expr: &Expr, schema: &Schema) -> Option<usize> {
    match expr {
        Expr::Column(c) => schema.index_of(c).ok(),
        _ => None,
    }
}

fn walk(
    plan: &LogicalPlan,
    combiner: bool,
    partition_key: &impl Fn(&str) -> Option<Vec<usize>>,
    under_join: bool,
) -> Distribution {
    let recurse =
        |child: &LogicalPlan, under_join| walk(child, combiner, partition_key, under_join);
    match plan {
        LogicalPlan::Scan { table, .. } => Distribution {
            partitioning: partition_key(table)
                .map_or(Partitioning::Arbitrary, |key| Partitioning::Hash(vec![key])),
            movements: vec![],
            children: vec![],
        },
        LogicalPlan::Filter { input, .. } | LogicalPlan::SubqueryAlias { input, .. } => {
            let child = recurse(input, under_join);
            Distribution::unary(child.partitioning.clone(), Movement::Stay, child)
        }
        LogicalPlan::Project {
            input,
            exprs,
            distinct,
        } => {
            let child = recurse(input, under_join);
            if *distinct {
                // Duplicate elimination is global: co-locate equal
                // output rows (whole row = the `=ⁿ` key).
                let row: Vec<usize> = (0..exprs.len()).collect();
                let partitioning = Partitioning::Hash(vec![row.clone()]);
                return Distribution::unary(partitioning, Movement::Repartition(row), child);
            }
            let partitioning = input.schema().map_or(Partitioning::Arbitrary, |schema| {
                let outputs: Vec<Option<usize>> = exprs
                    .iter()
                    .map(|(e, _)| column_ordinal(e, &schema))
                    .collect();
                child.partitioning.remap(&outputs)
            });
            Distribution::unary(partitioning, Movement::Stay, child)
        }
        LogicalPlan::CrossJoin { left, right } => {
            Distribution::keyless_join(recurse(left, true), recurse(right, true))
        }
        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            let (l, r) = (recurse(left, true), recurse(right, true));
            let (keys, left_arity) = match (left.schema(), right.schema()) {
                (Ok(ls), Ok(rs)) => (split_equi_keys(condition, &ls, &rs).0, ls.len()),
                _ => (vec![], 0),
            };
            if keys.is_empty() {
                return Distribution::keyless_join(l, r);
            }
            let lords: Vec<usize> = keys.iter().map(|k| k.left).collect();
            let rords: Vec<usize> = keys.iter().map(|k| k.right).collect();
            // A side already routed on exactly its key columns (a
            // declared partition key, a combiner's output) stays.
            let side = |part: &Partitioning, ords: &[usize]| {
                if part.routed_on(ords) {
                    Movement::Stay
                } else {
                    Movement::Repartition(ords.to_vec())
                }
            };
            Distribution {
                movements: vec![side(&l.partitioning, &lords), side(&r.partitioning, &rords)],
                partitioning: Partitioning::Hash(vec![
                    lords,
                    rords.iter().map(|o| o + left_arity).collect(),
                ]),
                children: vec![l, r],
            }
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let child = recurse(input, under_join);
            let ords: Option<Vec<usize>> = input.schema().ok().and_then(|schema| {
                group_by
                    .iter()
                    .map(|e| column_ordinal(e, &schema))
                    .collect()
            });
            let on_group_key = || Partitioning::Hash(vec![(0..group_by.len()).collect()]);
            let (movement, partitioning) = match ords {
                Some(ords) if !ords.is_empty() => {
                    if child.partitioning.colocates(&ords) {
                        // Group column i lands at output position i.
                        let outputs: Vec<Option<usize>> = ords.iter().copied().map(Some).collect();
                        (Movement::Stay, child.partitioning.remap(&outputs))
                    } else if combiner && under_join {
                        (Movement::Combine(ords), on_group_key())
                    } else {
                        (Movement::Repartition(ords), on_group_key())
                    }
                }
                // A scalar aggregate is global (one row even over empty
                // input). So is a grouping on anything but plain
                // columns, which `LogicalPlan::schema` rejects.
                _ => (Movement::Gather, Partitioning::Single),
            };
            Distribution::unary(partitioning, movement, child)
        }
        LogicalPlan::Sort { input, .. } => {
            // A global order needs all rows in one place.
            let child = recurse(input, under_join);
            Distribution::unary(Partitioning::Single, Movement::Gather, child)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::{DataType, Field};

    fn scan(table: &str, q: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            qualifier: q.into(),
            schema: Schema::new(
                cols.iter()
                    .map(|c| Field::new(*c, DataType::Int64, true).with_qualifier(q))
                    .collect(),
            ),
        }
    }

    fn fact() -> LogicalPlan {
        scan("Fact", "F", &["FId", "DimId", "Tag"])
    }

    fn dim() -> LogicalPlan {
        scan("Dim", "D", &["DimId", "Cat"])
    }

    fn col(q: &str, c: &str) -> Expr {
        Expr::col(q, c)
    }

    fn project(cols: &[&str], distinct: bool) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(fact()),
            exprs: cols
                .iter()
                .map(|c| (col("F", c), (*c).to_string()))
                .collect(),
            distinct,
        }
    }

    fn join(left: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(dim()),
            condition: col("F", "DimId").eq(col("D", "DimId")),
        }
    }

    fn group(input: LogicalPlan, by: Vec<Expr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: by,
            aggregates: vec![],
        }
    }

    /// Both tables keyed on `DimId`.
    fn declared(table: &str) -> Option<Vec<usize>> {
        match table {
            "Fact" => Some(vec![1]),
            "Dim" => Some(vec![0]),
            _ => None,
        }
    }

    /// One line per tree: `placement<movements>(inputs)`, with `H[1][3]`
    /// a hash placement on either `[1]` or `[3]`, `A` arbitrary and `S`
    /// single.
    fn render(d: &Distribution) -> String {
        let ords = |o: &[usize]| format!("{o:?}").replace(' ', "");
        let mut out = match &d.partitioning {
            Partitioning::Hash(variants) => {
                format!("H{}", variants.iter().map(|v| ords(v)).collect::<String>())
            }
            Partitioning::Arbitrary => "A".to_string(),
            Partitioning::Single => "S".to_string(),
        };
        if d.children.is_empty() {
            return out;
        }
        let movements: Vec<String> = d
            .movements
            .iter()
            .map(|m| match m {
                Movement::Stay => "stay".to_string(),
                Movement::Repartition(o) => format!("rep{}", ords(o)),
                Movement::Combine(o) => format!("comb{}", ords(o)),
                Movement::Gather => "gather".to_string(),
            })
            .collect();
        let inputs: Vec<String> = d.children.iter().map(render).collect();
        out.push_str(&format!("<{}>({})", movements.join(","), inputs.join(" ")));
        out
    }

    /// Every plan variant × {declared keys, none} × {combiner on, off}:
    /// the placement of every node and the movement of every input.
    #[test]
    fn every_variant_by_declared_key_and_combiner() {
        // (plan, keyed + combiner, keyed, unkeyed + combiner, unkeyed)
        let table: Vec<(&str, LogicalPlan, [&str; 4])> = vec![
            ("Scan", fact(), ["H[1]", "H[1]", "A", "A"]),
            (
                "Filter",
                LogicalPlan::Filter {
                    input: Box::new(fact()),
                    predicate: col("F", "Tag").eq(Expr::lit(1i64)),
                },
                [
                    "H[1]<stay>(H[1])",
                    "H[1]<stay>(H[1])",
                    "A<stay>(A)",
                    "A<stay>(A)",
                ],
            ),
            (
                "Project keeping the key (at its new position)",
                project(&["Tag", "DimId"], false),
                [
                    "H[1]<stay>(H[1])",
                    "H[1]<stay>(H[1])",
                    "A<stay>(A)",
                    "A<stay>(A)",
                ],
            ),
            (
                "Project dropping the key",
                project(&["Tag"], false),
                ["A<stay>(H[1])", "A<stay>(H[1])", "A<stay>(A)", "A<stay>(A)"],
            ),
            (
                "Project DISTINCT",
                project(&["Tag", "DimId"], true),
                [
                    "H[0,1]<rep[0,1]>(H[1])",
                    "H[0,1]<rep[0,1]>(H[1])",
                    "H[0,1]<rep[0,1]>(A)",
                    "H[0,1]<rep[0,1]>(A)",
                ],
            ),
            (
                "CrossJoin",
                LogicalPlan::CrossJoin {
                    left: Box::new(fact()),
                    right: Box::new(dim()),
                },
                [
                    "A<stay,stay>(H[1] H[0])",
                    "A<stay,stay>(H[1] H[0])",
                    "A<stay,stay>(A A)",
                    "A<stay,stay>(A A)",
                ],
            ),
            (
                "Join",
                join(fact()),
                [
                    "H[1][3]<stay,stay>(H[1] H[0])",
                    "H[1][3]<stay,stay>(H[1] H[0])",
                    "H[1][3]<rep[1],rep[0]>(A A)",
                    "H[1][3]<rep[1],rep[0]>(A A)",
                ],
            ),
            (
                "non-equi Join",
                LogicalPlan::Join {
                    left: Box::new(fact()),
                    right: Box::new(dim()),
                    condition: col("F", "Tag").binary(BinaryOp::Lt, col("D", "Cat")),
                },
                [
                    "A<stay,stay>(H[1] H[0])",
                    "A<stay,stay>(H[1] H[0])",
                    "A<stay,stay>(A A)",
                    "A<stay,stay>(A A)",
                ],
            ),
            (
                // The eager shape. Keyed, the grouping contains the
                // partition key: it stays, and the key survives at its
                // output position so the join above stays too.
                "Aggregate below a join",
                join(group(fact(), vec![col("F", "DimId"), col("F", "Tag")])),
                [
                    "H[0][2]<stay,stay>(H[0]<stay>(H[1]) H[0])",
                    "H[0][2]<stay,stay>(H[0]<stay>(H[1]) H[0])",
                    "H[0][2]<rep[0],rep[0]>(H[0,1]<comb[1,2]>(A) A)",
                    "H[0][2]<rep[0],rep[0]>(H[0,1]<rep[1,2]>(A) A)",
                ],
            ),
            (
                // The lazy shape: co-located on the join key, never a
                // combiner; the `D.DimId` variant survives the grouping.
                "Aggregate above a join",
                group(join(fact()), vec![col("D", "DimId"), col("F", "Tag")]),
                [
                    "H[0]<stay>(H[1][3]<stay,stay>(H[1] H[0]))",
                    "H[0]<stay>(H[1][3]<stay,stay>(H[1] H[0]))",
                    "H[0]<stay>(H[1][3]<rep[1],rep[0]>(A A))",
                    "H[0]<stay>(H[1][3]<rep[1],rep[0]>(A A))",
                ],
            ),
            (
                "Aggregate off the key",
                group(fact(), vec![col("F", "Tag")]),
                [
                    "H[0]<rep[2]>(H[1])",
                    "H[0]<rep[2]>(H[1])",
                    "H[0]<rep[2]>(A)",
                    "H[0]<rep[2]>(A)",
                ],
            ),
            (
                "scalar Aggregate",
                group(fact(), vec![]),
                [
                    "S<gather>(H[1])",
                    "S<gather>(H[1])",
                    "S<gather>(A)",
                    "S<gather>(A)",
                ],
            ),
            (
                "Aggregate over a gathered input",
                group(
                    LogicalPlan::Sort {
                        input: Box::new(fact()),
                        keys: vec![(col("F", "Tag"), true)],
                    },
                    vec![col("F", "Tag")],
                ),
                [
                    "S<stay>(S<gather>(H[1]))",
                    "S<stay>(S<gather>(H[1]))",
                    "S<stay>(S<gather>(A))",
                    "S<stay>(S<gather>(A))",
                ],
            ),
            (
                "SubqueryAlias",
                LogicalPlan::SubqueryAlias {
                    input: Box::new(fact()),
                    alias: "V".into(),
                },
                [
                    "H[1]<stay>(H[1])",
                    "H[1]<stay>(H[1])",
                    "A<stay>(A)",
                    "A<stay>(A)",
                ],
            ),
            (
                "Sort",
                LogicalPlan::Sort {
                    input: Box::new(fact()),
                    keys: vec![(col("F", "Tag"), true)],
                },
                [
                    "S<gather>(H[1])",
                    "S<gather>(H[1])",
                    "S<gather>(A)",
                    "S<gather>(A)",
                ],
            ),
        ];
        let none = |_: &str| None;
        for (name, plan, expected) in &table {
            let got = [
                distribute(plan, true, &declared),
                distribute(plan, false, &declared),
                distribute(plan, true, &none),
                distribute(plan, false, &none),
            ];
            for (i, (d, want)) in got.iter().zip(expected).enumerate() {
                assert_eq!(&render(d), want, "{name}, configuration {i}");
            }
        }
    }

    #[test]
    fn split_equi_keys_both_orientations() {
        let (ls, rs) = (fact().schema().unwrap(), dim().schema().unwrap());
        let cond = col("D", "DimId").eq(col("F", "DimId"));
        let (keys, residual) = split_equi_keys(&cond, &ls, &rs);
        assert_eq!(keys, vec![EquiKey { left: 1, right: 0 }]);
        assert!(residual.is_empty());
    }

    #[test]
    fn split_equi_keys_keeps_non_equi_residual() {
        let (ls, rs) = (fact().schema().unwrap(), dim().schema().unwrap());
        let cond = col("F", "DimId")
            .eq(col("D", "DimId"))
            .and(col("F", "Tag").binary(BinaryOp::Lt, col("D", "Cat")));
        let (keys, residual) = split_equi_keys(&cond, &ls, &rs);
        assert_eq!(keys.len(), 1);
        assert_eq!(residual.len(), 1);
        // A single-side equality is residual, not a key.
        let cond = col("F", "DimId").eq(col("F", "Tag"));
        let (keys, residual) = split_equi_keys(&cond, &ls, &rs);
        assert!(keys.is_empty());
        assert_eq!(residual.len(), 1);
    }
}
