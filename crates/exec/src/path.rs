//! Which of the two execution paths runs a plan, and why a faster
//! configuration was refused.
//!
//! The row engine is the oracle; the chunk pipeline
//! ([`crate::pipeline`]), at one part or over several, must reproduce
//! its rows, its first error and its counter fingerprint byte for byte.
//! It can promise that only for plans whose every expression is in the
//! error-free rule — the domain `gbj_expr::lower` is defined on, see
//! [`crate::vectorized`] — and whose every join has an equi key to hash
//! on, so one walker decides, over the whole plan:
//! any refusal sends the *entire* plan to the next slower configuration
//! — never a per-operator mix.

use std::fmt;

use gbj_expr::Expr;
use gbj_plan::{split_equi_keys, LogicalPlan};
use gbj_types::{Result, Schema};

use crate::executor::ExecOptions;

/// The execution path [`execution_path`] picked for a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The row engine: `None` when the options asked for the oracle
    /// ([`ExecOptions::vectorized`] off), otherwise the reason the
    /// one-part pipeline refused the plan.
    Row(Option<Refusal>),
    /// The chunk pipeline.
    Pipeline {
        /// The part count the plan runs at: [`ExecOptions::shards`] when
        /// the strict gate admits it, else 1.
        shards: usize,
        /// When more than one shard was configured but the plan runs at
        /// one: the configured count and why the strict gate refused.
        refused: Option<(usize, Refusal)>,
    },
}

impl ExecPath {
    /// The shard count the plan runs at (1 on the row engine).
    #[must_use]
    pub fn shards(&self) -> usize {
        match self {
            ExecPath::Row(_) => 1,
            ExecPath::Pipeline { shards, .. } => *shards,
        }
    }
}

/// Why a plan cannot leave the row engine: the first offending operator
/// (children before parents, left before right) and what is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refusal {
    /// The logical operator kind, e.g. `"Filter"`.
    pub operator: &'static str,
    /// What about it is outside the gate.
    pub reason: RefusalReason,
}

/// The ways an operator can fall outside the byte-identity gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The join condition has no `left column = right column` conjunct.
    NoEquiKey,
    /// A cross join has no key to probe or partition on.
    CrossJoin,
    /// A predicate, projection, residual, grouping or sort expression
    /// is outside the error-free rule (arithmetic can error, and error
    /// order must stay the oracle's).
    Arithmetic,
    /// An aggregate argument is outside the error-free rule over
    /// several parts, where per-part accumulation could reorder its
    /// errors (at one part the pipeline evaluates arguments row-major
    /// and only needs them to bind).
    AggregateArgument,
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = self.operator;
        match self.reason {
            RefusalReason::NoEquiKey => write!(f, "{op}: no equi-join key"),
            RefusalReason::CrossJoin => write!(f, "{op}: no join key"),
            RefusalReason::Arithmetic => {
                let site = match op {
                    "Filter" => "predicate",
                    "Project" => "projection",
                    "Join" => "join residual",
                    "Aggregate" => "grouping key",
                    _ => "sort key",
                };
                write!(f, "{op}: arithmetic in {site}")
            }
            RefusalReason::AggregateArgument => {
                write!(f, "{op}: aggregate argument not error-free")
            }
        }
    }
}

impl fmt::Display for ExecPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecPath::Row(None) => f.write_str("row"),
            ExecPath::Row(Some(refusal)) => write!(f, "row ({refusal})"),
            ExecPath::Pipeline {
                refused: Some((configured, refusal)),
                ..
            } => write!(f, "batch ({configured} shards refused — {refusal})"),
            ExecPath::Pipeline { shards: 1, .. } => f.write_str("batch"),
            ExecPath::Pipeline { shards, .. } => write!(f, "sharded({shards})"),
        }
    }
}

/// The path `plan` runs on under `options`. With
/// [`ExecOptions::vectorized`] off, the serial row engine — the oracle
/// switch, whatever `threads` and `shards` say. Otherwise the pipeline
/// over [`ExecOptions::shards`] parts when more than one is configured
/// and the plan passes the strict gate, else the pipeline at one part
/// when it passes the lax gate, else the row engine with the refusal.
#[must_use]
pub fn execution_path(plan: &LogicalPlan, options: &ExecOptions) -> ExecPath {
    if !options.vectorized {
        return ExecPath::Row(None);
    }
    let shards = options.shards.get();
    let strict = if shards > 1 {
        match refusal(plan, true) {
            None => {
                return ExecPath::Pipeline {
                    shards,
                    refused: None,
                }
            }
            refused => refused,
        }
    } else {
        None
    };
    match refusal(plan, false) {
        None => ExecPath::Pipeline {
            shards: 1,
            refused: strict.map(|refusal| (shards, refusal)),
        },
        refused => ExecPath::Row(refused),
    }
}

/// Whether every expression binds against `schema` and lowers: the
/// error-free domain, the one the kernels evaluate.
fn error_free<'e>(schema: &Result<Schema>, mut exprs: impl Iterator<Item = &'e Expr>) -> bool {
    schema
        .as_ref()
        .is_ok_and(|s| exprs.all(|e| e.bind(s).is_ok_and(|b| b.lower_value().is_some())))
}

/// The first operator of `plan` outside the gate, if any. `sharded`
/// selects the one rule that differs between one part and several: how
/// strict aggregate arguments are.
fn refusal(plan: &LogicalPlan, sharded: bool) -> Option<Refusal> {
    if let Some(below) = plan
        .children()
        .into_iter()
        .find_map(|child| refusal(child, sharded))
    {
        return Some(below);
    }
    let (operator, reason) = match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::SubqueryAlias { .. } => return None,
        LogicalPlan::Filter { input, predicate } => (
            "Filter",
            (!error_free(&input.schema(), std::iter::once(predicate)))
                .then_some(RefusalReason::Arithmetic),
        ),
        LogicalPlan::Project { input, exprs, .. } => (
            "Project",
            (!error_free(&input.schema(), exprs.iter().map(|(e, _)| e)))
                .then_some(RefusalReason::Arithmetic),
        ),
        LogicalPlan::Sort { input, keys } => (
            "Sort",
            (!error_free(&input.schema(), keys.iter().map(|(e, _)| e)))
                .then_some(RefusalReason::Arithmetic),
        ),
        LogicalPlan::CrossJoin { .. } => ("CrossJoin", Some(RefusalReason::CrossJoin)),
        LogicalPlan::Join {
            left,
            right,
            condition,
        } => ("Join", join_refusal(left, right, condition)),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let schema = input.schema();
            let mut args = aggregates.iter().filter_map(|(call, _)| call.arg.as_ref());
            let reason = if !error_free(&schema, group_by.iter()) {
                Some(RefusalReason::Arithmetic)
            } else if sharded {
                (!error_free(&schema, args)).then_some(RefusalReason::AggregateArgument)
            } else {
                (!schema.is_ok_and(|s| args.all(|e| e.bind(&s).is_ok())))
                    .then_some(RefusalReason::AggregateArgument)
            };
            ("Aggregate", reason)
        }
    };
    reason.map(|reason| Refusal { operator, reason })
}

fn join_refusal(
    left: &LogicalPlan,
    right: &LogicalPlan,
    condition: &Expr,
) -> Option<RefusalReason> {
    let (Ok(ls), Ok(rs)) = (left.schema(), right.schema()) else {
        return Some(RefusalReason::NoEquiKey);
    };
    let (keys, residual) = split_equi_keys(condition, &ls, &rs);
    if keys.is_empty() {
        return Some(RefusalReason::NoEquiKey);
    }
    let residual = Expr::conjunction(residual);
    (!error_free(&Ok(ls.join(&rs)), residual.iter())).then_some(RefusalReason::Arithmetic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::{AggregateCall, AggregateFunction, BinaryOp};
    use gbj_types::{DataType, Field};
    use std::num::NonZeroUsize;

    fn scan(q: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: q.into(),
            qualifier: q.into(),
            schema: Schema::new(vec![
                Field::new("k", DataType::Int64, true).with_qualifier(q),
                Field::new("v", DataType::Int64, true).with_qualifier(q),
            ]),
        }
    }

    fn col(q: &str, c: &str) -> Expr {
        Expr::col(q, c)
    }

    /// `q.v + 1`: outside the error-free rule.
    fn plus_one(q: &str) -> Expr {
        col(q, "v").binary(BinaryOp::Add, Expr::lit(1i64))
    }

    fn filter(predicate: Expr) -> LogicalPlan {
        let input = Box::new(scan("L"));
        LogicalPlan::Filter { input, predicate }
    }

    fn project(expr: Expr, distinct: bool) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(scan("L")),
            exprs: vec![(expr, "out".into())],
            distinct,
        }
    }

    fn sort(input: LogicalPlan, key: Expr) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(input),
            keys: vec![(key, false)],
        }
    }

    fn sides() -> (Box<LogicalPlan>, Box<LogicalPlan>) {
        (Box::new(scan("L")), Box::new(scan("R")))
    }

    fn join(condition: Expr) -> LogicalPlan {
        let (left, right) = sides();
        LogicalPlan::Join {
            left,
            right,
            condition,
        }
    }

    fn equi() -> Expr {
        col("L", "k").eq(col("R", "k"))
    }

    fn aggregate(group: Expr, arg: Expr) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(scan("L")),
            group_by: vec![group],
            aggregates: vec![(AggregateCall::new(AggregateFunction::Sum, arg), "s".into())],
        }
    }

    type Expected = Option<(&'static str, RefusalReason)>;

    /// Every `LogicalPlan` variant, admitted and refused: `(name, plan,
    /// what the lax one-part gate says, what the strict gate says)`,
    /// with `None` = admitted.
    fn cases() -> Vec<(&'static str, LogicalPlan, Expected, Expected)> {
        use RefusalReason::{AggregateArgument, Arithmetic, CrossJoin, NoEquiKey};
        let both = |name, plan, refusal: Expected| (name, plan, refusal, refusal);
        let alias = LogicalPlan::SubqueryAlias {
            input: Box::new(scan("L")),
            alias: "A".into(),
        };
        let (left, right) = sides();
        let two = Expr::lit(2i64);
        vec![
            both("scan", scan("L"), None),
            both("alias", alias, None),
            both("filter", filter(col("L", "v").eq(two.clone())), None),
            both(
                "filter on arithmetic",
                filter(plus_one("L").eq(two.clone())),
                Some(("Filter", Arithmetic)),
            ),
            both("project distinct", project(col("L", "v"), true), None),
            both(
                "project arithmetic",
                project(plus_one("L"), false),
                Some(("Project", Arithmetic)),
            ),
            both("sort", sort(scan("L"), col("L", "v")), None),
            both(
                "sort on arithmetic",
                sort(scan("L"), plus_one("L")),
                Some(("Sort", Arithmetic)),
            ),
            both(
                "cross join",
                LogicalPlan::CrossJoin { left, right },
                Some(("CrossJoin", CrossJoin)),
            ),
            both("equi join", join(equi()), None),
            both(
                "non-equi join",
                join(col("L", "k").binary(BinaryOp::Lt, col("R", "k"))),
                Some(("Join", NoEquiKey)),
            ),
            both(
                "join with arithmetic residual",
                join(equi().and(plus_one("L").eq(col("R", "v")))),
                Some(("Join", Arithmetic)),
            ),
            both("aggregate", aggregate(col("L", "k"), col("L", "v")), None),
            both(
                "aggregate grouped on arithmetic",
                aggregate(plus_one("L"), col("L", "v")),
                Some(("Aggregate", Arithmetic)),
            ),
            (
                "aggregate over an arithmetic argument",
                aggregate(col("L", "k"), plus_one("L")),
                None,
                Some(("Aggregate", AggregateArgument)),
            ),
            both(
                "refusal below an admitted parent",
                sort(filter(plus_one("L").eq(two)), col("L", "v")),
                Some(("Filter", Arithmetic)),
            ),
        ]
    }

    fn pipeline(shards: usize, refused: Option<(usize, Refusal)>) -> ExecPath {
        ExecPath::Pipeline { shards, refused }
    }

    #[test]
    fn execution_path_table() {
        let refusal = |r: Expected| r.map(|(operator, reason)| Refusal { operator, reason });
        for (name, plan, batch, sharded) in cases() {
            for shards in [1usize, 4] {
                for vectorized in [false, true] {
                    let options = ExecOptions {
                        shards: NonZeroUsize::new(shards).unwrap(),
                        vectorized,
                        ..ExecOptions::default()
                    };
                    let expect = match (shards > 1, vectorized) {
                        // The oracle switch wins over the shard count.
                        (_, false) => ExecPath::Row(None),
                        (true, true) if sharded.is_none() => pipeline(shards, None),
                        (many, true) if batch.is_none() => {
                            pipeline(1, refusal(sharded).filter(|_| many).map(|r| (shards, r)))
                        }
                        (_, true) => ExecPath::Row(refusal(batch)),
                    };
                    assert_eq!(
                        execution_path(&plan, &options),
                        expect,
                        "{name} shards={shards} vectorized={vectorized}"
                    );
                }
            }
        }
    }

    #[test]
    fn paths_render_as_one_line() {
        assert_eq!(pipeline(1, None).to_string(), "batch");
        assert_eq!(pipeline(4, None).to_string(), "sharded(4)");
        assert_eq!(ExecPath::Row(None).to_string(), "row");
        let argument = Refusal {
            operator: "Aggregate",
            reason: RefusalReason::AggregateArgument,
        };
        assert_eq!(
            pipeline(1, Some((4, argument))).to_string(),
            "batch (4 shards refused — Aggregate: aggregate argument not error-free)"
        );
        let arithmetic = Refusal {
            operator: "Filter",
            reason: RefusalReason::Arithmetic,
        };
        assert_eq!(
            ExecPath::Row(Some(arithmetic)).to_string(),
            "row (Filter: arithmetic in predicate)"
        );
    }
}
