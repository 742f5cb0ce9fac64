//! Predictive distribution planning: how many rows *will* cross shard
//! boundaries when a lowered plan runs over more than one shard.
//!
//! This is the cost-model side of the paper's §7 distributed argument,
//! made checkable. Which exchanges happen is not decided here:
//! [`gbj_plan::distribute`] maps the plan to a [`Distribution`] tree —
//! the same tree the chunk pipeline executes — and [`plan_distribution`]
//! folds the cardinality estimates ([`CardTree`]) over that tree's
//! [`Movement`]s. The result is a predicted `shipped_rows` the engine
//! audits against the executor's measured counters (a Q-error, like the
//! cardinality audit feeding the `FeedbackStore`); with one tracker
//! under both, the two can disagree only about row counts.
//!
//! Under uniform hashing a repartition moves an expected `(s-1)/s` of
//! its input (each row's destination matches its origin with
//! probability `1/s`); a gather moves everything not already on the
//! target shard, the same `(s-1)/s` in expectation; a combiner ships
//! one partial per group per origin shard, at most one per input row.

use gbj_plan::{distribute, Distribution, LogicalPlan, Movement};

use crate::cost::CardTree;

/// Predicted distributed execution profile of one lowered plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistPlan {
    /// Key repartitions (join sides and grouped aggregations that were
    /// not already co-partitioned).
    pub exchanges: usize,
    /// Aggregations predicted to run as combiners (partials shipped
    /// below the exchange).
    pub combiners: usize,
    /// Gathers to a single shard (scalar aggregates, global sorts).
    pub gathers: usize,
    /// Expected rows crossing shard boundaries, under uniform hashing.
    pub shipped_rows: f64,
}

impl DistPlan {
    fn zero() -> DistPlan {
        DistPlan {
            exchanges: 0,
            combiners: 0,
            gathers: 0,
            shipped_rows: 0.0,
        }
    }
}

/// Predict the distributed profile of `plan` at `shards` shards.
///
/// `card` is the engine's per-node cardinality estimate tree
/// (shape-congruent with `plan`; missing nodes degrade to zero rows).
/// `combiner` says whether the executor will push eager
/// pre-aggregations below the exchange (the engine sets it from the FD
/// certificate, exactly as it configures the executor). `partition_key`
/// resolves a base table's declared partition-key ordinals — the
/// engine passes a closure over its storage.
#[must_use]
pub fn plan_distribution(
    plan: &LogicalPlan,
    card: &CardTree,
    shards: usize,
    combiner: bool,
    partition_key: &impl Fn(&str) -> Option<Vec<usize>>,
) -> DistPlan {
    let mut acc = DistPlan::zero();
    if shards > 1 {
        let dist = distribute(plan, combiner, partition_key);
        price(&dist, card, shards, &mut acc);
    }
    acc
}

/// Charge every movement of `dist` (inputs first, so a node's own
/// exchanges are added after everything below it).
fn price(dist: &Distribution, card: &CardTree, shards: usize, acc: &mut DistPlan) {
    let zero = CardTree::leaf(0.0);
    let input_card = |i: usize| card.children.get(i).unwrap_or(&zero);
    for (i, child) in dist.children.iter().enumerate() {
        price(child, input_card(i), shards, acc);
    }
    // Expected fraction of rows that change shard in a uniform-hash
    // repartition (or a gather of uniformly spread rows).
    let moved_fraction = (shards as f64 - 1.0) / shards as f64;
    for (i, movement) in dist.movements.iter().enumerate() {
        let rows = input_card(i).rows.max(0.0);
        let moved = match movement {
            Movement::Stay => continue,
            Movement::Repartition(_) => {
                acc.exchanges += 1;
                rows
            }
            Movement::Combine(_) => {
                acc.combiners += 1;
                (card.rows.max(0.0) * shards as f64).min(rows)
            }
            Movement::Gather => {
                acc.gathers += 1;
                rows
            }
        };
        acc.shipped_rows += moved * moved_fraction;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::Expr;
    use gbj_types::{DataType, Field, Schema};

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

    fn no_keys(_: &str) -> Option<Vec<usize>> {
        None
    }

    /// Lazy fan-in shape: Aggregate(Join(Fact, Dim)) — both join sides
    /// repartition, the top aggregate sits on the join key already.
    fn lazy_plan() -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("Fact", "F", &["FactId", "DimId", "V"])),
                right: Box::new(scan("Dim", "D", &["DimId", "Cat"])),
                condition: Expr::col("F", "DimId").eq(Expr::col("D", "DimId")),
            }),
            group_by: vec![Expr::col("D", "DimId")],
            aggregates: vec![],
        }
    }

    fn lazy_card() -> CardTree {
        CardTree {
            rows: 100.0,
            children: vec![CardTree {
                rows: 10_000.0,
                children: vec![CardTree::leaf(10_000.0), CardTree::leaf(100.0)],
            }],
        }
    }

    /// Eager shape: Join(Aggregate(Fact), Dim).
    fn eager_plan() -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan("Fact", "F", &["FactId", "DimId", "V"])),
                group_by: vec![Expr::col("F", "DimId")],
                aggregates: vec![],
            }),
            right: Box::new(scan("Dim", "D", &["DimId", "Cat"])),
            condition: Expr::col("F", "DimId").eq(Expr::col("D", "DimId")),
        }
    }

    fn eager_card() -> CardTree {
        CardTree {
            rows: 100.0,
            children: vec![
                CardTree {
                    rows: 100.0,
                    children: vec![CardTree::leaf(10_000.0)],
                },
                CardTree::leaf(100.0),
            ],
        }
    }

    #[test]
    fn single_shard_ships_nothing() {
        let d = plan_distribution(&lazy_plan(), &lazy_card(), 1, false, &no_keys);
        assert_eq!(d, DistPlan::zero());
    }

    #[test]
    fn lazy_ships_fact_rows_eager_combiner_ships_partials() {
        let lazy = plan_distribution(&lazy_plan(), &lazy_card(), 4, false, &no_keys);
        // Join repartitions both sides; the aggregate above is then
        // co-partitioned on its grouping key and ships nothing more.
        assert_eq!(lazy.exchanges, 2);
        assert!((lazy.shipped_rows - 10_100.0 * 0.75).abs() < 1e-9);

        let eager = plan_distribution(&eager_plan(), &eager_card(), 4, true, &no_keys);
        // The below-join aggregate becomes a combiner (≤ groups × shards
        // partials move); its output arrives partitioned on the join
        // key, so only the dim side repartitions.
        assert_eq!(eager.combiners, 1);
        assert_eq!(eager.exchanges, 1);
        assert!((eager.shipped_rows - (400.0 + 100.0) * 0.75).abs() < 1e-9);
        assert!(eager.shipped_rows < lazy.shipped_rows);
    }

    #[test]
    fn scalar_aggregate_and_sort_gather() {
        let plan = LogicalPlan::Sort {
            input: Box::new(scan("T", "T", &["a"])),
            keys: vec![(Expr::col("T", "a"), true)],
        };
        let card = CardTree {
            rows: 8.0,
            children: vec![CardTree::leaf(8.0)],
        };
        let d = plan_distribution(&plan, &card, 2, false, &no_keys);
        assert_eq!(d.gathers, 1);
        assert!((d.shipped_rows - 4.0).abs() < 1e-9);
    }
}
