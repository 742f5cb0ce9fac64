//! The Section 7 trade-off as the engine's one cost model: per-row
//! constants ([`CostModel`]) folded over a fully lowered plan.
//!
//! The paper's observations, encoded:
//!
//! * the transformation **cannot increase the join input cardinality**
//!   (the aggregated side has at most as many rows as its input);
//! * it **may increase or decrease the group-by input cardinality** —
//!   lazy grouping sees the join output, eager grouping sees `σ[C1]R1`;
//!   with a selective join (Figure 8) the join output can be far
//!   smaller than `R1`, making eager grouping a loss;
//! * in a **distributed** setting, eager aggregation ships one row per
//!   group instead of all of `R1`, which can dominate everything else.
//!
//! The lazy and eager candidates are both optimized to their
//! physical-ready shape, a per-node cardinality estimate is attached to
//! each ([`CardTree`], shape-congruent with the plan, clamped by
//! [`CardTree::clamp`]), and [`shape_cost`] folds the constants over
//! every operator the executor will really run: join-input shrinkage
//! vs. group-input growth, the duplicate-factor term, and whatever else
//! the optimizer produced — extra projections cost nothing, but every
//! scan, filter, sort, join and aggregation touch is itemised. The
//! model is deliberately linear, because the *decision* only needs the
//! relative order of two plans over the same data, not absolute times.
//!
//! The optimizer crate cannot see the engine's `Estimator` (the engine
//! depends on the optimizer, not vice versa), so the estimator hands
//! its cardinalities over as a plain [`CardTree`] — the one estimate
//! tree, also what the audit zips against the measured profile and
//! what [`crate::plan_distribution`] prices exchanges with.

use gbj_plan::LogicalPlan;

/// Per-row cost constants. The defaults make hashing a row cost 1 unit
/// and producing an output row 1 unit; network transfer defaults to 50×
/// a local row touch, in line with the paper's remark that
/// "communication costs often dominate the query processing cost".
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost to build/probe one hash-table row in a join.
    pub c_join_row: f64,
    /// Cost to emit one join output row.
    pub c_join_out: f64,
    /// Cost to hash one row into the aggregation table.
    pub c_group_row: f64,
    /// Cost to finalise one group.
    pub c_group_out: f64,
    /// Cost to ship one row between sites (only counted when
    /// `distributed`).
    pub c_net_row: f64,
    /// Whether R1 and R2 live on different sites (the Section 7
    /// distributed scenario: the aggregation side is shipped to R2's
    /// site before the join).
    pub distributed: bool,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            c_join_row: 1.0,
            c_join_out: 1.0,
            c_group_row: 1.0,
            c_group_out: 1.0,
            c_net_row: 50.0,
            distributed: false,
        }
    }
}

impl CostModel {
    /// A distributed variant of the model.
    #[must_use]
    pub fn distributed() -> CostModel {
        CostModel {
            distributed: true,
            ..CostModel::default()
        }
    }
}

/// Estimated output cardinality for every node of a plan, mirroring the
/// plan's tree shape exactly (same arity at every node, children in plan
/// order).
#[derive(Debug, Clone, PartialEq)]
pub struct CardTree {
    /// Estimated output rows of this node.
    pub rows: f64,
    /// Child cardinalities, in plan order.
    pub children: Vec<CardTree>,
}

impl CardTree {
    /// A leaf estimate.
    #[must_use]
    pub fn leaf(rows: f64) -> CardTree {
        CardTree {
            rows,
            children: vec![],
        }
    }

    /// Clamp every node's estimate to a proven upper bound from a
    /// shape-congruent bound tree (`INFINITY` = no bound at that node).
    /// Bounds are upper bounds on the *true* cardinality, so
    /// `min(estimate, bound)` can only move estimates toward the truth
    /// — costs folded over a clamped tree never charge an operator more
    /// input than it can possibly receive.
    pub fn clamp(&mut self, bound: &CardTree) {
        if bound.rows.is_finite() && self.rows > bound.rows {
            self.rows = bound.rows;
        }
        for (child, b) in self.children.iter_mut().zip(&bound.children) {
            child.clamp(b);
        }
    }
}

/// The itemised cost of one lowered plan shape under the model, summed
/// over *every* operator in the tree, including a `scan_rows` term for
/// the base-table touches (both shapes scan the same tables, so the
/// term cancels in the comparison but keeps totals honest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeCost {
    /// Rows produced by scans, filters and sorts (one touch each).
    pub scan_rows: f64,
    /// Rows entering joins (all join nodes, both sides summed).
    pub join_input: f64,
    /// Rows leaving joins.
    pub join_output: f64,
    /// Rows entering group-bys.
    pub group_input: f64,
    /// Groups produced by all aggregations.
    pub groups: f64,
    /// Rows shipped between sites (distributed mode: the larger join
    /// side — the aggregation side in §7's setting — travels; 0
    /// locally).
    pub shipped_rows: f64,
    /// Total model cost (arbitrary units, comparable across shapes of
    /// the same query over the same data).
    pub total: f64,
}

impl ShapeCost {
    fn zero() -> ShapeCost {
        ShapeCost {
            scan_rows: 0.0,
            join_input: 0.0,
            join_output: 0.0,
            group_input: 0.0,
            groups: 0.0,
            shipped_rows: 0.0,
            total: 0.0,
        }
    }
}

/// Cost a lowered plan shape given per-node cardinality estimates.
///
/// `card` must be shape-congruent with `plan` (the engine builds it from
/// the same tree). If a child estimate is missing the walk substitutes a
/// zero-row leaf rather than guessing — a defensive fallback, not an
/// expected path.
#[must_use]
pub fn shape_cost(model: &CostModel, plan: &LogicalPlan, card: &CardTree) -> ShapeCost {
    let mut acc = ShapeCost::zero();
    walk(model, plan, card, &mut acc);
    acc.total = acc.scan_rows
        + model.c_join_row * acc.join_input
        + model.c_join_out * acc.join_output
        + model.c_group_row * acc.group_input
        + model.c_group_out * acc.groups
        + model.c_net_row * acc.shipped_rows;
    acc
}

fn child(card: &CardTree, idx: usize) -> CardTree {
    card.children
        .get(idx)
        .cloned()
        .unwrap_or_else(|| CardTree::leaf(0.0))
}

fn walk(model: &CostModel, plan: &LogicalPlan, card: &CardTree, acc: &mut ShapeCost) {
    match plan {
        LogicalPlan::Scan { .. } => acc.scan_rows += card.rows.max(0.0),
        LogicalPlan::Filter { input, .. } => {
            let c = child(card, 0);
            // A filter touches every input row once.
            acc.scan_rows += c.rows.max(0.0);
            walk(model, input, &c, acc);
        }
        LogicalPlan::Project { input, .. } | LogicalPlan::SubqueryAlias { input, .. } => {
            // Projection / re-qualification is free under the model.
            walk(model, input, &child(card, 0), acc);
        }
        LogicalPlan::Sort { input, .. } => {
            let c = child(card, 0);
            acc.scan_rows += c.rows.max(0.0);
            walk(model, input, &c, acc);
        }
        LogicalPlan::CrossJoin { left, right } | LogicalPlan::Join { left, right, .. } => {
            let l = child(card, 0);
            let r = child(card, 1);
            acc.join_input += l.rows.max(0.0) + r.rows.max(0.0);
            acc.join_output += card.rows.max(0.0);
            if model.distributed {
                // §7: the aggregation side (R1) travels to the other
                // site. At shape level that is the *larger* input — and
                // pre-aggregating below the join shrinks exactly that
                // side to one row per group, which is the distributed
                // payoff.
                acc.shipped_rows += l.rows.max(0.0).max(r.rows.max(0.0));
            }
            walk(model, left, &l, acc);
            walk(model, right, &r, acc);
        }
        LogicalPlan::Aggregate { input, .. } => {
            let c = child(card, 0);
            acc.group_input += c.rows.max(0.0);
            acc.groups += card.rows.max(0.0);
            walk(model, input, &c, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::Expr;
    use gbj_types::{DataType, Field, Schema};

    fn scan(table: &str, q: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            qualifier: q.into(),
            schema: Schema::new(vec![
                Field::new("id", DataType::Int64, false).with_qualifier(q)
            ]),
        }
    }

    /// The §7 summary of one grouped join: `|σ[C1]R1|`, `|σ[C2]R2|`,
    /// the `GA1+` groups of R1, the lazy join's output and the final
    /// group count.
    struct Cards {
        r1: f64,
        r2: f64,
        r1_groups: f64,
        join: f64,
        groups: f64,
    }

    /// Figure 1 / Example 1: 10000 employees, 100 departments, FK join.
    const FIGURE1: Cards = Cards {
        r1: 10_000.0,
        r2: 100.0,
        r1_groups: 100.0,
        join: 10_000.0,
        groups: 100.0,
    };

    /// Figure 8 / Example 4: the adversarial case — 10000 rows grouping
    /// into 9000 groups, but the join keeps only 50 rows.
    const FIGURE8: Cards = Cards {
        r1: 10_000.0,
        r2: 100.0,
        r1_groups: 9_000.0,
        join: 50.0,
        groups: 10.0,
    };

    fn join(left: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(scan("R2", "R2")),
            condition: Expr::col("R1", "id").eq(Expr::col("R2", "id")),
        }
    }

    fn group(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![Expr::col("R1", "id")],
            aggregates: vec![],
        }
    }

    /// Cost the lazy shape `Aggregate(Join(R1, R2))` and the eager
    /// shape `Join(Aggregate(R1), R2)` of one query. Under FD1 ∧ FD2
    /// the eager join emits exactly the final result rows.
    fn lazy_and_eager(model: &CostModel, c: &Cards) -> (ShapeCost, ShapeCost) {
        let lazy_card = CardTree {
            rows: c.groups,
            children: vec![CardTree {
                rows: c.join,
                children: vec![CardTree::leaf(c.r1), CardTree::leaf(c.r2)],
            }],
        };
        let eager_card = CardTree {
            rows: c.groups,
            children: vec![
                CardTree {
                    rows: c.r1_groups,
                    children: vec![CardTree::leaf(c.r1)],
                },
                CardTree::leaf(c.r2),
            ],
        };
        (
            shape_cost(model, &group(join(scan("R1", "R1"))), &lazy_card),
            shape_cost(model, &join(group(scan("R1", "R1"))), &eager_card),
        )
    }

    #[test]
    fn figure1_eager_wins() {
        let (lazy, eager) = lazy_and_eager(&CostModel::default(), &FIGURE1);
        assert_eq!(lazy.join_input, 10_100.0);
        assert_eq!(lazy.group_input, 10_000.0);
        assert_eq!(eager.join_input, 200.0);
        assert_eq!(eager.join_output, 100.0);
        // §7: the group-by input may move either way; here it ties.
        assert_eq!(eager.group_input, lazy.group_input);
        assert!(
            lazy.total / eager.total > 1.5,
            "Figure 1: eager must win clearly ({} vs {})",
            eager.total,
            lazy.total
        );
        // Both shapes scan the same base tables, so the scan term is
        // identical and cancels in the comparison.
        assert_eq!(lazy.scan_rows, eager.scan_rows);
        // The local model ships nothing.
        assert_eq!((lazy.shipped_rows, eager.shipped_rows), (0.0, 0.0));
    }

    /// A selective join (50 output rows) under a near-key grouping
    /// (9000 eager groups) — lazy must win.
    #[test]
    fn figure8_lazy_wins() {
        let (lazy, eager) = lazy_and_eager(&CostModel::default(), &FIGURE8);
        // Eager groups all of R1, lazy only the join's 50 survivors.
        assert!(eager.group_input > lazy.group_input);
        assert!(
            lazy.total < eager.total,
            "Figure 8: lazy must win ({} vs {})",
            lazy.total,
            eager.total
        );
    }

    /// Paper §7: "It cannot increase the input cardinality of the join"
    /// — even when every row is its own group the inputs tie, never
    /// invert — while a duplicate-producing R2 side makes the lazy
    /// group-by input *larger* than eager's.
    #[test]
    fn eager_never_increases_join_input() {
        let model = CostModel::default();
        let all_distinct = Cards {
            r1: 1000.0,
            r2: 10.0,
            r1_groups: 1000.0,
            join: 1000.0,
            groups: 1000.0,
        };
        let fan_out = Cards {
            join: 20_000.0,
            ..FIGURE1
        };
        for cards in [&FIGURE1, &FIGURE8, &all_distinct, &fan_out] {
            let (lazy, eager) = lazy_and_eager(&model, cards);
            assert!(eager.join_input <= lazy.join_input);
        }
        let (lazy, eager) = lazy_and_eager(&model, &fan_out);
        assert!(eager.group_input < lazy.group_input);
    }

    /// §7 distributed: the larger join input travels, so the eager
    /// shape ships one row per group instead of all of R1 — and with
    /// network costs dominating, eager's standing improves even in the
    /// Figure 8 counter-example.
    #[test]
    fn distributed_ships_groups_not_rows() {
        let model = CostModel::distributed();
        let (lazy, eager) = lazy_and_eager(&model, &FIGURE1);
        assert_eq!(lazy.shipped_rows, 10_000.0);
        assert_eq!(eager.shipped_rows, 100.0);
        assert!(lazy.total > model.c_net_row * 10_000.0);
        assert!(lazy.total / eager.total > 10.0);

        let speedup = |model: &CostModel| {
            let (lazy, eager) = lazy_and_eager(model, &FIGURE8);
            lazy.total / eager.total
        };
        assert!(
            speedup(&model) > speedup(&CostModel::default()),
            "network savings improve eager's standing"
        );
    }

    /// Missing estimates degrade to zero-row leaves instead of
    /// panicking: the walk is defensive against shape drift.
    #[test]
    fn shape_mismatch_degrades_to_zero() {
        let model = CostModel::default();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("T", "T")),
            predicate: Expr::col("T", "id").eq(Expr::col("T", "id")),
        };
        let cost = shape_cost(&model, &plan, &CardTree::leaf(5.0));
        assert_eq!(cost.scan_rows, 0.0, "missing child estimate counts 0");
        assert_eq!(cost.total, 0.0);
    }

    /// Projection and aliasing are free; sorts and filters charge one
    /// touch per input row.
    #[test]
    fn free_and_per_row_operators() {
        let model = CostModel::default();
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan("T", "T")),
                exprs: vec![(Expr::col("T", "id"), "id".into())],
                distinct: false,
            }),
            keys: vec![(Expr::col("T", "id"), true)],
        };
        let card = CardTree {
            rows: 7.0,
            children: vec![CardTree {
                rows: 7.0,
                children: vec![CardTree::leaf(7.0)],
            }],
        };
        let cost = shape_cost(&model, &plan, &card);
        // Sort touch (7) + scan touch (7); projection adds nothing.
        assert_eq!(cost.scan_rows, 14.0);
        assert_eq!(cost.total, 14.0);
    }

    /// Clamping takes the node-wise minimum with a bound tree;
    /// `INFINITY` bounds (unknown) leave the estimate alone.
    #[test]
    fn clamp_is_nodewise_min_with_infinity_as_no_bound() {
        let mut card = CardTree {
            rows: 100.0,
            children: vec![CardTree::leaf(50.0), CardTree::leaf(8.0)],
        };
        let bound = CardTree {
            rows: 10.0,
            children: vec![CardTree::leaf(f64::INFINITY), CardTree::leaf(3.0)],
        };
        card.clamp(&bound);
        assert_eq!(card.rows, 10.0);
        assert_eq!(card.children[0].rows, 50.0, "unbounded child unchanged");
        assert_eq!(card.children[1].rows, 3.0);
    }
}
