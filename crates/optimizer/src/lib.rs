#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]
#![warn(missing_docs)]

//! # gbj-optimizer
//!
//! A small rule-based logical optimizer, DataFusion-style: rules take a
//! [`LogicalPlan`](gbj_plan::LogicalPlan) and return a rewritten plan
//! when they fire; [`Optimizer`] drives them to a fixpoint.
//!
//! Rules:
//!
//! * [`JoinOrdering`] — flattens join regions and rebuilds them
//!   left-deep, joining *connected* relations first so Cartesian
//!   products only appear when the query graph is disconnected;
//! * [`PredicatePushdown`] — routes filter conjuncts below cross joins
//!   (producing [`Join`](gbj_plan::LogicalPlan::Join) nodes the executor
//!   can run as hash joins) and pushes single-sided conjuncts to their
//!   side;
//! * [`ColumnPruning`] — inserts projections above scans so only needed
//!   columns flow (the paper's Lemma 1: dropping `R2` columns other
//!   than `GA2+` before the join does not change the result);
//! * [`MergeFilters`] — collapses adjacent filters.
//!
//! The eager-aggregation transformation itself lives in `gbj-core` and
//! runs at the query-block level *before* lowering; these rules clean
//! up whichever block was chosen. Choosing between the two lowered
//! shapes is [`cost`]'s job — the Section 7 [`CostModel`] folded over a
//! plan and its [`CardTree`] by [`shape_cost`] — and [`distributed`]
//! prices the same tree's exchanges for sharded execution.

pub mod cost;
pub mod distributed;
pub mod join_order;
pub mod optimizer;
pub mod rules;

pub use cost::{shape_cost, CardTree, CostModel, ShapeCost};
pub use distributed::{plan_distribution, DistPlan};
pub use join_order::JoinOrdering;
pub use optimizer::{Optimizer, OptimizerRule};
pub use rules::{ColumnPruning, MergeFilters, PredicatePushdown};
