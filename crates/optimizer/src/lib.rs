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
//! Choosing between the two candidate shapes of a query. The
//! eager-aggregation transformation itself lives in `gbj-core` and runs
//! at the query-block level; each candidate block is then lowered in
//! one pass to its executable plan by
//! [`QueryBlock::lower`](gbj_plan::QueryBlock::lower), join order,
//! predicate placement and column pruning included.
//!
//! [`cost`] prices a lowered shape: the Section 7 [`CostModel`] folded
//! over a plan and its [`CardTree`] by [`shape_cost`]. [`distributed`]
//! prices the same tree's exchanges for sharded execution.

pub mod cost;
pub mod distributed;

pub use cost::{shape_cost, CardTree, CostModel, ShapeCost};
pub use distributed::{plan_distribution, DistPlan};
