#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

//! # gbj-engine
//!
//! The end-to-end engine facade: [`Database`] owns the storage and
//! drives parse → bind → (eager-aggregation decision) → logical
//! optimization → execution.
//!
//! The decision point is the paper's contribution: for every grouped
//! join query the engine attempts the group-by-before-join rewrite
//! (`gbj-core`), and — when `TestFD` proves it valid — chooses between
//! the lazy (`E1`) and eager (`E2`) plans by folding the Section 7 cost
//! model (`gbj_optimizer::cost`) over both lowered shapes and their
//! estimated cardinalities ([`stats`]). Queries over aggregated
//! views additionally get the Section 8 reverse transformation as a
//! candidate. `EXPLAIN` prints both candidate plans, the TestFD trace
//! and the cost comparison.

pub mod audit;
pub mod database;
pub mod feedback;
pub mod stats;

pub use audit::{annotated_tree, audit_nodes, max_q, median_q, NodeAudit};
pub use database::{
    Database, EngineOptions, PlanChoice, PushdownPolicy, QueryMetrics, QueryOutput, QueryReport,
};
pub use feedback::{delta_from_profile, FeedbackDelta, FeedbackStore};
pub use stats::{q_error, DistinctSketch, EquiDepthHistogram, Estimator};
