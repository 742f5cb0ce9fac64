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

//! # gbj-plan
//!
//! Logical query plans for the `gbj` engine.
//!
//! Two representations cooperate:
//!
//! * [`LogicalPlan`] — an operator tree mirroring the paper's SQL2
//!   algebra (Section 4.1): scan, selection `σ[C]`, projection `π` with
//!   ALL/DISTINCT, Cartesian product `×`, and the grouping+aggregation
//!   pair `F[AA] Γ[GA]` fused into one `Aggregate` node. This is what
//!   the executor consumes.
//! * [`QueryBlock`] — the SPJG canonical form of the query class the
//!   paper studies (Section 3): a list of relations, a conjunctive
//!   predicate, grouping columns, aggregate calls and a select list.
//!   The optimizer's transformation (`gbj-core`) reasons over blocks
//!   and lowers them back to plans. Derived relations nest blocks, which
//!   is how Section 8's aggregated views are represented.
//!
//! [`distribution`] decides, for a plan run over hash-partitioned
//! shards, where each node's rows live and which inputs must move —
//! the one partition tracker the chunk pipeline executes and the
//! optimizer's shipped-rows predictor prices.

pub mod block;
pub mod distribution;
mod lower;
pub mod plan;

pub use block::{BlockRelation, QueryBlock, SelectItem};
pub use distribution::{
    distribute, split_equi_keys, Distribution, EquiKey, Movement, Partitioning,
};
pub use plan::LogicalPlan;
