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

//! # gbj-expr
//!
//! Scalar expressions, predicates and aggregate functions for the `gbj`
//! engine.
//!
//! The pieces the paper needs:
//!
//! * [`Expr`] — the scalar expression tree, evaluated under SQL2's
//!   three-valued logic ([`Expr::eval_truth`]); column references are
//!   name-based and resolved against a
//!   [`Schema`](gbj_types::Schema) at evaluation/bind time.
//! * [`BoundExpr`] — the same tree with column references compiled to
//!   row ordinals, for fast repeated evaluation in the executor.
//! * [`lower`] — the interpretation operators `⌊P⌋` / `⌈P⌉` (Figure 3)
//!   applied to the tree once: a [`BoundExpr`] predicate becomes a
//!   two-valued [`Lowered`] condition over cells and validity bits,
//!   which is what the chunk pipeline's mask kernels evaluate.
//! * [`normalize`] — CNF/DNF conversion used by the `TestFD` algorithm
//!   (Section 6.3, steps 1 and 3).
//! * [`classify`] — splitting a WHERE clause into the paper's
//!   `C1 ∧ C0 ∧ C2` (by table support) and recognising the Type-1
//!   (`column = constant`) and Type-2 (`column = column`) equality atoms
//!   TestFD consumes.
//! * [`aggregate`] — `COUNT / SUM / MIN / MAX / AVG` with SQL NULL
//!   semantics and `DISTINCT` support.

pub mod aggregate;
pub mod classify;
pub mod expr;
pub mod lower;
pub mod normalize;

pub use aggregate::{Accumulator, AggState, AggregateCall, AggregateFunction};
pub use classify::{classify_conjuncts, AtomClass, PredicateParts};
pub use expr::{
    compare_values, ordering_truth, truth_to_value, value_to_truth, BinaryOp, BoundExpr, Expr,
};
pub use lower::{Lowered, Operand};
pub use normalize::{conjuncts, disjuncts, from_cnf, to_cnf, to_dnf, to_nnf};
