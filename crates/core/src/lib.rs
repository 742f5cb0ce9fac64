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

//! # gbj-core
//!
//! The paper's contribution: *performing group-by before join*.
//!
//! Given a query of the class fixed in Section 3 —
//!
//! ```sql
//! SELECT [ALL|DISTINCT] SGA1, SGA2, F(AA)
//! FROM   R1, R2
//! WHERE  C1 AND C0 AND C2
//! GROUP BY GA1, GA2
//! ```
//!
//! the **Main Theorem** (Section 5) states that the eager evaluation
//! `E2` — group and aggregate `σ[C1]R1` on `GA1+` *first*, then join —
//! is equivalent to the standard `E1` **iff** two functional
//! dependencies hold in the join result:
//!
//! * `FD1: (GA1, GA2) → GA1+`
//! * `FD2: (GA1+, GA2) → RowID(R2)`
//!
//! This crate implements:
//!
//! * [`partition`] — splitting the FROM clause into the aggregation
//!   side `R1` and the rest `R2`, computing `GA1/GA2/GA1+/GA2+` and the
//!   `C1/C0/C2` predicate split (Section 3), with the Section 9
//!   *column-substitution / re-partitioning* fallback;
//! * [`testfd`] — the fast sufficient test `TestFD` (Section 6.3),
//!   literally: CNF, drop non-equality clauses, DNF, per-disjunct
//!   transitive closure over Type-1/Type-2 atoms and key constraints,
//!   with a machine-readable trace reproducing Figure 7 / Example 3;
//! * [`theorem3`] — the stronger constraint-based test of Theorem 3
//!   (adds CHECK/domain/assertion-derived atoms to the predicate before
//!   running the closure machinery);
//! * [`transform`] — constructing the rewritten query block `E2`
//!   (Theorem 2's generalised form with `SGA ⊆ GA` and DISTINCT);
//! * [`substitute`] — Section 9's *column substitution*: rewriting
//!   aggregate arguments along WHERE equalities so more partitions
//!   become available;
//! * [`reverse`] — Section 8: unfolding an aggregated view
//!   (join-before-group-by → the single-block form), validated by the
//!   same conditions.
//!
//! *Whether* to apply a valid transformation is not decided here: the
//! Section 7 cost model lives beside the lowered plan shapes it prices,
//! in `gbj_optimizer::cost`.

pub mod partition;
pub mod reverse;
pub mod substitute;
pub mod testfd;
pub mod theorem3;
pub mod transform;

pub use partition::{Partition, PartitionError};
pub use reverse::{reverse_transform, ReverseOutcome};
pub use substitute::substitution_candidates;
pub use testfd::{DisjunctTrace, TestFdOutcome, TestFdTrace};
pub use transform::{eager_aggregate, EagerOutcome, TransformOptions};
