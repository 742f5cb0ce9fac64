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

//! # gbj-analyze
//!
//! Static analysis over logical plans: a reusable diagnostics framework
//! plus the passes that turn the paper's proof obligations into
//! machine-checked artifacts.
//!
//! ## Passes
//!
//! 1. **Schema/type soundness** ([`schema_pass`]) — every operator's
//!    output schema derives from its inputs, all column references
//!    resolve, comparisons are type-compatible under three-valued
//!    logic. Codes GBJ101–GBJ104.
//! 2. **FD-derivation audit** ([`fd_audit`]) — a refused
//!    eager-aggregation rewrite carries a stable code naming the
//!    `TestFD` (paper §6.3) step that failed (GBJ202–GBJ206). A
//!    rewrite's certificate is the planner's own `TestFD` trace — the
//!    constraint/equality-closure chain deriving `FD1: (GA1, GA2) →
//!    GA1+` and `FD2: (GA1+, GA2) → RowID(R2)`, per DNF disjunct —
//!    and this pass does not run `TestFD` again.
//! 3. **NULL-semantics lints** ([`null_pass`]) — flag predicate shapes
//!    where the paper's `⌊P⌋`/`⌈P⌉` three-valued interpretations
//!    diverge from naive two-valued evaluation (GBJ301–GBJ303), and
//!    verify rewrites preserve the `=ⁿ` grouping semantics
//!    structurally (GBJ304).
//! 4. **Range/NULL-ness/NDV domains** ([`range_pass`], lattice in
//!    [`domain`]) — a bottom-up abstract interpreter seeding per-column
//!    domains from the catalog (types, NOT NULL, CHECK) and data
//!    statistics, transferring them through filter / project / join /
//!    group under `=ⁿ` semantics. It reads every predicate through its
//!    two-valued lowering `⌊P⌋` (`gbj_expr::lower`), proves
//!    contradictions and tautologies (GBJ601–GBJ605), and hands the
//!    engine hard cardinality upper bounds that clamp the estimator.
//!
//! ## Diagnostics
//!
//! Every diagnostic carries a stable [`Code`] (`GBJxxx`), a
//! [`Severity`], an optional plan-path span (`$.0.1` addressing into
//! the plan tree) and free-form notes; a [`Report`] renders as text or
//! JSON (hand-rolled — the build environment has no serde). The full
//! registry is [`Code::all`].
//!
//! The engine drives the passes through [`Analysis`]; standalone
//! surfaces are the `gbj-lint` binary, `EXPLAIN (LINT)` in SQL, and
//! `\lint` in the REPL.

pub mod analyzer;
pub mod diag;
pub mod domain;
pub mod fd_audit;
pub mod null_pass;
pub mod range_pass;
pub mod schema_pass;

pub use analyzer::Analysis;
pub use diag::{Code, Diagnostic, PlanPath, Report, Severity};
pub use domain::{ColumnDomain, Interval, Nullability};
pub use fd_audit::{audit_eager_outcome, audit_reverse_outcome, failure_code};
pub use range_pass::{analyze_plan, DomainNode, RangeAnalysis, SeedDomains};
