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

//! # gbj-server
//!
//! The concurrent serving layer over [`gbj_engine::Database`]: many
//! clients, mixed DML + aggregate-join traffic, and queries that can be
//! cancelled, shed, or timed out without ever corrupting results.
//!
//! Four pieces compose (DESIGN.md §13):
//!
//! * **Sessions + snapshot reads** ([`Server`], [`Session`]) — reads
//!   run on epoch-versioned `Arc`-shared snapshots, concurrent with
//!   writes, and never observe torn state; prepared plans live in a
//!   [`PlanCache`] keyed on SQL text + plan epoch (storage epoch,
//!   stats epoch).
//! * **Deadlines + cooperative cancellation** — a
//!   [`CancellationToken`](gbj_exec::CancellationToken) and a deadline
//!   ride the query's `ResourceGuard` and are polled at every
//!   morsel/batch boundary, surfacing typed
//!   [`Error::Cancelled`](gbj_types::Error::Cancelled) /
//!   [`Error::DeadlineExceeded`](gbj_types::Error::DeadlineExceeded) —
//!   never a panic, never a partial result.
//! * **Admission control** ([`AdmissionController`]) — a bounded slot
//!   pool plus bounded wait queue composing per-query budgets into a
//!   server budget; overload sheds with typed
//!   [`Error::Overloaded`](gbj_types::Error::Overloaded), and
//!   [`with_retry`] gives clients deterministic seeded-jitter backoff.
//! * **Observability** ([`ServerMetrics`]) — thread-count-invariant
//!   admission/shed/cancel/deadline counters behind the REPL's
//!   `\sessions`.
//!
//! The chaos differential test (`tests/serving_differential.rs`) is the
//! load-bearing consumer: under concurrent seeded chaos, every
//! successful read must be byte-identical to a serial replay of the
//! [`CommittedOp`] log.

mod admission;
mod cache;
mod metrics;
mod retry;
mod session;

pub use admission::{AdmissionConfig, AdmissionController, Permit};
pub use cache::PlanCache;
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use retry::{with_retry, RetryPolicy};
pub use session::{
    CommittedOp, QueryOpts, QueryResponse, Server, ServerConfig, Session, WriteResponse,
};
