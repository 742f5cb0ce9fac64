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

//! # gbj-types
//!
//! Foundation types for the `gbj` query engine, a reproduction of
//! Yan & Larson, *Performing Group-By before Join* (ICDE 1994).
//!
//! This crate implements the paper's formal machinery from Section 4:
//!
//! * [`Truth`] — SQL2's three-valued logic with the exact `AND`/`OR`
//!   truth tables of the paper's Figure 2, plus the interpretation
//!   operators `⌊P⌋` ([`Truth::floor`]) and `⌈P⌉` ([`Truth::ceil`]) of
//!   Figure 3.
//! * [`Value`] — SQL values including `NULL`, with *two* notions of
//!   equality: the three-valued search-condition equality
//!   ([`Value::sql_eq`], where `NULL = anything` is `Unknown`) and the
//!   duplicate-detection equality `=ⁿ` ([`Value::null_eq`], where
//!   `NULL =ⁿ NULL` is true), exactly as Section 4.2 prescribes.
//! * [`Schema`] / [`Field`] / [`ColumnRef`] — table schemas and
//!   qualified column references used by every layer above.
//! * [`Error`] — the shared error type.

pub mod datatype;
pub mod error;
pub mod schema;
pub mod truth;
pub mod value;

pub use datatype::DataType;
pub use error::{Error, ResourceKind, Result};
pub use schema::{ColumnRef, Field, Schema};
pub use truth::Truth;
pub use value::{key_hash, mix, shard_of, stream_hash, Fold, GroupKey, Value};
