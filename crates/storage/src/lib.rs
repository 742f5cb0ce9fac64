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

//! # gbj-storage
//!
//! In-memory storage for base tables.
//!
//! Tables are **multisets** of rows (paper Section 4.3: "a table may
//! contain duplicate rows"); every stored row carries an implicit
//! `RowID` that uniquely identifies it, realising the paper's assumption
//! that "there always exists a column in each table called RowID".
//!
//! There is one physical layout, and it is column-major: a [`Table`]
//! keeps each column (the RowIDs included) as dense fixed-size blocks,
//! each behind its own `Arc` — typed values plus a validity bitmap, or
//! `u32` codes into a per-column dictionary interned at insert — so a
//! scan ([`Storage::open_scan`]) hands blocks out as [`ColumnarBatch`]
//! columns without transposing anything, a clone shares every block,
//! and a write copies the one block it appends to. Rows exist in flight
//! only: [`Row`] for DML, [`ScanCursor::next_batch`] as the row view the
//! row engine reads. Over several parts a scan reads each batch already
//! split into one dense batch per part ([`ScanCursor::next_split`],
//! [`ScanSplit`], placed by [`place`]); a sealed block's split is made
//! once and kept beside the block.
//!
//! [`Storage`] couples the data with the [`Catalog`](gbj_catalog::Catalog)
//! and enforces every declared constraint on insert — NOT NULL, CHECK
//! (with SQL2's `⌈·⌉` semantics: a check passes unless *false*), domain
//! checks, PRIMARY KEY / UNIQUE (the latter with "NULL ≠ NULL"
//! semantics, as the paper notes for the UNIQUE predicate), and FOREIGN
//! KEY. Section 6's reasoning depends on this: *because* constraints
//! hold in every valid instance, they may be conjoined to any WHERE
//! clause, which is what lets `TestFD` use them to derive functional
//! dependencies.
//!
//! Each [`Table`] also keeps the statistics of its current rows
//! ([`stats`]) as a fold over its blocks: the sealed blocks are folded
//! once, by the writes that fill them, and one [`TableStats`] per table
//! version merges that fold with a pass over the tail block — built on
//! first use and shared by every clone of the table (and so by every
//! [`Storage`] clone, database fork and server snapshot). A write
//! leaves the sealed fold alone, so what the next plan reads is the
//! tail. It is what cardinality estimation reads instead of the rows.
//! Declared keys are enforced from [`keys`]: raw `i64`s or decoded
//! keys in sets of bounded size, so neither half of an `INSERT` grows
//! with the table.

pub mod columnar;
pub mod fault;
pub mod keys;
pub mod place;
mod split;
pub mod stats;
mod storage;
mod table;

pub use columnar::{Bitmap, BitmapIter, ColumnVector, ColumnarBatch, StringDict, NULL_CODE};
pub use fault::{FaultConfig, FaultInjector};
pub use split::ScanSplit;
pub use stats::{ColumnStats, DistinctSketch, EquiDepthHistogram, TableStats};
pub use storage::{ScanCursor, Storage};
pub use table::{Row, Table};
