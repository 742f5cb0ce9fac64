//! Columnar batches — re-exported from [`gbj_storage::columnar`].
//!
//! The batch representation lives in the storage crate because storage
//! *is* columnar: a table keeps each column as `Arc`-shared blocks, a
//! block of a fixed-width column is a [`ColumnVector`], and
//! [`gbj_storage::ScanCursor::next_columnar`] hands blocks out as the
//! columns of a [`ColumnarBatch`] (an `Arc` clone each; nothing is
//! transposed or re-interned per scan). A batch holds its columns
//! behind `Arc`s for that reason, so operators that only pass a column
//! on — `Project` of a bare column reference, the unselected arm of
//! `concat_chunks` — share it instead of copying it. This module stays
//! as a re-export so executor code and downstream crates keep their
//! `crate::batch::` / `gbj_exec::` paths.
//!
//! See [`gbj_storage::columnar`] for the full module documentation:
//! validity-bitmap NULL semantics (3VL search conditions vs the `=ⁿ`
//! duplicate relation), the lossless `to_rows`/`from_rows` round-trip
//! that the differential suites use as their oracle boundary, and the
//! dictionary-encoded string columns ([`ColumnVector::Dict`], reserved
//! [`NULL_CODE`]) that let `=ⁿ` group keys hash on `u32` codes — one
//! table-lifetime [`StringDict`] per stored column, so every batch of
//! one scan carries the same `Arc` and the code-native join / group /
//! concat paths can test it with `Arc::ptr_eq`.

pub use gbj_storage::{Bitmap, BitmapIter, ColumnVector, ColumnarBatch, StringDict, NULL_CODE};
