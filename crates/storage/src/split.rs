//! The split of a scan batch over the parts of the chunk pipeline.
//!
//! Over `n` parts a scan hands each part the rows placed on it: each
//! row goes to the part of its declared partition key
//! ([`place::by_key`], `GroupKey::shard` under `=ⁿ`, every NULL key on
//! one part) or, with no key declared, of its row ordinal
//! ([`place::by_ordinal`]), and each part's rows are copied, in
//! position order, into one dense [`ColumnarBatch`] holding every
//! column — a [`ScanSplit`].
//!
//! A sealed block does not change until DELETE or UPDATE re-packs the
//! table, so its split depends only on the block, the key and `n`: the
//! table makes it on the first scan at `n` parts and keeps it beside
//! the block ([`SplitCell`], one per sealed block, shared by every
//! clone holding the block, as the fold of the sealed blocks' statistics
//! is). A split made for another key or another part count is made
//! again, never served; so is one whose dictionary columns carry a
//! dictionary the column has since outgrown, so that every batch of one
//! scan carries the same `Arc<StringDict>`. The tail, and every batch
//! the cursor copies or cuts (NULL flips, an injected batch size), is
//! split on every scan by the same function.
//!
//! The split is storage, not operator state: like the stored blocks it
//! is not charged to a query's resource guard or counted in its state
//! bytes. It holds one copy of a table's sealed columns per key and
//! part count last asked.

use std::sync::{Arc, Mutex};

use gbj_types::Result;

use crate::columnar::{ColumnVector, ColumnarBatch, StringDict};
use crate::place;

/// One scan batch split over `n` parts: what the batch holds, each
/// part's rows in position order in one dense batch of every column
/// (an empty batch for a part no row goes to).
#[derive(Debug)]
pub struct ScanSplit {
    /// The partition key it was made for, `None` for ordinal placement.
    key: Option<Vec<usize>>,
    /// One batch per part.
    parts: Vec<ColumnarBatch>,
}

/// Where a sealed block's split is kept: empty until a scan over
/// several parts asks for it.
pub(crate) type SplitCell = Mutex<Option<Arc<ScanSplit>>>;

impl ScanSplit {
    /// Split `batch`, whose first row is row ordinal `first` of the
    /// table, over `n` parts by `key`.
    pub(crate) fn of(
        batch: &ColumnarBatch,
        first: usize,
        key: Option<&[usize]>,
        n: usize,
    ) -> Result<ScanSplit> {
        let n = n.max(1);
        let rows = batch.len();
        let dests = match key {
            Some(ords) => {
                let cols = ords.iter().map(|&o| batch.column(o));
                place::by_key(&cols.collect::<Result<Vec<_>>>()?, 0..rows, n)
            }
            None => place::by_ordinal(first..first + rows, n),
        };
        let parts = place::per_part(0..rows, &dests, n)?
            .iter()
            .map(|sel| {
                let cols = batch.columns().iter().map(|c| c.gather(sel)).collect();
                ColumnarBatch::from_columns(cols, sel.len())
            })
            .collect::<Result<_>>()?;
        Ok(ScanSplit {
            key: key.map(<[usize]>::to_vec),
            parts,
        })
    }

    /// Rows of the batch it splits.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.parts.iter().map(ColumnarBatch::len).sum()
    }

    /// One batch per part, in part order.
    #[must_use]
    pub fn parts(&self) -> &[ColumnarBatch] {
        &self.parts
    }

    /// Whether this split answers a scan over `n` parts by `key` of
    /// columns whose dictionaries are now `dict_of(column)`.
    pub(crate) fn serves<'a>(
        &self,
        key: Option<&[usize]>,
        n: usize,
        dict_of: impl Fn(usize) -> Option<&'a Arc<StringDict>>,
    ) -> bool {
        let current = |batch: &ColumnarBatch| {
            let mut cols = batch.columns().iter().enumerate();
            cols.all(|(c, col)| match col.as_ref() {
                ColumnVector::Dict { dict, .. } => {
                    dict_of(c).is_some_and(|now| Arc::ptr_eq(dict, now))
                }
                _ => true,
            })
        };
        self.key.as_deref() == key && self.parts.len() == n.max(1) && self.parts.iter().all(current)
    }
}
