//! Placement: the part of `n` a row is put on.
//!
//! A row keyed by a declared or a grouping key goes to the part
//! [`GroupKey::shard`](gbj_types::GroupKey::shard) names for its decoded
//! key — [`shard_of`] the fixed-seed [`stream_hash`] of the key's `=ⁿ`
//! hash stream — so keys that compare `=ⁿ`-equal share a part and every
//! NULL key lands on one. The functions here write that stream straight
//! from typed columns ([`gbj_types::key_hash`]), without building the
//! key: a table's split of its sealed blocks ([`ScanSplit`](crate::ScanSplit))
//! and the pipeline's exchanges (`gbj-exec`'s `KeyView::shards`) both
//! route through them, so there is one placement implementation. Each
//! entry point matches the column shape once and runs one monomorphic
//! loop over the rows; an all-valid `Int` key skips its validity
//! bitmap.
//!
//! A table without a declared key is placed by row ordinal
//! ([`by_ordinal`]), as a loader without placement knowledge would.
//! [`per_part`] turns a destination vector into each part's row ids:
//! the rows a split copies, and the selections an exchange deals.

use std::ops::Range;

use gbj_types::{internal_err, key_hash, shard_of, stream_hash, Fold, Result};

use crate::columnar::{Bitmap, ColumnVector, StringDict};

/// The part of `n` whose key hash stream `feed` writes.
#[inline]
pub fn part(n: usize, feed: impl FnOnce(&mut Fold)) -> u32 {
    shard_of(stream_hash(feed), n) as u32
}

/// The part of each row of `rows` keyed by the columns `key`, in order.
pub fn by_key(key: &[&ColumnVector], rows: impl Iterator<Item = usize>, n: usize) -> Vec<u32> {
    match key {
        [ColumnVector::Int { values, validity }] => by_ints(values, validity, rows, n),
        [ColumnVector::Dict { codes, dict }] => by_codes(codes, dict, rows, n),
        _ => rows
            .map(|i| part(n, |h| key.iter().for_each(|c| c.hash_cell(i, h))))
            .collect(),
    }
}

/// The part of each row of `rows` keyed by one `Int` column.
pub fn by_ints(
    values: &[i64],
    validity: &Bitmap,
    rows: impl Iterator<Item = usize>,
    n: usize,
) -> Vec<u32> {
    let place = |v: Option<i64>| {
        part(n, |h| match v {
            Some(v) => key_hash::int(v, h),
            None => key_hash::null(h),
        })
    };
    if validity.all_valid() {
        rows.map(|i| place(values.get(i).copied())).collect()
    } else {
        let key = |i: usize| values.get(i).copied().filter(|_| validity.get(i));
        rows.map(|i| place(key(i))).collect()
    }
}

/// The part of each row of `rows` keyed by one dictionary column: a
/// code outside the dictionary is NULL.
pub fn by_codes(
    codes: &[u32],
    dict: &StringDict,
    rows: impl Iterator<Item = usize>,
    n: usize,
) -> Vec<u32> {
    rows.map(|i| {
        part(n, |h| match codes.get(i).and_then(|&c| dict.get(c)) {
            Some(s) => key_hash::str(s, h),
            None => key_hash::null(h),
        })
    })
    .collect()
}

/// The rows of `rows` each of `n` parts gets when row `k` of `rows`
/// goes to part `dests[k]`: per part its row ids in the order given.
pub fn per_part(
    rows: impl Iterator<Item = usize>,
    dests: &[u32],
    n: usize,
) -> Result<Vec<Vec<u32>>> {
    let mut counts = vec![0usize; n];
    for &dest in dests {
        *counts
            .get_mut(dest as usize)
            .ok_or_else(|| internal_err!("row placed on part {dest} of {n}"))? += 1;
    }
    let mut ids: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (i, &dest) in rows.zip(dests) {
        if let Some(held) = ids.get_mut(dest as usize) {
            held.push(i as u32);
        }
    }
    Ok(ids)
}

/// The part of each row ordinal of `ordinals`: round-robin.
#[must_use]
pub fn by_ordinal(ordinals: Range<usize>, n: usize) -> Vec<u32> {
    let n = n.max(1);
    ordinals.map(|ordinal| (ordinal % n) as u32).collect()
}
