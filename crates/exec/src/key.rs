//! One key path: how the chunk pipeline keys row `i` of a batch.
//!
//! Grouping, joining, deduplicating and routing all ask the same thing
//! of a batch's key columns, and [`KeyView`] answers it once, typed:
//!
//! - **a raw key per row** ([`KeyView::raw`]) when the key is one `Int`
//!   column (the `i64`) or one dictionary column (the `u32` code) —
//!   `None` for NULL, which the caller reads as the `=ⁿ` NULL group (a
//!   group table, a dedup set, a route) or as a row that matches nothing
//!   (a 3VL join);
//! - **the `=ⁿ` hash stream** ([`KeyView::shards`]): the bytes
//!   [`GroupKey`]'s `Hash` would feed [`gbj_types::stream_hash`] — the
//!   fixed-seed fold the key index and the sketches hash with — written
//!   straight from the typed column by [`gbj_storage::place`], the one
//!   placement implementation a table's scan split also routes through,
//!   so a row lands on `GroupKey::shard` of its decoded key without that
//!   key ever being built;
//! - **the decoded key** ([`KeyView::decode`]) for whoever does need
//!   the [`GroupKey`]: the generic arm, per row, and a raw-keyed table
//!   when it is drained or demoted, once per group.
//!
//! NULL is decided here, once per view, the way the null-aware algebra
//! keeps it: a marker beside the value domain (a validity bit, an
//! out-of-dictionary code) — never a value a raw key could equal.
//!
//! Under the view sits one [`KeyMap`]: key → entry number, entries in
//! first-seen order, on one of three arms — a direct-indexed directory
//! while the raw keys fall in a span of at most [`DIRECT_CELLS`], a hash
//! map on the raw key while every batch has the same raw shape, on
//! decoded [`GroupKey`]s otherwise — with lossless demotions down that
//! list. The group table maps keys to slots with it, the join build to
//! row ids, `DISTINCT` to `()`. Each of them hands the map a whole
//! chunk ([`KeyMap::place`], [`KeyMap::probe`]): the arm and the view's
//! shape are matched once, then one typed loop runs over the rows. The
//! two hashed arms — how a raw and a decoded key are stored, hashed and
//! compared — are [`gbj_storage::keys::KeyArms`], the same a table's
//! key index keeps the keys of a PRIMARY KEY in; the directory is this
//! module's own, since a key index never spans a small dense range it
//! could know in advance (DESIGN.md §11).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use gbj_storage::keys::{FoldSeed, KeyArms};
use gbj_storage::place;
use gbj_types::{internal_err, GroupKey, Result, Value};

use crate::batch::{Bitmap, ColumnVector, ColumnarBatch, StringDict};

/// A typed view of the key columns of one batch (or of the keys a group
/// table holds, see [`KeyView::Keys`]).
pub(crate) enum KeyView<'a> {
    /// One `Int` column: the raw key is the value.
    Int {
        values: &'a [i64],
        validity: &'a Bitmap,
    },
    /// One dictionary column: the raw key is the code. Every code
    /// outside the dictionary is NULL.
    Dict {
        codes: &'a [u32],
        dict: &'a Arc<StringDict>,
    },
    /// Any other column list: keys decode cell by cell.
    Columns(Vec<&'a ColumnVector>),
    /// Keys that already are decoded (a generic group table's own).
    Keys(&'a [GroupKey]),
}

impl<'a> KeyView<'a> {
    /// The view of `cols` as one key, column order being key order.
    pub(crate) fn new(cols: Vec<&'a ColumnVector>) -> KeyView<'a> {
        match cols.as_slice() {
            [ColumnVector::Int { values, validity }] => KeyView::Int { values, validity },
            [ColumnVector::Dict { codes, dict }] => KeyView::Dict { codes, dict },
            _ => KeyView::Columns(cols),
        }
    }

    /// The view of `batch`'s columns `ords`.
    pub(crate) fn of(batch: &'a ColumnarBatch, ords: &[usize]) -> Result<KeyView<'a>> {
        let cols = ords.iter().map(|&o| batch.column(o));
        Ok(KeyView::new(cols.collect::<Result<_>>()?))
    }

    /// The view of every column of `batch`: the whole row as the key.
    pub(crate) fn of_rows(batch: &'a ColumnarBatch) -> KeyView<'a> {
        KeyView::new(batch.columns().iter().map(AsRef::as_ref).collect())
    }

    /// The raw key of row `i`, `None` when it is NULL — defined on the
    /// two raw arms; the generic arms answer `None` for every row.
    #[inline]
    pub(crate) fn raw(&self, i: usize) -> Option<i64> {
        match self {
            KeyView::Int { values, validity } => values.get(i).copied().filter(|_| validity.get(i)),
            KeyView::Dict { codes, dict } => codes
                .get(i)
                .filter(|&&c| (c as usize) < dict.len())
                .map(|&c| i64::from(c)),
            KeyView::Columns(_) | KeyView::Keys(_) => None,
        }
    }

    /// Whether any component of key `i` is NULL (such a row joins
    /// nothing: `NULL = x` is `unknown`).
    pub(crate) fn has_null(&self, i: usize) -> bool {
        match self {
            KeyView::Int { .. } | KeyView::Dict { .. } => self.raw(i).is_none(),
            KeyView::Columns(cols) => cols.iter().any(|c| !c.is_valid(i)),
            KeyView::Keys(keys) => keys.get(i).is_none_or(|k| k.0.iter().any(Value::is_null)),
        }
    }

    /// The decoded `=ⁿ` key of row `i`.
    pub(crate) fn decode(&self, i: usize) -> GroupKey {
        match self {
            KeyView::Int { .. } => GroupKey(vec![self.raw(i).map_or(Value::Null, Value::Int)]),
            KeyView::Dict { codes, dict } => {
                let s = codes.get(i).and_then(|&c| dict.get(c));
                GroupKey(vec![s.map_or(Value::Null, Value::str)])
            }
            KeyView::Columns(cols) => GroupKey(cols.iter().map(|c| c.value(i)).collect()),
            KeyView::Keys(keys) => keys.get(i).cloned().unwrap_or(GroupKey(Vec::new())),
        }
    }

    /// `row_bytes` of the decoded key of row `i`, from column widths:
    /// what a table charges for holding it.
    pub(crate) fn key_bytes(&self, i: usize) -> u64 {
        let (arity, strings) = match self {
            KeyView::Int { .. } => (1, 0),
            KeyView::Dict { codes, dict } => {
                let s = codes.get(i).and_then(|&c| dict.get(c));
                (1, s.map_or(0, str::len))
            }
            KeyView::Columns(cols) => (
                cols.len(),
                cols.iter().map(|c| string_bytes(c, i)).sum::<usize>(),
            ),
            KeyView::Keys(keys) => {
                return keys.get(i).map_or(0, |k| crate::guard::row_bytes(&k.0));
            }
        };
        (std::mem::size_of::<Vec<Value>>() + arity * std::mem::size_of::<Value>() + strings) as u64
    }

    /// One destination per row of `rows`, in order — row `i` goes to
    /// `decode(i).shard(n)` — through storage's one placement
    /// implementation ([`gbj_storage::place`]): the view is matched
    /// once, then one typed loop runs over the rows.
    pub(crate) fn shards(&self, rows: impl Iterator<Item = usize>, n: usize) -> Vec<u32> {
        match self {
            KeyView::Int { values, validity } => place::by_ints(values, validity, rows, n),
            KeyView::Dict { codes, dict } => place::by_codes(codes, dict, rows, n),
            KeyView::Columns(cols) => place::by_key(cols, rows, n),
            KeyView::Keys(keys) => rows
                .map(|i| {
                    place::part(n, |h| {
                        if let Some(k) = keys.get(i) {
                            k.hash(h);
                        }
                    })
                })
                .collect(),
        }
    }
}

/// The string bytes of cell `i` of `col` (0 unless it holds a string):
/// the variable part of its `row_bytes`.
pub(crate) fn string_bytes(col: &ColumnVector, i: usize) -> usize {
    match col {
        ColumnVector::Str { values, validity } if validity.get(i) => {
            values.get(i).map_or(0, String::len)
        }
        ColumnVector::Dict { codes, dict } => {
            codes.get(i).and_then(|&c| dict.get(c)).map_or(0, str::len)
        }
        _ => 0,
    }
}

/// The shape of the raw keys a [`KeyMap`] holds.
#[derive(Clone)]
enum RawShape {
    Int,
    /// Codes of this dictionary (compared by address).
    Dict(Arc<StringDict>),
}

impl RawShape {
    /// The raw shape of `view`'s keys, if it has one.
    fn of(view: &KeyView<'_>) -> Option<RawShape> {
        match view {
            KeyView::Int { .. } => Some(RawShape::Int),
            KeyView::Dict { dict, .. } => Some(RawShape::Dict(Arc::clone(dict))),
            KeyView::Columns(_) | KeyView::Keys(_) => None,
        }
    }

    /// Whether `view`'s keys are placed under this shape: `Int`s, or
    /// codes of this very dictionary.
    fn fits(&self, view: &KeyView<'_>) -> bool {
        match (self, view) {
            (RawShape::Dict(mine), KeyView::Dict { dict, .. }) => Arc::ptr_eq(mine, dict),
            _ => self.reads(view),
        }
    }

    /// Whether `view`'s keys can be probed against this shape: `Int`s,
    /// or codes of any dictionary (the probe translates another
    /// dictionary's codes, [`code_translation`]).
    fn reads(&self, view: &KeyView<'_>) -> bool {
        matches!(
            (self, view),
            (RawShape::Int, KeyView::Int { .. }) | (RawShape::Dict(_), KeyView::Dict { .. })
        )
    }

    fn decode(&self, raw: Option<i64>) -> GroupKey {
        let value = match (self, raw) {
            (RawShape::Int, Some(k)) => Value::Int(k),
            (RawShape::Dict(dict), Some(code)) => u32::try_from(code)
                .ok()
                .and_then(|c| dict.get(c))
                .map_or(Value::Null, Value::str),
            (_, None) => Value::Null,
        };
        GroupKey(vec![value])
    }
}

/// Bind `$key` to the raw-key reader of `$view` — `Some(i64)` per row,
/// `None` for NULL, as [`KeyView::raw`] reads it — and run `$body`
/// with it: one monomorphic loop per reader (an all-valid `Int`
/// column skips its validity bitmap). `$other` for a view without raw
/// keys.
macro_rules! with_raw_keys {
    ($view:expr, |$key:ident| $body:expr, $other:expr) => {
        match $view {
            KeyView::Int { values, validity } if validity.all_valid() => {
                let $key = |i: usize| values.get(i).copied();
                $body
            }
            KeyView::Int { values, validity } => {
                let $key = |i: usize| values.get(i).copied().filter(|_| validity.get(i));
                $body
            }
            KeyView::Dict { codes, dict } => {
                let live = dict.len();
                let $key = move |i: usize| {
                    codes
                        .get(i)
                        .filter(|&&c| (c as usize) < live)
                        .map(|&c| i64::from(c))
                };
                $body
            }
            KeyView::Columns(_) | KeyView::Keys(_) => $other,
        }
    };
}

/// An empty directory cell.
const EMPTY: u32 = u32::MAX;

/// The most cells a [`Directory`] spans: 2^16 `u32`s, 256 KiB.
pub(crate) const DIRECT_CELLS: usize = 1 << 16;

/// Raw key → entry number for keys in one small span: cell `k − base`
/// holds the entry of key `k`, [`EMPTY`] when there is none. The span
/// never leaves the `i64` range, and `k − base` is taken modulo 2^64,
/// so a key below `base` lands past the end like one above it.
struct Directory {
    base: i64,
    index: Vec<u32>,
}

impl Directory {
    /// A directory spanning `lo..=hi` exactly (no cell when no key has
    /// been seen), if that is at most [`DIRECT_CELLS`] cells.
    fn spanning(span: Option<(i64, i64)>) -> Option<Directory> {
        let Some((lo, hi)) = span else {
            return Some(Directory {
                base: 0,
                index: Vec::new(),
            });
        };
        let cells = usize::try_from(i128::from(hi) - i128::from(lo) + 1).ok()?;
        (cells <= DIRECT_CELLS).then(|| Directory {
            base: lo,
            index: vec![EMPTY; cells],
        })
    }

    /// Where key `k` sits: a valid cell exactly when `k` is inside the
    /// span.
    #[inline]
    fn offset(&self, key: i64) -> usize {
        let off = (key as u64).wrapping_sub(self.base as u64);
        usize::try_from(off).unwrap_or(usize::MAX)
    }

    /// The entry of key `k`, if it has one.
    #[inline]
    fn get(&self, key: i64) -> Option<u32> {
        let entry = *self.index.get(self.offset(key))?;
        (entry != EMPTY).then_some(entry)
    }

    /// Take `key` into the span, with headroom: the directory at least
    /// doubles, towards `key`, and never passes [`DIRECT_CELLS`] cells
    /// or the `i64` range. `false`, unchanged, when the span with `key`
    /// would pass [`DIRECT_CELLS`].
    fn widen(&mut self, key: i64) -> bool {
        let (base, held, k) = (
            i128::from(self.base),
            self.index.len() as i128,
            i128::from(key),
        );
        let (lo, hi) = match held {
            0 => (k, k),
            _ => (base.min(k), (base + held - 1).max(k)),
        };
        let cap = DIRECT_CELLS as i128;
        if hi - lo + 1 > cap {
            return false;
        }
        let cells = (hi - lo + 1).max(2 * held).min(cap);
        let (new_base, cells) = if k < base && held > 0 {
            ((hi + 1 - cells).max(i128::from(i64::MIN)), cells)
        } else {
            (lo, cells.min(i128::from(i64::MAX) - lo + 1))
        };
        let (Ok(new_base), Ok(cells), Ok(shift)) = (
            i64::try_from(new_base),
            usize::try_from(cells),
            usize::try_from(base - new_base),
        ) else {
            return false;
        };
        let mut index = vec![EMPTY; cells];
        if held > 0 {
            let Some(moved) = index.get_mut(shift..shift + self.index.len()) else {
                return false;
            };
            moved.copy_from_slice(&self.index);
        }
        *self = Directory {
            base: new_base,
            index,
        };
        true
    }

    /// Every held `(key, entry)`.
    fn entries(&self) -> impl Iterator<Item = (i64, u32)> + '_ {
        let cells = self.index.iter().enumerate();
        cells
            .filter(|&(_, &entry)| entry != EMPTY)
            .map(|(cell, &entry)| (self.base.wrapping_add(cell as i64), entry))
    }
}

/// How a [`KeyMap`] finds a key's entry number.
enum Arm {
    /// Raw keys of one small span, through a [`Directory`]. The `=ⁿ`
    /// NULL key's entry sits beside it, never in a cell.
    Direct { dir: Directory, null: Option<u32> },
    /// Raw keys by hash, or decoded keys.
    Hashed(KeyArms<u32>),
}

/// What a placing loop does with a key that holds a NULL.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Nulls {
    /// `=ⁿ`: NULL is one key like any other (a group, a distinct row).
    Group,
    /// 3VL: the row matches nothing, so it is left out (a join build).
    Skip,
}

/// Key → `V` under `=ⁿ`, for keys read through [`KeyView`]s.
///
/// Entries are numbered in first-seen order — a group table's entry
/// number *is* its slot — and the key → entry map runs on one of three
/// arms: a [`Directory`] over a small span of raw keys, a hash map on
/// raw keys, a hash map on decoded [`GroupKey`]s. The first chunk an
/// empty map sees picks the arm; a raw key outside the directory's span
/// widens it while the span stays within [`DIRECT_CELLS`], and demotes
/// it to the raw hash map past that; a view of another shape demotes a
/// raw map to decoded keys. Every demotion is lossless and keeps entry
/// numbers.
pub(crate) struct KeyMap<V> {
    /// The shape of the raw keys, while the arm is keyed on them.
    shape: Option<RawShape>,
    arm: Arm,
    entries: Vec<V>,
}

/// The number the entry after `held` entries gets.
fn next_entry(held: usize) -> Result<u32> {
    u32::try_from(held)
        .ok()
        .filter(|&e| e != EMPTY)
        .ok_or_else(|| internal_err!("key table of {held} entries exceeds entry range"))
}

/// Append a default entry; its number.
fn push_entry<V: Default>(entries: &mut Vec<V>) -> Result<u32> {
    let entry = next_entry(entries.len())?;
    entries.push(V::default());
    Ok(entry)
}

/// The NULL key's entry number, made if new; the flag says whether it
/// was.
fn null_entry<V: Default>(null: &mut Option<u32>, entries: &mut Vec<V>) -> Result<(u32, bool)> {
    match *null {
        Some(entry) => Ok((entry, false)),
        None => {
            let entry = push_entry(entries)?;
            *null = Some(entry);
            Ok((entry, true))
        }
    }
}

/// Hand the entry of row `i` to `visit`.
#[inline]
fn visit_entry<V>(
    entries: &mut [V],
    i: usize,
    (entry, new): (u32, bool),
    visit: &mut impl FnMut(usize, u32, &mut V, bool) -> Result<()>,
) -> Result<()> {
    let value = entries
        .get_mut(entry as usize)
        .ok_or_else(|| internal_err!("key table has no entry {entry}"))?;
    visit(i, entry, value, new)
}

/// The directory arm's loop. Stops at the first key the directory
/// cannot widen to and returns its row, unplaced, for the caller to go
/// on with on the raw hash arm.
fn place_direct<V: Default>(
    dir: &mut Directory,
    null: &mut Option<u32>,
    entries: &mut Vec<V>,
    rows: &mut impl Iterator<Item = usize>,
    nulls: Nulls,
    key: impl Fn(usize) -> Option<i64>,
    visit: &mut impl FnMut(usize, u32, &mut V, bool) -> Result<()>,
) -> Result<Option<usize>> {
    for i in rows {
        let placed = match key(i) {
            Some(k) => {
                let mut off = dir.offset(k);
                if off >= dir.index.len() {
                    if !dir.widen(k) {
                        return Ok(Some(i));
                    }
                    off = dir.offset(k);
                }
                let cell = dir
                    .index
                    .get_mut(off)
                    .ok_or_else(|| internal_err!("key {k} is outside its directory"))?;
                if *cell == EMPTY {
                    *cell = push_entry(entries)?;
                    (*cell, true)
                } else {
                    (*cell, false)
                }
            }
            None if nulls == Nulls::Skip => continue,
            None => null_entry(null, entries)?,
        };
        visit_entry(entries, i, placed, visit)?;
    }
    Ok(None)
}

/// The raw hash arm's loop.
fn place_raw<V: Default>(
    map: &mut HashMap<i64, u32, FoldSeed>,
    null: &mut Option<u32>,
    entries: &mut Vec<V>,
    rows: impl Iterator<Item = usize>,
    nulls: Nulls,
    key: impl Fn(usize) -> Option<i64>,
    visit: &mut impl FnMut(usize, u32, &mut V, bool) -> Result<()>,
) -> Result<()> {
    for i in rows {
        let placed = match key(i) {
            Some(k) => match map.entry(k) {
                Entry::Occupied(e) => (*e.get(), false),
                Entry::Vacant(e) => (*e.insert(push_entry(entries)?), true),
            },
            None if nulls == Nulls::Skip => continue,
            None => null_entry(null, entries)?,
        };
        visit_entry(entries, i, placed, visit)?;
    }
    Ok(())
}

/// The hash arms' loops (what follows a directory's demotion too).
fn place_hashed<V: Default>(
    arms: &mut KeyArms<u32>,
    entries: &mut Vec<V>,
    view: &KeyView<'_>,
    rows: impl Iterator<Item = usize>,
    nulls: Nulls,
    visit: &mut impl FnMut(usize, u32, &mut V, bool) -> Result<()>,
) -> Result<()> {
    match arms {
        KeyArms::Raw { map, null } => with_raw_keys!(
            view,
            |key| place_raw(map, null, entries, rows, nulls, key, visit),
            Err(internal_err!("a raw key map met a view without raw keys"))
        ),
        KeyArms::Generic(map) => {
            for i in rows {
                if nulls == Nulls::Skip && view.has_null(i) {
                    continue;
                }
                let placed = match map.entry(view.decode(i)) {
                    Entry::Occupied(e) => (*e.get(), false),
                    Entry::Vacant(e) => (*e.insert(push_entry(entries)?), true),
                };
                visit_entry(entries, i, placed, visit)?;
            }
            Ok(())
        }
    }
}

/// The non-NULL raw keys of `rows` of `view` as `(min, max)`; `None`
/// when there is none (or `view` has no raw keys).
fn raw_span(view: &KeyView<'_>, rows: impl Iterator<Item = usize>) -> Option<(i64, i64)> {
    with_raw_keys!(
        view,
        |key| rows.filter_map(key).fold(None, |span, k| match span {
            None => Some((k, k)),
            Some((lo, hi)) => Some((k.min(lo), k.max(hi))),
        }),
        None
    )
}

impl<V: Default> KeyMap<V> {
    /// An empty map keyed on decoded [`GroupKey`]s — until
    /// [`KeyMap::adopt`] sees a raw-shaped view.
    pub(crate) fn new() -> KeyMap<V> {
        KeyMap {
            shape: None,
            arm: Arm::Hashed(KeyArms::generic()),
            entries: Vec::new(),
        }
    }

    /// An empty map for a join whose build side is `build`, the keys of
    /// whose rows `rows` it will hold: raw when `build` has raw keys
    /// ([`KeyMap::ready_for_probe`] demotes it for a probe window that
    /// cannot be read against them).
    pub(crate) fn for_join(build: &KeyView<'_>, rows: impl Iterator<Item = usize>) -> KeyMap<V> {
        let mut map = KeyMap::new();
        map.adopt(build, rows);
        map
    }

    /// Get ready to [`probe`](KeyMap::probe) with `view`: a raw map that
    /// cannot [read](RawShape::reads) `view`'s keys is demoted to decoded
    /// keys, losing no entry.
    pub(crate) fn ready_for_probe(&mut self, view: &KeyView<'_>) {
        if !self.shape.as_ref().is_none_or(|shape| shape.reads(view)) {
            self.demote_to_generic();
        }
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is keyed on raw keys (through a directory or by
    /// hash).
    pub(crate) fn is_raw(&self) -> bool {
        self.shape.is_some()
    }

    /// Whether the map is keyed through a directory.
    #[cfg(test)]
    pub(crate) fn is_direct(&self) -> bool {
        matches!(self.arm, Arm::Direct { .. })
    }

    /// Get ready for the keys of rows `rows` of `view`. An empty map
    /// takes the view's shape: raw keys through a directory when the
    /// non-NULL keys of `rows` span at most [`DIRECT_CELLS`], by hash
    /// otherwise. A raw map that `view` does not fit is demoted to
    /// decoded keys (no entry is lost: a raw key decodes to the one
    /// `GroupKey` it stood for); a generic map stays generic.
    pub(crate) fn adopt(&mut self, view: &KeyView<'_>, rows: impl Iterator<Item = usize>) {
        if !self.entries.is_empty() {
            if !self.shape.as_ref().is_some_and(|shape| shape.fits(view)) {
                self.demote_to_generic();
            }
            return;
        }
        self.shape = RawShape::of(view);
        self.arm = match &self.shape {
            Some(_) => match Directory::spanning(raw_span(view, rows)) {
                Some(dir) => Arm::Direct { dir, null: None },
                None => Arm::Hashed(KeyArms::raw()),
            },
            None => Arm::Hashed(KeyArms::generic()),
        };
    }

    /// Re-key a directory by hash, past its cap.
    fn demote_to_raw(&mut self) {
        if let Arm::Direct { dir, null } = &self.arm {
            let map = dir.entries().collect();
            self.arm = Arm::Hashed(KeyArms::Raw { map, null: *null });
        }
    }

    /// Re-key a raw map on decoded keys (a generic one is left alone).
    fn demote_to_generic(&mut self) {
        let Some(shape) = self.shape.take() else {
            return;
        };
        self.arm = Arm::Hashed(
            match std::mem::replace(&mut self.arm, Arm::Hashed(KeyArms::generic())) {
                Arm::Direct { dir, null } => {
                    let cells = dir.entries().map(|(k, e)| (shape.decode(Some(k)), e));
                    let null = null.map(|e| (shape.decode(None), e));
                    KeyArms::Generic(cells.chain(null).collect())
                }
                Arm::Hashed(mut arms) => {
                    arms.demote(|raw| shape.decode(raw));
                    arms
                }
            },
        );
    }

    /// Place the key of every row of `rows` of `view` (the view last
    /// [`adopt`](KeyMap::adopt)ed, or any view when the map is
    /// generic): a key not held yet gets the next entry number and a
    /// default entry, then `visit(row, entry number, entry, new)` runs
    /// for the row. `nulls` says whether a key that holds a NULL is a
    /// key or leaves its row out. The arm and the view's shape are
    /// matched once, then one loop runs over the rows; a directory the
    /// rows outgrow is demoted in the middle and the rest of the rows
    /// go on by hash. Stops at the first error — of `visit` or of the
    /// entry range — with every entry made so far kept.
    pub(crate) fn place(
        &mut self,
        view: &KeyView<'_>,
        rows: impl Iterator<Item = usize>,
        nulls: Nulls,
        mut visit: impl FnMut(usize, u32, &mut V, bool) -> Result<()>,
    ) -> Result<()> {
        let mut rows = rows;
        let KeyMap { arm, entries, .. } = self;
        let outgrown = match arm {
            Arm::Direct { dir, null } => with_raw_keys!(
                view,
                |key| place_direct(dir, null, entries, &mut rows, nulls, key, &mut visit)?,
                return Err(internal_err!("a key directory met a view without raw keys"))
            ),
            Arm::Hashed(arms) => return place_hashed(arms, entries, view, rows, nulls, &mut visit),
        };
        let Some(at) = outgrown else {
            return Ok(());
        };
        self.demote_to_raw();
        let KeyMap { arm, entries, .. } = self;
        match arm {
            Arm::Hashed(arms) => {
                let rest = std::iter::once(at).chain(rows);
                place_hashed(arms, entries, view, rest, nulls, &mut visit)
            }
            Arm::Direct { .. } => Err(internal_err!("a key directory was not demoted")),
        }
    }

    /// Call `hit(row, entry)` for every row of `rows` of `view` whose key
    /// the map holds; a key that holds a NULL matches nothing (3VL). A
    /// dictionary-coded view of another dictionary than the map's reads
    /// each code through `translation` (see [`code_translation`]). The
    /// arm and the view's shape are matched once, then one loop runs
    /// over the rows.
    pub(crate) fn probe(
        &self,
        view: &KeyView<'_>,
        translation: Option<&[Option<i64>]>,
        rows: impl Iterator<Item = usize>,
        mut hit: impl FnMut(usize, &V),
    ) -> Result<()> {
        let translate = |k: i64| match translation {
            None => Some(k),
            Some(codes) => usize::try_from(k).ok().and_then(|c| *codes.get(c)?),
        };
        let mut found = |i: usize, entry: Option<u32>| {
            if let Some(value) = entry.and_then(|e| self.entries.get(e as usize)) {
                hit(i, value);
            }
        };
        let mismatch = || internal_err!("a raw key map met a view without raw keys");
        match &self.arm {
            Arm::Direct { dir, .. } => with_raw_keys!(
                view,
                |key| rows
                    .for_each(|i| found(i, key(i).and_then(translate).and_then(|k| dir.get(k)))),
                return Err(mismatch())
            ),
            Arm::Hashed(KeyArms::Raw { map, .. }) => with_raw_keys!(
                view,
                |key| rows.for_each(|i| {
                    found(
                        i,
                        key(i)
                            .and_then(translate)
                            .and_then(|k| map.get(&k).copied()),
                    );
                }),
                return Err(mismatch())
            ),
            Arm::Hashed(KeyArms::Generic(map)) => rows
                .filter(|&i| !view.has_null(i))
                .for_each(|i| found(i, map.get(&view.decode(i)).copied())),
        }
        Ok(())
    }

    /// The entry number of a decoded key — the row engine's way in —
    /// demoting a raw map first.
    pub(crate) fn get_key(&mut self, key: &GroupKey) -> Option<u32> {
        self.demote_to_generic();
        match &self.arm {
            Arm::Hashed(arms) => arms.get_key(key).copied(),
            Arm::Direct { .. } => None,
        }
    }

    /// Insert a decoded key [`KeyMap::get_key`] did not find, with entry
    /// `value`; its entry number.
    pub(crate) fn insert_key(&mut self, key: GroupKey, value: V) -> Result<u32> {
        self.demote_to_generic();
        let Arm::Hashed(KeyArms::Generic(map)) = &mut self.arm else {
            return Err(internal_err!("a demoted key map is not generic"));
        };
        let entry = next_entry(self.entries.len())?;
        map.insert(key, entry);
        self.entries.push(value);
        Ok(entry)
    }
}

/// The dictionary codes of `to` for each code of `from` (by decoded
/// string), for probing a `to`-keyed map with `from`-coded rows: `None`
/// when the two are one dictionary, and `None` per code for a string
/// `to` never saw.
pub(crate) fn code_translation(
    from: &Arc<StringDict>,
    to: &Arc<StringDict>,
) -> Result<Option<Vec<Option<i64>>>> {
    if Arc::ptr_eq(from, to) {
        return Ok(None);
    }
    let len = u32::try_from(from.len())
        .map_err(|_| internal_err!("dictionary of {} strings exceeds code range", from.len()))?;
    Ok(Some(
        (0..len)
            .map(|c| {
                let code = from.get(c).and_then(|s| to.code_of(s));
                code.map(i64::from)
            })
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::row_bytes;
    use std::ops::Range;

    /// One column of every [`ColumnVector`] variant, with NULLs wherever
    /// a variant can hold one and the values whose hashes are special:
    /// `2^53` / `2^53 + 1` (one f64), the `i64` extremes, `±0.0`, NaN.
    fn every_variant() -> Vec<(&'static str, ColumnVector)> {
        let typed = |vals: Vec<Value>| ColumnVector::from_values(vals.iter()).unwrap();
        let mut dict = StringDict::default();
        let (x, long) = (
            dict.intern("x").unwrap(),
            dict.intern("a longer string").unwrap(),
        );
        dict.intern("no live row uses this").unwrap();
        let int = Value::Int;
        let big = 1i64 << 53;
        vec![
            (
                "Int",
                typed(vec![
                    int(1),
                    Value::Null,
                    int(big),
                    int(big + 1),
                    int(i64::MIN),
                    int(i64::MAX),
                    int(1),
                ]),
            ),
            (
                "Float",
                typed(vec![
                    Value::Float(0.0),
                    Value::Float(-0.0),
                    Value::Null,
                    Value::Float(f64::NAN),
                    Value::Float(-f64::NAN),
                    Value::Float(1.0),
                    Value::Float(2.5),
                ]),
            ),
            (
                "Bool",
                typed(vec![
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Bool(true),
                    Value::Null,
                    Value::Null,
                    Value::Bool(false),
                    Value::Bool(true),
                ]),
            ),
            (
                "Str",
                typed(vec![
                    Value::str("p"),
                    Value::Null,
                    Value::str("quite long payload"),
                    Value::str(""),
                    Value::str("p"),
                    Value::str("q"),
                    Value::str("x"),
                ]),
            ),
            (
                "Dict",
                ColumnVector::Dict {
                    codes: vec![x, long, crate::batch::NULL_CODE, x, long, 77, x],
                    dict: Arc::new(dict),
                },
            ),
            ("all-NULL", ColumnVector::all_null(7)),
        ]
    }

    /// The typed hash stream lands every row of every variant — alone
    /// and as half of a two-column key — on the part its decoded key
    /// hashes to, and prices the key at its decoded `row_bytes`.
    #[test]
    fn typed_placement_and_key_bytes_equal_the_decoded_keys() {
        let variants = every_variant();
        for (name, col) in &variants {
            let view = KeyView::new(vec![col]);
            for n in [1usize, 2, 4, 8] {
                let dests = view.shards(0..col.len(), n);
                for (i, dest) in dests.iter().enumerate() {
                    let key = GroupKey(vec![col.value(i)]);
                    assert_eq!(*dest as usize, key.shard(n), "{name} row {i} n={n}");
                    assert_eq!(view.decode(i), key);
                    assert_eq!(view.key_bytes(i), row_bytes(&key.0), "{name} row {i}");
                    assert_eq!(view.has_null(i), col.value(i).is_null());
                }
            }
            for (other_name, other) in &variants {
                let view = KeyView::new(vec![col, other]);
                let decoded: Vec<GroupKey> = (0..col.len()).map(|i| view.decode(i)).collect();
                let keys = KeyView::Keys(&decoded);
                for (i, dest) in view.shards(0..col.len(), 4).iter().enumerate() {
                    let key = GroupKey(vec![col.value(i), other.value(i)]);
                    let ctx = format!("({name}, {other_name}) row {i}");
                    assert_eq!(*dest as usize, key.shard(4), "{ctx}");
                    assert_eq!(view.key_bytes(i), row_bytes(&key.0), "{ctx}");
                    assert_eq!(keys.shards(i..=i, 4), [*dest], "{ctx}");
                    assert_eq!(keys.key_bytes(i), row_bytes(&key.0), "{ctx}");
                    assert_eq!(keys.has_null(i), view.has_null(i), "{ctx}");
                }
            }
        }
    }

    /// Place rows `rows` of `view` in one chunk: each row's entry number
    /// and whether it was new.
    fn place(map: &mut KeyMap<()>, view: &KeyView<'_>, rows: Range<usize>) -> Vec<(u32, bool)> {
        let mut placed = Vec::new();
        map.adopt(view, rows.clone());
        map.place(view, rows, Nulls::Group, |_, entry, (), new| {
            placed.push((entry, new));
            Ok(())
        })
        .unwrap();
        placed
    }

    /// Small integers whose span, fed one row at a time, opens a
    /// directory, widens it down and up, and then passes the cap; and
    /// small integers it never outgrows.
    fn spans() -> Vec<(&'static str, ColumnVector)> {
        let typed = |vals: Vec<Option<i64>>| {
            let vals: Vec<Value> = vals
                .into_iter()
                .map(|v| v.map_or(Value::Null, Value::Int))
                .collect();
            ColumnVector::from_values(vals.iter()).unwrap()
        };
        let cap = DIRECT_CELLS as i64;
        vec![
            (
                "narrow",
                typed(vec![
                    Some(3),
                    None,
                    Some(-2),
                    Some(3),
                    Some(0),
                    None,
                    Some(-2),
                ]),
            ),
            (
                "outgrown",
                typed(vec![
                    Some(5),
                    None,
                    Some(-3),
                    Some(5),
                    Some(cap - 4),
                    Some(-3),
                    Some(-5),
                    Some(cap - 4),
                    Some(7),
                    Some(-5),
                    None,
                ]),
            ),
            (
                "edges",
                typed(vec![
                    Some(i64::MAX),
                    Some(i64::MAX - cap + 1),
                    None,
                    Some(i64::MAX),
                ]),
            ),
            (
                "low edges",
                typed(vec![
                    Some(i64::MIN + cap - 1),
                    Some(i64::MIN),
                    Some(i64::MIN),
                ]),
            ),
        ]
    }

    /// A map fed each variant's rows finds the groups a
    /// `HashMap<GroupKey, _>` finds: `2^53` and `2^53 + 1` stay apart
    /// (one hash stream, two `=ⁿ` keys), `0.0` / `-0.0` and the NaNs
    /// merge, every NULL — an invalid slot, `NULL_CODE`, an
    /// out-of-dictionary code — is one key. Whole, one row at a time and
    /// three at a time, on whichever arm the rows lead to: a directory
    /// (opened, widened both ways, at both `i64` edges), a directory
    /// outgrown in the middle of a chunk, a raw hash map, decoded keys.
    #[test]
    fn key_map_groups_like_group_keys() {
        let mut variants = every_variant();
        variants.extend(spans());
        for (name, col) in &variants {
            let len = col.len();
            for chunk in [len, 1, 3] {
                let ctx = format!("{name} in chunks of {chunk}");
                let view = KeyView::new(vec![col]);
                let mut map: KeyMap<()> = KeyMap::new();
                let mut oracle: HashMap<GroupKey, u32> = HashMap::new();
                for at in (0..len).step_by(chunk) {
                    let rows = at..len.min(at + chunk);
                    let placed = place(&mut map, &view, rows.clone());
                    for (i, got) in rows.zip(placed) {
                        let next = oracle.len() as u32;
                        let expect = *oracle.entry(GroupKey(vec![col.value(i)])).or_insert(next);
                        assert_eq!(got, (expect, expect == next), "{ctx}: row {i}");
                    }
                }
                assert_eq!(map.len(), oracle.len(), "{ctx}");
                assert_eq!(
                    map.is_raw(),
                    !matches!(*name, "Float" | "Bool" | "Str"),
                    "{ctx}"
                );
                // "Int" spans both `i64` extremes and "outgrown" past the
                // cap: a directory opened on a first row is demoted.
                let direct = matches!(
                    *name,
                    "Dict" | "all-NULL" | "narrow" | "edges" | "low edges"
                );
                assert_eq!(map.is_direct(), direct, "{ctx}");
                // Probing (3VL) finds every non-NULL key's entry.
                let mut found = vec![false; len];
                map.probe(&view, None, 0..len, |i, ()| found[i] = true)
                    .unwrap();
                for (i, found) in found.into_iter().enumerate() {
                    assert_eq!(found, !col.value(i).is_null(), "{ctx}: probe row {i}");
                }
            }
        }
    }

    /// A view of another shape demotes a raw map without losing an
    /// entry: `Float(10.0)` finds the `Int(10)` entry, a plain string
    /// its dictionary entry, NULL the NULL entry — and a decoded key
    /// (the row engine's way in) sees the same map.
    #[test]
    fn demotion_keeps_every_entry_reachable() {
        let ints = ColumnVector::from_values([Value::Int(10), Value::Null, Value::Int(10)].iter())
            .unwrap();
        let mut map: KeyMap<()> = KeyMap::new();
        let entries =
            |placed: Vec<(u32, bool)>| placed.into_iter().map(|(e, _)| e).collect::<Vec<_>>();
        assert_eq!(
            entries(place(&mut map, &KeyView::new(vec![&ints]), 0..3)),
            [0, 1, 0]
        );
        assert!(map.is_direct());
        let floats =
            ColumnVector::from_values([Value::Float(10.0), Value::Null, Value::Float(0.5)].iter())
                .unwrap();
        assert_eq!(
            entries(place(&mut map, &KeyView::new(vec![&floats]), 0..3)),
            [0, 1, 2]
        );
        assert!(!map.is_raw());

        let mut b = StringDict::default();
        let (x, y) = (b.intern("x").unwrap(), b.intern("y").unwrap());
        let coded = ColumnVector::Dict {
            codes: vec![y, crate::batch::NULL_CODE, x, y],
            dict: Arc::new(b),
        };
        let mut map: KeyMap<()> = KeyMap::new();
        place(&mut map, &KeyView::new(vec![&coded]), 0..4);
        assert!(map.is_direct());
        let plain =
            ColumnVector::from_values([Value::str("x"), Value::Null, Value::str("z")].iter())
                .unwrap();
        assert_eq!(
            entries(place(&mut map, &KeyView::new(vec![&plain]), 0..3)),
            [2, 1, 3]
        );
        assert!(!map.is_raw());
        assert_eq!(map.get_key(&GroupKey(vec![Value::str("y")])), Some(0));
        assert_eq!(map.get_key(&GroupKey(vec![Value::str("w")])), None);
        assert_eq!(
            map.insert_key(GroupKey(vec![Value::str("w")]), ()).unwrap(),
            4
        );
        assert_eq!(map.len(), 5);

        // Past the cap, a directory goes on by hash — the same entries.
        let wide = ColumnVector::from_values(
            [
                Value::Int(0),
                Value::Int(DIRECT_CELLS as i64),
                Value::Int(0),
                Value::Null,
            ]
            .iter(),
        )
        .unwrap();
        let view = KeyView::new(vec![&wide]);
        let mut map: KeyMap<()> = KeyMap::new();
        assert_eq!(entries(place(&mut map, &view, 0..1)), [0]);
        assert!(map.is_direct());
        assert_eq!(entries(place(&mut map, &view, 1..4)), [1, 0, 2]);
        assert!(map.is_raw() && !map.is_direct());
        assert_eq!(map.get_key(&GroupKey(vec![Value::Int(0)])), Some(0));
        assert_eq!(map.get_key(&GroupKey(vec![Value::Null])), Some(2));
    }

    /// A join build leaves keys that hold a NULL out; the probe finds
    /// build rows through a directory, by hash and by decoded key alike,
    /// and reads another dictionary's codes through the translation.
    #[test]
    fn joins_skip_nulls_and_translate_codes() {
        let build = ColumnVector::from_values(
            [Value::Int(4), Value::Null, Value::Int(7), Value::Int(4)].iter(),
        )
        .unwrap();
        let probe = ColumnVector::from_values(
            [Value::Int(7), Value::Int(5), Value::Null, Value::Int(4)].iter(),
        )
        .unwrap();
        let (bv, pv) = (KeyView::new(vec![&build]), KeyView::new(vec![&probe]));
        let mut map: KeyMap<Vec<u32>> = KeyMap::for_join(&bv, 0..4);
        assert!(map.is_direct());
        map.place(&bv, 0..4, Nulls::Skip, |i, _, rows, _| {
            rows.push(i as u32);
            Ok(())
        })
        .unwrap();
        assert_eq!(map.len(), 2);
        let mut pairs = Vec::new();
        map.probe(&pv, None, 0..4, |i, rows| {
            pairs.extend(rows.iter().map(|&r| (i, r)))
        })
        .unwrap();
        assert_eq!(pairs, [(0, 2), (3, 0), (3, 3)]);
        // A probe view of another kind demotes the map to decoded keys,
        // and finds what `=ⁿ` equates.
        let floats = ColumnVector::from_values(
            [
                Value::Float(7.0),
                Value::Float(4.5),
                Value::Null,
                Value::Float(4.0),
            ]
            .iter(),
        )
        .unwrap();
        let fv = KeyView::new(vec![&floats]);
        map.ready_for_probe(&fv);
        assert!(!map.is_raw());
        let mut hits = Vec::new();
        map.probe(&fv, None, 0..4, |i, rows| hits.push((i, rows.clone())))
            .unwrap();
        let expect: Vec<(usize, Vec<u32>)> = (0..4)
            .filter_map(|i| {
                let key = GroupKey(vec![floats.value(i)]);
                let rows: Vec<u32> = (0..4u32)
                    .filter(|&r| !build.value(r as usize).is_null())
                    .filter(|&r| GroupKey(vec![build.value(r as usize)]) == key)
                    .collect();
                (!key.0[0].is_null() && !rows.is_empty()).then_some((i, rows))
            })
            .collect();
        assert_eq!(hits, expect);
        assert_eq!(hits.len(), 2, "7.0 and 4.0 find their integers");

        let (mut a, mut b) = (StringDict::default(), StringDict::default());
        let (ax, ay) = (a.intern("x").unwrap(), a.intern("y").unwrap());
        let (bz, by) = (b.intern("z").unwrap(), b.intern("y").unwrap());
        let (a, b) = (Arc::new(a), Arc::new(b));
        let built = ColumnVector::Dict {
            codes: vec![by, bz, crate::batch::NULL_CODE],
            dict: Arc::clone(&b),
        };
        let probing = ColumnVector::Dict {
            codes: vec![ax, ay, crate::batch::NULL_CODE, ay],
            dict: Arc::clone(&a),
        };
        let (bv, pv) = (KeyView::new(vec![&built]), KeyView::new(vec![&probing]));
        let mut map: KeyMap<Vec<u32>> = KeyMap::for_join(&bv, 0..3);
        map.place(&bv, 0..3, Nulls::Skip, |i, _, rows, _| {
            rows.push(i as u32);
            Ok(())
        })
        .unwrap();
        map.ready_for_probe(&pv);
        assert!(
            map.is_raw(),
            "another dictionary is read through a translation"
        );
        let translation = code_translation(&a, &b).unwrap();
        let mut pairs = Vec::new();
        map.probe(&pv, translation.as_deref(), 0..4, |i, rows| {
            pairs.extend(rows.iter().map(|&r| (i, r)));
        })
        .unwrap();
        assert_eq!(pairs, [(1, 0), (3, 0)]);
    }

    /// Same dictionary: no translation. Another one: codes map by
    /// string, and a string the target never saw maps to nothing.
    #[test]
    fn code_translation_maps_by_string() {
        let mut a = StringDict::default();
        let mut b = StringDict::default();
        for s in ["x", "y", "z"] {
            a.intern(s).unwrap();
        }
        for s in ["z", "x"] {
            b.intern(s).unwrap();
        }
        let (a, b) = (Arc::new(a), Arc::new(b));
        assert_eq!(code_translation(&a, &a).unwrap(), None);
        assert_eq!(
            code_translation(&a, &b).unwrap(),
            Some(vec![Some(1), None, Some(0)])
        );
    }
}
