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
//!   straight from the typed column through [`gbj_types::key_hash`], so
//!   a row lands on `GroupKey::shard` of its decoded key without that
//!   key ever being built;
//! - **the decoded key** ([`KeyView::decode`]) for whoever does need
//!   the [`GroupKey`]: the generic arm, per row, and a raw-keyed table
//!   when it is drained or demoted, once per group.
//!
//! NULL is decided here, once per view, the way the null-aware algebra
//! keeps it: a marker beside the value domain (a validity bit, an
//! out-of-dictionary code) — never a value a raw key could equal.
//!
//! Under the view sits one [`KeyMap`]: a hash map keyed on the raw key
//! while every batch it has seen has the same raw shape, on decoded
//! [`GroupKey`]s otherwise, with a lossless demotion from the first to
//! the second. The group table maps keys to slots with it, the join
//! build to row ids, `DISTINCT` to `()`. The two arms themselves —
//! how a raw and a decoded key are stored, hashed and compared — are
//! [`gbj_storage::keys::KeyArms`], the same a table's key index keeps
//! the keys of a PRIMARY KEY in.

use std::collections::hash_map::Entry;
use std::hash::Hasher;
use std::sync::Arc;

use gbj_storage::keys::KeyArms;
use gbj_types::{internal_err, key_hash, shard_of, stream_hash, GroupKey, Result, Value};

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

    /// Feed key `i`'s `=ⁿ` hash stream to `state`: byte for byte what
    /// `decode(i).hash(state)` would write.
    fn hash_row<H: Hasher>(&self, i: usize, state: &mut H) {
        match self {
            KeyView::Int { .. } => match self.raw(i) {
                Some(v) => key_hash::int(v, state),
                None => key_hash::null(state),
            },
            KeyView::Dict { codes, dict } => match codes.get(i).and_then(|&c| dict.get(c)) {
                Some(s) => key_hash::str(s, state),
                None => key_hash::null(state),
            },
            KeyView::Columns(cols) => cols.iter().for_each(|c| c.hash_cell(i, state)),
            KeyView::Keys(keys) => {
                if let Some(k) = keys.get(i) {
                    std::hash::Hash::hash(k, state);
                }
            }
        }
    }

    /// The part of `n` key `i` belongs to: `decode(i).shard(n)`.
    fn shard(&self, i: usize, n: usize) -> u32 {
        shard_of(stream_hash(|h| self.hash_row(i, h)), n) as u32
    }

    /// One destination per row of `rows`, in order: the batch's routing
    /// vector.
    pub(crate) fn shards(&self, rows: impl Iterator<Item = usize>, n: usize) -> Vec<u32> {
        rows.map(|i| self.shard(i, n)).collect()
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
    fn fits(&self, view: &KeyView<'_>) -> bool {
        match (self, view) {
            (RawShape::Int, KeyView::Int { .. }) => true,
            (RawShape::Dict(mine), KeyView::Dict { dict, .. }) => Arc::ptr_eq(mine, dict),
            _ => false,
        }
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

/// Key → `V` under `=ⁿ`, for keys read through [`KeyView`]s.
pub(crate) struct KeyMap<V> {
    /// The shape of the raw keys, while `arms` is keyed on them.
    shape: Option<RawShape>,
    arms: KeyArms<V>,
}

impl<V> KeyMap<V> {
    /// An empty map keyed on decoded [`GroupKey`]s — until
    /// [`KeyMap::adopt`] sees a raw-shaped view.
    pub(crate) fn new() -> KeyMap<V> {
        KeyMap {
            shape: None,
            arms: KeyArms::generic(),
        }
    }

    /// An empty map for a join whose build side is `build` and whose
    /// probe side is `probe`: raw when both sides have the same raw
    /// shape (two dictionaries count: the probe translates codes),
    /// generic otherwise.
    pub(crate) fn for_join(build: &KeyView<'_>, probe: &KeyView<'_>) -> KeyMap<V> {
        let mut map = KeyMap::new();
        if matches!(
            (build, probe),
            (KeyView::Int { .. }, KeyView::Int { .. })
                | (KeyView::Dict { .. }, KeyView::Dict { .. })
        ) {
            map.adopt(build);
        }
        map
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.arms.len()
    }

    /// Whether the map is keyed on raw keys.
    pub(crate) fn is_raw(&self) -> bool {
        self.arms.is_raw()
    }

    /// Get ready for keys read through `view`: an empty map takes the
    /// view's shape, a raw map that `view` does not fit is demoted to
    /// decoded keys (no entry is lost: a raw key decodes to the one
    /// `GroupKey` it stood for), a generic map stays generic.
    pub(crate) fn adopt(&mut self, view: &KeyView<'_>) {
        let fits = match &self.shape {
            Some(shape) => shape.fits(view),
            None => self.len() > 0,
        };
        if fits {
            return;
        }
        let shape = match view {
            KeyView::Int { .. } => Some(RawShape::Int),
            KeyView::Dict { dict, .. } => Some(RawShape::Dict(Arc::clone(dict))),
            KeyView::Columns(_) | KeyView::Keys(_) => None,
        };
        match shape {
            Some(shape) if self.len() == 0 => {
                self.shape = Some(shape);
                self.arms = KeyArms::raw();
            }
            _ => self.demote(),
        }
    }

    /// Re-key a raw map on decoded keys (a generic one is left alone).
    fn demote(&mut self) {
        if let Some(shape) = self.shape.take() {
            self.arms.demote(|raw| shape.decode(raw));
        }
    }

    /// The entry of key `i` of `view`, made by `make` if the key is
    /// new; the flag says whether it was. NULL is a key like any other
    /// here (`=ⁿ`); a join leaves NULL rows out before asking. `view`
    /// must be the one last [`adopt`](KeyMap::adopt)ed, or the map be
    /// generic.
    pub(crate) fn entry(
        &mut self,
        view: &KeyView<'_>,
        i: usize,
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        match &mut self.arms {
            KeyArms::Raw { map, null } => match view.raw(i) {
                Some(k) => match map.entry(k) {
                    Entry::Occupied(e) => (e.into_mut(), false),
                    Entry::Vacant(e) => (e.insert(make()), true),
                },
                None => {
                    let new = null.is_none();
                    (null.get_or_insert_with(make), new)
                }
            },
            KeyArms::Generic(map) => match map.entry(view.decode(i)) {
                Entry::Occupied(e) => (e.into_mut(), false),
                Entry::Vacant(e) => (e.insert(make()), true),
            },
        }
    }

    /// The entry of key `i` of `view`, if present.
    pub(crate) fn get(&self, view: &KeyView<'_>, i: usize) -> Option<&V> {
        if self.is_raw() {
            self.get_raw(view.raw(i))
        } else {
            self.arms.get_key(&view.decode(i))
        }
    }

    /// The entry of a raw key (of this map's shape), if present.
    pub(crate) fn get_raw(&self, raw: Option<i64>) -> Option<&V> {
        self.arms.get_raw(raw)
    }

    /// The entry of a decoded key — the row engine's way in — demoting
    /// a raw map first.
    pub(crate) fn get_key(&mut self, key: &GroupKey) -> Option<&V> {
        self.demote();
        self.arms.get_key(key)
    }

    /// Insert a decoded key [`KeyMap::get_key`] did not find.
    pub(crate) fn insert_key(&mut self, key: GroupKey, value: V) {
        self.demote();
        if let KeyArms::Generic(map) = &mut self.arms {
            map.insert(key, value);
        }
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
    use std::collections::HashMap;

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

    /// A map fed each variant's rows finds the groups a
    /// `HashMap<GroupKey, _>` finds: `2^53` and `2^53 + 1` stay apart
    /// (one hash stream, two `=ⁿ` keys), `0.0` / `-0.0` and the NaNs
    /// merge, every NULL — an invalid slot, `NULL_CODE`, an
    /// out-of-dictionary code — is one key.
    #[test]
    fn key_map_groups_like_group_keys() {
        for (name, col) in &every_variant() {
            let view = KeyView::new(vec![col]);
            let mut map: KeyMap<usize> = KeyMap::new();
            map.adopt(&view);
            assert_eq!(map.is_raw(), matches!(*name, "Int" | "Dict" | "all-NULL"));
            let mut oracle: HashMap<GroupKey, usize> = HashMap::new();
            for i in 0..col.len() {
                let next = oracle.len();
                let expect = *oracle.entry(GroupKey(vec![col.value(i)])).or_insert(next);
                let next = map.len();
                let (got, new) = map.entry(&view, i, || next);
                assert_eq!((*got, new), (expect, expect == next), "{name} row {i}");
                assert_eq!(map.get(&view, i), Some(&expect));
            }
            assert_eq!(map.len(), oracle.len(), "{name}");
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
        let view = KeyView::new(vec![&ints]);
        let mut map: KeyMap<usize> = KeyMap::new();
        map.adopt(&view);
        let slots: Vec<usize> = (0..3)
            .map(|i| {
                let next = map.len();
                *map.entry(&view, i, || next).0
            })
            .collect();
        assert_eq!(slots, [0, 1, 0]);
        let floats =
            ColumnVector::from_values([Value::Float(10.0), Value::Null, Value::Float(0.5)].iter())
                .unwrap();
        let view = KeyView::new(vec![&floats]);
        map.adopt(&view);
        assert!(!map.is_raw());
        let slots: Vec<usize> = (0..3)
            .map(|i| {
                let next = map.len();
                *map.entry(&view, i, || next).0
            })
            .collect();
        assert_eq!(slots, [0, 1, 2]);

        let mut b = StringDict::default();
        let (x, y) = (b.intern("x").unwrap(), b.intern("y").unwrap());
        let coded = ColumnVector::Dict {
            codes: vec![y, crate::batch::NULL_CODE, x, y],
            dict: Arc::new(b),
        };
        let view = KeyView::new(vec![&coded]);
        let mut map: KeyMap<usize> = KeyMap::new();
        map.adopt(&view);
        assert!(map.is_raw());
        for i in 0..4 {
            let next = map.len();
            map.entry(&view, i, || next);
        }
        let plain =
            ColumnVector::from_values([Value::str("x"), Value::Null, Value::str("z")].iter())
                .unwrap();
        let view = KeyView::new(vec![&plain]);
        map.adopt(&view);
        assert!(!map.is_raw());
        let slots: Vec<usize> = (0..3)
            .map(|i| {
                let next = map.len();
                *map.entry(&view, i, || next).0
            })
            .collect();
        assert_eq!(slots, [2, 1, 3]);
        assert_eq!(map.get_key(&GroupKey(vec![Value::str("y")])), Some(&0));
        assert_eq!(map.get_key(&GroupKey(vec![Value::str("w")])), None);
        map.insert_key(GroupKey(vec![Value::str("w")]), 4);
        assert_eq!(map.len(), 5);
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
