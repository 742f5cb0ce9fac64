//! Columnar batches: per-column typed vectors with validity bitmaps.
//!
//! A [`ColumnarBatch`] is the unit the vectorized kernels in `gbj-exec`
//! operate on — and, since tables are stored column-major
//! ([`Table`](crate::Table)), the unit storage keeps: a stored
//! `Int64` / `Float64` / `Boolean` block is a [`ColumnVector`] behind an
//! `Arc`, and [`ScanCursor::next_columnar`](crate::ScanCursor) hands it
//! out as a column of the batch without copying it. The row-major
//! conversion pair [`ColumnarBatch::from_rows`] /
//! [`ColumnarBatch::to_rows`] is lossless for every typed input —
//! including empty batches, single-row batches, and the short final
//! batches a `FaultInjector` forces — and serves as the differential oracle
//! boundary between the row and batch engines; `to_rows` is also the
//! row view of a scan ([`ScanCursor::next_batch`](crate::ScanCursor)).
//!
//! NULL handling follows the paper's split semantics: a validity bitmap
//! records *where* NULLs are — apart from the values, never as a
//! sentinel value — and the kernels decide what a NULL means:
//! `unknown` in a search condition (3VL), "equal to NULL" under the
//! `=ⁿ` duplicate relation used for grouping keys.
//!
//! A column is one typed vector (`Int`/`Float`/`Bool`/`Str`): a
//! declared schema gives every column one type — inserts are coerced to
//! it, and every expression the engine evaluates is type-stable — so a
//! column whose non-NULL values are of two types is an internal error,
//! not a representation. String columns scanned from storage
//! are dictionary-encoded ([`ColumnVector::Dict`]): rows hold `u32`
//! codes into the column's [`StringDict`], with [`NULL_CODE`] reserved
//! for NULL so `=ⁿ` grouping can hash codes instead of strings without
//! conflating NULL with any real value.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

use gbj_types::{internal_err, key_hash, DataType, Result, Value};

/// The reserved dictionary code marking a NULL slot in a
/// [`ColumnVector::Dict`] column. A [`StringDict`] never assigns it to
/// a real string, so `=ⁿ` grouping on codes keeps NULLs in a group of
/// their own.
pub const NULL_CODE: u32 = u32::MAX;

/// An interned-string dictionary: one per stored `Utf8` column, built
/// at insert and append-only for the life of the table, shared (via
/// `Arc`) by every batch a scan of that column emits.
///
/// Codes are dense, starting at 0 in first-seen order; [`NULL_CODE`] is
/// reserved and never assigned. An entry says only that some row *once*
/// held the string — after a DELETE or UPDATE no live row may use it.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StringDict {
    /// Each string is held once, shared by both directions.
    values: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl StringDict {
    /// Number of distinct strings interned.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Decode a code back to its string. `None` for [`NULL_CODE`] or
    /// any code never assigned.
    #[inline]
    #[must_use]
    pub fn get(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(AsRef::as_ref)
    }

    /// Look up the code of a string, if interned (O(1)).
    #[must_use]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Intern `s`, returning its (existing or new) code. `None` when
    /// the dictionary is full — every code below [`NULL_CODE`] is
    /// taken.
    pub fn intern(&mut self, s: &str) -> Option<u32> {
        if let Some(code) = self.lookup.get(s) {
            return Some(*code);
        }
        let code = u32::try_from(self.values.len()).ok()?;
        if code == NULL_CODE {
            return None;
        }
        let shared: Arc<str> = Arc::from(s);
        self.values.push(Arc::clone(&shared));
        self.lookup.insert(shared, code);
        Some(code)
    }
}

/// A packed validity bitmap: bit `i` set means row `i` is non-NULL.
///
/// The unused high bits of the last word are always zero and the
/// number of set bits is kept beside the words, so equality depends on
/// the `len` bits alone and [`Bitmap::all_valid`] is O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    /// Set bits among the first `len`, maintained by every write.
    valid: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set to `valid`.
    #[must_use]
    pub fn new_all(len: usize, valid: bool) -> Bitmap {
        let mut words = vec![if valid { u64::MAX } else { 0 }; len.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            // Keep the unused high bits of the last word zero.
            *last >>= (64 - len % 64) % 64;
        }
        Bitmap {
            words,
            len,
            valid: if valid { len } else { 0 },
        }
    }

    /// A bitmap of `len` bits from packed words, bit `i` of the bitmap
    /// being bit `i % 64` of word `i / 64`: missing words read zero,
    /// surplus words and the padding bits of the last one are dropped.
    #[must_use]
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Bitmap {
        words.resize(len.div_ceil(64), 0);
        if let Some(last) = words.last_mut() {
            *last &= u64::MAX >> ((64 - len % 64) % 64);
        }
        Bitmap {
            valid: words.iter().map(|w| w.count_ones() as usize).sum(),
            words,
            len,
        }
    }

    /// The packed words; bits past [`Bitmap::len`] are zero.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`; out-of-range reads as `false` (invalid).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Set bit `i` (no-op out of range).
    pub fn set(&mut self, i: usize, valid: bool) {
        if i >= self.len {
            return;
        }
        if let Some(w) = self.words.get_mut(i / 64) {
            let bit = 1u64 << (i % 64);
            let was = *w & bit != 0;
            if valid {
                *w |= bit;
            } else {
                *w &= !bit;
            }
            self.valid = self.valid + usize::from(valid) - usize::from(was);
        }
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if let Some(last) = self.words.last_mut() {
            *last |= u64::from(valid) << (self.len % 64);
        }
        self.valid += usize::from(valid);
        self.len += 1;
    }

    /// Whether every bit is set — the kernels' fast-path check that
    /// lets a NULL-free column skip per-element validity tests.
    #[inline]
    #[must_use]
    pub fn all_valid(&self) -> bool {
        self.valid == self.len
    }

    /// Iterate the bits in order, word-at-a-time — much cheaper inside
    /// kernel loops than calling [`Bitmap::get`] per element (no
    /// per-element division or bounds check).
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            words: &self.words,
            word: 0,
            pos: 0,
            len: self.len,
        }
    }

    /// Number of set (valid) bits.
    #[inline]
    #[must_use]
    pub fn count_valid(&self) -> usize {
        self.valid
    }

    /// The set positions, ascending — a word at a time, one
    /// `trailing_zeros` per set bit.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    at * 64 + bit
                })
            })
        })
    }

    /// `self ∧ other`, word-wise; bits `other` does not have read zero.
    pub fn and_with(&mut self, other: &Bitmap) {
        let theirs = other.words.iter().copied().chain(std::iter::repeat(0));
        self.combine(theirs, |mine, theirs| mine & theirs);
    }

    /// `self ∨ other`, word-wise, within this bitmap's length.
    pub fn or_with(&mut self, other: &Bitmap) {
        let theirs = other.words.iter().copied().chain(std::iter::repeat(0));
        self.combine(theirs, |mine, theirs| mine | theirs);
    }

    /// Flip every bit (padding stays zero).
    pub fn negate(&mut self) {
        self.combine(std::iter::repeat(0), |mine, _| !mine);
    }

    /// Rewrite every word from its pair, then restore the invariants:
    /// padding bits zero, the set count current.
    fn combine(&mut self, theirs: impl Iterator<Item = u64>, op: impl Fn(u64, u64) -> u64) {
        for (mine, theirs) in self.words.iter_mut().zip(theirs) {
            *mine = op(*mine, theirs);
        }
        *self = Bitmap::from_words(std::mem::take(&mut self.words), self.len);
    }

    /// The bits at `sel`, in that order (out of range reads invalid),
    /// a word of output at a time.
    #[must_use]
    pub fn gather(&self, sel: &[u32]) -> Bitmap {
        let words: Vec<u64> = sel
            .chunks(64)
            .map(|ids| {
                let bits = ids.iter().enumerate();
                bits.fold(0u64, |word, (bit, &i)| {
                    word | (u64::from(self.get(i as usize)) << bit)
                })
            })
            .collect();
        Bitmap {
            valid: words.iter().map(|w| w.count_ones() as usize).sum(),
            words,
            len: sel.len(),
        }
    }

    /// Append every bit of `other`, a word at a time.
    pub fn append(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &word in &other.words {
                if let Some(last) = self.words.last_mut() {
                    *last |= word << shift;
                }
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.valid += other.valid;
        // `other`'s padding is zero, so a word pushed past the new
        // length holds nothing.
        self.words.truncate(self.len.div_ceil(64));
    }
}

/// Word-at-a-time iterator over a [`Bitmap`]'s bits (see
/// [`Bitmap::iter`]).
#[derive(Debug)]
pub struct BitmapIter<'a> {
    words: &'a [u64],
    word: u64,
    pos: usize,
    len: usize,
}

impl Iterator for BitmapIter<'_> {
    type Item = bool;

    #[inline]
    fn next(&mut self) -> Option<bool> {
        if self.pos >= self.len {
            return None;
        }
        if self.pos.is_multiple_of(64) {
            self.word = self.words.get(self.pos / 64).copied().unwrap_or(0);
        }
        let bit = self.word & 1 != 0;
        self.word >>= 1;
        self.pos += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.pos.min(self.len);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for BitmapIter<'_> {}

/// One column of a [`ColumnarBatch`].
///
/// Typed variants store the raw values densely with a validity bitmap
/// (invalid slots hold an arbitrary placeholder); `Dict` stores `u32`
/// codes into a shared [`StringDict`] with [`NULL_CODE`] marking NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVector {
    /// 64-bit integers.
    Int {
        /// Dense values (placeholder where invalid).
        values: Vec<i64>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// 64-bit floats.
    Float {
        /// Dense values (placeholder where invalid).
        values: Vec<f64>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// Booleans.
    Bool {
        /// Dense values (placeholder where invalid).
        values: Vec<bool>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// Strings.
    Str {
        /// Dense values (placeholder where invalid).
        values: Vec<String>,
        /// Per-row validity.
        validity: Bitmap,
    },
    /// Dictionary-encoded strings: per-row codes into a shared
    /// dictionary, with [`NULL_CODE`] marking NULL slots (no separate
    /// validity bitmap needed).
    Dict {
        /// Per-row dictionary codes ([`NULL_CODE`] = NULL).
        codes: Vec<u32>,
        /// The shared dictionary the codes index into.
        dict: Arc<StringDict>,
    },
}

impl ColumnVector {
    /// Build a column from an iterator over its values.
    ///
    /// All non-NULL values of one type → typed vector with a validity
    /// bitmap (an all-NULL or empty column becomes an all-invalid `Int`
    /// vector); values of two types are an internal error — a declared
    /// schema rules them out. This path never produces a `Dict` column
    /// — dictionary encoding happens at insert, in the stored table.
    pub fn from_values<'a, I>(values: I) -> Result<ColumnVector>
    where
        I: ExactSizeIterator<Item = &'a Value> + Clone,
    {
        // The type comes from the first non-NULL value (stops early).
        let n = values.len();
        let Some(data_type) = values.clone().find_map(Value::data_type) else {
            return Ok(ColumnVector::all_null(n));
        };
        let mut out = ColumnVector::empty(data_type, n);
        for v in values {
            if !out.push(v) {
                return Err(internal_err!("a {data_type} column cannot hold {v}"));
            }
        }
        Ok(out)
    }

    /// An empty typed vector (plain strings for `Utf8`) with room for
    /// `capacity` rows, to fill with [`ColumnVector::push`].
    #[must_use]
    pub fn empty(data_type: DataType, capacity: usize) -> ColumnVector {
        let validity = Bitmap::new_all(0, false);
        match data_type {
            DataType::Int64 => ColumnVector::Int {
                values: Vec::with_capacity(capacity),
                validity,
            },
            DataType::Float64 => ColumnVector::Float {
                values: Vec::with_capacity(capacity),
                validity,
            },
            DataType::Boolean => ColumnVector::Bool {
                values: Vec::with_capacity(capacity),
                validity,
            },
            DataType::Utf8 => ColumnVector::Str {
                values: Vec::with_capacity(capacity),
                validity,
            },
        }
    }

    /// Append one cell if the vector can hold it — NULL, a value of a
    /// typed vector's type, a string its dictionary knows — and say
    /// whether it did.
    #[inline]
    pub fn push(&mut self, cell: &Value) -> bool {
        fn put<T: Default>(values: &mut Vec<T>, validity: &mut Bitmap, cell: Option<T>) -> bool {
            validity.push(cell.is_some());
            values.push(cell.unwrap_or_default());
            true
        }
        match (self, cell) {
            (ColumnVector::Int { values, validity }, Value::Int(x)) => {
                put(values, validity, Some(*x))
            }
            (ColumnVector::Float { values, validity }, Value::Float(x)) => {
                put(values, validity, Some(*x))
            }
            (ColumnVector::Bool { values, validity }, Value::Bool(x)) => {
                put(values, validity, Some(*x))
            }
            (ColumnVector::Str { values, validity }, Value::Str(s)) => {
                put(values, validity, Some(s.clone()))
            }
            (ColumnVector::Int { values, validity }, Value::Null) => put(values, validity, None),
            (ColumnVector::Float { values, validity }, Value::Null) => put(values, validity, None),
            (ColumnVector::Bool { values, validity }, Value::Null) => put(values, validity, None),
            (ColumnVector::Str { values, validity }, Value::Null) => put(values, validity, None),
            (ColumnVector::Dict { codes, dict }, cell) => {
                let code = match cell {
                    Value::Null => Some(NULL_CODE),
                    Value::Str(s) => dict.code_of(s),
                    _ => None,
                };
                code.map(|code| codes.push(code)).is_some()
            }
            _ => false,
        }
    }

    /// An all-NULL placeholder column of `len` rows — what a
    /// late-materializing operator emits for columns nobody above it
    /// references.
    #[must_use]
    pub fn all_null(len: usize) -> ColumnVector {
        ColumnVector::Int {
            values: vec![0; len],
            validity: Bitmap::new_all(len, false),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int { values, .. } => values.len(),
            ColumnVector::Float { values, .. } => values.len(),
            ColumnVector::Bool { values, .. } => values.len(),
            ColumnVector::Str { values, .. } => values.len(),
            ColumnVector::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap of a typed vector; `None` for `Dict`, which
    /// marks NULL in place by [`NULL_CODE`].
    #[must_use]
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            ColumnVector::Int { validity, .. }
            | ColumnVector::Float { validity, .. }
            | ColumnVector::Bool { validity, .. }
            | ColumnVector::Str { validity, .. } => Some(validity),
            ColumnVector::Dict { .. } => None,
        }
    }

    /// Whether row `i` is non-NULL (out of range reads as NULL).
    #[must_use]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            ColumnVector::Int { validity, .. }
            | ColumnVector::Float { validity, .. }
            | ColumnVector::Bool { validity, .. }
            | ColumnVector::Str { validity, .. } => validity.get(i),
            ColumnVector::Dict { codes, dict } => {
                codes.get(i).is_some_and(|&c| (c as usize) < dict.len())
            }
        }
    }

    /// Reconstruct the [`Value`] at row `i` (NULL when invalid or out
    /// of range). The reconstruction is exact: the value compares equal
    /// (under `==`, including float bit patterns via the typed store)
    /// to the one the column was built from.
    #[must_use]
    pub fn value(&self, i: usize) -> Value {
        fn at<'a, T>(values: &'a [T], validity: &Bitmap, i: usize) -> Option<&'a T> {
            values.get(i).filter(|_| validity.get(i))
        }
        match self {
            ColumnVector::Int { values, validity } => {
                at(values, validity, i).map_or(Value::Null, |x| Value::Int(*x))
            }
            ColumnVector::Float { values, validity } => {
                at(values, validity, i).map_or(Value::Null, |x| Value::Float(*x))
            }
            ColumnVector::Bool { values, validity } => {
                at(values, validity, i).map_or(Value::Null, |x| Value::Bool(*x))
            }
            ColumnVector::Str { values, validity } => {
                at(values, validity, i).map_or(Value::Null, |s| Value::Str(s.clone()))
            }
            ColumnVector::Dict { codes, dict } => codes
                .get(i)
                .and_then(|&c| dict.get(c))
                .map_or(Value::Null, Value::str),
        }
    }

    /// Feed cell `i` to `state` as [`GroupKey`](gbj_types::GroupKey)'s
    /// `=ⁿ` hash stream would: byte for byte what hashing
    /// `self.value(i)` as one cell of a key writes, without building
    /// the [`Value`].
    pub fn hash_cell<H: Hasher>(&self, i: usize, state: &mut H) {
        fn at<'a, T>(values: &'a [T], validity: &Bitmap, i: usize) -> Option<&'a T> {
            values.get(i).filter(|_| validity.get(i))
        }
        match self {
            ColumnVector::Int { values, validity } => match at(values, validity, i) {
                Some(v) => key_hash::int(*v, state),
                None => key_hash::null(state),
            },
            ColumnVector::Float { values, validity } => match at(values, validity, i) {
                Some(v) => key_hash::float(*v, state),
                None => key_hash::null(state),
            },
            ColumnVector::Bool { values, validity } => match at(values, validity, i) {
                Some(v) => key_hash::bool(*v, state),
                None => key_hash::null(state),
            },
            ColumnVector::Str { values, validity } => match at(values, validity, i) {
                Some(v) => key_hash::str(v, state),
                None => key_hash::null(state),
            },
            ColumnVector::Dict { codes, dict } => match codes.get(i).and_then(|&c| dict.get(c)) {
                Some(s) => key_hash::str(s, state),
                None => key_hash::null(state),
            },
        }
    }

    /// Number of non-NULL rows.
    #[must_use]
    pub fn count_valid(&self) -> usize {
        match self {
            ColumnVector::Int { validity, .. }
            | ColumnVector::Float { validity, .. }
            | ColumnVector::Bool { validity, .. }
            | ColumnVector::Str { validity, .. } => validity.count_valid(),
            ColumnVector::Dict { codes, dict } => {
                codes.iter().filter(|&&c| (c as usize) < dict.len()).count()
            }
        }
    }

    /// Gather the given row indices into a new dense column.
    /// Out-of-range indices read as NULL, mirroring
    /// [`ColumnVector::value`].
    #[must_use]
    pub fn gather(&self, sel: &[u32]) -> ColumnVector {
        fn typed<T: Clone + Default>(v: &[T], validity: &Bitmap, sel: &[u32]) -> (Vec<T>, Bitmap) {
            let mut in_range = validity.len() == v.len();
            let out = sel
                .iter()
                .map(|&i| {
                    v.get(i as usize).cloned().unwrap_or_else(|| {
                        in_range = false;
                        T::default()
                    })
                })
                .collect();
            // Nothing to test per row when the source has no NULL and
            // every id names a row of it.
            let mask = if in_range && validity.all_valid() {
                Bitmap::new_all(sel.len(), true)
            } else {
                validity.gather(sel)
            };
            (out, mask)
        }
        match self {
            ColumnVector::Int { values, validity } => {
                let (values, validity) = typed(values, validity, sel);
                ColumnVector::Int { values, validity }
            }
            ColumnVector::Float { values, validity } => {
                let (values, validity) = typed(values, validity, sel);
                ColumnVector::Float { values, validity }
            }
            ColumnVector::Bool { values, validity } => {
                let (values, validity) = typed(values, validity, sel);
                ColumnVector::Bool { values, validity }
            }
            ColumnVector::Str { values, validity } => {
                let (values, validity) = typed(values, validity, sel);
                ColumnVector::Str { values, validity }
            }
            ColumnVector::Dict { codes, dict } => ColumnVector::Dict {
                codes: sel
                    .iter()
                    .map(|&i| codes.get(i as usize).copied().unwrap_or(NULL_CODE))
                    .collect(),
                dict: Arc::clone(dict),
            },
        }
    }

    /// The column's values in row order: the variant is decided once
    /// and validity is read a word at a time, which is what makes the
    /// row view of a batch ([`ColumnarBatch::to_rows`]) cheap.
    pub fn values(&self) -> ColumnValues<'_> {
        match self {
            ColumnVector::Int { values, validity } => {
                ColumnValues::Int(values.iter(), validity.iter())
            }
            ColumnVector::Float { values, validity } => {
                ColumnValues::Float(values.iter(), validity.iter())
            }
            ColumnVector::Bool { values, validity } => {
                ColumnValues::Bool(values.iter(), validity.iter())
            }
            ColumnVector::Str { values, validity } => {
                ColumnValues::Str(values.iter(), validity.iter())
            }
            ColumnVector::Dict { codes, dict } => ColumnValues::Dict(codes.iter(), dict),
        }
    }
}

/// Iterator over a column's [`Value`]s (see [`ColumnVector::values`]).
#[derive(Debug)]
pub enum ColumnValues<'a> {
    /// Over an `Int` vector.
    Int(std::slice::Iter<'a, i64>, BitmapIter<'a>),
    /// Over a `Float` vector.
    Float(std::slice::Iter<'a, f64>, BitmapIter<'a>),
    /// Over a `Bool` vector.
    Bool(std::slice::Iter<'a, bool>, BitmapIter<'a>),
    /// Over a `Str` vector.
    Str(std::slice::Iter<'a, String>, BitmapIter<'a>),
    /// Over a `Dict` vector.
    Dict(std::slice::Iter<'a, u32>, &'a StringDict),
}

impl Iterator for ColumnValues<'_> {
    type Item = Value;

    #[inline]
    fn next(&mut self) -> Option<Value> {
        fn cell<T>(v: Option<T>, ok: Option<bool>, make: impl Fn(T) -> Value) -> Option<Value> {
            Some(if ok? { make(v?) } else { Value::Null })
        }
        match self {
            ColumnValues::Int(v, ok) => cell(v.next(), ok.next(), |x| Value::Int(*x)),
            ColumnValues::Float(v, ok) => cell(v.next(), ok.next(), |x| Value::Float(*x)),
            ColumnValues::Bool(v, ok) => cell(v.next(), ok.next(), |x| Value::Bool(*x)),
            ColumnValues::Str(v, ok) => cell(v.next(), ok.next(), |s| Value::Str(s.clone())),
            ColumnValues::Dict(codes, dict) => {
                let code = *codes.next()?;
                Some(dict.get(code).map_or(Value::Null, Value::str))
            }
        }
    }
}

/// A column-major batch of rows: one [`ColumnVector`] per column, each
/// behind an `Arc` so a batch can share a column with the table block
/// it was scanned from, and with other batches, instead of copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    columns: Vec<Arc<ColumnVector>>,
    len: usize,
}

impl ColumnarBatch {
    /// Build a batch from row-major rows of the given arity (the arity
    /// must be passed explicitly so an empty batch still knows its
    /// width). Errors if any row has a different arity, or a column
    /// holds values of two types.
    pub fn from_rows(rows: &[Vec<Value>], arity: usize) -> Result<ColumnarBatch> {
        for (i, r) in rows.iter().enumerate() {
            if r.len() != arity {
                return Err(internal_err!(
                    "columnar batch row {i} has arity {}, expected {arity}",
                    r.len()
                ));
            }
        }
        let columns = (0..arity)
            .map(|c| {
                let cells = rows.iter().map(move |r| r.get(c).unwrap_or(&Value::Null));
                ColumnVector::from_values(cells).map(Arc::new)
            })
            .collect::<Result<_>>()?;
        Ok(ColumnarBatch {
            columns,
            len: rows.len(),
        })
    }

    /// Build a batch from pre-built columns — owned, or already shared
    /// — of `len` rows each. Errors if any column disagrees on the row
    /// count.
    pub fn from_columns<C>(columns: Vec<C>, len: usize) -> Result<ColumnarBatch>
    where
        C: Into<Arc<ColumnVector>>,
    {
        let columns: Vec<Arc<ColumnVector>> = columns.into_iter().map(Into::into).collect();
        for (i, c) in columns.iter().enumerate() {
            if c.len() != len {
                return Err(internal_err!(
                    "column {i} has {} row(s), expected {len}",
                    c.len()
                ));
            }
        }
        Ok(ColumnarBatch { columns, len })
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`, or an internal error for a bad ordinal (a binder or
    /// optimizer bug, mirroring the row engine's checked access).
    pub fn column(&self, i: usize) -> Result<&ColumnVector> {
        self.shared_column(i).map(AsRef::as_ref)
    }

    /// Column `i` as the shared handle, to pass on without copying.
    pub fn shared_column(&self, i: usize) -> Result<&Arc<ColumnVector>> {
        self.columns.get(i).ok_or_else(|| {
            internal_err!(
                "column ordinal {i} out of bounds for batch arity {}",
                self.columns.len()
            )
        })
    }

    /// The columns, in ordinal order.
    #[must_use]
    pub fn columns(&self) -> &[Arc<ColumnVector>] {
        &self.columns
    }

    /// Reconstruct row `i` (a row of NULLs when out of range).
    #[must_use]
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Convert back to row-major rows (the exact inverse of
    /// [`ColumnarBatch::from_rows`]): one `Vec` per row, filled from
    /// one [`ColumnVector::values`] reader per column.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        let mut columns: Vec<ColumnValues<'_>> = self.columns.iter().map(|c| c.values()).collect();
        let mut row = || {
            let cells = columns.iter_mut().map(|c| c.next().unwrap_or(Value::Null));
            cells.collect()
        };
        (0..self.len).map(|_| row()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bitmap written one `push` at a time: the bit-by-bit definition.
    fn pushed(bits: impl Iterator<Item = bool>) -> Bitmap {
        let mut bitmap = Bitmap::new_all(0, true);
        bits.for_each(|bit| bitmap.push(bit));
        bitmap
    }

    fn round_trip(rows: &[Vec<Value>], arity: usize) {
        let batch = ColumnarBatch::from_rows(rows, arity).unwrap();
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.arity(), arity);
        assert_eq!(batch.to_rows(), rows, "round-trip must be lossless");
    }

    #[test]
    fn bitmap_set_get_count() {
        let mut b = Bitmap::new_all(70, false);
        assert_eq!(b.len(), 70);
        assert_eq!(b.count_valid(), 0);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(69, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(69));
        assert!(!b.get(1));
        assert!(!b.get(70), "out of range reads invalid");
        assert_eq!(b.count_valid(), 4);
        b.set(63, false);
        assert!(!b.get(63));
        assert_eq!(b.count_valid(), 3);
        // new_all(true) must not count the padding bits of the last word.
        let all = Bitmap::new_all(70, true);
        assert_eq!(all.count_valid(), 70);
    }

    /// The word-wise operations against their bit-by-bit definitions
    /// at lengths on both sides of a word boundary: padding stays zero
    /// (so equality and the O(1) `all_valid` hold) and `ones` lists the
    /// set positions in ascending order.
    #[test]
    fn bitmap_word_ops_match_the_bitwise_definitions() {
        let a_bit = |i: usize| i % 3 != 0;
        let b_bit = |i: usize| i % 5 < 2;
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let a = pushed((0..len).map(a_bit));
            let b = pushed((0..len).map(b_bit));
            let (mut and, mut or, mut not) = (a.clone(), a.clone(), a.clone());
            and.and_with(&b);
            or.or_with(&b);
            not.negate();
            assert_eq!(and, pushed((0..len).map(|i| a_bit(i) && b_bit(i))), "{len}");
            assert_eq!(or, pushed((0..len).map(|i| a_bit(i) || b_bit(i))), "{len}");
            assert_eq!(not, pushed((0..len).map(|i| !a_bit(i))), "{len}");
            let mut twice = not.clone();
            twice.negate();
            assert_eq!(twice, a, "{len}");
            let ones: Vec<usize> = a.ones().collect();
            assert_eq!(ones, (0..len).filter(|&i| a_bit(i)).collect::<Vec<_>>());
            assert_eq!(ones.len(), a.count_valid());
            // Dirty padding and surplus words are dropped.
            let mut words = a.words().to_vec();
            if let Some(last) = words.last_mut().filter(|_| len % 64 != 0) {
                *last |= !0u64 << (len % 64);
            }
            words.push(u64::MAX);
            assert_eq!(Bitmap::from_words(words, len), a, "{len}");
        }
        let mut all = Bitmap::new_all(70, false);
        all.negate();
        assert!(all.all_valid() && all == Bitmap::new_all(70, true));
        // A shorter operand reads zero past its end.
        let mut long = Bitmap::new_all(130, true);
        long.and_with(&Bitmap::new_all(65, true));
        assert_eq!(long.count_valid(), 65);
    }

    /// Equality is over the `len` bits, however they were written: the
    /// unused high bits of the last word stay zero.
    #[test]
    fn bitmap_equality_ignores_padding_bits() {
        let mut bit_by_bit = Bitmap::new_all(70, false);
        (0..70).for_each(|i| bit_by_bit.set(i, true));
        assert_eq!(Bitmap::new_all(70, true), bit_by_bit);
    }

    #[test]
    fn bitmap_push_appends_and_keeps_the_count() {
        let mut b = Bitmap::new_all(0, true);
        assert!(b.is_empty() && b.all_valid());
        for i in 0..130 {
            b.push(i % 3 != 0);
        }
        assert_eq!((b.len(), b.count_valid()), (130, 86));
        assert!(!b.all_valid() && !b.get(129) && b.get(128) && !b.get(130));
        let bits: Vec<bool> = b.iter().collect();
        assert_eq!(bits, (0..130).map(|i| i % 3 != 0).collect::<Vec<_>>());
        // The same bits written another way compare equal.
        let mut set = Bitmap::new_all(130, true);
        (0..130).step_by(3).for_each(|i| set.set(i, false));
        assert_eq!(b, set);
        // Setting a bit to what it already is moves no count.
        set.set(0, false);
        set.set(1, true);
        assert_eq!(set.count_valid(), 86);
    }

    #[test]
    fn empty_batch_round_trips() {
        round_trip(&[], 0);
        round_trip(&[], 3);
        let batch = ColumnarBatch::from_rows(&[], 3).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.arity(), 3);
        assert_eq!(batch.column(0).unwrap().len(), 0);
    }

    #[test]
    fn single_row_batch_round_trips() {
        round_trip(
            &[vec![
                Value::Int(7),
                Value::Null,
                Value::str("x"),
                Value::Float(1.5),
                Value::Bool(true),
            ]],
            5,
        );
    }

    #[test]
    fn typed_columns_with_nulls_round_trip() {
        let rows = vec![
            vec![Value::Int(1), Value::str("a"), Value::Float(0.5)],
            vec![Value::Null, Value::Null, Value::Float(-0.0)],
            vec![Value::Int(-3), Value::str(""), Value::Null],
        ];
        round_trip(&rows, 3);
        let batch = ColumnarBatch::from_rows(&rows, 3).unwrap();
        assert!(matches!(batch.column(0).unwrap(), ColumnVector::Int { .. }));
        assert!(matches!(batch.column(1).unwrap(), ColumnVector::Str { .. }));
        assert!(matches!(
            batch.column(2).unwrap(),
            ColumnVector::Float { .. }
        ));
        assert_eq!(batch.column(0).unwrap().count_valid(), 2);
        // -0.0 must come back as -0.0 (bit-exact), not 0.0.
        if let Value::Float(f) = batch.column(2).unwrap().value(1) {
            assert!(f.is_sign_negative());
        } else {
            panic!("expected float");
        }
    }

    #[test]
    fn nan_floats_round_trip_bit_exact() {
        let rows = vec![vec![Value::Float(f64::NAN)], vec![Value::Float(2.0)]];
        let batch = ColumnarBatch::from_rows(&rows, 1).unwrap();
        if let Value::Float(f) = batch.column(0).unwrap().value(0) {
            assert!(f.is_nan());
        } else {
            panic!("expected NaN float back");
        }
    }

    #[test]
    fn all_null_column_is_typed_and_all_invalid() {
        let rows = vec![vec![Value::Null], vec![Value::Null]];
        round_trip(&rows, 1);
        let batch = ColumnarBatch::from_rows(&rows, 1).unwrap();
        let col = batch.column(0).unwrap();
        assert!(
            matches!(col, ColumnVector::Int { .. }),
            "all-NULL defaults to Int"
        );
        assert_eq!(col.count_valid(), 0);
        assert!(!col.is_valid(0));
    }

    #[test]
    fn a_type_mixed_column_is_an_internal_error() {
        let rows = vec![
            vec![Value::Null],
            vec![Value::Int(1)],
            vec![Value::str("two")],
        ];
        let err = ColumnarBatch::from_rows(&rows, 1).unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("cannot hold"), "{err}");
    }

    #[test]
    fn bool_column_round_trips() {
        let rows = vec![
            vec![Value::Bool(true)],
            vec![Value::Null],
            vec![Value::Bool(false)],
        ];
        round_trip(&rows, 1);
        let batch = ColumnarBatch::from_rows(&rows, 1).unwrap();
        assert!(matches!(
            batch.column(0).unwrap(),
            ColumnVector::Bool { .. }
        ));
    }

    #[test]
    fn arity_mismatch_is_an_internal_error() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(1), Value::Int(2)]];
        let err = ColumnarBatch::from_rows(&rows, 1).unwrap_err();
        assert_eq!(err.kind(), "internal");
        let err = ColumnarBatch::from_rows(&rows, 9).unwrap_err();
        assert_eq!(err.kind(), "internal");
    }

    #[test]
    fn from_columns_checks_row_counts() {
        let cols = vec![ColumnVector::all_null(2), ColumnVector::all_null(3)];
        assert_eq!(
            ColumnarBatch::from_columns(cols, 2).unwrap_err().kind(),
            "internal"
        );
        let batch = ColumnarBatch::from_columns(vec![ColumnVector::all_null(2)], 2).unwrap();
        assert_eq!(batch.to_rows(), vec![vec![Value::Null], vec![Value::Null]]);
    }

    #[test]
    fn bad_column_ordinal_is_an_internal_error() {
        let batch = ColumnarBatch::from_rows(&[vec![Value::Int(1)]], 1).unwrap();
        assert!(batch.column(0).is_ok());
        assert_eq!(batch.column(1).unwrap_err().kind(), "internal");
    }

    #[test]
    fn out_of_range_row_reads_as_nulls() {
        let batch = ColumnarBatch::from_rows(&[vec![Value::Int(1), Value::str("a")]], 2).unwrap();
        assert_eq!(batch.row(5), vec![Value::Null, Value::Null]);
        assert_eq!(batch.column(0).unwrap().value(5), Value::Null);
    }

    fn dict_column(strings: &[Option<&str>]) -> ColumnVector {
        let mut b = StringDict::default();
        let codes: Vec<u32> = strings
            .iter()
            .map(|s| s.map_or(NULL_CODE, |s| b.intern(s).unwrap()))
            .collect();
        ColumnVector::Dict {
            codes,
            dict: Arc::new(b),
        }
    }

    #[test]
    fn dict_code_string_round_trip() {
        let mut b = StringDict::default();
        let a = b.intern("alpha").unwrap();
        let bb = b.intern("beta").unwrap();
        let a2 = b.intern("alpha").unwrap();
        assert_eq!(a, a2, "re-interning dedupes");
        assert_ne!(a, bb);
        let d = b;
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(a), Some("alpha"));
        assert_eq!(d.get(bb), Some("beta"));
        assert_eq!(d.code_of("alpha"), Some(a));
        assert_eq!(d.code_of("beta"), Some(bb));
        assert_eq!(d.code_of("gamma"), None);
    }

    #[test]
    fn reserved_null_code_never_collides() {
        let mut b = StringDict::default();
        for i in 0..1000 {
            let code = b.intern(&format!("s{i}")).unwrap();
            assert_ne!(code, NULL_CODE, "no real string gets the NULL code");
        }
        let d = b;
        assert_eq!(d.get(NULL_CODE), None, "the NULL code never decodes");
        let col = dict_column(&[Some("x"), None, Some("x")]);
        assert!(col.is_valid(0));
        assert!(!col.is_valid(1), "NULL_CODE slots read as NULL");
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.count_valid(), 2);
    }

    #[test]
    fn dict_column_survives_row_round_trip() {
        // A Dict column converts to rows and back; the re-built batch
        // uses a plain Str column, but every value is identical — the
        // to_rows/from_rows oracle boundary is encoding-agnostic.
        let col = dict_column(&[Some("a"), None, Some("b"), Some("a")]);
        let batch = ColumnarBatch::from_columns(vec![col], 4).unwrap();
        let rows = batch.to_rows();
        assert_eq!(
            rows,
            vec![
                vec![Value::str("a")],
                vec![Value::Null],
                vec![Value::str("b")],
                vec![Value::str("a")],
            ]
        );
        let rebuilt = ColumnarBatch::from_rows(&rows, 1).unwrap();
        assert!(matches!(
            rebuilt.column(0).unwrap(),
            ColumnVector::Str { .. }
        ));
        assert_eq!(rebuilt.to_rows(), rows);
        for i in 0..4 {
            assert_eq!(
                rebuilt.column(0).unwrap().value(i),
                batch.column(0).unwrap().value(i)
            );
        }
    }

    #[test]
    fn hash_on_codes_equals_hash_on_strings_group_counts() {
        use gbj_types::GroupKey;
        // `=ⁿ` grouping on u32 codes must produce exactly the groups
        // that GroupKey(String) grouping produces, NULL group included.
        let data = [
            Some("red"),
            Some("blue"),
            None,
            Some("red"),
            None,
            Some("green"),
            Some("blue"),
            Some("red"),
        ];
        let col = dict_column(&data);
        let mut by_code: HashMap<u32, usize> = HashMap::new();
        let ColumnVector::Dict { codes, .. } = &col else {
            panic!("expected dict column");
        };
        for &c in codes {
            *by_code.entry(c).or_default() += 1;
        }
        let mut by_string: HashMap<GroupKey, usize> = HashMap::new();
        for i in 0..data.len() {
            *by_string.entry(GroupKey(vec![col.value(i)])).or_default() += 1;
        }
        assert_eq!(by_code.len(), by_string.len(), "same number of groups");
        for (code, n) in &by_code {
            let i = codes.iter().position(|c| c == code).unwrap();
            let key = GroupKey(vec![col.value(i)]);
            assert_eq!(by_string.get(&key), Some(n), "group {code} count matches");
        }
    }

    #[test]
    fn gather_compacts_every_variant() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(0.5), Value::str("a")],
            vec![Value::Null, Value::Float(1.5), Value::Null],
            vec![Value::Int(3), Value::Null, Value::str("c")],
        ];
        let batch = ColumnarBatch::from_rows(&rows, 3).unwrap();
        let sel = [2u32, 0];
        for c in 0..3 {
            let g = batch.column(c).unwrap().gather(&sel);
            assert_eq!(g.len(), 2);
            assert_eq!(g.value(0), rows[2][c]);
            assert_eq!(g.value(1), rows[0][c]);
        }
        // Dict gather keeps the shared dictionary and the NULL code.
        let dict = dict_column(&[Some("x"), None, Some("y")]);
        let g = dict.gather(&[1, 2, 7]);
        assert_eq!(g.value(0), Value::Null);
        assert_eq!(g.value(1), Value::str("y"));
        assert_eq!(g.value(2), Value::Null, "out-of-range gathers as NULL");
    }

    /// An all-valid source gathers to an all-valid mask without a
    /// per-row test — unless an id is out of range, which still reads
    /// as NULL — and the result equals the bit-by-bit definition.
    #[test]
    fn gather_of_an_all_valid_source_matches_the_per_row_definition() {
        let column = |vals: &[Value]| ColumnVector::from_values(vals.iter()).unwrap();
        let valid = column(&[Value::Int(4), Value::Int(5), Value::Int(6)]);
        let holey = column(&[Value::Int(4), Value::Null, Value::Int(6)]);
        let long: Vec<u32> = (0..200).map(|i| i % 3).collect();
        for (col, sel) in [
            (&valid, &[2u32, 0, 2][..]),
            (&valid, &[1, 9, 0][..]),
            (&holey, &[1, 2, 9, 0][..]),
            (&valid, &long[..]),
            (&holey, &long[..]),
            (&valid, &[][..]),
        ] {
            let got = col.gather(sel);
            let expect: Vec<Value> = sel.iter().map(|&i| col.value(i as usize)).collect();
            assert_eq!(got, column(&expect), "{sel:?}");
            if let ColumnVector::Int { validity, .. } = &got {
                assert_eq!(validity, &pushed((0..sel.len()).map(|o| got.is_valid(o))));
                assert_eq!(validity.all_valid(), expect.iter().all(|v| !v.is_null()));
            }
        }
    }

    /// `append` and `gather` write a word at a time and agree with
    /// `push` at every alignment; padding stays zero, so equality and
    /// the O(1) `all_valid` hold.
    #[test]
    fn bitmap_append_and_gather_match_push_at_every_alignment() {
        let pattern = |n: usize, k: usize| (0..n).map(move |i| (i * 7 + k) % 5 != 0);
        for head in [0usize, 1, 63, 64, 65, 130] {
            for tail in [0usize, 1, 63, 64, 65, 200] {
                let whole = pushed(pattern(head, 1).chain(pattern(tail, 2)));
                let mut appended = pushed(pattern(head, 1));
                appended.append(&pushed(pattern(tail, 2)));
                assert_eq!(appended, whole, "head={head} tail={tail}");
                assert_eq!(appended.count_valid(), whole.iter().filter(|b| *b).count());
                // Every other bit, back to front, then one out of range.
                let mut sel: Vec<u32> = (0..(head + tail) as u32).rev().step_by(2).collect();
                sel.push(u32::MAX);
                let expect = pushed(sel.iter().map(|&i| whole.get(i as usize)));
                assert_eq!(whole.gather(&sel), expect, "head={head} tail={tail}");
            }
        }
        let mut all = Bitmap::new_all(70, true);
        all.append(&Bitmap::new_all(70, true));
        assert_eq!(all, Bitmap::new_all(140, true));
        assert!(all.all_valid());
    }

    /// Every batch shape the storage layer can emit — short final
    /// batches, `batch_size = 1`, and fault-injected NULL flips —
    /// converts to columnar form and back losslessly.
    #[test]
    fn scan_cursor_batches_round_trip_under_fault_injection() {
        use crate::{FaultConfig, FaultInjector, Storage};
        use gbj_catalog::{ColumnDef, TableDef};
        use gbj_types::DataType;

        let mut s = Storage::new();
        s.create_table(TableDef::new(
            "T",
            vec![
                ColumnDef::new("a", DataType::Int64),
                ColumnDef::new("b", DataType::Utf8),
            ],
        ))
        .unwrap();
        for i in 0..23 {
            let b = if i % 4 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{i}"))
            };
            s.insert("T", vec![Value::Int(i), b]).unwrap();
        }

        // batch_size 5 → four full batches and a short final batch of
        // 3; NULL flips exercise validity bitmaps on both columns.
        for (batch_size, flips) in [(5usize, None), (1, None), (7, Some(2u64)), (23, Some(1))] {
            s.set_fault_injector(Some(FaultInjector::new(FaultConfig {
                seed: 42,
                batch_size: Some(batch_size),
                null_flip_one_in: flips,
                ..FaultConfig::default()
            })));
            let mut cursor = s.open_scan("T").unwrap();
            let arity = cursor.arity();
            assert_eq!(cursor.nullable().len(), arity);
            let mut total = 0;
            while let Some(rows) = cursor.next_batch().unwrap() {
                assert!(rows.len() <= batch_size, "cursor honours batch size");
                total += rows.len();
                let batch = ColumnarBatch::from_rows(&rows, arity).unwrap();
                assert_eq!(batch.to_rows(), rows, "batch_size={batch_size}");
            }
            assert_eq!(total, 23);
        }

        // The empty batch (empty table) round-trips too.
        s.set_fault_injector(None);
        let mut t = Storage::new();
        t.create_table(TableDef::new(
            "E",
            vec![ColumnDef::new("a", DataType::Int64)],
        ))
        .unwrap();
        let mut cursor = t.open_scan("E").unwrap();
        assert!(cursor.next_batch().unwrap().is_none());
        let batch = ColumnarBatch::from_rows(&[], 1).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.to_rows(), Vec::<Vec<Value>>::new());
    }

    /// The native columnar scan is value-identical to `next_batch` +
    /// `from_rows` under every batch shape and fault seed, and emits
    /// `Dict` columns for Utf8.
    #[test]
    fn native_columnar_scan_matches_row_batches_under_faults() {
        use crate::{FaultConfig, FaultInjector, Storage};
        use gbj_catalog::{ColumnDef, TableDef};
        use gbj_types::DataType;

        let mut s = Storage::new();
        s.create_table(TableDef::new(
            "T",
            vec![
                ColumnDef::new("a", DataType::Int64),
                ColumnDef::new("b", DataType::Utf8),
                ColumnDef::new("c", DataType::Float64),
                ColumnDef::new("d", DataType::Boolean),
            ],
        ))
        .unwrap();
        for i in 0..23 {
            let b = if i % 4 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{}", i % 3))
            };
            s.insert(
                "T",
                vec![
                    Value::Int(i),
                    b,
                    Value::Float(i as f64 / 2.0),
                    Value::Bool(i % 2 == 0),
                ],
            )
            .unwrap();
        }

        for (batch_size, flips) in [(5usize, None), (1, None), (7, Some(2u64)), (23, Some(1))] {
            s.set_fault_injector(Some(FaultInjector::new(FaultConfig {
                seed: 42,
                batch_size: Some(batch_size),
                null_flip_one_in: flips,
                ..FaultConfig::default()
            })));
            let mut row_cursor = s.open_scan("T").unwrap();
            let mut col_cursor = s.open_scan("T").unwrap();
            loop {
                let rows = row_cursor.next_batch().unwrap();
                let cols = col_cursor.next_columnar().unwrap();
                match (rows, cols) {
                    (None, None) => break,
                    (Some(rows), Some(batch)) => {
                        assert_eq!(batch.to_rows(), rows, "bs={batch_size}");
                        assert!(
                            matches!(batch.column(1).unwrap(), ColumnVector::Dict { .. }),
                            "Utf8 scans dictionary-encoded"
                        );
                    }
                    (r, c) => panic!("cursor shape mismatch: {r:?} vs {c:?}"),
                }
            }
        }

        // Injected batch faults fire on the same global ordinal for
        // both paths; the ordinal counter is shared, so replay the
        // columnar sweep after a reset (as the differential oracles do).
        s.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            seed: 7,
            batch_size: Some(5),
            fail_nth_batch: Some(2),
            ..FaultConfig::default()
        })));
        let row_err = {
            let mut cur = s.open_scan("T").unwrap();
            loop {
                match cur.next_batch() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("row sweep should hit the injected fault"),
                    Err(e) => break e.to_string(),
                }
            }
        };
        s.fault_injector().unwrap().reset();
        let col_err = {
            let mut cur = s.open_scan("T").unwrap();
            loop {
                match cur.next_columnar() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("columnar sweep should hit the injected fault"),
                    Err(e) => break e.to_string(),
                }
            }
        };
        assert_eq!(
            row_err, col_err,
            "identical fault error on the same ordinal"
        );
    }
}
