//! The stored table: a multiset of rows with implicit RowIDs, held
//! column-major in `Arc`-shared blocks, with hash indexes over declared
//! keys and the statistics of its current rows.
//!
//! **What an INSERT costs** is what it changes: the tail block of each
//! column, the few dozen keys of each index set it inserts into
//! ([`KeySets`]), and — once per [`BLOCK_ROWS`] rows, when the tail
//! fills — one block's fold into the statistics of the sealed blocks
//! ([`SealedStats`]) and an empty cell for the block's split over the
//! parts of a scan ([`crate::split`]). Nothing on the append path grows
//! with the table; DELETE and UPDATE re-pack it and start all three
//! afresh.
//!
//! **Layout.** Each column is a sequence of dense blocks of
//! [`BLOCK_ROWS`] rows — every block but the last is full — typed by
//! the column's declared type, which `validate_row` has already coerced
//! every cell to. An `Int64` / `Float64` / `Boolean` block *is* a
//! [`ColumnVector`] (values plus a validity [`Bitmap`](crate::Bitmap)):
//! the very vector a scan hands out. A `Utf8` block holds `u32` codes
//! into the column's one [`StringDict`], interned at insert
//! ([`NULL_CODE`] for NULL). The implicit RowID column (paper §4.3) is
//! blocked the same way. There is no row form at rest: [`Row`] exists
//! in flight only, for DML and the test oracles.
//!
//! **Copy-on-write.** Every block sits behind its own `Arc`, so
//! [`Table::clone`] shares them all; the first append after a clone
//! copies the tail block of each column, the key sets it inserts into
//! and nothing else, and the dictionary is copied only if a *new*
//! string arrives while a clone still shares it. DELETE and UPDATE
//! rebuild and re-pack the blocks (O(table)); the dictionary is
//! append-only, so it may keep strings no live row uses.

use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

use gbj_types::{internal_err, key_hash, DataType, Error, GroupKey, Result, Schema, Value};

use crate::columnar::{ColumnVector, ColumnarBatch, StringDict, NULL_CODE};
use crate::keys::{Key, KeySets};
use crate::split::{ScanSplit, SplitCell};
use crate::stats::{joint_ndv, SealedStats, StatsCell, TableStats};

/// Rows per stored block — and per scan batch when no injector or
/// caller overrides it, so an unfaulted scan hands out whole blocks.
pub(crate) const BLOCK_ROWS: usize = 1024;

/// A row in flight: its implicit RowID plus the column values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The implicit unique row identifier (paper §4.3).
    pub row_id: u64,
    /// Column values in schema order.
    pub values: Vec<Value>,
}

/// The block to append row number `rows` of a column to: a fresh one
/// when every block is full, else the last — copied first if a clone of
/// the table still shares it.
fn tail<T: Clone>(
    blocks: &mut Vec<Arc<T>>,
    rows: usize,
    fresh: impl FnOnce() -> T,
) -> Option<&mut T> {
    if rows.is_multiple_of(BLOCK_ROWS) {
        blocks.push(Arc::new(fresh()));
    }
    blocks.last_mut().map(Arc::make_mut)
}

/// One stored column.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    /// `Int64` / `Float64` / `Boolean`: typed values plus validity.
    Typed(Vec<Arc<ColumnVector>>),
    /// `Utf8`: codes into the column's table-lifetime dictionary.
    Utf8 {
        /// One code per row, [`NULL_CODE`] for NULL.
        blocks: Vec<Arc<Vec<u32>>>,
        /// Every string the column has ever held, in first-seen order.
        dict: Arc<StringDict>,
    },
}

impl Column {
    fn new(data_type: DataType) -> Column {
        match data_type {
            DataType::Utf8 => Column::Utf8 {
                blocks: Vec::new(),
                dict: Arc::default(),
            },
            _ => Column::Typed(Vec::new()),
        }
    }

    /// Whether one more cell surely fits: the dictionary has a code
    /// left, should the cell hold a new string.
    fn has_room(&self) -> bool {
        match self {
            Column::Typed(_) => true,
            Column::Utf8 { dict, .. } => dict.len() < NULL_CODE as usize,
        }
    }

    /// Append the cell of row number `rows`: NULL, or a value of the
    /// column's type `data_type` ([`Table::check_cells`] has checked).
    fn push(&mut self, rows: usize, data_type: DataType, cell: &Value) {
        match self {
            Column::Typed(blocks) => {
                if let Some(block) = tail(blocks, rows, || ColumnVector::empty(data_type, 0)) {
                    block.push(cell);
                }
            }
            Column::Utf8 { blocks, dict } => {
                // A hit leaves a shared dictionary shared; only a new
                // string copies it away from the clones.
                let code = match cell {
                    Value::Str(s) => dict
                        .code_of(s)
                        .or_else(|| Arc::make_mut(dict).intern(s))
                        .unwrap_or(NULL_CODE),
                    _ => NULL_CODE,
                };
                if let Some(block) = tail(blocks, rows, Vec::new) {
                    block.push(code);
                }
            }
        }
    }

    /// A `Utf8` column's dictionary.
    pub(crate) fn dict(&self) -> Option<&Arc<StringDict>> {
        match self {
            Column::Typed(_) => None,
            Column::Utf8 { dict, .. } => Some(dict),
        }
    }

    /// Feed cell `i` of block `b` to `state` as `GroupKey`'s `=ⁿ` hash
    /// stream would (a cell that does not exist reads as NULL).
    pub(crate) fn hash_cell<H: Hasher>(&self, b: usize, i: usize, state: &mut H) {
        match self {
            Column::Typed(blocks) => match blocks.get(b) {
                Some(block) => block.hash_cell(i, state),
                None => key_hash::null(state),
            },
            Column::Utf8 { blocks, dict } => {
                let code = blocks.get(b).and_then(|codes| codes.get(i));
                match code.and_then(|&c| dict.get(c)) {
                    Some(s) => key_hash::str(s, state),
                    None => key_hash::null(state),
                }
            }
        }
    }

    /// Drop every row; the dictionary stays.
    fn clear(&mut self) {
        match self {
            Column::Typed(blocks) => blocks.clear(),
            Column::Utf8 { blocks, .. } => blocks.clear(),
        }
    }

    /// Block `b` as the vector a scan hands out: the stored block
    /// itself, or its codes under the dictionary *as it is now* — every
    /// block of one scan carries the same `Arc<StringDict>`, whichever
    /// version of it the block was written under.
    fn block(&self, b: usize) -> Option<Arc<ColumnVector>> {
        match self {
            Column::Typed(blocks) => blocks.get(b).cloned(),
            Column::Utf8 { blocks, dict } => blocks.get(b).map(|codes| {
                Arc::new(ColumnVector::Dict {
                    codes: codes.to_vec(),
                    dict: Arc::clone(dict),
                })
            }),
        }
    }
}

/// Event counts kept across every table of a
/// [`Storage`](crate::Storage) and all its clones: exact, so tests and
/// experiments can say what a write cost without a timer.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Lazy statistics passes: [`Table::stats`] summaries and
    /// [`Table::joint_ndv`] sketches built.
    pub(crate) stats_builds: AtomicU64,
    /// Rows read by those passes and by every block seal.
    pub(crate) stats_rows: AtomicU64,
    /// Key-index entries a write copied because a clone shared their
    /// set.
    pub(crate) keys_copied: AtomicU64,
    /// Splits of sealed blocks made ([`Table::sealed_split`]).
    pub(crate) blocks_split: AtomicU64,
}

/// An index over one candidate key of a table.
///
/// PRIMARY KEY entries always participate; UNIQUE entries with any NULL
/// component are *not* indexed because SQL2's UNIQUE uses "NULL ≠ NULL"
/// semantics — such rows can never conflict.
#[derive(Debug, Clone)]
struct KeyIndex {
    columns: Vec<usize>,
    /// Whether NULLs are allowed in the key (UNIQUE yes, PRIMARY KEY no).
    allows_null: bool,
    /// The keys held — raw `i64`s when the key is one `Int64` column,
    /// the `GroupKey` of the row's key cells otherwise — in bounded
    /// sets behind one shared spine: a clone is one pointer copy, and a
    /// write copies only the sets it inserts into.
    keys: KeySets,
}

impl KeyIndex {
    fn new(columns: Vec<usize>, allows_null: bool, raw: bool) -> KeyIndex {
        KeyIndex {
            columns,
            allows_null,
            keys: KeySets::new(raw),
        }
    }

    /// The key of a row, `None` when any component is NULL. A raw key
    /// is read straight off its cell: no `GroupKey` is built. (A cell
    /// of another type reads as NULL there, like an out-of-range
    /// ordinal: `validate_row` has coerced every row that reaches a
    /// table, and `check_cells` refuses to store any other.)
    fn key_of(&self, values: &[Value]) -> Option<Key> {
        if !self.keys.is_raw() {
            return full_key(&self.columns, values).map(Key::Generic);
        }
        match self.columns.first().and_then(|&c| values.get(c)) {
            Some(Value::Int(key)) => Some(Key::Raw(*key)),
            _ => None,
        }
    }

    /// The constraint a row without a full key breaks, if any.
    fn check_null(&self) -> Result<()> {
        if self.allows_null {
            return Ok(()); // UNIQUE: NULL ≠ NULL, never conflicts
        }
        Err(Error::Constraint(format!(
            "NULL in primary key column of key ({:?})",
            self.columns
        )))
    }

    fn duplicate(&self) -> Error {
        Error::Constraint(format!(
            "duplicate key value for key on columns {:?}",
            self.columns
        ))
    }
}

/// An in-memory base table.
///
/// Blocks, the dictionary and key-index sets live behind `Arc`s, so
/// [`Table::clone`] (and hence a whole-database snapshot) copies
/// pointers, not rows, and the first write after a snapshot copies only
/// what it touches: the tail block of each column, the key sets it
/// inserts into, and the dictionary only if a new string arrives.
/// Snapshots therefore never observe torn state — they hold the exact
/// blocks that existed when they were taken.
///
/// The same sharing carries the table's statistics
/// ([`Table::stats`], [`Table::joint_ndv`]): clones hold the same fold
/// of the sealed blocks until one of them seals another, and clones
/// holding the same rows hold the same cell, so one of them folds the
/// tail once for all, and a mutation leaves the old cell to the
/// snapshots still reading the old rows.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    /// Rows stored: the length of every column and of `row_ids`.
    len: usize,
    /// The implicit RowID column, blocked like the others.
    row_ids: Vec<Arc<Vec<u64>>>,
    /// One stored column per schema field.
    columns: Vec<Column>,
    next_row_id: u64,
    /// Bumped on every mutation; invalidates lazy lookup sets.
    generation: u64,
    key_indexes: Vec<KeyIndex>,
    /// Lookup sets for foreign keys *into* this table, keyed by the
    /// referenced column ordinals, tagged with the generation they were
    /// built at. Built lazily, maintained incrementally on insert.
    ref_lookups: HashMap<Vec<usize>, (u64, HashSet<GroupKey>)>,
    /// The fold of the `len / BLOCK_ROWS` sealed blocks, extended by
    /// the append that fills a block ([`Table::append`]) — copied first
    /// if a clone shares it, so clones share it only over blocks they
    /// both hold.
    sealed: Arc<SealedStats>,
    /// Statistics of exactly the rows stored: whoever shares this cell
    /// shares those rows, and the only two places the rows change
    /// ([`Table::push`], [`Table::replace_rows`]) leave it behind.
    stats: Arc<StatsCell>,
    /// One cell per sealed block, made when the block seals, where its
    /// split over the parts of a scan is kept ([`Table::sealed_split`]):
    /// clones share the cells of the blocks they share, and a re-pack
    /// starts them afresh.
    splits: Vec<Arc<SplitCell>>,
    /// Counted across every table of a [`Storage`](crate::Storage) and
    /// its clones.
    counters: Arc<Counters>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            len: self.len,
            row_ids: self.row_ids.clone(),
            columns: self.columns.clone(),
            next_row_id: self.next_row_id,
            generation: self.generation,
            key_indexes: self.key_indexes.clone(),
            // The lazy FK-lookup cache is not carried across clones: a
            // stale generation tag would force a rebuild anyway, and
            // dropping it keeps snapshots cheap.
            ref_lookups: HashMap::new(),
            sealed: Arc::clone(&self.sealed),
            stats: Arc::clone(&self.stats),
            splits: self.splits.clone(),
            counters: Arc::clone(&self.counters),
        }
    }
}

/// The values of a row in `columns` as a key, `None` when any of them
/// is NULL. (A never-expected out-of-range ordinal reads as NULL:
/// Storage validates row arity before any row reaches `Table`.)
fn full_key(columns: &[usize], values: &[Value]) -> Option<GroupKey> {
    let key = columns
        .iter()
        .map(|&c| values.get(c).filter(|v| !v.is_null()));
    key.map(Option::<&Value>::cloned)
        .collect::<Option<_>>()
        .map(GroupKey)
}

impl Table {
    /// An empty table with the given (unqualified or table-qualified)
    /// schema.
    #[must_use]
    pub fn new(schema: Schema) -> Table {
        Table {
            len: 0,
            row_ids: Vec::new(),
            columns: schema
                .fields()
                .iter()
                .map(|f| Column::new(f.data_type))
                .collect(),
            sealed: Arc::new(SealedStats::new(schema.fields().len())),
            schema,
            next_row_id: 0,
            generation: 0,
            key_indexes: Vec::new(),
            ref_lookups: HashMap::new(),
            stats: Arc::default(),
            splits: Vec::new(),
            counters: Arc::default(),
        }
    }

    /// Count this table's events in `counters` (the owning storage's,
    /// see [`Storage::stats_builds`](crate::Storage::stats_builds)).
    pub(crate) fn count_in(&mut self, counters: &Arc<Counters>) {
        self.counters = Arc::clone(counters);
    }

    /// Declare a key over column ordinals; `allows_null` is true for
    /// UNIQUE, false for PRIMARY KEY. A key over one `Int64` column is
    /// held raw.
    pub(crate) fn add_key_index(&mut self, columns: Vec<usize>, allows_null: bool) {
        let fields = self.schema.fields();
        let raw = match columns.as_slice() {
            [c] => fields.get(*c).map(|f| f.data_type) == Some(DataType::Int64),
            _ => false,
        };
        self.key_indexes
            .push(KeyIndex::new(columns, allows_null, raw));
    }

    /// The table schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block `b` of column `c` as the vector a scan hands out (see
    /// [`Column::block`]).
    pub(crate) fn block(&self, c: usize, b: usize) -> Option<Arc<ColumnVector>> {
        self.columns.get(c)?.block(b)
    }

    /// Sealed block `b` split over `n` parts by `key` (see
    /// [`crate::split`]): the split kept beside the block when it was
    /// made for `key`, `n` and the columns' dictionaries as they are,
    /// else made now and kept. `None` when block `b` is not sealed in
    /// this version of the table.
    pub(crate) fn sealed_split(
        &self,
        b: usize,
        key: Option<&[usize]>,
        n: usize,
    ) -> Option<Result<Arc<ScanSplit>>> {
        if b >= self.len / BLOCK_ROWS {
            return None;
        }
        // Held while a split is made, so concurrent scans make it once.
        // The cell changes in one assignment: a poisoned lock still
        // holds a whole split or none.
        let mut kept = self
            .splits
            .get(b)?
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let dict_of = |c: usize| self.columns.get(c).and_then(Column::dict);
        if let Some(split) = kept.as_ref().filter(|s| s.serves(key, n, dict_of)) {
            return Some(Ok(Arc::clone(split)));
        }
        let columns = (0..self.columns.len()).map(|c| {
            self.block(c, b)
                .ok_or_else(|| internal_err!("no block {b} of column {c}"))
        });
        let made = columns
            .collect::<Result<Vec<_>>>()
            .and_then(|columns| ColumnarBatch::from_columns(columns, BLOCK_ROWS))
            .and_then(|batch| ScanSplit::of(&batch, b * BLOCK_ROWS, key, n))
            .map(Arc::new);
        if let Ok(split) = &made {
            self.counters.blocks_split.fetch_add(1, Ordering::Relaxed);
            *kept = Some(Arc::clone(split));
        }
        Some(made)
    }

    /// The RowID of the `i`-th stored row (0 out of range).
    pub(crate) fn row_id(&self, i: usize) -> u64 {
        let block = self.row_ids.get(i / BLOCK_ROWS);
        block
            .and_then(|ids| ids.get(i % BLOCK_ROWS))
            .copied()
            .unwrap_or(0)
    }

    /// The rows of block `b`, materialized column by column: all
    /// columns, or those `ordinals` names, in that order.
    fn block_rows(&self, b: usize, ordinals: Option<&[usize]>) -> Vec<Vec<Value>> {
        let rows = self.row_ids.get(b).map_or(0, |ids| ids.len());
        let columns: Vec<Arc<ColumnVector>> = match ordinals {
            Some(ordinals) => ordinals.iter().filter_map(|&c| self.block(c, b)).collect(),
            None => self.columns.iter().filter_map(|c| c.block(b)).collect(),
        };
        ColumnarBatch::from_columns(columns, rows).map_or_else(|_| Vec::new(), |b| b.to_rows())
    }

    /// The stored rows, materialized block by block (for DML, foreign
    /// keys and test oracles — queries read [`Storage::open_scan`](crate::Storage::open_scan)).
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        let ids = self.row_ids.iter().flat_map(|ids| ids.iter().copied());
        ids.zip(self.value_rows())
            .map(|(row_id, values)| Row { row_id, values })
    }

    /// The stored rows without their RowIDs.
    pub fn value_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.row_ids.len()).flat_map(|b| self.block_rows(b, None))
    }

    /// The stored rows' values in the columns `ordinals`, in that order.
    pub(crate) fn project<'a>(
        &'a self,
        ordinals: &'a [usize],
    ) -> impl Iterator<Item = Vec<Value>> + 'a {
        (0..self.row_ids.len()).flat_map(move |b| self.block_rows(b, Some(ordinals)))
    }

    /// The summary of the current rows: the fold of the sealed blocks
    /// merged with one pass over the tail block, made on the first
    /// call (by whichever clone sharing these rows asks first; a
    /// concurrent asker waits for that pass instead of making its own)
    /// and read from the shared cell afterwards. Reads the stored
    /// blocks directly, never through a scan cursor, so an installed
    /// fault injector does not touch it.
    #[must_use]
    pub fn stats(&self) -> &TableStats {
        self.stats.summary.get_or_init(|| {
            self.counters.stats_builds.fetch_add(1, Ordering::Relaxed);
            self.count_stats_rows(self.len % BLOCK_ROWS);
            TableStats::merge(&self.sealed, &self.columns, self.len)
        })
    }

    fn count_stats_rows(&self, rows: usize) {
        let counter = &self.counters.stats_rows;
        counter.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// The number of distinct combinations the current rows hold in the
    /// columns `ordinals`, NULLs comparing equal (`=ⁿ`): exact below
    /// [`SKETCH_K`](crate::stats::SKETCH_K) combinations, a KMV
    /// estimate above. One pass over the tail block per ordinal list
    /// and table version, shared like [`Table::stats`]; the sealed
    /// blocks are read the first time a list is asked and their sketch
    /// is kept, and extended block by block, from then on.
    #[must_use]
    pub fn joint_ndv(&self, ordinals: &[usize]) -> f64 {
        *self.stats.joint(ordinals).get_or_init(|| {
            self.counters.stats_builds.fetch_add(1, Ordering::Relaxed);
            let read = |rows| self.count_stats_rows(rows);
            joint_ndv(&self.sealed, &self.columns, ordinals, self.len, read)
        })
    }

    /// Check key uniqueness for a candidate row (without inserting).
    pub(crate) fn check_keys(&self, values: &[Value]) -> Result<()> {
        for idx in &self.key_indexes {
            match idx.key_of(values) {
                None => idx.check_null()?,
                Some(key) if idx.keys.contains(&key) => return Err(idx.duplicate()),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Whether `values` can be stored: one cell per column, each NULL
    /// or of the declared type (`validate_row` has coerced them).
    fn check_cells(&self, values: &[Value]) -> Result<()> {
        let fields = self.schema.fields();
        let fits = values.len() == fields.len()
            && self.columns.iter().all(Column::has_room)
            && values
                .iter()
                .zip(fields)
                .all(|(v, f)| v.data_type().is_none_or(|t| t == f.data_type));
        if fits {
            return Ok(());
        }
        Err(internal_err!(
            "row {values:?} does not fit the stored columns of ({})",
            self.schema
        ))
    }

    /// Append one checked row to every column.
    fn append(&mut self, row_id: u64, values: &[Value]) {
        if let Some(ids) = tail(&mut self.row_ids, self.len, Vec::new) {
            ids.push(row_id);
        }
        let cells = self
            .columns
            .iter_mut()
            .zip(self.schema.fields())
            .zip(values);
        for ((column, field), cell) in cells {
            column.push(self.len, field.data_type, cell);
        }
        self.len += 1;
        if self.len.is_multiple_of(BLOCK_ROWS) {
            // The tail has just filled: it is sealed, and folded into
            // the statistics of the sealed blocks here, by the writer —
            // so that whoever holds these blocks holds their fold.
            self.count_stats_rows(BLOCK_ROWS);
            Arc::make_mut(&mut self.sealed).seal(&self.columns);
            self.splits.push(Arc::default());
        }
    }

    /// Append a row, updating indexes. The caller (Storage) has already
    /// validated constraints. Copy-on-write: the first push after a
    /// snapshot copies the tail blocks; snapshots keep the old ones.
    pub(crate) fn push(&mut self, values: &[Value]) -> Result<u64> {
        self.check_cells(values)?;
        StatsCell::renew(&mut self.stats);
        for idx in &mut self.key_indexes {
            if let Some(key) = idx.key_of(values) {
                idx.keys.insert(key, &self.counters.keys_copied);
            }
        }
        self.generation += 1;
        // Keep current lookup sets current (incremental maintenance).
        for (cols, (gen, set)) in &mut self.ref_lookups {
            set.extend(full_key(cols, values));
            *gen = self.generation;
        }
        let id = self.next_row_id;
        self.next_row_id += 1;
        self.append(id, values);
        Ok(id)
    }

    /// Replace the stored rows wholesale (DELETE / UPDATE): re-pack the
    /// blocks, rebuild key indexes and invalidate lookup sets.
    /// Surviving rows keep their RowIDs; `next_row_id` never goes
    /// backwards, so IDs are never reused.
    pub(crate) fn replace_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        rows.iter().try_for_each(|r| self.check_cells(&r.values))?;
        StatsCell::renew(&mut self.stats);
        self.ref_lookups.clear();
        for idx in &mut self.key_indexes {
            // Fresh sets: snapshots holding the old ones are unaffected.
            idx.keys = KeySets::new(idx.keys.is_raw());
            for row in &rows {
                if let Some(key) = idx.key_of(&row.values) {
                    idx.keys.insert(key, &self.counters.keys_copied);
                }
            }
        }
        self.generation += 1;
        self.len = 0;
        self.row_ids.clear();
        self.columns.iter_mut().for_each(Column::clear);
        // Re-packed blocks are other blocks: their fold starts over,
        // and `append` seals them as they fill.
        self.sealed = Arc::new(SealedStats::new(self.columns.len()));
        self.splits.clear();
        for row in &rows {
            self.append(row.row_id, &row.values);
        }
        Ok(())
    }

    /// Key-uniqueness check over an arbitrary candidate row multiset
    /// (used by UPDATE, which must validate the *final* state).
    pub(crate) fn check_keys_over(&self, rows: &[Row]) -> Result<()> {
        for idx in &self.key_indexes {
            let mut seen: HashSet<GroupKey> = HashSet::with_capacity(rows.len());
            for row in rows {
                match full_key(&idx.columns, &row.values) {
                    None => idx.check_null()?,
                    Some(key) => {
                        if !seen.insert(key) {
                            return Err(idx.duplicate());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether a (fully non-NULL) key value exists under the given
    /// referenced columns — used for foreign-key validation. Builds a
    /// lookup set on first use.
    pub(crate) fn contains_key_value(&mut self, columns: &[usize], key: &[Value]) -> bool {
        // Fast path: an existing key index over exactly these columns.
        // A raw index answers for an `Int64` probe; a probe of another
        // type (a DOUBLE PRECISION column referencing an INTEGER key)
        // compares as `GroupKey` does, through the lookup set below.
        if let Some(idx) = self.key_indexes.iter().find(|i| i.columns == columns) {
            match (idx.keys.is_raw(), key) {
                (true, [Value::Int(key)]) => return idx.keys.contains(&Key::Raw(*key)),
                (true, _) => {}
                (false, _) => return idx.keys.contains(&Key::Generic(GroupKey(key.to_vec()))),
            }
        }
        if self.ref_lookups.get(columns).map(|(gen, _)| *gen) != Some(self.generation) {
            // (Re)build for the current generation; push() maintains it
            // incrementally afterwards.
            let keys = self.project(columns);
            let full = keys.filter(|vals| !vals.iter().any(Value::is_null));
            let set = full.map(GroupKey).collect();
            self.ref_lookups
                .insert(columns.to_vec(), (self.generation, set));
        }
        let lookup = self.ref_lookups.get(columns);
        lookup.is_some_and(|(_, set)| set.contains(&GroupKey(key.to_vec())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Int64, true),
        ])
    }

    #[test]
    fn row_ids_are_sequential_and_unique() {
        let mut t = Table::new(schema());
        let a = t.push(&[Value::Int(1), Value::Null]).unwrap();
        let b = t.push(&[Value::Int(2), Value::Null]).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        let ids: Vec<u64> = t.rows().map(|r| r.row_id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn duplicate_rows_are_allowed_as_multiset() {
        let mut t = Table::new(schema());
        t.push(&[Value::Int(1), Value::Int(5)]).unwrap();
        t.push(&[Value::Int(1), Value::Int(5)]).unwrap();
        assert_eq!(t.len(), 2, "tables are multisets");
    }

    #[test]
    fn primary_key_index_rejects_duplicates_and_nulls() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.check_keys(&[Value::Int(1), Value::Null]).unwrap();
        t.push(&[Value::Int(1), Value::Null]).unwrap();
        assert!(t.check_keys(&[Value::Int(1), Value::Int(9)]).is_err());
        assert!(t.check_keys(&[Value::Null, Value::Int(9)]).is_err());
        t.check_keys(&[Value::Int(2), Value::Null]).unwrap();
    }

    #[test]
    fn unique_index_allows_multiple_nulls() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![1], true);
        t.push(&[Value::Int(1), Value::Null]).unwrap();
        // A second NULL never conflicts (UNIQUE uses NULL ≠ NULL).
        t.check_keys(&[Value::Int(2), Value::Null]).unwrap();
        t.push(&[Value::Int(2), Value::Null]).unwrap();
        t.push(&[Value::Int(3), Value::Int(7)]).unwrap();
        assert!(t.check_keys(&[Value::Int(4), Value::Int(7)]).is_err());
    }

    #[test]
    fn contains_key_value_lookup() {
        let mut t = Table::new(schema());
        t.push(&[Value::Int(1), Value::Int(10)]).unwrap();
        t.push(&[Value::Int(2), Value::Int(20)]).unwrap();
        assert!(t.contains_key_value(&[0], &[Value::Int(1)]));
        assert!(!t.contains_key_value(&[0], &[Value::Int(3)]));
        // Lookup set stays correct across later pushes.
        t.push(&[Value::Int(3), Value::Int(30)]).unwrap();
        assert!(t.contains_key_value(&[0], &[Value::Int(3)]));
        // Composite lookup.
        assert!(t.contains_key_value(&[0, 1], &[Value::Int(2), Value::Int(20)]));
        assert!(!t.contains_key_value(&[0, 1], &[Value::Int(2), Value::Int(99)]));
    }

    #[test]
    fn clone_is_a_stable_snapshot() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.push(&[Value::Int(1), Value::Null]).unwrap();
        let mut snap = t.clone();
        // Writer-side mutations are invisible to the snapshot...
        t.push(&[Value::Int(2), Value::Null]).unwrap();
        t.replace_rows(Vec::new()).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(t.len(), 0);
        // ...including its key index and (rebuilt) FK lookup sets.
        assert!(snap.check_keys(&[Value::Int(1), Value::Null]).is_err());
        assert!(snap.contains_key_value(&[0], &[Value::Int(1)]));
        assert!(t.check_keys(&[Value::Int(1), Value::Null]).is_ok());
    }

    /// The first write after a clone copies only the key sets it
    /// inserts into (and the one a split divides); the clone keeps
    /// reading the old ones. What is copied is counted, and does not
    /// grow with the table.
    #[test]
    fn key_sets_are_copied_one_at_a_time() {
        let copied_by_ten_inserts = |rows: i64| {
            let mut t = Table::new(schema());
            t.add_key_index(vec![0], false);
            for i in 0..rows {
                t.push(&[Value::Int(i), Value::Null]).unwrap();
            }
            let counters = Arc::clone(&t.counters);
            let copied = || counters.keys_copied.load(Ordering::Relaxed);
            assert_eq!(copied(), 0, "nobody shares a set of a table never cloned");
            let sets = t.key_indexes[0].keys.set_sizes().len();

            let snap = t.clone();
            let shared = |t: &Table| {
                let (ours, theirs) = (&t.key_indexes[0].keys, &snap.key_indexes[0].keys);
                ours.sets_shared_with(theirs)
            };
            assert_eq!(shared(&t), sets, "a clone shares every set");
            for i in rows..rows + 10 {
                t.check_keys(&[Value::Int(i), Value::Null]).unwrap();
                t.push(&[Value::Int(i), Value::Null]).unwrap();
            }
            // Ten inserts, at most one split (a set grows per 24 keys).
            assert!((sets - 11..sets).contains(&shared(&t)), "{}", shared(&t));
            assert!(t.check_keys(&[Value::Int(rows + 3), Value::Null]).is_err());
            snap.check_keys(&[Value::Int(rows + 3), Value::Null])
                .unwrap();
            assert!(snap
                .check_keys(&[Value::Int(rows - 1), Value::Null])
                .is_err());
            let copied = copied();
            // With the clone gone nothing is shared: the next ten copy
            // nothing.
            drop(snap);
            for i in rows + 10..rows + 20 {
                t.push(&[Value::Int(i), Value::Null]).unwrap();
            }
            assert_eq!(counters.keys_copied.load(Ordering::Relaxed), copied);
            copied
        };
        let (small, large) = (copied_by_ten_inserts(5_000), copied_by_ten_inserts(80_000));
        assert!((10..=600).contains(&small), "{small}");
        assert!((10..=600).contains(&large), "{large}");
    }

    /// One / two-column, `Int64` or not: which indexes hold raw keys,
    /// and that a `GroupKey`-shaped probe of a raw index (`1.0` for
    /// `1`) is still answered as `GroupKey` compares.
    #[test]
    fn only_a_single_int64_column_is_keyed_raw() {
        let mut t = Table::new(Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("name", DataType::Utf8, true),
        ]));
        t.add_key_index(vec![0], false);
        t.add_key_index(vec![1], true);
        t.add_key_index(vec![0, 1], true);
        let raw: Vec<bool> = t.key_indexes.iter().map(|i| i.keys.is_raw()).collect();
        assert_eq!(raw, [true, false, false]);
        let big = 1i64 << 53;
        t.push(&[Value::Int(big), Value::str("a")]).unwrap();
        t.push(&[Value::Int(1), Value::Null]).unwrap();
        t.check_keys(&[Value::Int(big + 1), Value::str("b")])
            .unwrap();
        assert!(t.check_keys(&[Value::Int(big), Value::str("b")]).is_err());
        assert!(t.check_keys(&[Value::Int(2), Value::str("a")]).is_err());
        assert!(t.contains_key_value(&[0], &[Value::Int(1)]));
        assert!(t.contains_key_value(&[0], &[Value::Float(1.0)]));
        assert!(!t.contains_key_value(&[0], &[Value::Float(1.5)]));
        // 2^53 + 1 is not stored, but its float is 2^53's.
        assert!(!t.contains_key_value(&[0], &[Value::Int(big + 1)]));
        assert!(t.contains_key_value(&[0], &[Value::Float((big + 1) as f64)]));
        assert!(t.contains_key_value(&[1], &[Value::str("a")]));
        assert!(t.contains_key_value(&[0, 1], &[Value::Float(big as f64), Value::str("a")]));
    }

    #[test]
    fn contains_key_value_uses_key_index_fast_path() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.push(&[Value::Int(5), Value::Null]).unwrap();
        assert!(t.contains_key_value(&[0], &[Value::Int(5)]));
        assert!(!t.contains_key_value(&[0], &[Value::Int(6)]));
    }

    /// Invalidation is O(1) in the statistics: a write to a table
    /// nobody shares reuses its cell (emptied when it was built) and
    /// allocates nothing; only the first write after a clone starts a
    /// new cell, and leaves the clone its own.
    #[test]
    fn writes_renew_the_cell_without_touching_a_snapshots() {
        let mut t = Table::new(schema());
        let cell = Arc::as_ptr(&t.stats);
        t.push(&[Value::Int(1), Value::Null]).unwrap();
        t.push(&[Value::Int(2), Value::Int(5)]).unwrap();
        assert_eq!(Arc::as_ptr(&t.stats), cell, "unshared and empty: kept");
        assert_eq!((t.stats().rows, t.stats().columns[1].nulls), (2, 1));
        t.push(&[Value::Int(3), Value::Int(5)]).unwrap();
        assert_eq!(Arc::as_ptr(&t.stats), cell, "unshared and built: reused");
        assert!(t.stats.summary.get().is_none(), "but emptied");

        let snap = t.clone();
        assert!(
            Arc::ptr_eq(&t.stats, &snap.stats),
            "a clone shares the cell"
        );
        assert_eq!(snap.stats().rows, 3);
        assert!(
            t.stats.summary.get().is_some(),
            "whoever asks first builds it for every holder of these rows"
        );
        assert_eq!(snap.joint_ndv(&[0, 1]), 3.0);

        t.push(&[Value::Int(4), Value::Null]).unwrap();
        assert!(
            !Arc::ptr_eq(&t.stats, &snap.stats),
            "first push after a clone"
        );
        assert_eq!(snap.stats.summary.get().map(|s| s.rows), Some(3));
        assert_eq!((t.stats().rows, t.joint_ndv(&[0, 1])), (4, 4.0));
        let cell = Arc::as_ptr(&t.stats);
        t.replace_rows(Vec::new()).unwrap();
        assert_eq!(Arc::as_ptr(&t.stats), cell);
        assert_eq!((t.stats().rows, snap.stats().rows), (0, 3));
        // One pass per summary and per joint key, on either side, each
        // over the rows the table held: 2 + 3 + 3 + 4 + 4 + 0.
        assert_eq!(t.counters.stats_builds.load(Ordering::Relaxed), 6);
        assert_eq!(t.counters.stats_rows.load(Ordering::Relaxed), 16);
    }

    /// The fold of the sealed blocks is shared by clones until one of
    /// them seals a block, and that one copies it first: the other keeps
    /// summarizing the blocks *it* holds.
    #[test]
    fn forks_share_the_sealed_fold_up_to_the_fork_point_only() {
        let mut t = Table::new(schema());
        let row = |i: i64| [Value::Int(i), Value::Int(i % 7)];
        for i in 0..(2 * BLOCK_ROWS as i64 + 1_000) {
            t.push(&row(i)).unwrap();
        }
        let read = |t: &Table| t.counters.stats_rows.load(Ordering::Relaxed);
        assert_eq!(read(&t), 2 * BLOCK_ROWS as u64, "two seals, no summary yet");
        // A numeric column's distinct count is its own joint count.
        assert_eq!(t.joint_ndv(&[0]).round(), t.stats().columns[0].ndv as f64);
        assert!(!t.stats().columns[0].ndv_exact && t.stats().columns[1].ndv_exact);
        let mut fork = t.clone();
        assert!(Arc::ptr_eq(&t.sealed, &fork.sealed));
        // Both sides write past the next seal, with different rows.
        for i in 0..30 {
            t.push(&row(10_000 + i)).unwrap();
            fork.push(&row(-i)).unwrap();
        }
        assert!(!Arc::ptr_eq(&t.sealed, &fork.sealed));
        let before = read(&t);
        let (ours, theirs) = (t.stats().clone(), fork.stats().clone());
        assert_eq!(read(&t) - before, 2 * 6, "each side folds its 6-row tail");
        assert_eq!(
            (ours.rows, theirs.rows),
            (3 * BLOCK_ROWS + 6, 3 * BLOCK_ROWS + 6)
        );
        assert_eq!(ours.columns[0].range, Some((0.0, 10_029.0)));
        assert_eq!(theirs.columns[0].range, Some((-29.0, 3_047.0)));
        // The list asked before the fork was extended on both sides:
        // asking again reads the tail only.
        let before = read(&t);
        assert_eq!(t.joint_ndv(&[0]).round(), ours.columns[0].ndv as f64);
        assert_eq!(fork.joint_ndv(&[0]).round(), theirs.columns[0].ndv as f64);
        assert_eq!(read(&t) - before, 2 * 6);
        // Each side reads what a table freshly loaded with its rows reads.
        let mut fresh = Table::new(schema());
        for values in fork.value_rows() {
            fresh.push(&values).unwrap();
        }
        assert_eq!(fresh.stats(), &theirs);
        assert_eq!(fresh.joint_ndv(&[0]), fork.joint_ndv(&[0]));
    }
}
