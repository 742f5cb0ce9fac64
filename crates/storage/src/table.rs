//! The stored table: a multiset of rows with implicit RowIDs, hash
//! indexes over declared keys, and the statistics of its current rows.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gbj_types::{Error, GroupKey, Result, Schema, Value};

use crate::stats::{joint_ndv, StatsCell, TableStats};

/// A stored row: its implicit RowID plus the column values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The implicit unique row identifier (paper §4.3).
    pub row_id: u64,
    /// Column values in schema order.
    pub values: Vec<Value>,
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
    /// `Arc`-shared so cloning a table for a snapshot is O(1) per
    /// index; mutation goes through `Arc::make_mut` (copy-on-write).
    entries: Arc<HashSet<GroupKey>>,
}

/// An in-memory base table.
///
/// Rows and key-index entries live behind `Arc`s, so [`Table::clone`]
/// (and hence a whole-database snapshot) is O(tables), not O(rows):
/// a clone shares the row storage, and the first mutation after a
/// snapshot pays a one-time copy-on-write of the mutated table only.
/// Snapshots therefore never observe torn state — they hold the exact
/// row vector that existed when they were taken.
///
/// The same sharing carries the table's statistics
/// ([`Table::stats`], [`Table::joint_ndv`]): clones holding the same
/// rows hold the same cell, so one of them folds the rows once for all,
/// and a mutation leaves the old cell to the snapshots still reading
/// the old rows.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows: Arc<Vec<Row>>,
    next_row_id: u64,
    /// Bumped on every mutation; invalidates lazy lookup sets.
    generation: u64,
    key_indexes: Vec<KeyIndex>,
    /// Lookup sets for foreign keys *into* this table, keyed by the
    /// referenced column ordinals, tagged with the generation they were
    /// built at. Built lazily, maintained incrementally on insert.
    ref_lookups: HashMap<Vec<usize>, (u64, HashSet<GroupKey>)>,
    /// Statistics of exactly the rows behind `rows`: whoever shares
    /// this cell shares those rows, and the only two places the row
    /// vector changes ([`Table::push`], [`Table::replace_rows`]) leave
    /// it behind.
    stats: Arc<StatsCell>,
    /// Passes over the rows made to build statistics, counted across
    /// every table of a [`Storage`](crate::Storage) and its clones.
    stats_builds: Arc<AtomicU64>,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: Arc::clone(&self.rows),
            next_row_id: self.next_row_id,
            generation: self.generation,
            key_indexes: self.key_indexes.clone(),
            // The lazy FK-lookup cache is not carried across clones: a
            // stale generation tag would force a rebuild anyway, and
            // dropping it keeps snapshots cheap.
            ref_lookups: HashMap::new(),
            stats: Arc::clone(&self.stats),
            stats_builds: Arc::clone(&self.stats_builds),
        }
    }
}

/// Clone the value at column ordinal `c`, treating a (never-expected)
/// out-of-range ordinal as NULL. Storage validates row arity before any
/// row reaches `Table`, so the fallback exists only to keep this module
/// panic-free under the `indexing_slicing` lint.
pub(crate) fn val_at(values: &[Value], c: usize) -> Value {
    values.get(c).cloned().unwrap_or(Value::Null)
}

impl Table {
    /// An empty table with the given (unqualified or table-qualified)
    /// schema.
    #[must_use]
    pub fn new(schema: Schema) -> Table {
        Table {
            schema,
            rows: Arc::new(Vec::new()),
            next_row_id: 0,
            generation: 0,
            key_indexes: Vec::new(),
            ref_lookups: HashMap::new(),
            stats: Arc::default(),
            stats_builds: Arc::default(),
        }
    }

    /// Count this table's statistics passes in `counter` (the owning
    /// storage's, see [`Storage::stats_builds`](crate::Storage::stats_builds)).
    pub(crate) fn count_stats_builds_in(&mut self, counter: &Arc<AtomicU64>) {
        self.stats_builds = Arc::clone(counter);
    }

    /// Declare a key over column ordinals; `allows_null` is true for
    /// UNIQUE, false for PRIMARY KEY.
    pub(crate) fn add_key_index(&mut self, columns: Vec<usize>, allows_null: bool) {
        self.key_indexes.push(KeyIndex {
            columns,
            allows_null,
            entries: Arc::new(HashSet::new()),
        });
    }

    /// The table schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate the stored rows.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// The raw value vectors, for the executor's scan.
    pub fn value_rows(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.values.as_slice())
    }

    /// The summary of the current rows: built by one pass over them on
    /// the first call (by whichever clone sharing these rows asks
    /// first; a concurrent asker waits for that pass instead of making
    /// its own), read from the shared cell afterwards. Reads the stored
    /// rows directly, never through a scan cursor, so an installed
    /// fault injector does not touch it.
    #[must_use]
    pub fn stats(&self) -> &TableStats {
        self.stats.summary.get_or_init(|| {
            self.stats_builds.fetch_add(1, Ordering::Relaxed);
            TableStats::build(&self.schema, self.value_rows())
        })
    }

    /// The number of distinct combinations the current rows hold in the
    /// columns `ordinals`, NULLs comparing equal (`=ⁿ`): exact below
    /// [`SKETCH_K`](crate::stats::SKETCH_K) combinations, a KMV
    /// estimate above. One pass per ordinal list and table version,
    /// shared like [`Table::stats`].
    #[must_use]
    pub fn joint_ndv(&self, ordinals: &[usize]) -> f64 {
        *self.stats.joint(ordinals).get_or_init(|| {
            self.stats_builds.fetch_add(1, Ordering::Relaxed);
            joint_ndv(self.value_rows(), ordinals)
        })
    }

    /// Forget the statistics: the rows are about to change. O(1), and
    /// without allocating while nobody else holds the cell; a cell
    /// shared with snapshots stays theirs and this table starts a fresh
    /// one — which happens on the first mutation after a snapshot only,
    /// where the row vector is being copied anyway.
    fn drop_stats(&mut self) {
        match Arc::get_mut(&mut self.stats) {
            Some(cell) => cell.clear(),
            None => self.stats = Arc::default(),
        }
    }

    /// The stored rows as a slice (for batched scan cursors).
    pub(crate) fn raw_rows(&self) -> &[Row] {
        &self.rows
    }

    /// Check key uniqueness for a candidate row (without inserting).
    pub(crate) fn check_keys(&self, values: &[Value]) -> Result<()> {
        for idx in &self.key_indexes {
            let key_vals: Vec<Value> = idx.columns.iter().map(|&c| val_at(values, c)).collect();
            let has_null = key_vals.iter().any(Value::is_null);
            if has_null {
                if idx.allows_null {
                    continue; // UNIQUE: NULL ≠ NULL, never conflicts
                }
                return Err(Error::Constraint(format!(
                    "NULL in primary key column of key ({:?})",
                    idx.columns
                )));
            }
            if idx.entries.contains(&GroupKey(key_vals)) {
                return Err(Error::Constraint(format!(
                    "duplicate key value for key on columns {:?}",
                    idx.columns
                )));
            }
        }
        Ok(())
    }

    /// Append a row, updating indexes. The caller (Storage) has already
    /// validated constraints.
    pub(crate) fn push(&mut self, values: Vec<Value>) -> u64 {
        self.drop_stats();
        for idx in &mut self.key_indexes {
            let key_vals: Vec<Value> = idx.columns.iter().map(|&c| val_at(&values, c)).collect();
            if !key_vals.iter().any(Value::is_null) {
                Arc::make_mut(&mut idx.entries).insert(GroupKey(key_vals));
            }
        }
        self.generation += 1;
        // Keep current lookup sets current (incremental maintenance).
        for (cols, (gen, set)) in &mut self.ref_lookups {
            let key_vals: Vec<Value> = cols.iter().map(|&c| val_at(&values, c)).collect();
            if !key_vals.iter().any(Value::is_null) {
                set.insert(GroupKey(key_vals));
            }
            *gen = self.generation;
        }
        let id = self.next_row_id;
        self.next_row_id += 1;
        // Copy-on-write: the first push after a snapshot copies the row
        // vector; snapshots keep reading the old one untouched.
        Arc::make_mut(&mut self.rows).push(Row { row_id: id, values });
        id
    }

    /// Replace the stored rows wholesale (DELETE / UPDATE), rebuilding
    /// key indexes and invalidating lookup sets. Surviving rows keep
    /// their RowIDs; `next_row_id` never goes backwards, so IDs are
    /// never reused.
    pub(crate) fn replace_rows(&mut self, rows: Vec<Row>) {
        self.drop_stats();
        self.ref_lookups.clear();
        for idx in &mut self.key_indexes {
            let mut entries = HashSet::new();
            for row in &rows {
                let key_vals: Vec<Value> = idx
                    .columns
                    .iter()
                    .map(|&c| val_at(&row.values, c))
                    .collect();
                if !key_vals.iter().any(Value::is_null) {
                    entries.insert(GroupKey(key_vals));
                }
            }
            // Fresh Arcs: snapshots holding the old sets are unaffected.
            idx.entries = Arc::new(entries);
        }
        self.generation += 1;
        self.rows = Arc::new(rows);
    }

    /// Key-uniqueness check over an arbitrary candidate row multiset
    /// (used by UPDATE, which must validate the *final* state).
    pub(crate) fn check_keys_over(&self, rows: &[Row]) -> Result<()> {
        for idx in &self.key_indexes {
            let mut seen: HashSet<GroupKey> = HashSet::with_capacity(rows.len());
            for row in rows {
                let key_vals: Vec<Value> = idx
                    .columns
                    .iter()
                    .map(|&c| val_at(&row.values, c))
                    .collect();
                if key_vals.iter().any(Value::is_null) {
                    if idx.allows_null {
                        continue;
                    }
                    return Err(Error::Constraint(format!(
                        "NULL in primary key column of key ({:?})",
                        idx.columns
                    )));
                }
                if !seen.insert(GroupKey(key_vals)) {
                    return Err(Error::Constraint(format!(
                        "duplicate key value for key on columns {:?}",
                        idx.columns
                    )));
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
        if let Some(idx) = self.key_indexes.iter().find(|i| i.columns == columns) {
            return idx.entries.contains(&GroupKey(key.to_vec()));
        }
        let generation = self.generation;
        let (gen, set) = self
            .ref_lookups
            .entry(columns.to_vec())
            .or_insert_with(|| (0, HashSet::new()));
        if *gen != generation {
            // (Re)build for the current generation; push() maintains it
            // incrementally afterwards.
            set.clear();
            for row in self.rows.iter() {
                let vals: Vec<Value> = columns.iter().map(|&c| val_at(&row.values, c)).collect();
                if !vals.iter().any(Value::is_null) {
                    set.insert(GroupKey(vals));
                }
            }
            *gen = generation;
        }
        set.contains(&GroupKey(key.to_vec()))
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
        let a = t.push(vec![Value::Int(1), Value::Null]);
        let b = t.push(vec![Value::Int(2), Value::Null]);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        let ids: Vec<u64> = t.rows().map(|r| r.row_id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn duplicate_rows_are_allowed_as_multiset() {
        let mut t = Table::new(schema());
        t.push(vec![Value::Int(1), Value::Int(5)]);
        t.push(vec![Value::Int(1), Value::Int(5)]);
        assert_eq!(t.len(), 2, "tables are multisets");
    }

    #[test]
    fn primary_key_index_rejects_duplicates_and_nulls() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.check_keys(&[Value::Int(1), Value::Null]).unwrap();
        t.push(vec![Value::Int(1), Value::Null]);
        assert!(t.check_keys(&[Value::Int(1), Value::Int(9)]).is_err());
        assert!(t.check_keys(&[Value::Null, Value::Int(9)]).is_err());
        t.check_keys(&[Value::Int(2), Value::Null]).unwrap();
    }

    #[test]
    fn unique_index_allows_multiple_nulls() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![1], true);
        t.push(vec![Value::Int(1), Value::Null]);
        // A second NULL never conflicts (UNIQUE uses NULL ≠ NULL).
        t.check_keys(&[Value::Int(2), Value::Null]).unwrap();
        t.push(vec![Value::Int(2), Value::Null]);
        t.push(vec![Value::Int(3), Value::Int(7)]);
        assert!(t.check_keys(&[Value::Int(4), Value::Int(7)]).is_err());
    }

    #[test]
    fn contains_key_value_lookup() {
        let mut t = Table::new(schema());
        t.push(vec![Value::Int(1), Value::Int(10)]);
        t.push(vec![Value::Int(2), Value::Int(20)]);
        assert!(t.contains_key_value(&[0], &[Value::Int(1)]));
        assert!(!t.contains_key_value(&[0], &[Value::Int(3)]));
        // Lookup set stays correct across later pushes.
        t.push(vec![Value::Int(3), Value::Int(30)]);
        assert!(t.contains_key_value(&[0], &[Value::Int(3)]));
        // Composite lookup.
        assert!(t.contains_key_value(&[0, 1], &[Value::Int(2), Value::Int(20)]));
        assert!(!t.contains_key_value(&[0, 1], &[Value::Int(2), Value::Int(99)]));
    }

    #[test]
    fn clone_is_a_stable_snapshot() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.push(vec![Value::Int(1), Value::Null]);
        let mut snap = t.clone();
        // Writer-side mutations are invisible to the snapshot...
        t.push(vec![Value::Int(2), Value::Null]);
        t.replace_rows(Vec::new());
        assert_eq!(snap.len(), 1);
        assert_eq!(t.len(), 0);
        // ...including its key index and (rebuilt) FK lookup sets.
        assert!(snap.check_keys(&[Value::Int(1), Value::Null]).is_err());
        assert!(snap.contains_key_value(&[0], &[Value::Int(1)]));
        assert!(t.check_keys(&[Value::Int(1), Value::Null]).is_ok());
    }

    #[test]
    fn contains_key_value_uses_key_index_fast_path() {
        let mut t = Table::new(schema());
        t.add_key_index(vec![0], false);
        t.push(vec![Value::Int(5), Value::Null]);
        assert!(t.contains_key_value(&[0], &[Value::Int(5)]));
        assert!(!t.contains_key_value(&[0], &[Value::Int(6)]));
    }

    /// Invalidation is O(1) in the statistics: a write to a table
    /// nobody shares reuses its cell (emptied when it was built) and
    /// allocates nothing; only the first write after a clone starts a
    /// new cell, and leaves the clone its own.
    #[test]
    fn writes_drop_the_stats_without_touching_a_snapshots() {
        let mut t = Table::new(schema());
        let cell = Arc::as_ptr(&t.stats);
        t.push(vec![Value::Int(1), Value::Null]);
        t.push(vec![Value::Int(2), Value::Int(5)]);
        assert_eq!(Arc::as_ptr(&t.stats), cell, "unshared and empty: kept");
        assert_eq!((t.stats().rows, t.stats().columns[1].nulls), (2, 1));
        t.push(vec![Value::Int(3), Value::Int(5)]);
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

        t.push(vec![Value::Int(4), Value::Null]);
        assert!(
            !Arc::ptr_eq(&t.stats, &snap.stats),
            "first push after a clone"
        );
        assert_eq!(snap.stats.summary.get().map(|s| s.rows), Some(3));
        assert_eq!((t.stats().rows, t.joint_ndv(&[0, 1])), (4, 4.0));
        let cell = Arc::as_ptr(&t.stats);
        t.replace_rows(Vec::new());
        assert_eq!(Arc::as_ptr(&t.stats), cell);
        assert_eq!((t.stats().rows, snap.stats().rows), (0, 3));
        // One pass per summary and per joint key, on either side.
        assert_eq!(t.stats_builds.load(Ordering::Relaxed), 6);
    }
}
