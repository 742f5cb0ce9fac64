//! The storage engine: catalog + data, with constraint enforcement.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gbj_catalog::{Catalog, Constraint, Domain, TableDef, ViewDef};
use gbj_expr::Expr;
use gbj_types::{internal_err, DataType, Error, Field, GroupKey, Result, Schema, Truth, Value};

use crate::columnar::{ColumnVector, ColumnarBatch};
use crate::fault::FaultInjector;
use crate::split::ScanSplit;
use crate::table::{Counters, Row, Table, BLOCK_ROWS};

/// The in-memory database: a [`Catalog`] plus one [`Table`] of data per
/// base table, with every declared constraint enforced on insert.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    catalog: Catalog,
    data: BTreeMap<String, Table>,
    /// Monotone data/schema version: bumped after every successful
    /// mutation (DDL or DML). A clone carries the epoch it was taken
    /// at, so the serving layer can tag each snapshot and invalidate
    /// bound-plan caches when the underlying database moves on.
    epoch: u64,
    /// Optional read-path fault injection (testing only; `None` in
    /// normal operation).
    fault: Option<FaultInjector>,
    /// Declared hash-partition keys per table (lower-cased name →
    /// column ordinals), consulted when a plan runs over several shards
    /// to decide which scans start out co-partitioned. Purely a physical-layout
    /// declaration: it never changes query results, so declaring one
    /// does not bump the epoch.
    partition_keys: BTreeMap<String, Vec<usize>>,
    /// What statistics passes and copy-on-write cost any table — shared
    /// with every clone of this storage, because they share the cells
    /// the passes fill (see [`Storage::stats_builds`]).
    counters: Arc<Counters>,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Storage {
    /// An empty database.
    #[must_use]
    pub fn new() -> Storage {
        Storage::default()
    }

    /// The catalog (read-only; mutate through the `create_*` methods so
    /// data structures stay in sync).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current data/schema epoch. Strictly increases across
    /// successful mutations; unchanged by reads and by failed
    /// mutations that left the data untouched. (A partially-applied
    /// `insert_many` *does* advance it — the committed prefix is real.)
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Create a base table: registers the definition and initialises
    /// the data container with its key indexes.
    pub fn create_table(&mut self, def: TableDef) -> Result<()> {
        let def = def.validate()?;
        let name = def.name.clone();
        // Build the data table first (so we fail before touching the
        // catalog on errors).
        let schema = def.schema(&name);
        let mut table = Table::new(schema);
        table.count_in(&self.counters);
        for cons in &def.constraints {
            match cons {
                Constraint::PrimaryKey(cols) => {
                    table.add_key_index(self.ordinals(&def, cols)?, false);
                }
                Constraint::Unique(cols) => {
                    table.add_key_index(self.ordinals(&def, cols)?, true);
                }
                _ => {}
            }
        }
        self.catalog.create_table(def)?;
        self.data.insert(key(&name), table);
        self.bump_epoch();
        Ok(())
    }

    fn ordinals(&self, def: &TableDef, cols: &[String]) -> Result<Vec<usize>> {
        cols.iter()
            .map(|c| {
                def.column(c)
                    .map(|(i, _)| i)
                    .ok_or_else(|| Error::Catalog(format!("unknown column {c}")))
            })
            .collect()
    }

    /// Create a domain.
    pub fn create_domain(&mut self, domain: Domain) -> Result<()> {
        self.catalog.create_domain(domain)?;
        self.bump_epoch();
        Ok(())
    }

    /// Create a view.
    pub fn create_view(&mut self, view: ViewDef) -> Result<()> {
        self.catalog.create_view(view)?;
        self.bump_epoch();
        Ok(())
    }

    /// Create an assertion. Assertions are trusted invariants used by
    /// the optimizer's Theorem-3 reasoning; cross-table assertions are
    /// not re-validated on inserts (documented limitation).
    pub fn create_assertion(&mut self, assertion: gbj_catalog::Assertion) -> Result<()> {
        self.catalog.create_assertion(assertion)?;
        self.bump_epoch();
        Ok(())
    }

    /// Drop a view.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        self.catalog.drop_view(name)?;
        self.bump_epoch();
        Ok(())
    }

    /// Drop a table and its data.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.catalog.drop_table(name)?;
        self.data.remove(&key(name));
        self.bump_epoch();
        Ok(())
    }

    /// The stored data of a table.
    #[must_use]
    pub fn table_data(&self, name: &str) -> Option<&Table> {
        self.data.get(&key(name))
    }

    /// How many passes over stored rows have built statistics
    /// ([`Table::stats`] summaries and [`Table::joint_ndv`] sketches),
    /// counted across this storage and all its clones. A table version
    /// is folded once however many snapshots plan against it, so the
    /// count stays flat while cached plans re-run and moves by the
    /// written table alone after a write.
    #[must_use]
    pub fn stats_builds(&self) -> u64 {
        self.counters.stats_builds.load(Ordering::Relaxed)
    }

    /// How many stored rows those passes, and the fold of each block
    /// as it seals, have read — counted like
    /// [`Storage::stats_builds`]. A table's sealed blocks are folded
    /// once, by the write that fills them, so an `INSERT` makes the
    /// next plan read the tail block of the written table and nothing
    /// else, whatever the table holds; only DELETE and UPDATE, which
    /// re-pack the blocks, fold a table again.
    #[must_use]
    pub fn stats_rows_read(&self) -> u64 {
        self.counters.stats_rows.load(Ordering::Relaxed)
    }

    /// How many key-index entries writes have copied because a clone of
    /// this storage (a snapshot, a fork) still shared the set they
    /// were inserted into — counted like [`Storage::stats_builds`].
    /// Sets are bounded, so the count per inserted row does not grow
    /// with the table.
    #[must_use]
    pub fn index_entries_copied(&self) -> u64 {
        self.counters.keys_copied.load(Ordering::Relaxed)
    }

    /// How many splits of sealed blocks over several parts scans have
    /// made ([`ScanCursor::next_split`]) — counted like
    /// [`Storage::stats_builds`]. A block's split is made once per
    /// partition key and part count and kept; a scan that asks again
    /// at the same ones makes none.
    #[must_use]
    pub fn blocks_split(&self) -> u64 {
        self.counters.blocks_split.load(Ordering::Relaxed)
    }

    /// Declare that `table` is hash-partitioned on `cols` for sharded
    /// execution. The declaration is physical layout only — it never
    /// changes query results — and routes rows with
    /// [`gbj_types::GroupKey::shard`], the fixed-seed
    /// [`gbj_types::stream_hash`] this storage's key index and sketches
    /// also hash with, so `=ⁿ` semantics apply: NULL keys hash through
    /// the `Null` tag and land on one fixed part instead of spraying.
    pub fn declare_partition_key(&mut self, table: &str, cols: &[&str]) -> Result<()> {
        let def = self
            .catalog
            .table(table)
            .ok_or_else(|| Error::Catalog(format!("unknown table {table}")))?;
        if cols.is_empty() {
            return Err(Error::Catalog(format!(
                "partition key for {table} must name at least one column"
            )));
        }
        let ords = cols
            .iter()
            .map(|c| {
                def.column(c)
                    .map(|(i, _)| i)
                    .ok_or_else(|| Error::Catalog(format!("unknown column {c} in {table}")))
            })
            .collect::<Result<Vec<usize>>>()?;
        self.partition_keys.insert(key(table), ords);
        Ok(())
    }

    /// The declared hash-partition key of a table, as column ordinals.
    #[must_use]
    pub fn partition_key(&self, table: &str) -> Option<&[usize]> {
        self.partition_keys.get(&key(table)).map(Vec::as_slice)
    }

    /// Install (or with `None`, remove) a read-path fault injector.
    /// Scans opened through [`Storage::open_scan`] consult it.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.fault = injector;
    }

    /// The installed fault injector, if any.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Open a batched scan cursor over a table. This is the executor's
    /// read path: it honours the installed [`FaultInjector`] (short
    /// batches, injected batch failures, NULL flips on nullable
    /// columns), while [`Storage::table_data`] stays a faithful view of
    /// the stored bytes.
    pub fn open_scan(&self, name: &str) -> Result<ScanCursor<'_>> {
        let table = self
            .data
            .get(&key(name))
            .ok_or_else(|| Error::Catalog(format!("unknown table {name} at execution time")))?;
        let nullable: Vec<bool> = table.schema().fields().iter().map(|f| f.nullable).collect();
        let batch_size = self
            .fault
            .as_ref()
            .and_then(FaultInjector::batch_size)
            .unwrap_or(BLOCK_ROWS);
        Ok(ScanCursor {
            name: key(name),
            table,
            injector: self.fault.as_ref(),
            nullable,
            pos: 0,
            batch_size,
        })
    }
}

/// A batched cursor over one table's rows, produced by
/// [`Storage::open_scan`]. The executor drains it with
/// [`ScanCursor::next_columnar`] (the chunk pipeline) or
/// [`ScanCursor::next_batch`] (the row engine), giving fault injection
/// a real seam and the resource guard a cooperative cancellation point
/// between batches. A batch is one stored block unless an injector or
/// [`ScanCursor::with_batch_size`] says otherwise.
#[derive(Debug)]
pub struct ScanCursor<'a> {
    name: String,
    table: &'a Table,
    injector: Option<&'a FaultInjector>,
    nullable: Vec<bool>,
    pos: usize,
    batch_size: usize,
}

impl ScanCursor<'_> {
    /// Override the rows-per-batch size, e.g. to align scan batches
    /// with the executor's morsel size so downstream parallel operators
    /// consume whole batches as morsels. An installed fault injector's
    /// batch-size override always wins — short-batch faults must stay
    /// observable — and the size is clamped to at least one row so the
    /// cursor always makes progress.
    #[must_use]
    pub fn with_batch_size(mut self, rows_per_batch: usize) -> Self {
        if self.injector.and_then(FaultInjector::batch_size).is_none() {
            self.batch_size = rows_per_batch.max(1);
        }
        self
    }

    /// Total rows in the underlying table (for pre-sizing).
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.table.len()
    }

    /// The scan's output arity.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.nullable.len()
    }

    /// Per-column nullability of the scanned table, in schema order —
    /// which output columns can ever carry NULL (and hence need real
    /// validity bitmaps when batches are converted to columnar form).
    #[must_use]
    pub fn nullable(&self) -> &[bool] {
        &self.nullable
    }

    /// The next batch as rows, `None` once exhausted: the row *view*
    /// of [`ScanCursor::next_columnar`] — the same batch, with the same
    /// injected faults, read back through one typed reader per column
    /// ([`ColumnarBatch::to_rows`]) — for the row engine, which is the
    /// oracle of every other path.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Vec<Value>>>> {
        Ok(self.next_columnar()?.map(|batch| batch.to_rows()))
    }

    /// The next batch in columnar form, `None` once exhausted.
    ///
    /// With no injector and the default batch size a batch *is* one
    /// stored block per column: `Int64`/`Float64`/`Boolean` columns are
    /// shared with the table (an `Arc` clone, no per-row work), `Utf8`
    /// columns are the block's `u32` codes under the column's
    /// dictionary ([`ColumnVector::Dict`]) — the same `Arc<StringDict>`
    /// in every batch of the scan, so `=ⁿ` group keys can hash on
    /// codes; NULL is the reserved [`NULL_CODE`](crate::NULL_CODE),
    /// which never collides with a real code.
    ///
    /// With a fault injector installed this is where faults land: the
    /// globally-Nth batch returns `Error::Execution`, batches are cut
    /// to the injected size, and nullable cells flip to NULL keyed by
    /// `(seed, table, row_id, column)` so every plan shape observes
    /// identical data.
    pub fn next_columnar(&mut self) -> Result<Option<ColumnarBatch>> {
        match self.claim()? {
            Some((start, end)) => self.batch(start, end).map(Some),
            None => Ok(None),
        }
    }

    /// The next batch split over `n` parts by the partition key `key`
    /// (by row ordinal when `None`), `None` once exhausted: the batch
    /// [`ScanCursor::next_columnar`] would hand out — claimed the same
    /// way, faults and all — with each part's rows copied, in position
    /// order, into one dense batch of every column ([`ScanSplit`]). A
    /// batch that is exactly a sealed block, uncut and unflipped, is
    /// served the split the table keeps beside the block, made on the
    /// first scan that asked for it; any other batch is split now.
    pub fn next_split(
        &mut self,
        key: Option<&[usize]>,
        n: usize,
    ) -> Result<Option<Arc<ScanSplit>>> {
        let Some((start, end)) = self.claim()? else {
            return Ok(None);
        };
        let whole_block = start.is_multiple_of(BLOCK_ROWS) && end - start == BLOCK_ROWS;
        let flipped = (0..self.nullable.len()).any(|c| self.flips(c).is_some());
        if whole_block && !flipped {
            if let Some(split) = self.table.sealed_split(start / BLOCK_ROWS, key, n) {
                return split.map(Some);
            }
        }
        let batch = self.batch(start, end)?;
        ScanSplit::of(&batch, start, key, n).map(|split| Some(Arc::new(split)))
    }

    /// Claim the next batch's rows, `start..end`: the injector's batch
    /// failure lands here, before any row is read.
    fn claim(&mut self) -> Result<Option<(usize, usize)>> {
        let len = self.table.len();
        if self.pos >= len {
            return Ok(None);
        }
        if let Some(inj) = self.injector {
            if let Err(ordinal) = inj.claim_batch() {
                return Err(Error::Execution(format!(
                    "injected fault: scan batch {ordinal} of table {} failed",
                    self.name
                )));
            }
        }
        let (start, end) = (self.pos, self.pos.saturating_add(self.batch_size).min(len));
        self.pos = end;
        Ok(Some((start, end)))
    }

    /// Rows `start..end` of every column, as one batch.
    fn batch(&self, start: usize, end: usize) -> Result<ColumnarBatch> {
        let columns = (0..self.nullable.len())
            .map(|c| self.column(c, start, end))
            .collect::<Result<Vec<_>>>()?;
        ColumnarBatch::from_columns(columns, end - start)
    }

    /// The injector that flips cells of column `c` to NULL, if any.
    fn flips(&self, c: usize) -> Option<&FaultInjector> {
        self.injector.filter(|inj| {
            inj.config().null_flip_one_in.is_some() && self.nullable.get(c) == Some(&true)
        })
    }

    /// Rows `start..end` of column `c`: the stored block itself when
    /// the range is exactly one and nothing is injected into it, else a
    /// copy cut from the blocks it spans, with the NULL flips applied —
    /// the one place a flip is decided (and counted), for both cursor
    /// forms.
    fn column(&self, c: usize, start: usize, end: usize) -> Result<Arc<ColumnVector>> {
        let block = |b: usize| {
            let block = self.table.block(c, b);
            block.ok_or_else(|| internal_err!("{} has no block {b} of column {c}", self.name))
        };
        let flips = self.flips(c);
        let first = block(start / BLOCK_ROWS)?;
        if flips.is_none() && start.is_multiple_of(BLOCK_ROWS) && end - start == first.len() {
            return Ok(first);
        }
        // An empty vector of the block's variant (and dictionary),
        // filled cell by cell from each block the range spans.
        let mut out = first.gather(&[]);
        let mut at = start;
        while at < end {
            let block = block(at / BLOCK_ROWS)?;
            let piece = (BLOCK_ROWS - at % BLOCK_ROWS).min(end - at);
            for i in at..at + piece {
                let flip =
                    flips.is_some_and(|inj| inj.flips_to_null(&self.name, self.table.row_id(i), c));
                let cell = if flip {
                    Value::Null
                } else {
                    block.value(i % BLOCK_ROWS)
                };
                out.push(&cell);
            }
            at += piece;
        }
        Ok(Arc::new(out))
    }
}

impl Storage {
    /// Validate types, NOT NULL, column/domain CHECKs and table CHECKs
    /// for one row, returning the (Int→Float coerced) values. Key and
    /// foreign-key checks are separate (they depend on table state).
    fn validate_row(def: &TableDef, schema: &Schema, values: Vec<Value>) -> Result<Vec<Value>> {
        if values.len() != def.columns.len() {
            return Err(Error::Constraint(format!(
                "table {} expects {} values, got {}",
                def.name,
                def.columns.len(),
                values.len()
            )));
        }

        // Per-column checks: type, NOT NULL, CHECK.
        let mut coerced = values;
        for (col, v) in def.columns.iter().zip(coerced.iter_mut()) {
            if v.is_null() {
                if !col.nullable {
                    return Err(Error::Constraint(format!(
                        "NULL in NOT NULL column {}.{}",
                        def.name, col.name
                    )));
                }
                continue;
            }
            // Type check with Int→Float coercion.
            match (v.data_type(), col.data_type) {
                (Some(t), ct) if t == ct => {}
                (Some(DataType::Int64), DataType::Float64) => {
                    if let Value::Int(i) = *v {
                        *v = Value::Float(i as f64);
                    }
                }
                (Some(t), ct) => {
                    return Err(Error::Constraint(format!(
                        "type mismatch for column {}.{}: expected {ct}, got {t}",
                        def.name, col.name
                    )));
                }
                (None, _) => {
                    return Err(Error::Internal("non-null value without a type".to_string()))
                }
            }
            // Column + domain CHECKs over the single value, exposed both
            // under the column's own name and the DOMAIN pseudo-column
            // VALUE. SQL2 check semantics: violated only when *false*.
            for check in &col.checks {
                let schema = Schema::new(vec![
                    Field::new(col.name.clone(), col.data_type, true),
                    Field::new("VALUE", col.data_type, true),
                ]);
                let row = vec![v.clone(), v.clone()];
                if check.eval_truth(&row, &schema)? == Truth::False {
                    return Err(Error::Constraint(format!(
                        "CHECK {check} violated by column {}.{} value {v}",
                        def.name, col.name
                    )));
                }
            }
        }

        // Table-level CHECK constraints, over the whole row.
        for cons in &def.constraints {
            if let Constraint::Check { name, expr } = cons {
                if expr.eval_truth(&coerced, schema)? == Truth::False {
                    let label = name.clone().unwrap_or_else(|| expr.to_string());
                    return Err(Error::Constraint(format!(
                        "table CHECK {label} violated on {}",
                        def.name
                    )));
                }
            }
        }

        Ok(coerced)
    }

    /// Check the outgoing foreign keys of one (validated) row: any NULL
    /// component passes; otherwise the combo must exist under the
    /// referenced key.
    fn check_outgoing_fks(&mut self, def: &TableDef, coerced: &[Value]) -> Result<()> {
        for cons in &def.constraints {
            let Constraint::ForeignKey {
                columns,
                ref_table,
                ref_columns,
            } = cons
            else {
                continue;
            };
            let fk_ords = self.ordinals(def, columns)?;
            let fk_vals: Vec<Value> = fk_ords
                .iter()
                .map(|&i| coerced.get(i).cloned().unwrap_or(Value::Null))
                .collect();
            if fk_vals.iter().any(Value::is_null) {
                continue;
            }
            let ref_def = self
                .catalog
                .table(ref_table)
                .ok_or_else(|| Error::Catalog(format!("unknown table {ref_table}")))?
                .clone();
            let ref_cols: Vec<String> = if ref_columns.is_empty() {
                ref_def
                    .primary_key()
                    .ok_or_else(|| {
                        Error::Catalog(format!(
                            "foreign key references {ref_table} which has no primary key"
                        ))
                    })?
                    .to_vec()
            } else {
                ref_columns.clone()
            };
            let ref_ords = self.ordinals(&ref_def, &ref_cols)?;
            let ref_data = self
                .data
                .get_mut(&key(ref_table))
                .ok_or_else(|| Error::Internal(format!("missing data for {ref_table}")))?;
            if !ref_data.contains_key_value(&ref_ords, &fk_vals) {
                return Err(Error::Constraint(format!(
                    "foreign key violation: {}({}) -> {ref_table}({}) value {:?} not found",
                    def.name,
                    columns.join(","),
                    ref_cols.join(","),
                    fk_vals
                )));
            }
        }
        Ok(())
    }

    /// Insert one row, enforcing NOT NULL, CHECK (column, domain and
    /// table level), key and foreign-key constraints. Returns the
    /// assigned RowID.
    pub fn insert(&mut self, table_name: &str, values: Vec<Value>) -> Result<u64> {
        let def = self.table_def(table_name)?;
        self.insert_into(&def, &key(&def.name), values)
    }

    /// A copy of a table's definition, to validate rows against while
    /// the data is being mutated.
    fn table_def(&self, table_name: &str) -> Result<TableDef> {
        self.catalog
            .table(table_name)
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("unknown table {table_name}")))
    }

    /// The stored data of the table `def` describes.
    fn table_of(&self, def: &TableDef) -> Result<&Table> {
        let table = self.data.get(&key(&def.name));
        table.ok_or_else(|| Error::Internal(format!("missing data for {}", def.name)))
    }

    /// [`Storage::table_of`], to mutate.
    fn table_mut_of(&mut self, def: &TableDef) -> Result<&mut Table> {
        let table = self.data.get_mut(&key(&def.name));
        table.ok_or_else(|| Error::Internal(format!("missing data for {}", def.name)))
    }

    /// [`Storage::insert`] into the table `def` describes, stored
    /// under `name`.
    fn insert_into(&mut self, def: &TableDef, name: &str, values: Vec<Value>) -> Result<u64> {
        let missing = || Error::Internal(format!("missing data for {}", def.name));
        let table = self.data.get(name).ok_or_else(missing)?;
        let coerced = Self::validate_row(def, table.schema(), values)?;
        // Key constraints against the current contents.
        table.check_keys(&coerced)?;
        self.check_outgoing_fks(def, &coerced)?;
        let table = self.data.get_mut(name).ok_or_else(missing)?;
        let id = table.push(&coerced)?;
        self.bump_epoch();
        Ok(id)
    }

    /// Evaluate a predicate against one row of a table (WHERE-clause
    /// semantics: rows qualify only when the predicate is *true*).
    fn row_matches(schema: &Schema, predicate: Option<&Expr>, row: &[Value]) -> Result<bool> {
        match predicate {
            None => Ok(true),
            Some(p) => Ok(p.eval_truth(row, schema)? == Truth::True),
        }
    }

    /// Incoming referential-integrity check (RESTRICT semantics): every
    /// non-NULL foreign-key combo in every referencing table must still
    /// resolve against `final_rows` of `def`'s table.
    fn check_incoming_fks(&self, def: &TableDef, final_rows: &[Row]) -> Result<()> {
        let referencing: Vec<TableDef> = self
            .catalog
            .tables()
            .filter(|t| {
                t.foreign_keys().any(|fk| {
                    matches!(fk, Constraint::ForeignKey { ref_table, .. }
                        if ref_table.eq_ignore_ascii_case(&def.name))
                })
            })
            .cloned()
            .collect();
        for other in referencing {
            for fk in other.foreign_keys() {
                let Constraint::ForeignKey {
                    columns,
                    ref_table,
                    ref_columns,
                } = fk
                else {
                    continue;
                };
                if !ref_table.eq_ignore_ascii_case(&def.name) {
                    continue;
                }
                let ref_cols: Vec<String> = if ref_columns.is_empty() {
                    def.primary_key()
                        .ok_or_else(|| {
                            Error::Catalog(format!(
                                "foreign key references {} which has no primary key",
                                def.name
                            ))
                        })?
                        .to_vec()
                } else {
                    ref_columns.clone()
                };
                let ref_ords = self.ordinals(def, &ref_cols)?;
                let remaining: std::collections::HashSet<GroupKey> = final_rows
                    .iter()
                    .filter_map(|row| {
                        let vals: Vec<Value> = ref_ords
                            .iter()
                            .map(|&i| row.values.get(i).cloned().unwrap_or(Value::Null))
                            .collect();
                        (!vals.iter().any(Value::is_null)).then_some(GroupKey(vals))
                    })
                    .collect();
                let fk_ords = self.ordinals(&other, columns)?;
                let other_data = self.table_of(&other)?;
                for vals in other_data.project(&fk_ords) {
                    if vals.iter().any(Value::is_null) {
                        continue;
                    }
                    let key = GroupKey(vals);
                    if !remaining.contains(&key) {
                        return Err(Error::Constraint(format!(
                            "cannot modify {}: row {:?} of {} still references it",
                            def.name, key.0, other.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Delete the rows matching `predicate` (all rows when `None`),
    /// enforcing incoming foreign keys with RESTRICT semantics. Returns
    /// the number of rows deleted.
    pub fn delete(&mut self, table_name: &str, predicate: Option<&Expr>) -> Result<usize> {
        let def = self.table_def(table_name)?;
        let schema = def.schema(&def.name);
        let table = self.table_of(&def)?;
        let mut kept = Vec::new();
        let mut deleted = 0usize;
        for row in table.rows() {
            if Self::row_matches(&schema, predicate, &row.values)? {
                deleted += 1;
            } else {
                kept.push(row);
            }
        }
        if deleted == 0 {
            return Ok(0);
        }
        self.check_incoming_fks(&def, &kept)?;
        self.table_mut_of(&def)?.replace_rows(kept)?;
        self.bump_epoch();
        Ok(deleted)
    }

    /// Update the rows matching `predicate`, applying `assignments`
    /// (column name, expression over the old row). Re-validates every
    /// constraint class on the final state: types, NOT NULL, CHECKs,
    /// keys, and both directions of referential integrity. Returns the
    /// number of rows updated.
    pub fn update(
        &mut self,
        table_name: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<usize> {
        let def = self.table_def(table_name)?;
        let schema = def.schema(&def.name);
        let assign_ords: Vec<(usize, &Expr)> = assignments
            .iter()
            .map(|(col, e)| {
                def.column(col)
                    .map(|(i, _)| (i, e))
                    .ok_or_else(|| Error::Bind(format!("unknown column {col} in UPDATE")))
            })
            .collect::<Result<_>>()?;

        let table = self.table_of(&def)?;
        let mut final_rows = Vec::with_capacity(table.len());
        let mut updated = 0usize;
        for row in table.rows() {
            if Self::row_matches(&schema, predicate, &row.values)? {
                let mut new_values = row.values.clone();
                for (i, e) in &assign_ords {
                    let slot = new_values.get_mut(*i).ok_or_else(|| {
                        Error::Internal(format!("assignment ordinal {i} out of range"))
                    })?;
                    *slot = e.eval(&row.values, &schema)?;
                }
                let validated = Self::validate_row(&def, &schema, new_values)?;
                final_rows.push(Row {
                    row_id: row.row_id,
                    values: validated,
                });
                updated += 1;
            } else {
                final_rows.push(row);
            }
        }
        if updated == 0 {
            return Ok(0);
        }
        // Keys over the final multiset.
        self.table_of(&def)?.check_keys_over(&final_rows)?;
        // Outgoing FKs for the new values.
        for row in &final_rows {
            self.check_outgoing_fks(&def, &row.values)?;
        }
        // Incoming FKs against the final state.
        self.check_incoming_fks(&def, &final_rows)?;
        self.table_mut_of(&def)?.replace_rows(final_rows)?;
        self.bump_epoch();
        Ok(updated)
    }

    /// Insert several rows, stopping on the first constraint violation.
    /// The table definition and its storage key are looked up (and
    /// copied) once for the statement, not per row; no rows, no lookup.
    pub fn insert_many(
        &mut self,
        table_name: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize> {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return Ok(0);
        }
        let def = self.table_def(table_name)?;
        let name = key(&def.name);
        let mut n = 0;
        for row in rows {
            self.insert_into(&def, &name, row)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_catalog::ColumnDef;
    use gbj_expr::{BinaryOp, Expr};

    fn dept_def() -> TableDef {
        TableDef::new(
            "Department",
            vec![
                ColumnDef::new("DeptID", DataType::Int64),
                ColumnDef::new("Name", DataType::Utf8),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec!["DeptID".into()]))
    }

    fn emp_def() -> TableDef {
        TableDef::new(
            "Employee",
            vec![
                ColumnDef::new("EmpID", DataType::Int64)
                    .with_check(Expr::bare("EmpID").binary(BinaryOp::Gt, Expr::lit(0i64))),
                ColumnDef::new("LastName", DataType::Utf8).not_null(),
                ColumnDef::new("DeptID", DataType::Int64),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec!["EmpID".into()]))
        .with_constraint(Constraint::ForeignKey {
            columns: vec!["DeptID".into()],
            ref_table: "Department".into(),
            ref_columns: vec![],
        })
    }

    fn setup() -> Storage {
        let mut s = Storage::new();
        s.create_table(dept_def()).unwrap();
        s.create_table(emp_def()).unwrap();
        s.insert("Department", vec![Value::Int(1), Value::str("R&D")])
            .unwrap();
        s
    }

    #[test]
    fn epoch_advances_only_on_successful_mutation() {
        let mut s = Storage::new();
        assert_eq!(s.epoch(), 0);
        s.create_table(dept_def()).unwrap();
        let e1 = s.epoch();
        assert!(e1 > 0, "DDL bumps the epoch");
        s.insert("Department", vec![Value::Int(1), Value::str("R&D")])
            .unwrap();
        let e2 = s.epoch();
        assert!(e2 > e1, "DML bumps the epoch");
        // Failed mutations leave the epoch (and data) untouched.
        assert!(s
            .insert("Department", vec![Value::Int(1), Value::str("dup")])
            .is_err());
        assert_eq!(s.epoch(), e2);
        assert!(s.insert("NoSuchTable", vec![Value::Int(1)]).is_err());
        assert_eq!(s.epoch(), e2);
        // A no-op delete commits nothing and keeps the epoch.
        let deleted = s.delete("Department", Some(&Expr::lit(false))).unwrap();
        assert_eq!((deleted, s.epoch()), (0, e2));
        // Reads never move it.
        let _ = s.table_data("Department");
        let mut cur = s.open_scan("Department").unwrap();
        while cur.next_batch().unwrap().is_some() {}
        assert_eq!(s.epoch(), e2);
        // A clone carries the epoch it was taken at and diverges after.
        let snap = s.clone();
        s.delete("Department", None).unwrap();
        assert_eq!(snap.epoch(), e2);
        assert!(s.epoch() > e2);
        assert_eq!(snap.table_data("Department").map(Table::len), Some(1));
        assert_eq!(s.table_data("Department").map(Table::len), Some(0));
    }

    #[test]
    fn basic_insert_and_read() {
        let mut s = setup();
        let id = s
            .insert(
                "Employee",
                vec![Value::Int(10), Value::str("Yan"), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(id, 0);
        let t = s.table_data("employee").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows().next().unwrap().values[1], Value::str("Yan"));
    }

    #[test]
    fn with_batch_size_overrides_unless_injector_pins_it() {
        let mut s = setup();
        for i in 0..10 {
            s.insert(
                "Employee",
                vec![Value::Int(i + 1), Value::str("E"), Value::Int(1)],
            )
            .unwrap();
        }
        // Morsel-aligned batching: 10 rows at 3 per batch → 4 batches.
        let mut cursor = s.open_scan("Employee").unwrap().with_batch_size(3);
        let mut batches = 0;
        let mut rows = 0;
        while let Some(b) = cursor.next_batch().unwrap() {
            batches += 1;
            rows += b.len();
        }
        assert_eq!((batches, rows), (4, 10));
        // Zero is clamped so the cursor still makes progress.
        let mut cursor = s.open_scan("Employee").unwrap().with_batch_size(0);
        assert_eq!(cursor.next_batch().unwrap().unwrap().len(), 1);
        // An injector's short-batch override wins over the caller's.
        s.set_fault_injector(Some(crate::FaultInjector::new(crate::FaultConfig {
            batch_size: Some(2),
            ..crate::FaultConfig::default()
        })));
        let mut cursor = s.open_scan("Employee").unwrap().with_batch_size(5);
        assert_eq!(cursor.next_batch().unwrap().unwrap().len(), 2);
    }

    #[test]
    fn cursor_reports_per_column_nullability() {
        let s = setup();
        let cursor = s.open_scan("Employee").unwrap();
        // EmpID is a primary-key column and LastName is NOT NULL; only
        // DeptID can carry NULL.
        assert_eq!(cursor.nullable(), &[false, false, true]);
        assert_eq!(cursor.nullable().len(), cursor.arity());
    }

    #[test]
    fn not_null_enforced() {
        let mut s = setup();
        let err = s
            .insert("Employee", vec![Value::Int(10), Value::Null, Value::Int(1)])
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        assert!(err.message().contains("LastName"));
    }

    #[test]
    fn primary_key_uniqueness_enforced() {
        let mut s = setup();
        s.insert(
            "Employee",
            vec![Value::Int(10), Value::str("Yan"), Value::Int(1)],
        )
        .unwrap();
        let err = s
            .insert(
                "Employee",
                vec![Value::Int(10), Value::str("Larson"), Value::Int(1)],
            )
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn null_pk_rejected() {
        let mut s = setup();
        let err = s
            .insert(
                "Employee",
                vec![Value::Null, Value::str("Yan"), Value::Int(1)],
            )
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn check_constraint_enforced_with_ceil_semantics() {
        let mut s = setup();
        // EmpID > 0 violated.
        let err = s
            .insert(
                "Employee",
                vec![Value::Int(-1), Value::str("Yan"), Value::Int(1)],
            )
            .unwrap_err();
        assert!(err.message().contains("CHECK"));
        // NULL DeptID makes the FK vacuous; checks on EmpID still run.
        s.insert(
            "Employee",
            vec![Value::Int(5), Value::str("Yan"), Value::Null],
        )
        .unwrap();
    }

    #[test]
    fn foreign_key_enforced_and_null_passes() {
        let mut s = setup();
        let err = s
            .insert(
                "Employee",
                vec![Value::Int(10), Value::str("Yan"), Value::Int(99)],
            )
            .unwrap_err();
        assert!(err.message().contains("foreign key violation"));
        // NULL FK is fine ("must either be NULL or match").
        s.insert(
            "Employee",
            vec![Value::Int(10), Value::str("Yan"), Value::Null],
        )
        .unwrap();
    }

    #[test]
    fn type_mismatch_rejected_and_int_coerces_to_float() {
        let mut s = Storage::new();
        s.create_table(TableDef::new(
            "M",
            vec![
                ColumnDef::new("f", DataType::Float64),
                ColumnDef::new("s", DataType::Utf8),
            ],
        ))
        .unwrap();
        s.insert("M", vec![Value::Int(3), Value::str("ok")])
            .unwrap();
        assert_eq!(
            s.table_data("M").unwrap().rows().next().unwrap().values[0],
            Value::Float(3.0)
        );
        let err = s
            .insert("M", vec![Value::str("no"), Value::str("x")])
            .unwrap_err();
        assert!(err.message().contains("type mismatch"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut s = setup();
        assert!(s.insert("Employee", vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn domain_style_value_check() {
        // CREATE DOMAIN DepIdType CHECK (VALUE > 0 AND VALUE < 100):
        // the DDL layer copies the check onto the column with the VALUE
        // pseudo-column; storage resolves it against the value itself.
        let mut s = Storage::new();
        let check = Expr::bare("VALUE")
            .binary(BinaryOp::Gt, Expr::lit(0i64))
            .and(Expr::bare("VALUE").binary(BinaryOp::Lt, Expr::lit(100i64)));
        s.create_table(TableDef::new(
            "T",
            vec![ColumnDef::new("DeptID", DataType::Int64).with_check(check)],
        ))
        .unwrap();
        s.insert("T", vec![Value::Int(50)]).unwrap();
        assert!(s.insert("T", vec![Value::Int(100)]).is_err());
        assert!(s.insert("T", vec![Value::Int(0)]).is_err());
        // NULL passes a CHECK (unknown is not false).
        s.insert("T", vec![Value::Null]).unwrap();
    }

    #[test]
    fn table_level_check() {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "Range",
                vec![
                    ColumnDef::new("lo", DataType::Int64),
                    ColumnDef::new("hi", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::Check {
                name: Some("lo_le_hi".into()),
                expr: Expr::bare("lo").binary(BinaryOp::LtEq, Expr::bare("hi")),
            }),
        )
        .unwrap();
        s.insert("Range", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let err = s
            .insert("Range", vec![Value::Int(3), Value::Int(2)])
            .unwrap_err();
        assert!(err.message().contains("lo_le_hi"));
        // Unknown passes.
        s.insert("Range", vec![Value::Null, Value::Int(2)]).unwrap();
    }

    #[test]
    fn unique_allows_duplicate_nulls() {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "U",
                vec![
                    ColumnDef::new("id", DataType::Int64),
                    ColumnDef::new("sid", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["id".into()]))
            .with_constraint(Constraint::Unique(vec!["sid".into()])),
        )
        .unwrap();
        s.insert("U", vec![Value::Int(1), Value::Null]).unwrap();
        s.insert("U", vec![Value::Int(2), Value::Null]).unwrap();
        s.insert("U", vec![Value::Int(3), Value::Int(7)]).unwrap();
        assert!(s.insert("U", vec![Value::Int(4), Value::Int(7)]).is_err());
    }

    #[test]
    fn insert_many_counts_and_stops_on_error() {
        let mut s = setup();
        let rows = vec![
            vec![Value::Int(1), Value::str("a"), Value::Int(1)],
            vec![Value::Int(2), Value::str("b"), Value::Int(1)],
            vec![Value::Int(1), Value::str("dup"), Value::Int(1)],
        ];
        let err = s.insert_many("Employee", rows).unwrap_err();
        assert_eq!(err.kind(), "constraint");
        assert_eq!(s.table_data("Employee").unwrap().len(), 2);
    }

    #[test]
    fn drop_table_removes_data() {
        let mut s = setup();
        s.drop_table("Employee").unwrap();
        assert!(s.table_data("Employee").is_none());
        assert!(s.catalog().table("Employee").is_none());
    }

    #[test]
    fn composite_foreign_key() {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "UserAccount",
                vec![
                    ColumnDef::new("UserId", DataType::Int64),
                    ColumnDef::new("Machine", DataType::Utf8),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec![
                "UserId".into(),
                "Machine".into(),
            ])),
        )
        .unwrap();
        s.create_table(
            TableDef::new(
                "PrinterAuth",
                vec![
                    ColumnDef::new("UserId", DataType::Int64),
                    ColumnDef::new("Machine", DataType::Utf8),
                    ColumnDef::new("PNo", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec![
                "UserId".into(),
                "Machine".into(),
                "PNo".into(),
            ]))
            .with_constraint(Constraint::ForeignKey {
                columns: vec!["UserId".into(), "Machine".into()],
                ref_table: "UserAccount".into(),
                ref_columns: vec![],
            }),
        )
        .unwrap();
        s.insert("UserAccount", vec![Value::Int(1), Value::str("dragon")])
            .unwrap();
        s.insert(
            "PrinterAuth",
            vec![Value::Int(1), Value::str("dragon"), Value::Int(7)],
        )
        .unwrap();
        assert!(s
            .insert(
                "PrinterAuth",
                vec![Value::Int(1), Value::str("tiger"), Value::Int(7)],
            )
            .is_err());
    }
}
