//! The chunk pipeline: end-to-end columnar execution with late
//! materialization, over one chunk stream per shard.
//!
//! When [`execution_path`](crate::execution_path) answers
//! [`ExecPath::Pipeline`](crate::ExecPath) — the *whole* plan passes
//! the gate — the executor runs this pipeline instead of the row
//! engine: the scan hands out the table's stored blocks as
//! [`ColumnarBatch`]es ([`gbj_storage::ScanCursor::next_columnar`] —
//! no row form, no per-row work), predicates are lowered once to their
//! two-valued `⌊P⌋` where the operator binds them and evaluated as
//! word-packed masks ([`crate::vectorized`]), filters and probe phases
//! carry row-id *selection vectors* over shared batches instead of
//! copying rows,
//! every operator that keys rows — group, join, `DISTINCT`, route —
//! reads them through one typed view ([`crate::key`]: raw `i64`s and
//! dictionary codes, the `=ⁿ` hash stream written from the column, a
//! [`Value`] built only when a key is decoded), aggregates accumulate
//! column-wise and drain as columns, the [`ResourceGuard`] is polled
//! once per chunk, and
//! payload columns materialize only where an operator needs them dense
//! — a hash join's build side, the probe columns a join with duplicate
//! build keys emits, a sort — or at the very end, when the result set
//! is assembled. A join over a unique build hands each probe window on
//! under a selection and gathers only the build columns above it.
//!
//! **Parts.** What flows between operators is [`Parts`]: one chunk
//! stream per shard, `n` = the shard count the path was admitted at.
//! [`Executor::run_chunks`] walks the plan together with
//! [`gbj_plan::distribute`]'s [`Distribution`] tree — the same tree the
//! optimizer's `plan_distribution` prices — so the pipeline *executes*
//! placement, it does not decide it. The scan hands each part dense
//! batches of its own rows (by the declared partition key, else
//! round-robin): storage splits every scan batch over the parts, in
//! position order and every column — a sealed block once, on the first
//! scan at that key and part count, kept beside the block
//! ([`gbj_storage::ScanCursor::next_split`]) — so a read routes no row;
//! every operator body then maps over parts on a team of
//! [`ExecOptions::threads`](crate::ExecOptions) members, the calling
//! thread one of them; and an input's [`Movement`] is one more breaker
//! in front of the operator: `Repartition` is an [`exchange`] on the
//! named key columns (under `=ⁿ`, so NULL keys share one part, while
//! join keys still compare under 3VL), `Gather` concentrates on part 0,
//! `Combine` — legal only under the FD1/FD2 certificate the engine sets
//! [`ExecOptions::combiner`](crate::ExecOptions::combiner) from — ships
//! one partial per group per origin instead of raw rows. Exchanges
//! meter `shipped_rows` / `shipped_bytes` and are timed as the moving
//! operator's `kernel_ns`; an input that moves materializes every
//! column, so the modelled wire size of a row never depends on late
//! materialization. One part is the degenerate case: nothing can move,
//! the part runs inline on the calling thread, and the operators carry
//! their single-shard names.
//!
//! **The row engine stays the oracle.** Every operator here reproduces
//! the row path's observable behaviour exactly:
//!
//! - *Results*: byte-identical rows — in the same order at one part, as
//!   the same multiset over several.
//! - *Errors*: the gate admits only plans whose expressions are in the
//!   error-free vectorizable domain (see [`crate::vectorized`]); at one
//!   part aggregate arguments may fall outside it because they are
//!   evaluated row-major, over several they may not, because per-part
//!   accumulation could reorder their errors. So the first error —
//!   fault-injected scan failures included, the scan being the same
//!   serial cursor at every part count — is the one the row engine
//!   would raise. Anything outside the gate takes the row engine
//!   wholesale; there is no per-operator mixing. Accumulator-state
//!   overflow (`SUM` crossing `i64::MAX` mid-stream) can differ from
//!   serial accumulation order over several parts; see DESIGN.md §15.
//!   Within a part the two-pass chunk fold
//!   raises the error at the smallest `(row, aggregate)` position
//!   ([`Groups::fold_chunk`]), which is the row fold's first.
//! - *Counters*: the `[rows_in, rows_out, batches, hash_entries]`
//!   fingerprint and the guard's row charges follow the row path
//!   call-for-call at every part count: totals are charged from logical
//!   input sizes, parts share one [`MetricsSink`] and their disjoint
//!   contributions (build rows, distinct groups) sum to the one-part
//!   numbers, and the combiner records the *merged* group count. Only
//!   the non-fingerprint `vectors`/`selected`/`kernel_ns` counters are
//!   specific to this path (the row engine reports 0), and the shipped
//!   counters scale with the part count — deterministically: identical
//!   across thread counts and repeated runs.

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use gbj_expr::{BoundExpr, Lowered, Operand};
use gbj_plan::{distribute, Distribution, EquiKey, LogicalPlan, Movement};
use gbj_types::{internal_err, Result, Value};

use crate::aggregate::{compile_aggregates, AggStates, ChunkArgs, CompiledAggregate, Groups};
use crate::batch::{Bitmap, ColumnVector, ColumnarBatch, StringDict};
use crate::exchange::{exchange, gather, ROW_FRAME_BYTES};
use crate::executor::{bind_sort_keys, input_batches, sort_rows, Executor};
use crate::guard::ResourceGuard;
use crate::join::bind_join;
use crate::key::{code_translation, KeyMap, KeyView, Nulls};
use crate::metrics::MetricsSink;
use crate::parallel::{collect_in_order, lock, run_morsels};
use crate::result::ProfileNode;
use crate::vectorized::{eval_value, lower_predicate, lower_value, select};

/// Rows a blocking operator works through between two polls of the
/// guard: a scan block's worth, so an operator over one concatenated
/// batch stays as promptly cancellable as one over a chunk stream.
const POLL_ROWS: usize = 1024;

/// A unit of the batch stream: a shared columnar batch plus an optional
/// selection vector. `sel: None` means every row is live; `Some(sel)`
/// restricts the chunk to the listed row ids, *in that order* — this is
/// how filters (and join residuals) avoid copying payload columns.
pub(crate) struct Chunk {
    /// The (possibly shared / oversized) columnar data.
    pub(crate) batch: ColumnarBatch,
    /// Live row ids into `batch`, in output order; `None` = all rows.
    pub(crate) sel: Option<Vec<u32>>,
}

impl Chunk {
    /// Number of live rows.
    pub(crate) fn out_len(&self) -> usize {
        self.sel.as_ref().map_or(self.batch.len(), Vec::len)
    }

    /// Iterate live row ids in output order.
    pub(crate) fn indices(&self) -> SelIter<'_> {
        match &self.sel {
            Some(sel) => SelIter::Sel(sel.iter()),
            None => SelIter::All(0..self.batch.len()),
        }
    }
}

/// Iterator over a chunk's live row ids.
#[derive(Clone)]
pub(crate) enum SelIter<'a> {
    All(std::ops::Range<usize>),
    Sel(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Sel(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelIter::All(r) => r.size_hint(),
            SelIter::Sel(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for SelIter<'_> {}

/// One chunk stream per shard: the unit that flows between operators.
/// One part is single-shard execution.
pub(crate) type Parts = Vec<Vec<Chunk>>;

/// Total live rows across a chunk stream.
fn stream_len(chunks: &[Chunk]) -> usize {
    chunks.iter().map(Chunk::out_len).sum()
}

/// Total live rows across all parts.
fn parts_len(parts: &Parts) -> usize {
    parts.iter().map(|chunks| stream_len(chunks)).sum()
}

/// Materialize chunks as rows (live rows only, in order).
pub(crate) fn chunk_rows<'a, I>(chunks: I) -> Vec<Vec<Value>>
where
    I: IntoIterator<Item = &'a Chunk>,
    I::IntoIter: Clone,
{
    let chunks = chunks.into_iter();
    let mut rows = Vec::with_capacity(chunks.clone().map(Chunk::out_len).sum());
    for ch in chunks {
        rows.extend(ch.indices().map(|i| ch.batch.row(i)));
    }
    rows
}

/// A sort's materialized output rows as a one-chunk stream.
fn rows_chunk(rows: &[Vec<Value>], arity: usize) -> Result<Vec<Chunk>> {
    let batch = ColumnarBatch::from_rows(rows, arity)?;
    Ok(vec![Chunk { batch, sel: None }])
}

/// `chunks` on part 0 of `n` — where a gather leaves its rows.
fn on_part_zero(chunks: Vec<Chunk>, n: usize) -> Parts {
    let mut parts = vec![chunks];
    parts.resize_with(n, Vec::new);
    parts
}

/// Run `f` over every part (its rows, or its shipped partials) and
/// collect the outputs in part order: inline on the calling thread for
/// one part, else one morsel per part on the thread team, with
/// deterministic lowest-part-first error selection.
fn map_parts<R, T, F>(threads: usize, parts: Vec<R>, f: &F) -> Result<Vec<T>>
where
    R: Send,
    T: Send,
    F: Fn(R) -> Result<T> + Sync,
{
    if parts.len() == 1 {
        return parts.into_iter().map(f).collect();
    }
    let cells: Vec<Mutex<Option<R>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    collect_in_order(run_morsels(cells.len(), threads, &|i| {
        let part = cells.get(i).and_then(|cell| lock(cell).take());
        f(part.ok_or_else(|| internal_err!("part {i} claimed twice or out of range"))?)
    }))
}

/// Input `i`'s movement and distribution. One part moves nothing.
fn input_of(dist: &Distribution, i: usize, n: usize) -> Result<(&Movement, &Distribution)> {
    let (movement, child) = dist
        .input(i)
        .ok_or_else(|| internal_err!("distribution tree lacks input {i}"))?;
    Ok((if n == 1 { &Movement::Stay } else { movement }, child))
}

/// Carry out a row movement in front of a per-part operator body,
/// metering what crosses part boundaries — and the time it takes — into
/// `sink`. Gathers and combiners belong to the operators that can
/// perform them.
fn repartition(parts: Parts, movement: &Movement, sink: &MetricsSink) -> Result<Parts> {
    match movement {
        Movement::Stay => Ok(parts),
        Movement::Repartition(ords) => exchange(parts, ords, sink),
        other => Err(internal_err!("{other:?} is not a per-part row movement")),
    }
}

/// Mark every column ordinal `expr` reads in `req`.
fn expr_columns(expr: &BoundExpr, req: &mut [bool]) {
    match expr {
        BoundExpr::Column(i) => {
            if let Some(slot) = req.get_mut(*i) {
                *slot = true;
            }
        }
        BoundExpr::Literal(_) => {}
        BoundExpr::Binary { left, right, .. } => {
            expr_columns(left, req);
            expr_columns(right, req);
        }
        BoundExpr::Not(e) | BoundExpr::Neg(e) => expr_columns(e, req),
        BoundExpr::IsNull { expr, .. } => expr_columns(expr, req),
    }
}

fn mark(req: &mut [bool], i: usize) {
    if let Some(slot) = req.get_mut(i) {
        *slot = true;
    }
}

/// The all-NULL column a late-materializing operator emits for every
/// output column nobody above it reads: `unread` holds the one made for
/// this output batch, so each further unread column is a pointer copy.
fn placeholder(unread: &mut Option<Arc<ColumnVector>>, len: usize) -> Arc<ColumnVector> {
    Arc::clone(unread.get_or_insert_with(|| Arc::new(ColumnVector::all_null(len))))
}

/// Concatenate a chunk stream into one dense batch, compacting away
/// selection vectors. Columns whose `required` slot is `false` share
/// one all-NULL placeholder (never read downstream); everything else is
/// gathered and merged variant-natively (typed vectors stay typed,
/// shared-dictionary columns keep their codes).
fn concat_chunks(chunks: &[Chunk], required: &[bool]) -> Result<ColumnarBatch> {
    let total = stream_len(chunks);
    if total > u32::MAX as usize {
        return Err(internal_err!(
            "batch of {total} rows exceeds selection-vector range"
        ));
    }
    let mut unread = None;
    let mut cols = Vec::with_capacity(required.len());
    for (c, req) in required.iter().enumerate() {
        if !*req {
            cols.push(placeholder(&mut unread, total));
            continue;
        }
        let mut parts = Vec::with_capacity(chunks.len());
        for ch in chunks {
            let col = ch.batch.column(c)?;
            parts.push(match &ch.sel {
                Some(sel) => Cow::Owned(col.gather(sel)),
                None => Cow::Borrowed(col),
            });
        }
        cols.push(Arc::new(concat_columns(&parts, total)?));
    }
    ColumnarBatch::from_columns(cols, total)
}

/// Merge column parts of (ideally) one variant into a single vector.
/// Heterogeneous or foreign-dictionary parts decode through [`Value`]s.
fn concat_columns(parts: &[Cow<'_, ColumnVector>], total: usize) -> Result<ColumnVector> {
    /// The parts' validity bitmaps end to end (only called when every
    /// part is one typed variant, so every part has one).
    fn merged_validity(parts: &[Cow<'_, ColumnVector>], total: usize) -> Bitmap {
        let bitmaps = parts.iter().filter_map(|p| p.validity());
        if bitmaps.clone().all(Bitmap::all_valid) {
            return Bitmap::new_all(total, true);
        }
        let mut merged = Bitmap::new_all(0, true);
        bitmaps.for_each(|validity| merged.append(validity));
        merged
    }
    if parts
        .iter()
        .all(|p| matches!(**p, ColumnVector::Int { .. }))
    {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Int { values: v, .. } = p.as_ref() {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return Ok(ColumnVector::Int { values, validity });
    }
    if parts
        .iter()
        .all(|p| matches!(**p, ColumnVector::Float { .. }))
    {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Float { values: v, .. } = p.as_ref() {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return Ok(ColumnVector::Float { values, validity });
    }
    if parts
        .iter()
        .all(|p| matches!(**p, ColumnVector::Bool { .. }))
    {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Bool { values: v, .. } = p.as_ref() {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return Ok(ColumnVector::Bool { values, validity });
    }
    if parts
        .iter()
        .all(|p| matches!(**p, ColumnVector::Str { .. }))
    {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Str { values: v, .. } = p.as_ref() {
                values.extend(v.iter().cloned());
            }
        }
        let validity = merged_validity(parts, total);
        return Ok(ColumnVector::Str { values, validity });
    }
    if let Some(ColumnVector::Dict { dict: first, .. }) = parts.first().map(AsRef::as_ref) {
        let shared = parts.iter().all(
            |p| matches!(p.as_ref(), ColumnVector::Dict { dict, .. } if Arc::ptr_eq(dict, first)),
        );
        if shared {
            let mut codes = Vec::with_capacity(total);
            for p in parts {
                if let ColumnVector::Dict { codes: c, .. } = p.as_ref() {
                    codes.extend_from_slice(c);
                }
            }
            return Ok(ColumnVector::Dict {
                codes,
                dict: Arc::clone(first),
            });
        }
    }
    let mut vals = Vec::with_capacity(total);
    for p in parts {
        for i in 0..p.len() {
            vals.push(p.value(i));
        }
    }
    ColumnVector::from_values(vals.iter())
}

impl Executor<'_> {
    /// Run `plan` on the chunk pipeline over `n` parts and materialize
    /// the result rows at the very end, in part order. Callers must
    /// have checked that [`execution_path`](crate::execution_path)
    /// admits the plan at `n`.
    pub(crate) fn run_pipeline(
        &self,
        plan: &LogicalPlan,
        n: usize,
        guard: &ResourceGuard,
    ) -> Result<(Vec<Vec<Value>>, ProfileNode)> {
        let dist = distribute(plan, self.options.combiner, &|table| {
            self.storage.partition_key(table).map(<[usize]>::to_vec)
        });
        let required = vec![true; plan.schema()?.len()];
        let (parts, profile) = self.run_chunks(plan, &dist, &required, n, guard)?;
        // Final delivery to the client is not an exchange: both plan
        // shapes return the same result rows, so it is never metered.
        Ok((chunk_rows(parts.iter().flatten()), profile))
    }

    /// Run input `i` of an operator whose *input* rows are what its
    /// movement moves (joins, aggregates, sorts), handing back the
    /// movement to carry out. A moved row is priced as a whole row, so
    /// an input that moves must materialize every column.
    fn run_input<'d>(
        &self,
        input: &LogicalPlan,
        i: usize,
        dist: &'d Distribution,
        required: &mut [bool],
        n: usize,
        guard: &ResourceGuard,
    ) -> Result<(Parts, ProfileNode, &'d Movement)> {
        let (movement, child_dist) = input_of(dist, i, n)?;
        if *movement != Movement::Stay {
            required.fill(true);
        }
        let (parts, profile) = self.run_chunks(input, child_dist, required, n, guard)?;
        Ok((parts, profile, movement))
    }

    /// Recursively execute `plan` over `n` parts, carrying out the
    /// movements `dist` prescribes. `required` flags which output
    /// columns the parent will read; operators may emit all-NULL
    /// placeholders for the rest (late materialization) — except scans,
    /// which always deliver every column (a stored block costs an `Arc`
    /// clone) so fault-injection counters stay identical to the row
    /// path.
    #[allow(clippy::too_many_lines)]
    fn run_chunks(
        &self,
        plan: &LogicalPlan,
        dist: &Distribution,
        required: &[bool],
        n: usize,
        guard: &ResourceGuard,
    ) -> Result<(Parts, ProfileNode)> {
        let threads = self.options.threads.get();
        // Operator names say whether the body ran over several parts.
        let named = |one: &'static str, many: &'static str| if n > 1 { many } else { one };
        match plan {
            // One serial cursor at every part count — same batches, same
            // global batch ordinals, same row-id-keyed NULL flips — so a
            // seeded fault injector cannot tell how many parts there
            // are. At one part the batches are the stored blocks; over
            // several each arrives split — by the declared partition key
            // under `=ⁿ`, else round-robin on the global row ordinal —
            // into one dense batch per part, a sealed block's split
            // made once and kept by storage (`ScanCursor::next_split`).
            LogicalPlan::Scan { table, schema, .. } => {
                let sink = self.sink();
                let timer = sink.start_timer();
                let mut cursor = self.storage.open_scan(table)?;
                if cursor.arity() != schema.len() {
                    return Err(internal_err!("scan schema arity mismatch for {table}"));
                }
                let mut parts: Parts = (0..n).map(|_| Vec::new()).collect();
                let mut scanned = 0usize;
                let mut count = |rows: usize| -> Result<()> {
                    guard.charge_rows(rows)?;
                    sink.add_batches(1);
                    sink.add_vectors(1);
                    scanned += rows;
                    Ok(())
                };
                if let [only] = parts.as_mut_slice() {
                    while let Some(batch) = cursor.next_columnar()? {
                        count(batch.len())?;
                        only.push(Chunk { batch, sel: None });
                    }
                } else {
                    let key = dist.partitioning.key();
                    while let Some(split) = cursor.next_split(key, n)? {
                        count(split.rows())?;
                        for (stream, batch) in parts.iter_mut().zip(split.parts()) {
                            if !batch.is_empty() {
                                let batch = batch.clone();
                                stream.push(Chunk { batch, sel: None });
                            }
                        }
                    }
                }
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), "Scan", scanned, vec![])
                    .with_metrics(sink.finish(scanned, scanned));
                Ok((parts, profile))
            }

            LogicalPlan::Filter { input, predicate } => {
                let in_schema = input.schema()?;
                let bound = predicate.bind(&in_schema)?;
                let keep = lower_predicate(&bound)?;
                let mut child_req = required.to_vec();
                child_req.resize(in_schema.len(), false);
                expr_columns(&bound, &mut child_req);
                let (_, child_dist) = input_of(dist, 0, n)?;
                let (in_parts, child) = self.run_chunks(input, child_dist, &child_req, n, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let n_in = parts_len(&in_parts);
                let parts = map_parts(threads, in_parts, &|chunks: Vec<Chunk>| {
                    let mut out = Vec::with_capacity(chunks.len());
                    for ch in chunks {
                        guard.tick()?;
                        let kt = sink.start_timer();
                        sink.add_vectors(1);
                        // A dealt or already filtered chunk is read at
                        // its live rows, in place.
                        let sel = select(&keep, &ch.batch, ch.sel.as_deref())?;
                        sink.record_kernel(kt);
                        out.push(Chunk {
                            batch: ch.batch,
                            sel: Some(sel),
                        });
                    }
                    Ok(out)
                })?;
                let out_count = parts_len(&parts);
                sink.add_selected(out_count as u64);
                guard.charge_rows(out_count)?;
                sink.add_batches(1);
                sink.record_probe(timer);
                let op = named("Filter", "ShardedFilter");
                let profile = ProfileNode::new(plan.label(), op, out_count, vec![child])
                    .with_metrics(sink.finish(n_in, out_count));
                Ok((parts, profile))
            }

            LogicalPlan::Project {
                input,
                exprs,
                distinct,
            } => {
                let in_schema = input.schema()?;
                let bound: Vec<BoundExpr> = exprs
                    .iter()
                    .map(|(e, _)| e.bind(&in_schema))
                    .collect::<Result<_>>()?;
                let values: Vec<Operand> = bound.iter().map(lower_value).collect::<Result<_>>()?;
                let mut child_req = vec![false; in_schema.len()];
                for b in &bound {
                    expr_columns(b, &mut child_req);
                }
                let (movement, child_dist) = input_of(dist, 0, n)?;
                let (in_parts, child) = self.run_chunks(input, child_dist, &child_req, n, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let n_in = parts_len(&in_parts);
                // Passing columns on costs a pointer copy per chunk: less
                // than starting a worker for it.
                let computed = values.iter().any(|v| !matches!(v, Operand::Column(_)));
                let team = if computed { threads } else { 1 };
                let projected = map_parts(team, in_parts, &|chunks: Vec<Chunk>| {
                    let mut out = Vec::with_capacity(chunks.len());
                    for ch in chunks {
                        guard.tick()?;
                        let kt = sink.start_timer();
                        sink.add_vectors(1);
                        let cols: Vec<Arc<ColumnVector>> = values
                            .iter()
                            .map(|v| match v {
                                // A bare column is passed on, not copied.
                                Operand::Column(i) => ch.batch.shared_column(*i).cloned(),
                                _ => Ok(Arc::new(eval_value(v, &ch.batch)?.into_owned())),
                            })
                            .collect::<Result<_>>()?;
                        sink.record_kernel(kt);
                        let batch = ColumnarBatch::from_columns(cols, ch.batch.len())?;
                        out.push(Chunk { batch, sel: ch.sel });
                    }
                    Ok(out)
                })?;
                // DISTINCT moves the *projected* rows: equal output rows
                // co-locate (whole row = the `=ⁿ` key), then each part
                // dedups its own. The per-part distinct counts are
                // disjoint and sum to the one-part dedup-set size.
                let mut parts = repartition(projected, movement, &sink)?;
                if *distinct {
                    parts = map_parts(threads, parts, &|chunks: Vec<Chunk>| {
                        let mut seen: KeyMap<()> = KeyMap::new();
                        let dedup = |ch: Chunk| {
                            let rows = KeyView::of_rows(&ch.batch);
                            seen.adopt(&rows, ch.indices());
                            let mut kept = Vec::new();
                            seen.place(&rows, ch.indices(), Nulls::Group, |i, _, (), new| {
                                if new {
                                    kept.push(i as u32);
                                }
                                Ok(())
                            })?;
                            Ok(Chunk {
                                batch: ch.batch,
                                sel: Some(kept),
                            })
                        };
                        chunks.into_iter().map(dedup).collect()
                    })?;
                }
                let out_count = parts_len(&parts);
                guard.charge_rows(out_count)?;
                let op = if *distinct {
                    sink.add_hash_entries(out_count as u64);
                    named("ProjectDistinct", "ShardedProjectDistinct")
                } else {
                    named("Project", "ShardedProject")
                };
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), op, out_count, vec![child])
                    .with_metrics(sink.finish(n_in, out_count));
                Ok((parts, profile))
            }

            LogicalPlan::SubqueryAlias { input, .. } => {
                let (_, child_dist) = input_of(dist, 0, n)?;
                let (parts, child) = self.run_chunks(input, child_dist, required, n, guard)?;
                let sink = self.sink();
                sink.add_batches(1);
                let rows = parts_len(&parts);
                let profile = ProfileNode::new(plan.label(), "SubqueryAlias", rows, vec![child])
                    .with_metrics(sink.finish(rows, rows));
                Ok((parts, profile))
            }

            LogicalPlan::Join {
                left,
                right,
                condition,
            } => {
                let join = bind_join(left, right, condition)?;
                let residual = join.residual.as_ref().map(lower_predicate).transpose()?;
                let l_arity = join.left_arity;
                let mut jreq = required.to_vec();
                jreq.resize(l_arity + join.right_arity, false);
                if let Some(rb) = &join.residual {
                    expr_columns(rb, &mut jreq);
                }
                // What the output carries (the parent's columns and the
                // residual's); the inputs add the key columns.
                let r_out = jreq.split_off(l_arity);
                let l_out = jreq;
                let (mut lreq, mut rreq) = (l_out.clone(), r_out.clone());
                for k in &join.keys {
                    mark(&mut lreq, k.left);
                    mark(&mut rreq, k.right);
                }
                let (l_parts, lp, l_move) = self.run_input(left, 0, dist, &mut lreq, n, guard)?;
                let (r_parts, rp, r_move) = self.run_input(right, 1, dist, &mut rreq, n, guard)?;
                let l_len = parts_len(&l_parts);
                let r_len = parts_len(&r_parts);
                let sink = self.sink();
                sink.add_batches(input_batches(l_len) + input_batches(r_len));
                // Each side repartitions on its key columns unless it is
                // already routed exactly that way (a declared partition
                // key, a combiner's output). NULL-key rows are routed
                // but — join keys compare under 3VL — never matched.
                // Every build row lives on exactly one part, so the
                // parts' entry counts sum to the one-part count.
                let l_parts = repartition(l_parts, l_move, &sink)?;
                let r_parts = repartition(r_parts, r_move, &sink)?;
                let sides: Vec<(Vec<Chunk>, Vec<Chunk>)> =
                    l_parts.into_iter().zip(r_parts).collect();
                let parts = map_parts(threads, sides, &|(l, r): (Vec<Chunk>, Vec<Chunk>)| {
                    let sides = JoinSides {
                        probe: &l,
                        build: &r,
                        probe_req: &lreq,
                        build_req: &rreq,
                        probe_out: &l_out,
                        build_out: &r_out,
                    };
                    join_columnar(&sides, &join.keys, &residual, guard, &sink)
                })?;
                let out_count = parts_len(&parts);
                guard.charge_rows(out_count)?;
                let op = named("HashJoin", "ShardedHashJoin");
                let profile = ProfileNode::new(plan.label(), op, out_count, vec![lp, rp])
                    .with_metrics(sink.finish(l_len + r_len, out_count));
                Ok((parts, profile))
            }

            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let in_schema = input.schema()?;
                let (group_bound, compiled) = compile_aggregates(&in_schema, group_by, aggregates)?;
                let mut child_req = vec![false; in_schema.len()];
                for b in group_bound
                    .iter()
                    .chain(compiled.iter().filter_map(|c| c.arg.as_ref()))
                {
                    expr_columns(b, &mut child_req);
                }
                let (in_parts, child, movement) =
                    self.run_input(input, 0, dist, &mut child_req, n, guard)?;
                let n_in = parts_len(&in_parts);
                let sink = self.sink();
                sink.add_batches(input_batches(n_in));
                // Every argument lowered (`COUNT(*)` has none) — or, when
                // one is outside the rule, none: row-major then.
                let arg_values = compiled.iter().map(|c| match &c.arg {
                    Some(arg) => arg.lower_value().map(Some),
                    None => Some(None),
                });
                let fold = ChunkFold {
                    group_values: group_bound.iter().map(lower_value).collect::<Result<_>>()?,
                    compiled: &compiled,
                    arg_values: arg_values.collect(),
                    guard,
                    sink: &sink,
                };
                let (parts, op) = match movement {
                    // Inherently global (a scalar aggregate yields one
                    // row even over empty input): gather and run the
                    // one body on part 0.
                    Movement::Gather => (
                        on_part_zero(fold.aggregate(&gather(in_parts, &sink))?, n),
                        "GatherAggregate",
                    ),
                    // The certified pre-aggregation below the exchange.
                    Movement::Combine(_) => {
                        (fold.combine(threads, in_parts)?, "CombinerHashAggregate")
                    }
                    // Equal groups already share a part, or get there by
                    // a raw-row exchange on the grouping columns (the
                    // uncertified path GBJ502 flags): NULL is one `=ⁿ`
                    // group on one part. Then full aggregation per part.
                    Movement::Stay | Movement::Repartition(_) => (
                        map_parts(
                            threads,
                            repartition(in_parts, movement, &sink)?,
                            &|chunks: Vec<Chunk>| fold.aggregate(&chunks),
                        )?,
                        named("HashAggregate", "ShardedHashAggregate"),
                    ),
                };
                let n_out = parts_len(&parts);
                guard.charge_rows(n_out)?;
                let profile = ProfileNode::new(plan.label(), op, n_out, vec![child])
                    .with_metrics(sink.finish(n_in, n_out));
                Ok((parts, profile))
            }

            // A breaker like the row engine's: a global order needs all
            // rows in one place, so gather, materialize, then the
            // oracle's own stable sort with the oracle's charges. Over
            // several parts ties may interleave differently than in
            // one-part input order (the sort is stable over the
            // *gathered* order), which any ORDER BY contract permits.
            LogicalPlan::Sort { input, keys } => {
                let in_schema = input.schema()?;
                let bound = bind_sort_keys(keys, &in_schema)?;
                let mut child_req = required.to_vec();
                child_req.resize(in_schema.len(), false);
                for (b, _) in &bound {
                    expr_columns(b, &mut child_req);
                }
                let (in_parts, child, _) =
                    self.run_input(input, 0, dist, &mut child_req, n, guard)?;
                let sink = self.sink();
                let rows = chunk_rows(&gather(in_parts, &sink));
                let n_rows = rows.len();
                sink.add_batches(input_batches(n_rows));
                let timer = sink.start_timer();
                let rows = sort_rows(rows, &bound, guard)?;
                sink.record_build(timer);
                let op = named("Sort", "GatherSort");
                let profile = ProfileNode::new(plan.label(), op, n_rows, vec![child])
                    .with_metrics(sink.finish(n_rows, n_rows));
                Ok((
                    on_part_zero(rows_chunk(&rows, in_schema.len())?, n),
                    profile,
                ))
            }

            LogicalPlan::CrossJoin { .. } => Err(internal_err!(
                "CrossJoin is not batch-native; execution_path() should have refused it"
            )),
        }
    }
}

/// A probe chunk is a window as it stands when its live rows fill at
/// least `1 / WINDOW_FILL` of its batch: a unique build hands the
/// window's batch on whole, so a window costs per *batch* row, not per
/// live row. The chunks a filter leaves are that full (`join_cat`'s
/// keeps half of each scan batch) and are probed in place — at one part,
/// and over several wherever the probe side stays where the scan put
/// it, since the scan hands each part dense batches of its own rows. An
/// exchange in front of the join hands each part a selection over every
/// origin's chunk — at four parts behind `join_cat`'s filter about an
/// eighth of the batch — and runs of those are compacted by
/// [`concat_chunks`] into windows of at least [`POLL_ROWS`] live rows.
/// Taking every chunk as it stands tripled `scaleout`'s p90 and doubled
/// its peak RSS (EXPERIMENTS.md X29). The rule reads live rows, not
/// matches: see [`join_columnar`] for why a window of few matches is
/// still handed on whole.
const WINDOW_FILL: usize = 4;

/// Whether `chunk` is a probe window as it stands (see [`WINDOW_FILL`]).
fn is_window(chunk: &Chunk) -> bool {
    chunk.out_len() * WINDOW_FILL >= chunk.batch.len()
}

/// Hand `visit` the probe side `chunks` as windows, in order: each chunk
/// that [`is_window`] as it stands, and each run of sparser chunks
/// between them compacted into dense windows of at least [`POLL_ROWS`]
/// live rows (the last of a run may hold fewer). Compaction is the
/// join's kernel work.
fn for_each_window(
    chunks: &[Chunk],
    req: &[bool],
    sink: &MetricsSink,
    mut visit: impl FnMut(&Chunk) -> Result<()>,
) -> Result<()> {
    let compact = |run: Option<&[Chunk]>, visit: &mut dyn FnMut(&Chunk) -> Result<()>| {
        let Some(run) = run.filter(|run| !run.is_empty()) else {
            return Ok(());
        };
        let kt = sink.start_timer();
        let batch = concat_chunks(run, req)?;
        sink.record_kernel(kt);
        visit(&Chunk { batch, sel: None })
    };
    let (mut start, mut live) = (0, 0);
    for (at, chunk) in chunks.iter().enumerate() {
        if is_window(chunk) {
            compact(chunks.get(start..at), &mut visit)?;
            visit(chunk)?;
            (start, live) = (at + 1, 0);
            continue;
        }
        live += chunk.out_len();
        if live >= POLL_ROWS {
            compact(chunks.get(start..=at), &mut visit)?;
            (start, live) = (at + 1, 0);
        }
    }
    compact(chunks.get(start..), &mut visit)
}

/// A chunk's live rows in strides of at most [`POLL_ROWS`], in order:
/// what the join probes between two polls of the guard.
fn strides(chunk: &Chunk) -> impl Iterator<Item = SelIter<'_>> {
    let len = chunk.out_len();
    (0..len).step_by(POLL_ROWS).map(move |at| {
        let end = len.min(at + POLL_ROWS);
        match &chunk.sel {
            Some(sel) => SelIter::Sel(sel.get(at..end).unwrap_or_default().iter()),
            None => SelIter::All(at..end),
        }
    })
}

/// `batch`'s columns gathered through `sel` where `req` asks for them,
/// one shared all-NULL placeholder of `sel`'s length elsewhere.
fn gather_required(
    batch: &ColumnarBatch,
    req: &[bool],
    sel: &[u32],
    unread: &mut Option<Arc<ColumnVector>>,
) -> Vec<Arc<ColumnVector>> {
    let cols = batch.columns().iter().enumerate();
    cols.map(|(c, col)| match req.get(c) {
        Some(true) => Arc::new(col.gather(sel)),
        _ => placeholder(unread, sel.len()),
    })
    .collect()
}

/// The build rows of one join key, in build order: `first`, then each
/// row's successor in the build's `next` vector, [`NO_ROW`] after `last`.
#[derive(Clone, Copy, Default)]
struct BuildRows {
    first: u32,
    last: u32,
}

/// The end of a [`BuildRows`] chain.
const NO_ROW: u32 = u32::MAX;

impl BuildRows {
    /// Place build row `row` under this key: its first row if `new`,
    /// else linked after the last one (`next` is made, for `rows` build
    /// rows, on the first duplicate).
    fn push(&mut self, row: u32, new: bool, next: &mut Vec<u32>, rows: usize) {
        if new {
            *self = BuildRows {
                first: row,
                last: row,
            };
            return;
        }
        if next.is_empty() {
            next.resize(rows, NO_ROW);
        }
        if let Some(link) = next.get_mut(self.last as usize) {
            *link = row;
        }
        self.last = row;
    }

    /// Every build row of the key, in build order.
    #[inline]
    fn each(self, next: &[u32], mut visit: impl FnMut(u32)) {
        let mut row = self.first;
        while row != NO_ROW {
            visit(row);
            row = next.get(row as usize).copied().unwrap_or(NO_ROW);
        }
    }
}

/// Per probe dictionary, its codes in the build's dictionary
/// ([`code_translation`]: `None` when the two are one).
type Translations = Vec<(Arc<StringDict>, Option<Vec<Option<i64>>>)>;

/// One part's join inputs: the probe (left) and build (right) chunk
/// streams, the columns each input delivers (`*_req`: the output's and
/// the keys) and the columns the output carries (`*_out`: the parent's
/// and the residual's).
struct JoinSides<'a> {
    probe: &'a [Chunk],
    build: &'a [Chunk],
    probe_req: &'a [bool],
    build_req: &'a [bool],
    probe_out: &'a [bool],
    build_out: &'a [bool],
}

/// Columnar hash join over one part: concatenate the build (right) side
/// into one dense batch, index it, and probe the left side window by
/// window ([`for_each_window`]), emitting one chunk per window that
/// matched, in probe order — so rows and their order are the row
/// path's. The index is one [`KeyMap`] from key to build row ids — raw
/// `i64`s or dictionary codes when the build key and every probe
/// chunk's key is one such column (through a directory when the build
/// keys span a small range), decoded `=ⁿ` keys otherwise — built and
/// probed [`POLL_ROWS`] rows at a time in one typed loop each
/// ([`KeyMap::place`], [`KeyMap::probe`]), and both phases skip rows
/// whose key holds a NULL (invalid slots, out-of-dictionary codes): the
/// row path's search-condition semantics. A probe window of another
/// dictionary reads its codes through a translation made once per
/// dictionary.
///
/// The probe writes row ids straight into selection vectors. When the
/// build placed every non-NULL key once (build entries = index entries:
/// a PRIMARY KEY, an eager shape's grouped side), a window is emitted in
/// its own row space: its columns pass on as `Arc`s, each required
/// build column is gathered once into that row space (a row that did
/// not match points at any build row: it is dead), and the matches,
/// narrowed by the residual evaluated at them, are the chunk's
/// selection. A build with a duplicate key gathers both sides through
/// the pair's two selection vectors and applies the residual to the
/// dense result.
///
/// The match rate is not a condition of the in-place emission, though
/// at 1 % matches it gathers each build column over a hundred times as
/// many rows as a dense gather would. Measured over a unique `Dim`
/// keeping 1–25 % of the `Fact` rows (`report ops`, EXPERIMENTS.md
/// X29), gathering sparse matches densely instead was never faster: it
/// copies the probe columns, which the in-place emission never does. A
/// line at a quarter of the window cost `analytic_scan` 11 % of its p90,
/// since `join_cat`'s matches fill just under a quarter of each window.
/// The build cells gathered never outnumber the probe side's batch rows.
///
/// Counter and guard-charge order mirror [`crate::join::hash_join`]
/// call-for-call, except that the guard is polled once per
/// [`POLL_ROWS`] probe rows (and once for their matches), not once per
/// row. Timers: the build is `build_ns`, the probe loops `probe_ns`;
/// the build's concatenation, the compaction of sparse runs, the
/// gather and the residual are `kernel_ns`, disjoint from both (see
/// [`crate::metrics`]).
fn join_columnar(
    sides: &JoinSides<'_>,
    keys: &[EquiKey],
    residual: &Option<Lowered>,
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Vec<Chunk>> {
    let l_ords: Vec<usize> = keys.iter().map(|k| k.left).collect();
    let r_ords: Vec<usize> = keys.iter().map(|k| k.right).collect();
    // Concatenating the build side into one dense batch lines its key
    // columns up for code-native hashing and its payload for gathers.
    let kt = sink.start_timer();
    let rbatch = concat_chunks(sides.build, sides.build_req)?;
    sink.add_vectors(1);
    sink.record_kernel(kt);
    let rkeys = KeyView::of(&rbatch, &r_ords)?;

    let mut build_bytes = 0u64;
    let mut build_entries = 0u64;
    // Made when the first duplicate key is placed.
    let mut next: Vec<u32> = Vec::new();
    let build_timer = sink.start_timer();
    let mut index: KeyMap<BuildRows> = KeyMap::for_join(&rkeys, 0..rbatch.len());
    let built = (0..rbatch.len()).step_by(POLL_ROWS).try_for_each(|at| {
        let stride = at..rbatch.len().min(at + POLL_ROWS);
        guard.tick_rows(stride.len())?;
        index.place(&rkeys, stride, Nulls::Skip, |i, _, rows, new| {
            let per = rkeys.key_bytes(i) + std::mem::size_of::<usize>() as u64;
            build_bytes += per;
            build_entries += 1;
            guard.charge_memory(per)?;
            rows.push(i as u32, new, &mut next, rbatch.len());
            Ok(())
        })
    });
    sink.record_build(build_timer);
    sink.add_hash_entries(build_entries);
    sink.add_state_bytes(build_bytes);
    let unique = build_entries == index.len() as u64;

    let mut out = Vec::new();
    let mut translations: Translations = Vec::new();
    let mut unread: Option<Arc<ColumnVector>> = None;
    let probed = built.and_then(|()| {
        for_each_window(sides.probe, sides.probe_req, sink, |window| {
            let probe_timer = sink.start_timer();
            let lkeys = KeyView::of(&window.batch, &l_ords)?;
            index.ready_for_probe(&lkeys);
            let translation = match (&lkeys, &rkeys) {
                (KeyView::Dict { dict: from, .. }, KeyView::Dict { dict: to, .. })
                    if index.is_raw() =>
                {
                    let at = match translations.iter().position(|(d, _)| Arc::ptr_eq(d, from)) {
                        Some(at) => at,
                        None => {
                            translations.push((Arc::clone(from), code_translation(from, to)?));
                            translations.len() - 1
                        }
                    };
                    translations.get(at).and_then(|(_, codes)| codes.as_deref())
                }
                _ => None,
            };
            // The probe rows that matched, in probe order, and their
            // build rows: under a unique build by window row (`picks`,
            // the window's row space), else by match (`rsel`).
            let mut lsel: Vec<u32> = Vec::new();
            let mut picks: Vec<u32> = Vec::new();
            let mut rsel: Vec<u32> = Vec::new();
            if unique {
                lsel.reserve(window.out_len());
                picks.resize(window.batch.len(), 0);
            }
            for stride in strides(window) {
                guard.tick_rows(stride.len())?;
                let before = lsel.len();
                index.probe(&lkeys, translation, stride, |i, rows| {
                    if unique {
                        if let Some(pick) = picks.get_mut(i) {
                            lsel.push(i as u32);
                            *pick = rows.first;
                        }
                    } else {
                        rows.each(&next, |r| {
                            lsel.push(i as u32);
                            rsel.push(r);
                        });
                    }
                })?;
                guard.tick_rows(lsel.len() - before)?;
            }
            sink.record_probe(probe_timer);
            if lsel.is_empty() {
                return Ok(());
            }
            if lsel.len() > u32::MAX as usize {
                return Err(internal_err!(
                    "join output of {} rows exceeds selection-vector range",
                    lsel.len()
                ));
            }
            let kt = sink.start_timer();
            // Windows of one length share their placeholder.
            let len = if unique { picks.len() } else { lsel.len() };
            if unread.as_ref().is_some_and(|col| col.len() != len) {
                unread = None;
            }
            let (mut cols, build_sel, live) = if unique {
                (window.batch.columns().to_vec(), &picks, Some(lsel))
            } else {
                let cols = gather_required(&window.batch, sides.probe_out, &lsel, &mut unread);
                (cols, &rsel, None)
            };
            cols.extend(gather_required(
                &rbatch,
                sides.build_out,
                build_sel,
                &mut unread,
            ));
            let batch = ColumnarBatch::from_columns(cols, len)?;
            let sel = match residual {
                Some(keep) => Some(select(keep, &batch, live.as_deref())?),
                None => live,
            };
            sink.add_vectors(1);
            sink.record_kernel(kt);
            out.push(Chunk { batch, sel });
            Ok(())
        })
    });
    guard.release_memory(build_bytes);
    probed.map(|()| out)
}

/// One chunk's evaluated aggregate-argument columns (`None` for
/// `COUNT(*)`), or `None` altogether on the row-major path.
type ArgColumns<'b> = Option<Vec<Option<Cow<'b, ColumnVector>>>>;

/// The columnar hash aggregate over one part's chunk stream: stream
/// chunks (no concatenation), evaluate group keys — and, when every
/// argument is vectorizable, aggregate arguments — column-at-a-time,
/// and fold each chunk into the row engine's [`Groups`] table in two
/// passes: the slot of every live row through the typed key view, then
/// one typed loop per aggregate over its argument column
/// ([`Groups::fold_chunk`]), polling the guard once per chunk.
/// Non-vectorizable arguments are evaluated row-major per live row, so
/// the first error is the row engine's. The table is drained as columns
/// ([`Groups::into_columns`]): keys and typed states leave as the
/// vectors they are. Counter and guard-charge order mirror
/// [`crate::aggregate::hash_aggregate`] call-for-call.
struct ChunkFold<'a> {
    /// The grouping expressions, lowered.
    group_values: Vec<Operand>,
    compiled: &'a [CompiledAggregate],
    /// Every aggregate's argument, lowered (`None` for `COUNT(*)`) — or
    /// `None` altogether when one of them is not vectorizable.
    arg_values: Option<Vec<Option<Operand>>>,
    guard: &'a ResourceGuard,
    sink: &'a MetricsSink,
}

impl<'a> ChunkFold<'a> {
    fn arg_columns<'b>(&self, batch: &'b ColumnarBatch) -> Result<ArgColumns<'b>> {
        let Some(args) = &self.arg_values else {
            return Ok(None);
        };
        args.iter()
            .map(|arg| arg.as_ref().map(|a| eval_value(a, batch)).transpose())
            .collect::<Result<_>>()
            .map(Some)
    }

    /// A drained table — `len` groups as `columns` — as a one-chunk
    /// stream.
    fn drained(columns: Vec<ColumnVector>, len: usize) -> Result<Vec<Chunk>> {
        let batch = ColumnarBatch::from_columns(columns, len)?;
        Ok(vec![Chunk { batch, sel: None }])
    }

    fn drain(&self, groups: Groups<'a>) -> Result<Vec<Chunk>> {
        let len = groups.len();
        Self::drained(groups.into_columns(self.group_values.len())?, len)
    }

    /// Fold `chunks` into a fresh group table. The table comes back even
    /// when the fold failed, so the caller can still record what it
    /// charged.
    fn fold(&self, chunks: &[Chunk]) -> (Groups<'a>, Result<()>) {
        let mut groups = if self.arg_values.is_some() {
            Groups::typed(self.compiled, self.guard)
        } else {
            Groups::new(self.compiled, self.guard)
        };
        let filled = chunks.iter().try_for_each(|ch| {
            let kt = self.sink.start_timer();
            self.sink.add_vectors(1);
            let key_cols: Vec<Cow<'_, ColumnVector>> = self
                .group_values
                .iter()
                .map(|key| eval_value(key, &ch.batch))
                .collect::<Result<_>>()?;
            let arg_cols = self.arg_columns(&ch.batch)?;
            self.sink.record_kernel(kt);
            let keys = KeyView::new(key_cols.iter().map(AsRef::as_ref).collect());
            let args = match &arg_cols {
                Some(cols) => ChunkArgs::Columns(cols),
                None => ChunkArgs::Rows(&ch.batch),
            };
            groups.fold_chunk(&keys, args, ch.indices())
        });
        (groups, filled)
    }

    /// Aggregate one part's stream into its output stream.
    fn aggregate(&self, chunks: &[Chunk]) -> Result<Vec<Chunk>> {
        let sink = self.sink;
        if self.group_values.is_empty() {
            // Scalar aggregate: exactly one group, even over empty input
            // — the column-wise states with every row in slot 0.
            let scalar_timer = sink.start_timer();
            let mut states = if self.arg_values.is_some() {
                AggStates::typed(self.compiled)
            } else {
                AggStates::general(self.compiled)
            };
            states.grow(1);
            let mut slots = Vec::new();
            for ch in chunks {
                let kt = sink.start_timer();
                let cols = self.arg_columns(&ch.batch)?;
                self.guard.tick_rows(ch.out_len())?;
                let Some(cols) = cols else {
                    ch.indices()
                        .try_for_each(|i| states.update_row(0, &ch.batch.row(i)))?;
                    continue;
                };
                sink.add_vectors(1);
                sink.record_kernel(kt);
                slots.resize(ch.out_len(), 0);
                if let Some((_, error)) = states.update_chunk(&slots, ch.indices(), &cols)? {
                    return Err(error);
                }
            }
            sink.record_build(scalar_timer);
            return Self::drained(states.take_columns()?, 1);
        }
        let build_timer = sink.start_timer();
        let (groups, filled) = self.fold(chunks);
        sink.record_build(build_timer);
        sink.add_hash_entries(groups.len() as u64);
        sink.add_state_bytes(groups.bytes());
        let probe_timer = sink.start_timer();
        let out = filled.and_then(|()| self.drain(groups));
        sink.record_probe(probe_timer);
        out
    }

    /// The eager pre-aggregation pushed below the exchange: fold each
    /// origin part, ship each group's partial to the part its key hashes
    /// to, and merge at the destination through `Accumulator::merge` in
    /// `(origin part, origin first-seen)` order — three uses of the one
    /// [`Groups`] table. A partial is a slot of its origin's table: it
    /// is routed by the table's own key view and merged keyed raw
    /// ([`Groups::merge_picked`]), so an `Int`- or dictionary-keyed
    /// group is decoded once, when the merged table is drained.
    ///
    /// Metrics: partial tables are invisible (per-part distinct counts
    /// would over-count groups spanning origins; their charge is given
    /// back when the fold ends); the merge phase records the merged
    /// group count and state bytes, reproducing the one-part aggregate's
    /// `hash_entries` exactly. Shipped bytes price each partial as
    /// framing + key payload + one accumulator-state entry per aggregate
    /// ([`Groups::entry_bytes`]).
    fn combine(&self, threads: usize, parts: Parts) -> Result<Parts> {
        let n = parts.len();
        let timer = self.sink.start_timer();
        let partials: Vec<Groups<'a>> = map_parts(threads, parts, &|chunks: Vec<Chunk>| {
            let (mut groups, filled) = self.fold(&chunks);
            groups.release();
            filled.map(|()| groups)
        })?;

        // `routed[dest][origin]`: the slots of `origin`'s table that
        // belong on `dest`, in first-seen order.
        let mut routed: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n]; n];
        let (mut shipped_rows, mut shipped_bytes) = (0u64, 0u64);
        for (origin, table) in partials.iter().enumerate() {
            for (slot, dest) in table.shards(n).into_iter().enumerate() {
                if dest as usize != origin {
                    shipped_rows += 1;
                    shipped_bytes += ROW_FRAME_BYTES + table.entry_bytes(slot);
                }
                routed
                    .get_mut(dest as usize)
                    .and_then(|from| from.get_mut(origin))
                    .ok_or_else(|| internal_err!("combiner routed out of range"))?
                    .push(slot as u32);
            }
        }
        self.sink.add_shipped(shipped_rows, shipped_bytes);

        let out = map_parts(threads, routed, &|from: Vec<Vec<u32>>| {
            let mut merged = Groups::typed(self.compiled, self.guard);
            for (table, picked) in partials.iter().zip(&from) {
                self.guard.tick_rows(picked.len())?;
                merged.merge_picked(table, picked)?;
            }
            self.sink.add_hash_entries(merged.len() as u64);
            self.sink.add_state_bytes(merged.bytes());
            self.drain(merged)
        });
        self.sink.record_build(timer);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::NULL_CODE;
    use gbj_types::GroupKey;

    fn int_col(vals: &[Option<i64>]) -> ColumnVector {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect();
        ColumnVector::from_values(values.iter()).unwrap()
    }

    #[test]
    fn concat_chunks_compacts_selections_and_keeps_variants() {
        let b1 = ColumnarBatch::from_columns(vec![int_col(&[Some(1), Some(2), None])], 3).unwrap();
        let b2 = ColumnarBatch::from_columns(vec![int_col(&[Some(4), Some(5)])], 2).unwrap();
        let chunks = vec![
            Chunk {
                batch: b1,
                sel: Some(vec![2, 0]),
            },
            Chunk {
                batch: b2,
                sel: None,
            },
        ];
        assert_eq!(stream_len(&chunks), 4);
        let merged = concat_chunks(&chunks, &[true]).unwrap();
        assert!(matches!(
            merged.column(0).unwrap(),
            ColumnVector::Int { .. }
        ));
        assert_eq!(
            merged.to_rows(),
            vec![
                vec![Value::Null],
                vec![Value::Int(1)],
                vec![Value::Int(4)],
                vec![Value::Int(5)],
            ]
        );
    }

    #[test]
    fn concat_chunks_emits_null_placeholders_for_unrequired_columns() {
        let b = ColumnarBatch::from_columns(
            vec![int_col(&[Some(1), Some(2)]), int_col(&[Some(7), Some(8)])],
            2,
        )
        .unwrap();
        let chunks = vec![Chunk {
            batch: b,
            sel: None,
        }];
        let merged = concat_chunks(&chunks, &[true, false]).unwrap();
        assert_eq!(merged.column(0).unwrap().value(1), Value::Int(2));
        assert_eq!(merged.column(1).unwrap().value(0), Value::Null);
        assert_eq!(merged.column(1).unwrap().value(1), Value::Null);
    }

    #[test]
    fn concat_columns_merges_shared_dictionaries_code_native() {
        let mut b = crate::batch::StringDict::default();
        let c0 = b.intern("x").unwrap();
        let c1 = b.intern("y").unwrap();
        let dict = Arc::new(b);
        let p1 = ColumnVector::Dict {
            codes: vec![c0, NULL_CODE],
            dict: Arc::clone(&dict),
        };
        let p2 = ColumnVector::Dict {
            codes: vec![c1],
            dict: Arc::clone(&dict),
        };
        let merged = concat_columns(&[Cow::Owned(p1), Cow::Owned(p2)], 3).unwrap();
        match &merged {
            ColumnVector::Dict { codes, dict: d } => {
                assert!(Arc::ptr_eq(d, &dict), "shared dictionary must survive");
                assert_eq!(codes, &vec![c0, NULL_CODE, c1]);
            }
            other => panic!("expected Dict, got {other:?}"),
        }
    }

    /// A unique build hands every window on in its own row space, at
    /// any match rate; a duplicate build key gathers a dense chunk. Either
    /// way the rows are the matches, in probe order.
    #[test]
    fn a_unique_build_hands_windows_on_at_any_match_rate() {
        let probe_keys: Vec<Option<i64>> = (0..100).rev().map(Some).collect();
        let probe = vec![Chunk {
            batch: ColumnarBatch::from_columns(vec![int_col(&probe_keys)], 100).unwrap(),
            sel: None,
        }];
        for (build_keys, dup) in [(0..100, false), (0..24, false), (7..8, false), (7..8, true)] {
            let keys: Vec<Option<i64>> = build_keys.clone().map(Some).collect();
            let keys = if dup {
                [keys.clone(), keys].concat()
            } else {
                keys
            };
            let n = keys.len();
            let build = vec![Chunk {
                batch: ColumnarBatch::from_columns(vec![int_col(&keys)], n).unwrap(),
                sel: None,
            }];
            let sides = JoinSides {
                probe: &probe,
                build: &build,
                probe_req: &[true],
                build_req: &[true],
                probe_out: &[true],
                build_out: &[true],
            };
            let key = [EquiKey { left: 0, right: 0 }];
            let (guard, sink) = (ResourceGuard::unlimited(), MetricsSink::new());
            let out = join_columnar(&sides, &key, &None, &guard, &sink).unwrap();
            let [chunk] = out.as_slice() else {
                panic!("{n} build keys: {} chunks, not one window", out.len());
            };
            let expect = if dup { n } else { 100 };
            assert_eq!(chunk.batch.len(), expect, "{n} build keys, dup={dup}");
            let matched: Vec<Vec<Value>> = build_keys
                .rev()
                .flat_map(|k| vec![vec![Value::Int(k), Value::Int(k)]; 1 + usize::from(dup)])
                .collect();
            assert_eq!(chunk_rows(&out), matched, "{n} build keys");
        }
    }

    use crate::executor::tests::{oracle, plan1 as lazy_plan, plan2 as eager_plan, setup};
    use crate::executor::ExecOptions;
    use std::num::NonZeroUsize;

    fn canon(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    fn sharded_opts(shards: usize, combiner: bool) -> ExecOptions {
        ExecOptions {
            shards: NonZeroUsize::new(shards).unwrap(),
            combiner,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn sharded_runs_match_single_shard_rows_and_fingerprint() {
        let s = setup();
        for plan in [lazy_plan(&s), eager_plan(&s)] {
            let (expect, expect_p) = oracle(&s, &plan);
            for shards in [2usize, 4, 8] {
                for combiner in [false, true] {
                    let exec = Executor::with_options(&s, sharded_opts(shards, combiner));
                    let (got, p, _) = exec.execute_metered(&plan).unwrap();
                    assert_eq!(
                        canon(got.rows),
                        canon(expect.rows.clone()),
                        "shards={shards} combiner={combiner}"
                    );
                    assert_eq!(
                        p.counter_fingerprint(),
                        expect_p.counter_fingerprint(),
                        "shards={shards} combiner={combiner}"
                    );
                }
            }
        }
    }

    /// Rows that move belong to the operator that moves them: a gather
    /// (the sort's) and a repartition (the join's) are timed as that
    /// operator's kernel time, not left outside every timer.
    #[test]
    fn movements_are_timed_as_the_moving_operators_kernel_time() {
        use gbj_expr::Expr;
        let s = setup();
        let exec = Executor::with_options(&s, sharded_opts(4, false));
        let sorted = LogicalPlan::Sort {
            input: Box::new(crate::executor::tests::scan(&s, "Employee", "E")),
            keys: vec![(Expr::col("E", "DeptID"), true)],
        };
        let (_, p, _) = exec.execute_metered(&sorted).unwrap();
        let sort = p.find_operator("GatherSort").unwrap();
        assert!(sort.metrics.shipped_rows > 0 && sort.metrics.kernel_ns > 0);
        let (_, p, _) = exec.execute_metered(&lazy_plan(&s)).unwrap();
        let join = p.find_operator("ShardedHashJoin").unwrap();
        assert!(join.metrics.shipped_rows > 0 && join.metrics.kernel_ns > 0);
    }

    #[test]
    fn combiner_renames_the_below_join_aggregate_and_ships_partials() {
        let s = setup();
        let exec = Executor::with_options(&s, sharded_opts(4, true));
        let (_, p, _) = exec.execute_metered(&eager_plan(&s)).unwrap();
        let agg = p.find_operator("CombinerHashAggregate").unwrap();
        assert_eq!(agg.metrics.hash_entries, 4, "4 distinct DeptID groups");
        // Without the combiner flag the same site ships raw rows.
        let raw = Executor::with_options(&s, sharded_opts(4, false));
        let (_, p_raw, _) = raw.execute_metered(&eager_plan(&s)).unwrap();
        assert!(p_raw.find_operator("CombinerHashAggregate").is_none());
        assert!(p_raw.find_operator("ShardedHashAggregate").is_some());
    }

    #[test]
    fn the_top_level_aggregate_never_becomes_a_combiner() {
        let s = setup();
        let exec = Executor::with_options(&s, sharded_opts(4, true));
        let (_, p, _) = exec.execute_metered(&lazy_plan(&s)).unwrap();
        // Lazy shape: the aggregate sits above the join, so even with
        // the combiner enabled it must aggregate exactly once.
        assert!(p.find_operator("CombinerHashAggregate").is_none());
    }

    #[test]
    fn declared_partition_keys_make_the_scan_side_exchange_free() {
        let mut s = setup();
        s.declare_partition_key("Employee", &["DeptID"]).unwrap();
        s.declare_partition_key("Department", &["DeptID"]).unwrap();
        let exec = Executor::with_options(&s, sharded_opts(4, false));
        let (res, p, _) = exec.execute_metered(&lazy_plan(&s)).unwrap();
        let join = p.find_operator("ShardedHashJoin").unwrap();
        assert_eq!(
            (join.metrics.shipped_rows, join.metrics.shipped_bytes),
            (0, 0),
            "both sides arrive co-partitioned on the join key"
        );
        let (expect, _) = oracle(&s, &lazy_plan(&s));
        assert_eq!(canon(res.rows), canon(expect.rows));
    }

    /// The scan splits rows round-robin on the global row ordinal —
    /// across cursor batches — without a declared key, and by
    /// `GroupKey::shard` of the key columns (all NULL keys on one part)
    /// with one. Either way the parts hold the table's multiset.
    #[test]
    fn scan_split_is_round_robin_or_the_declared_key_hash() {
        use gbj_storage::{FaultConfig, FaultInjector};
        let mut s = setup();
        // Batches of three over seven employees: ordinals must not
        // restart at a batch boundary.
        s.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            batch_size: Some(3),
            ..FaultConfig::default()
        })));
        let plan = crate::executor::tests::scan(&s, "Employee", "E");
        let split = |s: &gbj_storage::Storage, n: usize| -> Vec<Vec<Vec<Value>>> {
            let exec = Executor::new(s);
            let dist = distribute(&plan, false, &|t| s.partition_key(t).map(<[usize]>::to_vec));
            let guard = ResourceGuard::unlimited();
            let (parts, _) = exec
                .run_chunks(&plan, &dist, &[true, true], n, &guard)
                .unwrap();
            parts.iter().map(|chunks| chunk_rows(chunks)).collect()
        };
        let all = split(&s, 1).remove(0);
        assert_eq!(all.len(), 7);
        for n in [2usize, 3, 4] {
            let parts = split(&s, n);
            for (i, row) in all.iter().enumerate() {
                let at = i / n;
                assert_eq!(parts[i % n].get(at), Some(row), "n={n} ordinal {i}");
            }
            assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 7);
        }
        s.declare_partition_key("Employee", &["DeptID"]).unwrap();
        for n in [2usize, 4, 8] {
            let parts = split(&s, n);
            for (p, rows) in parts.iter().enumerate() {
                for row in rows {
                    assert_eq!(GroupKey(vec![row[1].clone()]).shard(n), p, "n={n} {row:?}");
                }
            }
            assert_eq!(canon(parts.concat()), canon(all.clone()), "n={n}");
        }
    }
}
