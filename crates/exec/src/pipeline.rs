//! The batch-native pipeline: end-to-end columnar execution with late
//! materialization.
//!
//! When [`execution_path`](crate::execution_path) answers
//! [`ExecPath::Batch`](crate::ExecPath) — vectorized execution is on
//! and the *whole* plan passes the gate — the executor runs this
//! pipeline instead of the row engine: the scan produces
//! [`ColumnarBatch`]es directly
//! ([`gbj_storage::ScanCursor::next_columnar`], no intermediate row
//! vec), filters and probe phases carry row-id *selection vectors* over
//! shared batches instead of copying rows, string join/group keys hash
//! on dictionary codes ([`ColumnVector::Dict`]) or raw `i64`s instead
//! of cloned [`Value`]s, and payload columns materialize only at the
//! pipeline breakers (hash join, hash aggregate, sort) — or at the very
//! end, when the result set is assembled.
//!
//! **The row engine stays the oracle.** Every operator here reproduces
//! the row path's observable behaviour exactly:
//!
//! - *Results*: byte-identical rows in the same order.
//! - *Errors*: the gate admits only plans whose expressions are in the
//!   error-free vectorizable domain (see [`crate::vectorized`]) and
//!   whose aggregate arguments are evaluated row-major, so the first
//!   error — fault-injected scan failures included — is the same one
//!   the row engine would raise. Anything outside the gate takes the
//!   row engine wholesale; there is no per-operator mixing.
//! - *Counters*: the `[rows_in, rows_out, batches, hash_entries]`
//!   fingerprint, `state_bytes`, and the guard's rows/memory charges
//!   follow the row path call-for-call (same charge order, same
//!   per-entry byte formulas; the aggregate shares the row engine's
//!   [`Groups`] table), so profiles stay engine-invariant. Only the
//!   non-fingerprint `vectors`/`selected`/`kernel_ns` observability
//!   counters are specific to this path (the row engine reports 0).
//!
//! The pipeline is serial at every
//! [`ExecOptions::threads`](crate::ExecOptions) value: its breakers are
//! the columnar `join_columnar` / `aggregate_columnar`, and its profile
//! is identical at every thread count.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use gbj_expr::{Accumulator, BoundExpr};
use gbj_plan::{EquiKey, LogicalPlan};
use gbj_types::{internal_err, GroupKey, Result, Truth, Value};

use crate::aggregate::{
    compile_aggregates, new_accumulators, update_all, CompiledAggregate, Groups,
};
use crate::batch::{Bitmap, ColumnVector, ColumnarBatch, NULL_CODE};
use crate::executor::{bind_sort_keys, input_batches, sort_rows, Executor};
use crate::guard::{row_bytes, ResourceGuard};
use crate::join::bind_join;
use crate::metrics::MetricsSink;
use crate::result::ProfileNode;
use crate::vectorized::{eval_truth_vec, eval_value_vec, filter_selection, vectorizable};

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
    fn out_len(&self) -> usize {
        self.sel.as_ref().map_or(self.batch.len(), Vec::len)
    }

    /// Iterate live row ids in output order.
    fn indices(&self) -> SelIter<'_> {
        match &self.sel {
            Some(sel) => SelIter::Sel(sel.iter()),
            None => SelIter::All(0..self.batch.len()),
        }
    }
}

/// Iterator over a chunk's live row ids.
enum SelIter<'a> {
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
}

/// Total live rows across a chunk stream.
fn stream_len(chunks: &[Chunk]) -> usize {
    chunks.iter().map(Chunk::out_len).sum()
}

/// Materialize a chunk stream as rows (live rows only, in order).
fn chunk_rows(chunks: &[Chunk]) -> Vec<Vec<Value>> {
    let mut rows = Vec::with_capacity(stream_len(chunks));
    for ch in chunks {
        for i in ch.indices() {
            rows.push(ch.batch.columns().iter().map(|c| c.value(i)).collect());
        }
    }
    rows
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

/// Concatenate a chunk stream into one dense batch, compacting away
/// selection vectors. Columns whose `required` slot is `false` become
/// all-NULL placeholders (never read downstream); everything else is
/// gathered and merged variant-natively (typed vectors stay typed,
/// shared-dictionary columns keep their codes).
fn concat_chunks(chunks: &[Chunk], required: &[bool]) -> Result<ColumnarBatch> {
    let total = stream_len(chunks);
    if total > u32::MAX as usize {
        return Err(internal_err!(
            "batch of {total} rows exceeds selection-vector range"
        ));
    }
    let mut cols = Vec::with_capacity(required.len());
    for (c, req) in required.iter().enumerate() {
        if !*req {
            cols.push(ColumnVector::all_null(total));
            continue;
        }
        let mut parts = Vec::with_capacity(chunks.len());
        for ch in chunks {
            let col = ch.batch.column(c)?;
            parts.push(match &ch.sel {
                Some(sel) => col.gather(sel),
                None => col.clone(),
            });
        }
        cols.push(concat_columns(&parts, total));
    }
    ColumnarBatch::from_columns(cols, total)
}

/// Merge column parts of (ideally) one variant into a single vector.
/// Heterogeneous or foreign-dictionary parts decode through [`Value`]s.
fn concat_columns(parts: &[ColumnVector], total: usize) -> ColumnVector {
    fn merged_validity(parts: &[ColumnVector], total: usize) -> Bitmap {
        let mut v = Bitmap::new_all(total, true);
        let mut off = 0usize;
        for p in parts {
            for i in 0..p.len() {
                if !p.is_valid(i) {
                    v.set(off + i, false);
                }
            }
            off += p.len();
        }
        v
    }
    if parts.iter().all(|p| matches!(p, ColumnVector::Int { .. })) {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Int { values: v, .. } = p {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Int { values, validity };
    }
    if parts
        .iter()
        .all(|p| matches!(p, ColumnVector::Float { .. }))
    {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Float { values: v, .. } = p {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Float { values, validity };
    }
    if parts.iter().all(|p| matches!(p, ColumnVector::Bool { .. })) {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Bool { values: v, .. } = p {
                values.extend_from_slice(v);
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Bool { values, validity };
    }
    if parts.iter().all(|p| matches!(p, ColumnVector::Str { .. })) {
        let mut values = Vec::with_capacity(total);
        for p in parts {
            if let ColumnVector::Str { values: v, .. } = p {
                values.extend(v.iter().cloned());
            }
        }
        let validity = merged_validity(parts, total);
        return ColumnVector::Str { values, validity };
    }
    if let Some(ColumnVector::Dict { dict: first, .. }) = parts.first() {
        let shared = parts
            .iter()
            .all(|p| matches!(p, ColumnVector::Dict { dict, .. } if Arc::ptr_eq(dict, first)));
        if shared {
            let mut codes = Vec::with_capacity(total);
            for p in parts {
                if let ColumnVector::Dict { codes: c, .. } = p {
                    codes.extend_from_slice(c);
                }
            }
            return ColumnVector::Dict {
                codes,
                dict: Arc::clone(first),
            };
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
    /// Run `plan` batch-native and materialize the result rows at the
    /// very end. Callers must have checked that
    /// [`execution_path`](crate::execution_path) admits the plan.
    pub(crate) fn run_batched(
        &self,
        plan: &LogicalPlan,
        guard: &ResourceGuard,
    ) -> Result<(Vec<Vec<Value>>, ProfileNode)> {
        let required = vec![true; plan.schema()?.len()];
        let (chunks, profile) = self.run_chunks(plan, &required, guard)?;
        Ok((chunk_rows(&chunks), profile))
    }

    /// Recursively execute `plan`, producing a chunk stream. `required`
    /// flags which output columns the parent will read; operators may
    /// emit all-NULL placeholders for the rest (late materialization) —
    /// except scans, which always build every column so fault-injection
    /// counters stay identical to the row path.
    fn run_chunks(
        &self,
        plan: &LogicalPlan,
        required: &[bool],
        guard: &ResourceGuard,
    ) -> Result<(Vec<Chunk>, ProfileNode)> {
        match plan {
            LogicalPlan::Scan { table, schema, .. } => {
                let sink = self.sink();
                let timer = sink.start_timer();
                let mut cursor = self.storage.open_scan(table)?;
                if cursor.arity() != schema.len() {
                    return Err(internal_err!("scan schema arity mismatch for {table}"));
                }
                let mut chunks = Vec::new();
                let mut n = 0usize;
                while let Some(batch) = cursor.next_columnar()? {
                    guard.charge_rows(batch.len())?;
                    sink.add_batches(1);
                    sink.add_vectors(1);
                    n += batch.len();
                    chunks.push(Chunk { batch, sel: None });
                }
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), "Scan", n, vec![])
                    .with_metrics(sink.finish(n, n));
                Ok((chunks, profile))
            }

            LogicalPlan::Filter { input, predicate } => {
                let in_schema = input.schema()?;
                let bound = predicate.bind(&in_schema)?;
                let mut child_req = required.to_vec();
                child_req.resize(in_schema.len(), false);
                expr_columns(&bound, &mut child_req);
                let (in_chunks, child) = self.run_chunks(input, &child_req, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let n_in = stream_len(&in_chunks);
                let mut out_chunks = Vec::with_capacity(in_chunks.len());
                let mut out_count = 0usize;
                for ch in in_chunks {
                    guard.tick()?;
                    let kt = sink.start_timer();
                    sink.add_vectors(1);
                    let truths = eval_truth_vec(&bound, &ch.batch)?;
                    sink.record_kernel(kt);
                    let sel: Vec<u32> = match &ch.sel {
                        Some(sel) => sel
                            .iter()
                            .copied()
                            .filter(|&i| truths.get(i as usize) == Some(&Truth::True))
                            .collect(),
                        None => truths
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| **t == Truth::True)
                            .map(|(i, _)| i as u32)
                            .collect(),
                    };
                    out_count += sel.len();
                    out_chunks.push(Chunk {
                        batch: ch.batch,
                        sel: Some(sel),
                    });
                }
                sink.add_selected(out_count as u64);
                guard.charge_rows(out_count)?;
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), "Filter", out_count, vec![child])
                    .with_metrics(sink.finish(n_in, out_count));
                Ok((out_chunks, profile))
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
                let mut child_req = vec![false; in_schema.len()];
                for b in &bound {
                    expr_columns(b, &mut child_req);
                }
                let (in_chunks, child) = self.run_chunks(input, &child_req, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let n_in = stream_len(&in_chunks);
                let mut out_chunks = Vec::with_capacity(in_chunks.len());
                let mut out_count = 0usize;
                let mut seen: HashSet<GroupKey> = HashSet::new();
                for ch in in_chunks {
                    guard.tick()?;
                    let kt = sink.start_timer();
                    sink.add_vectors(1);
                    let cols: Vec<ColumnVector> = bound
                        .iter()
                        .map(|b| Ok(eval_value_vec(b, &ch.batch)?.into_owned()))
                        .collect::<Result<_>>()?;
                    sink.record_kernel(kt);
                    let len = ch.batch.len();
                    let out_batch = ColumnarBatch::from_columns(cols, len)?;
                    let sel = if *distinct {
                        let mut kept: Vec<u32> = Vec::new();
                        for i in ch.indices() {
                            let key =
                                GroupKey(out_batch.columns().iter().map(|c| c.value(i)).collect());
                            if seen.insert(key) {
                                kept.push(i as u32);
                            }
                        }
                        Some(kept)
                    } else {
                        ch.sel
                    };
                    out_count += sel.as_ref().map_or(len, Vec::len);
                    out_chunks.push(Chunk {
                        batch: out_batch,
                        sel,
                    });
                }
                guard.charge_rows(out_count)?;
                let op = if *distinct {
                    sink.add_hash_entries(out_count as u64);
                    "ProjectDistinct"
                } else {
                    "Project"
                };
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), op, out_count, vec![child])
                    .with_metrics(sink.finish(n_in, out_count));
                Ok((out_chunks, profile))
            }

            LogicalPlan::SubqueryAlias { input, .. } => {
                let (chunks, child) = self.run_chunks(input, required, guard)?;
                let sink = self.sink();
                sink.add_batches(1);
                let n = stream_len(&chunks);
                Ok((
                    chunks,
                    ProfileNode::new(plan.label(), "SubqueryAlias", n, vec![child])
                        .with_metrics(sink.finish(n, n)),
                ))
            }

            LogicalPlan::Join {
                left,
                right,
                condition,
            } => {
                let join = bind_join(left, right, condition)?;
                let l_arity = join.left_arity;
                let mut jreq = required.to_vec();
                jreq.resize(l_arity + join.right_arity, false);
                if let Some(rb) = &join.residual {
                    expr_columns(rb, &mut jreq);
                }
                let mut rreq = jreq.split_off(l_arity);
                let mut lreq = jreq;
                for k in &join.keys {
                    mark(&mut lreq, k.left);
                    mark(&mut rreq, k.right);
                }
                let (l_chunks, lp) = self.run_chunks(left, &lreq, guard)?;
                let (r_chunks, rp) = self.run_chunks(right, &rreq, guard)?;
                let l_len = stream_len(&l_chunks);
                let r_len = stream_len(&r_chunks);
                let sink = self.sink();
                sink.add_batches(input_batches(l_len) + input_batches(r_len));
                let out_chunk = join_columnar(
                    &l_chunks,
                    &r_chunks,
                    &lreq,
                    &rreq,
                    &join.keys,
                    &join.residual,
                    guard,
                    &sink,
                )?;
                let out_count = out_chunk.out_len();
                guard.charge_rows(out_count)?;
                let profile = ProfileNode::new(plan.label(), "HashJoin", out_count, vec![lp, rp])
                    .with_metrics(sink.finish(l_len + r_len, out_count));
                Ok((vec![out_chunk], profile))
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
                let (in_chunks, child) = self.run_chunks(input, &child_req, guard)?;
                let n_in = stream_len(&in_chunks);
                let sink = self.sink();
                sink.add_batches(input_batches(n_in));
                let rows = aggregate_columnar(&in_chunks, &group_bound, &compiled, guard, &sink)?;
                guard.charge_rows(rows.len())?;
                let n_out = rows.len();
                let batch = ColumnarBatch::from_rows(&rows, plan.schema()?.len())?;
                let profile = ProfileNode::new(plan.label(), "HashAggregate", n_out, vec![child])
                    .with_metrics(sink.finish(n_in, n_out));
                Ok((vec![Chunk { batch, sel: None }], profile))
            }

            // A breaker like the row engine's: materialize, then the
            // oracle's own stable sort with the oracle's charges.
            LogicalPlan::Sort { input, keys } => {
                let in_schema = input.schema()?;
                let bound = bind_sort_keys(keys, &in_schema)?;
                let mut child_req = required.to_vec();
                child_req.resize(in_schema.len(), false);
                for (b, _) in &bound {
                    expr_columns(b, &mut child_req);
                }
                let (in_chunks, child) = self.run_chunks(input, &child_req, guard)?;
                let rows = chunk_rows(&in_chunks);
                let n = rows.len();
                let sink = self.sink();
                sink.add_batches(input_batches(n));
                let timer = sink.start_timer();
                let rows = sort_rows(rows, &bound, guard)?;
                sink.record_build(timer);
                let batch = ColumnarBatch::from_rows(&rows, in_schema.len())?;
                let profile = ProfileNode::new(plan.label(), "Sort", n, vec![child])
                    .with_metrics(sink.finish(n, n));
                Ok((vec![Chunk { batch, sel: None }], profile))
            }

            LogicalPlan::CrossJoin { .. } => Err(internal_err!(
                "CrossJoin is not batch-native; execution_path() should have refused it"
            )),
        }
    }
}

/// The build-side index of the columnar hash join: `i64` codes for a
/// single typed-Int key, `u32` dictionary codes for a single dictionary
/// key, and `=ⁿ`-hashed [`GroupKey`]s otherwise. All three reproduce
/// the row path's search-condition semantics: NULL keys (invalid slots,
/// out-of-dictionary codes) are skipped on both sides.
enum JoinIndex {
    Int(HashMap<i64, Vec<u32>>),
    Dict(HashMap<u32, Vec<u32>>),
    Generic(HashMap<GroupKey, Vec<u32>>),
}

/// Serial columnar hash join: concatenate each side into one dense
/// batch, build on the right, probe with the left collecting `(l, r)`
/// row-id pairs, gather payload columns once per output, and apply the
/// residual as a selection vector. Counter and guard-charge order
/// mirror [`crate::join::hash_join`] call-for-call.
#[allow(clippy::too_many_arguments)]
fn join_columnar(
    l_chunks: &[Chunk],
    r_chunks: &[Chunk],
    lreq: &[bool],
    rreq: &[bool],
    keys: &[EquiKey],
    residual: &Option<BoundExpr>,
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Chunk> {
    // Concatenating each side into one dense batch is this operator's
    // vector kernel: it compacts upstream selection vectors and lines
    // the key columns up for code-native hashing.
    let kt = sink.start_timer();
    let lbatch = concat_chunks(l_chunks, lreq)?;
    let rbatch = concat_chunks(r_chunks, rreq)?;
    sink.add_vectors(2);
    sink.record_kernel(kt);
    let lkey_cols: Vec<&ColumnVector> = keys
        .iter()
        .map(|k| lbatch.column(k.left))
        .collect::<Result<_>>()?;
    let rkey_cols: Vec<&ColumnVector> = keys
        .iter()
        .map(|k| rbatch.column(k.right))
        .collect::<Result<_>>()?;

    let mut build_bytes = 0u64;
    let mut build_entries = 0u64;
    let build_timer = sink.start_timer();
    let built = (|| -> Result<JoinIndex> {
        Ok(match (lkey_cols.as_slice(), rkey_cols.as_slice()) {
            ([ColumnVector::Int { .. }], [ColumnVector::Int { values, validity }]) => {
                let per = row_bytes(&[Value::Int(0)]) + std::mem::size_of::<usize>() as u64;
                let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
                for (i, v) in values.iter().enumerate() {
                    guard.tick()?;
                    if !validity.get(i) {
                        continue;
                    }
                    build_bytes += per;
                    build_entries += 1;
                    guard.charge_memory(per)?;
                    map.entry(*v).or_default().push(i as u32);
                }
                JoinIndex::Int(map)
            }
            ([ColumnVector::Dict { .. }], [ColumnVector::Dict { codes, dict }]) => {
                let base = row_bytes(&[Value::str("")]) + std::mem::size_of::<usize>() as u64;
                let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
                for (i, c) in codes.iter().enumerate() {
                    guard.tick()?;
                    let Some(s) = dict.get(*c) else {
                        continue;
                    };
                    let per = base + s.len() as u64;
                    build_bytes += per;
                    build_entries += 1;
                    guard.charge_memory(per)?;
                    map.entry(*c).or_default().push(i as u32);
                }
                JoinIndex::Dict(map)
            }
            _ => {
                let mut map: HashMap<GroupKey, Vec<u32>> = HashMap::new();
                for i in 0..rbatch.len() {
                    guard.tick()?;
                    if rkey_cols.iter().any(|c| !c.is_valid(i)) {
                        continue;
                    }
                    let key = GroupKey(rkey_cols.iter().map(|c| c.value(i)).collect());
                    let per = row_bytes(&key.0) + std::mem::size_of::<usize>() as u64;
                    build_bytes += per;
                    build_entries += 1;
                    guard.charge_memory(per)?;
                    map.entry(key).or_default().push(i as u32);
                }
                JoinIndex::Generic(map)
            }
        })
    })();
    sink.record_build(build_timer);
    sink.add_hash_entries(build_entries);
    sink.add_state_bytes(build_bytes);

    let probe_timer = sink.start_timer();
    let probed = built.and_then(|index| {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        match (&index, lkey_cols.as_slice()) {
            (JoinIndex::Int(map), [ColumnVector::Int { values, validity }]) => {
                for (i, v) in values.iter().enumerate() {
                    guard.tick()?;
                    if !validity.get(i) {
                        continue;
                    }
                    if let Some(hits) = map.get(v) {
                        for &ri in hits {
                            guard.tick()?;
                            pairs.push((i as u32, ri));
                        }
                    }
                }
            }
            (JoinIndex::Dict(map), [ColumnVector::Dict { codes, dict }]) => {
                // Probe on raw codes when both sides share a dictionary;
                // otherwise remap left codes to right codes by decoded
                // string once, up front. Left strings the right side has
                // never seen map to NULL_CODE, which is never in `map`.
                let rdict = match rkey_cols.as_slice() {
                    [ColumnVector::Dict { dict: rd, .. }] => Arc::clone(rd),
                    _ => return Err(internal_err!("join build/probe key shape diverged")),
                };
                let remap: Option<Vec<u32>> = if Arc::ptr_eq(dict, &rdict) {
                    None
                } else {
                    Some(
                        (0..dict.len() as u32)
                            .map(|lc| {
                                dict.get(lc)
                                    .and_then(|s| rdict.code_of(s))
                                    .unwrap_or(NULL_CODE)
                            })
                            .collect(),
                    )
                };
                for (i, c) in codes.iter().enumerate() {
                    guard.tick()?;
                    if (*c as usize) >= dict.len() {
                        continue;
                    }
                    let rc = match &remap {
                        None => *c,
                        Some(m) => m.get(*c as usize).copied().unwrap_or(NULL_CODE),
                    };
                    if let Some(hits) = map.get(&rc) {
                        for &ri in hits {
                            guard.tick()?;
                            pairs.push((i as u32, ri));
                        }
                    }
                }
            }
            (JoinIndex::Generic(map), _) => {
                for i in 0..lbatch.len() {
                    guard.tick()?;
                    if lkey_cols.iter().any(|c| !c.is_valid(i)) {
                        continue;
                    }
                    let key = GroupKey(lkey_cols.iter().map(|c| c.value(i)).collect());
                    if let Some(hits) = map.get(&key) {
                        for &ri in hits {
                            guard.tick()?;
                            pairs.push((i as u32, ri));
                        }
                    }
                }
            }
            _ => return Err(internal_err!("join build/probe key shape diverged")),
        }
        Ok(pairs)
    });
    sink.record_probe(probe_timer);
    guard.release_memory(build_bytes);
    let pairs = probed?;

    if pairs.len() > u32::MAX as usize {
        return Err(internal_err!(
            "join output of {} rows exceeds selection-vector range",
            pairs.len()
        ));
    }
    let lsel: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let rsel: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let total = pairs.len();
    let mut cols = Vec::with_capacity(lreq.len() + rreq.len());
    for (c, col) in lbatch.columns().iter().enumerate() {
        cols.push(if lreq.get(c) == Some(&true) {
            col.gather(&lsel)
        } else {
            ColumnVector::all_null(total)
        });
    }
    for (c, col) in rbatch.columns().iter().enumerate() {
        cols.push(if rreq.get(c) == Some(&true) {
            col.gather(&rsel)
        } else {
            ColumnVector::all_null(total)
        });
    }
    let out = ColumnarBatch::from_columns(cols, total)?;
    let sel = match residual {
        Some(rb) => Some(filter_selection(rb, &out)?),
        None => None,
    };
    Ok(Chunk { batch: out, sel })
}

/// Serial columnar hash aggregate: stream chunks (no concatenation),
/// evaluating group keys — and, when every argument is vectorizable,
/// aggregate arguments — column-at-a-time, and group via the row
/// engine's [`Groups`] table keyed on raw codes. Non-vectorizable
/// arguments are evaluated row-major per live row, so the first error
/// is the row engine's. Counter and guard-charge order mirror
/// [`crate::aggregate::hash_aggregate`] call-for-call.
fn aggregate_columnar(
    chunks: &[Chunk],
    group_bound: &[BoundExpr],
    compiled: &[CompiledAggregate],
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    let args_vec = compiled
        .iter()
        .all(|c| c.arg.as_ref().is_none_or(vectorizable));
    // One chunk's evaluated aggregate-argument columns (`None` for
    // `COUNT(*)`), or `None` altogether on the row-major path.
    let arg_columns = |batch: &ColumnarBatch| -> Result<Option<Vec<Option<ColumnVector>>>> {
        if !args_vec {
            return Ok(None);
        }
        compiled
            .iter()
            .map(|c| match &c.arg {
                Some(a) => Ok(Some(eval_value_vec(a, batch)?.into_owned())),
                None => Ok(None),
            })
            .collect::<Result<_>>()
            .map(Some)
    };
    let feed = |accs: &mut [Accumulator],
                cols: &Option<Vec<Option<ColumnVector>>>,
                batch: &ColumnarBatch,
                i: usize|
     -> Result<()> {
        match cols {
            Some(cols) => cols.iter().zip(accs).try_for_each(|(col, acc)| {
                acc.update(&col.as_ref().map_or(Value::Int(1), |c| c.value(i)))
            }),
            None => {
                let row: Vec<Value> = batch.columns().iter().map(|c| c.value(i)).collect();
                update_all(compiled, accs, &row)
            }
        }
    };

    if group_bound.is_empty() {
        // Scalar aggregate: exactly one group, even over empty input.
        let scalar_timer = sink.start_timer();
        let mut accs = new_accumulators(compiled);
        for ch in chunks {
            let kt = sink.start_timer();
            let cols = arg_columns(&ch.batch)?;
            if cols.is_some() {
                sink.add_vectors(1);
                sink.record_kernel(kt);
            }
            for i in ch.indices() {
                guard.tick()?;
                feed(&mut accs, &cols, &ch.batch, i)?;
            }
        }
        sink.record_build(scalar_timer);
        return Ok(vec![accs.iter().map(Accumulator::finish).collect()]);
    }

    let build_timer = sink.start_timer();
    let mut groups = Groups::new(compiled, guard);
    let filled = chunks.iter().try_for_each(|ch| {
        let kt = sink.start_timer();
        sink.add_vectors(1);
        let key_cols: Vec<ColumnVector> = group_bound
            .iter()
            .map(|b| Ok(eval_value_vec(b, &ch.batch)?.into_owned()))
            .collect::<Result<_>>()?;
        let arg_cols = arg_columns(&ch.batch)?;
        sink.record_kernel(kt);
        groups.prepare(&key_cols);
        for i in ch.indices() {
            guard.tick()?;
            let slot = groups.slot(&key_cols, i)?;
            feed(groups.accs_mut(slot)?, &arg_cols, &ch.batch, i)?;
        }
        Ok(())
    });
    sink.record_build(build_timer);
    sink.add_hash_entries(groups.len() as u64);
    sink.add_state_bytes(groups.bytes());
    let probe_timer = sink.start_timer();
    let out = filled.map(|()| groups.finish());
    sink.record_probe(probe_timer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col(vals: &[Option<i64>]) -> ColumnVector {
        let values: Vec<Value> = vals
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect();
        ColumnVector::from_values(values.iter())
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
        let mut b = crate::batch::StringDictBuilder::default();
        let c0 = b.intern("x").unwrap();
        let c1 = b.intern("y").unwrap();
        let dict = Arc::new(b.finish());
        let p1 = ColumnVector::Dict {
            codes: vec![c0, NULL_CODE],
            dict: Arc::clone(&dict),
        };
        let p2 = ColumnVector::Dict {
            codes: vec![c1],
            dict: Arc::clone(&dict),
        };
        let merged = concat_columns(&[p1, p2], 3);
        match &merged {
            ColumnVector::Dict { codes, dict: d } => {
                assert!(Arc::ptr_eq(d, &dict), "shared dictionary must survive");
                assert_eq!(codes, &vec![c0, NULL_CODE, c1]);
            }
            other => panic!("expected Dict, got {other:?}"),
        }
    }
}
