//! Grouping and aggregation: the one hash aggregate, on both paths.
//!
//! Grouping uses SQL2's duplicate semantics — rows with NULL grouping
//! values form a group of their own ("NULL equals NULL", Section 4.2 of
//! the paper) — via [`GroupKey`]. With an empty grouping list this is a
//! scalar aggregate producing exactly one row (standard SQL); the
//! optimizer refuses the degenerate transformations where this
//! distinction would matter (see DESIGN.md).
//!
//! Every hash aggregate, on both execution paths, is the one [`Groups`]
//! table: a [`KeyMap`] from key to slot, the keys by slot in first-seen
//! order, and one state vector per aggregate indexed by slot
//! ([`AggStates`]). The row engine feeds it decoded keys and rows, one
//! at a time, through [`Accumulator`]s; the chunk pipeline feeds it a
//! typed key view and argument columns, a chunk at a time, in two
//! passes — slots for the live rows, then one typed loop per aggregate
//! — that reproduce the row fold exactly: floating-point sums add in
//! row order, and the error raised is the one at the smallest `(row,
//! aggregate)` position (DESIGN.md §11). The two paths drain it
//! differently too: the row engine as rows ([`Groups::finish`], through
//! `Accumulator::finish`), the pipeline as columns
//! ([`Groups::into_columns`]) — raw keys and typed state vectors leave
//! as the `ColumnVector`s they already are, cell for cell what `finish`
//! yields (DESIGN.md §15).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use gbj_expr::{Accumulator, AggState, AggregateCall, AggregateFunction, BoundExpr, Expr};
use gbj_types::{internal_err, Error, GroupKey, Result, Schema, Value};

use crate::batch::{Bitmap, ColumnVector, ColumnarBatch, StringDict, NULL_CODE};
use crate::guard::{row_bytes, ResourceGuard};
use crate::key::{KeyMap, KeyView, Nulls};
use crate::metrics::MetricsSink;

/// Estimated bytes of one aggregation-table entry beyond its key
/// (accumulator enum + table bookkeeping).
pub(crate) const ACC_ENTRY_BYTES: u64 = 48;

/// A compiled aggregate: the call (for accumulator construction) plus
/// its bound argument.
pub struct CompiledAggregate {
    /// The logical call.
    pub call: AggregateCall,
    /// The bound argument; `None` for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
}

impl CompiledAggregate {
    pub(crate) fn update(&self, acc: &mut Accumulator, row: &[Value]) -> Result<()> {
        match &self.arg {
            Some(expr) => acc.update(&expr.eval(row)?),
            // COUNT(*): feed a non-NULL dummy once per row.
            None => acc.update(&Value::Int(1)),
        }
    }
}

/// Bind a grouping list and its aggregate calls against the input
/// schema.
pub(crate) fn compile_aggregates(
    schema: &Schema,
    group_by: &[Expr],
    aggregates: &[(AggregateCall, String)],
) -> Result<(Vec<BoundExpr>, Vec<CompiledAggregate>)> {
    let group_bound = group_by
        .iter()
        .map(|e| e.bind(schema))
        .collect::<Result<_>>()?;
    let compiled = aggregates
        .iter()
        .map(|(call, _)| {
            let arg = call.arg.as_ref().map(|e| e.bind(schema)).transpose()?;
            Ok(CompiledAggregate {
                call: call.clone(),
                arg,
            })
        })
        .collect::<Result<_>>()?;
    Ok((group_bound, compiled))
}

/// Fresh accumulators, one per aggregate.
pub(crate) fn new_accumulators(aggregates: &[CompiledAggregate]) -> Vec<Accumulator> {
    aggregates.iter().map(|a| a.call.accumulator()).collect()
}

/// Feed `row` to every aggregate's accumulator.
pub(crate) fn update_all(
    aggregates: &[CompiledAggregate],
    accs: &mut [Accumulator],
    row: &[Value],
) -> Result<()> {
    for (agg, acc) in aggregates.iter().zip(accs) {
        agg.update(acc, row)?;
    }
    Ok(())
}

/// Evaluate the grouping expressions on `row` into an `=ⁿ` key.
pub(crate) fn group_key(group_exprs: &[BoundExpr], row: &[Value]) -> Result<GroupKey> {
    group_exprs
        .iter()
        .map(|e| e.eval(row))
        .collect::<Result<_>>()
        .map(GroupKey)
}

/// Where a chunk's aggregate arguments come from.
pub(crate) enum ChunkArgs<'a> {
    /// One evaluated column per aggregate (`None` for `COUNT(*)`).
    Columns(&'a [Option<Cow<'a, ColumnVector>>]),
    /// Some argument is outside the vectorizable domain: evaluate per
    /// row, row-major, on this batch's rows — so the first error is the
    /// row engine's.
    Rows(&'a ColumnarBatch),
}

/// One aggregate's states, indexed by group slot.
///
/// The typed variants are what the chunk fold runs its per-aggregate
/// loops over; [`Accumulator`] stays the definition: every typed
/// transition below reproduces `Accumulator::update` / `merge` on the
/// state [`AggStates::accumulator_at`] converts it to, an error is
/// *raised* by replaying the failing step on that accumulator, results
/// are read through `Accumulator::finish`, and whatever a typed vector
/// cannot hold (DISTINCT, strings, booleans, type-mixed columns, an
/// argument whose column type changes mid-stream) runs on `Accs`.
enum AggColumn {
    /// `COUNT(*)` / `COUNT(x)`.
    Count(Vec<i64>),
    /// `SUM` over `Int` columns: checked sum, any input yet.
    SumInt(Vec<(i64, bool)>),
    /// `SUM` over `Float` columns, added in row order from `0.0`.
    SumFloat(Vec<(f64, bool)>),
    /// `MIN` / `MAX` over `Int` columns.
    BestInt(Vec<Option<i64>>),
    /// `MIN` / `MAX` over `Float` columns (a NaN meeting another value
    /// is the oracle's "incomparable" error).
    BestFloat(Vec<Option<f64>>),
    /// `AVG` over `Int` and `Float` columns: float sum, input count.
    Avg(Vec<(f64, i64)>),
    /// `SUM` / `MIN` / `MAX` no non-NULL input has reached yet: the
    /// first column that brings one picks the variant.
    Pending,
    /// The general form, one [`Accumulator`] per slot.
    Accs(Vec<Accumulator>),
}

/// A typed argument column, as the typed loops see it.
enum ArgKind<'a> {
    Int(&'a [i64], &'a Bitmap),
    Float(&'a [f64], &'a Bitmap),
    /// A typed column without one valid row (the all-NULL placeholder
    /// included): no aggregate but `COUNT(*)` has anything to do.
    Empty,
    Other,
}

impl ArgKind<'_> {
    fn of(col: &ColumnVector) -> ArgKind<'_> {
        match col {
            typed if typed.validity().is_some_and(|v| v.count_valid() == 0) => ArgKind::Empty,
            ColumnVector::Int { values, validity } => ArgKind::Int(values, validity),
            ColumnVector::Float { values, validity } => ArgKind::Float(values, validity),
            _ => ArgKind::Other,
        }
    }
}

/// Call `step(slot, value)` for each `(slot, row)` pair whose cell is
/// valid, in order; the position of the first pair `step` refuses.
fn for_valid<T: Copy>(
    values: &[T],
    validity: &Bitmap,
    slots: &[u32],
    rows: impl Iterator<Item = usize>,
    mut step: impl FnMut(usize, T) -> bool,
) -> Option<usize> {
    let dense = validity.all_valid();
    for (pos, (&slot, i)) in slots.iter().zip(rows).enumerate() {
        let Some(&value) = values.get(i) else {
            continue;
        };
        if (dense || validity.get(i)) && !step(slot as usize, value) {
            return Some(pos);
        }
    }
    None
}

/// `MIN`/`MAX` step: keep the strictly better value, like
/// `Accumulator::update`; `None` when the two do not compare.
fn better<T: PartialOrd + Copy>(best: &mut Option<T>, value: T, max: bool) -> bool {
    let Some(current) = *best else {
        *best = Some(value);
        return true;
    };
    match value.partial_cmp(&current) {
        None => return false,
        Some(Ordering::Less) if !max => *best = Some(value),
        Some(Ordering::Greater) if max => *best = Some(value),
        Some(_) => {}
    }
    true
}

fn add_checked((sum, any): &mut (i64, bool), value: i64) -> bool {
    match sum.checked_add(value) {
        Some(total) => {
            *sum = total;
            *any = true;
            true
        }
        None => false,
    }
}

/// Every aggregate's states for one table: the column-wise accumulators.
pub(crate) struct AggStates<'a> {
    aggregates: &'a [CompiledAggregate],
    cols: Vec<AggColumn>,
    /// Slots held: every column is this long (`Pending` holds none).
    len: usize,
}

/// The first failure of a two-pass step, at `(position, aggregate)`.
type FirstError = Option<(usize, Error)>;

impl<'a> AggStates<'a> {
    /// States fed through [`Value`]s, one row at a time: the row
    /// engine's, and the pipeline's for arguments outside the
    /// vectorizable domain.
    pub(crate) fn general(aggregates: &'a [CompiledAggregate]) -> AggStates<'a> {
        let cols = aggregates.iter().map(|_| AggColumn::Accs(Vec::new()));
        AggStates {
            aggregates,
            cols: cols.collect(),
            len: 0,
        }
    }

    /// States fed whole argument columns: typed wherever the function
    /// allows.
    pub(crate) fn typed(aggregates: &'a [CompiledAggregate]) -> AggStates<'a> {
        let cols = aggregates.iter().map(|agg| match agg.call.func {
            _ if agg.call.distinct => AggColumn::Accs(Vec::new()),
            AggregateFunction::CountStar | AggregateFunction::Count => AggColumn::Count(Vec::new()),
            AggregateFunction::Avg => AggColumn::Avg(Vec::new()),
            AggregateFunction::Sum | AggregateFunction::Min | AggregateFunction::Max => {
                AggColumn::Pending
            }
        });
        AggStates {
            aggregates,
            cols: cols.collect(),
            len: 0,
        }
    }

    /// Hold `len` slots, the new ones in their initial state.
    pub(crate) fn grow(&mut self, len: usize) {
        self.len = len;
        for (col, agg) in self.cols.iter_mut().zip(self.aggregates) {
            match col {
                AggColumn::Count(v) => v.resize(len, 0),
                AggColumn::SumInt(v) => v.resize(len, (0, false)),
                AggColumn::SumFloat(v) => v.resize(len, (0.0, false)),
                AggColumn::BestInt(v) => v.resize(len, None),
                AggColumn::BestFloat(v) => v.resize(len, None),
                AggColumn::Avg(v) => v.resize(len, (0.0, 0)),
                AggColumn::Pending => {}
                AggColumn::Accs(v) => v.resize_with(len, || agg.call.accumulator()),
            }
        }
    }

    /// Slot `slot` of aggregate `j` as the accumulator it stands for.
    fn accumulator_at(&self, j: usize, slot: usize) -> Result<Cow<'_, Accumulator>> {
        let missing = || internal_err!("aggregate {j} has no slot {slot}");
        let (col, agg) = self
            .cols
            .get(j)
            .zip(self.aggregates.get(j))
            .ok_or_else(missing)?;
        let func = agg.call.func;
        let state = match col {
            AggColumn::Accs(accs) => return accs.get(slot).map(Cow::Borrowed).ok_or_else(missing),
            AggColumn::Pending => return Ok(Cow::Owned(agg.call.accumulator())),
            AggColumn::Count(v) => AggState::Count(*v.get(slot).ok_or_else(missing)?),
            AggColumn::SumInt(v) => {
                let (sum, any) = *v.get(slot).ok_or_else(missing)?;
                AggState::SumInt { sum, any }
            }
            // A SUM is an integer sum until its first float arrives.
            AggColumn::SumFloat(v) => match *v.get(slot).ok_or_else(missing)? {
                (sum, true) => AggState::SumFloat { sum, any: true },
                (_, false) => AggState::SumInt { sum: 0, any: false },
            },
            AggColumn::BestInt(v) => {
                AggState::MinMax(v.get(slot).ok_or_else(missing)?.map(Value::Int))
            }
            AggColumn::BestFloat(v) => {
                AggState::MinMax(v.get(slot).ok_or_else(missing)?.map(Value::Float))
            }
            AggColumn::Avg(v) => {
                let (sum, count) = *v.get(slot).ok_or_else(missing)?;
                AggState::Avg { sum, count }
            }
        };
        Ok(Cow::Owned(Accumulator::resume(func, state)))
    }

    /// Turn aggregate `j` into its general form, slot for slot.
    fn generalize(&mut self, j: usize) -> Result<&mut Vec<Accumulator>> {
        if !matches!(self.cols.get(j), Some(AggColumn::Accs(_))) {
            let accs = (0..self.len)
                .map(|slot| self.accumulator_at(j, slot).map(Cow::into_owned))
                .collect::<Result<_>>()?;
            if let Some(col) = self.cols.get_mut(j) {
                *col = AggColumn::Accs(accs);
            }
        }
        match self.cols.get_mut(j) {
            Some(AggColumn::Accs(accs)) => Ok(accs),
            _ => Err(internal_err!("aggregate {j} out of range")),
        }
    }

    /// The error the oracle raises for the step the typed loop of
    /// aggregate `j` refused: replay it on the accumulator.
    fn replay_update(&self, j: usize, slot: usize, value: &Value) -> Error {
        let replayed = self
            .accumulator_at(j, slot)
            .and_then(|acc| acc.into_owned().update(value));
        replayed
            .err()
            .unwrap_or_else(|| internal_err!("aggregate {j}: the typed fold refused {value}"))
    }

    /// Feed one row to every aggregate of `slot`, in aggregate order —
    /// the row engine's step, errors included.
    pub(crate) fn update_row(&mut self, slot: usize, row: &[Value]) -> Result<()> {
        let aggregates = self.aggregates;
        for (j, agg) in aggregates.iter().enumerate() {
            let acc = self
                .generalize(j)?
                .get_mut(slot)
                .ok_or_else(|| internal_err!("group slot {slot} out of bounds"))?;
            agg.update(acc, row)?;
        }
        Ok(())
    }

    /// Feed a chunk, one aggregate at a time: `slots` holds the slot of
    /// each row of `rows`, `args` the argument column of each
    /// aggregate. Returns the failure at the smallest `(position,
    /// aggregate)`, which is the one a row-major fold of the same rows
    /// meets first.
    pub(crate) fn update_chunk(
        &mut self,
        slots: &[u32],
        rows: impl Iterator<Item = usize> + Clone,
        args: &[Option<Cow<'_, ColumnVector>>],
    ) -> Result<FirstError> {
        let mut first: FirstError = None;
        // Past a failure only earlier rows can still matter.
        let mut live = slots;
        for (j, arg) in args.iter().enumerate() {
            let failed = self.update_column(j, live, rows.clone(), arg.as_deref())?;
            if let Some((pos, error)) = failed {
                live = live.get(..pos).unwrap_or(live);
                first = Some((pos, error));
            }
        }
        Ok(first)
    }

    fn update_column(
        &mut self,
        j: usize,
        slots: &[u32],
        rows: impl Iterator<Item = usize> + Clone,
        arg: Option<&ColumnVector>,
    ) -> Result<FirstError> {
        let out_of_range = || internal_err!("aggregate {j} out of range");
        let func = self.aggregates.get(j).ok_or_else(out_of_range)?.call.func;
        let max = func == AggregateFunction::Max;
        let kind = arg.map_or(ArgKind::Other, ArgKind::of);
        let len = self.len;
        let col = self.cols.get_mut(j).ok_or_else(out_of_range)?;
        if let (AggColumn::Pending, ArgKind::Int(..) | ArgKind::Float(..)) = (&*col, &kind) {
            *col = match (func, &kind) {
                (AggregateFunction::Sum, ArgKind::Int(..)) => {
                    AggColumn::SumInt(vec![(0, false); len])
                }
                (AggregateFunction::Sum, _) => AggColumn::SumFloat(vec![(0.0, false); len]),
                (_, ArgKind::Int(..)) => AggColumn::BestInt(vec![None; len]),
                _ => AggColumn::BestFloat(vec![None; len]),
            };
        }
        let refused = match (col, kind) {
            (AggColumn::Count(counts), kind) => {
                // COUNT(*) and an all-valid column count every row.
                let every = match (arg, &kind) {
                    (None, _) => true,
                    (_, ArgKind::Int(_, ok) | ArgKind::Float(_, ok)) => ok.all_valid(),
                    _ => false,
                };
                for (&slot, i) in slots.iter().zip(rows) {
                    if every || arg.is_some_and(|col| col.is_valid(i)) {
                        if let Some(n) = counts.get_mut(slot as usize) {
                            *n += 1;
                        }
                    }
                }
                return Ok(None);
            }
            (_, ArgKind::Empty) => return Ok(None),
            (AggColumn::SumInt(sums), ArgKind::Int(values, ok)) => {
                for_valid(values, ok, slots, rows.clone(), |slot, v| {
                    sums.get_mut(slot).is_none_or(|state| add_checked(state, v))
                })
            }
            (AggColumn::SumFloat(sums), ArgKind::Float(values, ok)) => {
                for_valid(values, ok, slots, rows.clone(), |slot, v| {
                    if let Some((sum, any)) = sums.get_mut(slot) {
                        *sum += v;
                        *any = true;
                    }
                    true
                })
            }
            (AggColumn::BestInt(best), ArgKind::Int(values, ok)) => {
                for_valid(values, ok, slots, rows.clone(), |slot, v| {
                    best.get_mut(slot).is_none_or(|b| better(b, v, max))
                })
            }
            (AggColumn::BestFloat(best), ArgKind::Float(values, ok)) => {
                for_valid(values, ok, slots, rows.clone(), |slot, v| {
                    best.get_mut(slot).is_none_or(|b| better(b, v, max))
                })
            }
            (AggColumn::Avg(avgs), kind @ (ArgKind::Int(..) | ArgKind::Float(..))) => {
                let mut add = |slot: usize, v: f64| {
                    if let Some((sum, count)) = avgs.get_mut(slot) {
                        *sum += v;
                        *count += 1;
                    }
                    true
                };
                match kind {
                    ArgKind::Int(values, ok) => {
                        for_valid(values, ok, slots, rows.clone(), |slot, v| {
                            add(slot, v as f64)
                        })
                    }
                    ArgKind::Float(values, ok) => for_valid(values, ok, slots, rows.clone(), add),
                    ArgKind::Empty | ArgKind::Other => None,
                }
            }
            // The general form: this column is not one the typed state
            // can take (or the state is general already).
            _ => {
                let accs = self.generalize(j)?;
                for (pos, (&slot, i)) in slots.iter().zip(rows).enumerate() {
                    let acc = accs
                        .get_mut(slot as usize)
                        .ok_or_else(|| internal_err!("group slot {slot} out of bounds"))?;
                    // COUNT(*): a non-NULL dummy once per row.
                    let fed = acc.update(&arg.map_or(Value::Int(1), |col| col.value(i)));
                    if let Err(error) = fed {
                        return Ok(Some((pos, error)));
                    }
                }
                return Ok(None);
            }
        };
        Ok(refused.map(|pos| {
            let at = slots.get(pos).zip(rows.clone().nth(pos));
            let error = match (at, arg) {
                (Some((&slot, i)), Some(col)) => {
                    self.replay_update(j, slot as usize, &col.value(i))
                }
                _ => internal_err!("aggregate {j}: refused position {pos} out of range"),
            };
            (pos, error)
        }))
    }

    /// Merge slot `src[k]` of `other` into slot `dst[k]`, for every `k`
    /// in order, one aggregate at a time — `Accumulator::merge`, typed
    /// where both sides are (through the accumulators themselves costs
    /// a tenth of a `scaleout` `fanin_key` read). Returns the failure at
    /// the smallest `(position, aggregate)`.
    pub(crate) fn merge_from(
        &mut self,
        other: &AggStates<'_>,
        src: &[u32],
        dst: &[u32],
    ) -> Result<FirstError> {
        let mut first: FirstError = None;
        // Past a failure only earlier pairs can still matter.
        let mut pairs = src.len().min(dst.len());
        for j in 0..self.cols.len() {
            let (src, dst) = (
                src.get(..pairs).unwrap_or(src),
                dst.get(..pairs).unwrap_or(dst),
            );
            if let Some((pos, error)) = self.merge_column(j, other, src, dst)? {
                pairs = pos;
                first = Some((pos, error));
            }
        }
        Ok(first)
    }

    fn merge_column(
        &mut self,
        j: usize,
        other: &AggStates<'_>,
        src: &[u32],
        dst: &[u32],
    ) -> Result<FirstError> {
        /// Pair up `(mine[dst[k]], theirs[src[k]])`; the first `k`
        /// whose `step` refuses.
        fn zip_slots<T: Copy>(
            mine: &mut [T],
            theirs: &[T],
            src: &[u32],
            dst: &[u32],
            mut step: impl FnMut(&mut T, T) -> bool,
        ) -> Option<usize> {
            src.iter().zip(dst).position(|(&s, &d)| {
                match (mine.get_mut(d as usize), theirs.get(s as usize)) {
                    (Some(into), Some(&from)) => !step(into, from),
                    _ => false,
                }
            })
        }
        let out_of_range = || internal_err!("aggregate {j} out of range");
        let max =
            self.aggregates.get(j).ok_or_else(out_of_range)?.call.func == AggregateFunction::Max;
        let theirs = other.cols.get(j).ok_or_else(out_of_range)?;
        let len = self.len;
        let mine = self.cols.get_mut(j).ok_or_else(out_of_range)?;
        if let AggColumn::Pending = mine {
            *mine = match theirs {
                AggColumn::SumInt(_) => AggColumn::SumInt(vec![(0, false); len]),
                AggColumn::SumFloat(_) => AggColumn::SumFloat(vec![(0.0, false); len]),
                AggColumn::BestInt(_) => AggColumn::BestInt(vec![None; len]),
                AggColumn::BestFloat(_) => AggColumn::BestFloat(vec![None; len]),
                _ => AggColumn::Pending,
            };
        }
        let refused = match (mine, theirs) {
            (_, AggColumn::Pending) => None,
            (AggColumn::Count(a), AggColumn::Count(b)) => zip_slots(a, b, src, dst, |n, m| {
                *n += m;
                true
            }),
            (AggColumn::SumInt(a), AggColumn::SumInt(b)) => {
                zip_slots(a, b, src, dst, |into, (sum, any)| {
                    !any || add_checked(into, sum)
                })
            }
            (AggColumn::SumFloat(a), AggColumn::SumFloat(b)) => {
                zip_slots(a, b, src, dst, |into, (sum, any)| {
                    if any {
                        into.0 += sum;
                        into.1 = true;
                    }
                    true
                })
            }
            (AggColumn::BestInt(a), AggColumn::BestInt(b)) => {
                zip_slots(a, b, src, dst, |into, from| {
                    from.is_none_or(|v| better(into, v, max))
                })
            }
            (AggColumn::BestFloat(a), AggColumn::BestFloat(b)) => {
                zip_slots(a, b, src, dst, |into, from| {
                    from.is_none_or(|v| better(into, v, max))
                })
            }
            (AggColumn::Avg(a), AggColumn::Avg(b)) => {
                zip_slots(a, b, src, dst, |into, (sum, count)| {
                    into.0 += sum;
                    into.1 += count;
                    true
                })
            }
            // Two shapes of one aggregate (or the general form): merge
            // through the accumulators themselves.
            _ => {
                let accs = self.generalize(j)?;
                for (pos, (&s, &d)) in src.iter().zip(dst).enumerate() {
                    let into = accs
                        .get_mut(d as usize)
                        .ok_or_else(|| internal_err!("group slot {d} out of bounds"))?;
                    if let Err(error) = into.merge(other.accumulator_at(j, s as usize)?.as_ref()) {
                        return Ok(Some((pos, error)));
                    }
                }
                None
            }
        };
        // The refused pair's error is the one `Accumulator::merge` raises.
        let Some((pos, (&s, &d))) =
            refused.and_then(|pos| Some(pos).zip(src.get(pos).zip(dst.get(pos))))
        else {
            return Ok(None);
        };
        let mut into = self.accumulator_at(j, d as usize)?.into_owned();
        let replayed = into.merge(other.accumulator_at(j, s as usize)?.as_ref());
        let error = replayed
            .err()
            .unwrap_or_else(|| internal_err!("aggregate {j}: the typed merge refused pair {pos}"));
        Ok(Some((pos, error)))
    }

    /// Drain the results as one column per aggregate, in aggregate
    /// order — `Accumulator::finish` of every slot, without building
    /// the accumulators: a typed state vector *is* its result column
    /// once its "no input yet" flags are read as validity. The general
    /// form goes through `finish` itself.
    pub(crate) fn take_columns(&mut self) -> Result<Vec<ColumnVector>> {
        /// A typed column from one optional cell per slot.
        fn column<T: Default>(
            cells: impl Iterator<Item = Option<T>>,
            wrap: impl Fn(Vec<T>, Bitmap) -> ColumnVector,
        ) -> ColumnVector {
            let mut validity = Bitmap::new_all(0, true);
            let values = cells
                .map(|cell| {
                    validity.push(cell.is_some());
                    cell.unwrap_or_default()
                })
                .collect();
            wrap(values, validity)
        }
        let int = |values, validity| ColumnVector::Int { values, validity };
        let float = |values, validity| ColumnVector::Float { values, validity };
        let len = self.len;
        let drained = std::mem::take(&mut self.cols).into_iter().map(|col| {
            Ok(match col {
                AggColumn::Count(counts) => ColumnVector::Int {
                    validity: Bitmap::new_all(counts.len(), true),
                    values: counts,
                },
                AggColumn::SumInt(sums) => {
                    column(sums.into_iter().map(|(s, any)| any.then_some(s)), int)
                }
                AggColumn::SumFloat(sums) => {
                    column(sums.into_iter().map(|(s, any)| any.then_some(s)), float)
                }
                AggColumn::BestInt(best) => column(best.into_iter(), int),
                AggColumn::BestFloat(best) => column(best.into_iter(), float),
                AggColumn::Avg(avgs) => {
                    let mean = |(sum, count): (f64, i64)| (count != 0).then(|| sum / count as f64);
                    column(avgs.into_iter().map(mean), float)
                }
                AggColumn::Pending => ColumnVector::all_null(len),
                AggColumn::Accs(accs) => {
                    let results: Vec<Value> = accs.iter().map(Accumulator::finish).collect();
                    ColumnVector::from_values(results.iter())?
                }
            })
        });
        drained.collect()
    }

    /// The aggregate results of `slot`, in aggregate order.
    pub(crate) fn finish_slot(&self, slot: usize, row: &mut Vec<Value>) {
        for j in 0..self.cols.len() {
            let result = self.accumulator_at(j, slot).map(|acc| acc.finish());
            row.push(result.unwrap_or(Value::Null));
        }
    }
}

/// Charge a new group's `entry_bytes` before it counts; `bytes` keeps
/// what the table holds, failed charge included (released on drop).
fn charge(guard: &ResourceGuard, bytes: &mut u64, entry_bytes: u64) -> Result<()> {
    *bytes += entry_bytes;
    guard.charge_memory(entry_bytes)
}

/// What a two-pass step raises: a pass-2 failure sits at a row before
/// the charge that stopped pass 1, so it comes first.
fn first_of(failed: FirstError, unplaced: Option<Error>) -> Result<()> {
    match failed.map(|(_, error)| error).or(unplaced) {
        Some(error) => Err(error),
        None => Ok(()),
    }
}

/// Slot → key, in first-seen order, in the shape the table is keyed on:
/// a raw-keyed table holds raw keys and decodes none before it is
/// drained.
enum SlotKeys {
    Int {
        values: Vec<i64>,
        validity: Bitmap,
    },
    Dict {
        codes: Vec<u32>,
        dict: Arc<StringDict>,
    },
    Decoded(Vec<GroupKey>),
}

impl SlotKeys {
    fn view(&self) -> KeyView<'_> {
        match self {
            SlotKeys::Int { values, validity } => KeyView::Int { values, validity },
            SlotKeys::Dict { codes, dict } => KeyView::Dict { codes, dict },
            SlotKeys::Decoded(keys) => KeyView::Keys(keys),
        }
    }

    /// Append key `i` of `view` (whose shape the table adopted).
    fn push(&mut self, view: &KeyView<'_>, i: usize) {
        match self {
            SlotKeys::Int { values, validity } => {
                let raw = view.raw(i);
                values.push(raw.unwrap_or_default());
                validity.push(raw.is_some());
            }
            SlotKeys::Dict { codes, .. } => {
                let code = view.raw(i).and_then(|c| u32::try_from(c).ok());
                codes.push(code.unwrap_or(NULL_CODE));
            }
            SlotKeys::Decoded(keys) => keys.push(view.decode(i)),
        }
    }
}

/// The one aggregation table behind every hash-aggregate operator:
/// groups under `=ⁿ` (NULL equals NULL) in first-seen order, which is
/// the output order — a [`KeyMap`] from key to slot, the keys by slot,
/// and the column-wise [`AggStates`]. Row operators feed it decoded
/// keys and rows ([`Groups::fold`]); the chunk pipeline feeds it key
/// views and argument columns ([`Groups::fold_chunk`]) and merges whole
/// tables slot-wise ([`Groups::merge_picked`]). Whatever it charged to
/// the guard is released on drop, so error paths need no bookkeeping.
pub(crate) struct Groups<'a> {
    guard: &'a ResourceGuard,
    /// Key → slot: a group's slot is its entry number.
    map: KeyMap<()>,
    keys: SlotKeys,
    states: AggStates<'a>,
    bytes: u64,
    /// Scratch: the slot of each row of the chunk being folded.
    slots: Vec<u32>,
}

impl Drop for Groups<'_> {
    fn drop(&mut self) {
        self.guard.release_memory(self.bytes);
    }
}

impl<'a> Groups<'a> {
    fn with_states(states: AggStates<'a>, guard: &'a ResourceGuard) -> Groups<'a> {
        Groups {
            guard,
            map: KeyMap::new(),
            keys: SlotKeys::Decoded(Vec::new()),
            states,
            bytes: 0,
            slots: Vec::new(),
        }
    }

    /// A table fed row by row (see [`AggStates::general`]).
    pub(crate) fn new(aggregates: &'a [CompiledAggregate], guard: &'a ResourceGuard) -> Groups<'a> {
        Groups::with_states(AggStates::general(aggregates), guard)
    }

    /// A table fed chunk by chunk (see [`AggStates::typed`]).
    pub(crate) fn typed(
        aggregates: &'a [CompiledAggregate],
        guard: &'a ResourceGuard,
    ) -> Groups<'a> {
        Groups::with_states(AggStates::typed(aggregates), guard)
    }

    /// Distinct groups so far.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Bytes this table has charged to the guard and still holds.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Give the charge back early: the table stays readable (a combiner
    /// ships it) but no longer counts as operator state.
    pub(crate) fn release(&mut self) {
        self.guard.release_memory(std::mem::take(&mut self.bytes));
    }

    /// What a new entry charges beyond its key: [`ACC_ENTRY_BYTES`] per
    /// aggregate.
    fn state_bytes(&self) -> u64 {
        ACC_ENTRY_BYTES * self.states.aggregates.len().max(1) as u64
    }

    /// Key the table the way `view` is keyed for rows `rows`, if it can:
    /// an empty table takes the view's raw shape, a raw table meeting
    /// another shape decodes its keys (slots do not move).
    fn adopt(&mut self, view: &KeyView<'_>, rows: impl Iterator<Item = usize>) {
        self.map.adopt(view, rows);
        // An empty table is keyed afresh (the map just was); a table
        // whose map was demoted decodes the keys it holds.
        if self.map.len() == 0 {
            self.keys = match view {
                KeyView::Int { .. } => SlotKeys::Int {
                    values: Vec::new(),
                    validity: Bitmap::new_all(0, true),
                },
                KeyView::Dict { dict, .. } => SlotKeys::Dict {
                    codes: Vec::new(),
                    dict: Arc::clone(dict),
                },
                KeyView::Columns(_) | KeyView::Keys(_) => SlotKeys::Decoded(Vec::new()),
            };
        } else if !self.map.is_raw() {
            self.decode_keys();
        }
    }

    /// Hold the keys decoded (a no-op once they are).
    fn decode_keys(&mut self) {
        if !matches!(self.keys, SlotKeys::Decoded(_)) {
            let view = self.keys.view();
            let decoded = (0..self.map.len()).map(|slot| view.decode(slot)).collect();
            self.keys = SlotKeys::Decoded(decoded);
        }
    }

    /// Fold one input row into the group `key`, charging a new group
    /// before it counts: decoded-key `row_bytes` + [`Groups::state_bytes`].
    pub(crate) fn fold(&mut self, key: GroupKey, row: &[Value]) -> Result<()> {
        let slot = match self.map.get_key(&key) {
            Some(slot) => slot,
            None => {
                self.decode_keys();
                let entry_bytes = row_bytes(&key.0) + self.state_bytes();
                charge(self.guard, &mut self.bytes, entry_bytes)?;
                if let SlotKeys::Decoded(keys) = &mut self.keys {
                    keys.push(key.clone());
                }
                let slot = self.map.insert_key(key, ())?;
                self.states.grow(self.map.len());
                slot
            }
        };
        self.states.update_row(slot as usize, row)
    }

    /// Fold every row of `rows` into its group under `group_exprs`,
    /// polling the guard per row.
    pub(crate) fn fold_rows(
        &mut self,
        group_exprs: &[BoundExpr],
        rows: &[Vec<Value>],
    ) -> Result<()> {
        rows.iter().try_for_each(|row| {
            self.guard.tick()?;
            self.fold(group_key(group_exprs, row)?, row)
        })
    }

    /// Fold the rows `rows` of one chunk, keyed through `keys`, polling
    /// the guard once. Two passes: the slot of every row (new groups
    /// charged in row order), then one loop per aggregate over its
    /// argument column — or, for arguments evaluated per row, one
    /// row-major loop. The error returned is the one at the smallest
    /// `(row, aggregate)` position — a new group's memory charge comes
    /// before that row's first aggregate — which is the first error of
    /// a row-major fold.
    pub(crate) fn fold_chunk(
        &mut self,
        keys: &KeyView<'_>,
        args: ChunkArgs<'_>,
        rows: impl ExactSizeIterator<Item = usize> + Clone,
    ) -> Result<()> {
        self.guard.tick_rows(rows.len())?;
        self.adopt(keys, rows.clone());
        let (slots, unplaced) = self.place(keys, rows.clone());
        let first = match args {
            ChunkArgs::Columns(cols) => self.states.update_chunk(&slots, rows, cols),
            // Row-major over the placed rows: the first error is the
            // first failing row's.
            ChunkArgs::Rows(batch) => {
                Ok(slots
                    .iter()
                    .zip(rows)
                    .enumerate()
                    .find_map(|(pos, (&slot, i))| {
                        let updated = self.states.update_row(slot as usize, &batch.row(i));
                        updated.err().map(|error| (pos, error))
                    }))
            }
        };
        self.slots = slots;
        first_of(first?, unplaced)
    }

    /// Pass 1 of a two-pass step: the slot of each key `rows` names in
    /// `view` (adopted), new groups created — and charged, decoded-key
    /// `row_bytes` + [`Groups::state_bytes`] each — in order, in one
    /// typed loop ([`KeyMap::place`]). Stops at a charge that fails; the
    /// states are grown to match.
    fn place(
        &mut self,
        view: &KeyView<'_>,
        rows: impl Iterator<Item = usize>,
    ) -> (Vec<u32>, Option<Error>) {
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        slots.reserve(rows.size_hint().0);
        let state_bytes = self.state_bytes();
        let Groups {
            guard,
            map,
            keys,
            bytes,
            ..
        } = self;
        let placed = map.place(view, rows, Nulls::Group, |i, slot, (), new| {
            if new {
                keys.push(view, i);
                charge(guard, bytes, view.key_bytes(i) + state_bytes)?;
            }
            slots.push(slot);
            Ok(())
        });
        self.states.grow(self.map.len());
        (slots, placed.err())
    }

    /// Merge shipped partials: the groups `picked` (slots of `other`, in
    /// order) into this table through `Accumulator::merge`, keyed raw
    /// while both tables are. A group this table has not seen is charged
    /// like any new entry. Errors are ordered as in
    /// [`Groups::fold_chunk`], one partial being one row.
    pub(crate) fn merge_picked(&mut self, other: &Groups<'_>, picked: &[u32]) -> Result<()> {
        let view = other.keys.view();
        self.adopt(&view, picked.iter().map(|&s| s as usize));
        let (slots, unplaced) = self.place(&view, picked.iter().map(|&s| s as usize));
        let first = self.states.merge_from(&other.states, picked, &slots);
        self.slots = slots;
        first_of(first?, unplaced)
    }

    /// The part of `n` each group belongs to, by slot.
    pub(crate) fn shards(&self, n: usize) -> Vec<u32> {
        self.keys.view().shards(0..self.len(), n)
    }

    /// What this table charged for the group in `slot` — also the
    /// payload of a shipped partial: key + one state entry per
    /// aggregate.
    pub(crate) fn entry_bytes(&self, slot: usize) -> u64 {
        self.keys.view().key_bytes(slot) + self.state_bytes()
    }

    /// Drain into output columns — the `key_arity` key columns, then
    /// one per aggregate — in first-seen group order: the chunk
    /// pipeline's drain. Raw keys leave as the typed vector the table
    /// already holds (`Int` values, dictionary codes with their
    /// dictionary); decoded keys are transposed. Cell for cell
    /// [`Groups::finish`], with no row and no [`Accumulator`] built.
    pub(crate) fn into_columns(mut self, key_arity: usize) -> Result<Vec<ColumnVector>> {
        let mut columns = match std::mem::replace(&mut self.keys, SlotKeys::Decoded(Vec::new())) {
            SlotKeys::Int { values, validity } => vec![ColumnVector::Int { values, validity }],
            SlotKeys::Dict { codes, dict } => vec![ColumnVector::Dict { codes, dict }],
            SlotKeys::Decoded(keys) => {
                let column = |c: usize| {
                    let cells = keys
                        .iter()
                        .map(move |key| key.0.get(c).unwrap_or(&Value::Null));
                    ColumnVector::from_values(cells)
                };
                (0..key_arity).map(column).collect::<Result<_>>()?
            }
        };
        columns.extend(self.states.take_columns()?);
        Ok(columns)
    }

    /// Drain into output rows: decoded key values ++ aggregate results,
    /// in first-seen group order — the row engine's drain, and the
    /// definition [`Groups::into_columns`] is tested against.
    pub(crate) fn finish(mut self) -> Vec<Vec<Value>> {
        self.decode_keys();
        let keys = match &mut self.keys {
            SlotKeys::Decoded(keys) => std::mem::take(keys),
            SlotKeys::Int { .. } | SlotKeys::Dict { .. } => Vec::new(),
        };
        let rows = keys.into_iter().enumerate().map(|(slot, key)| {
            let mut row = key.0;
            self.states.finish_slot(slot, &mut row);
            row
        });
        rows.collect()
    }
}

/// Hash aggregation: one pass, grouping by the bound key expressions.
///
/// Output rows are `group key values ++ aggregate results`, in
/// first-seen group order (deterministic for a given input order).
pub fn hash_aggregate(
    input: &[Vec<Value>],
    group_exprs: &[BoundExpr],
    aggregates: &[CompiledAggregate],
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    if group_exprs.is_empty() {
        // Scalar aggregate: exactly one group, even over empty input.
        let scalar_timer = sink.start_timer();
        let mut accs = new_accumulators(aggregates);
        for row in input {
            guard.tick()?;
            update_all(aggregates, &mut accs, row)?;
        }
        sink.record_build(scalar_timer);
        return Ok(vec![accs.iter().map(Accumulator::finish).collect()]);
    }

    let build_timer = sink.start_timer();
    let mut groups = Groups::new(aggregates, guard);
    let filled = groups.fold_rows(group_exprs, input);
    sink.record_build(build_timer);
    sink.add_hash_entries(groups.len() as u64);
    sink.add_state_bytes(groups.bytes());
    let probe_timer = sink.start_timer();
    let out = filled.map(|()| groups.finish());
    sink.record_probe(probe_timer);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gbj_expr::{AggregateFunction, Expr};
    use gbj_types::{DataType, Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Int64, true),
            Field::new("v", DataType::Int64, true),
        ])
    }

    pub(crate) fn compile(call: AggregateCall) -> CompiledAggregate {
        let arg = call.arg.as_ref().map(|e| e.bind(&schema()).unwrap());
        CompiledAggregate { call, arg }
    }

    pub(crate) fn group_exprs() -> Vec<BoundExpr> {
        vec![Expr::bare("g").bind(&schema()).unwrap()]
    }

    fn g() -> ResourceGuard {
        ResourceGuard::unlimited()
    }

    pub(crate) fn sk() -> MetricsSink {
        MetricsSink::new()
    }

    fn rows(data: &[(Option<i64>, Option<i64>)]) -> Vec<Vec<Value>> {
        data.iter()
            .map(|(g, v)| {
                vec![
                    g.map_or(Value::Null, Value::Int),
                    v.map_or(Value::Null, Value::Int),
                ]
            })
            .collect()
    }

    fn sum_call() -> CompiledAggregate {
        compile(AggregateCall::new(AggregateFunction::Sum, Expr::bare("v")))
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    }

    #[test]
    fn null_group_values_form_one_group() {
        let input = rows(&[(None, Some(1)), (None, Some(2))]);
        let out = hash_aggregate(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
        assert_eq!(out, vec![vec![Value::Null, Value::Int(3)]]);
    }

    #[test]
    fn scalar_aggregate_always_one_row() {
        let empty: Vec<Vec<Value>> = vec![];
        let out = hash_aggregate(&empty, &[], &[sum_call()], &g(), &sk()).unwrap();
        assert_eq!(out, vec![vec![Value::Null]], "SUM over empty is NULL");
        let input = rows(&[(Some(1), Some(4)), (Some(2), Some(6))]);
        let out = hash_aggregate(&input, &[], &[sum_call()], &g(), &sk()).unwrap();
        assert_eq!(out, vec![vec![Value::Int(10)]]);
    }

    #[test]
    fn count_star_counts_all_rows_per_group() {
        let star = compile(AggregateCall::count_star());
        let input = rows(&[(Some(1), None), (Some(1), Some(2)), (Some(2), None)]);
        let out = hash_aggregate(&input, &group_exprs(), &[star], &g(), &sk()).unwrap();
        let by_key = sorted(out);
        assert_eq!(by_key[0], vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(by_key[1], vec![Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn multiple_aggregates_in_one_pass() {
        let calls = vec![
            compile(AggregateCall::new(AggregateFunction::Min, Expr::bare("v"))),
            compile(AggregateCall::new(AggregateFunction::Max, Expr::bare("v"))),
            compile(AggregateCall::count_star()),
        ];
        let input = rows(&[(Some(1), Some(5)), (Some(1), Some(9)), (Some(1), None)]);
        let out = hash_aggregate(&input, &group_exprs(), &calls, &g(), &sk()).unwrap();
        assert_eq!(
            out,
            vec![vec![
                Value::Int(1),
                Value::Int(5),
                Value::Int(9),
                Value::Int(3)
            ]]
        );
    }

    #[test]
    fn empty_grouped_input_yields_no_groups() {
        let empty: Vec<Vec<Value>> = vec![];
        let out = hash_aggregate(&empty, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
        assert!(out.is_empty(), "no rows → no groups when GROUP BY present");
    }

    #[test]
    fn sum_overflow_is_an_execution_error_not_a_panic() {
        // Two values near i64::MAX in one group: the running SUM
        // overflows and must surface as Error::Execution.
        let input = rows(&[(Some(1), Some(i64::MAX - 1)), (Some(1), Some(i64::MAX - 1))]);
        let err = hash_aggregate(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap_err();
        assert_eq!(err.kind(), "execution", "got {err}");
        assert!(err.message().contains("overflow"), "got {err}");
        // A single near-MAX value is fine.
        let input = rows(&[(Some(1), Some(i64::MAX - 1))]);
        let out = hash_aggregate(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
        assert_eq!(out[0][1], Value::Int(i64::MAX - 1));
    }

    #[test]
    fn avg_over_empty_and_all_null_groups_is_null() {
        let avg = || compile(AggregateCall::new(AggregateFunction::Avg, Expr::bare("v")));
        // Scalar AVG over an empty input: one row, NULL (no division by
        // the zero count).
        let empty: Vec<Vec<Value>> = vec![];
        let out = hash_aggregate(&empty, &[], &[avg()], &g(), &sk()).unwrap();
        assert_eq!(out, vec![vec![Value::Null]], "AVG over empty is NULL");
        // A group whose every argument is NULL also averages to NULL.
        let input = rows(&[(Some(1), None), (Some(1), None)]);
        let out = hash_aggregate(&input, &group_exprs(), &[avg()], &g(), &sk()).unwrap();
        assert_eq!(out, vec![vec![Value::Int(1), Value::Null]]);
    }

    fn all_calls() -> Vec<CompiledAggregate> {
        [
            AggregateFunction::Count,
            AggregateFunction::Sum,
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
        ]
        .into_iter()
        .map(|f| compile(AggregateCall::new(f, Expr::bare("v"))))
        .collect()
    }

    fn fold_all<'a>(
        input: &[Vec<Value>],
        calls: &'a [CompiledAggregate],
        guard: &'a ResourceGuard,
    ) -> Groups<'a> {
        let mut groups = Groups::new(calls, guard);
        groups.fold_rows(&group_exprs(), input).unwrap();
        groups
    }

    #[test]
    fn groups_null_key_is_one_group_under_null_equals_null() {
        let input = rows(&[(None, Some(1)), (Some(1), Some(5)), (None, Some(2))]);
        let (calls, guard) = (all_calls(), g());
        let groups = fold_all(&input, &calls, &guard);
        assert_eq!(groups.len(), 2);
        assert!(groups.bytes() > 0 && guard.memory_used() == groups.bytes());
        let out = groups.finish();
        assert_eq!(
            out[0],
            vec![
                Value::Null,
                Value::Int(2),
                Value::Int(3),
                Value::Int(1),
                Value::Int(2),
                Value::Float(1.5)
            ]
        );
        assert_eq!(guard.memory_used(), 0, "dropping the table releases it");
    }

    /// Partials merged in input order — picked slots via `merge_picked`
    /// (the combiner) — give the rows and the first-seen order of one
    /// fold over the concatenated input, for every mergeable aggregate.
    #[test]
    fn groups_merge_equals_one_fold_over_the_concatenation() {
        let input = rows(&[
            (Some(3), Some(10)),
            (None, Some(7)),
            (Some(1), None),
            (Some(3), Some(-4)),
            (Some(2), Some(8)),
            (None, None),
            (Some(1), Some(6)),
            (Some(3), Some(1)),
        ]);
        let (calls, guard) = (all_calls(), g());
        let whole = fold_all(&input, &calls, &guard).finish();
        assert_eq!(
            whole.iter().map(|r| &r[0]).collect::<Vec<_>>(),
            [&Value::Int(3), &Value::Null, &Value::Int(1), &Value::Int(2)]
        );
        for split in [1usize, 3, 5] {
            let (head, tail) = input.split_at(split);
            let mut merged = Groups::new(&calls, &guard);
            for part in [head, tail] {
                let mut shipped = fold_all(part, &calls, &guard);
                shipped.release();
                let all: Vec<u32> = (0..shipped.len() as u32).collect();
                merged.merge_picked(&shipped, &all).unwrap();
            }
            assert_eq!(merged.bytes(), guard.memory_used());
            assert_eq!(merged.finish(), whole, "merge, split at {split}");
        }
        assert_eq!(guard.memory_used(), 0);
    }

    /// One chunk: a key column and one argument column per aggregate.
    struct TestChunk {
        keys: Vec<ColumnVector>,
        args: Vec<Option<ColumnVector>>,
        len: usize,
    }

    impl TestChunk {
        fn new(keys: Vec<Vec<Value>>, args: Vec<Option<Vec<Value>>>) -> TestChunk {
            let column = |vals: &Vec<Value>| ColumnVector::from_values(vals.iter()).unwrap();
            TestChunk {
                len: keys[0].len(),
                keys: keys.iter().map(column).collect(),
                args: args.iter().map(|a| a.as_ref().map(column)).collect(),
            }
        }

        /// The chunk as rows `keys ++ args` (`COUNT(*)` adds nothing).
        fn rows(&self) -> Vec<Vec<Value>> {
            let cols = self.keys.iter().chain(self.args.iter().flatten());
            (0..self.len)
                .map(|i| cols.clone().map(|c| c.value(i)).collect())
                .collect()
        }

        fn fold_into(&self, groups: &mut Groups<'_>, rows: &[u32]) -> Result<()> {
            let keys = KeyView::new(self.keys.iter().collect());
            let args: Vec<Option<Cow<'_, ColumnVector>>> = self
                .args
                .iter()
                .map(|a| a.as_ref().map(Cow::Borrowed))
                .collect();
            let rows = rows.iter().map(|&i| i as usize);
            groups.fold_chunk(&keys, ChunkArgs::Columns(&args), rows)
        }
    }

    /// Calls over the columns a [`TestChunk`] row lays out: `k` key
    /// columns first, then one column per aggregate with an argument.
    fn chunk_calls(
        k: usize,
        calls: &[(AggregateFunction, bool)],
    ) -> (Vec<BoundExpr>, Vec<CompiledAggregate>) {
        let mut next = k;
        let compiled = calls
            .iter()
            .map(|&(func, distinct)| {
                let mut call = AggregateCall::count_star();
                let mut arg = None;
                if func != AggregateFunction::CountStar {
                    call = AggregateCall::new(func, Expr::bare("unused"));
                    call.distinct = distinct;
                    arg = Some(BoundExpr::Column(next));
                    next += 1;
                }
                CompiledAggregate { call, arg }
            })
            .collect();
        ((0..k).map(BoundExpr::Column).collect(), compiled)
    }

    /// Rows as bit-exact text: `Float` compares by bit pattern.
    fn exact(rows: &[Vec<Value>]) -> Vec<String> {
        let cell = |v: &Value| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter()
            .map(|r| r.iter().map(cell).collect::<Vec<_>>().join("|"))
            .collect()
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The typed two-pass fold against the row fold, chunk for chunk:
    /// every function over `Int` and `Float` columns, a stream whose
    /// argument column changes type mid-way (the state generalizes), an
    /// all-NULL chunk first (the placeholder types nothing), strings
    /// and DISTINCT on the general arm — rows, first-seen order, group
    /// count and charged bytes equal, floats bit for bit, at every
    /// selection.
    #[test]
    fn typed_fold_equals_the_row_fold_on_every_argument_shape() {
        use AggregateFunction::{Avg, Count, CountStar, Max, Min, Sum};
        let mut next = xorshift(0xf01d);
        let mut draw = |kind: &str, n: usize| -> Vec<Value> {
            (0..n)
                .map(|_| match (next() % 6, kind) {
                    (0, _) => Value::Null,
                    (_, "int") => Value::Int((next() % 2001) as i64 - 1000),
                    (_, "float") => Value::Float((next() % 100_000) as f64 / 7.0 - 3000.0),
                    (_, "str") => Value::str(format!("s{}", next() % 9)),
                    (_, "key") => Value::Int((next() % 13) as i64),
                    _ => Value::Null,
                })
                .collect()
        };
        let calls = [
            (CountStar, false),
            (Count, false),
            (Sum, false),
            (Min, false),
            (Max, false),
            (Avg, false),
            (Sum, true),
            (Min, false),
        ];
        // Per stream: the argument kind of each chunk.
        for stream in [
            vec!["int", "int", "int"],
            vec!["float", "float", "float"],
            vec!["null", "float", "float"],
            vec!["null", "int", "null"],
            vec!["int", "float", "int"],
            vec!["float", "null", "int"],
        ] {
            let (group_exprs, compiled) = chunk_calls(1, &calls);
            let guard = g();
            let mut typed = Groups::typed(&compiled, &guard);
            let mut oracle = Groups::new(&compiled, &guard);
            for (c, kind) in stream.iter().enumerate() {
                let n = 40 + 13 * c;
                let numeric = |draw: &mut dyn FnMut(&str, usize) -> Vec<Value>| Some(draw(kind, n));
                let args = vec![
                    None,
                    numeric(&mut draw),
                    numeric(&mut draw),
                    numeric(&mut draw),
                    numeric(&mut draw),
                    numeric(&mut draw),
                    numeric(&mut draw),
                    Some(draw("str", n)),
                ];
                let chunk = TestChunk::new(vec![draw("key", n)], args);
                let sel: Vec<u32> = match c {
                    0 => (0..n as u32).collect(),
                    _ => (0..n as u32).rev().filter(|i| i % 3 != 0).collect(),
                };
                chunk.fold_into(&mut typed, &sel).unwrap();
                let rows = chunk.rows();
                let live: Vec<Vec<Value>> = sel.iter().map(|&i| rows[i as usize].clone()).collect();
                oracle.fold_rows(&group_exprs, &live).unwrap();
                assert_eq!(typed.len(), oracle.len(), "{stream:?} chunk {c}");
                assert_eq!(typed.bytes(), oracle.bytes(), "{stream:?} chunk {c}");
            }
            assert!(typed.map.is_raw(), "an Int key stays raw");
            assert_eq!(
                exact(&typed.finish()),
                exact(&oracle.finish()),
                "{stream:?}"
            );
        }
    }

    /// `AVG` and `SUM` over 5 000 seeded floats add in row order: bit
    /// for bit the oracle's sums, in chunks of any size.
    #[test]
    fn float_sums_are_bit_identical_to_the_row_fold() {
        let mut next = xorshift(20);
        let keys: Vec<Value> = (0..5000).map(|_| Value::Int((next() % 7) as i64)).collect();
        let floats: Vec<Value> = (0..5000)
            .map(|_| Value::Float(f64::from_bits(next() % (1 << 62)) % 1e9 / 3.0))
            .collect();
        let (group_exprs, compiled) = chunk_calls(
            1,
            &[
                (AggregateFunction::Sum, false),
                (AggregateFunction::Avg, false),
            ],
        );
        let guard = g();
        let mut oracle = Groups::new(&compiled, &guard);
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .zip(&floats)
            .map(|(k, f)| vec![k.clone(), f.clone(), f.clone()])
            .collect();
        oracle.fold_rows(&group_exprs, &rows).unwrap();
        let expect = exact(&oracle.finish());
        for size in [1usize, 64, 1024, 5000] {
            let mut typed = Groups::typed(&compiled, &guard);
            for (k, f) in keys.chunks(size).zip(floats.chunks(size)) {
                let chunk =
                    TestChunk::new(vec![k.to_vec()], vec![Some(f.to_vec()), Some(f.to_vec())]);
                let all: Vec<u32> = (0..k.len() as u32).collect();
                chunk.fold_into(&mut typed, &all).unwrap();
            }
            assert_eq!(exact(&typed.finish()), expect, "chunks of {size}");
        }
    }

    /// The error a two-pass fold raises is the one a row-major fold
    /// meets first: the smallest `(row, aggregate)` among the typed
    /// loops' failures and the chunk's failed memory charge.
    #[test]
    fn the_chunk_fold_raises_the_row_folds_first_error() {
        use AggregateFunction::{Max, Sum};
        let big = Value::Int(i64::MAX);
        let one = Value::Int(1);
        let key = |k: i64| Value::Int(k);
        let nan = Value::Float(f64::NAN);
        // Budgets in table entries: "2.5" fails the third new group.
        let entry = row_bytes(&[Value::Int(0)]) + ACC_ENTRY_BYTES;
        struct Case {
            name: &'static str,
            calls: Vec<(AggregateFunction, bool)>,
            keys: Vec<Value>,
            args: Vec<Vec<Value>>,
            budget: Option<u64>,
            expect: &'static str,
        }
        let cases = [
            Case {
                name: "the later aggregate overflows at the earlier row",
                calls: vec![(Sum, false), (Sum, false)],
                keys: vec![key(1), key(1), key(1), key(1)],
                args: vec![
                    vec![big.clone(), one.clone(), one.clone(), big.clone()],
                    vec![big.clone(), big.clone(), one.clone(), one.clone()],
                ],
                budget: None,
                expect: "integer overflow in SUM",
            },
            Case {
                name: "a NaN meeting a number in MAX, before a later SUM overflow",
                calls: vec![(Sum, false), (Max, false)],
                keys: vec![key(1), key(1), key(1)],
                args: vec![
                    vec![one.clone(), one.clone(), big.clone()],
                    vec![Value::Float(1.0), nan.clone(), Value::Float(2.0)],
                ],
                budget: None,
                expect: "incomparable values in MAX: NaN vs 1.0",
            },
            Case {
                name: "an overflow before the failing memory charge",
                calls: vec![(Sum, false)],
                keys: vec![key(1), key(1), key(2), key(3)],
                args: vec![vec![big.clone(), big.clone(), one.clone(), one.clone()]],
                budget: Some(entry * 5 / 2),
                expect: "integer overflow in SUM",
            },
            Case {
                name: "an overflow after the failing memory charge",
                calls: vec![(Sum, false)],
                keys: vec![key(1), key(2), key(3), key(1), key(1)],
                args: vec![vec![
                    big.clone(),
                    one.clone(),
                    one.clone(),
                    big.clone(),
                    one.clone(),
                ]],
                budget: Some(entry * 5 / 2),
                expect: "memory budget exceeded",
            },
            Case {
                name: "an overflow one row before the failing memory charge",
                calls: vec![(Sum, false)],
                keys: vec![key(1), key(1), key(2), key(3), key(4)],
                args: vec![vec![
                    big.clone(),
                    one.clone(),
                    one.clone(),
                    one.clone(),
                    one.clone(),
                ]],
                budget: Some(entry * 3 / 2),
                expect: "integer overflow in SUM",
            },
        ];
        for case in cases {
            let (group_exprs, compiled) = chunk_calls(1, &case.calls);
            let guard_of = || {
                ResourceGuard::new(crate::guard::ResourceLimits {
                    max_memory_bytes: case.budget,
                    ..Default::default()
                })
            };
            let chunk = TestChunk::new(
                vec![case.keys.clone()],
                case.args.iter().cloned().map(Some).collect(),
            );
            let all: Vec<u32> = (0..case.keys.len() as u32).collect();
            let (typed_guard, row_guard) = (guard_of(), guard_of());
            let typed = chunk
                .fold_into(&mut Groups::typed(&compiled, &typed_guard), &all)
                .unwrap_err();
            let oracle = Groups::new(&compiled, &row_guard)
                .fold_rows(&group_exprs, &chunk.rows())
                .unwrap_err();
            assert_eq!(typed, oracle, "{}", case.name);
            assert_eq!(typed.message(), case.expect, "{}", case.name);
            assert_eq!(typed_guard.memory_used(), 0, "{}", case.name);
        }
    }

    /// Typed tables merged slot-wise — the combiner's merge — equal
    /// general tables merged the same way, floats bit for bit, for
    /// every pairing of state shapes (typed/typed, pending/typed,
    /// int/float: generalized), and raise the same first error.
    #[test]
    fn typed_merge_equals_the_accumulator_merge() {
        use AggregateFunction::{Avg, Count, CountStar, Max, Min, Sum};
        let calls = [
            (CountStar, false),
            (Count, false),
            (Sum, false),
            (Min, false),
            (Max, false),
            (Avg, false),
            (Count, true),
        ];
        let mut next = xorshift(0xc0b1);
        let mut draw = |kind: &str, n: usize| -> Vec<Value> {
            (0..n)
                .map(|_| match (next() % 5, kind) {
                    (0, _) => Value::Null,
                    (_, "int") => Value::Int((next() % 2001) as i64 - 1000),
                    (_, "float") => Value::Float((next() % 100_000) as f64 / 7.0 - 3000.0),
                    (_, "key") => Value::Int((next() % 11) as i64),
                    _ => Value::Null,
                })
                .collect()
        };
        for kinds in [
            ["int", "int", "int"],
            ["float", "float", "float"],
            ["null", "float", "null"],
            ["int", "float", "int"],
            ["null", "null", "null"],
        ] {
            let (group_exprs, compiled) = chunk_calls(1, &calls);
            let guard = g();
            let origins: Vec<TestChunk> = kinds
                .iter()
                .map(|kind| {
                    let args = (0..calls.len()).map(|j| (j > 0).then(|| draw(kind, 50)));
                    let args = args.collect();
                    TestChunk::new(vec![draw("key", 50)], args)
                })
                .collect();
            let all: Vec<u32> = (0..50).collect();
            let mut typed = Groups::typed(&compiled, &guard);
            let mut general = Groups::new(&compiled, &guard);
            for origin in &origins {
                let mut t = Groups::typed(&compiled, &guard);
                origin.fold_into(&mut t, &all).unwrap();
                let mut a = Groups::new(&compiled, &guard);
                a.fold_rows(&group_exprs, &origin.rows()).unwrap();
                // Ship the odd slots only, as a route to one part would.
                let picked: Vec<u32> = (0..t.len() as u32).filter(|s| s % 2 == 1).collect();
                assert_eq!(t.shards(4), a.shards(4), "{kinds:?}");
                for &slot in &picked {
                    assert_eq!(t.entry_bytes(slot as usize), a.entry_bytes(slot as usize));
                }
                typed.merge_picked(&t, &picked).unwrap();
                general.merge_picked(&a, &picked).unwrap();
                assert_eq!(typed.bytes(), general.bytes(), "{kinds:?}");
            }
            assert!(typed.map.is_raw() && !general.map.is_raw());
            assert_eq!(
                exact(&typed.finish()),
                exact(&general.finish()),
                "{kinds:?}"
            );
        }
        // Errors: partial sums that overflow when merged, the later
        // aggregate at the earlier partial.
        let (group_exprs, compiled) = chunk_calls(1, &[(Sum, false), (Sum, false)]);
        let guard = g();
        let big = Value::Int(i64::MAX);
        let one = Value::Int(1);
        let key = |k: i64| Value::Int(k);
        let chunk = |a: [&Value; 2], b: [&Value; 2]| {
            TestChunk::new(
                vec![vec![key(1), key(2)]],
                vec![
                    Some(a.into_iter().cloned().collect()),
                    Some(b.into_iter().cloned().collect()),
                ],
            )
        };
        let first = chunk([&one, &big], [&big, &one]);
        let second = chunk([&one, &big], [&big, &one]);
        let fold = |chunk: &TestChunk, typed: bool| {
            let mut groups = if typed {
                Groups::typed(&compiled, &guard)
            } else {
                Groups::new(&compiled, &guard)
            };
            match typed {
                true => chunk.fold_into(&mut groups, &[0, 1]).unwrap(),
                false => groups.fold_rows(&group_exprs, &chunk.rows()).unwrap(),
            }
            groups
        };
        let errors: Vec<Error> = [true, false]
            .into_iter()
            .map(|typed| {
                let mut merged = fold(&first, typed);
                merged
                    .merge_picked(&fold(&second, typed), &[0, 1])
                    .unwrap_err()
            })
            .collect();
        assert_eq!(errors[0], errors[1]);
        assert_eq!(errors[0].message(), "integer overflow in SUM");
    }

    /// A chunk of a different key shape demotes a raw-keyed table to
    /// decoded keys without moving a slot: `=ⁿ` still sends Float(10.0)
    /// to the Int(10) group, a decoded string to its dictionary group,
    /// and NULL to NULL — and the row operators' entry point sees the
    /// same table.
    #[test]
    fn groups_demotion_from_int_and_dict_keys_is_lossless() {
        use crate::batch::StringDict;
        let guard = g();
        let (_, compiled) = chunk_calls(1, &[(AggregateFunction::CountStar, false)]);
        let fold = |groups: &mut Groups<'_>, keys: ColumnVector| {
            let len = keys.len() as u32;
            let chunk = TestChunk {
                keys: vec![keys],
                args: vec![None],
                len: len as usize,
            };
            chunk
                .fold_into(groups, &(0..len).collect::<Vec<_>>())
                .unwrap();
        };
        let column = |vals: &[Value]| ColumnVector::from_values(vals.iter()).unwrap();
        let mut groups = Groups::typed(&compiled, &guard);
        fold(
            &mut groups,
            column(&[Value::Int(10), Value::Null, Value::Int(10)]),
        );
        assert!(groups.map.is_raw() && groups.len() == 2);
        fold(
            &mut groups,
            column(&[Value::Float(10.0), Value::Null, Value::Float(0.5)]),
        );
        assert!(!groups.map.is_raw());
        assert_eq!(
            groups.finish(),
            [
                vec![Value::Int(10), Value::Int(3)],
                vec![Value::Null, Value::Int(2)],
                vec![Value::Float(0.5), Value::Int(1)],
            ]
        );

        let mut b = StringDict::default();
        let x = b.intern("x").unwrap();
        let y = b.intern("y").unwrap();
        let coded = ColumnVector::Dict {
            codes: vec![y, NULL_CODE, x, y],
            dict: Arc::new(b),
        };
        // A table still empty takes the shape of whatever comes next:
        // an empty chunk of another dictionary leaves nothing behind.
        let mut groups = Groups::typed(&compiled, &guard);
        let mut other = StringDict::default();
        other.intern("elsewhere").unwrap();
        let elsewhere = ColumnVector::Dict {
            codes: Vec::new(),
            dict: Arc::new(other),
        };
        fold(&mut groups, elsewhere);
        fold(&mut groups, coded);
        assert!(groups.map.is_raw() && groups.len() == 3);
        fold(
            &mut groups,
            column(&[Value::str("x"), Value::Null, Value::str("z")]),
        );
        assert!(!groups.map.is_raw());
        groups.fold(GroupKey(vec![Value::str("y")]), &[]).unwrap();
        assert_eq!(groups.len(), 4);
        assert_eq!(
            groups.finish(),
            [
                vec![Value::str("y"), Value::Int(3)],
                vec![Value::Null, Value::Int(2)],
                vec![Value::str("x"), Value::Int(2)],
                vec![Value::str("z"), Value::Int(1)],
            ]
        );
    }

    /// The columnar drain against `finish()` of an identically filled
    /// table, cell for cell and floats bit for bit: every typed state
    /// vector, `Pending` left pending (all-NULL arguments), a `SUM` that
    /// changes type mid-stream (`SumInt` → `Accs`), DISTINCT and string
    /// arguments on the general arm; raw `Int` and dictionary keys (which
    /// leave as the vectors the table holds), a key shape that demotes
    /// mid-stream, two-column keys, a table nothing was folded into, and
    /// the scalar aggregate over empty input.
    #[test]
    fn the_columnar_drain_equals_finish_cell_for_cell() {
        use crate::batch::StringDict;
        use AggregateFunction::{Avg, Count, CountStar, Max, Min, Sum};
        let calls = [
            (CountStar, false),
            (Count, false),
            (Sum, false),
            (Min, false),
            (Max, false),
            (Avg, false),
            (Sum, true),
            (Max, false),
        ];
        let ints = |vals: &[Option<i64>]| -> Vec<Value> {
            vals.iter()
                .map(|v| v.map_or(Value::Null, Value::Int))
                .collect()
        };
        let floats = |vals: &[Option<f64>]| -> Vec<Value> {
            vals.iter()
                .map(|v| v.map_or(Value::Null, Value::Float))
                .collect()
        };
        let int_args = ints(&[Some(4), None, Some(-9), Some(4), Some(i64::MAX)]);
        let float_args = floats(&[Some(0.5), Some(-0.0), None, Some(1e300), Some(0.25)]);
        let null_args = vec![Value::Null; 5];
        let strings: Vec<Value> = ["b", "", "a", "b", "c"].map(Value::str).into();
        // One chunk of five rows: the same numeric column under the six
        // numeric calls and the DISTINCT one, strings under the last.
        let chunk = |keys: Vec<Vec<Value>>, numeric: &Vec<Value>| {
            let mut args = vec![None];
            args.extend(std::iter::repeat_n(Some(numeric.clone()), 6));
            args.push(Some(strings.clone()));
            TestChunk::new(keys, args)
        };
        let int_keys = ints(&[Some(7), None, Some(7), Some(i64::MIN), None]);
        let dict_of = |strings: [&str; 3]| {
            let mut b = StringDict::default();
            for s in strings {
                b.intern(s).unwrap();
            }
            Arc::new(b)
        };
        let (dict, other_dict) = (dict_of(["x", "unused", "y"]), dict_of(["y", "z", "x"]));
        let dict_keys = |dict: &Arc<StringDict>, numeric| TestChunk {
            keys: vec![ColumnVector::Dict {
                codes: vec![2, NULL_CODE, 0, 2, NULL_CODE],
                dict: Arc::clone(dict),
            }],
            ..chunk(vec![int_keys.clone()], numeric)
        };
        let all: Vec<u32> = (0..5).collect();
        type Fill<'t> = Box<dyn Fn(&mut Groups<'_>) + 't>;
        let fold = |chunks: Vec<TestChunk>| -> Fill<'_> {
            let all = all.clone();
            Box::new(move |groups| {
                for chunk in &chunks {
                    chunk.fold_into(groups, &all).unwrap();
                }
            })
        };
        let one = |numeric| fold(vec![chunk(vec![int_keys.clone()], numeric)]);
        let cases: Vec<(&str, usize, Fill<'_>)> = vec![
            ("int arguments", 1, one(&int_args)),
            ("float arguments", 1, one(&float_args)),
            ("pending left pending", 1, one(&null_args)),
            (
                "dictionary keys",
                1,
                fold(vec![dict_keys(&dict, &int_args)]),
            ),
            (
                "a key shape that demotes mid-stream",
                1,
                fold(vec![
                    dict_keys(&dict, &float_args),
                    dict_keys(&other_dict, &float_args),
                ]),
            ),
            (
                "two-column keys",
                2,
                fold(vec![chunk(
                    vec![int_keys.clone(), strings.clone()],
                    &float_args,
                )]),
            ),
            ("nothing folded", 2, fold(Vec::new())),
        ];
        let guard = g();
        for (name, key_arity, fill) in &cases {
            let (_, compiled) = chunk_calls(*key_arity, &calls);
            let (mut rows, mut columns) = (
                Groups::typed(&compiled, &guard),
                Groups::typed(&compiled, &guard),
            );
            fill(&mut rows);
            fill(&mut columns);
            let len = columns.len();
            let raw = columns.map.is_raw();
            let drained = columns.into_columns(*key_arity).unwrap();
            assert_eq!(drained.len(), key_arity + calls.len(), "{name}");
            match drained.first() {
                Some(ColumnVector::Dict { dict: d, .. }) => {
                    assert!(Arc::ptr_eq(d, &dict), "{name}")
                }
                Some(ColumnVector::Int { .. }) => {}
                other => assert!(!raw || len == 0, "{name}: raw keys left as {other:?}"),
            }
            let batch = ColumnarBatch::from_columns(drained, len).unwrap();
            assert_eq!(exact(&batch.to_rows()), exact(&rows.finish()), "{name}");
        }
        assert_eq!(guard.memory_used(), 0);

        // A declared schema gives a column one type. An argument whose
        // type changes mid-stream still folds as the oracle does, but
        // its MIN is an `Int` in one group and a `Float` in another:
        // no column, so the drain is a typed internal error.
        let (_, compiled) = chunk_calls(1, &calls);
        let mut mixed = Groups::typed(&compiled, &guard);
        for numeric in [&int_args, &float_args] {
            let chunk = chunk(vec![int_keys.clone()], numeric);
            chunk.fold_into(&mut mixed, &all).unwrap();
        }
        assert_eq!(mixed.into_columns(1).unwrap_err().kind(), "internal");

        // Scalar: slot 0 of the bare states, with and without input.
        let (_, compiled) = chunk_calls(0, &calls);
        for fed in [false, true] {
            let mut states = AggStates::typed(&compiled);
            states.grow(1);
            if fed {
                let args = chunk(vec![int_keys.clone()], &float_args).args;
                let args: Vec<_> = args.iter().map(|a| a.as_ref().map(Cow::Borrowed)).collect();
                let fed = states.update_chunk(&[0; 5], 0..5, &args).unwrap();
                assert!(fed.is_none());
            }
            let mut row = Vec::new();
            states.finish_slot(0, &mut row);
            let batch = ColumnarBatch::from_columns(states.take_columns().unwrap(), 1).unwrap();
            assert_eq!(exact(&batch.to_rows()), exact(&[row]), "scalar, fed: {fed}");
        }
    }

    /// The fold polls the guard once per chunk, before touching it: a
    /// cancellation requested between two chunks stops the next one
    /// with nothing of it folded, and the tick counter still ends where
    /// per-row ticks would leave it.
    #[test]
    fn the_chunk_fold_observes_a_cancellation_within_one_chunk() {
        use crate::guard::CancellationToken;
        let token = CancellationToken::new();
        let guard = ResourceGuard::unlimited().with_cancellation(token.clone());
        let (_, compiled) = chunk_calls(1, &[(AggregateFunction::CountStar, false)]);
        let mut groups = Groups::typed(&compiled, &guard);
        let chunk = |first: i64| {
            let keys = (first..first + 1024).map(Value::Int).collect();
            TestChunk::new(vec![keys], vec![None])
        };
        let all: Vec<u32> = (0..1024).collect();
        chunk(0).fold_into(&mut groups, &all).unwrap();
        chunk(1024).fold_into(&mut groups, &all[..100]).unwrap();
        assert_eq!(guard.ticks(), 1124);
        token.cancel();
        let stopped = chunk(2048).fold_into(&mut groups, &all).unwrap_err();
        assert_eq!(stopped, Error::Cancelled);
        assert_eq!(
            groups.len(),
            1124,
            "no row of the cancelled chunk was folded"
        );
        assert_eq!(
            chunk(0).fold_into(&mut groups, &[]).unwrap_err(),
            Error::Cancelled
        );
    }

    #[test]
    fn aggregate_memory_budget_aborts_table_growth() {
        use crate::guard::{ResourceGuard, ResourceLimits};
        // 1000 distinct groups against a tiny memory budget.
        let input: Vec<Vec<Value>> = (0..1000)
            .map(|i| vec![Value::Int(i), Value::Int(1)])
            .collect();
        let tight = ResourceGuard::new(ResourceLimits {
            max_memory_bytes: Some(512),
            ..ResourceLimits::default()
        });
        let err = hash_aggregate(&input, &group_exprs(), &[sum_call()], &tight, &sk()).unwrap_err();
        assert_eq!(err.kind(), "resource");
        assert_eq!(err.message(), "memory budget exceeded");
        // The failed run released what it had charged.
        assert_eq!(tight.memory_used(), 0, "memory released after abort");
        let relieved = ResourceGuard::new(ResourceLimits::default());
        hash_aggregate(&input, &group_exprs(), &[sum_call()], &relieved, &sk()).unwrap();
        assert_eq!(relieved.memory_used(), 0, "memory released after success");
    }
}
