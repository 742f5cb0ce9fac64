//! Grouping and aggregation: hash and sort implementations.
//!
//! Grouping uses SQL2's duplicate semantics — rows with NULL grouping
//! values form a group of their own ("NULL equals NULL", Section 4.2 of
//! the paper) — via [`GroupKey`]. With an empty grouping list this is a
//! scalar aggregate producing exactly one row (standard SQL); the
//! optimizer refuses the degenerate transformations where this
//! distinction would matter (see DESIGN.md).

use std::collections::HashMap;
use std::sync::Arc;

use gbj_expr::{Accumulator, AggregateCall, BoundExpr, Expr};
use gbj_types::{internal_err, GroupKey, Result, Schema, Value};

use crate::batch::{ColumnVector, StringDict, NULL_CODE};
use crate::guard::{row_bytes, ResourceGuard};
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

/// One group's key and accumulator states, as shipped between shards.
pub(crate) type Partial = (GroupKey, Vec<Accumulator>);

/// The slots of a [`Groups`] table: per group, the decoded `=ⁿ` key and
/// the accumulators, plus the memory charge the table holds. Whatever
/// was charged is released on drop, so error paths need no bookkeeping.
struct Slots<'a> {
    aggregates: &'a [CompiledAggregate],
    guard: &'a ResourceGuard,
    order: Vec<GroupKey>,
    accs: Vec<Vec<Accumulator>>,
    bytes: u64,
}

impl Drop for Slots<'_> {
    fn drop(&mut self) {
        self.guard.release_memory(self.bytes);
    }
}

impl Slots<'_> {
    /// Append a group. A new entry is charged before it is inserted
    /// (decoded-key `row_bytes` + [`ACC_ENTRY_BYTES`] per aggregate);
    /// `charge` is false only for an entry whose charge the table
    /// already took over (see [`Groups::absorb`]).
    fn push(&mut self, key: GroupKey, accs: Vec<Accumulator>, charge: bool) -> Result<usize> {
        if charge {
            let entry_bytes =
                row_bytes(&key.0) + ACC_ENTRY_BYTES * self.aggregates.len().max(1) as u64;
            self.bytes += entry_bytes;
            self.guard.charge_memory(entry_bytes)?;
        }
        self.order.push(key);
        self.accs.push(accs);
        Ok(self.order.len() - 1)
    }
}

/// Key → slot lookup. Row operators always use `Generic`; the chunk
/// pipeline keys a single `Int` or dictionary column on the raw `i64` /
/// `u32` code and demotes to `Generic` when a later chunk arrives in a
/// different shape (the decoded keys are kept per slot, so demotion is
/// lossless).
enum Keyer {
    Int(HashMap<Option<i64>, usize>),
    Dict {
        map: HashMap<u32, usize>,
        dict: Arc<StringDict>,
    },
    Generic(HashMap<GroupKey, usize>),
}

/// The one aggregation table behind every hash-aggregate operator:
/// groups under `=ⁿ` (NULL equals NULL) in first-seen order, which is
/// the output order.
pub(crate) struct Groups<'a> {
    keyer: Keyer,
    slots: Slots<'a>,
}

impl<'a> Groups<'a> {
    pub(crate) fn new(aggregates: &'a [CompiledAggregate], guard: &'a ResourceGuard) -> Groups<'a> {
        Groups {
            keyer: Keyer::Generic(HashMap::new()),
            slots: Slots {
                aggregates,
                guard,
                order: Vec::new(),
                accs: Vec::new(),
                bytes: 0,
            },
        }
    }

    /// Distinct groups so far.
    pub(crate) fn len(&self) -> usize {
        self.slots.order.len()
    }

    /// Bytes this table has charged to the guard and still holds.
    pub(crate) fn bytes(&self) -> u64 {
        self.slots.bytes
    }

    /// A generic keyer over the decoded keys of the current slots.
    fn generic_keyer(&self) -> Keyer {
        Keyer::Generic(self.slots.order.iter().cloned().zip(0..).collect())
    }

    /// Slot of `key` under the generic keyer, demoting first if the
    /// table was keyed on raw codes.
    fn lookup(&mut self, key: &GroupKey) -> Option<usize> {
        if !matches!(self.keyer, Keyer::Generic(_)) {
            self.keyer = self.generic_keyer();
        }
        match &self.keyer {
            Keyer::Generic(map) => map.get(key).copied(),
            Keyer::Int(_) | Keyer::Dict { .. } => None,
        }
    }

    fn insert(&mut self, key: GroupKey, accs: Vec<Accumulator>, charge: bool) -> Result<usize> {
        let slot = self.slots.push(key.clone(), accs, charge)?;
        if let Keyer::Generic(map) = &mut self.keyer {
            map.insert(key, slot);
        }
        Ok(slot)
    }

    /// Fold one input row into the group `key`.
    pub(crate) fn fold(&mut self, key: GroupKey, row: &[Value]) -> Result<()> {
        let slot = match self.lookup(&key) {
            Some(slot) => slot,
            None => self.insert(key, new_accumulators(self.slots.aggregates), true)?,
        };
        update_all(self.slots.aggregates, self.accs_mut(slot)?, row)
    }

    /// Fold every row of `rows` into its group under `group_exprs`,
    /// polling the guard per row.
    pub(crate) fn fold_rows(
        &mut self,
        group_exprs: &[BoundExpr],
        rows: &[Vec<Value>],
    ) -> Result<()> {
        rows.iter().try_for_each(|row| {
            self.slots.guard.tick()?;
            self.fold(group_key(group_exprs, row)?, row)
        })
    }

    fn merge_entry(&mut self, (key, accs): Partial, charge: bool) -> Result<()> {
        match self.lookup(&key) {
            Some(slot) => {
                for (merged, partial) in self.accs_mut(slot)?.iter_mut().zip(&accs) {
                    merged.merge(partial)?;
                }
                Ok(())
            }
            None => self.insert(key, accs, charge).map(drop),
        }
    }

    /// Merge a shipped partial through [`Accumulator::merge`]; a group
    /// this table has not seen is charged like any new entry.
    pub(crate) fn merge(&mut self, partial: Partial) -> Result<()> {
        self.merge_entry(partial, true)
    }

    /// Merge a whole partial table, taking over its memory charge.
    /// Absorbing partials in input order reproduces the first-seen
    /// order of one fold over the concatenated input.
    pub(crate) fn absorb(&mut self, mut other: Groups<'a>) -> Result<()> {
        self.slots.bytes += std::mem::take(&mut other.slots.bytes);
        other
            .into_partials()
            .into_iter()
            .try_for_each(|p| self.merge_entry(p, false))
    }

    /// The groups as shippable partials, in first-seen order. Releases
    /// this table's charge.
    pub(crate) fn into_partials(mut self) -> Vec<Partial> {
        let order = std::mem::take(&mut self.slots.order);
        order
            .into_iter()
            .zip(std::mem::take(&mut self.slots.accs))
            .collect()
    }

    /// Drain into output rows: decoded key values ++ aggregate results,
    /// in first-seen group order.
    pub(crate) fn finish(self) -> Vec<Vec<Value>> {
        self.into_partials()
            .into_iter()
            .map(|(key, accs)| {
                let mut row = key.0;
                row.extend(accs.iter().map(Accumulator::finish));
                row
            })
            .collect()
    }

    pub(crate) fn accs_mut(&mut self, slot: usize) -> Result<&mut Vec<Accumulator>> {
        self.slots
            .accs
            .get_mut(slot)
            .ok_or_else(|| internal_err!("group slot {slot} out of bounds"))
    }

    /// Pick the lookup strategy for a chunk whose group-key columns are
    /// `key_cols`: raw codes while every chunk so far had this shape,
    /// generic otherwise.
    pub(crate) fn prepare(&mut self, key_cols: &[ColumnVector]) {
        let fits = match (&self.keyer, key_cols) {
            (Keyer::Int(_), [ColumnVector::Int { .. }]) => true,
            (Keyer::Dict { dict, .. }, [ColumnVector::Dict { dict: d, .. }]) => {
                Arc::ptr_eq(dict, d)
            }
            (Keyer::Generic(_), _) => self.len() > 0,
            _ => false,
        };
        if fits {
            return;
        }
        self.keyer = match key_cols {
            [ColumnVector::Int { .. }] if self.len() == 0 => Keyer::Int(HashMap::new()),
            [ColumnVector::Dict { dict, .. }] if self.len() == 0 => Keyer::Dict {
                map: HashMap::new(),
                dict: Arc::clone(dict),
            },
            _ => self.generic_keyer(),
        };
    }

    /// Find or create the group slot for row `i` of `key_cols` (call
    /// [`Groups::prepare`] once per chunk first).
    pub(crate) fn slot(&mut self, key_cols: &[ColumnVector], i: usize) -> Result<usize> {
        let fresh = |slots: &Slots| new_accumulators(slots.aggregates);
        match &mut self.keyer {
            Keyer::Int(map) => {
                let k = match key_cols.first() {
                    Some(ColumnVector::Int { values, validity }) if validity.get(i) => {
                        values.get(i).copied()
                    }
                    _ => None,
                };
                if let Some(&s) = map.get(&k) {
                    return Ok(s);
                }
                let key = GroupKey(vec![k.map_or(Value::Null, Value::Int)]);
                let s = self.slots.push(key, fresh(&self.slots), true)?;
                map.insert(k, s);
                Ok(s)
            }
            Keyer::Dict { map, dict } => {
                let c = match key_cols.first() {
                    Some(ColumnVector::Dict { codes, .. }) => {
                        codes.get(i).copied().unwrap_or(NULL_CODE)
                    }
                    _ => NULL_CODE,
                };
                // Every invalid code is the same `=ⁿ` NULL group.
                let c = if (c as usize) < dict.len() {
                    c
                } else {
                    NULL_CODE
                };
                if let Some(&s) = map.get(&c) {
                    return Ok(s);
                }
                let key = GroupKey(vec![dict.get(c).map_or(Value::Null, Value::str)]);
                let s = self.slots.push(key, fresh(&self.slots), true)?;
                map.insert(c, s);
                Ok(s)
            }
            Keyer::Generic(map) => {
                let key = GroupKey(key_cols.iter().map(|c| c.value(i)).collect());
                if let Some(&s) = map.get(&key) {
                    return Ok(s);
                }
                let s = self.slots.push(key.clone(), fresh(&self.slots), true)?;
                map.insert(key, s);
                Ok(s)
            }
        }
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

/// Sort-based aggregation: sort rows by the grouping key (under the
/// total order, NULLs last and equal) and stream group boundaries.
///
/// This is the classic implementation the paper's Section 2 alludes to
/// ("grouping … is usually implemented by sorting"); it also leaves the
/// output sorted on the grouping columns, the property Section 7's last
/// bullet says later joins can exploit.
pub fn sort_aggregate(
    input: &[Vec<Value>],
    group_exprs: &[BoundExpr],
    aggregates: &[CompiledAggregate],
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    if group_exprs.is_empty() {
        return hash_aggregate(input, group_exprs, aggregates, guard, sink);
    }
    let build_timer = sink.start_timer();
    let mut sort_bytes = 0u64;
    let keyed: Result<Vec<(Vec<Value>, &Vec<Value>)>> = input
        .iter()
        .map(|row| {
            guard.tick()?;
            let key: Vec<Value> = group_exprs
                .iter()
                .map(|e| e.eval(row))
                .collect::<Result<_>>()?;
            let entry_bytes = row_bytes(&key) + std::mem::size_of::<&Vec<Value>>() as u64;
            sort_bytes += entry_bytes;
            guard.charge_memory(entry_bytes)?;
            Ok((key, row))
        })
        .collect();
    let mut keyed = match keyed {
        Ok(k) => k,
        Err(e) => {
            guard.release_memory(sort_bytes);
            return Err(e);
        }
    };
    keyed.sort_by(|(a, _), (b, _)| {
        for (x, y) in a.iter().zip(b) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    sink.record_build(build_timer);
    sink.add_state_bytes(sort_bytes);

    let probe_timer = sink.start_timer();
    let streamed = (|| -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        let mut current: Option<(Vec<Value>, Vec<Accumulator>)> = None;
        for (key, row) in keyed {
            guard.tick()?;
            let same = current
                .as_ref()
                .is_some_and(|(k, _)| k.iter().zip(&key).all(|(a, b)| a.null_eq(b)));
            if !same {
                if let Some((k, accs)) = current.take() {
                    let mut r = k;
                    r.extend(accs.iter().map(Accumulator::finish));
                    out.push(r);
                }
                current = Some((key, new_accumulators(aggregates)));
            }
            if let Some((_, accs)) = &mut current {
                update_all(aggregates, accs, row)?;
            }
        }
        if let Some((k, accs)) = current {
            let mut r = k;
            r.extend(accs.iter().map(Accumulator::finish));
            out.push(r);
        }
        Ok(out)
    })();
    sink.record_probe(probe_timer);
    guard.release_memory(sort_bytes);
    streamed
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
    fn hash_and_sort_agree() {
        let input = rows(&[
            (Some(1), Some(10)),
            (Some(2), Some(20)),
            (Some(1), Some(5)),
            (None, Some(7)),
            (None, Some(3)),
        ]);
        let h = hash_aggregate(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
        let s = sort_aggregate(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
        assert_eq!(sorted(h.clone()), sorted(s));
        assert_eq!(h.len(), 3, "1, 2, and the NULL group");
        let by_key = sorted(h);
        assert_eq!(by_key[0], vec![Value::Int(1), Value::Int(15)]);
        assert_eq!(by_key[1], vec![Value::Int(2), Value::Int(20)]);
        assert_eq!(by_key[2], vec![Value::Null, Value::Int(10)]);
    }

    #[test]
    fn null_group_values_form_one_group() {
        let input = rows(&[(None, Some(1)), (None, Some(2))]);
        for f in [hash_aggregate, sort_aggregate] {
            let out = f(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0], vec![Value::Null, Value::Int(3)]);
        }
    }

    #[test]
    fn scalar_aggregate_always_one_row() {
        let empty: Vec<Vec<Value>> = vec![];
        for f in [hash_aggregate, sort_aggregate] {
            let out = f(&empty, &[], &[sum_call()], &g(), &sk()).unwrap();
            assert_eq!(out, vec![vec![Value::Null]], "SUM over empty is NULL");
        }
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
        let out = sort_aggregate(&input, &group_exprs(), &calls, &g(), &sk()).unwrap();
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
        for f in [hash_aggregate, sort_aggregate] {
            let out = f(&empty, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
            assert!(out.is_empty(), "no rows → no groups when GROUP BY present");
        }
    }

    #[test]
    fn sort_aggregate_output_is_sorted_on_keys() {
        let input = rows(&[
            (Some(3), Some(1)),
            (Some(1), Some(1)),
            (None, Some(1)),
            (Some(2), Some(1)),
        ]);
        let out = sort_aggregate(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap();
        let keys: Vec<&Value> = out.iter().map(|r| &r[0]).collect();
        assert_eq!(
            keys,
            vec![&Value::Int(1), &Value::Int(2), &Value::Int(3), &Value::Null]
        );
    }

    #[test]
    fn sum_overflow_is_an_execution_error_not_a_panic() {
        // Two values near i64::MAX in one group: the running SUM
        // overflows and must surface as Error::Execution.
        let input = rows(&[(Some(1), Some(i64::MAX - 1)), (Some(1), Some(i64::MAX - 1))]);
        for f in [hash_aggregate, sort_aggregate] {
            let err = f(&input, &group_exprs(), &[sum_call()], &g(), &sk()).unwrap_err();
            assert_eq!(err.kind(), "execution", "got {err}");
            assert!(err.message().contains("overflow"), "got {err}");
        }
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
        for f in [hash_aggregate, sort_aggregate] {
            let out = f(&empty, &[], &[avg()], &g(), &sk()).unwrap();
            assert_eq!(out, vec![vec![Value::Null]], "AVG over empty is NULL");
        }
        // A group whose every argument is NULL also averages to NULL.
        let input = rows(&[(Some(1), None), (Some(1), None)]);
        for f in [hash_aggregate, sort_aggregate] {
            let out = f(&input, &group_exprs(), &[avg()], &g(), &sk()).unwrap();
            assert_eq!(out, vec![vec![Value::Int(1), Value::Null]]);
        }
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

    /// Partials merged in input order — whole tables via `absorb` (the
    /// morsel merge) or loose entries via `merge` (the combiner) — give
    /// the rows and the first-seen order of one fold over the
    /// concatenated input, for every mergeable aggregate.
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
            let mut absorbed = Groups::new(&calls, &guard);
            let mut merged = Groups::new(&calls, &guard);
            for part in [head, tail] {
                let partial = fold_all(part, &calls, &guard);
                let held = partial.bytes();
                absorbed.absorb(partial).unwrap();
                assert!(absorbed.bytes() >= held, "absorb takes over the charge");
                for p in fold_all(part, &calls, &guard).into_partials() {
                    merged.merge(p).unwrap();
                }
            }
            assert_eq!(merged.bytes(), guard.memory_used() - absorbed.bytes());
            assert_eq!(absorbed.finish(), whole, "absorb, split at {split}");
            assert_eq!(merged.finish(), whole, "merge, split at {split}");
        }
        assert_eq!(guard.memory_used(), 0);
    }

    /// A chunk of a different key shape demotes the raw-code keyer to
    /// the generic one without moving a slot: `=ⁿ` still sends
    /// Float(10.0) to the Int(10) group, a decoded string to its
    /// dictionary group, and NULL to NULL.
    #[test]
    fn groups_demotion_from_int_and_dict_keys_is_lossless() {
        use crate::batch::StringDict;
        let guard = g();
        let ints = [ColumnVector::from_values(
            [Value::Int(10), Value::Null, Value::Int(10)].iter(),
        )];
        let mut groups = Groups::new(&[], &guard);
        groups.prepare(&ints);
        assert!(matches!(groups.keyer, Keyer::Int(_)));
        let slots: Vec<usize> = (0..3).map(|i| groups.slot(&ints, i).unwrap()).collect();
        assert_eq!(slots, [0, 1, 0]);
        let floats = [ColumnVector::from_values(
            [Value::Float(10.0), Value::Null, Value::Float(0.5)].iter(),
        )];
        groups.prepare(&floats);
        assert!(matches!(groups.keyer, Keyer::Generic(_)));
        let slots: Vec<usize> = (0..3).map(|i| groups.slot(&floats, i).unwrap()).collect();
        assert_eq!(slots, [0, 1, 2]);

        let mut b = StringDict::default();
        let x = b.intern("x").unwrap();
        let y = b.intern("y").unwrap();
        let coded = [ColumnVector::Dict {
            codes: vec![y, NULL_CODE, x, y],
            dict: Arc::new(b),
        }];
        let mut groups = Groups::new(&[], &guard);
        groups.prepare(&coded);
        assert!(matches!(groups.keyer, Keyer::Dict { .. }));
        let slots: Vec<usize> = (0..4).map(|i| groups.slot(&coded, i).unwrap()).collect();
        assert_eq!(slots, [0, 1, 2, 0]);
        let plain = [ColumnVector::from_values(
            [Value::str("x"), Value::Null, Value::str("z")].iter(),
        )];
        groups.prepare(&plain);
        assert!(matches!(groups.keyer, Keyer::Generic(_)));
        let slots: Vec<usize> = (0..3).map(|i| groups.slot(&plain, i).unwrap()).collect();
        assert_eq!(slots, [2, 1, 3]);
        // The row operators' entry point sees the same table.
        groups.fold(GroupKey(vec![Value::str("y")]), &[]).unwrap();
        assert_eq!(groups.len(), 4);
        let keys: Vec<Value> = groups.finish().into_iter().flatten().collect();
        assert_eq!(
            keys,
            [
                Value::str("y"),
                Value::Null,
                Value::str("x"),
                Value::str("z")
            ]
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
