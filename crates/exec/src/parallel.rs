//! Morsel-driven parallel operators.
//!
//! The executor's parallel path splits an operator's input into fixed
//! **morsels** whose boundaries depend only on the input size — never on
//! the thread count — and lets a fixed team of `std::thread` workers
//! claim morsel indices from a shared atomic counter (the classic
//! morsel-driven work-stealing loop, minus the NUMA plumbing). Each
//! morsel produces a *partial state*; the main thread folds the partials
//! back together **in morsel-index order**, which is what makes the
//! output byte-identical to the serial operators:
//!
//! * **aggregation** — per-morsel hash tables keyed by [`GroupKey`]
//!   (`=ⁿ`: NULL equals NULL) are merged through
//!   [`Accumulator::merge`]; folding morsel `0, 1, 2, …` reproduces the
//!   serial first-seen group order exactly, because first-seen over the
//!   concatenation of morsels *is* first-seen over the input;
//! * **hash join** — the build side is partitioned by key hash, each
//!   partition's row-index lists are assembled in morsel order (so they
//!   hold build-row indices in the same ascending order the serial
//!   build produces), and probe-morsel outputs are concatenated in
//!   morsel order, reproducing the serial probe order.
//!
//! Error handling: worker panics are caught and surfaced as
//! `Error::Internal`; morsel claims are strictly sequential, so every
//! morsel below the highest claimed index runs to completion, and
//! scanning result slots in morsel order always finds the *lowest*
//! erroring morsel — deterministic first-error selection regardless of
//! scheduling. The shared [`ResourceGuard`] is charged from every
//! worker, so row/memory/deadline budgets are global per query.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gbj_expr::{Accumulator, BoundExpr};
use gbj_plan::EquiKey;
use gbj_types::{internal_err, GroupKey, Result, Value};

use crate::aggregate::{new_accumulators, update_all, CompiledAggregate, Groups};
use crate::guard::{row_bytes, ResourceGuard};
use crate::join::{concat, residual_passes, side_key};
use crate::metrics::MetricsSink;

/// Rows per morsel, as a function of the input size only (so morsel
/// boundaries — and therefore merge order and results — are identical
/// at every thread count). Small inputs still split into several
/// morsels so tests exercise real scheduling; large inputs use the
/// classic ~1k-row morsel.
#[must_use]
pub(crate) fn morsel_rows(total: usize) -> usize {
    (total / 8).clamp(16, 1024)
}

/// Panic-free mutex lock: a poisoned mutex means a sibling worker
/// panicked mid-write, which `run_morsels` already converts into a
/// typed error — the data behind the lock is still the best record we
/// have, so recover it instead of propagating the poison.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `index`-th morsel of `rows` under morsel size `morsel`.
fn morsel_slice(rows: &[Vec<Value>], index: usize, morsel: usize) -> Result<&[Vec<Value>]> {
    let start = index.saturating_mul(morsel);
    let end = start.saturating_add(morsel).min(rows.len());
    rows.get(start..end)
        .ok_or_else(|| internal_err!("morsel {index} out of bounds"))
}

/// One build morsel's output: per-partition `(key, row index)` buckets.
type BuildSlot = Vec<Vec<(GroupKey, usize)>>;

/// Run `worker` over morsel indices `0..n_morsels` on a team of at most
/// `threads` members: the calling thread is the first of them — a team
/// of one spawns nothing and runs inline — and the others are scoped
/// worker threads. Returns one result slot per morsel; `None` marks a
/// morsel that was never claimed because an earlier morsel errored
/// (claims are strictly sequential, so unclaimed morsels always form a
/// suffix).
pub(crate) fn run_morsels<T, F>(
    n_morsels: usize,
    threads: usize,
    worker: &F,
) -> Vec<Option<Result<T>>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if n_morsels == 0 {
        return Vec::new();
    }
    let team = threads.min(n_morsels).max(1);
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n_morsels).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let member = || loop {
        if abort.load(Ordering::Relaxed) {
            return;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_morsels {
            return;
        }
        // A worker panic must not tear down the team — or, on the
        // calling thread, the caller: convert it into a typed error in
        // this morsel's slot. All other claimed morsels still run to
        // completion, so the scope's join never deadlocks and never
        // leaks a thread.
        let result = catch_unwind(AssertUnwindSafe(|| worker(i)))
            .unwrap_or_else(|_| Err(internal_err!("parallel worker panicked on morsel {i}")));
        if result.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        if let Some(slot) = slots.get(i) {
            *lock(slot) = Some(result);
        }
    };
    if team == 1 {
        member();
    } else {
        std::thread::scope(|s| {
            for _ in 1..team {
                s.spawn(member);
            }
            member();
        });
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Fold result slots in morsel order: the first `Err` encountered is by
/// construction the lowest-index error (deterministic first-error
/// selection); otherwise all morsels completed and their values are
/// returned in order.
pub(crate) fn collect_in_order<T>(slots: Vec<Option<Result<T>>>) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => return Err(internal_err!("morsel {i} unclaimed without a prior error")),
        }
    }
    Ok(out)
}

/// Partitioned parallel hash aggregation.
///
/// Byte-identical to [`crate::aggregate::hash_aggregate`] for integer
/// aggregates (and for float aggregates whose inputs are exactly
/// representable): each morsel folds into its own [`Groups`] table and
/// the coordinator absorbs the partials in morsel order, which
/// reproduces the serial first-seen group order and folds per-group
/// accumulator states through `Accumulator::merge`. See DESIGN.md §9
/// for the float-associativity caveat.
///
/// Memory: a group spanning k morsels transiently holds k entries where
/// serial holds one, so budgets bind slightly earlier than serial on
/// duplicate-heavy data (documented in DESIGN.md §9).
pub fn parallel_hash_aggregate(
    input: &[Vec<Value>],
    group_exprs: &[BoundExpr],
    aggregates: &[CompiledAggregate],
    guard: &ResourceGuard,
    threads: NonZeroUsize,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    let morsel = morsel_rows(input.len());
    let n_morsels = input.len().div_ceil(morsel);

    if group_exprs.is_empty() {
        // Scalar aggregate: one partial accumulator vector per morsel,
        // folded in morsel order; zero morsels still produce one row.
        let scalar_timer = sink.start_timer();
        let slots = run_morsels(n_morsels, threads.get(), &|i| {
            let mut accs = new_accumulators(aggregates);
            for row in morsel_slice(input, i, morsel)? {
                guard.tick()?;
                update_all(aggregates, &mut accs, row)?;
            }
            Ok(accs)
        });
        let mut accs = new_accumulators(aggregates);
        for partial in collect_in_order(slots)? {
            for (acc, p) in accs.iter_mut().zip(&partial) {
                acc.merge(p)?;
            }
        }
        sink.record_build(scalar_timer);
        return Ok(vec![accs.iter().map(Accumulator::finish).collect()]);
    }

    let build_timer = sink.start_timer();
    let slots = run_morsels(n_morsels, threads.get(), &|i| {
        let mut groups = Groups::new(aggregates, guard);
        groups.fold_rows(group_exprs, morsel_slice(input, i, morsel)?)?;
        Ok(groups)
    });
    let mut merged = Groups::new(aggregates, guard);
    for partial in collect_in_order(slots)? {
        merged.absorb(partial)?;
    }
    // Distinct groups of the *merged* table — identical to the serial
    // operator's count, unlike per-morsel sums (a group spanning k
    // morsels appears k times in those).
    sink.add_hash_entries(merged.len() as u64);
    sink.add_state_bytes(merged.bytes());
    sink.record_build(build_timer);
    let probe_timer = sink.start_timer();
    let out = merged.finish();
    sink.record_probe(probe_timer);
    Ok(out)
}

/// Deterministic partition assignment, delegating to
/// [`GroupKey::shard`] so in-operator partitioning and cross-shard
/// routing agree on the mapping.
fn partition_of(key: &GroupKey, parts: usize) -> usize {
    key.shard(parts)
}

/// Partitioned parallel hash join (build on `right`, probe with
/// `left`), byte-identical to [`crate::join::hash_join`].
///
/// Three phases: (1) build morsels are hashed into per-partition
/// buckets of `(key, build-row index)`; (2) each partition assembles
/// its hash table by consuming the buckets in morsel order, so per-key
/// index lists are in build-row order exactly as the serial build
/// produces; (3) probe morsels fan out and their outputs are
/// concatenated in morsel order, reproducing the serial probe order.
/// NULL keys are skipped on both sides (`NULL = NULL` is `unknown`).
pub fn parallel_hash_join(
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    keys: &[EquiKey],
    residual: &Option<BoundExpr>,
    guard: &ResourceGuard,
    threads: NonZeroUsize,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    let parts = threads.get();
    let charged = AtomicU64::new(0);
    let result = (|| -> Result<Vec<Vec<Value>>> {
        // Phase 1: partition the build side, morsel by morsel.
        let build_timer = sink.start_timer();
        let build_morsel = morsel_rows(right.len());
        let build_slots = run_morsels(
            right.len().div_ceil(build_morsel),
            threads.get(),
            &|i| -> Result<BuildSlot> {
                let start = i.saturating_mul(build_morsel);
                let rows = morsel_slice(right, i, build_morsel)?;
                let mut buckets: Vec<Vec<(GroupKey, usize)>> =
                    (0..parts).map(|_| Vec::new()).collect();
                for (off, r) in rows.iter().enumerate() {
                    guard.tick()?;
                    let Some(key) = side_key(r, |k| k.right, keys)? else {
                        continue;
                    };
                    let entry_bytes = row_bytes(&key.0) + std::mem::size_of::<usize>() as u64;
                    charged.fetch_add(entry_bytes, Ordering::Relaxed);
                    guard.charge_memory(entry_bytes)?;
                    let p = partition_of(&key, parts);
                    if let Some(bucket) = buckets.get_mut(p) {
                        bucket.push((key, start.saturating_add(off)));
                    }
                }
                Ok(buckets)
            },
        );
        let per_morsel = collect_in_order(build_slots)?;
        // One entry per non-NULL build row, each charged once — the
        // serial operator's counts exactly.
        sink.add_hash_entries(per_morsel.iter().flatten().map(|b| b.len() as u64).sum());
        sink.add_state_bytes(charged.load(Ordering::Relaxed));

        // Transpose to per-partition inputs, preserving morsel order so
        // each key's index list ends up in build-row order.
        let partition_inputs: Vec<Mutex<Vec<(GroupKey, usize)>>> =
            (0..parts).map(|_| Mutex::new(Vec::new())).collect();
        for buckets in per_morsel {
            for (p, bucket) in buckets.into_iter().enumerate() {
                if let Some(slot) = partition_inputs.get(p) {
                    lock(slot).extend(bucket);
                }
            }
        }

        // Phase 2: build one hash table per partition, in parallel.
        let table_slots = run_morsels(parts, threads.get(), &|p| {
            let entries = partition_inputs
                .get(p)
                .map(|m| std::mem::take(&mut *lock(m)))
                .unwrap_or_default();
            let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::new();
            for (key, idx) in entries {
                guard.tick()?;
                table.entry(key).or_default().push(idx);
            }
            Ok(table)
        });
        let tables = collect_in_order(table_slots)?;
        sink.record_build(build_timer);

        // Phase 3: fan probe morsels out; concatenate in morsel order.
        let probe_timer = sink.start_timer();
        let probe_morsel = morsel_rows(left.len());
        let probe_slots = run_morsels(
            left.len().div_ceil(probe_morsel),
            threads.get(),
            &|i| -> Result<Vec<Vec<Value>>> {
                let mut out = Vec::new();
                for l in morsel_slice(left, i, probe_morsel)? {
                    guard.tick()?;
                    let Some(key) = side_key(l, |k| k.left, keys)? else {
                        continue;
                    };
                    let p = partition_of(&key, parts);
                    if let Some(matches) = tables.get(p).and_then(|t| t.get(&key)) {
                        for &ri in matches {
                            guard.tick()?;
                            let r = right.get(ri).ok_or_else(|| {
                                internal_err!("parallel hash-join build index {ri} out of bounds")
                            })?;
                            let row = concat(l, r);
                            if residual_passes(residual, &row)? {
                                out.push(row);
                            }
                        }
                    }
                }
                Ok(out)
            },
        );
        let outputs = collect_in_order(probe_slots)?;
        sink.record_probe(probe_timer);
        Ok(outputs.into_iter().flatten().collect())
    })();
    guard.release_memory(charged.load(Ordering::Relaxed));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::hash_aggregate;
    use crate::aggregate::tests::{compile, group_exprs, sk};
    use crate::guard::ResourceLimits;
    use crate::join::hash_join;
    use gbj_expr::{AggregateCall, AggregateFunction, Expr};

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn agg_calls() -> Vec<CompiledAggregate> {
        vec![
            compile(AggregateCall::count_star()),
            compile(AggregateCall::new(AggregateFunction::Sum, Expr::bare("v"))),
            compile(AggregateCall::new(AggregateFunction::Min, Expr::bare("v"))),
            compile(AggregateCall::new(AggregateFunction::Avg, Expr::bare("v"))),
            compile(AggregateCall::new(AggregateFunction::Count, Expr::bare("v")).with_distinct()),
        ]
    }

    /// Deterministic pseudo-random rows with NULLs in both columns.
    fn make_rows(n: usize, groups: i64, seed: u64) -> Vec<Vec<Value>> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let g = if next() % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int((next() % groups as u64) as i64)
                };
                let v = if next() % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int((next() % 1000) as i64 - 500)
                };
                vec![g, v]
            })
            .collect()
    }

    #[test]
    fn parallel_aggregate_is_byte_identical_to_serial() {
        let guard = ResourceGuard::unlimited();
        for (n, groups) in [(0usize, 5i64), (1, 5), (37, 3), (200, 7), (1000, 50)] {
            let input = make_rows(n, groups, 0x5eed + n as u64);
            let serial =
                hash_aggregate(&input, &group_exprs(), &agg_calls(), &guard, &sk()).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let par = parallel_hash_aggregate(
                    &input,
                    &group_exprs(),
                    &agg_calls(),
                    &guard,
                    nz(threads),
                    &sk(),
                )
                .unwrap();
                assert_eq!(par, serial, "n={n} threads={threads}: rows or order differ");
            }
        }
        assert_eq!(guard.memory_used(), 0, "all table memory released");
    }

    #[test]
    fn parallel_scalar_aggregate_matches_serial_even_when_empty() {
        let guard = ResourceGuard::unlimited();
        for n in [0usize, 3, 100, 999] {
            let input = make_rows(n, 4, 42);
            let serial = hash_aggregate(&input, &[], &agg_calls(), &guard, &sk()).unwrap();
            for threads in [1usize, 3, 8] {
                let par =
                    parallel_hash_aggregate(&input, &[], &agg_calls(), &guard, nz(threads), &sk())
                        .unwrap();
                assert_eq!(par, serial, "n={n} threads={threads}");
                assert_eq!(par.len(), 1, "scalar aggregate is always one row");
            }
        }
    }

    #[test]
    fn parallel_join_is_byte_identical_to_serial() {
        let guard = ResourceGuard::unlimited();
        let keys = [EquiKey { left: 0, right: 0 }];
        for (nl, nr) in [
            (0usize, 10usize),
            (10, 0),
            (57, 23),
            (500, 100),
            (1000, 400),
        ] {
            let left = make_rows(nl, 20, 7);
            let right = make_rows(nr, 20, 8);
            let serial = hash_join(&left, &right, &keys, &None, &guard, &sk()).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let par =
                    parallel_hash_join(&left, &right, &keys, &None, &guard, nz(threads), &sk())
                        .unwrap();
                assert_eq!(
                    par, serial,
                    "nl={nl} nr={nr} threads={threads}: rows or order differ"
                );
            }
        }
        assert_eq!(guard.memory_used(), 0, "all build memory released");
    }

    #[test]
    fn deterministic_first_error_on_overflow() {
        // Two groups overflow SUM — one early, one late. Every thread
        // count must surface the overflow from the *earliest* morsel.
        let mut input = make_rows(600, 10, 99);
        if let Some(row) = input.get_mut(40) {
            *row = vec![Value::Int(777), Value::Int(i64::MAX)];
        }
        if let Some(row) = input.get_mut(41) {
            *row = vec![Value::Int(777), Value::Int(i64::MAX)];
        }
        if let Some(row) = input.get_mut(580) {
            *row = vec![Value::Int(888), Value::Int(i64::MAX)];
        }
        if let Some(row) = input.get_mut(581) {
            *row = vec![Value::Int(888), Value::Int(i64::MAX)];
        }
        let guard = ResourceGuard::unlimited();
        let sum = vec![compile(AggregateCall::new(
            AggregateFunction::Sum,
            Expr::bare("v"),
        ))];
        let serial = hash_aggregate(&input, &group_exprs(), &sum, &guard, &sk()).unwrap_err();
        for threads in [1usize, 2, 4, 8] {
            for _ in 0..4 {
                let err = parallel_hash_aggregate(
                    &input,
                    &group_exprs(),
                    &sum,
                    &guard,
                    nz(threads),
                    &sk(),
                )
                .unwrap_err();
                assert_eq!(err.kind(), serial.kind(), "threads={threads}");
                assert_eq!(err.message(), serial.message(), "threads={threads}");
            }
        }
        assert_eq!(guard.memory_used(), 0, "memory released after errors");
    }

    #[test]
    fn shared_memory_budget_fires_globally() {
        // 10k distinct group keys against a tiny budget: every thread
        // count must exhaust, and the guard must end fully released.
        let input: Vec<Vec<Value>> = (0..10_000)
            .map(|i| vec![Value::Int(i), Value::Int(1)])
            .collect();
        let sum = vec![compile(AggregateCall::new(
            AggregateFunction::Sum,
            Expr::bare("v"),
        ))];
        for threads in [1usize, 2, 4, 8] {
            let guard = ResourceGuard::new(ResourceLimits {
                max_memory_bytes: Some(4096),
                ..ResourceLimits::default()
            });
            let err =
                parallel_hash_aggregate(&input, &group_exprs(), &sum, &guard, nz(threads), &sk())
                    .unwrap_err();
            assert_eq!(err.kind(), "resource", "threads={threads}");
            assert_eq!(err.message(), "memory budget exceeded");
            assert_eq!(guard.memory_used(), 0, "threads={threads}: leak");
        }
    }

    #[test]
    fn worker_panic_becomes_internal_error_and_joins_all_threads() {
        let slots = run_morsels(32, 4, &|i| -> Result<usize> {
            if i == 7 {
                // Deliberate panic: run_morsels must catch it.
                #[allow(clippy::panic)]
                {
                    panic!("boom");
                }
            }
            Ok(i)
        });
        let err = collect_in_order(slots).unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("panicked"), "{err}");
    }

    #[test]
    fn parallel_metrics_counters_match_serial() {
        let guard = ResourceGuard::unlimited();
        // Aggregation: merged distinct group count matches the serial
        // table exactly at every thread count. (state_bytes may differ:
        // groups spanning morsels are charged once per morsel.)
        let input = make_rows(500, 9, 0xabc);
        let serial_sink = sk();
        hash_aggregate(&input, &group_exprs(), &agg_calls(), &guard, &serial_sink).unwrap();
        let serial = serial_sink.finish(0, 0);
        assert!(serial.hash_entries > 0);
        for threads in [1usize, 2, 4, 8] {
            let sink = sk();
            parallel_hash_aggregate(
                &input,
                &group_exprs(),
                &agg_calls(),
                &guard,
                nz(threads),
                &sink,
            )
            .unwrap();
            let par = sink.finish(0, 0);
            assert_eq!(par.hash_entries, serial.hash_entries, "threads={threads}");
        }
        // Join: build entries (non-NULL build rows) and state bytes both
        // match serial, since both charge per build row.
        let left = make_rows(400, 20, 1);
        let right = make_rows(150, 20, 2);
        let keys = [EquiKey { left: 0, right: 0 }];
        let serial_sink = sk();
        hash_join(&left, &right, &keys, &None, &guard, &serial_sink).unwrap();
        let serial = serial_sink.finish(0, 0);
        assert!(serial.hash_entries > 0);
        for threads in [1usize, 2, 4, 8] {
            let sink = sk();
            parallel_hash_join(&left, &right, &keys, &None, &guard, nz(threads), &sink).unwrap();
            let par = sink.finish(0, 0);
            assert_eq!(par.hash_entries, serial.hash_entries, "threads={threads}");
            assert_eq!(par.state_bytes, serial.state_bytes, "threads={threads}");
        }
    }

    #[test]
    fn morsel_rows_is_thread_independent_and_bounded() {
        assert_eq!(morsel_rows(0), 16);
        assert_eq!(morsel_rows(100), 16);
        assert_eq!(morsel_rows(800), 100);
        assert_eq!(morsel_rows(1_000_000), 1024);
    }
}
