//! Multi-shard-in-process distributed execution.
//!
//! The sharded runner executes a plan over hash-partitioned data: every
//! intermediate relation is a set of per-shard row vectors, operators
//! run one worker per shard (scheduled onto the morsel worker pool),
//! and [`crate::exchange`] repartitions rows — metering
//! `shipped_rows`/`shipped_bytes` — whenever an operator needs
//! co-location its inputs don't already have. This is the paper §7
//! setting made measurable: with the certified eager pre-aggregation
//! pushed *below* the join's exchange (a combiner), partial aggregates
//! travel instead of raw rows and `shipped_bytes` records the win.
//!
//! **The runner executes, it does not decide.** Where rows live and
//! which inputs must move is [`gbj_plan::distribute`]'s answer — a
//! [`Distribution`] tree computed once per run, the same tree the
//! optimizer's `plan_distribution` prices — and `eval` carries out each
//! input's [`Movement`]: `Stay`, `Repartition` (an exchange on the
//! named key columns, under `=ⁿ`, so NULL keys share one shard),
//! `Combine` (the certified pre-aggregation, legal only under the
//! FD1/FD2 certificate the engine sets [`ExecOptions::combiner`](crate::ExecOptions::combiner) from)
//! or `Gather`.
//!
//! **Byte-identity contract.** For every supported plan the sharded run
//! produces the same result multiset as the single-shard engine and the
//! same counter fingerprint (`rows_in`/`rows_out`/`batches`/
//! `hash_entries` per operator): totals are charged from logical input
//! sizes via the same formulas ([`input_batches`]), per-shard kernels
//! share one [`MetricsSink`] and their disjoint contributions (build
//! rows, distinct groups) sum to the single-shard numbers, and the
//! combiner records the *merged* group count, never per-shard partials.
//! Shipped counters are excluded from the fingerprint (they scale with
//! the shard count) but are themselves deterministic at a fixed shard
//! count — identical across thread counts and repeated runs.
//!
//! **Fault fidelity.** All shard inputs come from the same serial
//! [`Storage::open_scan`](gbj_storage::Storage::open_scan) cursor the
//! single-shard engine uses (same batch sizes, same global batch
//! ordinals, same row-id-keyed NULL flips), so a seeded
//! [`FaultInjector`](gbj_storage::FaultInjector) behaves identically
//! with and without shards; downstream sharded work is fault-free
//! in-memory compute.
//!
//! **Gating.** [`execution_path`](crate::execution_path) admits only
//! plans whose scalar expressions sit in the error-free vectorizable
//! subset (so per-shard evaluation order cannot change which error
//! surfaces), with hash join/aggregate algorithms selected. Everything
//! else falls back to the single-shard engine wholesale — the oracle
//! path. The per-shard kernels *are* the row engine's operator bodies
//! (`filter_rows`, `hash_join`, `hash_aggregate`, the `Groups` table …),
//! called once per shard. Like the parallel operators,
//! accumulator-state overflow (e.g. `SUM` crossing `i64::MAX` mid-
//! stream) can differ from serial accumulation order; see DESIGN.md §9.

use std::sync::Mutex;

use gbj_expr::BoundExpr;
use gbj_plan::{distribute, Distribution, LogicalPlan, Movement};
use gbj_storage::ShardedTable;
use gbj_types::{internal_err, GroupKey, Result, Value};

use crate::aggregate::{
    compile_aggregates, hash_aggregate, CompiledAggregate, Groups, Partial, ACC_ENTRY_BYTES,
};
use crate::exchange::{exchange, gather, ROW_FRAME_BYTES};
use crate::executor::{
    bind_sort_keys, distinct_rows, filter_rows, input_batches, project_rows, sort_rows, Executor,
};
use crate::guard::{row_bytes, ResourceGuard};
use crate::join::{bind_join, hash_join};
use crate::metrics::MetricsSink;
use crate::parallel::{collect_in_order, lock, run_morsels};
use crate::result::ProfileNode;

/// One intermediate relation: rows per shard. Where they live is the
/// plan node's [`Distribution::partitioning`].
type Parts = Vec<Vec<Vec<Value>>>;

fn total(parts: &Parts) -> usize {
    parts.iter().map(Vec::len).sum()
}

/// Run each shard's items (rows, or shipped partials) through `f` on
/// the morsel worker pool (one "morsel" per shard), collecting
/// per-shard outputs in shard order with deterministic
/// lowest-shard-first error selection.
fn map_shards<R, T, F>(threads: usize, parts: Vec<Vec<R>>, f: &F) -> Result<Vec<T>>
where
    R: Send,
    T: Send,
    F: Fn(usize, Vec<R>) -> Result<T> + Sync,
{
    let cells: Vec<Mutex<Vec<R>>> = parts.into_iter().map(Mutex::new).collect();
    let slots = run_morsels(cells.len(), threads, &|i| {
        let cell = cells
            .get(i)
            .ok_or_else(|| internal_err!("shard {i} out of range"))?;
        let rows = std::mem::take(&mut *lock(cell));
        f(i, rows)
    });
    collect_in_order(slots)
}

/// Key of `row` restricted to `ords`.
fn ordinal_key(row: &[Value], ords: &[usize]) -> Result<GroupKey> {
    ords.iter()
        .map(|&o| {
            row.get(o)
                .cloned()
                .ok_or_else(|| internal_err!("key ordinal {o} out of range"))
        })
        .collect::<Result<Vec<Value>>>()
        .map(GroupKey)
}

/// All of `rows` on shard 0 of `n` (after a gather).
fn on_shard_zero(rows: Vec<Vec<Value>>, n: usize) -> Parts {
    let mut parts: Parts = (0..n).map(|_| Vec::new()).collect();
    if let Some(first) = parts.first_mut() {
        *first = rows;
    }
    parts
}

/// Carry out one input's [`Movement`] on its rows, metering what
/// crosses shard boundaries into `sink`. [`Movement::Combine`] is not a
/// row movement — only an aggregate can perform it (see
/// [`combiner_aggregate`]).
fn move_rows(parts: Parts, movement: &Movement, n: usize, sink: &MetricsSink) -> Result<Parts> {
    match movement {
        Movement::Stay => Ok(parts),
        Movement::Repartition(ords) => exchange(parts, n, sink, |row| ordinal_key(row, ords)),
        Movement::Gather => Ok(on_shard_zero(gather(parts, sink), n)),
        Movement::Combine(_) => Err(internal_err!("combine movement outside an aggregate")),
    }
}

/// Execute `plan` across `options.shards` in-process shards and
/// concatenate the per-shard outputs in shard order.
pub(crate) fn run_sharded(
    exec: &Executor,
    plan: &LogicalPlan,
    guard: &ResourceGuard,
) -> Result<(Vec<Vec<Value>>, ProfileNode)> {
    let n = exec.options.shards.get();
    let dist = distribute(plan, exec.options.combiner, &|table| {
        exec.storage.partition_key(table).map(<[usize]>::to_vec)
    });
    let (parts, profile) = eval(exec, plan, &dist, guard, n)?;
    // Final delivery to the client is not an exchange: both plan shapes
    // return the same result rows, so it is never metered as shipped.
    Ok((parts.into_iter().flatten().collect(), profile))
}

/// Evaluate input `i` of a node and hand back its rows, its profile and
/// the movement `dist` prescribes for it.
fn eval_input<'d>(
    exec: &Executor,
    input: &LogicalPlan,
    dist: &'d Distribution,
    i: usize,
    guard: &ResourceGuard,
    n: usize,
) -> Result<(Parts, ProfileNode, &'d Movement)> {
    let (movement, child_dist) = dist
        .input(i)
        .ok_or_else(|| internal_err!("distribution tree lacks input {i}"))?;
    let (parts, profile) = eval(exec, input, child_dist, guard, n)?;
    Ok((parts, profile, movement))
}

#[allow(clippy::too_many_lines)]
fn eval(
    exec: &Executor,
    plan: &LogicalPlan,
    dist: &Distribution,
    guard: &ResourceGuard,
    n: usize,
) -> Result<(Parts, ProfileNode)> {
    let threads = exec.options.threads.get();
    match plan {
        LogicalPlan::Scan { table, schema, .. } => {
            // Stage 0 is the *single-shard* scan, bit for bit: same
            // cursor, same batch sizes, same fault-injection points.
            // Partitioning happens after the scan output materialises.
            let (rows, profile) = exec.scan_rows(plan, table, schema, guard)?;
            let sharded = ShardedTable::partition(rows, dist.partitioning.key(), n)?;
            Ok((sharded.into_parts(), profile))
        }

        LogicalPlan::Filter { input, predicate } => {
            let (child, child_profile, _) = eval_input(exec, input, dist, 0, guard, n)?;
            let sink = exec.sink();
            let timer = sink.start_timer();
            let bound = predicate.bind(&input.schema()?)?;
            let n_in = total(&child);
            let parts = map_shards(threads, child, &|_, rows| filter_rows(&bound, rows, guard))?;
            let n_out = total(&parts);
            guard.charge_rows(n_out)?;
            sink.add_batches(1);
            sink.record_probe(timer);
            let profile =
                ProfileNode::new(plan.label(), "ShardedFilter", n_out, vec![child_profile])
                    .with_metrics(sink.finish(n_in, n_out));
            Ok((parts, profile))
        }

        LogicalPlan::Project {
            input,
            exprs,
            distinct,
        } => {
            let (child, child_profile, movement) = eval_input(exec, input, dist, 0, guard, n)?;
            let sink = exec.sink();
            let timer = sink.start_timer();
            let in_schema = input.schema()?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| e.bind(&in_schema))
                .collect::<Result<_>>()?;
            let n_in = total(&child);
            let projected = map_shards(threads, child, &|_, rows| {
                project_rows(&bound, &rows, guard)
            })?;
            // DISTINCT moves the *projected* rows: equal output rows
            // co-locate (whole row = `=ⁿ` key), then dedup per shard.
            // The per-shard distinct counts are disjoint and sum to the
            // single-shard dedup-set size.
            let routed = move_rows(projected, movement, n, &sink)?;
            let (parts, op) = if *distinct {
                let parts = map_shards(threads, routed, &|_, rows| distinct_rows(rows, guard))?;
                (parts, "ShardedProjectDistinct")
            } else {
                (routed, "ShardedProject")
            };
            let n_out = total(&parts);
            guard.charge_rows(n_out)?;
            if *distinct {
                sink.add_hash_entries(n_out as u64);
            }
            sink.add_batches(1);
            sink.record_probe(timer);
            let profile = ProfileNode::new(plan.label(), op, n_out, vec![child_profile])
                .with_metrics(sink.finish(n_in, n_out));
            Ok((parts, profile))
        }

        LogicalPlan::CrossJoin { .. } => Err(internal_err!(
            "cross join reached the sharded runner; execution_path() should have refused it"
        )),

        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            let (l_parts, lp, l_move) = eval_input(exec, left, dist, 0, guard, n)?;
            let (r_parts, rp, r_move) = eval_input(exec, right, dist, 1, guard, n)?;
            let join = bind_join(left, right, condition)?;
            if join.keys.is_empty() {
                return Err(internal_err!(
                    "non-equi join reached the sharded runner; execution_path() should have refused it"
                ));
            }
            let sink = exec.sink();
            let l_n = total(&l_parts);
            let r_n = total(&r_parts);
            sink.add_batches(input_batches(l_n) + input_batches(r_n));
            // Each side repartitions on its key columns unless already
            // hash-distributed exactly that way (the combiner's output,
            // or a declared partition key, makes this free). Join keys
            // compare under 3VL, so NULL-key rows are routed (to one
            // shard, under `=ⁿ`) but never matched.
            let l_parts = move_rows(l_parts, l_move, n, &sink)?;
            let r_parts = move_rows(r_parts, r_move, n, &sink)?;
            // Per-shard serial hash joins sharing one sink: build-side
            // entry counts are per-row and each build row lives on
            // exactly one shard, so the totals match single-shard.
            let r_cells: Vec<Mutex<Vec<Vec<Value>>>> =
                r_parts.into_iter().map(Mutex::new).collect();
            let parts = map_shards(threads, l_parts, &|i, l_rows| {
                let r_rows = std::mem::take(&mut *lock(
                    r_cells
                        .get(i)
                        .ok_or_else(|| internal_err!("shard {i} out of range"))?,
                ));
                hash_join(&l_rows, &r_rows, &join.keys, &join.residual, guard, &sink)
            })?;
            let n_out = total(&parts);
            guard.charge_rows(n_out)?;
            let profile = ProfileNode::new(plan.label(), "ShardedHashJoin", n_out, vec![lp, rp])
                .with_metrics(sink.finish(l_n + r_n, n_out));
            Ok((parts, profile))
        }

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let (child, child_profile, movement) = eval_input(exec, input, dist, 0, guard, n)?;
            let (group_bound, compiled) =
                compile_aggregates(&input.schema()?, group_by, aggregates)?;
            let sink = exec.sink();
            let n_in = total(&child);
            sink.add_batches(input_batches(n_in));
            let aggregate_per_shard = |parts| {
                map_shards(threads, parts, &|_, rows| {
                    hash_aggregate(&rows, &group_bound, &compiled, guard, &sink)
                })
            };
            let (parts, op) = match movement {
                // Inherently global (a scalar aggregate yields one row
                // even over empty input): gather and run the serial
                // kernel on shard 0 — which, like single-shard, records
                // no hash entries for the scalar path.
                Movement::Gather => {
                    let gathered = gather(child, &sink);
                    let rows0 = hash_aggregate(&gathered, &group_bound, &compiled, guard, &sink)?;
                    (on_shard_zero(rows0, n), "GatherAggregate")
                }
                // The certified pre-aggregation below the exchange.
                Movement::Combine(_) => (
                    combiner_aggregate(threads, child, &group_bound, &compiled, guard, n, &sink)?,
                    "CombinerHashAggregate",
                ),
                // Equal groups already share a shard, or get there by a
                // raw-row exchange on the grouping columns (the
                // uncertified path GBJ502 flags): NULL is one `=ⁿ`
                // group on one shard. Then full aggregation per shard.
                Movement::Stay | Movement::Repartition(_) => (
                    aggregate_per_shard(move_rows(child, movement, n, &sink)?)?,
                    "ShardedHashAggregate",
                ),
            };
            let n_out = total(&parts);
            guard.charge_rows(n_out)?;
            let profile = ProfileNode::new(plan.label(), op, n_out, vec![child_profile])
                .with_metrics(sink.finish(n_in, n_out));
            Ok((parts, profile))
        }

        LogicalPlan::SubqueryAlias { input, .. } => {
            let (child, child_profile, _) = eval_input(exec, input, dist, 0, guard, n)?;
            let sink = exec.sink();
            sink.add_batches(1);
            let n_rows = total(&child);
            let profile =
                ProfileNode::new(plan.label(), "SubqueryAlias", n_rows, vec![child_profile])
                    .with_metrics(sink.finish(n_rows, n_rows));
            Ok((child, profile))
        }

        LogicalPlan::Sort { input, keys } => {
            let (child, child_profile, _) = eval_input(exec, input, dist, 0, guard, n)?;
            let sink = exec.sink();
            let n_in = total(&child);
            sink.add_batches(input_batches(n_in));
            let timer = sink.start_timer();
            let bound = bind_sort_keys(keys, &input.schema()?)?;
            // A global order needs all rows in one place: gather, then
            // the single-shard sort. Ties may interleave differently
            // than single-shard input order (the sort is stable over
            // the *gathered* order), which canonical comparison — and
            // any ORDER BY contract — permits.
            let sorted = sort_rows(gather(child, &sink), &bound, guard)?;
            sink.record_build(timer);
            let n_out = sorted.len();
            let profile = ProfileNode::new(plan.label(), "GatherSort", n_out, vec![child_profile])
                .with_metrics(sink.finish(n_in, n_out));
            Ok((on_shard_zero(sorted, n), profile))
        }
    }
}

/// The eager pre-aggregation pushed below the exchange: per-origin-
/// shard partial aggregation, partials shipped by key hash, merged at
/// the destination through `Accumulator::merge` in `(origin shard,
/// origin first-seen)` order — three uses of the one [`Groups`] table.
///
/// Metrics: partial tables are invisible (per-shard distinct counts
/// would over-count groups spanning origin shards); the merge phase
/// records the merged group count and state bytes, reproducing the
/// single-shard aggregate's `hash_entries` exactly. Shipped bytes price
/// each partial as framing + key payload + one accumulator-state entry
/// per aggregate ([`ACC_ENTRY_BYTES`]).
fn combiner_aggregate(
    threads: usize,
    parts: Vec<Vec<Vec<Value>>>,
    group_bound: &[BoundExpr],
    compiled: &[CompiledAggregate],
    guard: &ResourceGuard,
    n: usize,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Vec<Value>>>> {
    let timer = sink.start_timer();

    // Phase 1: partial aggregation on each origin shard.
    let partials: Vec<Vec<Partial>> = map_shards(threads, parts, &|_, rows| {
        let mut groups = Groups::new(compiled, guard);
        groups.fold_rows(group_bound, &rows)?;
        Ok(groups.into_partials())
    })?;

    // Phase 2: ship partials to the shard their key hashes to.
    let mut routed: Vec<Vec<Partial>> = (0..n.max(1)).map(|_| Vec::new()).collect();
    let mut shipped_rows = 0u64;
    let mut shipped_bytes = 0u64;
    for (origin, shard_partials) in partials.into_iter().enumerate() {
        for (key, accs) in shard_partials {
            let dest = key.shard(n);
            if dest != origin {
                shipped_rows += 1;
                shipped_bytes += ROW_FRAME_BYTES
                    + row_bytes(&key.0)
                    + ACC_ENTRY_BYTES * accs.len().max(1) as u64;
            }
            routed
                .get_mut(dest)
                .ok_or_else(|| internal_err!("combiner routed out of range"))?
                .push((key, accs));
        }
    }
    sink.add_shipped(shipped_rows, shipped_bytes);

    // Phase 3: merge at each destination shard.
    let out = map_shards(threads, routed, &|_, shard_partials| {
        let mut merged = Groups::new(compiled, guard);
        for partial in shard_partials {
            guard.tick()?;
            merged.merge(partial)?;
        }
        sink.add_hash_entries(merged.len() as u64);
        sink.add_state_bytes(merged.bytes());
        Ok(merged.finish())
    });
    sink.record_build(timer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::{plan1 as lazy_plan, plan2 as eager_plan, setup};
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
        let single = Executor::new(&s);
        for plan in [lazy_plan(&s), eager_plan(&s)] {
            let (expect, expect_p, _) = single.execute_metered(&plan).unwrap();
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
        let single = Executor::new(&s);
        let (expect, _, _) = single.execute_metered(&lazy_plan(&s)).unwrap();
        assert_eq!(canon(res.rows), canon(expect.rows));
    }
}
