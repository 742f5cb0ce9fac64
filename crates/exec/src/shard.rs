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

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use gbj_expr::BoundExpr;
use gbj_plan::LogicalPlan;
use gbj_storage::ShardedTable;
use gbj_types::{internal_err, GroupKey, Result, Value};

use crate::aggregate::{
    compile_aggregates, group_key, hash_aggregate, CompiledAggregate, Groups, Partial,
    ACC_ENTRY_BYTES,
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

/// How one intermediate relation is distributed across the shards.
#[derive(Debug, Clone)]
enum Partitioning {
    /// Hash-partitioned on any of these equivalent ordinal vectors
    /// (e.g. after an equi join, both sides' key columns).
    Hash(Vec<Vec<usize>>),
    /// Unknown placement (round-robin scans, remapped-away keys).
    Arbitrary,
    /// Everything on shard 0 (after a gather).
    Single,
}

/// One intermediate relation: rows per shard plus their distribution.
struct ShardedRows {
    parts: Vec<Vec<Vec<Value>>>,
    part: Partitioning,
}

fn total(parts: &[Vec<Vec<Value>>]) -> usize {
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

/// Whether data hash-partitioned as `part` is already routed exactly as
/// an exchange on `ords` would route it (same key sequence → same
/// [`GroupKey::shard`] mapping).
fn already_partitioned_on(part: &Partitioning, ords: &[usize]) -> bool {
    matches!(part, Partitioning::Hash(variants) if variants.iter().any(|v| v == ords))
}

/// Execute `plan` across `options.shards` in-process shards and
/// concatenate the per-shard outputs in shard order.
pub(crate) fn run_sharded(
    exec: &Executor,
    plan: &LogicalPlan,
    guard: &ResourceGuard,
) -> Result<(Vec<Vec<Value>>, ProfileNode)> {
    let n = exec.options.shards.get();
    let (sh, profile) = eval(exec, plan, guard, n, false)?;
    // Final delivery to the client is not an exchange: both plan shapes
    // return the same result rows, so it is never metered as shipped.
    Ok((sh.parts.into_iter().flatten().collect(), profile))
}

#[allow(clippy::too_many_lines)]
fn eval(
    exec: &Executor,
    plan: &LogicalPlan,
    guard: &ResourceGuard,
    n: usize,
    under_join: bool,
) -> Result<(ShardedRows, ProfileNode)> {
    let threads = exec.options.threads.get();
    // All rows on shard 0 (after a gather).
    let on_shard_zero = |rows: Vec<Vec<Value>>| {
        let mut parts: Vec<Vec<Vec<Value>>> = (0..n).map(|_| Vec::new()).collect();
        if let Some(first) = parts.get_mut(0) {
            *first = rows;
        }
        ShardedRows {
            parts,
            part: Partitioning::Single,
        }
    };
    match plan {
        LogicalPlan::Scan { table, schema, .. } => {
            // Stage 0 is the *single-shard* scan, bit for bit: same
            // cursor, same batch sizes, same fault-injection points.
            // Partitioning happens after the scan output materialises.
            let (rows, profile) = exec.scan_rows(plan, table, schema, guard)?;
            let key = exec.storage.partition_key(table);
            let sharded = ShardedTable::partition(rows, key, n)?;
            let part = match sharded.key() {
                Some(k) => Partitioning::Hash(vec![k.to_vec()]),
                None => Partitioning::Arbitrary,
            };
            Ok((
                ShardedRows {
                    parts: sharded.into_parts(),
                    part,
                },
                profile,
            ))
        }

        LogicalPlan::Filter { input, predicate } => {
            let (child, child_profile) = eval(exec, input, guard, n, under_join)?;
            let sink = exec.sink();
            let timer = sink.start_timer();
            let bound = predicate.bind(&input.schema()?)?;
            let n_in = total(&child.parts);
            let part = child.part.clone();
            let parts = map_shards(threads, child.parts, &|_, rows| {
                filter_rows(&bound, rows, guard)
            })?;
            let n_out = total(&parts);
            guard.charge_rows(n_out)?;
            sink.add_batches(1);
            sink.record_probe(timer);
            let profile =
                ProfileNode::new(plan.label(), "ShardedFilter", n_out, vec![child_profile])
                    .with_metrics(sink.finish(n_in, n_out));
            Ok((ShardedRows { parts, part }, profile))
        }

        LogicalPlan::Project {
            input,
            exprs,
            distinct,
        } => {
            let (child, child_profile) = eval(exec, input, guard, n, under_join)?;
            let sink = exec.sink();
            let timer = sink.start_timer();
            let in_schema = input.schema()?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| e.bind(&in_schema))
                .collect::<Result<_>>()?;
            let n_in = total(&child.parts);
            let projected = map_shards(threads, child.parts, &|_, rows| {
                project_rows(&bound, &rows, guard)
            })?;
            let (parts, part, op) = if *distinct {
                // Duplicate elimination is global: co-locate equal
                // output rows (whole row = `=ⁿ` key), then dedup per
                // shard. The per-shard distinct counts are disjoint and
                // sum to the single-shard dedup-set size.
                let routed = exchange(projected, n, &sink, |row| Ok(GroupKey(row.to_vec())))?;
                let parts = map_shards(threads, routed, &|_, rows| distinct_rows(rows, guard))?;
                (
                    parts,
                    Partitioning::Hash(vec![(0..bound.len()).collect()]),
                    "ShardedProjectDistinct",
                )
            } else {
                let part = remap_partitioning(&child.part, &bound);
                (projected, part, "ShardedProject")
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
            Ok((ShardedRows { parts, part }, profile))
        }

        LogicalPlan::CrossJoin { .. } => Err(internal_err!(
            "cross join reached the sharded runner; execution_path() should have refused it"
        )),

        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            let (l_sh, lp) = eval(exec, left, guard, n, true)?;
            let (r_sh, rp) = eval(exec, right, guard, n, true)?;
            let join = bind_join(left, right, condition)?;
            if join.keys.is_empty() {
                return Err(internal_err!(
                    "non-equi join reached the sharded runner; execution_path() should have refused it"
                ));
            }
            let lords: Vec<usize> = join.keys.iter().map(|k| k.left).collect();
            let rords: Vec<usize> = join.keys.iter().map(|k| k.right).collect();
            let sink = exec.sink();
            let l_n = total(&l_sh.parts);
            let r_n = total(&r_sh.parts);
            sink.add_batches(input_batches(l_n) + input_batches(r_n));
            // Repartition each side on its key columns unless already
            // hash-distributed exactly that way (the combiner's output,
            // or a declared partition key, makes this free).
            let l_parts = if already_partitioned_on(&l_sh.part, &lords) {
                l_sh.parts
            } else {
                exchange(l_sh.parts, n, &sink, |row| ordinal_key(row, &lords))?
            };
            let r_parts = if already_partitioned_on(&r_sh.part, &rords) {
                r_sh.parts
            } else {
                exchange(r_sh.parts, n, &sink, |row| ordinal_key(row, &rords))?
            };
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
            let part = Partitioning::Hash(vec![
                lords,
                rords.iter().map(|r| r + join.left_arity).collect(),
            ]);
            let profile = ProfileNode::new(plan.label(), "ShardedHashJoin", n_out, vec![lp, rp])
                .with_metrics(sink.finish(l_n + r_n, n_out));
            Ok((ShardedRows { parts, part }, profile))
        }

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let (child, child_profile) = eval(exec, input, guard, n, under_join)?;
            let (group_bound, compiled) =
                compile_aggregates(&input.schema()?, group_by, aggregates)?;
            let sink = exec.sink();
            let n_in = total(&child.parts);
            sink.add_batches(input_batches(n_in));

            if group_bound.is_empty() {
                // Scalar aggregate: inherently global (one row even
                // over empty input), so gather and run the serial
                // kernel on shard 0 — which, like single-shard, records
                // no hash entries for the scalar path.
                let gathered = gather(child.parts, &sink);
                let rows0 = hash_aggregate(&gathered, &group_bound, &compiled, guard, &sink)?;
                let n_out = rows0.len();
                guard.charge_rows(n_out)?;
                let profile =
                    ProfileNode::new(plan.label(), "GatherAggregate", n_out, vec![child_profile])
                        .with_metrics(sink.finish(n_in, n_out));
                return Ok((on_shard_zero(rows0), profile));
            }

            let group_ords: Option<Vec<usize>> = group_bound
                .iter()
                .map(|b| match b {
                    BoundExpr::Column(o) => Some(*o),
                    _ => None,
                })
                .collect();
            // Equal group keys already co-located? True when all rows
            // sit on shard 0, or when some partition-key variant's
            // ordinals are a subset of the grouping columns (equal
            // group values ⇒ equal partition-key values ⇒ same shard).
            let colocated = matches!(child.part, Partitioning::Single)
                || match (&child.part, &group_ords) {
                    (Partitioning::Hash(variants), Some(ords)) => {
                        let set: HashSet<usize> = ords.iter().copied().collect();
                        variants.iter().any(|pk| pk.iter().all(|o| set.contains(o)))
                    }
                    _ => false,
                };
            let aggregate_per_shard = |parts| {
                map_shards(threads, parts, &|_, rows| {
                    hash_aggregate(&rows, &group_bound, &compiled, guard, &sink)
                })
            };
            let on_group_key = Partitioning::Hash(vec![(0..group_bound.len()).collect()]);

            let (parts, part, op) = if colocated {
                // Partition-key variants survive where the grouping
                // passes their columns through (group column i lands
                // at output position i).
                (
                    aggregate_per_shard(child.parts)?,
                    remap_partitioning(&child.part, &group_bound),
                    "ShardedHashAggregate",
                )
            } else if exec.options.combiner && under_join {
                let parts = combiner_aggregate(
                    threads,
                    child.parts,
                    &group_bound,
                    &compiled,
                    guard,
                    n,
                    &sink,
                )?;
                (parts, on_group_key, "CombinerHashAggregate")
            } else {
                // Raw-row exchange on the grouping key, then per-shard
                // full aggregation (the uncertified path GBJ502 flags).
                let routed = exchange(child.parts, n, &sink, |row| group_key(&group_bound, row))?;
                (
                    aggregate_per_shard(routed)?,
                    on_group_key,
                    "ShardedHashAggregate",
                )
            };
            let n_out = total(&parts);
            guard.charge_rows(n_out)?;
            let profile = ProfileNode::new(plan.label(), op, n_out, vec![child_profile])
                .with_metrics(sink.finish(n_in, n_out));
            Ok((ShardedRows { parts, part }, profile))
        }

        LogicalPlan::SubqueryAlias { input, .. } => {
            let (child, child_profile) = eval(exec, input, guard, n, under_join)?;
            let sink = exec.sink();
            sink.add_batches(1);
            let n_rows = total(&child.parts);
            let profile =
                ProfileNode::new(plan.label(), "SubqueryAlias", n_rows, vec![child_profile])
                    .with_metrics(sink.finish(n_rows, n_rows));
            Ok((child, profile))
        }

        LogicalPlan::Sort { input, keys } => {
            let (child, child_profile) = eval(exec, input, guard, n, under_join)?;
            let sink = exec.sink();
            let n_in = total(&child.parts);
            sink.add_batches(input_batches(n_in));
            let timer = sink.start_timer();
            let bound = bind_sort_keys(keys, &input.schema()?)?;
            // A global order needs all rows in one place: gather, then
            // the single-shard sort. Ties may interleave differently
            // than single-shard input order (the sort is stable over
            // the *gathered* order), which canonical comparison — and
            // any ORDER BY contract — permits.
            let sorted = sort_rows(gather(child.parts, &sink), &bound, guard)?;
            sink.record_build(timer);
            let n_out = sorted.len();
            let profile = ProfileNode::new(plan.label(), "GatherSort", n_out, vec![child_profile])
                .with_metrics(sink.finish(n_in, n_out));
            Ok((on_shard_zero(sorted), profile))
        }
    }
}

/// Remap a partitioning through a projection or grouping list: a `Hash`
/// variant survives iff every one of its input ordinals is passed
/// through as a plain column (first such output position wins).
fn remap_partitioning(part: &Partitioning, bound: &[BoundExpr]) -> Partitioning {
    match part {
        Partitioning::Single => Partitioning::Single,
        Partitioning::Arbitrary => Partitioning::Arbitrary,
        Partitioning::Hash(variants) => {
            let mut first_output: HashMap<usize, usize> = HashMap::new();
            for (j, b) in bound.iter().enumerate() {
                if let BoundExpr::Column(o) = b {
                    first_output.entry(*o).or_insert(j);
                }
            }
            let remapped: Vec<Vec<usize>> = variants
                .iter()
                .filter_map(|pk| {
                    pk.iter()
                        .map(|o| first_output.get(o).copied())
                        .collect::<Option<Vec<usize>>>()
                })
                .collect();
            if remapped.is_empty() {
                Partitioning::Arbitrary
            } else {
                Partitioning::Hash(remapped)
            }
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
