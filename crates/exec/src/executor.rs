//! The recursive plan executor.

use std::collections::HashSet;
use std::num::NonZeroUsize;

use gbj_expr::{BoundExpr, Expr};
use gbj_plan::LogicalPlan;
use gbj_storage::Storage;
use gbj_types::{internal_err, GroupKey, Result, Schema, Truth, Value};

use crate::aggregate::{compile_aggregates, hash_aggregate};
use crate::guard::{ResourceGuard, ResourceLimits};
use crate::join::{bind_join, hash_join, nested_loop_join};
use crate::metrics::MetricsSink;
use crate::parallel::morsel_rows;
use crate::path::{execution_path, ExecPath};
use crate::result::{ProfileNode, ResultSet};

/// Executor options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Resource budgets enforced during execution (default: unlimited).
    pub limits: ResourceLimits,
    /// The size of the thread team the chunk pipeline runs its parts on
    /// (see `crate::parallel`), the calling thread included — and
    /// nothing else: the row engine is serial, and one part runs inline
    /// on the calling thread, so below `shards > 1` this is a no-op.
    /// Rows, errors and counters are byte-identical at every value.
    pub threads: NonZeroUsize,
    /// Collect per-operator metrics (counters and phase timings) into
    /// each [`ProfileNode`]. On by default; turning it off replaces
    /// every sink with a no-op that skips its clock reads.
    pub metrics: bool,
    /// Run the plan on the chunk pipeline (see [`crate::pipeline`]) when
    /// the whole-plan gate ([`execution_path`](crate::execution_path))
    /// admits it — the default, and the product. `false` is the oracle
    /// switch: the serial row engine, whatever `threads` and `shards`
    /// say. A plan the gate refuses runs on that same row engine, so
    /// results — including errors and the metrics fingerprint — are
    /// byte-identical either way.
    pub vectorized: bool,
    /// How many hash-partitioned parts the chunk pipeline runs over.
    /// `1` (the default) is single-shard execution; at higher values
    /// plans that pass the strict gate run over that many parts, with
    /// exchanges metering `shipped_rows` / `shipped_bytes`,
    /// byte-identical to single-shard output, and plans it refuses run
    /// at one part. Ignored when `vectorized` is off.
    pub shards: NonZeroUsize,
    /// Push certified eager pre-aggregations below the exchange as
    /// combiners (partial aggregation per origin shard, merge at the
    /// destination). Only sound when the optimizer certified the eager
    /// rewrite, so the engine sets this per query from the FD
    /// certificate; off by default.
    pub combiner: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            limits: ResourceLimits::default(),
            threads: NonZeroUsize::MIN,
            metrics: true,
            vectorized: true,
            shards: NonZeroUsize::MIN,
            combiner: false,
        }
    }
}

/// Whole-query execution measurements that live on the
/// [`ResourceGuard`] rather than any one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSummary {
    /// The path the plan ran on and at how many shards, with the reason
    /// when a faster configuration refused it.
    pub path: ExecPath,
    /// Memory high-water mark: largest operator-state footprint held at
    /// any one time (bytes).
    pub peak_memory_bytes: u64,
    /// Total rows charged against the row budget across all operators.
    pub rows_charged: u64,
    /// Rows shipped across shard boundaries by exchanges, gathers and
    /// combiners (0 on single-shard runs).
    pub shipped_rows: u64,
    /// Modelled wire bytes for those shipped rows (0 on single-shard
    /// runs).
    pub shipped_bytes: u64,
}

/// Sum the shipped counters over a whole profile tree.
fn shipped_totals(profile: &ProfileNode) -> (u64, u64) {
    let mut rows = profile.metrics.shipped_rows;
    let mut bytes = profile.metrics.shipped_bytes;
    for child in &profile.children {
        let (r, b) = shipped_totals(child);
        rows += r;
        bytes += b;
    }
    (rows, bytes)
}

/// Input batches a blocking operator processes: the morsel count, a
/// function of input size only, so the number is identical on both
/// paths and at every part and thread count.
pub(crate) fn input_batches(len: usize) -> u64 {
    len.div_ceil(morsel_rows(len)) as u64
}

/// The row filter: keep the rows whose predicate is `true` under 3VL.
fn filter_rows(
    predicate: &BoundExpr,
    rows: Vec<Vec<Value>>,
    guard: &ResourceGuard,
) -> Result<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    for row in rows {
        guard.tick()?;
        if predicate.eval_truth(&row)? == Truth::True {
            out.push(row);
        }
    }
    Ok(out)
}

/// The row projection: evaluate `exprs` on every row.
fn project_rows(
    exprs: &[BoundExpr],
    rows: &[Vec<Value>],
    guard: &ResourceGuard,
) -> Result<Vec<Vec<Value>>> {
    rows.iter()
        .map(|row| {
            guard.tick()?;
            exprs.iter().map(|e| e.eval(row)).collect()
        })
        .collect()
}

/// Duplicate elimination under `=ⁿ` (NULL equals NULL), keeping the
/// first occurrence of each row.
fn distinct_rows(rows: Vec<Vec<Value>>, guard: &ResourceGuard) -> Result<Vec<Vec<Value>>> {
    let mut seen: HashSet<GroupKey> = HashSet::new();
    let mut out = Vec::new();
    for row in rows {
        guard.tick()?;
        if seen.insert(GroupKey(row.clone())) {
            out.push(row);
        }
    }
    Ok(out)
}

/// Bind `(expression, ascending)` sort keys against the input schema.
pub(crate) fn bind_sort_keys(
    keys: &[(Expr, bool)],
    schema: &Schema,
) -> Result<Vec<(BoundExpr, bool)>> {
    keys.iter()
        .map(|(e, asc)| Ok((e.bind(schema)?, *asc)))
        .collect()
}

/// Stable sort on the bound keys under the total order (NULLs last
/// ascending), evaluating each key once per row.
pub(crate) fn sort_rows(
    rows: Vec<Vec<Value>>,
    keys: &[(BoundExpr, bool)],
    guard: &ResourceGuard,
) -> Result<Vec<Vec<Value>>> {
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = rows
        .into_iter()
        .map(|row| {
            guard.tick()?;
            let k: Vec<Value> = keys
                .iter()
                .map(|(e, _)| e.eval(&row))
                .collect::<Result<_>>()?;
            Ok((k, row))
        })
        .collect::<Result<_>>()?;
    keyed.sort_by(|(a, _), (b, _)| {
        for ((x, y), (_, asc)) in a.iter().zip(b).zip(keys) {
            let ord = x.total_cmp(y);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Executes logical plans against a [`Storage`].
pub struct Executor<'a> {
    pub(crate) storage: &'a Storage,
    pub(crate) options: ExecOptions,
}

impl<'a> Executor<'a> {
    /// An executor with default options.
    #[must_use]
    pub fn new(storage: &'a Storage) -> Executor<'a> {
        Executor {
            storage,
            options: ExecOptions::default(),
        }
    }

    /// An executor with explicit options.
    #[must_use]
    pub fn with_options(storage: &'a Storage, options: ExecOptions) -> Executor<'a> {
        Executor { storage, options }
    }

    /// Execute a plan, returning the result and the per-operator
    /// cardinality profile.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<(ResultSet, ProfileNode)> {
        let (result, profile, _) = self.execute_metered(plan)?;
        Ok((result, profile))
    }

    /// Execute a plan, additionally returning whole-query measurements
    /// from the resource guard (memory high-water, rows charged).
    pub fn execute_metered(
        &self,
        plan: &LogicalPlan,
    ) -> Result<(ResultSet, ProfileNode, ExecSummary)> {
        let guard = ResourceGuard::new(self.options.limits);
        self.execute_metered_with_guard(plan, &guard)
    }

    /// Execute a plan under a caller-supplied [`ResourceGuard`].
    ///
    /// The session layer uses this to attach deadlines and cancellation
    /// tokens (and to compose the per-query budget into a server-wide
    /// one) while `ExecOptions` stays `Copy`: the guard carries the
    /// per-call state, the options the per-database configuration.
    pub fn execute_metered_with_guard(
        &self,
        plan: &LogicalPlan,
        guard: &ResourceGuard,
    ) -> Result<(ResultSet, ProfileNode, ExecSummary)> {
        let path = execution_path(plan, &self.options);
        let (rows, profile) = match path {
            ExecPath::Pipeline { shards, .. } => self.run_pipeline(plan, shards, guard)?,
            ExecPath::Row(_) => self.run(plan, guard)?,
        };
        let (shipped_rows, shipped_bytes) = shipped_totals(&profile);
        let summary = ExecSummary {
            path,
            peak_memory_bytes: guard.peak_memory(),
            rows_charged: guard.rows_used(),
            shipped_rows,
            shipped_bytes,
        };
        Ok((
            ResultSet {
                schema: plan.schema()?,
                rows,
            },
            profile,
            summary,
        ))
    }

    /// A fresh per-operator sink honouring [`ExecOptions::metrics`].
    pub(crate) fn sink(&self) -> MetricsSink {
        if self.options.metrics {
            MetricsSink::new()
        } else {
            MetricsSink::disabled()
        }
    }

    /// The row engine's table scan (the chunk pipeline drains the same
    /// cursor through `next_columnar`). The batched cursor is the
    /// fault-injection seam (short batches, injected failures, NULL
    /// flips) and gives the guard a cancellation point between batches;
    /// the pipeline's scan is the same serial cursor, so cursor batches
    /// are the same at every part and thread count.
    fn scan_rows(
        &self,
        plan: &LogicalPlan,
        table: &str,
        schema: &Schema,
        guard: &ResourceGuard,
    ) -> Result<(Vec<Vec<Value>>, ProfileNode)> {
        let sink = self.sink();
        let timer = sink.start_timer();
        let mut cursor = self.storage.open_scan(table)?;
        if cursor.arity() != schema.len() {
            return Err(internal_err!("scan schema arity mismatch for {table}"));
        }
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(cursor.total_rows());
        while let Some(batch) = cursor.next_batch()? {
            guard.charge_rows(batch.len())?;
            sink.add_batches(1);
            rows.extend(batch);
        }
        sink.record_probe(timer);
        let n = rows.len();
        let profile =
            ProfileNode::new(plan.label(), "Scan", n, vec![]).with_metrics(sink.finish(n, n));
        Ok((rows, profile))
    }

    /// The row engine: the reference oracle every other path must match.
    fn run(
        &self,
        plan: &LogicalPlan,
        guard: &ResourceGuard,
    ) -> Result<(Vec<Vec<Value>>, ProfileNode)> {
        match plan {
            LogicalPlan::Scan { table, schema, .. } => self.scan_rows(plan, table, schema, guard),

            LogicalPlan::Filter { input, predicate } => {
                let (in_rows, child) = self.run(input, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let n_in = in_rows.len();
                let bound = predicate.bind(&input.schema()?)?;
                let rows = filter_rows(&bound, in_rows, guard)?;
                guard.charge_rows(rows.len())?;
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), "Filter", rows.len(), vec![child])
                    .with_metrics(sink.finish(n_in, rows.len()));
                Ok((rows, profile))
            }

            LogicalPlan::Project {
                input,
                exprs,
                distinct,
            } => {
                let (in_rows, child) = self.run(input, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let in_schema = input.schema()?;
                let bound: Vec<_> = exprs
                    .iter()
                    .map(|(e, _)| e.bind(&in_schema))
                    .collect::<Result<_>>()?;
                let mut rows = project_rows(&bound, &in_rows, guard)?;
                if *distinct {
                    rows = distinct_rows(rows, guard)?;
                }
                guard.charge_rows(rows.len())?;
                let op = if *distinct {
                    // The dedup set is a hash table with one entry per
                    // distinct output row.
                    sink.add_hash_entries(rows.len() as u64);
                    "ProjectDistinct"
                } else {
                    "Project"
                };
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), op, rows.len(), vec![child])
                    .with_metrics(sink.finish(in_rows.len(), rows.len()));
                Ok((rows, profile))
            }

            LogicalPlan::CrossJoin { left, right } => {
                let (l, lp) = self.run(left, guard)?;
                let (r, rp) = self.run(right, guard)?;
                let sink = self.sink();
                let timer = sink.start_timer();
                let mut rows = Vec::with_capacity(l.len().saturating_mul(r.len()));
                for a in &l {
                    for b in &r {
                        // Charge eagerly: a runaway cross product must
                        // abort mid-loop, not after materialising.
                        guard.charge_rows(1)?;
                        let mut row = a.clone();
                        row.extend(b.iter().cloned());
                        rows.push(row);
                    }
                }
                sink.add_batches(1);
                sink.record_probe(timer);
                let profile = ProfileNode::new(plan.label(), "CrossJoin", rows.len(), vec![lp, rp])
                    .with_metrics(sink.finish(l.len() + r.len(), rows.len()));
                Ok((rows, profile))
            }

            LogicalPlan::Join {
                left,
                right,
                condition,
            } => {
                let (l, lp) = self.run(left, guard)?;
                let (r, rp) = self.run(right, guard)?;
                let join = bind_join(left, right, condition)?;
                let sink = self.sink();
                // Batches = input morsel count on both sides, a function
                // of input size only.
                sink.add_batches(input_batches(l.len()) + input_batches(r.len()));
                let (rows, op) = if join.keys.is_empty() {
                    let bound = condition.bind(&join.schema)?;
                    (
                        nested_loop_join(&l, &r, &bound, guard, &sink)?,
                        "NestedLoopJoin",
                    )
                } else {
                    (
                        hash_join(&l, &r, &join.keys, &join.residual, guard, &sink)?,
                        "HashJoin",
                    )
                };
                guard.charge_rows(rows.len())?;
                let profile = ProfileNode::new(plan.label(), op, rows.len(), vec![lp, rp])
                    .with_metrics(sink.finish(l.len() + r.len(), rows.len()));
                Ok((rows, profile))
            }

            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let (in_rows, child) = self.run(input, guard)?;
                let (group_bound, compiled) =
                    compile_aggregates(&input.schema()?, group_by, aggregates)?;
                let sink = self.sink();
                sink.add_batches(input_batches(in_rows.len()));
                let rows = hash_aggregate(&in_rows, &group_bound, &compiled, guard, &sink)?;
                guard.charge_rows(rows.len())?;
                let profile =
                    ProfileNode::new(plan.label(), "HashAggregate", rows.len(), vec![child])
                        .with_metrics(sink.finish(in_rows.len(), rows.len()));
                Ok((rows, profile))
            }

            LogicalPlan::SubqueryAlias { input, .. } => {
                let (rows, child) = self.run(input, guard)?;
                let sink = self.sink();
                sink.add_batches(1);
                let n = rows.len();
                Ok((
                    rows,
                    ProfileNode::new(plan.label(), "SubqueryAlias", n, vec![child])
                        .with_metrics(sink.finish(n, n)),
                ))
            }

            LogicalPlan::Sort { input, keys } => {
                let (rows, child) = self.run(input, guard)?;
                let sink = self.sink();
                sink.add_batches(input_batches(rows.len()));
                let timer = sink.start_timer();
                let rows = sort_rows(rows, &bind_sort_keys(keys, &input.schema()?)?, guard)?;
                sink.record_build(timer);
                let n = rows.len();
                Ok((
                    rows,
                    ProfileNode::new(plan.label(), "Sort", n, vec![child])
                        .with_metrics(sink.finish(n, n)),
                ))
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gbj_catalog::{ColumnDef, Constraint, TableDef};
    use gbj_expr::{AggregateCall, AggregateFunction};
    use gbj_types::{ColumnRef, DataType};

    /// Storage with the paper's Example 1 schema and a small instance:
    /// 3 departments, 7 employees (one with NULL DeptID).
    pub(crate) fn setup() -> Storage {
        let mut s = Storage::new();
        s.create_table(
            TableDef::new(
                "Department",
                vec![
                    ColumnDef::new("DeptID", DataType::Int64),
                    ColumnDef::new("Name", DataType::Utf8),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["DeptID".into()])),
        )
        .unwrap();
        s.create_table(
            TableDef::new(
                "Employee",
                vec![
                    ColumnDef::new("EmpID", DataType::Int64),
                    ColumnDef::new("DeptID", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["EmpID".into()])),
        )
        .unwrap();
        for (id, name) in [(1, "R&D"), (2, "Sales"), (3, "HR")] {
            s.insert("Department", vec![Value::Int(id), Value::str(name)])
                .unwrap();
        }
        let depts = [Some(1), Some(1), Some(1), Some(2), Some(2), None, Some(3)];
        for (i, d) in depts.iter().enumerate() {
            s.insert(
                "Employee",
                vec![Value::Int(i as i64 + 1), d.map_or(Value::Null, Value::Int)],
            )
            .unwrap();
        }
        s
    }

    pub(crate) fn scan(s: &Storage, table: &str, alias: &str) -> LogicalPlan {
        let def = s.catalog().table(table).unwrap();
        LogicalPlan::Scan {
            table: table.into(),
            qualifier: alias.into(),
            schema: def.schema(alias),
        }
    }

    /// Example 1's Plan 1 (lazy): Aggregate over Join.
    pub(crate) fn plan1(s: &Storage) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan(s, "Employee", "E")),
                right: Box::new(scan(s, "Department", "D")),
                condition: Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID")),
            }),
            group_by: vec![Expr::col("D", "DeptID"), Expr::col("D", "Name")],
            aggregates: vec![(
                AggregateCall::new(AggregateFunction::Count, Expr::col("E", "EmpID")),
                "cnt".into(),
            )],
        }
    }

    /// Example 1's Plan 2 (eager): aggregate below the join — the
    /// sharded pipeline's combiner site.
    pub(crate) fn plan2(s: &Storage) -> LogicalPlan {
        let grouped = LogicalPlan::Aggregate {
            input: Box::new(scan(s, "Employee", "E")),
            group_by: vec![Expr::col("E", "DeptID")],
            aggregates: vec![(
                AggregateCall::new(AggregateFunction::Count, Expr::col("E", "EmpID")),
                "cnt".into(),
            )],
        };
        LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(grouped),
                right: Box::new(scan(s, "Department", "D")),
                condition: Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID")),
            }),
            exprs: vec![
                (Expr::col("D", "DeptID"), "DeptID".into()),
                (Expr::col("D", "Name"), "Name".into()),
                (Expr::bare("cnt"), "cnt".into()),
            ],
            distinct: false,
        }
    }

    /// The oracle's options, every switch spelled out: the serial row
    /// engine. Never `ExecOptions::default()` — that is the pipeline.
    pub(crate) fn oracle_options() -> ExecOptions {
        ExecOptions {
            vectorized: false,
            threads: NonZeroUsize::MIN,
            shards: NonZeroUsize::MIN,
            ..ExecOptions::default()
        }
    }

    /// Pre-order `(operator, vectors)` of a profile.
    fn operator_vectors(p: &ProfileNode, out: &mut Vec<(String, u64)>) {
        out.push((p.operator.clone(), p.metrics.vectors));
        for child in &p.children {
            operator_vectors(child, out);
        }
    }

    /// Run `plan` as a differential's reference side and assert that
    /// the oracle is what ran: `path: row`, asked for, and no operator
    /// claiming a kernel. `options` is [`oracle_options`], possibly
    /// with a budget or a thread or shard count changed.
    pub(crate) fn run_oracle(
        s: &Storage,
        options: ExecOptions,
        plan: &LogicalPlan,
    ) -> Result<(ResultSet, ProfileNode, ExecSummary)> {
        let run = Executor::with_options(s, options).execute_metered(plan)?;
        assert_eq!(
            run.2.path,
            ExecPath::Row(None),
            "the reference ran {}",
            run.2.path
        );
        let mut ops = Vec::new();
        operator_vectors(&run.1, &mut ops);
        assert!(
            ops.iter().all(|(_, v)| *v == 0),
            "the reference claimed kernels: {ops:?}"
        );
        Ok(run)
    }

    /// [`run_oracle`] under [`oracle_options`], rows and profile.
    pub(crate) fn oracle(s: &Storage, plan: &LogicalPlan) -> (ResultSet, ProfileNode) {
        let (rows, profile, _) = run_oracle(s, oracle_options(), plan).unwrap();
        (rows, profile)
    }

    #[test]
    fn lazy_and_eager_plans_agree() {
        let s = setup();
        let exec = Executor::new(&s);
        let (lazy, _) = exec.execute(&plan1(&s)).unwrap();
        let (eager, _) = exec.execute(&plan2(&s)).unwrap();
        // Project the lazy result's columns for comparison (same shape).
        assert_eq!(lazy.len(), 3, "NULL-DeptID employee joins nothing");
        assert!(lazy.multiset_eq(&eager));
        let sorted = lazy.sorted();
        assert_eq!(
            sorted.rows[0],
            vec![Value::Int(1), Value::str("R&D"), Value::Int(3)]
        );
        assert_eq!(
            sorted.rows[2],
            vec![Value::Int(3), Value::str("HR"), Value::Int(1)]
        );
    }

    #[test]
    fn profile_reports_cardinalities() {
        let s = setup();
        let exec = Executor::new(&s);
        let (_, profile) = exec.execute(&plan1(&s)).unwrap();
        // Join: 6 of 7 employees match; aggregate: 3 groups.
        assert_eq!(profile.operator, "HashAggregate");
        assert_eq!(profile.rows_out, 3);
        let join = profile.find_operator("HashJoin").unwrap();
        assert_eq!(join.rows_out, 6);
        assert_eq!(join.rows_in(), 10, "7 employees + 3 departments");
    }

    /// `vectorized = false` is the oracle whatever else is set: the
    /// serial operators, `path: row`, the same rows and profile.
    #[test]
    fn the_oracle_switch_ignores_threads_and_shards() {
        let s = setup();
        for plan in [plan1(&s), plan2(&s)] {
            let (expect, expect_p) = oracle(&s, &plan);
            for (threads, shards) in [(4usize, 1usize), (1, 4), (8, 4)] {
                let options = ExecOptions {
                    threads: NonZeroUsize::new(threads).unwrap(),
                    shards: NonZeroUsize::new(shards).unwrap(),
                    ..oracle_options()
                };
                let (got, p, summary) = run_oracle(&s, options, &plan).unwrap();
                let ctx = format!("threads={threads} shards={shards}");
                assert_eq!(got.rows, expect.rows, "{ctx}");
                assert_eq!(p.display_tree(), expect_p.display_tree(), "{ctx}");
                assert_eq!(p.counter_fingerprint(), expect_p.counter_fingerprint());
                assert_eq!((summary.shipped_rows, summary.shipped_bytes), (0, 0));
            }
        }
    }

    #[test]
    fn profile_metrics_are_populated_on_both_paths() {
        let s = setup();
        let (_, p) = oracle(&s, &plan1(&s));
        assert_eq!(p.metrics.rows_in, 6, "aggregate consumes the join output");
        assert_eq!(p.metrics.hash_entries, 3, "three groups");
        assert!(p.metrics.batches > 0);
        let join = p.find_operator("HashJoin").unwrap();
        assert_eq!(join.metrics.rows_in, 10);
        assert_eq!(join.metrics.rows_out, 6);
        assert_eq!(join.metrics.hash_entries, 3, "three build-side departments");
        assert!(join.metrics.state_bytes > 0, "build table was charged");
        // The default — the pipeline — reports the same fingerprint.
        let (_, batch_p, summary) = Executor::new(&s).execute_metered(&plan1(&s)).unwrap();
        assert_eq!(summary.path.to_string(), "batch");
        assert_eq!(batch_p.counter_fingerprint(), p.counter_fingerprint());
    }

    #[test]
    fn batch_pipeline_profile_is_identical_at_every_thread_count() {
        let s = setup();
        let (expect_lazy, row_p) = oracle(&s, &plan1(&s));
        let (expect_eager, _) = oracle(&s, &plan2(&s));
        let mut serial_ops = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let options = ExecOptions {
                threads: NonZeroUsize::new(threads).unwrap(),
                ..ExecOptions::default()
            };
            assert_eq!(execution_path(&plan1(&s), &options).to_string(), "batch");
            let exec = Executor::with_options(&s, options);
            let (lazy, p) = exec.execute(&plan1(&s)).unwrap();
            assert_eq!(lazy.rows, expect_lazy.rows, "threads={threads}");
            let (eager, _) = exec.execute(&plan2(&s)).unwrap();
            assert_eq!(eager.rows, expect_eager.rows, "threads={threads}");
            // One part runs inline at every thread count: same operator
            // names, same fingerprint as the row engine, same `vectors`
            // — the counter that betrays the columnar path.
            assert_eq!(p.operator, "HashAggregate", "threads={threads}");
            assert_eq!(p.counter_fingerprint(), row_p.counter_fingerprint());
            let mut ops = Vec::new();
            operator_vectors(&p, &mut ops);
            assert!(ops.iter().all(|(_, v)| *v > 0), "{ops:?}");
            if threads == 1 {
                assert!(ops.iter().any(|(op, _)| op == "HashJoin"));
                serial_ops = ops;
            } else {
                assert_eq!(ops, serial_ops, "threads={threads}");
            }
        }
    }

    #[test]
    fn vectorized_filter_and_project_match_row_engine() {
        let s = setup();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(&s, "Employee", "E")),
                predicate: Expr::col("E", "DeptID")
                    .eq(Expr::lit(1i64))
                    .or(Expr::IsNull {
                        expr: Box::new(Expr::col("E", "DeptID")),
                        negated: false,
                    }),
            }),
            exprs: vec![(Expr::col("E", "DeptID"), "DeptID".into())],
            distinct: true,
        };
        let (expect, _) = oracle(&s, &plan);
        let (got, p) = Executor::new(&s).execute(&plan).unwrap();
        assert_eq!(got.rows, expect.rows);
        let filter = p.find_operator("Filter").unwrap();
        assert!(filter.metrics.vectors > 0, "filter ran the kernel");
        assert_eq!(
            filter.metrics.selected, filter.metrics.rows_out,
            "selection density counter matches survivors"
        );
        assert!(
            p.find_operator("ProjectDistinct").unwrap().metrics.vectors > 0,
            "distinct projection ran the kernel"
        );
    }

    #[test]
    fn refused_plans_run_the_pure_row_engine() {
        let s = setup();
        // `DeptID + 1 > 1` contains arithmetic, which can error and is
        // therefore outside the error-free rule: the *whole* plan —
        // including the join and aggregate above the filter, which are
        // inside the rule — must run the untouched row engine.
        let mut plan = plan1(&s);
        if let LogicalPlan::Aggregate { input, .. } = &mut plan {
            if let LogicalPlan::Join { left, .. } = input.as_mut() {
                *left = Box::new(LogicalPlan::Filter {
                    input: Box::new(scan(&s, "Employee", "E")),
                    predicate: Expr::col("E", "DeptID")
                        .binary(gbj_expr::BinaryOp::Add, Expr::lit(1i64))
                        .binary(gbj_expr::BinaryOp::Gt, Expr::lit(1i64)),
                });
            }
        }
        let (expect, row_p) = oracle(&s, &plan);
        assert!(row_p.find_operator("Filter").is_some());
        for threads in [1usize, 4] {
            let options = ExecOptions {
                threads: NonZeroUsize::new(threads).unwrap(),
                ..ExecOptions::default()
            };
            assert_eq!(
                execution_path(&plan, &options).to_string(),
                "row (Filter: arithmetic in predicate)"
            );
            let (got, p) = Executor::with_options(&s, options).execute(&plan).unwrap();
            assert_eq!(got.rows, expect.rows, "threads={threads}");
            assert_eq!(p.counter_fingerprint(), row_p.counter_fingerprint());
            let mut ops = Vec::new();
            operator_vectors(&p, &mut ops);
            assert!(
                ops.iter().all(|(_, v)| *v == 0),
                "row engine claimed kernels: {ops:?}"
            );
        }
    }

    #[test]
    fn order_by_an_error_free_key_stays_batch_native() {
        let s = setup();
        let plan = LogicalPlan::Sort {
            input: Box::new(plan1(&s)),
            keys: vec![(Expr::bare("cnt"), false), (Expr::col("D", "DeptID"), true)],
        };
        let (expect, row_p) = oracle(&s, &plan);
        let options = ExecOptions::default();
        assert_eq!(execution_path(&plan, &options).to_string(), "batch");
        let (got, p) = Executor::with_options(&s, options).execute(&plan).unwrap();
        assert_eq!(got.rows, expect.rows, "same order, not just same multiset");
        assert_eq!(p.operator, "Sort");
        assert_eq!(p.counter_fingerprint(), row_p.counter_fingerprint());
        assert!(p.find_operator("HashJoin").unwrap().metrics.vectors > 0);
    }

    #[test]
    fn metrics_can_be_disabled() {
        let s = setup();
        let exec = Executor::with_options(
            &s,
            ExecOptions {
                metrics: false,
                ..ExecOptions::default()
            },
        );
        let (_, p) = exec.execute(&plan1(&s)).unwrap();
        assert_eq!(p.metrics.batches, 0);
        assert_eq!(p.metrics.hash_entries, 0);
        assert_eq!(p.metrics.build_ns, 0);
        // Cardinalities are free — still reported.
        assert_eq!(p.metrics.rows_out, 3);
    }

    #[test]
    fn execute_metered_reports_guard_measurements() {
        let s = setup();
        let exec = Executor::new(&s);
        let (_, _, summary) = exec.execute_metered(&plan1(&s)).unwrap();
        assert!(summary.peak_memory_bytes > 0, "hash tables charged memory");
        assert!(summary.rows_charged >= 10, "scans charged their rows");
    }

    #[test]
    fn filter_and_distinct_project() {
        let s = setup();
        let exec = Executor::new(&s);
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(&s, "Employee", "E")),
                predicate: Expr::IsNull {
                    expr: Box::new(Expr::col("E", "DeptID")),
                    negated: true,
                },
            }),
            exprs: vec![(Expr::col("E", "DeptID"), "DeptID".into())],
            distinct: true,
        };
        let (r, p) = exec.execute(&plan).unwrap();
        assert_eq!(r.len(), 3, "distinct non-NULL DeptIDs");
        assert!(p.find_operator("ProjectDistinct").is_some());
        assert_eq!(p.find_operator("Filter").unwrap().rows_out, 6);
    }

    #[test]
    fn cross_join_cardinality() {
        let s = setup();
        let exec = Executor::new(&s);
        let plan = LogicalPlan::CrossJoin {
            left: Box::new(scan(&s, "Employee", "E")),
            right: Box::new(scan(&s, "Department", "D")),
        };
        let (r, _) = exec.execute(&plan).unwrap();
        assert_eq!(r.len(), 21);
    }

    /// A join without an equi key is refused by the pipeline and runs
    /// the row engine's nested loops, counter for counter the oracle.
    #[test]
    fn non_equi_join_falls_back_to_nested_loops() {
        let s = setup();
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&s, "Employee", "E")),
            right: Box::new(scan(&s, "Department", "D")),
            condition: Expr::col("E", "DeptID")
                .binary(gbj_expr::BinaryOp::Lt, Expr::col("D", "DeptID")),
        };
        let (expect, oracle_p) = oracle(&s, &plan);
        let (got, p, summary) = Executor::new(&s).execute_metered(&plan).unwrap();
        assert_eq!(summary.path.to_string(), "row (Join: no equi-join key)");
        assert_eq!(p.operator, "NestedLoopJoin");
        assert_eq!(got.rows, expect.rows);
        assert_eq!(p.counter_fingerprint(), oracle_p.counter_fingerprint());
    }

    #[test]
    fn sort_orders_rows() {
        let s = setup();
        let exec = Executor::new(&s);
        let plan = LogicalPlan::Sort {
            input: Box::new(scan(&s, "Employee", "E")),
            keys: vec![(Expr::col("E", "DeptID"), false)],
        };
        let (r, _) = exec.execute(&plan).unwrap();
        // Descending with NULLs: total order puts NULL greatest, so
        // descending puts the NULL row first.
        assert_eq!(r.rows[0][1], Value::Null);
        assert_eq!(r.rows[1][1], Value::Int(3));
    }

    #[test]
    fn subquery_alias_renames_for_outer_references() {
        let s = setup();
        let exec = Executor::new(&s);
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::SubqueryAlias {
                input: Box::new(scan(&s, "Department", "D")),
                alias: "V".into(),
            }),
            exprs: vec![(Expr::col("V", "Name"), "Name".into())],
            distinct: false,
        };
        let (r, _) = exec.execute(&plan).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.schema.field(0).column_ref(),
            ColumnRef::qualified("V", "Name")
        );
    }

    #[test]
    fn unknown_table_is_an_error() {
        let s = setup();
        let exec = Executor::new(&s);
        let plan = LogicalPlan::Scan {
            table: "Missing".into(),
            qualifier: "M".into(),
            schema: gbj_types::Schema::empty(),
        };
        assert!(exec.execute(&plan).is_err());
    }
}
