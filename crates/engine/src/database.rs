//! The [`Database`] facade.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gbj_analyze::{analyze_plan, Analysis, ColumnDomain, Nullability, SeedDomains};
use gbj_catalog::{Assertion, Catalog};
use gbj_core::{
    eager_aggregate, reverse_transform, EagerOutcome, Partition, ReverseOutcome, TransformOptions,
};
use gbj_exec::{ExecOptions, ExecPath, Executor, ProfileNode, ResourceGuard, ResultSet};
use gbj_expr::Expr;
use gbj_fd::FdContext;
use gbj_optimizer::{shape_cost, CardTree, CostModel, ShapeCost};
use gbj_plan::{BlockRelation, LogicalPlan, QueryBlock};
use gbj_sql::{parse_statements, Binder, BoundSelect, Statement};
use gbj_storage::{ColumnStats, Storage};
use gbj_types::{ColumnRef, DataType, Error, Result};

use crate::audit::{annotated_tree, audit_nodes, NodeAudit};
use crate::feedback::{delta_from_profile, FeedbackDelta, FeedbackStore};
use crate::stats::Estimator;

/// When to apply a *valid* group-by-before-join transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PushdownPolicy {
    /// Compare the Section 7 cost model's estimates and pick the
    /// cheaper plan (the default).
    #[default]
    CostBased,
    /// Always take the eager (group-by first) plan when valid.
    Always,
    /// Never take the eager plan (always lazy / unfolded).
    Never,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Eager-aggregation policy.
    pub policy: PushdownPolicy,
    /// Options for the core transformation.
    pub transform: TransformOptions,
    /// The cost model used by [`PushdownPolicy::CostBased`].
    pub cost_model: CostModel,
    /// Physical execution options.
    pub exec: ExecOptions,
    /// Verify every rewrite with the static analyzer
    /// ([`gbj_analyze`]): check that each eager rewrite keeps the `=ⁿ`
    /// grouping semantics (GBJ304) and re-check the chosen plan's schema
    /// soundness, turning Error-severity diagnostics into planning
    /// failures. Defaults to on in debug builds (and CI);
    /// `GBJ_VERIFY_REWRITES=1`/`0` overrides either way.
    pub verify_rewrites: bool,
    /// Close the adaptive loop automatically: after every metered run,
    /// absorb the measured per-node cardinalities into the
    /// [`FeedbackStore`] so the next planning of the same (or a
    /// congruent) query re-costs with observed selectivities and group
    /// counts. Off by default — callers that want stable plan-cache
    /// behaviour opt in per database (or via `GBJ_ADAPTIVE=1`).
    pub adaptive: bool,
    /// Clamp cardinality estimates to the hard upper bounds proven by
    /// the range/NDV abstract-interpretation pass (pass 6): `groups ≤ Π
    /// NDV`, `join ≤ |L|·|R|`, zero for provably-empty subtrees. The
    /// bounds are sound (never below the true cardinality), so
    /// `min(estimate, bound)` can only move an estimate toward the
    /// truth. On by default; `GBJ_CLAMP_ESTIMATES=0` disables for A/B
    /// accuracy comparisons.
    pub clamp_estimates: bool,
}

impl Default for EngineOptions {
    /// [`EngineOptions::from_env`]: defaults everywhere, overridden by
    /// the `GBJ_*` environment variables.
    fn default() -> EngineOptions {
        EngineOptions::from_env()
    }
}

impl EngineOptions {
    /// The one place the engine reads its environment. Defaults
    /// everywhere, except:
    ///
    /// - `GBJ_TEST_VECTORIZED` (`1`/`true`/`0`/`false`) sets the
    ///   vectorized switch — `0` is the oracle: the serial row engine,
    ///   whatever the other two say; `GBJ_TEST_SHARDS` (positive
    ///   integer) sets how many parts the chunk pipeline runs over and
    ///   `GBJ_TEST_THREADS` the thread team under those parts (a no-op
    ///   at one part) — the hooks `scripts/verify.sh` uses to push the
    ///   whole engine-level test suite through the oracle and through
    ///   the pipeline over several parts without touching each test;
    ///   unset, every test runs the product: the pipeline at one part;
    /// - `GBJ_VERIFY_REWRITES` (`1`/`0`, default: on in debug builds),
    ///   `GBJ_ADAPTIVE` (`1`, default off) and `GBJ_CLAMP_ESTIMATES`
    ///   (`0`, default on) set the fields of the same name.
    ///
    /// Unset, empty or unparsable values mean "no override".
    #[must_use]
    pub fn from_env() -> EngineOptions {
        EngineOptions::from_lookup(|name| std::env::var(name).ok())
    }

    fn from_lookup(var: impl Fn(&str) -> Option<String>) -> EngineOptions {
        let count = |name: &str| {
            var(name)?
                .trim()
                .parse::<usize>()
                .ok()
                .and_then(std::num::NonZeroUsize::new)
        };
        let mut exec = ExecOptions::default();
        exec.threads = count("GBJ_TEST_THREADS").unwrap_or(exec.threads);
        exec.shards = count("GBJ_TEST_SHARDS").unwrap_or(exec.shards);
        exec.vectorized = match var("GBJ_TEST_VECTORIZED").as_deref().map(str::trim) {
            Some("1" | "true") => true,
            Some("0" | "false") => false,
            _ => exec.vectorized,
        };
        EngineOptions {
            policy: PushdownPolicy::default(),
            transform: TransformOptions::default(),
            cost_model: CostModel::default(),
            exec,
            verify_rewrites: match var("GBJ_VERIFY_REWRITES").as_deref() {
                Some("1") => true,
                Some("0") => false,
                _ => cfg!(debug_assertions),
            },
            adaptive: var("GBJ_ADAPTIVE").as_deref() == Some("1"),
            clamp_estimates: var("GBJ_CLAMP_ESTIMATES").as_deref() != Some("0"),
        }
    }
}

/// Which plan shape the engine chose for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// The standard order: joins first, then group-by (`E1`).
    Lazy,
    /// Group-by pushed below the join (`E2`) — for a query over an
    /// aggregated view, the view kept as written, grouped before the
    /// join.
    Eager,
    /// An aggregated view unfolded into the single-block form
    /// (Section 8's reverse transformation), joined before it groups.
    Unfolded,
}

/// Everything the planner decided about one query, and the estimates
/// it decided with: a report is what the plan cache holds, and every
/// run of it — the miss that planned it and each later hit — audits
/// against [`QueryReport::estimates`] instead of estimating again.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The chosen shape.
    pub choice: PlanChoice,
    /// Why (validity + policy/cost reasoning).
    pub reason: String,
    /// The TestFD trace, when the transformation was examined.
    pub testfd: Option<String>,
    /// The partition display, when one was formed.
    pub partition: Option<String>,
    /// Itemised cost of the *lowered* lazy plan shape (per-operator
    /// walk; this is what the cost-based choice compares).
    pub lazy_shape: Option<ShapeCost>,
    /// Itemised cost of the lowered eager plan shape.
    pub eager_shape: Option<ShapeCost>,
    /// The chosen, optimized plan.
    pub plan: LogicalPlan,
    /// The optimized alternative plan (when a valid alternative exists).
    pub alternative: Option<LogicalPlan>,
    /// The FD1/FD2 certificate of an eager-aggregation rewrite: the
    /// rendered trace of the TestFD run that proved it, the same text
    /// as [`QueryReport::testfd`]. `Some` exactly when the forward
    /// transformation rewrote the block, whichever shape was chosen.
    pub certificate: Option<String>,
    /// The chosen plan's per-node cardinality estimates, as the plan
    /// was priced: feedback-aware with the facts learned as of
    /// planning, and clamped to the range pass's proven bounds when
    /// [`EngineOptions::clamp_estimates`] is on. For a cost-based
    /// choice this is the tree the chosen shape's cost was folded over.
    pub estimates: CardTree,
}

impl QueryReport {
    /// Render the EXPLAIN text. The `domains:` line is the range pass's
    /// catalog-seeded facts about the chosen plan's output, computed
    /// here from `catalog`: nothing on the query path reads it.
    #[must_use]
    pub fn explain(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "choice: {:?}\nreason: {}\n",
            self.choice, self.reason
        ));
        if let Some(p) = &self.partition {
            out.push_str(&format!("partition:\n{p}\n"));
        }
        if let (Some(l), Some(e)) = (&self.lazy_shape, &self.eager_shape) {
            out.push_str(&format!(
                "shape cost: lazy={:.0} eager={:.0}\n",
                l.total, e.total
            ));
            out.push_str(&format!(
                "shape rationale: join input {:.0} vs {:.0}, group input {:.0} vs {:.0} (lazy vs eager)\n",
                l.join_input, e.join_input, l.group_input, e.group_input
            ));
        }
        if let Some(t) = &self.testfd {
            out.push_str("TestFD:\n");
            out.push_str(t);
        }
        out.push_str(&domains_line(&self.plan, catalog));
        out.push_str("plan:\n");
        out.push_str(&self.plan.display_tree());
        if let Some(alt) = &self.alternative {
            out.push_str("alternative plan:\n");
            out.push_str(&alt.display_tree());
        }
        out
    }
}

/// EXPLAIN's `domains:` line: the range pass over `plan` from
/// catalog-only seeds, so the text is data-independent. Left out when
/// it has nothing to say.
fn domains_line(plan: &LogicalPlan, catalog: &Catalog) -> String {
    let analysis = analyze_plan(plan, &SeedDomains::from_catalog(catalog));
    match plan
        .schema()
        .map(|schema| analysis.root.render_columns(&schema))
    {
        Ok(domains) if !domains.is_empty() => format!("domains: {domains}\n"),
        _ => String::new(),
    }
}

/// Everything measured while running one query: separate planning and
/// execution wall times, whole-query resource measurements, the
/// per-operator profile and the estimator's per-node predictions.
/// Retrieved after the fact via [`Database::last_query_metrics`]
/// (the REPL's `\metrics` command).
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// The SQL that ran.
    pub sql_kind: &'static str,
    /// The plan shape the engine chose.
    pub choice: PlanChoice,
    /// Wall time spent in parse → bind → transform → optimize.
    pub planning: Duration,
    /// Wall time spent executing the physical plan.
    pub execution: Duration,
    /// Rows the query returned.
    pub rows: usize,
    /// Memory high-water mark across all operator state (bytes).
    pub peak_memory_bytes: u64,
    /// The execution path the plan ran on, with the reason when a
    /// faster configuration refused it.
    pub path: ExecPath,
    /// In-process shards the query actually ran at (1 = single-shard,
    /// whatever was configured).
    pub shards: usize,
    /// Measured rows shipped across shard boundaries (0 single-shard).
    pub shipped_rows: u64,
    /// Measured modelled wire bytes for those rows (0 single-shard).
    pub shipped_bytes: u64,
    /// The distribution planner's predicted shipped rows, when the
    /// query actually ran sharded (None single-shard or on fallback).
    pub predicted_shipped_rows: Option<f64>,
    /// The measured per-operator profile (with counters and timings).
    pub profile: ProfileNode,
    /// The estimator's per-node cardinality predictions for the plan
    /// that ran: a copy of [`QueryReport::estimates`], the tree the
    /// plan was priced with (feedback-aware as of planning, clamped
    /// when [`EngineOptions::clamp_estimates`] is on). No run estimates
    /// again. On a plan-cache hit this is exactly what estimating now
    /// would give: the cache keys on the plan epoch, and neither the
    /// rows nor the learned facts change without moving it.
    pub estimates: CardTree,
    /// The facts this run's measurements would teach the feedback
    /// store. Already absorbed when [`EngineOptions::adaptive`] is on;
    /// otherwise pass to [`Database::absorb_feedback`] to close the
    /// loop manually.
    pub feedback: FeedbackDelta,
}

impl QueryMetrics {
    /// The per-node estimate-vs-actual audit (pre-order).
    #[must_use]
    pub fn audits(&self) -> Vec<NodeAudit> {
        audit_nodes(&self.estimates, &self.profile)
    }

    /// Q-error of the distribution planner's shipped-rows prediction
    /// against the measured exchange counters: `max(p/m, m/p)` with
    /// both sides floored at 1 row (so an exact 0-vs-0 scores 1.0).
    /// `None` when the query did not run sharded.
    #[must_use]
    pub fn shipped_q_error(&self) -> Option<f64> {
        let predicted = self.predicted_shipped_rows?.max(1.0);
        let measured = (self.shipped_rows as f64).max(1.0);
        Some((predicted / measured).max(measured / predicted))
    }

    /// The one-line answer to "which path ran, and why not a faster
    /// one": `path: batch`, `path: sharded(4)`,
    /// `path: row (Filter: arithmetic in predicate)`, or
    /// `path: batch (4 shards refused — Aggregate: aggregate argument
    /// not error-free)`.
    #[must_use]
    pub fn path_line(&self) -> String {
        format!("path: {}\n", self.path)
    }

    /// Render the full metrics view: timings, resource high-water, the
    /// estimate-vs-actual tree and the raw counter/timing tree.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("choice: {:?}\n", self.choice));
        out.push_str(&self.path_line());
        out.push_str(&format!("planning time: {:?}\n", self.planning));
        out.push_str(&format!("execution time: {:?}\n", self.execution));
        out.push_str(&format!("rows: {}\n", self.rows));
        out.push_str(&format!("peak memory: {} B\n", self.peak_memory_bytes));
        if self.shards > 1 {
            out.push_str(&format!(
                "shards: {} (shipped {} rows / {} B over the wire)\n",
                self.shards, self.shipped_rows, self.shipped_bytes
            ));
            if let (Some(p), Some(q)) = (self.predicted_shipped_rows, self.shipped_q_error()) {
                out.push_str(&format!(
                    "shipped prediction: {p:.0} rows (q-error {q:.2})\n"
                ));
            }
        }
        out.push_str("estimate vs actual:\n");
        out.push_str(&annotated_tree(&self.audits()));
        out.push_str("operator metrics:\n");
        out.push_str(&self.profile.display_tree_with_metrics());
        out
    }
}

/// The output of executing one statement.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// Rows from a SELECT.
    Rows(ResultSet),
    /// EXPLAIN text.
    Explain(String),
    /// Rows affected by INSERT.
    Affected(usize),
    /// DDL acknowledgement.
    Ddl(String),
}

impl QueryOutput {
    /// The rows, if this output carries any.
    #[must_use]
    pub fn rows(&self) -> Option<&ResultSet> {
        match self {
            QueryOutput::Rows(r) => Some(r),
            _ => None,
        }
    }
}

/// Lock a metrics/feedback slot. A poisoned lock only means another
/// query panicked mid-store; the slot still holds a whole value, so
/// recover it rather than poisoning every later query.
fn locked<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An embedded `gbj` database.
///
/// ```
/// use gbj_engine::Database;
///
/// let mut db = Database::new();
/// db.run_script(
///     "CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30));
///      CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY,
///                             DeptID INTEGER REFERENCES Department);
///      INSERT INTO Department VALUES (1, 'Research'), (2, 'Sales');
///      INSERT INTO Employee VALUES (1, 1), (2, 1), (3, 2);",
/// )?;
/// let rows = db.query(
///     "SELECT D.Name, COUNT(E.EmpID) FROM Employee E, Department D
///      WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
/// )?;
/// assert_eq!(rows.len(), 2);
/// # Ok::<(), gbj_types::Error>(())
/// ```
#[derive(Default)]
pub struct Database {
    storage: Storage,
    options: EngineOptions,
    /// Metrics of the most recent query (SELECT or EXPLAIN ANALYZE),
    /// behind a mutex so the read-only query path can record them.
    last_metrics: Mutex<Option<QueryMetrics>>,
    /// Learned cardinality facts (adaptive stats feedback), behind a
    /// mutex so the read-only query path can absorb them. The store
    /// itself is immutable once published: a reader takes the `Arc`, a
    /// material change swaps in a new one.
    feedback: Mutex<Arc<FeedbackStore>>,
}

impl Database {
    /// An empty database with default options.
    #[must_use]
    pub fn new() -> Database {
        Database::default()
    }

    /// An empty database with explicit options.
    #[must_use]
    pub fn with_options(options: EngineOptions) -> Database {
        Database {
            storage: Storage::new(),
            options,
            last_metrics: Mutex::default(),
            feedback: Mutex::default(),
        }
    }

    /// Metrics of the most recent query (SELECT or `EXPLAIN ANALYZE`)
    /// on this database, if any ran yet.
    #[must_use]
    pub fn last_query_metrics(&self) -> Option<QueryMetrics> {
        locked(&self.last_metrics).clone()
    }

    fn record_metrics(&self, metrics: QueryMetrics) {
        *locked(&self.last_metrics) = Some(metrics);
    }

    /// The engine options.
    #[must_use]
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The engine options (mutable, e.g. to switch policies between
    /// queries).
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.options
    }

    /// Set the size of the thread team the chunk pipeline runs its
    /// parts on for subsequent queries. A team size only: at one shard
    /// (and on the oracle) nothing starts a thread, so it is a no-op
    /// unless [`Database::set_shards`] is above one; results are
    /// byte-identical at every value.
    pub fn set_threads(&mut self, threads: std::num::NonZeroUsize) {
        self.options.exec.threads = threads;
    }

    /// `true` (the default) runs subsequent queries on the chunk
    /// pipeline, over [`Database::set_shards`] parts; `false` is the
    /// oracle switch — the serial row engine, whatever the thread and
    /// shard counts say. Results are byte-identical either way.
    pub fn set_vectorized(&mut self, on: bool) {
        self.options.exec.vectorized = on;
    }

    /// Set how many hash-partitioned parts the chunk pipeline runs
    /// subsequent queries over (`1` = single-shard execution; results
    /// are byte-identical at every value — only the shipped-rows/bytes
    /// counters change). Ignored while the oracle switch
    /// ([`Database::set_vectorized`]`(false)`) is on.
    pub fn set_shards(&mut self, shards: std::num::NonZeroUsize) {
        self.options.exec.shards = shards;
    }

    /// Declare a hash-partition key for a base table (see
    /// [`Storage::declare_partition_key`]): sharded scans of the table
    /// then start out co-partitioned on those columns, making exchanges
    /// on that key free. A physical-layout declaration only — results
    /// never change.
    pub fn declare_partition_key(&mut self, table: &str, cols: &[&str]) -> Result<()> {
        self.storage.declare_partition_key(table, cols)
    }

    /// The underlying storage.
    #[must_use]
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// The storage's data/schema epoch (see [`Storage::epoch`]):
    /// strictly increases across successful mutations, so two
    /// databases (or a database and its [`Database::fork`]) with equal
    /// epochs hold identical committed state.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.storage.epoch()
    }

    /// The stats epoch: bumped whenever absorbed feedback materially
    /// changed a learned fact (see [`FeedbackStore::epoch`]). Monotone.
    #[must_use]
    pub fn stats_epoch(&self) -> u64 {
        locked(&self.feedback).epoch()
    }

    /// The planning epoch: the pair `(data epoch, stats epoch)` — the
    /// bound-plan cache key. Equal data epochs mean identical committed
    /// state ([`Database::epoch`]), so a plan found under this key
    /// binds and answers against the catalog and rows it was planned
    /// for; the stats component makes an absorbed feedback delta
    /// invalidate cached plans exactly like a write does, without
    /// pretending the data changed. Along one database's history equal
    /// pairs also mean equal learned facts, hence identical plans for
    /// identical SQL; two forks that each learned on their own
    /// (adaptive snapshots) can share a pair while holding different
    /// facts, and their plans may then differ in shape — never in rows.
    ///
    /// A pair, not a sum, because the components move independently:
    /// an adaptive snapshot that learned two facts at `(11, 2)` and the
    /// re-fork `(13, 0)` after a two-statement write hold different
    /// *data* with the same sum.
    #[must_use]
    pub fn plan_epoch(&self) -> (u64, u64) {
        (self.storage.epoch(), self.stats_epoch())
    }

    /// The learned feedback facts as of now: a shared handle (a pointer
    /// copy), never written again — [`Database::absorb_feedback`]
    /// publishes a new store instead.
    #[must_use]
    pub fn feedback_snapshot(&self) -> Arc<FeedbackStore> {
        Arc::clone(&locked(&self.feedback))
    }

    /// Merge measured-cardinality facts into the feedback store.
    /// Returns `true` iff something materially changed (which also
    /// bumps [`Database::stats_epoch`]). Safe from the read-only query
    /// path. With [`EngineOptions::adaptive`] set this happens
    /// automatically after every run this database planned itself
    /// ([`Database::query`], [`Database::execute`]); callers running
    /// the loop manually — and the serving layer, which runs reads on
    /// snapshots through the guarded entry points and owes their facts
    /// to the authoritative database — feed [`QueryMetrics::feedback`]
    /// here.
    pub fn absorb_feedback(&self, delta: &FeedbackDelta) -> bool {
        let mut published = locked(&self.feedback);
        let mut next = FeedbackStore::clone(&published);
        let changed = next.absorb(delta);
        if changed {
            *published = Arc::new(next);
        }
        changed
    }

    /// A consistent point-in-time snapshot of this database.
    ///
    /// O(tables), not O(rows): table row storage is `Arc`-shared and
    /// copied lazily on the writer's next mutation, so a fork is cheap
    /// enough to take per read-batch. The fork carries the catalog,
    /// data, epoch, options and fault injector as of now; later
    /// mutations on either side are invisible to the other. Metrics
    /// history is *not* carried over — a fork starts with none — but
    /// the learned feedback facts (and their stats epoch) *are*, so a
    /// serving snapshot plans with everything learned so far.
    #[must_use]
    pub fn fork(&self) -> Database {
        Database {
            storage: self.storage.clone(),
            options: self.options.clone(),
            last_metrics: Mutex::default(),
            feedback: Mutex::new(self.feedback_snapshot()),
        }
    }

    /// Install (or clear) a deterministic fault injector on the storage
    /// layer. Subsequent scans observe the configured faults; planning
    /// and constraint checking are unaffected.
    pub fn set_fault_injector(&mut self, injector: Option<gbj_storage::FaultInjector>) {
        self.storage.set_fault_injector(injector);
    }

    /// The currently installed fault injector, if any (to read its
    /// counters or reset it between differential runs).
    #[must_use]
    pub fn fault_injector(&self) -> Option<&gbj_storage::FaultInjector> {
        self.storage.fault_injector()
    }

    /// The catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        self.storage.catalog()
    }

    /// Bulk-insert pre-built rows (bypasses SQL parsing but not
    /// constraint checking) — the fast path for data generators.
    pub fn insert_rows(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<gbj_types::Value>>,
    ) -> Result<usize> {
        self.storage.insert_many(table, rows)
    }

    /// Execute a script of `;`-separated statements.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<QueryOutput>> {
        let stmts = parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput> {
        let mut outputs = self.run_script(sql)?;
        match outputs.len() {
            1 => Ok(outputs.remove(0)),
            n => Err(Error::Parse(format!("expected one statement, found {n}"))),
        }
    }

    /// Run a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        Ok(self.query_report(sql)?.0)
    }

    /// Parse `sql`, which must be one SELECT, and bind it against the
    /// catalog. `caller` names the entry point in the error.
    fn bind_select_sql(&self, sql: &str, caller: &str) -> Result<BoundSelect> {
        let Statement::Select(select) = gbj_sql::parse_sql(sql)? else {
            return Err(Error::Unsupported(format!("{caller}() expects a SELECT")));
        };
        Binder::new(self.storage.catalog()).bind_select(&select)
    }

    /// Run a SELECT, returning rows, the execution profile and the
    /// planning report.
    pub fn query_report(&self, sql: &str) -> Result<(ResultSet, ProfileNode, QueryReport)> {
        let (rows, metrics, report) =
            self.run_select(&self.bind_select_sql(sql, "query")?, "query")?;
        Ok((rows, metrics.profile, report))
    }

    /// The shared SELECT path: plan (timed), then [`Database::run_planned`]
    /// under a guard built from the configured limits.
    fn run_select(
        &self,
        bound: &BoundSelect,
        sql_kind: &'static str,
    ) -> Result<(ResultSet, QueryMetrics, QueryReport)> {
        let plan_start = Instant::now();
        let report = self.plan_bound(bound)?;
        let planning = plan_start.elapsed();
        let guard = ResourceGuard::new(self.options.exec.limits);
        let (rows, metrics) = self.run_planned(&report, sql_kind, planning, &guard)?;
        if self.options.adaptive {
            self.absorb_feedback(&metrics.feedback);
        }
        Ok((rows, metrics, report))
    }

    /// Per-query executor options: the configured options plus the
    /// combiner switch, which is sound only for an FD-certified eager
    /// plan (the aggregate below the join is exactly the certified
    /// pre-aggregation, so merging its partials preserves `=ⁿ`
    /// semantics and every accumulator).
    fn exec_options_for(&self, report: &QueryReport) -> ExecOptions {
        let mut exec = self.options.exec;
        exec.combiner = report.certificate.is_some() && report.choice == PlanChoice::Eager;
        exec
    }

    /// Predicted shipped rows for the audit, when the plan really ran
    /// sharded (a single-shard fallback never gets charged a phantom
    /// exchange).
    fn predict_shipped(
        &self,
        plan: &LogicalPlan,
        estimates: &CardTree,
        exec_opts: &ExecOptions,
        path: ExecPath,
    ) -> Option<f64> {
        (path.shards() > 1).then(|| {
            gbj_optimizer::plan_distribution(
                plan,
                estimates,
                path.shards(),
                exec_opts.combiner,
                &|t| self.storage.partition_key(t).map(<[usize]>::to_vec),
            )
            .shipped_rows
        })
    }

    /// Run a SELECT under a caller-supplied [`ResourceGuard`] — the
    /// serving layer's entry point for deadlines, cancellation tokens
    /// and composed budgets.
    ///
    /// Returns the metrics directly (as well as recording them for
    /// [`Database::last_query_metrics`]) so concurrent sessions sharing
    /// a snapshot never race on the metrics slot. The run's
    /// [`QueryMetrics::feedback`] is the caller's to route, whatever
    /// [`EngineOptions::adaptive`] says: a snapshot that absorbed it
    /// would learn into a store that dies with it at the next write.
    pub fn query_with_guard(
        &self,
        sql: &str,
        guard: &ResourceGuard,
    ) -> Result<(ResultSet, QueryReport, QueryMetrics)> {
        let bound = self.bind_select_sql(sql, "query_with_guard")?;
        let plan_start = Instant::now();
        let report = self.plan_bound(&bound)?;
        let planning = plan_start.elapsed();
        let (rows, metrics) = self.run_planned(&report, "query", planning, guard)?;
        Ok((rows, report, metrics))
    }

    /// Execute an already-planned query (e.g. a bound-plan cache hit)
    /// under a caller-supplied guard. Planning time is reported as zero
    /// — the cache paid it once at miss time — and the audit reads the
    /// report's own [`QueryReport::estimates`], so `report` must have
    /// been planned at this database's plan epoch.
    pub fn execute_report_guarded(
        &self,
        report: &QueryReport,
        guard: &ResourceGuard,
    ) -> Result<(ResultSet, QueryMetrics)> {
        self.run_planned(report, "query", Duration::ZERO, guard)
    }

    /// The one execution tail: execute (timed and metered), then build
    /// and record [`QueryMetrics`] — auditing the measured profile
    /// against the estimates the plan was priced with.
    fn run_planned(
        &self,
        report: &QueryReport,
        sql_kind: &'static str,
        planning: Duration,
        guard: &ResourceGuard,
    ) -> Result<(ResultSet, QueryMetrics)> {
        let exec_opts = self.exec_options_for(report);
        let executor = Executor::with_options(&self.storage, exec_opts);
        let exec_start = Instant::now();
        let (rows, profile, summary) = executor.execute_metered_with_guard(&report.plan, guard)?;
        let execution = exec_start.elapsed();
        let estimates = report.estimates.clone();
        let predicted_shipped_rows =
            self.predict_shipped(&report.plan, &estimates, &exec_opts, summary.path);
        let feedback = delta_from_profile(&report.plan, &profile);
        let metrics = QueryMetrics {
            sql_kind,
            choice: report.choice,
            planning,
            execution,
            rows: rows.len(),
            peak_memory_bytes: summary.peak_memory_bytes,
            path: summary.path,
            shards: summary.path.shards(),
            shipped_rows: summary.shipped_rows,
            shipped_bytes: summary.shipped_bytes,
            predicted_shipped_rows,
            profile,
            estimates,
            feedback,
        };
        self.record_metrics(metrics.clone());
        Ok((rows, metrics))
    }

    /// Plan a SELECT without executing it.
    pub fn plan_query(&self, sql: &str) -> Result<QueryReport> {
        self.plan_bound(&self.bind_select_sql(sql, "plan_query")?)
    }

    /// Run the static analyzer over a SELECT without executing it:
    /// passes 1–3 ([`gbj_analyze`]) on the planned query, including the
    /// FD-derivation audit of the eager-aggregation attempt.
    pub fn lint_select(&self, sql: &str) -> Result<gbj_analyze::Report> {
        let bound = self.bind_select_sql(sql, "lint_select")?;
        Ok(self.lint_bound(&bound, sql)?.0)
    }

    /// Lint every statement of a `;`-separated script: DDL and DML are
    /// *executed* (so later queries see their schemas and constraints),
    /// SELECTs (and the targets of EXPLAINs) are analyzed without
    /// running. Returns one report per analyzed query.
    pub fn lint_script(&mut self, sql: &str) -> Result<Vec<gbj_analyze::Report>> {
        let stmts = parse_statements(sql)?;
        let mut reports = Vec::new();
        for stmt in stmts {
            let select = match &stmt {
                Statement::Select(s) => Some(s.clone()),
                Statement::Explain { statement, .. } => match statement.as_ref() {
                    Statement::Select(s) => Some(s.clone()),
                    _ => None,
                },
                _ => None,
            };
            match select {
                Some(s) => {
                    let bound = Binder::new(self.storage.catalog()).bind_select(&s)?;
                    reports.push(self.lint_bound(&bound, &bound.block.to_string())?.0);
                }
                None => {
                    self.execute_statement(stmt)?;
                }
            }
        }
        Ok(reports)
    }

    /// The shared lint path: plan the query — planning audits its own
    /// transformation attempt into the analysis (pass 2 + the `=ⁿ`
    /// grouping check) — and run the schema/type and NULL-semantics
    /// passes over the chosen plan. Returns the planning report too, so
    /// a caller that shows both never plans twice.
    fn lint_bound(
        &self,
        bound: &BoundSelect,
        subject: &str,
    ) -> Result<(gbj_analyze::Report, QueryReport)> {
        let mut analysis = Analysis::new(subject);
        let report = self.plan_bound_inner(bound, Some(&mut analysis))?;
        analysis.check_logical(&report.plan);
        // Pass 6 (range/NULL-ness/NDV domains): catalog-only seeds so
        // lint findings are data-independent — the same corpus yields
        // the same report whether or not the tables are populated.
        let seeds = SeedDomains::from_catalog(self.storage.catalog());
        analysis.check_domains(&report.plan, &seeds);
        // GBJ501: the cost model declined a *certified* eager rewrite.
        // Only when the decision was data-driven — cost-based policy,
        // an FD1/FD2 certificate, and at least one populated base table
        // (schema-only lint corpora run over empty tables and must stay
        // clean).
        if matches!(self.options.policy, PushdownPolicy::CostBased)
            && report.choice == PlanChoice::Lazy
            && report.certificate.is_some()
        {
            let populated = plan_scan_tables(&report.plan)
                .iter()
                .any(|t| self.storage.table_data(t).is_some_and(|d| !d.is_empty()));
            if populated {
                let detail = match (&report.lazy_shape, &report.eager_shape) {
                    (Some(l), Some(e)) => format!(
                        "valid eager rewrite declined by cost: eager shape={:.0} >= lazy shape={:.0}",
                        e.total, l.total
                    ),
                    _ => "valid eager rewrite declined by cost".to_string(),
                };
                analysis.check_cost_choice(detail);
            }
        }
        // GBJ502: configured for sharded execution, the chosen plan has
        // an aggregate below a join, but there is no FD1/FD2
        // certificate — the pre-aggregation cannot run as a combiner
        // below the exchange, so raw rows will cross the wire.
        if self.options.exec.shards.get() > 1
            && report.certificate.is_none()
            && has_aggregate_below_join(&report.plan)
        {
            analysis.check_combiner_pushdown(format!(
                "aggregate below a join at {} shards without a certificate: \
                 the exchange ships raw rows, not per-group partials",
                self.options.exec.shards.get()
            ));
        }
        Ok((analysis.finish(), report))
    }

    fn execute_statement(&mut self, stmt: Statement) -> Result<QueryOutput> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                constraints,
            } => {
                let def = Binder::new(self.storage.catalog()).bind_create_table(
                    &name,
                    &columns,
                    &constraints,
                )?;
                self.storage.create_table(def)?;
                Ok(QueryOutput::Ddl(format!("created table {name}")))
            }
            Statement::CreateDomain {
                name,
                data_type,
                check,
            } => {
                let domain = Binder::new(self.storage.catalog()).bind_create_domain(
                    &name,
                    data_type,
                    check.as_ref(),
                )?;
                self.storage.create_domain(domain)?;
                Ok(QueryOutput::Ddl(format!("created domain {name}")))
            }
            Statement::CreateView {
                name,
                columns,
                query_sql,
            } => {
                let view = Binder::new(self.storage.catalog())
                    .bind_create_view(&name, &columns, &query_sql)?;
                self.storage.create_view(view)?;
                Ok(QueryOutput::Ddl(format!("created view {name}")))
            }
            Statement::CreateAssertion { name, check } => {
                // Assertions are stated over table names; store the raw
                // expression for the optimizer's Theorem-3 use.
                let expr = raw_assertion_expr(&check)?;
                self.storage.create_assertion(Assertion {
                    name: name.clone(),
                    check: expr,
                })?;
                Ok(QueryOutput::Ddl(format!("created assertion {name}")))
            }
            Statement::Insert { table, rows } => {
                let values = Binder::new(self.storage.catalog()).bind_values(&rows)?;
                let n = self.storage.insert_many(&table, values)?;
                Ok(QueryOutput::Affected(n))
            }
            Statement::Select(select) => {
                let bound = Binder::new(self.storage.catalog()).bind_select(&select)?;
                let (rows, _, _) = self.run_select(&bound, "select")?;
                Ok(QueryOutput::Rows(rows))
            }
            Statement::Explain {
                analyze,
                lint,
                statement,
            } => {
                let Statement::Select(select) = *statement else {
                    return Err(Error::Unsupported("EXPLAIN expects a SELECT".into()));
                };
                let bound = Binder::new(self.storage.catalog()).bind_select(&select)?;
                if lint {
                    let (lint_report, plan_report) =
                        self.lint_bound(&bound, &bound.block.to_string())?;
                    let mut text = plan_report.explain(self.catalog());
                    text.push_str("lint:\n");
                    text.push_str(&lint_report.render_text());
                    return Ok(QueryOutput::Explain(text));
                }
                if analyze {
                    let (rows, m, report) = self.run_select(&bound, "explain analyze")?;
                    let mut text = report.explain(self.catalog());
                    // Planning and execution time are separate labeled
                    // lines — planning can dominate on small data and
                    // would otherwise hide inside one combined number.
                    text.push_str(&m.path_line());
                    text.push_str(&format!("planning time: {:?}\n", m.planning));
                    text.push_str(&format!("execution time: {:?}\n", m.execution));
                    text.push_str(&format!("actual rows: {}\n", rows.len()));
                    text.push_str(&format!("peak memory: {} B\n", m.peak_memory_bytes));
                    text.push_str("estimate vs actual:\n");
                    text.push_str(&annotated_tree(&m.audits()));
                    Ok(QueryOutput::Explain(text))
                } else {
                    let report = self.plan_bound(&bound)?;
                    Ok(QueryOutput::Explain(report.explain(self.catalog())))
                }
            }
            Statement::Delete { table, predicate } => {
                let binder = Binder::new(self.storage.catalog());
                let bound = predicate
                    .as_ref()
                    .map(|p| binder.bind_table_expr(&table, p))
                    .transpose()?;
                let n = self.storage.delete(&table, bound.as_ref())?;
                Ok(QueryOutput::Affected(n))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => {
                let binder = Binder::new(self.storage.catalog());
                let bound_assignments: Vec<(String, Expr)> = assignments
                    .iter()
                    .map(|(c, e)| Ok((c.clone(), binder.bind_table_expr(&table, e)?)))
                    .collect::<Result<_>>()?;
                let bound_pred = predicate
                    .as_ref()
                    .map(|p| binder.bind_table_expr(&table, p))
                    .transpose()?;
                let n = self
                    .storage
                    .update(&table, &bound_assignments, bound_pred.as_ref())?;
                Ok(QueryOutput::Affected(n))
            }
            Statement::DropTable(name) => {
                self.storage.drop_table(&name)?;
                Ok(QueryOutput::Ddl(format!("dropped table {name}")))
            }
            Statement::DropView(name) => {
                self.storage.drop_view(&name)?;
                Ok(QueryOutput::Ddl(format!("dropped view {name}")))
            }
        }
    }

    // ------------------------------------------------------------ planning

    fn plan_bound(&self, bound: &BoundSelect) -> Result<QueryReport> {
        let report = self.plan_bound_inner(bound, None)?;
        if self.options.verify_rewrites {
            // Verify-every-rewrite mode: pass 1 (schema/type soundness)
            // over the chosen plan; Error-severity findings abort
            // planning rather than executing an unsound plan.
            let mut analysis = Analysis::new("verify");
            analysis.check_logical(&report.plan);
            if analysis.has_errors() {
                return Err(Error::Plan(format!(
                    "plan verification failed:\n{}",
                    analysis.report().render_text()
                )));
            }
        }
        Ok(report)
    }

    /// Plan the query: the candidate shapes, the choice between them,
    /// and the chosen shape's estimates. `lint`, when given, receives
    /// the audit of the transformation attempt.
    fn plan_bound_inner(
        &self,
        bound: &BoundSelect,
        lint: Option<&mut Analysis>,
    ) -> Result<QueryReport> {
        let block = &bound.block;
        let (fd_ctx, transform_opts) = self.transform_inputs(block);

        // Section 8: a non-aggregating query over one aggregated view —
        // the written form is the eager shape; unfolding gives the lazy
        // candidate.
        let aggregated_views = block
            .relations
            .iter()
            .filter(|r| match r {
                BlockRelation::Derived { block, .. } => block.is_aggregating(),
                BlockRelation::Base { .. } => false,
            })
            .count();
        if !block.is_aggregating() && aggregated_views == 1 {
            let outcome = reverse_transform(block, &fd_ctx)?;
            if let Some(analysis) = lint {
                analysis.check_unfolding(&outcome);
            }
            match outcome {
                ReverseOutcome::Unfolded {
                    block: merged,
                    testfd,
                } => {
                    return self.choose_plans(&merged, block, Some(testfd.to_string()), bound);
                }
                ReverseOutcome::NotApplicable { reason, .. } => {
                    let plan = block.lower(&bound.order_by)?;
                    let reason = format!("view not unfolded: {reason}");
                    return Ok(self.lazy_only(reason, None, plan));
                }
            }
        }

        // The forward transformation.
        let outcome = eager_aggregate(block, &fd_ctx, &transform_opts)?;
        if block.is_aggregating() {
            // Pass 2 (the refusal's code) + the =ⁿ grouping-shape check
            // of a rewrite, into the linting caller's analysis or, in
            // verify-every-rewrite mode, a private one. There a rewrite
            // that changes the grouping semantics is a planning error
            // (refusals are warnings, not errors).
            let mut verify = self
                .options
                .verify_rewrites
                .then(|| Analysis::new("verify"));
            if let Some(analysis) = lint.or(verify.as_mut()) {
                analysis.check_rewrite(block, &outcome);
                if self.options.verify_rewrites && analysis.has_errors() {
                    return Err(Error::Plan(format!(
                        "rewrite verification failed:\n{}",
                        analysis.report().render_text()
                    )));
                }
            }
        }
        match outcome {
            EagerOutcome::Rewritten {
                block: eager_block,
                partition,
                testfd,
            } => {
                // The FD1/FD2 certificate is the trace of the TestFD run
                // that proved the rewrite, rendered once.
                let testfd = testfd.to_string();
                let mut report = self.decide(
                    block,
                    &eager_block,
                    &partition,
                    Some(testfd.clone()),
                    [PlanChoice::Lazy, PlanChoice::Eager],
                    bound,
                )?;
                report.certificate = Some(testfd);
                Ok(report)
            }
            EagerOutcome::NotApplicable { reason, testfd } => {
                let plan = block.lower(&bound.order_by)?;
                let reason = format!("transformation not applied: {reason}");
                Ok(self.lazy_only(reason, testfd.map(|t| t.to_string()), plan))
            }
        }
    }

    /// The report for a query with no valid alternative shape: the lazy
    /// plan, priced once, with nothing to compare it with.
    fn lazy_only(&self, reason: String, testfd: Option<String>, plan: LogicalPlan) -> QueryReport {
        let [estimates] = self.price([&plan]);
        QueryReport {
            choice: PlanChoice::Lazy,
            reason,
            testfd,
            partition: None,
            lazy_shape: None,
            eager_shape: None,
            plan,
            alternative: None,
            certificate: None,
            estimates,
        }
    }

    /// Decide between the unfolded (lazy, merged) and the written
    /// (eager, view-first) shape of a view query: the first runs as
    /// [`PlanChoice::Unfolded`], the second as [`PlanChoice::Eager`].
    fn choose_plans(
        &self,
        lazy_block: &QueryBlock,
        eager_block: &QueryBlock,
        testfd: Option<String>,
        bound: &BoundSelect,
    ) -> Result<QueryReport> {
        // Partition the merged (lazy) block for the report: R1 = the
        // relations of the view side = relations not present in the
        // eager block's base list.
        let eager_bases: std::collections::BTreeSet<String> = eager_block
            .relations
            .iter()
            .filter(|r| !r.is_derived())
            .map(|r| r.qualifier().to_ascii_lowercase())
            .collect();
        let r1: std::collections::BTreeSet<String> = lazy_block
            .qualifiers()
            .into_iter()
            .filter(|q| !eager_bases.contains(&q.to_ascii_lowercase()))
            .collect();
        let partition = Partition::with_r1(lazy_block, r1)
            .map_err(|e| Error::Plan(format!("cannot partition unfolded query: {e}")))?;
        self.decide(
            lazy_block,
            eager_block,
            &partition,
            testfd,
            [PlanChoice::Unfolded, PlanChoice::Eager],
            bound,
        )
    }

    fn decide(
        &self,
        lazy_block: &QueryBlock,
        eager_block: &QueryBlock,
        partition: &Partition,
        testfd: Option<String>,
        [lazy_choice, eager_choice]: [PlanChoice; 2],
        bound: &BoundSelect,
    ) -> Result<QueryReport> {
        // Lower *both* candidates to their optimized physical-ready
        // shapes, price each one's operators, and fold the cost model
        // over every operator each shape would actually run.
        let lazy_plan = lazy_block.lower(&bound.order_by)?;
        let eager_plan = eager_block.lower(&bound.order_by)?;
        let [lazy_card, eager_card] = self.price([&lazy_plan, &eager_plan]);
        let lazy_shape = shape_cost(&self.options.cost_model, &lazy_plan, &lazy_card);
        let eager_shape = shape_cost(&self.options.cost_model, &eager_plan, &eager_card);

        let (pick_eager, why) = match self.options.policy {
            PushdownPolicy::Always => (true, "policy = Always".to_string()),
            PushdownPolicy::Never => (false, "policy = Never".to_string()),
            PushdownPolicy::CostBased => {
                let pick = eager_shape.total < lazy_shape.total;
                (
                    pick,
                    format!(
                        "cost-based: eager shape={:.0} {} lazy shape={:.0}",
                        eager_shape.total,
                        if pick { "<" } else { ">=" },
                        lazy_shape.total
                    ),
                )
            }
        };

        let (choice, plan, alternative, estimates) = if pick_eager {
            (eager_choice, eager_plan, Some(lazy_plan), eager_card)
        } else {
            (lazy_choice, lazy_plan, Some(eager_plan), lazy_card)
        };
        Ok(QueryReport {
            choice,
            reason: format!("transformation valid; {why}"),
            testfd,
            partition: Some(partition.to_string()),
            lazy_shape: Some(lazy_shape),
            eager_shape: Some(eager_shape),
            plan,
            alternative,
            certificate: None,
            estimates,
        })
    }

    /// Price candidate plans: each one's per-node estimates, from the
    /// feedback-aware estimator, and — when
    /// [`EngineOptions::clamp_estimates`] is on — clamped to the
    /// cardinality bounds the range pass proves, so that no shape is
    /// charged more rows at an operator than its domains allow. The
    /// seeds are built once for all the plans; each plan costs one
    /// range pass.
    fn price<const N: usize>(&self, plans: [&LogicalPlan; N]) -> [CardTree; N] {
        let feedback = self.feedback_snapshot();
        let estimator = Estimator::with_feedback(&self.storage, &feedback);
        let seeds = self
            .options
            .clamp_estimates
            .then(|| self.observed_seeds(&plans));
        plans.map(|plan| {
            let mut card = estimator.estimate_plan(plan);
            if let Some(seeds) = &seeds {
                card.clamp(&bound_tree(
                    plan,
                    &analyze_plan(plan, seeds).root,
                    &self.storage,
                ));
            }
            card
        })
    }

    /// The range pass's seeds for clamping, for every table `plans`
    /// scan: the catalog's, met with the per-column facts in the table's
    /// statistics. The candidate shapes of one query scan the same
    /// tables, and a plan's range pass reads the seeds of its own scans
    /// only, so one seed set over those tables serves them all.
    fn observed_seeds(&self, plans: &[&LogicalPlan]) -> SeedDomains {
        let catalog = self.storage.catalog();
        let tables: std::collections::BTreeSet<String> =
            plans.iter().flat_map(|p| plan_scan_tables(p)).collect();
        let defs: Vec<_> = tables.iter().filter_map(|t| catalog.table(t)).collect();
        let mut seeds = SeedDomains::for_tables(defs.iter().copied());
        for def in defs {
            let Some(data) = self.storage.table_data(&def.name) else {
                continue;
            };
            for (col, stats) in def.columns.iter().zip(&data.stats().columns) {
                seeds.merge(&def.name, &col.name, &observed_domain(stats, col.data_type));
            }
        }
        seeds
    }

    /// What planning hands to [`eager_aggregate`]: the FD context over
    /// the block's base tables, and the transform options extended with
    /// the catalog assertions' conjuncts (Theorem 3).
    fn transform_inputs(&self, block: &QueryBlock) -> (FdContext, TransformOptions) {
        let mut fd_ctx = FdContext::new();
        collect_tables(block, self.storage.catalog(), &mut fd_ctx);
        let assertion_exprs: Vec<Expr> = self
            .storage
            .catalog()
            .assertions()
            .map(|a| a.check.clone())
            .collect();
        let mut transform_opts = self.options.transform.clone();
        transform_opts.extra_conjuncts =
            gbj_core::theorem3::assertion_conjuncts(&fd_ctx, &assertion_exprs);
        (fd_ctx, transform_opts)
    }
}

/// Register every base relation (including those inside derived blocks,
/// for the reverse transformation) under its qualifier.
fn collect_tables(block: &QueryBlock, catalog: &Catalog, ctx: &mut FdContext) {
    for rel in &block.relations {
        match rel {
            BlockRelation::Base {
                table, qualifier, ..
            } => {
                if let Some(def) = catalog.table(table) {
                    ctx.add_table(qualifier.clone(), def.clone());
                }
            }
            BlockRelation::Derived { block, .. } => {
                collect_tables(block, catalog, ctx);
            }
        }
    }
}

/// Whether the plan contains a grouped aggregate strictly below a join
/// — the site a certified combiner would occupy in sharded execution.
fn has_aggregate_below_join(plan: &LogicalPlan) -> bool {
    fn walk(plan: &LogicalPlan, under_join: bool) -> bool {
        match plan {
            LogicalPlan::Scan { .. } => false,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::Sort { input, .. } => walk(input, under_join),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::CrossJoin { left, right } => {
                walk(left, true) || walk(right, true)
            }
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => (under_join && !group_by.is_empty()) || walk(input, under_join),
        }
    }
    walk(plan, false)
}

// The summaries keep a string value set exactly as long as the range
// pass tracks one.
const _: () = assert!(gbj_storage::stats::MAX_VALUE_SET == gbj_analyze::domain::MAX_VALUE_SET);

/// The per-column facts observed in one version of a stored table, as a
/// domain: min/max (numeric), the distinct non-NULL count, whether any
/// NULL is present, and (for small string columns) the exact value set.
/// Met with the catalog seed, these give the range pass the tightest
/// sound base domains for estimate clamping.
///
/// Only exact facts go in — every stored value lies inside the domain.
/// A distinct count the summary estimates (a numeric column past
/// [`SKETCH_K`](gbj_storage::stats::SKETCH_K) values) is left out, so a
/// group bound above that size rests on the interval's width or the
/// rows, never on a sketch.
#[must_use]
pub fn observed_domain(stats: &ColumnStats, data_type: DataType) -> ColumnDomain {
    let integral = data_type == DataType::Int64;
    ColumnDomain {
        interval: data_type.is_numeric().then(|| match stats.range {
            Some((lo, hi)) => gbj_analyze::Interval {
                lo: Some(lo),
                hi: Some(hi),
                integral,
            },
            // No non-NULL value stored: the non-NULL domain is empty.
            None => gbj_analyze::Interval::empty(integral),
        }),
        values: stats.values.clone(),
        nullability: if stats.nulls > 0 {
            Nullability::Maybe
        } else {
            Nullability::Never
        },
        ndv: stats.ndv_exact.then(|| stats.non_null_ndv() as f64),
    }
}

/// The base-table names a plan scans, deduplicated.
fn plan_scan_tables(plan: &LogicalPlan) -> std::collections::BTreeSet<String> {
    match plan {
        LogicalPlan::Scan { table, .. } => [table.clone()].into(),
        _ => plan
            .children()
            .into_iter()
            .flat_map(plan_scan_tables)
            .collect(),
    }
}

/// Build the proven cardinality upper-bound tree for a plan from its
/// domain analysis: `INFINITY` means "no bound at this node". Every
/// finite entry is an upper bound on the node's *true* output
/// cardinality against the current stored data, so clamping estimates
/// with it can only move them toward the truth.
#[must_use]
pub fn bound_tree(
    plan: &LogicalPlan,
    node: &gbj_analyze::DomainNode,
    storage: &Storage,
) -> CardTree {
    let children: Vec<CardTree> = plan
        .children()
        .iter()
        .zip(&node.children)
        .map(|(p, n)| bound_tree(p, n, storage))
        .collect();
    let child_rows = |i: usize| children.get(i).map_or(f64::INFINITY, |c| c.rows);
    let rows = match plan {
        LogicalPlan::Scan { table, .. } => storage
            .table_data(table)
            .map_or(f64::INFINITY, |d| d.len() as f64),
        LogicalPlan::Filter { .. } => {
            if node.never_true {
                0.0
            } else {
                child_rows(0)
            }
        }
        LogicalPlan::Join { .. } | LogicalPlan::CrossJoin { .. } => {
            if node.never_true {
                0.0
            } else {
                child_rows(0) * child_rows(1)
            }
        }
        LogicalPlan::Project { distinct, .. } => {
            let mut bound = child_rows(0);
            if *distinct {
                if let Some(groups) = groups_bound_from(node, plan) {
                    bound = bound.min(groups);
                }
            }
            bound
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            if group_by.is_empty() {
                1.0
            } else {
                let mut bound = child_rows(0);
                // Π over the group keys' per-column group counts
                // (NDV, interval width, value-set size — each +1 for
                // the NULL group under `=ⁿ`), read from the child's
                // domains.
                if let (Ok(schema), Some(child_node)) = (input.schema(), node.children.first()) {
                    let mut product = 1.0_f64;
                    let mut all_known = true;
                    for g in group_by {
                        let per_col = match g {
                            Expr::Column(c) => child_node
                                .domain_of(&schema, c)
                                .and_then(gbj_analyze::ColumnDomain::group_ndv_upper),
                            _ => None,
                        };
                        match per_col {
                            Some(n) => product *= n,
                            None => {
                                all_known = false;
                                break;
                            }
                        }
                    }
                    if all_known {
                        bound = bound.min(product);
                    }
                }
                bound
            }
        }
        LogicalPlan::SubqueryAlias { .. } | LogicalPlan::Sort { .. } => child_rows(0),
    };
    CardTree { rows, children }
}

/// The `Π group_ndv_upper` bound over a DISTINCT projection's output
/// columns, when every column's group count is known.
fn groups_bound_from(node: &gbj_analyze::DomainNode, plan: &LogicalPlan) -> Option<f64> {
    let schema = plan.schema().ok()?;
    let mut product = 1.0_f64;
    for f in schema.fields() {
        let dom = node.columns.get(&gbj_analyze::range_pass::field_key(f))?;
        product *= dom.group_ndv_upper()?;
    }
    Some(product)
}

/// Convert an assertion AST into a raw (table-name-qualified) expression.
fn raw_assertion_expr(ast: &gbj_sql::AstExpr) -> Result<Expr> {
    use gbj_sql::AstExpr;
    Ok(match ast {
        AstExpr::Name(parts) => match parts.as_slice() {
            [col] => Expr::Column(ColumnRef::bare(col.clone())),
            [table, col] => Expr::Column(ColumnRef::qualified(table.clone(), col.clone())),
            _ => {
                return Err(Error::Bind(format!(
                    "invalid assertion column {}",
                    parts.join(".")
                )))
            }
        },
        AstExpr::Literal(v) => Expr::Literal(v.clone()),
        AstExpr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(raw_assertion_expr(left)?),
            op: *op,
            right: Box::new(raw_assertion_expr(right)?),
        },
        AstExpr::Not(e) => Expr::Not(Box::new(raw_assertion_expr(e)?)),
        AstExpr::Neg(e) => Expr::Neg(Box::new(raw_assertion_expr(e)?)),
        AstExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(raw_assertion_expr(expr)?),
            negated: *negated,
        },
        AstExpr::Func { name, .. } => {
            return Err(Error::Unsupported(format!("aggregate {name} in assertion")))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::Value;

    /// Example 1 end to end, small scale.
    fn example1_db() -> Database {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE Department (DeptID INT PRIMARY KEY, Name VARCHAR(30)); \
             CREATE TABLE Employee (EmpID INT PRIMARY KEY, LastName VARCHAR(30), \
                 FirstName VARCHAR(30), DeptID INT REFERENCES Department);",
        )
        .unwrap();
        for d in 1..=4 {
            db.execute(&format!("INSERT INTO Department VALUES ({d}, 'dept{d}')"))
                .unwrap();
        }
        for e in 1..=20 {
            let d = e % 4 + 1;
            db.execute(&format!(
                "INSERT INTO Employee VALUES ({e}, 'last{e}', 'first{e}', {d})"
            ))
            .unwrap();
        }
        db
    }

    const EXAMPLE1_SQL: &str = "SELECT D.DeptID, D.Name, COUNT(E.EmpID) \
         FROM Employee E, Department D \
         WHERE E.DeptID = D.DeptID \
         GROUP BY D.DeptID, D.Name";

    /// Every `GBJ_*` variable, through the one lookup that reads them.
    #[test]
    fn from_env_parses_each_variable() {
        type Read = fn(&EngineOptions) -> usize;
        let threads: Read = |o| o.exec.threads.get();
        let shards: Read = |o| o.exec.shards.get();
        let vectorized: Read = |o| usize::from(o.exec.vectorized);
        let verify: Read = |o| usize::from(o.verify_rewrites);
        let adaptive: Read = |o| usize::from(o.adaptive);
        let clamp: Read = |o| usize::from(o.clamp_estimates);
        let debug = usize::from(cfg!(debug_assertions));
        // (variable, value or "" for unset, field, expected)
        let table: &[(&str, &str, Read, usize)] = &[
            ("GBJ_TEST_THREADS", "", threads, 1),
            ("GBJ_TEST_THREADS", " 4 ", threads, 4),
            ("GBJ_TEST_THREADS", "0", threads, 1),
            ("GBJ_TEST_THREADS", "many", threads, 1),
            ("GBJ_TEST_SHARDS", "", shards, 1),
            ("GBJ_TEST_SHARDS", "8", shards, 8),
            ("GBJ_TEST_SHARDS", "-1", shards, 1),
            ("GBJ_TEST_THREADS", "8", shards, 1),
            ("GBJ_TEST_VECTORIZED", "", vectorized, 1),
            ("GBJ_TEST_VECTORIZED", "1", vectorized, 1),
            ("GBJ_TEST_VECTORIZED", "true\n", vectorized, 1),
            ("GBJ_TEST_VECTORIZED", "0", vectorized, 0),
            ("GBJ_TEST_VECTORIZED", "false", vectorized, 0),
            ("GBJ_TEST_VECTORIZED", "yes", vectorized, 1),
            ("GBJ_VERIFY_REWRITES", "", verify, debug),
            ("GBJ_VERIFY_REWRITES", "1", verify, 1),
            ("GBJ_VERIFY_REWRITES", "0", verify, 0),
            ("GBJ_VERIFY_REWRITES", "on", verify, debug),
            ("GBJ_ADAPTIVE", "", adaptive, 0),
            ("GBJ_ADAPTIVE", "1", adaptive, 1),
            ("GBJ_ADAPTIVE", "true", adaptive, 0),
            ("GBJ_CLAMP_ESTIMATES", "", clamp, 1),
            ("GBJ_CLAMP_ESTIMATES", "0", clamp, 0),
            ("GBJ_CLAMP_ESTIMATES", "1", clamp, 1),
        ];
        for (var, value, read, expect) in table {
            let options = EngineOptions::from_lookup(|name| {
                (name == *var && !value.is_empty()).then(|| (*value).to_string())
            });
            assert_eq!(read(&options), *expect, "{var}={value:?}");
        }
    }

    #[test]
    fn example1_end_to_end_transforms_and_answers() {
        let db = example1_db();
        let (rows, profile, report) = db.query_report(EXAMPLE1_SQL).unwrap();
        assert_eq!(rows.len(), 4);
        let sorted = rows.sorted();
        assert_eq!(
            sorted.rows[0],
            vec![Value::Int(1), Value::str("dept1"), Value::Int(5)]
        );
        // The transformation is valid and (cost-based) chosen.
        assert_eq!(report.choice, PlanChoice::Eager);
        assert!(report.testfd.is_some());
        // The profile shows aggregation below the join.
        let tree = profile.display_tree();
        let agg_pos = tree.find("Aggregate").unwrap();
        let join_pos = tree.find("Join").unwrap();
        assert!(agg_pos > join_pos, "{tree}");
    }

    #[test]
    fn policies_agree_on_results() {
        let mut db = example1_db();
        let mut results = Vec::new();
        for policy in [
            PushdownPolicy::CostBased,
            PushdownPolicy::Always,
            PushdownPolicy::Never,
        ] {
            db.options_mut().policy = policy;
            results.push(db.query(EXAMPLE1_SQL).unwrap());
        }
        assert!(results[0].multiset_eq(&results[1]));
        assert!(results[0].multiset_eq(&results[2]));
    }

    #[test]
    fn never_policy_keeps_lazy_plan() {
        let mut db = example1_db();
        db.options_mut().policy = PushdownPolicy::Never;
        let report = db.plan_query(EXAMPLE1_SQL).unwrap();
        assert_eq!(report.choice, PlanChoice::Lazy);
        assert!(report.alternative.is_some(), "eager plan still reported");
    }

    #[test]
    fn explain_mentions_everything() {
        let mut db = example1_db();
        let out = db.execute(&format!("EXPLAIN {EXAMPLE1_SQL}")).unwrap();
        let QueryOutput::Explain(text) = out else {
            panic!()
        };
        assert!(text.contains("choice: Eager"), "{text}");
        assert!(text.contains("TestFD"));
        assert!(text.contains("partition"));
        assert!(text.contains("alternative plan:"));
        assert!(text.contains("\nshape cost: "), "{text}");
    }

    #[test]
    fn explain_analyze_reports_times_and_estimate_audit() {
        let mut db = example1_db();
        let out = db
            .execute(&format!("EXPLAIN ANALYZE {EXAMPLE1_SQL}"))
            .unwrap();
        let QueryOutput::Explain(text) = out else {
            panic!()
        };
        // Bugfix: planning and execution are separate labeled lines.
        assert!(text.contains("planning time: "), "{text}");
        assert!(text.contains("execution time: "), "{text}");
        assert!(text.contains("actual rows: 4"), "{text}");
        assert!(text.contains("peak memory: "), "{text}");
        // Each measured node carries est/actual/q columns.
        assert!(text.contains("estimate vs actual:"), "{text}");
        assert!(text.contains("est="), "{text}");
        assert!(text.contains("actual="), "{text}");
        assert!(text.contains("q="), "{text}");
    }

    #[test]
    fn last_query_metrics_registry_updates_per_query() {
        let db = example1_db();
        assert!(db.last_query_metrics().is_none(), "nothing ran yet");
        db.query(EXAMPLE1_SQL).unwrap();
        let m = db.last_query_metrics().expect("query recorded metrics");
        assert_eq!(m.rows, 4);
        assert_eq!(m.choice, PlanChoice::Eager);
        assert!(m.peak_memory_bytes > 0);
        let audits = m.audits();
        assert!(!audits.is_empty());
        assert!(crate::audit::max_q(&audits) >= 1.0);
        // A different query overwrites the registry.
        db.query("SELECT E.LastName FROM Employee E WHERE E.DeptID = 1")
            .unwrap();
        let m2 = db.last_query_metrics().unwrap();
        assert_eq!(m2.rows, 5);
        // The render mentions every section.
        let text = m2.render();
        assert!(text.contains("planning time: "), "{text}");
        assert!(text.contains("execution time: "), "{text}");
        assert!(text.contains("estimate vs actual:"), "{text}");
        assert!(text.contains("operator metrics:"), "{text}");
        assert!(text.contains("batches="), "{text}");
    }

    #[test]
    fn ungrouped_query_stays_lazy() {
        let db = example1_db();
        let (rows, _, report) = db
            .query_report("SELECT E.LastName FROM Employee E WHERE E.DeptID = 1")
            .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(report.choice, PlanChoice::Lazy);
        assert!(report.reason.contains("not applied"));
    }

    #[test]
    fn order_by_applies_to_both_shapes() {
        let mut db = example1_db();
        for policy in [PushdownPolicy::Always, PushdownPolicy::Never] {
            db.options_mut().policy = policy;
            let rows = db
                .query(&format!("{EXAMPLE1_SQL} ORDER BY DeptID DESC"))
                .unwrap();
            assert_eq!(rows.rows[0][0], Value::Int(4));
            assert_eq!(rows.rows[3][0], Value::Int(1));
        }
    }

    #[test]
    fn constraint_violations_surface() {
        let mut db = example1_db();
        let err = db
            .execute("INSERT INTO Employee VALUES (1, 'dup', 'dup', 1)")
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        let err = db
            .execute("INSERT INTO Employee VALUES (99, 'x', 'y', 42)")
            .unwrap_err();
        assert!(err.message().contains("foreign key"));
    }

    #[test]
    fn aggregated_view_is_unfolded_or_kept_by_policy() {
        let mut db = example1_db();
        db.execute(
            "CREATE VIEW DeptStats (DeptID, Cnt) AS \
             SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E GROUP BY E.DeptID",
        )
        .unwrap();
        let sql = "SELECT D.Name, V.Cnt FROM DeptStats V, Department D \
                   WHERE V.DeptID = D.DeptID";
        let (rows, _, report) = db.query_report(sql).unwrap();
        assert_eq!(rows.len(), 4);
        // Under the default cost model the merged form may win or lose;
        // the report must say the transformation was valid either way.
        assert!(report.testfd.is_some());
        assert!(matches!(
            report.choice,
            PlanChoice::Unfolded | PlanChoice::Eager
        ));

        // Policy Never forces the unfolded (lazy) shape: no view below
        // the join.
        db.options_mut().policy = PushdownPolicy::Never;
        let report = db.plan_query(sql).unwrap();
        assert_eq!(report.choice, PlanChoice::Unfolded);
        assert!(!report.plan.display_tree().contains("SubqueryAlias"));
        let rows2 = db.query(sql).unwrap();
        assert!(rows.multiset_eq(&rows2));

        // Policy Always keeps the written (eager) shape: the view's
        // aggregate below the join.
        db.options_mut().policy = PushdownPolicy::Always;
        let report = db.plan_query(sql).unwrap();
        assert_eq!(report.choice, PlanChoice::Eager);
        assert!(report.plan.display_tree().contains("SubqueryAlias"));
        let rows3 = db.query(sql).unwrap();
        assert!(rows.multiset_eq(&rows3));
    }

    #[test]
    fn ddl_outputs() {
        let mut db = Database::new();
        let out = db.execute("CREATE TABLE T (x INT)").unwrap();
        assert!(matches!(out, QueryOutput::Ddl(_)));
        let out = db.execute("INSERT INTO T VALUES (1), (2)").unwrap();
        assert!(matches!(out, QueryOutput::Affected(2)));
        let out = db.execute("DROP TABLE T").unwrap();
        assert!(matches!(out, QueryOutput::Ddl(_)));
        assert!(db.execute("SELECT * FROM T").is_err());
    }

    #[test]
    fn assertion_rescues_the_transformation() {
        // Grouping by D.Name (a non-key of Department) normally fails
        // TestFD: two departments could share a name.
        let by_name = "SELECT D.Name, COUNT(E.EmpID) FROM Employee E, Department D \
                 WHERE E.DeptID = D.DeptID GROUP BY D.Name";
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE Department (DeptID INT PRIMARY KEY, Name VARCHAR(30)); \
             CREATE TABLE Employee (EmpID INT PRIMARY KEY, \
                 DeptID INT NOT NULL REFERENCES Department);",
        )
        .unwrap();
        db.options_mut().policy = PushdownPolicy::Always;
        let report = db.plan_query(by_name).unwrap();
        assert_eq!(report.choice, PlanChoice::Lazy);

        // An assertion pinning a NOT NULL E.DeptID to a constant makes
        // the key of Department derivable (Theorem 3): the rewrite
        // becomes valid.
        db.execute("CREATE ASSERTION all_in_one CHECK (Employee.DeptID = 1)")
            .unwrap();
        let report = db.plan_query(by_name).unwrap();
        assert_eq!(report.choice, PlanChoice::Eager);

        // Over example 1's nullable Employee.DeptID the same assertion
        // admits DeptID NULL, so it is no WHERE conjunct: still refused.
        let mut db = example1_db();
        db.execute("CREATE ASSERTION all_in_one CHECK (Employee.DeptID = 1)")
            .unwrap();
        db.options_mut().policy = PushdownPolicy::Always;
        let report = db.plan_query(by_name).unwrap();
        assert_eq!(report.choice, PlanChoice::Lazy);
    }

    #[test]
    fn missing_tables_are_typed_errors_on_every_entry_point() {
        let mut db = example1_db();
        // Every DML/query entry point over an unknown table must come
        // back as a catalog or bind error — never a panic, never an
        // internal error.
        let cases = [
            "SELECT * FROM Nope",
            "SELECT N.x FROM Nope N WHERE N.x = 1",
            "INSERT INTO Nope VALUES (1)",
            "DELETE FROM Nope",
            "DELETE FROM Nope WHERE x = 1",
            "UPDATE Nope SET x = 1",
            "UPDATE Nope SET x = 1 WHERE x = 2",
            "DROP TABLE Nope",
            "EXPLAIN SELECT * FROM Nope",
        ];
        for sql in cases {
            let err = db.execute(sql).unwrap_err();
            assert!(
                matches!(err.kind(), "catalog" | "bind"),
                "{sql}: kind {} ({err})",
                err.kind()
            );
        }
        // Unknown columns on a known table are bind errors.
        let err = db.execute("UPDATE Employee SET Nope = 1").unwrap_err();
        assert!(
            matches!(err.kind(), "catalog" | "bind"),
            "unknown column: kind {} ({err})",
            err.kind()
        );
        let err = db.execute("SELECT E.Nope FROM Employee E").unwrap_err();
        assert_eq!(err.kind(), "bind");
    }

    #[test]
    fn fault_injector_is_installable_and_observable() {
        use gbj_storage::{FaultConfig, FaultInjector};
        let mut db = example1_db();
        assert!(db.fault_injector().is_none());
        db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            seed: 7,
            fail_nth_batch: Some(0),
            ..FaultConfig::default()
        })));
        let err = db.query(EXAMPLE1_SQL).unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.message().contains("injected fault"), "{err}");
        assert!(db.fault_injector().unwrap().failures_injected() >= 1);
        db.set_fault_injector(None);
        assert_eq!(db.query(EXAMPLE1_SQL).unwrap().len(), 4);
    }

    #[test]
    fn count_distinct_runs_end_to_end() {
        let db = example1_db();
        let rows = db
            .query(
                "SELECT D.DeptID, COUNT(DISTINCT E.LastName) FROM Employee E, Department D \
                 WHERE E.DeptID = D.DeptID GROUP BY D.DeptID",
            )
            .unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn having_query_executes_unrewritten() {
        let mut db = example1_db();
        // Give dept 1 a sixth member so HAVING > 5 is selective.
        db.execute("INSERT INTO Employee VALUES (21, 'extra', 'e', 1)")
            .unwrap();
        let (rows, _, report) = db
            .query_report(&format!("{EXAMPLE1_SQL} HAVING COUNT(E.EmpID) > 5"))
            .unwrap();
        assert_eq!(report.choice, PlanChoice::Lazy);
        assert!(report.reason.contains("HAVING"));
        assert_eq!(rows.len(), 1, "only dept1 now has 6 members");
        assert_eq!(rows.rows[0][2], Value::Int(6));
    }
}
