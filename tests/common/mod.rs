//! Shared helpers for the integration tests.
//!
//! Centralises what the differential tests need:
//!
//! * **a reference that is provably the oracle** — the engine's default
//!   path is the chunk pipeline, so a reference side built from
//!   `ExecOptions::default()` would compare the pipeline with itself.
//!   [`oracle_exec_options`] spells the serial row engine out, and
//!   [`run_oracle`] / [`oracle_query`] run the reference and assert
//!   that is what ran (`path: row`, asked for; no operator claiming a
//!   kernel);
//! * **order-insensitive comparison** — plan shapes, execution paths,
//!   and part and thread counts are all free to emit rows in any
//!   order, so results are canonicalised (sorted by the engine's total
//!   order, NULLs last) before comparing instead of each test rolling
//!   its own sort;
//! * **operator matching that tolerates shards** — at `shards > 1`
//!   the chunk pipeline, run over several parts, says
//!   `ShardedHashJoin` / `ShardedHashAggregate` /
//!   `CombinerHashAggregate` / `GatherAggregate` where one part and the
//!   row engine say `HashJoin` / `HashAggregate`, so tests that pin
//!   cardinalities (not names) look operators up through
//!   [`find_join`] / [`find_agg`];
//! * **the range pass's seeds as the engine prices with them** —
//!   [`price_seeds`].
//!
//! Each integration-test binary compiles its own copy of this module,
//! so not every binary uses every helper.
#![allow(dead_code)]

use std::num::NonZeroUsize;

use gbj::analyze::SeedDomains;
use gbj::engine::database::observed_domain;
use gbj::engine::Database;
use gbj::exec::{ExecOptions, ExecPath, ExecSummary, Executor, ProfileNode, ResultSet};
use gbj::plan::LogicalPlan;
use gbj::storage::Storage;
use gbj::{Result, Value};

/// The oracle's executor options, every switch spelled out: the serial
/// row engine. Never `ExecOptions::default()` — that is the pipeline.
pub fn oracle_exec_options() -> ExecOptions {
    ExecOptions {
        vectorized: false,
        threads: NonZeroUsize::MIN,
        shards: NonZeroUsize::MIN,
        ..ExecOptions::default()
    }
}

/// Make `db` the oracle for the queries that follow (its budgets stay
/// as they are).
pub fn make_oracle(db: &mut Database) {
    let oracle = oracle_exec_options();
    db.set_vectorized(oracle.vectorized);
    db.set_threads(oracle.threads);
    db.set_shards(oracle.shards);
}

/// Run `f` with `db` as the oracle, then give `db` its own executor
/// options back.
pub fn as_oracle<T>(db: &mut Database, f: impl FnOnce(&mut Database) -> T) -> T {
    let configured = db.options().exec;
    make_oracle(db);
    let out = f(db);
    db.options_mut().exec = configured;
    out
}

/// Assert that a reference run was the oracle: `path: row`, asked for
/// (not a refusal's fallback), and no operator claiming a kernel.
pub fn assert_ran_oracle(path: ExecPath, profile: &ProfileNode, ctx: &str) {
    fn kernels(p: &ProfileNode, out: &mut Vec<(String, u64)>) {
        if p.metrics.vectors > 0 {
            out.push((p.operator.clone(), p.metrics.vectors));
        }
        p.children.iter().for_each(|c| kernels(c, out));
    }
    assert_eq!(path, ExecPath::Row(None), "{ctx}: the reference ran {path}");
    let mut claimed = Vec::new();
    kernels(profile, &mut claimed);
    assert!(
        claimed.is_empty(),
        "{ctx}: the reference claimed kernels: {claimed:?}"
    );
}

/// Run `plan` as a differential's reference side. `options` is
/// [`oracle_exec_options`], possibly with a budget changed; a run that
/// succeeds is asserted to have been the oracle.
pub fn run_oracle(
    storage: &Storage,
    options: ExecOptions,
    plan: &LogicalPlan,
) -> Result<(ResultSet, ProfileNode, ExecSummary)> {
    let run = Executor::with_options(storage, options).execute_metered(plan)?;
    assert_ran_oracle(run.2.path, &run.1, "run_oracle");
    Ok(run)
}

/// Run `sql` on a database configured as the oracle ([`make_oracle`] /
/// [`as_oracle`]) and assert that is what ran.
pub fn oracle_query(db: &Database, sql: &str) -> Result<ResultSet> {
    let rows = db.query(sql)?;
    let metrics = db.last_query_metrics().expect("the query recorded metrics");
    assert_ran_oracle(metrics.path, &metrics.profile, sql);
    Ok(rows)
}

/// Canonical, order-insensitive form of a result: rows sorted by the
/// engine's total order (`Value::total_cmp`, NULLs last). Two results
/// are the same multiset iff their canonical forms are equal.
pub fn canon(rows: &ResultSet) -> Vec<Vec<Value>> {
    rows.sorted().rows
}

/// Assert two results are equal as multisets, with a context label.
pub fn assert_same_rows(a: &ResultSet, b: &ResultSet, ctx: &str) {
    assert!(
        a.multiset_eq(b),
        "{ctx}: results differ as multisets\nleft:\n{a}\nright:\n{b}"
    );
}

/// Every operator name a join can report, at one part or over several.
pub const JOIN_OPERATORS: &[&str] = &["HashJoin", "ShardedHashJoin", "NestedLoopJoin", "CrossJoin"];

/// Every operator name a group-by can report, at one part or over
/// several.
pub const AGG_OPERATORS: &[&str] = &[
    "HashAggregate",
    "ShardedHashAggregate",
    "CombinerHashAggregate",
    "GatherAggregate",
];

/// The first join operator in the profile, whatever its path or shard
/// count.
pub fn find_join(profile: &ProfileNode) -> Option<&ProfileNode> {
    JOIN_OPERATORS
        .iter()
        .find_map(|op| profile.find_operator(op))
}

/// The first aggregate operator in the profile, on any path.
pub fn find_agg(profile: &ProfileNode) -> Option<&ProfileNode> {
    AGG_OPERATORS
        .iter()
        .find_map(|op| profile.find_operator(op))
}

/// Thread counts a differential sweeps: serial, 4, and the engine's
/// default when `GBJ_TEST_THREADS` overrides it (see
/// `EngineOptions::from_env`).
pub fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 4];
    let default = gbj::engine::EngineOptions::default().exec.threads.get();
    if !counts.contains(&default) {
        counts.push(default);
    }
    counts
}

/// The range pass's seeds as `Database::price` clamps with them: the
/// catalog's, and — when `observed` — every stored column's
/// `observed_domain` met into them.
pub fn price_seeds(db: &Database, observed: bool) -> SeedDomains {
    let mut seeds = SeedDomains::from_catalog(db.catalog());
    for def in db.catalog().tables().filter(|_| observed) {
        let Some(data) = db.storage().table_data(&def.name) else {
            continue;
        };
        for (col, stats) in def.columns.iter().zip(&data.stats().columns) {
            seeds.merge(&def.name, &col.name, &observed_domain(stats, col.data_type));
        }
    }
    seeds
}
