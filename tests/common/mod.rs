//! Shared helpers for the integration tests.
//!
//! Centralises two things every differential test needs:
//!
//! * **order-insensitive comparison** — plan shapes, physical
//!   algorithms, and thread counts are all free to emit rows in any
//!   order, so results are canonicalised (sorted by the engine's total
//!   order, NULLs last) before comparing instead of each test rolling
//!   its own sort;
//! * **operator matching that tolerates threads and shards** — at
//!   `threads > 1` the row engine's profile says `ParallelHashJoin` /
//!   `ParallelHashAggregate` where the serial operators say `HashJoin`
//!   / `HashAggregate`, and at `shards > 1` the chunk pipeline, run
//!   over several parts, says `ShardedHashJoin` /
//!   `ShardedHashAggregate` / `CombinerHashAggregate` /
//!   `GatherAggregate`, so tests that pin cardinalities (not names)
//!   look operators up through [`find_join`] / [`find_agg`].
//!
//! Each integration-test binary compiles its own copy of this module,
//! so not every binary uses every helper.
#![allow(dead_code)]

use gbj::exec::{ProfileNode, ResultSet};
use gbj::Value;

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

/// Every operator name a join can report: serial, parallel or sharded.
pub const JOIN_OPERATORS: &[&str] = &[
    "HashJoin",
    "ParallelHashJoin",
    "ShardedHashJoin",
    "NestedLoopJoin",
    "SortMergeJoin",
    "CrossJoin",
];

/// Every operator name a group-by can report: serial, parallel or
/// sharded.
pub const AGG_OPERATORS: &[&str] = &[
    "HashAggregate",
    "ParallelHashAggregate",
    "ShardedHashAggregate",
    "CombinerHashAggregate",
    "GatherAggregate",
    "SortAggregate",
];

/// The first join operator in the profile, whatever its algorithm,
/// thread count or shard count.
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
