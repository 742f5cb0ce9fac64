//! Fault-injection and resource-governance integration tests.
//!
//! The storage layer's [`FaultInjector`] deterministically perturbs
//! scans — failing the Nth batch, shrinking batches, and flipping
//! nullable cells to NULL from a pure function of
//! `(seed, table, row_id, column)`. These tests assert the pipeline's
//! robustness contract: every injected fault surfaces as a typed
//! [`Err`] (never a panic, never a silently truncated result), and the
//! lazy (E1) and eager (E2) plan shapes remain differentially
//! equivalent under identical fault seeds — both fail, or both produce
//! the same multiset of rows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use gbj_engine::{Database, PushdownPolicy};
use gbj_exec::{ExecOptions, ResourceLimits};
use gbj_storage::{FaultConfig, FaultInjector};
use gbj_types::Value;
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;

/// The paper's Example-1 shape with nullable join and grouping columns,
/// so NULL injection has somewhere to land.
fn build_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(5)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);",
    )
    .expect("ddl");
    let dims = rng.gen_range(1i64..10);
    for d in 0..dims {
        let cat = if rng.gen_bool(0.25) {
            "NULL".to_string()
        } else {
            format!("'c{}'", rng.gen_range(0i64..3))
        };
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, {cat})"))
            .expect("dim row");
    }
    let facts = rng.gen_range(0i64..60);
    for f in 0..facts {
        let k = if rng.gen_bool(0.2) {
            "NULL".to_string()
        } else {
            rng.gen_range(0i64..12).to_string()
        };
        let v = if rng.gen_bool(0.2) {
            "NULL".to_string()
        } else {
            rng.gen_range(-5i64..20).to_string()
        };
        db.execute(&format!("INSERT INTO Fact VALUES ({f}, {k}, {v})"))
            .expect("fact row");
    }
    db
}

const JOIN_AGG_SQL: &str = "SELECT D.DimId, D.Cat, COUNT(F.FId), SUM(F.V) \
     FROM Fact F, Dim D WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat";

/// One run's outcome: the canonically ordered rows or the error kind.
/// Panics (which must not happen) are reported distinctly.
type Outcome = Result<Vec<Vec<Value>>, String>;

fn run_with(
    db: &mut Database,
    policy: PushdownPolicy,
    sql: &str,
    query: impl Fn(&Database, &str) -> gbj_types::Result<gbj_exec::ResultSet>,
) -> Outcome {
    db.options_mut().policy = policy;
    if let Some(inj) = db.fault_injector() {
        inj.reset();
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| query(db, sql)));
    match outcome {
        Ok(Ok(rows)) => Ok(common::canon(&rows)),
        Ok(Err(e)) => Err(e.kind().to_string()),
        Err(_) => Err("PANIC".to_string()),
    }
}

/// Run one query under a plan policy on the engine as configured (the
/// product, or whatever cell `GBJ_TEST_*` selects).
fn run_under(db: &mut Database, policy: PushdownPolicy, sql: &str) -> Outcome {
    run_with(db, policy, sql, Database::query)
}

/// The reference side: E1 (the lazy shape) on the oracle — asserted to
/// be — under the same fault seed. The database's own executor options
/// come back afterwards.
fn reference(db: &mut Database, sql: &str) -> Outcome {
    common::as_oracle(db, |db| {
        run_with(db, PushdownPolicy::Never, sql, common::oracle_query)
    })
}

#[test]
fn every_injection_point_yields_typed_errors_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xfa01_7001);
    for case in 0..48u64 {
        let mut db = build_db(&mut rng);
        let config = FaultConfig {
            seed: rng.gen_range(0u64..1 << 40),
            fail_nth_batch: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..4)),
            batch_size: rng.gen_bool(0.5).then(|| rng.gen_range(1usize..4)),
            null_flip_one_in: rng.gen_bool(0.5).then(|| rng.gen_range(1u64..5)),
        };
        db.set_fault_injector(Some(FaultInjector::new(config)));
        for policy in [
            PushdownPolicy::Never,
            PushdownPolicy::Always,
            PushdownPolicy::CostBased,
        ] {
            match run_under(&mut db, policy, JOIN_AGG_SQL) {
                Ok(_) => {}
                Err(kind) => {
                    assert_ne!(kind, "PANIC", "case {case}: panicked under {config:?}");
                    assert_eq!(
                        kind, "execution",
                        "case {case}: injected faults must be execution errors"
                    );
                }
            }
        }
    }
}

#[test]
fn short_batches_never_silently_truncate() {
    let mut rng = StdRng::seed_from_u64(0xfa01_7002);
    for case in 0..24u64 {
        let mut db = build_db(&mut rng);
        let baseline = reference(&mut db, JOIN_AGG_SQL).expect("unfaulted run");
        for batch_size in [1usize, 2, 3, 7] {
            db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
                seed: case,
                batch_size: Some(batch_size),
                ..FaultConfig::default()
            })));
            let got = run_under(&mut db, PushdownPolicy::Never, JOIN_AGG_SQL)
                .expect("short batches alone must not fail");
            assert_eq!(
                got, baseline,
                "case {case}: batch_size {batch_size} changed the result"
            );
            db.set_fault_injector(None);
        }
    }
}

#[test]
fn scan_failure_fails_both_plan_shapes() {
    let mut rng = StdRng::seed_from_u64(0xfa01_7003);
    let mut db = build_db(&mut rng);
    db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
        seed: 1,
        fail_nth_batch: Some(0),
        ..FaultConfig::default()
    })));
    let eager = run_under(&mut db, PushdownPolicy::Always, JOIN_AGG_SQL);
    let lazy = run_under(&mut db, PushdownPolicy::Never, JOIN_AGG_SQL);
    assert_eq!(eager, Err("execution".to_string()), "eager must fail");
    assert_eq!(lazy, Err("execution".to_string()), "lazy must fail");
    assert!(
        db.fault_injector().unwrap().failures_injected() >= 1,
        "the failure counter must record the injection"
    );
    // The error message names the injection, so it is diagnosable.
    db.fault_injector().unwrap().reset();
    db.options_mut().policy = PushdownPolicy::Never;
    let err = db.query(JOIN_AGG_SQL).unwrap_err();
    assert!(err.message().contains("injected fault"), "{err}");
}

/// The differential oracle: under identical seeds, E1 (lazy) and E2
/// (eager) either both fail or both produce identical rows — the rows
/// (or the failure) of E1 on the row engine. NULL flips are a pure
/// function of `(seed, table, row_id, column)`, so both plan shapes, on
/// both paths, observe the same perturbed database.
#[test]
fn eager_and_lazy_agree_under_identical_fault_seeds() {
    let mut rng = StdRng::seed_from_u64(0xfa01_7004);
    let mut disagreements = Vec::new();
    for case in 0..48u64 {
        let mut db = build_db(&mut rng);
        let config = FaultConfig {
            seed: rng.gen_range(0u64..1 << 40),
            fail_nth_batch: rng.gen_bool(0.3).then(|| rng.gen_range(0u64..6)),
            batch_size: rng.gen_bool(0.5).then(|| rng.gen_range(1usize..5)),
            null_flip_one_in: rng.gen_bool(0.6).then(|| rng.gen_range(1u64..6)),
        };
        db.set_fault_injector(Some(FaultInjector::new(config)));
        let oracle = reference(&mut db, JOIN_AGG_SQL);
        let eager = run_under(&mut db, PushdownPolicy::Always, JOIN_AGG_SQL);
        let lazy = run_under(&mut db, PushdownPolicy::Never, JOIN_AGG_SQL);
        if eager != oracle || lazy != oracle || oracle == Err("PANIC".to_string()) {
            disagreements.push(format!(
                "case {case} under {config:?}: eager={eager:?} lazy={lazy:?} oracle={oracle:?}"
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "plan shapes disagreed under faults:\n{}",
        disagreements.join("\n")
    );
}

/// Satellite: NULL group-by keys must form exactly one group — "NULL
/// equals NULL" for grouping — in both plan shapes, including when the
/// injector flips extra keys to NULL.
#[test]
fn null_group_keys_form_one_group_in_both_plans() {
    let mut rng = StdRng::seed_from_u64(0xfa01_7005);
    // Group directly by the nullable fact key: every NULL K (stored or
    // injected) must collapse into a single output group.
    let sql = "SELECT F.K, COUNT(F.FId) FROM Fact F GROUP BY F.K";
    let join_sql = "SELECT D.Cat, COUNT(F.FId) \
         FROM Fact F, Dim D WHERE F.K = D.DimId GROUP BY D.Cat";
    for case in 0..32u64 {
        let mut db = build_db(&mut rng);
        for flip in [None, Some(2u64), Some(1u64)] {
            db.set_fault_injector(flip.map(|one_in| {
                FaultInjector::new(FaultConfig {
                    seed: 0x9999 + case,
                    null_flip_one_in: Some(one_in),
                    ..FaultConfig::default()
                })
            }));
            for query in [sql, join_sql] {
                let eager = run_under(&mut db, PushdownPolicy::Always, query)
                    .expect("NULL flips alone must not fail");
                let lazy = run_under(&mut db, PushdownPolicy::Never, query)
                    .expect("NULL flips alone must not fail");
                assert_eq!(
                    eager, lazy,
                    "case {case} flip {flip:?}: plan shapes disagree on {query}"
                );
                assert_eq!(
                    Ok(lazy),
                    reference(&mut db, query),
                    "case {case} flip {flip:?}: the oracle disagrees on {query}"
                );
                let null_groups = eager
                    .iter()
                    .filter(|row| row.first().is_some_and(Value::is_null))
                    .count();
                assert!(
                    null_groups <= 1,
                    "case {case} flip {flip:?}: {null_groups} NULL groups in {query}"
                );
            }
        }
    }
}

#[test]
fn resource_budgets_surface_as_typed_resource_errors() {
    // Fixed-size data: big enough that every budget below is exceeded
    // regardless of random draws.
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(5)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);",
    )
    .expect("ddl");
    for d in 0..8i64 {
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, 'c{}')", d % 3))
            .expect("dim row");
    }
    for f in 0..120i64 {
        db.execute(&format!("INSERT INTO Fact VALUES ({f}, {}, {f})", f % 8))
            .expect("fact row");
    }
    // Sanity: the query runs within default (unlimited) budgets.
    assert!(db.query(JOIN_AGG_SQL).is_ok());

    // Row budget: two rows is below even the smallest scan here.
    db.options_mut().exec.limits = ResourceLimits {
        max_rows: Some(2),
        ..ResourceLimits::default()
    };
    let err = db.query(JOIN_AGG_SQL).unwrap_err();
    assert_eq!(err.kind(), "resource");
    assert_eq!(err.message(), "row budget exceeded");

    // Memory budget: the hash join/aggregate tables cannot fit in 16 B.
    db.options_mut().exec.limits = ResourceLimits {
        max_memory_bytes: Some(16),
        ..ResourceLimits::default()
    };
    let err = db.query(JOIN_AGG_SQL).unwrap_err();
    assert_eq!(err.kind(), "resource");
    assert_eq!(err.message(), "memory budget exceeded");

    // Time budget: a zero budget is exceeded by the first deadline poll.
    db.options_mut().exec.limits = ResourceLimits {
        time_budget: Some(Duration::ZERO),
        ..ResourceLimits::default()
    };
    let err = db.query(JOIN_AGG_SQL).unwrap_err();
    assert_eq!(err.kind(), "resource");
    assert_eq!(err.message(), "time budget exceeded");

    // Budgets restore cleanly.
    db.options_mut().exec = ExecOptions::default();
    assert!(db.query(JOIN_AGG_SQL).is_ok());
}
