//! Batch-boundary differential suite for the batch-native pipeline.
//!
//! The columnar pipeline (scan → selection-vector filters → code-native
//! hash join/aggregate with late materialization) promises output
//! **byte-identical to the row engine** — same rows after canonical
//! ordering, same counter fingerprint, or the same typed error — no
//! matter where the batch boundaries fall. Batch boundaries are the
//! pipeline's sharpest edge: a batch size of 1 makes every row its own
//! vector, 2 and 7 shear groups and join keys across chunk seams, and
//! the default leaves the cursor's natural batching. This suite sweeps
//! batch size × thread count × seeded fault injection (short batches,
//! NULL flips, injected scan failures) over the datasets most likely to
//! break `=ⁿ` dictionary grouping: NULL-heavy string keys, empty
//! tables, and all-NULL columns.

use gbj_engine::Database;
use gbj_storage::{FaultConfig, FaultInjector};
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;

/// Batch sizes to sweep: pathological 1/2/7 plus the cursor default.
const BATCH_SIZES: [Option<usize>; 4] = [Some(1), Some(2), Some(7), None];

/// String-keyed query family: dictionary-encoded group keys (NULL gets
/// its own reserved code and its own `=ⁿ` group), dictionary join keys
/// (NULL never matches), distinct projection, and scalar aggregates.
const QUERIES: &[&str] = &[
    "SELECT F.Tag, COUNT(F.FId), SUM(F.V) FROM Fact F GROUP BY F.Tag",
    "SELECT D.Name, COUNT(*) FROM Fact F, Dim D WHERE F.Tag = D.Name GROUP BY D.Name",
    "SELECT D.Name, SUM(F.V) FROM Fact F, Dim D \
     WHERE F.Tag = D.Name AND F.V > 2 GROUP BY D.Name",
    "SELECT DISTINCT F.Tag FROM Fact F",
    "SELECT COUNT(F.V), SUM(F.V), MIN(F.V), MAX(F.V) FROM Fact F",
    "SELECT F.Tag, COUNT(*) FROM Fact F WHERE F.V > 0 OR F.Tag = 'a' GROUP BY F.Tag",
];

// The batch-native side runs at several thread counts — a no-op at one
// part, the team under the parts at `GBJ_TEST_SHARDS > 1`: the profile
// must not depend on the setting.
use common::thread_counts;

fn schema(db: &mut Database) {
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Name VARCHAR(8)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, Tag VARCHAR(8), V INTEGER);",
    )
    .expect("ddl");
}

/// NULL-heavy instance with *string* join/group keys drawn from a small
/// alphabet (so dictionaries dedup heavily and NULL codes interleave
/// with real ones at every batch seam).
fn null_heavy_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    schema(&mut db);
    let dims = rng.gen_range(1i64..8);
    for d in 0..dims {
        let name = if rng.gen_bool(0.3) {
            "NULL".to_string()
        } else {
            format!("'{}'", ["a", "b", "c", "dd", ""][rng.gen_range(0usize..5)])
        };
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, {name})"))
            .expect("dim row");
    }
    let facts = rng.gen_range(0i64..50);
    for f in 0..facts {
        let tag = if rng.gen_bool(0.35) {
            "NULL".to_string()
        } else {
            format!(
                "'{}'",
                ["a", "b", "c", "dd", "", "zz"][rng.gen_range(0usize..6)]
            )
        };
        let v = if rng.gen_bool(0.25) {
            "NULL".to_string()
        } else {
            rng.gen_range(-4i64..15).to_string()
        };
        db.execute(&format!("INSERT INTO Fact VALUES ({f}, {tag}, {v})"))
            .expect("fact row");
    }
    db
}

/// Both tables empty: every operator sees zero chunks.
fn empty_db() -> Database {
    let mut db = Database::new();
    schema(&mut db);
    db
}

/// Every nullable column entirely NULL: the dictionary holds zero
/// entries, every group key is the reserved NULL code, and no join key
/// ever matches.
fn all_null_db() -> Database {
    let mut db = Database::new();
    schema(&mut db);
    for d in 0..4i64 {
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, NULL)"))
            .expect("dim row");
    }
    for f in 0..23i64 {
        db.execute(&format!("INSERT INTO Fact VALUES ({f}, NULL, NULL)"))
            .expect("fact row");
    }
    db
}

/// One run's observable outcome: canonical rows with the counter
/// fingerprint (the engine-invariant metrics subset), or the typed
/// error.
type Observed = Result<(Vec<Vec<gbj_types::Value>>, Vec<(String, [u64; 4])>), String>;

/// Run `sql` as the reference side (`threads: None` — the oracle, and
/// asserted to be) or on the pipeline at the environment's part count
/// on `threads` workers.
fn observe(db: &mut Database, threads: Option<usize>, sql: &str) -> Observed {
    match threads {
        None => common::make_oracle(db),
        Some(threads) => {
            db.set_vectorized(true);
            db.set_threads(std::num::NonZeroUsize::new(threads).expect("nonzero"));
            db.set_shards(gbj_engine::EngineOptions::default().exec.shards);
        }
    }
    if let Some(inj) = db.fault_injector() {
        inj.reset();
    }
    let rows = db
        .query(sql)
        .map_err(|e| format!("{}: {}", e.kind(), e.message()))?;
    let metrics = db.last_query_metrics().expect("metrics recorded");
    if threads.is_none() {
        common::assert_ran_oracle(metrics.path, &metrics.profile, sql);
    }
    Ok((common::canon(&rows), metrics.profile.counter_fingerprint()))
}

/// Assert the batch-native pipeline matches the row engine on every
/// query, at every batch size and thread count, under `config`-seeded
/// faults — rows and counter fingerprints both.
fn assert_differential(db: &mut Database, ctx: &str, config: Option<FaultConfig>) {
    for batch_size in BATCH_SIZES {
        let injector = match (&config, batch_size) {
            (None, None) => None,
            (None, Some(_)) => Some(FaultConfig {
                batch_size,
                ..FaultConfig::default()
            }),
            (Some(c), _) => Some(FaultConfig {
                batch_size: batch_size.or(c.batch_size),
                ..*c
            }),
        };
        db.set_fault_injector(injector.map(FaultInjector::new));
        for sql in QUERIES {
            let oracle = observe(db, None, sql);
            for threads in thread_counts() {
                let got = observe(db, Some(threads), sql);
                assert_eq!(
                    got, oracle,
                    "{ctx}: rows or counter fingerprint diverged at \
                     batch_size={batch_size:?} threads={threads} for {sql}"
                );
            }
        }
    }
}

/// Randomized NULL-heavy string-keyed instances, clean scans: only the
/// batch boundaries move.
#[test]
fn batch_boundaries_never_change_results_on_null_heavy_keys() {
    let mut rng = StdRng::seed_from_u64(0xc01a_0001);
    for case in 0..8u64 {
        let mut db = null_heavy_db(&mut rng);
        assert_differential(&mut db, &format!("case {case}"), None);
    }
}

/// The same instances under seeded fault injection: NULL flips rewrite
/// key columns mid-stream (the dictionary prescan must re-observe the
/// same flips) and injected batch failures must surface as the same
/// typed error from both engines.
#[test]
fn seeded_faults_agree_between_row_and_batch_native_engines() {
    let mut rng = StdRng::seed_from_u64(0xc01a_0002);
    for case in 0..8u64 {
        let mut db = null_heavy_db(&mut rng);
        let config = FaultConfig {
            seed: rng.gen_range(0u64..1 << 40),
            fail_nth_batch: rng.gen_bool(0.35).then(|| rng.gen_range(0u64..8)),
            batch_size: None,
            null_flip_one_in: rng.gen_bool(0.7).then(|| rng.gen_range(1u64..5)),
        };
        assert_differential(&mut db, &format!("case {case} {config:?}"), Some(config));
    }
}

/// Empty tables: zero chunks through every operator, at every batch
/// size — scalar aggregates still emit their single row.
#[test]
fn empty_tables_agree_at_every_batch_size() {
    let mut db = empty_db();
    assert_differential(&mut db, "empty tables", None);
}

/// All-NULL key and value columns: the dictionary is empty, every row
/// lands in the reserved-NULL-code group, joins produce nothing.
#[test]
fn all_null_columns_agree_at_every_batch_size() {
    let mut db = all_null_db();
    assert_differential(&mut db, "all-NULL columns", None);
    let config = FaultConfig {
        seed: 7,
        fail_nth_batch: None,
        batch_size: None,
        null_flip_one_in: Some(2),
    };
    assert_differential(&mut db, "all-NULL columns + flips", Some(config));
}

// ---------------------------------------------------------------------
// The mask kernels where words end and shapes change, and the columnar
// drain, at the executor: row engine vs chunk pipeline at shards 1 / 4 ×
// threads 1 / 2 — the oracle's rows (its order too, at one part), its
// counter fingerprint, or its error.
// ---------------------------------------------------------------------

use gbj::exec::{ExecOptions, ExecPath, ExecSummary, Executor, ProfileNode, ResultSet};
use gbj::expr::{AggregateCall, BinaryOp, Expr};
use gbj::plan::LogicalPlan;
use gbj::Value;

/// Table sizes one short of, at and one past a mask word (64 rows) and
/// a scan block (1 024), plus a single row and two blocks and a row.
const SIZES: [usize; 8] = [1, 63, 64, 65, 1023, 1024, 1025, 2049];

/// `T` with `n` rows: `A` alternates 0 / 1 with a NULL closing every
/// 64-row word, `F` is a float with NULLs, `G` a float with NaNs, `S` a
/// string column whose dictionary also holds an entry no live row uses,
/// `N` is NULL throughout, `Flag` cycles TRUE / FALSE / NULL; `U` is a
/// five-row dimension for the join residual.
fn edge_db(n: usize) -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE T (Id INTEGER PRIMARY KEY, A INTEGER, B INTEGER, F FLOAT, G FLOAT, \
                         S VARCHAR(8), N INTEGER, Flag BOOLEAN); \
         CREATE TABLE U (K INTEGER PRIMARY KEY, W INTEGER);",
    )
    .expect("ddl");
    let null_if = |null: bool, v: Value| if null { Value::Null } else { v };
    let rows = (0..n as i64).map(|i| {
        vec![
            Value::Int(i),
            null_if(i % 64 == 63, Value::Int(i % 2)),
            Value::Int(i * 7 % 5),
            null_if(i % 11 == 0, Value::Float((i % 9) as f64 * 0.5 - 1.0)),
            Value::Float(if i % 13 == 5 {
                f64::NAN
            } else {
                (i % 3) as f64
            }),
            null_if(
                i % 10 == 9,
                Value::str(["a", "b", "", "zz"][(i % 4) as usize]),
            ),
            Value::Null,
            [Value::Bool(true), Value::Bool(false), Value::Null][(i % 3) as usize].clone(),
        ]
    });
    db.insert_rows("T", rows).expect("rows");
    db.run_script(
        "INSERT INTO T VALUES (-1, 0, 0, 0.0, 0.0, 'ghost', NULL, NULL); \
         DELETE FROM T WHERE S = 'ghost'; \
         INSERT INTO U VALUES (0, 1), (1, NULL), (2, 0), (3, 3), (4, 2);",
    )
    .expect("ghost and dimension");
    db
}

/// Predicates that keep no row, every row and every other row; an
/// all-NULL column as predicate and as argument (`SUM` / `MIN` left
/// pending); a dictionary entry no live row uses, a literal the
/// dictionary lacks and an ordering on strings; a Boolean column bare
/// and negated; NaN on both sides of `=`; every typed state vector
/// (`COUNT`, `SUM` / `MIN` / `MAX` / `AVG` over `Int` and over `Float`),
/// the general arm (strings, DISTINCT), one- and two-column keys, the
/// scalar aggregate over empty input, and the join residual.
const EDGE_QUERIES: &[&str] = &[
    "SELECT T.B, COUNT(*), SUM(T.A) FROM T WHERE T.Id < 0 GROUP BY T.B",
    "SELECT COUNT(*), COUNT(T.A), SUM(T.A), MIN(T.F), MAX(T.S), AVG(T.A) FROM T WHERE T.Id < 0",
    "SELECT T.B, COUNT(T.A), SUM(T.A), MIN(T.A), MAX(T.A), AVG(T.A) FROM T \
     WHERE T.Id >= 0 GROUP BY T.B",
    "SELECT T.S, COUNT(*), SUM(T.F), MIN(T.F), MAX(T.F), AVG(T.F) FROM T \
     WHERE T.A = 1 GROUP BY T.S",
    "SELECT T.B, COUNT(T.N), SUM(T.N), MIN(T.N), AVG(T.N) FROM T WHERE T.N IS NULL GROUP BY T.B",
    "SELECT T.B, COUNT(*) FROM T WHERE T.N > 0 OR T.N <= 0 GROUP BY T.B",
    "SELECT T.S, COUNT(*) FROM T WHERE T.S = 'ghost' GROUP BY T.S",
    "SELECT T.S, COUNT(*) FROM T WHERE T.S <> 'absent' GROUP BY T.S",
    "SELECT T.S, COUNT(*) FROM T WHERE T.S < 'b' OR 'zz' <= T.S GROUP BY T.S",
    "SELECT T.B, COUNT(*) FROM T WHERE T.Flag GROUP BY T.B",
    "SELECT T.B, COUNT(*) FROM T WHERE NOT T.Flag OR T.Flag IS NULL GROUP BY T.B",
    "SELECT T.B, COUNT(*) FROM T WHERE NOT (T.G = T.G) OR T.G <> 1.0 GROUP BY T.B",
    "SELECT T.B, COUNT(DISTINCT T.A), SUM(DISTINCT T.F), MIN(T.S), MAX(T.S) FROM T GROUP BY T.B",
    "SELECT T.B, T.S, COUNT(*), MAX(T.F) FROM T GROUP BY T.B, T.S",
    "SELECT SUM(T.A), AVG(T.F), MIN(T.S) FROM T",
    "SELECT U.K, COUNT(*), SUM(T.A) FROM T, U WHERE T.B = U.K AND T.A < U.W GROUP BY U.K",
];

/// One run: rows as bit-exact text (a `Float` by its bits) with the
/// counter fingerprint, or the typed error.
type Outcome = Result<(Vec<String>, Vec<(String, [u64; 4])>), String>;

fn outcome(run: gbj::Result<(ResultSet, ProfileNode, ExecSummary)>) -> Outcome {
    let (rows, profile, _) = run.map_err(|e| format!("{}: {}", e.kind(), e.message()))?;
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    let text = |row: &Vec<Value>| row.iter().map(cell).collect::<Vec<_>>().join("|");
    Ok((
        rows.rows.iter().map(text).collect(),
        profile.counter_fingerprint(),
    ))
}

/// The pipeline's outcome equals the row engine's at every shards ×
/// threads cell: the same rows — in the same order at one part, as the
/// same multiset over four — and fingerprint, or the same error.
fn assert_pipeline_matches_oracle(db: &Database, plan: &LogicalPlan, ctx: &str) {
    let sorted = |outcome: Outcome| {
        outcome.map(|(mut rows, fingerprint)| {
            rows.sort();
            (rows, fingerprint)
        })
    };
    let reference = common::run_oracle(db.storage(), common::oracle_exec_options(), plan);
    let oracle = outcome(reference);
    for shards in [1usize, 4] {
        for threads in [1usize, 2] {
            let nz = |n| std::num::NonZeroUsize::new(n).expect("nonzero");
            let options = ExecOptions {
                shards: nz(shards),
                threads: nz(threads),
                ..ExecOptions::default()
            };
            let ctx = format!("{ctx} at shards={shards} threads={threads}");
            let run = Executor::with_options(db.storage(), options).execute_metered(plan);
            if let Ok((_, _, summary)) = &run {
                let on_pipeline = matches!(summary.path, ExecPath::Pipeline { .. });
                assert!(on_pipeline, "{ctx}: {} for {plan:?}", summary.path);
            }
            let got = outcome(run);
            if shards == 1 {
                assert_eq!(got, oracle, "{ctx}");
            } else {
                assert_eq!(sorted(got), sorted(oracle.clone()), "{ctx}");
            }
        }
    }
}

#[test]
fn mask_kernels_and_the_columnar_drain_agree_with_the_oracle_at_every_size() {
    for n in SIZES {
        let db = edge_db(n);
        for sql in EDGE_QUERIES {
            let plan = db.plan_query(sql).expect("plans").plan;
            assert_pipeline_matches_oracle(&db, &plan, &format!("{n} rows: {sql}"));
        }
    }
}

/// Shapes SQL cannot spell, as hand-built plans: a filter over an
/// already filtered chunk (the incoming selection is read in place and
/// its order kept — over four parts the inner filter itself meets dealt
/// chunks with a quarter of their rows live), Boolean expressions
/// projected as value columns (`unknown` → NULL), with and without
/// DISTINCT, and grouping on a computed Boolean key.
#[test]
fn stacked_filters_and_boolean_value_columns_agree_with_the_oracle() {
    let t = |column: &str| Expr::col("T", column);
    let int = |k: i64| Expr::lit(Value::Int(k));
    let is_null = |expr: Expr, negated| Expr::IsNull {
        expr: Box::new(expr),
        negated,
    };
    for n in SIZES {
        let db = edge_db(n);
        let scan = || match db.plan_query("SELECT * FROM T").expect("plans").plan {
            LogicalPlan::Project { input, .. } => *input,
            scan => scan,
        };
        assert!(matches!(scan(), LogicalPlan::Scan { .. }), "{:?}", scan());
        let filter = |input, predicate| LogicalPlan::Filter {
            input: Box::new(input),
            predicate,
        };
        let project = |input, exprs: Vec<(Expr, &str)>, distinct| LogicalPlan::Project {
            input: Box::new(input),
            exprs: exprs.into_iter().map(|(e, a)| (e, a.to_string())).collect(),
            distinct,
        };

        // Every other row, then two in five of those, then a string test.
        let stacked = filter(
            filter(
                filter(scan(), t("A").eq(int(1))),
                t("B")
                    .binary(BinaryOp::Gt, int(2))
                    .or(is_null(t("F"), false)),
            ),
            t("S").binary(BinaryOp::NotEq, Expr::lit("zz")),
        );
        let columns = vec![(t("Id"), "Id"), (t("B"), "B"), (t("S"), "S")];
        let stacked = project(stacked, columns, false);
        assert_pipeline_matches_oracle(&db, &stacked, &format!("{n} rows: stacked filters"));

        let lt = t("A").binary(BinaryOp::Lt, t("B"));
        let values = vec![
            (t("Id"), "Id"),
            (lt.clone(), "lt"),
            (Expr::Not(Box::new(lt.clone())), "ge"),
            (is_null(t("S"), true), "has_s"),
            (is_null(lt.clone(), false), "lt_unknown"),
            (t("G").binary(BinaryOp::LtEq, t("F")), "g_le_f"),
            (t("Flag").and(t("N").eq(int(0))), "flag_and_unknown"),
            (lt.clone().eq(t("Flag")), "lt_is_flag"),
        ];
        let valued = project(scan(), values, false);
        assert_pipeline_matches_oracle(&db, &valued, &format!("{n} rows: value columns"));

        let distinct = project(scan(), vec![(lt.clone(), "lt"), (t("Flag"), "Flag")], true);
        assert_pipeline_matches_oracle(&db, &distinct, &format!("{n} rows: DISTINCT values"));

        let grouped = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![lt],
            aggregates: vec![(AggregateCall::count_star(), "n".to_string())],
        };
        assert_pipeline_matches_oracle(&db, &grouped, &format!("{n} rows: Boolean key"));
    }
}
