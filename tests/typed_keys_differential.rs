//! Typed keys against the row oracle, where the two can differ.
//!
//! The chunk pipeline keys rows without building `Value`s — raw `i64`s
//! and dictionary codes under one key view, column-wise accumulators, a
//! typed `=ⁿ` hash stream for placement — and the row engine stays the
//! definition. This suite feeds both the keys on which a typed path
//! could disagree with `GroupKey` — NULL, the `i64` extremes, `2^53` and
//! `2^53 + 1` (one `f64`, two keys), `0.0` / `-0.0` / NaN, a dictionary
//! entry no live row uses, two-column keys — and the error orders a
//! two-pass fold could get wrong, across shards 1 / 4 × threads 1 / 2 ×
//! combiner off / on, and demands the oracle's rows (its order too, at
//! one part), fingerprints and error text, thread-invariant shipped
//! counters, and — where the test can work it out from rows alone — the
//! shipped counters of the row-form definition.

use std::num::NonZeroUsize;
use std::time::Duration;

use gbj::engine::PushdownPolicy;
use gbj::exec::{
    ExecOptions, ExecPath, ExecSummary, Executor, ProfileNode, ResourceGuard, ResourceLimits,
    ResultSet,
};
use gbj::plan::LogicalPlan;
use gbj::storage::{FaultConfig, FaultInjector};
use gbj::types::GroupKey;
use gbj::{Database, Error, Value};

mod common;

const SHARDS: [usize; 2] = [1, 4];
const THREADS: [usize; 2] = [1, 2];

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("nonzero")
}

fn pipeline(shards: usize, threads: usize, combiner: bool, limits: ResourceLimits) -> ExecOptions {
    ExecOptions {
        shards: nz(shards),
        threads: nz(threads),
        combiner,
        limits,
        ..ExecOptions::default()
    }
}

/// The plan `policy` picks for `sql` (eager wherever TestFD allows under
/// `Always`: the shape whose below-join aggregate a combiner splits).
fn plan(db: &mut Database, policy: PushdownPolicy, sql: &str) -> LogicalPlan {
    db.options_mut().policy = policy;
    db.plan_query(sql).expect("plans").plan
}

type Run = gbj::Result<(ResultSet, ProfileNode, ExecSummary)>;

fn run(db: &Database, plan: &LogicalPlan, options: ExecOptions) -> Run {
    if let Some(faults) = db.fault_injector() {
        faults.reset();
    }
    Executor::with_options(db.storage(), options).execute_metered(plan)
}

/// The reference side of every comparison below: the oracle under
/// `limits`, and asserted to be (`common::run_oracle`).
fn oracle(db: &Database, plan: &LogicalPlan, limits: ResourceLimits) -> Run {
    if let Some(faults) = db.fault_injector() {
        faults.reset();
    }
    let options = ExecOptions {
        limits,
        ..common::oracle_exec_options()
    };
    common::run_oracle(db.storage(), options, plan)
}

fn as_text(rows: &[Vec<Value>], bits: impl Fn(f64) -> u64) -> Vec<String> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("f{:016x}", bits(*f)),
        other => format!("{other:?}"),
    };
    rows.iter()
        .map(|r| r.iter().map(cell).collect::<Vec<_>>().join("|"))
        .collect()
}

/// Rows as bit-exact text: a `Float` by its bit pattern, so NaN equals
/// NaN and `0.0` differs from `-0.0`.
fn exact(rows: &[Vec<Value>]) -> Vec<String> {
    as_text(rows, f64::to_bits)
}

/// Rows as a multiset under `=ⁿ`: which of `0.0` / `-0.0`, or of two
/// NaNs, stands for a group is the one that arrived first, and over
/// several parts arrival order is not the oracle's.
fn multiset(rows: &[Vec<Value>]) -> Vec<String> {
    let mut rows = as_text(rows, gbj::types::value::canonical_f64_bits);
    rows.sort();
    rows
}

/// A fact table keyed every way a typed path can be, and a dimension
/// whose string column has a dictionary of its own. `declared` also
/// declares partition keys, so the scan split itself hashes typed keys
/// (NULLs and the `2^53` pair included).
fn key_zoo(declared: bool) -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (Di INTEGER PRIMARY KEY, Ds VARCHAR(10), Name VARCHAR(10)); \
         CREATE TABLE Fact (Id INTEGER PRIMARY KEY, Ki INTEGER, Kf FLOAT, Ks VARCHAR(10), \
                            V INTEGER, F FLOAT);",
    )
    .expect("ddl");
    let big = 1i64 << 53;
    let ints = [
        Value::Int(3),
        Value::Null,
        Value::Int(big),
        Value::Int(big + 1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(-3),
        Value::Int(0),
    ];
    let floats = [
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Null,
        Value::Float(1.5),
        Value::Float(-f64::NAN),
        Value::Float(9.0e15),
    ];
    let strings = [
        Value::str("a"),
        Value::Null,
        Value::str("b"),
        Value::str(""),
        Value::str("a longer key"),
    ];
    // Deterministic, with every pairing of the three cycles (8, 7 and 5
    // are coprime) inside the first 280 rows.
    let facts = (0..3000i64).map(|id| {
        let pick = |vals: &[Value], salt: i64| vals[((id + salt) as usize) % vals.len()].clone();
        vec![
            Value::Int(id),
            pick(&ints, 0),
            pick(&floats, id / 8),
            pick(&strings, id / 56),
            if id % 11 == 0 {
                Value::Null
            } else {
                Value::Int(id % 97 - 40)
            },
            if id % 13 == 0 {
                Value::Null
            } else {
                Value::Float((id % 89) as f64 / 4.0 - 3.0)
            },
        ]
    });
    db.insert_rows("Fact", facts).expect("facts");
    // A dictionary entry no live row uses: the dictionary outlives it.
    db.run_script(
        "INSERT INTO Fact VALUES (9000, 77, 7.5, 'ghost', 1, 1.0); \
         DELETE FROM Fact WHERE Ks = 'ghost';",
    )
    .expect("ghost");
    let dims = [
        (3, Value::str("a"), "three"),
        (big, Value::str("b"), "big"),
        (big + 1, Value::str("zz"), "bigger"),
        (i64::MIN, Value::Null, "min"),
        (i64::MAX, Value::str(""), "max"),
        (12, Value::str("a longer key"), "unmatched"),
    ];
    let dims = dims
        .into_iter()
        .map(|(di, ds, name)| vec![Value::Int(di), ds, Value::str(name)]);
    db.insert_rows("Dim", dims).expect("dims");
    if declared {
        db.declare_partition_key("Fact", &["Ki"]).expect("fact key");
        db.declare_partition_key("Dim", &["Di"]).expect("dim key");
    }
    db
}

const KEY_QUERIES: [&str; 9] = [
    "SELECT F.Ki, COUNT(*), SUM(F.V), AVG(F.F) FROM Fact F GROUP BY F.Ki",
    "SELECT F.Ks, COUNT(F.V), MIN(F.V), MAX(F.F) FROM Fact F GROUP BY F.Ks",
    "SELECT F.Kf, COUNT(*), SUM(F.F) FROM Fact F GROUP BY F.Kf",
    "SELECT F.Ki, F.Ks, COUNT(*), MAX(F.V) FROM Fact F GROUP BY F.Ki, F.Ks",
    "SELECT F.Kf, F.Ki, COUNT(DISTINCT F.V) FROM Fact F GROUP BY F.Kf, F.Ki",
    "SELECT DISTINCT F.Ki FROM Fact F",
    "SELECT DISTINCT F.Ks, F.Kf FROM Fact F",
    "SELECT D.Di, COUNT(F.Id), SUM(F.V), AVG(F.F) FROM Fact F, Dim D \
     WHERE F.Ki = D.Di GROUP BY D.Di",
    "SELECT D.Name, COUNT(F.Id), MIN(F.F) FROM Fact F, Dim D \
     WHERE F.Ks = D.Ds GROUP BY D.Name",
];

/// (a) Every key kind, grouped, deduplicated and joined: the pipeline's
/// rows are the oracle's (in the oracle's first-seen order at one part),
/// its fingerprint is the oracle's, one part ships nothing and the
/// shipped counters do not depend on the thread count.
#[test]
fn typed_keys_reproduce_the_oracle_across_the_matrix() {
    for declared in [false, true] {
        let mut db = key_zoo(declared);
        for sql in KEY_QUERIES {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let plan = plan(&mut db, policy, sql);
                let (oracle, oracle_profile, _) =
                    oracle(&db, &plan, ResourceLimits::default()).expect("oracle runs");
                for shards in SHARDS {
                    for combiner in [false, true] {
                        let mut shipped_at = None;
                        for threads in THREADS {
                            let ctx = format!(
                                "declared={declared} {policy:?} shards={shards} \
                                 threads={threads} combiner={combiner}: {sql}"
                            );
                            let options =
                                pipeline(shards, threads, combiner, ResourceLimits::default());
                            let (got, profile, summary) =
                                run(&db, &plan, options).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                            assert!(
                                matches!(summary.path, ExecPath::Pipeline { shards: at, .. } if at == shards),
                                "{ctx}: expected the chunk pipeline, got {:?}",
                                summary.path
                            );
                            if shards == 1 {
                                assert_eq!(exact(&got.rows), exact(&oracle.rows), "{ctx}: order");
                                assert_eq!((summary.shipped_rows, summary.shipped_bytes), (0, 0));
                            }
                            assert_eq!(multiset(&got.rows), multiset(&oracle.rows), "{ctx}: rows");
                            assert_eq!(
                                profile.counter_fingerprint(),
                                oracle_profile.counter_fingerprint(),
                                "{ctx}: fingerprint"
                            );
                            let shipped = (summary.shipped_rows, summary.shipped_bytes);
                            assert_eq!(*shipped_at.get_or_insert(shipped), shipped, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// The widest span of `Int` keys a group table, a dedup set or a join
/// build indexes directly (`gbj_exec::key::DIRECT_CELLS`), restated.
const DIRECT_CELLS: i64 = 1 << 16;

/// Key streams built to walk a key table through its arms as the scan
/// hands it batches: `K` opens a directory at a negative base, widens it
/// down and up, then passes the cap in the middle of the stream; `E`
/// and `M` fill exactly the cap at the top and at the bottom of the
/// `i64` range (`M` then passes it by one); `R` spans past the cap in
/// its first rows; `S` is dictionary-coded with NULL codes and an entry
/// no live row uses. `Dim` is a small join build over a negative base.
fn span_zoo() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (Dk INTEGER PRIMARY KEY, Ds VARCHAR(10), Name VARCHAR(10)); \
         CREATE TABLE T (Id INTEGER PRIMARY KEY, K INTEGER, E INTEGER, M INTEGER, \
                         R INTEGER, S VARCHAR(10), V INTEGER);",
    )
    .expect("ddl");
    let strings = ["p", "q", "", "a longer key"];
    let rows = (0..400i64).map(|id| {
        let k = match id {
            150 => Some(-6000),
            _ if id % 9 == 4 => None,
            0..=19 => Some(id - 10),
            20..=99 if id % 2 == 0 => Some(-id),
            20..=99 => Some(id * 600),
            _ => Some((id * 37) % 200 - 100),
        };
        let spread = (id * 997) % DIRECT_CELLS;
        let e = match id {
            1 => Some(i64::MAX - (DIRECT_CELLS - 1)),
            _ if id % 11 == 5 => None,
            _ => Some(i64::MAX - spread),
        };
        let m = match id {
            250 => Some(i64::MIN + DIRECT_CELLS),
            3 => Some(i64::MIN + DIRECT_CELLS - 1),
            _ => Some(i64::MIN + spread),
        };
        let r = match id {
            1 => 1_000_000_007,
            _ => id % 13,
        };
        let s = match id % 7 {
            3 => Value::Null,
            _ => Value::str(strings[(id % 11) as usize % strings.len()]),
        };
        let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        vec![
            Value::Int(id),
            int(k),
            int(e),
            int(m),
            Value::Int(r),
            s,
            if id % 10 == 0 {
                Value::Null
            } else {
                Value::Int(id % 50 - 20)
            },
        ]
    });
    db.insert_rows("T", rows).expect("rows");
    db.run_script(
        "INSERT INTO T VALUES (9000, 1, 1, 1, 1, 'ghost', 1); \
         DELETE FROM T WHERE S = 'ghost';",
    )
    .expect("ghost");
    let dims = (-50..50i64).map(|dk| {
        let ds = match dk.rem_euclid(5) {
            0 => Value::Null,
            // Another dictionary, another code order: the probe
            // translates.
            i => Value::str(["zz", "q", "", "p"][i as usize - 1]),
        };
        vec![
            Value::Int(dk),
            ds,
            Value::str(format!("d{}", dk.rem_euclid(7))),
        ]
    });
    db.insert_rows("Dim", dims).expect("dims");
    db
}

const SPAN_QUERIES: [&str; 13] = [
    "SELECT T.K, COUNT(*), SUM(T.V), MIN(T.V) FROM T GROUP BY T.K",
    "SELECT T.E, COUNT(*), SUM(T.V) FROM T GROUP BY T.E",
    "SELECT T.M, COUNT(T.V), MAX(T.V) FROM T GROUP BY T.M",
    "SELECT T.R, COUNT(*), SUM(T.V) FROM T GROUP BY T.R",
    "SELECT T.S, COUNT(*), SUM(T.V) FROM T GROUP BY T.S",
    "SELECT T.K, T.S, COUNT(*) FROM T GROUP BY T.K, T.S",
    "SELECT DISTINCT T.K FROM T",
    "SELECT DISTINCT T.M FROM T",
    "SELECT DISTINCT T.S FROM T",
    "SELECT D.Dk, COUNT(T.Id), SUM(T.V) FROM T, Dim D WHERE T.K = D.Dk GROUP BY D.Dk",
    "SELECT D.Name, COUNT(T.Id), MIN(T.V) FROM T, Dim D WHERE T.S = D.Ds GROUP BY D.Name",
    "SELECT T.Id, T.K, D.Name FROM T, Dim D WHERE T.K = D.Dk",
    "SELECT T.Id, D.Dk FROM T, Dim D WHERE T.S = D.Ds AND T.K = D.Dk",
];

/// Direct-indexed, raw-hashed and decoded keys against the oracle: the
/// streams of [`span_zoo`] grouped, deduplicated and joined — keys at
/// both edges of a directory's span, widening it down and up, passing
/// its cap mid-stream, a negative base, `i64::MIN` / `i64::MAX`, NULL
/// through validity and through `NULL_CODE`, a dictionary entry no live
/// row uses — in scan batches of 5 rows and whole blocks, at 1 and 4
/// parts, with the combiner off and on: the oracle's rows (in its order
/// at one part) and its fingerprint.
#[test]
fn key_directories_reproduce_the_oracle_as_they_widen_and_demote() {
    let mut db = span_zoo();
    for sql in SPAN_QUERIES {
        for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
            let plan = plan(&mut db, policy, sql);
            for batch_size in [None, Some(5)] {
                db.set_fault_injector(batch_size.map(|size| {
                    FaultInjector::new(FaultConfig {
                        batch_size: Some(size),
                        ..FaultConfig::default()
                    })
                }));
                let (oracle, oracle_profile, _) =
                    oracle(&db, &plan, ResourceLimits::default()).expect("oracle runs");
                assert!(!oracle.rows.is_empty(), "{sql}: no rows to compare");
                for shards in SHARDS {
                    for combiner in [false, true] {
                        let ctx = format!(
                            "{policy:?} batch_size={batch_size:?} shards={shards} \
                             combiner={combiner}: {sql}"
                        );
                        let options = pipeline(shards, 1, combiner, ResourceLimits::default());
                        let (got, profile, _) =
                            run(&db, &plan, options).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        if shards == 1 {
                            assert_eq!(exact(&got.rows), exact(&oracle.rows), "{ctx}: order");
                        }
                        assert_eq!(multiset(&got.rows), multiset(&oracle.rows), "{ctx}: rows");
                        assert_eq!(
                            profile.counter_fingerprint(),
                            oracle_profile.counter_fingerprint(),
                            "{ctx}: fingerprint"
                        );
                    }
                }
            }
            db.set_fault_injector(None);
        }
    }
}

/// The rough heap footprint the engine prices a row at
/// (`gbj::exec::guard::row_bytes`), restated here so the expectation
/// below is the test's own.
fn row_bytes(row: &[Value]) -> u64 {
    let strings: usize = row
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len(),
            _ => 0,
        })
        .sum();
    (std::mem::size_of::<Vec<Value>>() + std::mem::size_of_val(row) + strings) as u64
}

/// (a, d) Shipped counters against the row-form definition, from rows
/// alone: an undeclared table is dealt round-robin on the scan ordinal,
/// so a single-table GROUP BY ships exactly the aggregate's input rows
/// whose `GroupKey` hashes to another part, at `8 + row_bytes(row)`.
#[test]
fn shipped_counters_equal_the_row_form_definition() {
    let mut db = key_zoo(false);
    for (sql, key_cols) in [
        (KEY_QUERIES[0], 1),
        (KEY_QUERIES[1], 1),
        (KEY_QUERIES[2], 1),
        (KEY_QUERIES[3], 2),
    ] {
        let plan = plan(&mut db, PushdownPolicy::Never, sql);
        let mut node = &plan;
        while let LogicalPlan::Project { input, .. } = node {
            node = input;
        }
        let LogicalPlan::Aggregate {
            input, group_by, ..
        } = node
        else {
            panic!("{sql}: expected an aggregate under projections, got {plan:?}");
        };
        assert_eq!(group_by.len(), key_cols);
        // The aggregate's input, in scan order, from the row engine.
        let (moved, _, _) = oracle(&db, input, ResourceLimits::default()).expect("input runs");
        let schema = input.schema().expect("schema");
        let ords: Vec<usize> = group_by
            .iter()
            .map(|g| match g.bind(&schema).expect("binds") {
                gbj::expr::BoundExpr::Column(i) => i,
                other => panic!("{sql}: grouping on {other:?}"),
            })
            .collect();
        for n in [2usize, 4, 8] {
            let (mut rows, mut bytes) = (0u64, 0u64);
            for (ordinal, row) in moved.rows.iter().enumerate() {
                let key = GroupKey(ords.iter().map(|&o| row[o].clone()).collect());
                if key.shard(n) != ordinal % n {
                    rows += 1;
                    bytes += 8 + row_bytes(row);
                }
            }
            for threads in THREADS {
                let options = pipeline(n, threads, false, ResourceLimits::default());
                let (_, _, summary) = run(&db, &plan, options).expect("runs");
                assert_eq!(
                    (summary.shipped_rows, summary.shipped_bytes),
                    (rows, bytes),
                    "shards={n} threads={threads}: {sql}"
                );
            }
        }
    }
}

/// A table of `rows` `(Id, G, A, B)` rows for the error matrix.
fn error_db(rows: &[(i64, i64, i64)]) -> Database {
    let mut db = Database::new();
    db.run_script("CREATE TABLE E (Id INTEGER PRIMARY KEY, G INTEGER, A INTEGER, B INTEGER);")
        .expect("ddl");
    let rows = rows.iter().enumerate().map(|(id, &(g, a, b))| {
        vec![
            Value::Int(id as i64),
            Value::Int(g),
            Value::Int(a),
            Value::Int(b),
        ]
    });
    db.insert_rows("E", rows).expect("rows");
    db
}

const TWO_SUMS: &str = "SELECT E.G, SUM(E.A), SUM(E.B) FROM E GROUP BY E.G";

/// The oracle's error and the pipeline's, in every listed cell.
fn assert_same_error(
    db: &mut Database,
    sql: &str,
    limits: ResourceLimits,
    cells: &[usize],
) -> Error {
    let plan = plan(db, PushdownPolicy::Never, sql);
    let expect = oracle(db, &plan, limits).expect_err("the oracle fails");
    for &shards in cells {
        for threads in THREADS {
            for combiner in [false, true] {
                let got = run(db, &plan, pipeline(shards, threads, combiner, limits))
                    .expect_err("the pipeline fails too");
                let ctx = format!("shards={shards} threads={threads} combiner={combiner}: {sql}");
                // The whole error — a budget's `used` included — where
                // charges come in row order; kind and text elsewhere.
                if shards == 1 {
                    assert_eq!(got, expect, "{ctx}");
                }
                assert_eq!(
                    (got.kind(), got.message()),
                    (expect.kind(), expect.message()),
                    "{ctx}"
                );
            }
        }
    }
    expect
}

/// (b) Errors. Two `SUM`s overflowing at different rows of one chunk —
/// the later aggregate first — and an injected failure of the Nth scan
/// batch raise the oracle's error in every cell of the matrix. An
/// overflow before, and after, a new group's failed memory charge in
/// the same chunk is checked where row order is defined — at one part:
/// over several, which part meets which error first is not the
/// oracle's order (DESIGN.md §15).
#[test]
fn errors_are_the_oracles_in_every_cell() {
    let big = i64::MAX;
    // B overflows at row 2, A at row 4: a row-major fold meets B's.
    let mut db = error_db(&[(1, big, 1), (1, 1, big), (1, 1, 1), (2, 5, 5), (1, big, 1)]);
    let error = assert_same_error(&mut db, TWO_SUMS, ResourceLimits::default(), &SHARDS);
    assert_eq!(error.message(), "integer overflow in SUM");

    // Memory: one table entry is the key row plus two accumulators.
    let entry = row_bytes(&[Value::Int(0)]) + 2 * 48;
    let budget = |entries: u64| ResourceLimits {
        max_memory_bytes: Some(entry * entries + entry / 2),
        ..ResourceLimits::default()
    };
    // The overflow (row 1) comes before the third new group (row 3).
    let mut db = error_db(&[(1, big, 0), (1, 1, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)]);
    let error = assert_same_error(&mut db, TWO_SUMS, budget(2), &[1]);
    assert_eq!(error.message(), "integer overflow in SUM");
    // The third new group (row 2) comes before the overflow (row 4).
    let mut db = error_db(&[(1, big, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (1, 1, 0)]);
    let error = assert_same_error(&mut db, TWO_SUMS, budget(2), &[1]);
    assert_eq!(error.message(), "memory budget exceeded");
    // A budget alone fails every cell the same way.
    let mut db = error_db(&(0..40).map(|g| (g, 1, 1)).collect::<Vec<_>>());
    let error = assert_same_error(&mut db, TWO_SUMS, budget(7), &SHARDS);
    assert_eq!(error.message(), "memory budget exceeded");

    // A failing Nth scan batch, in batches of 7 over 40 rows.
    for nth in [0u64, 3, 5] {
        let mut db = error_db(&(0..40).map(|g| (g % 6, 1, 1)).collect::<Vec<_>>());
        db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            fail_nth_batch: Some(nth),
            batch_size: Some(7),
            ..FaultConfig::default()
        })));
        let error = assert_same_error(&mut db, TWO_SUMS, ResourceLimits::default(), &SHARDS);
        assert_eq!(error.kind(), "execution", "batch {nth}: {error}");
    }
}

/// (c) `SUM` and `AVG` over 5 000 seeded floats: the typed sums add in
/// row order, so at one part they are the oracle's bit for bit, grouped
/// and scalar, at every batch size.
#[test]
fn float_sums_are_bit_identical_at_one_part() {
    let mut db = Database::new();
    db.run_script("CREATE TABLE S (Id INTEGER PRIMARY KEY, G INTEGER, X FLOAT);")
        .expect("ddl");
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows = (0..5000i64).map(|id| {
        let x = f64::from_bits(next() % (1 << 62)) % 1e9 / 3.0 - (next() % 1000) as f64;
        let x = if next() % 50 == 0 {
            Value::Null
        } else {
            Value::Float(x)
        };
        vec![Value::Int(id), Value::Int((next() % 9) as i64), x]
    });
    db.insert_rows("S", rows.collect::<Vec<_>>()).expect("rows");
    for sql in [
        "SELECT S.G, SUM(S.X), AVG(S.X), COUNT(S.X) FROM S GROUP BY S.G",
        "SELECT SUM(S.X), AVG(S.X), MIN(S.X), MAX(S.X) FROM S",
    ] {
        let plan = plan(&mut db, PushdownPolicy::Never, sql);
        let (oracle, _, _) = oracle(&db, &plan, ResourceLimits::default()).expect("oracle runs");
        for batch_size in [None, Some(1), Some(97), Some(1024)] {
            db.set_fault_injector(batch_size.map(|size| {
                FaultInjector::new(FaultConfig {
                    batch_size: Some(size),
                    ..FaultConfig::default()
                })
            }));
            for threads in THREADS {
                let options = pipeline(1, threads, false, ResourceLimits::default());
                let (got, _, _) = run(&db, &plan, options).expect("runs");
                assert_eq!(
                    exact(&got.rows),
                    exact(&oracle.rows),
                    "batch_size={batch_size:?} threads={threads}: {sql}"
                );
            }
        }
        db.set_fault_injector(None);
    }
}

/// The guard, polled per chunk: a zero time budget and a zero deadline
/// still fail before any operator has touched a row — no tick was ever
/// counted — with the error variants the row engine fails with, at
/// every part and thread count.
#[test]
fn zero_budgets_fail_before_the_first_row() {
    let mut db = key_zoo(false);
    let plan = plan(&mut db, PushdownPolicy::Always, KEY_QUERIES[7]);
    let timed = ResourceLimits {
        time_budget: Some(Duration::ZERO),
        ..ResourceLimits::default()
    };
    let mut cells = vec![common::oracle_exec_options()];
    for shards in SHARDS {
        for threads in THREADS {
            cells.push(pipeline(shards, threads, true, ResourceLimits::default()));
        }
    }
    for options in cells {
        let ctx = format!("{options:?}");
        let budget = ResourceGuard::new(timed);
        let error = Executor::with_options(db.storage(), options)
            .execute_metered_with_guard(&plan, &budget)
            .expect_err("a zero budget fails");
        assert!(
            matches!(
                error,
                Error::ResourceExhausted {
                    kind: gbj::types::ResourceKind::Time,
                    limit: 0,
                    ..
                }
            ),
            "{ctx}: {error}"
        );
        assert_eq!(budget.ticks(), 0, "{ctx}");
        let deadline = ResourceGuard::unlimited().with_deadline(Duration::ZERO);
        let error = Executor::with_options(db.storage(), options)
            .execute_metered_with_guard(&plan, &deadline)
            .expect_err("a zero deadline fails");
        assert!(
            matches!(error, Error::DeadlineExceeded { budget_ms: 0, .. }),
            "{ctx}: {error}"
        );
        assert_eq!(deadline.ticks(), 0, "{ctx}");
    }
}

/// A probe table and four builds for the windowed hash join: `U` keys
/// every non-NULL `Uk` and `Us` once (a unique build, NULL keys beside
/// them), `M` repeats keys (a duplicate build), `E` and `Z` are empty.
/// `P.V` cycles 0..100, so `V >= 0`, `V < 50` and `V = 3` keep 100 %,
/// 50 % and 1 % of the probe rows; `P.Id < 700 OR P.Id > 2300 OR V = 3`
/// interleaves dense chunks with runs of sparse ones. The string keys
/// of `P` and of the builds live in different dictionaries.
fn join_zoo() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE P (Id INTEGER PRIMARY KEY, K INTEGER, S VARCHAR(10), V INTEGER); \
         CREATE TABLE U (Uid INTEGER PRIMARY KEY, Uk INTEGER, Us VARCHAR(10), W INTEGER); \
         CREATE TABLE M (Mid INTEGER PRIMARY KEY, Mk INTEGER, Ms VARCHAR(10), W INTEGER); \
         CREATE TABLE E (Ek INTEGER PRIMARY KEY, Es VARCHAR(10)); \
         CREATE TABLE Z (Id INTEGER PRIMARY KEY, K INTEGER, S VARCHAR(10), V INTEGER);",
    )
    .expect("ddl");
    let name = |k: i64| Value::str(format!("s{k}"));
    let probe = (0..3000i64).map(|id| {
        let k = (id * 7) % 130 - 10;
        vec![
            Value::Int(id),
            if id % 17 == 0 {
                Value::Null
            } else {
                Value::Int(k)
            },
            if id % 13 == 0 { Value::Null } else { name(k) },
            Value::Int(id % 100),
        ]
    });
    db.insert_rows("P", probe).expect("probe");
    let unique = (0..100i64).map(|uid| {
        let key = |v: Value| if uid % 9 == 4 { Value::Null } else { v };
        vec![
            Value::Int(uid),
            key(Value::Int(uid)),
            key(name(99 - uid)),
            Value::Int(uid % 60),
        ]
    });
    db.insert_rows("U", unique).expect("unique build");
    let dup = (0..150i64).map(|mid| {
        let key = |v: Value| if mid % 11 == 6 { Value::Null } else { v };
        vec![
            Value::Int(mid),
            key(Value::Int(mid % 40)),
            key(name(mid % 35)),
            Value::Int(mid % 70),
        ]
    });
    db.insert_rows("M", dup).expect("duplicate build");
    db
}

const JOIN_FILTERS: [&str; 4] = [
    "P.V >= 0",
    "P.V < 50",
    "P.V = 3",
    "(P.Id < 700 OR P.Id > 2300 OR P.V = 3)",
];

/// Join shapes over [`join_zoo`], `{f}` standing for a filter on `P`.
const JOIN_QUERIES: [&str; 12] = [
    "SELECT P.Id, U.W FROM P, U WHERE P.K = U.Uk AND {f}",
    "SELECT P.Id, U.W FROM U, P WHERE U.Uk = P.K AND {f}",
    "SELECT P.Id, M.W FROM P, M WHERE P.K = M.Mk AND {f}",
    "SELECT P.Id, M.W FROM M, P WHERE M.Mk = P.K AND {f}",
    "SELECT P.Id, U.Uid FROM P, U WHERE P.S = U.Us AND {f}",
    "SELECT P.Id, M.Mid FROM P, M WHERE P.S = M.Ms AND {f}",
    "SELECT P.Id, U.W FROM P, U WHERE P.K = U.Uk AND P.V < U.W AND {f}",
    "SELECT P.Id, M.W FROM P, M WHERE P.K = M.Mk AND P.V > M.W AND {f}",
    "SELECT U.W, COUNT(*), SUM(P.V) FROM P, U WHERE P.K = U.Uk AND {f} GROUP BY U.W",
    "SELECT M.W, COUNT(P.Id), MIN(P.V) FROM P, M WHERE P.S = M.Ms AND {f} GROUP BY M.W",
    "SELECT P.Id, E.Es FROM P, E WHERE P.K = E.Ek AND {f}",
    "SELECT Z.Id, U.W, P.Id FROM Z, U, P WHERE Z.K = U.Uk AND U.Uk = P.K AND {f}",
];

/// The windowed hash join against the oracle: unique and duplicate
/// builds, NULL keys on both sides, an empty build and an empty probe, a
/// residual conjunct, `VARCHAR` keys over two dictionaries, filters
/// keeping 100 %, 50 % and 1 % and one mixing dense chunks with sparse
/// runs, in scan batches of 5 and 1 024 rows, at 1, 2 and 4 parts: the
/// oracle's rows (in its order at one part) and fingerprint. A sparse
/// probe side (`P` on the left) at one part is compacted: the join
/// emits at most one window (plus the build side's concatenation) per
/// 1 024 live rows.
#[test]
fn windowed_joins_reproduce_the_oracle() {
    let mut db = join_zoo();
    for template in JOIN_QUERIES {
        for filter in JOIN_FILTERS {
            let sql = template.replace("{f}", filter);
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let plan = plan(&mut db, policy, &sql);
                for batch_size in [5, 1024] {
                    db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
                        batch_size: Some(batch_size),
                        ..FaultConfig::default()
                    })));
                    let (oracle, oracle_profile, _) =
                        oracle(&db, &plan, ResourceLimits::default()).expect("oracle runs");
                    for shards in [1, 2, 4] {
                        let ctx =
                            format!("{policy:?} batch_size={batch_size} shards={shards}: {sql}");
                        let options = pipeline(shards, 2, false, ResourceLimits::default());
                        let (got, profile, _) =
                            run(&db, &plan, options).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        if shards == 1 {
                            assert_eq!(exact(&got.rows), exact(&oracle.rows), "{ctx}: order");
                        }
                        assert_eq!(multiset(&got.rows), multiset(&oracle.rows), "{ctx}: rows");
                        assert_eq!(
                            profile.counter_fingerprint(),
                            oracle_profile.counter_fingerprint(),
                            "{ctx}: fingerprint"
                        );
                        if shards == 1 && filter == "P.V = 3" && template.contains("FROM P,") {
                            let join = profile.find_operator("HashJoin").expect("a hash join");
                            assert!(
                                join.metrics.vectors <= 2,
                                "{ctx}: {} vectors, a sparse probe side is one window",
                                join.metrics.vectors
                            );
                        }
                    }
                }
                db.set_fault_injector(None);
            }
        }
    }
}
