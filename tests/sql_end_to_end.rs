//! End-to-end SQL tests spanning every crate: the Figure 5 DDL with all
//! five constraint classes, SQL2 NULL semantics observed through query
//! results, HAVING/ORDER BY/DISTINCT behaviour, and a demonstration of
//! the Main Theorem's *necessity* direction (naive pushdown without the
//! FDs gives a different answer).

use gbj::engine::{PushdownPolicy, QueryOutput};
use gbj::{Database, Value};

/// The paper's Figure 5, verbatim modulo the referenced table existing.
#[test]
fn figure5_ddl_round_trip() {
    let mut db = Database::new();
    db.run_script("CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30));")
        .unwrap();
    db.execute("CREATE DOMAIN DepIdType SMALLINT CHECK VALUE > 0 AND VALUE < 100")
        .unwrap();
    db.execute(
        "CREATE TABLE Employee ( \
             EmpID INTEGER CHECK (EmpID > 0), \
             EmpSID INTEGER UNIQUE, \
             LastName CHARACTER(30) NOT NULL, \
             FirstName CHARACTER(30), \
             DeptID DepIdType CHECK (DeptID > 5), \
             PRIMARY KEY (EmpID), \
             FOREIGN KEY (DeptID) REFERENCES Dept)",
    )
    .unwrap();

    db.execute("INSERT INTO Dept VALUES (7, 'Eng'), (50, 'Ops')")
        .unwrap();
    // Valid row.
    db.execute("INSERT INTO Employee VALUES (1, 100, 'Yan', 'Weipeng', 7)")
        .unwrap();
    // EmpID > 0 violated.
    let err = db
        .execute("INSERT INTO Employee VALUES (-1, 101, 'X', 'Y', 7)")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    // Domain: DeptID < 100 violated (no Dept 150 either, but the domain
    // check fires first).
    let err = db
        .execute("INSERT INTO Employee VALUES (2, 102, 'X', 'Y', 150)")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    // Column check DeptID > 5.
    let err = db
        .execute("INSERT INTO Employee VALUES (2, 102, 'X', 'Y', 3)")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    // UNIQUE EmpSID: duplicate rejected, NULLs always fine.
    let err = db
        .execute("INSERT INTO Employee VALUES (2, 100, 'X', 'Y', 7)")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    db.execute("INSERT INTO Employee VALUES (2, NULL, 'A', 'B', 7)")
        .unwrap();
    db.execute("INSERT INTO Employee VALUES (3, NULL, 'C', 'D', NULL)")
        .unwrap();
    // NOT NULL LastName.
    let err = db
        .execute("INSERT INTO Employee VALUES (4, 104, NULL, 'Y', 7)")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint");
    // FK: unknown department.
    let err = db
        .execute("INSERT INTO Employee VALUES (4, 104, 'X', 'Y', 99)")
        .unwrap_err();
    assert!(err.message().contains("foreign key"));

    let rows = db.query("SELECT COUNT(*) FROM Employee").unwrap();
    assert_eq!(rows.rows[0][0], Value::Int(3));
}

/// SQL2 NULL semantics observed end to end: WHERE rejects `unknown`,
/// GROUP BY treats NULL as a value, aggregates skip NULLs.
#[test]
fn null_semantics_through_sql() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE T (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER); \
         INSERT INTO T VALUES (1, 1, 10), (2, 1, NULL), (3, NULL, 5), \
                              (4, NULL, NULL), (5, 2, 7);",
    )
    .unwrap();

    // WHERE g = g is unknown for NULL g: those rows are rejected.
    let rows = db.query("SELECT id FROM T WHERE g = g").unwrap();
    assert_eq!(rows.len(), 3);

    // GROUP BY groups the two NULL-g rows together (NULL =ⁿ NULL).
    let rows = db
        .query("SELECT g, COUNT(*), COUNT(v), SUM(v) FROM T GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(rows.len(), 3);
    // NULLs sort last: group order 1, 2, NULL.
    assert_eq!(
        rows.rows[0],
        vec![Value::Int(1), Value::Int(2), Value::Int(1), Value::Int(10)]
    );
    assert_eq!(
        rows.rows[2],
        vec![Value::Null, Value::Int(2), Value::Int(1), Value::Int(5)]
    );

    // IS NULL is two-valued.
    let rows = db
        .query("SELECT id FROM T WHERE g IS NULL ORDER BY id")
        .unwrap();
    assert_eq!(rows.len(), 2);

    // DISTINCT eliminates NULL duplicates.
    let rows = db.query("SELECT DISTINCT g FROM T").unwrap();
    assert_eq!(rows.len(), 3);
}

/// HAVING, ORDER BY and scalar aggregates.
#[test]
fn having_order_and_scalar_aggregates() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE S (id INTEGER PRIMARY KEY, grp VARCHAR(5), x INTEGER); \
         INSERT INTO S VALUES (1,'a',1),(2,'a',2),(3,'a',3),(4,'b',10),(5,'c',NULL);",
    )
    .unwrap();

    let rows = db
        .query(
            "SELECT grp, COUNT(*) AS n, AVG(x) FROM S GROUP BY grp \
             HAVING COUNT(*) > 1 ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.rows[0][0], Value::str("a"));
    assert_eq!(rows.rows[0][2], Value::Float(2.0));

    let rows = db
        .query("SELECT COUNT(*), MIN(x), MAX(x), SUM(x) FROM S")
        .unwrap();
    assert_eq!(
        rows.rows[0],
        vec![Value::Int(5), Value::Int(1), Value::Int(10), Value::Int(16)]
    );
}

/// ORDER BY a qualified column whose output name was de-duplicated
/// (`X` → `X_1`) binds to that select item, on either side and under
/// every policy; an unqualified name still resolves against the output
/// names, and an unknown one is still an error.
#[test]
fn order_by_qualified_column_with_a_renamed_output() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (DId INTEGER PRIMARY KEY, X INTEGER); \
         CREATE TABLE F (FId INTEGER PRIMARY KEY, DId INTEGER, X INTEGER); \
         INSERT INTO D VALUES (1, 30), (2, 10), (3, 20); \
         INSERT INTO F VALUES (1, 1, 5), (2, 2, 7), (3, 3, 6), (4, 1, 4);",
    )
    .unwrap();
    let column = |rows: &gbj::exec::ResultSet, i: usize| -> Vec<Value> {
        rows.rows.iter().map(|r| r[i].clone()).collect()
    };
    let ints = |xs: &[i64]| -> Vec<Value> { xs.iter().map(|&x| Value::Int(x)).collect() };
    for policy in [
        PushdownPolicy::CostBased,
        PushdownPolicy::Always,
        PushdownPolicy::Never,
    ] {
        db.options_mut().policy = policy;
        let rows = db
            .query("SELECT D.X, F.X FROM F, D WHERE F.DId = D.DId ORDER BY F.X")
            .unwrap();
        assert_eq!(column(&rows, 1), ints(&[4, 5, 6, 7]), "{policy:?}");
        assert_eq!(column(&rows, 0), ints(&[30, 30, 20, 10]), "{policy:?}");
        let same = db
            .query("SELECT D.X, F.X FROM F, D WHERE F.DId = D.DId ORDER BY X_1")
            .unwrap();
        assert_eq!(rows.rows, same.rows, "{policy:?}");
        let rows = db
            .query("SELECT F.X, D.X FROM F, D WHERE F.DId = D.DId ORDER BY D.X DESC, F.X")
            .unwrap();
        assert_eq!(column(&rows, 1), ints(&[30, 30, 20, 10]), "{policy:?}");
        assert_eq!(column(&rows, 0), ints(&[4, 5, 6, 7]), "{policy:?}");
        let rows = db
            .query("SELECT D.X, F.X FROM F, D WHERE F.DId = D.DId ORDER BY X")
            .unwrap();
        assert_eq!(column(&rows, 0), ints(&[10, 20, 30, 30]), "{policy:?}");
        let err = db
            .query("SELECT D.X FROM F, D WHERE F.DId = D.DId ORDER BY F.X")
            .unwrap_err();
        assert!(err.message().contains("unknown column F.X"), "{err}");
    }
}

/// The necessity side of the Main Theorem as a live demonstration:
/// grouping by a *non-key* of R2 (duplicate Cat values) makes naive
/// pushdown produce a different answer, which is exactly why TestFD
/// must refuse it.
#[test]
fn necessity_demo_naive_pushdown_would_be_wrong() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(5)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, DimId INTEGER, V INTEGER); \
         INSERT INTO Dim VALUES (1, 'x'), (2, 'x'), (3, 'y'); \
         INSERT INTO Fact VALUES (10, 1, 5), (11, 1, 7), (12, 2, 1), (13, 3, 2);",
    )
    .unwrap();

    // E1: grouped by the duplicate-bearing Cat.
    let e1 = db
        .query(
            "SELECT D.Cat, SUM(F.V) FROM Fact F, Dim D \
             WHERE F.DimId = D.DimId GROUP BY D.Cat ORDER BY Cat",
        )
        .unwrap();
    assert_eq!(e1.len(), 2);
    assert_eq!(e1.rows[0], vec![Value::str("x"), Value::Int(13)]);

    // The engine must have refused the rewrite for this query.
    let report = db
        .plan_query(
            "SELECT D.Cat, SUM(F.V) FROM Fact F, Dim D \
             WHERE F.DimId = D.DimId GROUP BY D.Cat",
        )
        .unwrap();
    assert_eq!(report.choice, gbj::engine::PlanChoice::Lazy);

    // Hand-build the naive E2 through an aggregated view: it yields one
    // row per DimId — a *different* result (3 rows, 'x' appearing twice).
    db.execute(
        "CREATE VIEW G (DimId, S) AS \
         SELECT F.DimId, SUM(F.V) FROM Fact F GROUP BY F.DimId",
    )
    .unwrap();
    let naive = db
        .query("SELECT D.Cat, G.S FROM G, Dim D WHERE G.DimId = D.DimId ORDER BY Cat")
        .unwrap();
    assert_eq!(naive.len(), 3, "naive pushdown splits the 'x' group");
    assert!(!e1.multiset_eq(&naive));
}

/// Views compose: a view over a view, and DROP VIEW.
#[test]
fn view_composition_and_drop() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE T (a INTEGER PRIMARY KEY, b INTEGER); \
         INSERT INTO T VALUES (1, 10), (2, 20), (3, 30); \
         CREATE VIEW V1 AS SELECT a, b FROM T WHERE b > 10; \
         CREATE VIEW V2 (x) AS SELECT a FROM V1;",
    )
    .unwrap();
    let rows = db.query("SELECT x FROM V2 ORDER BY x").unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.rows[0][0], Value::Int(2));
    db.execute("DROP VIEW V2").unwrap();
    assert!(db.query("SELECT x FROM V2").is_err());
    // V1 still works.
    assert_eq!(db.query("SELECT a FROM V1").unwrap().len(), 2);
}

/// EXPLAIN output is a usable report.
#[test]
fn explain_is_informative() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (k INTEGER PRIMARY KEY, n VARCHAR(5)); \
         CREATE TABLE F (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER); \
         INSERT INTO D VALUES (1, 'a'); \
         INSERT INTO F VALUES (1, 1, 5);",
    )
    .unwrap();
    let out = db
        .execute("EXPLAIN SELECT D.k, SUM(F.v) FROM F, D WHERE F.k = D.k GROUP BY D.k")
        .unwrap();
    let QueryOutput::Explain(text) = out else {
        panic!()
    };
    for needle in ["choice:", "partition", "TestFD", "plan:", "Aggregate"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

/// Mixed-type grouping keys and DISTINCT aggregates through SQL.
#[test]
fn distinct_aggregates_and_floats() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE M (id INTEGER PRIMARY KEY, g INTEGER, f FLOAT); \
         INSERT INTO M VALUES (1, 1, 1.5), (2, 1, 1.5), (3, 1, 2.5), (4, 2, 0.5);",
    )
    .unwrap();
    let rows = db
        .query("SELECT g, COUNT(DISTINCT f), SUM(f), AVG(f) FROM M GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(
        rows.rows[0],
        vec![
            Value::Int(1),
            Value::Int(2),
            Value::Float(5.5),
            Value::Float(5.5 / 3.0)
        ]
    );
    assert_eq!(rows.rows[1][1], Value::Int(1));
}

/// EXPLAIN ANALYZE executes and annotates with measured cardinalities.
#[test]
fn explain_analyze_shows_measured_rows() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE T (a INTEGER PRIMARY KEY, b INTEGER); \
         INSERT INTO T VALUES (1, 1), (2, 1), (3, 2);",
    )
    .unwrap();
    let out = db
        .execute("EXPLAIN ANALYZE SELECT b, COUNT(*) FROM T GROUP BY b")
        .unwrap();
    let QueryOutput::Explain(text) = out else {
        panic!()
    };
    assert!(text.contains("planning time: "), "{text}");
    assert!(text.contains("execution time: "), "{text}");
    assert!(text.contains("actual rows: 2"), "{text}");
    assert!(
        text.contains("Scan T [Scan] est=3 actual=3"),
        "scan cardinality shown: {text}"
    );
}
