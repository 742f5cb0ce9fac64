//! Negative coverage for the static analyzer: each hand-built
//! counterexample to the Main Theorem (mirroring
//! `theorem_counterexamples.rs`) must surface the *specific* GBJxxx
//! code for the condition it violates, and the paper's worked examples
//! must lint completely clean — refusals are explained, valid rewrites
//! are not second-guessed.

use gbj::analyze::{Code, Severity};
use gbj::Database;

/// Lint one query against a fresh schema script, returning its codes.
fn lint(schema: &str, sql: &str) -> Vec<Code> {
    let mut db = Database::new();
    db.run_script(schema).unwrap();
    let report = db.lint_select(sql).unwrap();
    report.codes()
}

/// Lemma 2's counterexample: `(GA1, GA2) → GA1+` is not derivable, so
/// the analyzer must explain the refusal with GBJ202 — and nothing at
/// Error severity (a refusal is advice, not a broken invariant).
#[test]
fn fd1_violation_is_gbj202() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (B INTEGER PRIMARY KEY, H INTEGER); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, G INTEGER, V INTEGER);",
    )
    .unwrap();
    let report = db
        .lint_select("SELECT F.G, D.H, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY F.G, D.H")
        .unwrap();
    assert_eq!(report.codes(), vec![Code::Fd1NotDerivable]);
    assert!(
        !report.has_severity(Severity::Error),
        "a TestFD refusal is Warning-level, not an invariant break:\n{}",
        report.render_text()
    );
}

/// Lemma 3's counterexample: no key of `R2` is derivable from
/// `(GA1+, GA2)` — GBJ203.
#[test]
fn fd2_violation_is_gbj203() {
    let codes = lint(
        "CREATE TABLE D (Id INTEGER PRIMARY KEY, B INTEGER, H INTEGER); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, V INTEGER);",
        "SELECT F.A, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY F.A",
    );
    assert_eq!(codes, vec![Code::Fd2NotDerivable]);
}

/// The minimal repair of Lemma 3's instance — `UNIQUE(B)` over a NOT
/// NULL `B` restores FD2 — must flip the same query to a clean bill of
/// health. A nullable UNIQUE is no key (it admits several NULLs, equal
/// under `=ⁿ`), so it leaves the refusal standing; here that is
/// conservative, since the join's `⌊F.A = D.B⌋` rejects a NULL `B`
/// (ROADMAP item 10).
#[test]
fn restoring_the_key_lints_clean() {
    let sql = "SELECT F.A, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY F.A";
    let codes = lint(
        "CREATE TABLE D (Id INTEGER PRIMARY KEY, B INTEGER NOT NULL UNIQUE, H INTEGER); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, V INTEGER);",
        sql,
    );
    assert_eq!(codes, Vec::<Code>::new());
    let codes = lint(
        "CREATE TABLE D (Id INTEGER PRIMARY KEY, B INTEGER UNIQUE, H INTEGER); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, V INTEGER);",
        sql,
    );
    assert_eq!(codes, vec![Code::Fd2NotDerivable]);
}

/// A query with no usable join equality (pure Cartesian product
/// grouped on the other side) is structurally inapplicable — GBJ206,
/// Info severity.
#[test]
fn cartesian_grouping_is_gbj206() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE L (Id INTEGER PRIMARY KEY, V INTEGER); \
         CREATE TABLE R (Id INTEGER PRIMARY KEY, B INTEGER);",
    )
    .unwrap();
    let report = db
        .lint_select("SELECT R.B, SUM(L.V) FROM L, R GROUP BY R.B")
        .unwrap();
    assert_eq!(report.codes(), vec![Code::RewriteInapplicable]);
    assert!(!report.has_severity(Severity::Warning));
    assert!(!report.has_severity(Severity::Error));
}

/// `x = NULL` is always UNKNOWN under ⌊P⌋ — GBJ301.
#[test]
fn null_literal_comparison_is_gbj301() {
    let codes = lint(
        "CREATE TABLE T (Id INTEGER PRIMARY KEY, C INTEGER);",
        "SELECT T.Id FROM T WHERE T.C = NULL",
    );
    assert_eq!(codes, vec![Code::NullLiteralComparison]);
}

/// `<>` over a nullable operand diverges between ⌊P⌋ and ⌈P⌉ — GBJ303;
/// the same predicate over a NOT NULL column must stay silent.
#[test]
fn noteq_over_nullable_is_gbj303() {
    let codes = lint(
        "CREATE TABLE T (Id INTEGER PRIMARY KEY, C INTEGER);",
        "SELECT T.Id FROM T WHERE T.C <> 7",
    );
    assert_eq!(codes, vec![Code::FloorCeilDivergence]);

    let clean = lint(
        "CREATE TABLE T (Id INTEGER PRIMARY KEY, C INTEGER NOT NULL);",
        "SELECT T.Id FROM T WHERE T.C <> 7",
    );
    assert_eq!(clean, Vec::<Code>::new());
}

/// The paper's Example 1 (Emp/Dept with a NOT NULL join column) is the
/// canonical *valid* rewrite: zero diagnostics, and the engine really
/// does rewrite it (the lint is not clean merely because nothing was
/// attempted).
#[test]
fn paper_example_1_lints_clean() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Budget INTEGER NOT NULL); \
         CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, \
                           DeptID INTEGER NOT NULL, Salary INTEGER NOT NULL);",
    )
    .unwrap();
    let sql = "SELECT Dept.DeptID, Dept.Budget, SUM(Emp.Salary) \
               FROM Emp, Dept WHERE Emp.DeptID = Dept.DeptID \
               GROUP BY Dept.DeptID, Dept.Budget";
    let report = db.lint_select(sql).unwrap();
    assert!(
        report.is_empty(),
        "Example 1 must lint clean:\n{}",
        report.render_text()
    );
}

/// The whole shipped corpus: every paper example is diagnostic-free,
/// and every counterexample file query yields exactly one refusal or
/// NULL-semantics lint (never an Error).
#[test]
fn shipped_corpus_matches_expectations() {
    let valid = std::fs::read_to_string("corpus/paper_examples.sql").unwrap();
    let mut db = Database::new();
    let reports = db.lint_script(&valid).unwrap();
    assert_eq!(reports.len(), 5, "five linted queries in paper_examples");
    for r in &reports {
        assert!(
            r.is_empty(),
            "expected a clean report:\n{}",
            r.render_text()
        );
    }

    let invalid = std::fs::read_to_string("corpus/counterexamples.sql").unwrap();
    let mut db = Database::new();
    let reports = db.lint_script(&invalid).unwrap();
    let codes: Vec<Code> = reports
        .iter()
        .flat_map(gbj::analyze::Report::codes)
        .collect();
    // The view kept as written groups below its join: over several
    // parts, with no certificate, raw rows cross the exchange (GBJ502).
    let sharded = db.options().exec.shards.get() > 1;
    let view_ships_raw_rows = sharded.then_some(Code::CombinerNotCertified);
    let expect: Vec<Code> = [
        Code::Fd1NotDerivable,
        Code::Fd2NotDerivable,
        Code::RewriteInapplicable,
        // A nullable UNIQUE, forward and through a view (no key of the
        // joined table: FD2), then a nullable column's CHECK as a column
        // CHECK, a domain's and an assertion: none derives anything.
        Code::Fd1NotDerivable,
        Code::Fd2NotDerivable,
    ]
    .into_iter()
    .chain(view_ships_raw_rows)
    .chain([
        Code::Fd1NotDerivable,
        Code::Fd1NotDerivable,
        Code::Fd1NotDerivable,
        Code::NullLiteralComparison,
        Code::FloorCeilDivergence,
    ])
    .collect();
    assert_eq!(codes, expect);
    assert!(
        reports.iter().all(|r| !r.has_severity(Severity::Error)),
        "counterexamples document refusals; none is an engine invariant break"
    );

    // The domain-analysis corpus: five queries, each tripping exactly
    // one GBJ6xx code from the range pass, in file order.
    let domain = std::fs::read_to_string("corpus/domain_counterexamples.sql").unwrap();
    let mut db = Database::new();
    let reports = db.lint_script(&domain).unwrap();
    assert_eq!(reports.len(), 5, "five linted queries in domain corpus");
    let codes: Vec<Vec<Code>> = reports.iter().map(gbj::analyze::Report::codes).collect();
    assert_eq!(
        codes,
        vec![
            vec![Code::AlwaysFalsePredicate],
            vec![Code::TautologicalPredicate],
            vec![Code::ProvablyEmptyJoin],
            vec![Code::RedundantNullCheck],
            vec![Code::OutOfDomainComparison],
        ],
        "each domain counterexample yields exactly its own GBJ6xx code"
    );
    assert!(
        reports.iter().all(|r| !r.has_severity(Severity::Error)),
        "GBJ6xx findings are advisory (Warning/Info), never Error"
    );
}

/// GBJ601–GBJ605 minimal inline triggers, each checked against its
/// satisfiable twin so the pass proves facts rather than
/// pattern-matching shapes.
#[test]
fn domain_lints_fire_on_proofs_not_shapes() {
    // GBJ601 needs an actual contradiction; a satisfiable conjunction
    // over the same column is clean.
    let schema = "CREATE TABLE T (Id INTEGER PRIMARY KEY, C INTEGER NOT NULL);";
    assert_eq!(
        lint(schema, "SELECT T.Id FROM T WHERE T.C > 10 AND T.C < 5"),
        vec![Code::AlwaysFalsePredicate]
    );
    assert_eq!(
        lint(schema, "SELECT T.Id FROM T WHERE T.C > 5 AND T.C < 10"),
        Vec::<Code>::new()
    );
    // A strict bound rounds a fractional literal into the column's type
    // (6 satisfies both), and an integer literal does not make a FLOAT
    // column integral (5.5 satisfies both).
    assert_eq!(
        lint(schema, "SELECT T.Id FROM T WHERE T.C > 5.5 AND T.C < 7"),
        Vec::<Code>::new()
    );
    assert_eq!(
        lint(
            "CREATE TABLE T (Id INTEGER PRIMARY KEY, X FLOAT NOT NULL);",
            "SELECT T.Id FROM T WHERE T.X > 5 AND T.X < 6"
        ),
        Vec::<Code>::new()
    );

    // GBJ602 requires 2VL-safety: the same CHECK-implied predicate
    // over a *nullable* column can still be UNKNOWN, so no tautology
    // may be claimed.
    assert_eq!(
        lint(
            "CREATE TABLE T (Id INTEGER PRIMARY KEY, C INTEGER NOT NULL CHECK (C >= 1));",
            "SELECT T.Id FROM T WHERE T.C >= 1"
        ),
        vec![Code::TautologicalPredicate]
    );
    assert_eq!(
        lint(
            "CREATE TABLE T (Id INTEGER PRIMARY KEY, C INTEGER CHECK (C >= 1));",
            "SELECT T.Id FROM T WHERE T.C >= 1"
        ),
        Vec::<Code>::new()
    );

    // GBJ604 on IS NULL over a PRIMARY KEY (constantly false) as well
    // as IS NOT NULL (constantly true); nullable columns are clean.
    assert_eq!(
        lint(schema, "SELECT T.Id FROM T WHERE T.Id IS NULL"),
        vec![Code::RedundantNullCheck]
    );
    assert_eq!(
        lint(
            "CREATE TABLE T (Id INTEGER PRIMARY KEY, C INTEGER);",
            "SELECT T.Id FROM T WHERE T.C IS NOT NULL"
        ),
        Vec::<Code>::new()
    );

    // GBJ605 fires only outside the proven domain.
    let meter = "CREATE TABLE M (Id INTEGER PRIMARY KEY, \
                 Pct INTEGER CHECK (Pct >= 0 AND Pct <= 100));";
    assert_eq!(
        lint(meter, "SELECT M.Id FROM M WHERE M.Pct = 500"),
        vec![Code::OutOfDomainComparison]
    );
    assert_eq!(
        lint(meter, "SELECT M.Id FROM M WHERE M.Pct = 50"),
        Vec::<Code>::new()
    );
}

/// NaN is a non-NULL `FLOAT` value that no comparison keeps, and a CHECK
/// admits it (`⌈P⌉` holds where a comparison is undefined). So on a
/// `FLOAT NOT NULL` column neither `x = x` nor a bound its CHECK implies
/// is a tautology: each keeps 1 of the 2 rows, and neither draws GBJ602.
#[test]
fn nan_keeps_float_comparisons_from_being_tautologies() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE N (x FLOAT NOT NULL CHECK (x >= 0 AND x <= 10)); \
         INSERT INTO N VALUES (0.0 / 0.0), (1.0);",
    )
    .unwrap();
    for sql in [
        "SELECT N.x FROM N WHERE N.x = N.x",
        "SELECT N.x FROM N WHERE N.x <= 10",
    ] {
        assert_eq!(
            db.lint_select(sql).unwrap().codes(),
            Vec::<Code>::new(),
            "{sql}"
        );
        assert_eq!(db.query(sql).unwrap().len(), 1, "{sql}");
    }
}
