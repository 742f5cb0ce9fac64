//! Golden lowered trees: `display_tree()` of both candidate shapes for
//! every SELECT of `corpus/paper_examples.sql` and for the shapes whose
//! lowering has a quirk to keep — several conjuncts on one relation
//! (they come out last-first), a column-free conjunct over two and over
//! three relations (it ends the top join's condition), a disconnected
//! FROM, a FROM list in an unconnected textual order, a derived relation
//! with its own join, a `COUNT(*)`-only aggregate (nothing is pruned
//! below it) and ORDER BY.
//!
//! The trees are planned under `PushdownPolicy::Never`, so `plan:` is
//! the lazy shape and `alternative:` the eager one whenever TestFD
//! certifies a rewrite.

use gbj::engine::PushdownPolicy;
use gbj::Database;

const GOLDEN: &str = include_str!("golden/lowered_trees.txt");

/// A view with its own join, for the derived-relation shapes.
const VIEW: &str = "CREATE VIEW DeptHeads (DeptID, Heads) AS \
     SELECT D.DeptID, COUNT(E.EmpID) FROM Employee E, Department D \
     WHERE E.DeptID = D.DeptID GROUP BY D.DeptID";

const EXTRA: &[&str] = &[
    // Two and three conjuncts on one relation of a join.
    "SELECT D.DimId, SUM(F.V) FROM Fact F, Dim D \
     WHERE F.DimId = D.DimId AND F.V > 1 AND F.FactId < 9 GROUP BY D.DimId",
    "SELECT D.DimId, SUM(F.V) FROM Fact F, Dim D \
     WHERE F.V > 1 AND F.DimId = D.DimId AND D.Cat = 'a' AND F.FactId < 9 \
     AND F.V < 500 GROUP BY D.DimId",
    // One relation: the WHERE clause stays one filter, as written.
    "SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E \
     WHERE E.EmpID > 1 AND E.DeptID < 9 AND 1 = 1 GROUP BY E.DeptID",
    // A column-free conjunct over two and three relations, with and
    // without a join predicate.
    "SELECT D.DimId, COUNT(F.FactId) FROM Fact F, Dim D \
     WHERE F.DimId = D.DimId AND 1 = 1 GROUP BY D.DimId",
    "SELECT E.EmpID, D.Name FROM Employee E, Department D WHERE 1 = 1",
    "SELECT U.UserId, SUM(A.Usage) FROM UserAccount U, PrinterAuth A, Printer P \
     WHERE U.UserId = A.UserId AND 1 = 1 AND A.PNo = P.PNo GROUP BY U.UserId",
    "SELECT E.EmpID, P.Make FROM Employee E, Department D, Printer P \
     WHERE 1 = 1 AND P.Speed > 3",
    // A disconnected FROM, and FROM P, U, A in an unconnected order.
    "SELECT E.EmpID, P.PNo FROM Employee E, Printer P, Department D \
     WHERE E.DeptID = D.DeptID",
    "SELECT U.UserId, SUM(A.Usage) FROM Printer P, UserAccount U, PrinterAuth A \
     WHERE U.UserId = A.UserId AND U.Machine = A.Machine AND A.PNo = P.PNo \
     AND P.Speed > 2 GROUP BY U.UserId",
    // A derived relation with its own join.
    "SELECT V.DeptID, V.Heads, D.Name FROM DeptHeads V, Department D \
     WHERE V.DeptID = D.DeptID",
    "SELECT D.Name, SUM(V.Heads) FROM DeptHeads V, Department D \
     WHERE V.DeptID = D.DeptID AND V.Heads > 1 GROUP BY D.Name",
    // COUNT(*) only, with and without a grouping column.
    "SELECT COUNT(*) FROM Employee E, Department D \
     WHERE E.DeptID = D.DeptID AND D.Name = 'x'",
    "SELECT D.DeptID, COUNT(*) FROM Employee E, Department D \
     WHERE E.DeptID = D.DeptID GROUP BY D.DeptID",
    // HAVING, DISTINCT without grouping, ORDER BY.
    "SELECT D.DeptID, COUNT(E.EmpID) FROM Employee E, Department D \
     WHERE E.DeptID = D.DeptID GROUP BY D.DeptID HAVING COUNT(E.EmpID) > 1",
    "SELECT DISTINCT D.Name FROM Employee E, Department D WHERE E.DeptID = D.DeptID",
    "SELECT D.DeptID, COUNT(E.EmpID) AS n FROM Employee E, Department D \
     WHERE E.DeptID = D.DeptID GROUP BY D.DeptID ORDER BY n DESC, D.DeptID",
];

/// Both shapes of every query, as one text.
fn render() -> String {
    let corpus: String = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/corpus/paper_examples.sql"
    ))
    .expect("corpus file")
    .lines()
    .filter(|l| !l.trim_start().starts_with("--"))
    .collect::<Vec<_>>()
    .join("\n");
    let mut db = Database::new();
    db.options_mut().policy = PushdownPolicy::Never;
    let mut selects = Vec::new();
    for stmt in corpus.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        if stmt.to_ascii_uppercase().starts_with("SELECT") {
            selects.push(stmt.split_whitespace().collect::<Vec<_>>().join(" "));
        } else {
            db.execute(stmt).expect("corpus DDL runs");
        }
    }
    db.execute(VIEW).expect("view");
    selects.extend(
        EXTRA
            .iter()
            .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" ")),
    );
    let mut out = String::new();
    for sql in &selects {
        let report = db.plan_query(sql).expect("query plans");
        out.push_str(&format!("-- {sql}\nplan:\n{}", report.plan.display_tree()));
        if let Some(alt) = &report.alternative {
            out.push_str(&format!("alternative:\n{}", alt.display_tree()));
        }
        out.push('\n');
    }
    out
}

#[test]
fn lowered_trees_match_the_golden() {
    let actual = render();
    assert!(
        actual == GOLDEN,
        "lowered trees moved; the full rendering:\n<<<\n{actual}>>>"
    );
}
