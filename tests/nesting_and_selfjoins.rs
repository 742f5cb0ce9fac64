//! Harder query shapes: aggregation over aggregated views (nested
//! aggregation), self-joins, and duplicate GROUP BY columns.

use gbj::engine::{PlanChoice, PushdownPolicy};
use gbj::{Database, Value};

/// An outer aggregate over an aggregated view: the forward rewrite
/// refuses (derived relation), the query still runs correctly.
#[test]
fn aggregate_over_aggregated_view() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Sales (Id INTEGER PRIMARY KEY, Region VARCHAR(5), \
             Store INTEGER, Amount INTEGER); \
         INSERT INTO Sales VALUES \
             (1,'EU',1,10),(2,'EU',1,20),(3,'EU',2,5),(4,'US',3,7),(5,'US',3,3); \
         CREATE VIEW StoreTotals (Region, Store, Total) AS \
             SELECT Region, Store, SUM(Amount) FROM Sales GROUP BY Region, Store;",
    )
    .unwrap();
    // Average store total per region: nested aggregation.
    let (rows, _, report) = db
        .query_report(
            "SELECT V.Region, COUNT(*), MAX(V.Total) \
             FROM StoreTotals V GROUP BY V.Region ORDER BY Region",
        )
        .unwrap();
    assert_eq!(report.choice, PlanChoice::Lazy);
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows.rows[0],
        vec![Value::str("EU"), Value::Int(2), Value::Int(30)]
    );
    assert_eq!(
        rows.rows[1],
        vec![Value::str("US"), Value::Int(1), Value::Int(10)]
    );
}

/// Self-join with the transformation: employees joined to their
/// managers, counting direct reports per manager.
#[test]
fn self_join_grouped_query_transforms() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, Name VARCHAR(10), \
             ManagerID INTEGER); \
         INSERT INTO Emp VALUES (1, 'root', NULL), (2, 'a', 1), (3, 'b', 1), \
             (4, 'c', 2), (5, 'd', 2), (6, 'e', 2);",
    )
    .unwrap();
    let sql = "SELECT M.EmpID, M.Name, COUNT(E.EmpID) \
               FROM Emp E, Emp M \
               WHERE E.ManagerID = M.EmpID \
               GROUP BY M.EmpID, M.Name";
    db.options_mut().policy = PushdownPolicy::Always;
    let report = db.plan_query(sql).unwrap();
    assert_eq!(
        report.choice,
        PlanChoice::Eager,
        "self-join with key grouping is transformable: {}",
        report.reason
    );
    let eager = db.query(sql).unwrap();
    db.options_mut().policy = PushdownPolicy::Never;
    let lazy = db.query(sql).unwrap();
    assert!(eager.multiset_eq(&lazy));
    let sorted = lazy.sorted();
    assert_eq!(
        sorted.rows[0],
        vec![Value::Int(1), Value::str("root"), Value::Int(2)]
    );
    assert_eq!(
        sorted.rows[1],
        vec![Value::Int(2), Value::str("a"), Value::Int(3)]
    );
}

/// Duplicate GROUP BY columns are legal SQL and must not break the
/// binder, the transformation, or the executor.
#[test]
fn duplicate_group_by_columns() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE T (a INTEGER PRIMARY KEY, g INTEGER); \
         INSERT INTO T VALUES (1, 5), (2, 5), (3, 6);",
    )
    .unwrap();
    let rows = db
        .query("SELECT g, COUNT(*) FROM T GROUP BY g, g ORDER BY g")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.rows[0], vec![Value::Int(5), Value::Int(2)]);
}

/// A view of a *filtered* self-join used through the reverse path
/// still answers consistently under both policies.
#[test]
fn view_over_self_join() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, Name VARCHAR(10), \
             ManagerID INTEGER); \
         INSERT INTO Emp VALUES (1, 'root', NULL), (2, 'a', 1), (3, 'b', 1), \
             (4, 'c', 2); \
         CREATE VIEW Reports (ManagerID, Cnt) AS \
             SELECT E.ManagerID, COUNT(E.EmpID) FROM Emp E \
             WHERE E.ManagerID IS NOT NULL GROUP BY E.ManagerID;",
    )
    .unwrap();
    let sql = "SELECT M.Name, V.Cnt FROM Reports V, Emp M WHERE V.ManagerID = M.EmpID";
    let mut results = Vec::new();
    for policy in [
        PushdownPolicy::CostBased,
        PushdownPolicy::Always,
        PushdownPolicy::Never,
    ] {
        db.options_mut().policy = policy;
        results.push(db.query(sql).unwrap());
    }
    assert!(results[0].multiset_eq(&results[1]));
    assert!(results[0].multiset_eq(&results[2]));
    assert_eq!(results[0].len(), 2);
}

/// Reverse transformation with a constant predicate on a *view output*
/// column: `I.Machine = 'dragon'` must map through the view onto the
/// underlying column and land in the merged query's predicate.
#[test]
fn reverse_with_constant_on_view_output() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE UserAccount (UserId INTEGER, Machine VARCHAR(20), \
             UserName VARCHAR(20) NOT NULL, PRIMARY KEY (UserId, Machine)); \
         CREATE TABLE PrinterAuth (UserId INTEGER, Machine VARCHAR(20), \
             PNo INTEGER, Usage INTEGER, PRIMARY KEY (UserId, Machine, PNo)); \
         INSERT INTO UserAccount VALUES (1, 'dragon', 'ann'), (1, 'tiger', 'ann2'), \
             (2, 'dragon', 'bob'); \
         INSERT INTO PrinterAuth VALUES (1, 'dragon', 7, 10), (1, 'dragon', 8, 20), \
             (1, 'tiger', 7, 99), (2, 'dragon', 7, 5); \
         CREATE VIEW Totals (UserId, Machine, Tot) AS \
             SELECT A.UserId, A.Machine, SUM(A.Usage) FROM PrinterAuth A \
             GROUP BY A.UserId, A.Machine;",
    )
    .unwrap();
    let sql = "SELECT I.UserId, U.UserName, I.Tot \
               FROM Totals I, UserAccount U \
               WHERE I.UserId = U.UserId AND I.Machine = U.Machine \
                 AND I.Machine = 'dragon'";
    // Unfolded (lazy) plan: the constant must appear over PrinterAuth.
    db.options_mut().policy = PushdownPolicy::Never;
    let report = db.plan_query(sql).unwrap();
    assert_eq!(report.choice, PlanChoice::Unfolded);
    let tree = report.plan.display_tree();
    assert!(
        tree.contains("A.Machine = 'dragon'"),
        "constant mapped through the view:\n{tree}"
    );
    let unfolded = db.query(sql).unwrap();
    db.options_mut().policy = PushdownPolicy::Always;
    let written = db.query(sql).unwrap();
    assert!(unfolded.multiset_eq(&written));
    let sorted = unfolded.sorted();
    assert_eq!(sorted.len(), 2, "dragon users only");
    assert_eq!(
        sorted.rows[0],
        vec![Value::Int(1), Value::str("ann"), Value::Int(30)]
    );
    assert_eq!(
        sorted.rows[1],
        vec![Value::Int(2), Value::str("bob"), Value::Int(5)]
    );
}

/// The distributed cost model can flip the decision: a rewrite the
/// local model declines becomes worthwhile once shipping rows
/// dominates.
#[test]
fn distributed_cost_model_changes_the_decision() {
    use gbj::optimizer::CostModel;
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (K INTEGER PRIMARY KEY, T VARCHAR(5)); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, K INTEGER, V INTEGER);",
    )
    .unwrap();
    // Moderate fan-in (4): locally borderline-lazy under the default
    // constants once the join is selective, but a big shipping win.
    for k in 0..50 {
        db.execute(&format!("INSERT INTO D VALUES ({k}, 't')"))
            .unwrap();
    }
    let rows: Vec<Vec<Value>> = (0..2000)
        .map(|i| {
            // Only a quarter of the fact rows match D.
            let key = if i % 4 == 0 {
                i % 50
            } else {
                1000 + (i % 1500)
            };
            vec![Value::Int(i), Value::Int(key), Value::Int(i % 7)]
        })
        .collect();
    db.insert_rows("F", rows).unwrap();
    let sql = "SELECT D.K, SUM(F.V) FROM F, D WHERE F.K = D.K GROUP BY D.K";

    let local_choice = db.plan_query(sql).unwrap().choice;
    db.options_mut().cost_model = CostModel::distributed();
    let dist_choice = db.plan_query(sql).unwrap().choice;
    // Distributed must like eager at least as much as local does.
    if local_choice == PlanChoice::Eager {
        assert_eq!(dist_choice, PlanChoice::Eager);
    } else {
        assert_eq!(
            dist_choice,
            PlanChoice::Eager,
            "shipping 2000 rows vs ~1550 groups … the model weighs network 50x"
        );
    }
}
