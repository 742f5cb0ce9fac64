//! Integration tests pinning the paper's worked examples and figures:
//! exact operator cardinalities for Figures 1 and 8, the Example 3
//! TestFD trace, the Example 5 view equivalence, and Theorem 2's
//! DISTINCT / subset-projection generalisation.

use gbj::datagen::{AdversarialConfig, EmpDeptConfig, PrinterConfig};
use gbj::engine::{PlanChoice, PushdownPolicy};
use gbj::Database;

mod common;

/// Figure 1 at 1/10 scale (the shape is scale-free; the full scale runs
/// in the benches): lazy joins every employee row, eager joins one row
/// per department.
#[test]
fn figure1_plan_cardinalities() {
    let cfg = EmpDeptConfig {
        employees: 1000,
        departments: 10,
        null_dept_fraction: 0.0,
        seed: 1,
    };
    let mut db = cfg.build().unwrap();

    db.options_mut().policy = PushdownPolicy::Never;
    let (rows, profile, _) = db.query_report(cfg.query()).unwrap();
    assert_eq!(rows.len(), 10);
    let join = common::find_join(&profile).unwrap();
    assert_eq!(join.rows_out, 1000, "lazy join emits every employee");
    let agg = common::find_agg(&profile).unwrap();
    assert_eq!(agg.rows_in(), 1000);
    assert_eq!(agg.rows_out, 10);

    db.options_mut().policy = PushdownPolicy::Always;
    let (rows2, profile, _) = db.query_report(cfg.query()).unwrap();
    assert!(rows.multiset_eq(&rows2));
    let agg = common::find_agg(&profile).unwrap();
    assert_eq!(agg.rows_out, 10, "eager groups first");
    let join = common::find_join(&profile).unwrap();
    assert_eq!(join.rows_out, 10, "eager join emits one row per group");
    assert!(
        join.rows_in() <= 10 + 10 + 1,
        "eager join inputs are two 10-row sides (plus alias nodes)"
    );
}

/// Figure 8's exact numbers at paper scale: join output 50 from
/// 10000×100, lazy grouping sees 50 rows → 10 groups, eager grouping
/// makes ~9000 groups out of 10000 rows.
#[test]
fn figure8_counterexample_cardinalities() {
    let cfg = AdversarialConfig::paper();
    let mut db = cfg.build().unwrap();

    db.options_mut().policy = PushdownPolicy::Never;
    let (rows, profile, _) = db.query_report(cfg.query()).unwrap();
    assert_eq!(rows.len(), 10);
    let join = common::find_join(&profile).unwrap();
    assert_eq!(join.rows_out, 50, "the paper's 50-row join result");
    let agg = common::find_agg(&profile).unwrap();
    assert_eq!(agg.rows_in(), 50);
    assert_eq!(agg.rows_out, 10);

    db.options_mut().policy = PushdownPolicy::Always;
    let (rows2, profile, _) = db.query_report(cfg.query()).unwrap();
    assert!(rows.multiset_eq(&rows2));
    let agg = common::find_agg(&profile).unwrap();
    assert_eq!(agg.rows_in(), 10_000, "eager grouping sees all of A");
    assert_eq!(agg.rows_out, 9_000, "the paper's 9000 groups");

    // The engine's own (cost-based) decision is the lazy plan.
    db.options_mut().policy = PushdownPolicy::CostBased;
    let report = db.plan_query(cfg.query()).unwrap();
    assert_eq!(report.choice, PlanChoice::Lazy);
}

/// Example 3: the TestFD trace contains the paper's intermediate sets —
/// the seed {U.UserId, U.UserName}, the constant step adding U.Machine,
/// and the closure covering A.UserId and A.Machine (GA1+).
#[test]
fn example3_testfd_trace_matches_paper() {
    let cfg = PrinterConfig {
        users_per_machine: 5,
        machines: 2,
        printers: 4,
        auths_per_user: 2,
        seed: 9,
    };
    let db = cfg.build().unwrap();
    let report = db.plan_query(cfg.example3_query()).unwrap();
    // The rewrite is proved valid regardless of which plan the cost
    // model then picks at this tiny scale.
    let partition = report.partition.expect("partition formed");
    assert!(partition.contains("R1 = {A, P}"), "{partition}");
    assert!(partition.contains("R2 = {U}"), "{partition}");
    assert!(
        partition.contains("GA1+ = {A.Machine, A.UserId}"),
        "{partition}"
    );
    let trace = report.testfd.expect("TestFD ran");
    assert!(trace.contains("seed: {U.UserId, U.UserName}"), "{trace}");
    assert!(trace.contains("U.Machine = 'dragon'"), "{trace}");
    assert!(trace.contains("key of U in S: yes"), "{trace}");
    assert!(trace.contains("GA1+ in S: yes"), "{trace}");
    assert!(trace.contains("answer: YES"), "{trace}");
}

/// Example 3's *rewritten* SQL shape (Section 6.3): R1' groups
/// PrinterAuth ⨝ Printer by (UserId, Machine), and the outer query joins
/// it with UserAccount.
#[test]
fn example3_rewritten_plan_shape() {
    let cfg = PrinterConfig {
        users_per_machine: 5,
        machines: 2,
        printers: 4,
        auths_per_user: 2,
        seed: 9,
    };
    let mut db = cfg.build().unwrap();
    db.options_mut().policy = PushdownPolicy::Always;
    let report = db.plan_query(cfg.example3_query()).unwrap();
    assert_eq!(report.choice, PlanChoice::Eager);
    let tree = report.plan.display_tree();
    assert!(
        tree.contains("Aggregate groupBy=[A.Machine, A.UserId]"),
        "inner grouping on GA1+:\n{tree}"
    );
    // The aggregate sits below the join with UserAccount.
    let agg_pos = tree.find("Aggregate").unwrap();
    let ua_join = tree.find("Scan UserAccount").unwrap();
    assert!(agg_pos > tree.find("Join on").unwrap());
    let _ = ua_join;
}

/// Example 5 / Section 8: the aggregated-view query equals the direct
/// query; the engine offers both directions.
#[test]
fn example5_reverse_transformation() {
    let cfg = PrinterConfig {
        users_per_machine: 10,
        machines: 3,
        printers: 6,
        auths_per_user: 3,
        seed: 5,
    };
    let mut db = cfg.build().unwrap();
    let direct = db.query(cfg.example3_query()).unwrap();
    let viewed = db.query(cfg.example5_query()).unwrap();
    assert!(direct.multiset_eq(&viewed));

    // Forcing the lazy side unfolds the view into a join-then-group
    // plan: the final aggregate sits above the three-table join.
    db.options_mut().policy = PushdownPolicy::Never;
    let report = db.plan_query(cfg.example5_query()).unwrap();
    assert_eq!(report.choice, PlanChoice::Unfolded);
    let tree = report.plan.display_tree();
    assert!(tree.contains("Scan UserAccount"), "{tree}");
    assert!(tree.contains("Scan PrinterAuth"), "{tree}");
    let unfolded = db.query(cfg.example5_query()).unwrap();
    assert!(unfolded.multiset_eq(&direct));
}

/// Theorem 2: the conditions remain sufficient when the select list is
/// a strict subset of the grouping columns and when DISTINCT is used.
#[test]
fn theorem2_subset_and_distinct_projections() {
    let cfg = EmpDeptConfig {
        employees: 300,
        departments: 6,
        null_dept_fraction: 0.05,
        seed: 4,
    };
    let mut db = cfg.build().unwrap();
    for sql in [
        // Subset projection: Name only (grouped by DeptID, Name).
        "SELECT D.Name, COUNT(E.EmpID) FROM Employee E, Department D \
         WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
        // DISTINCT projection of the subset.
        "SELECT DISTINCT D.Name, COUNT(E.EmpID) FROM Employee E, Department D \
         WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
    ] {
        db.options_mut().policy = PushdownPolicy::Always;
        let report = db.plan_query(sql).unwrap();
        assert_eq!(report.choice, PlanChoice::Eager, "{sql}");
        let eager = db.query(sql).unwrap();
        db.options_mut().policy = PushdownPolicy::Never;
        let lazy = db.query(sql).unwrap();
        assert!(eager.multiset_eq(&lazy), "{sql}");
    }
}

/// The degenerate Main-Theorem cases (GA1+ or GA2+ empty — Cartesian
/// products) are refused, per DESIGN.md.
#[test]
fn degenerate_cartesian_cases_run_lazily() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE L (a INTEGER PRIMARY KEY, v INTEGER); \
         CREATE TABLE R (b INTEGER PRIMARY KEY, w INTEGER); \
         INSERT INTO L VALUES (1, 10), (2, 20); \
         INSERT INTO R VALUES (7, 70), (8, 80);",
    )
    .unwrap();
    // Cartesian product grouped by R's key, aggregating L: GA1+ = ∅.
    let sql = "SELECT R.b, SUM(L.v) FROM L, R GROUP BY R.b";
    let report = db.plan_query(sql).unwrap();
    assert_eq!(report.choice, PlanChoice::Lazy);
    assert!(report.reason.contains("GA1+"), "{}", report.reason);
    let rows = db.query(sql).unwrap();
    assert_eq!(rows.len(), 2);
    // Each group sums all of L: 30.
    assert_eq!(rows.rows[0][1], gbj::Value::Int(30));
}

/// Grouping by a non-key of R2 — the canonical *invalid* case — is
/// never rewritten, and the (lazy) answer demonstrates why: two
/// departments sharing a name are one group.
#[test]
fn invalid_case_duplicate_group_values_in_r2() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30)); \
         CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, DeptID INTEGER); \
         INSERT INTO Department VALUES (1, 'Eng'), (2, 'Eng'), (3, 'Ops'); \
         INSERT INTO Employee VALUES (1, 1), (2, 1), (3, 2), (4, 3);",
    )
    .unwrap();
    let sql = "SELECT D.Name, COUNT(E.EmpID) FROM Employee E, Department D \
               WHERE E.DeptID = D.DeptID GROUP BY D.Name ORDER BY Name";
    let report = db.plan_query(sql).unwrap();
    assert_eq!(report.choice, PlanChoice::Lazy);
    let rows = db.query(sql).unwrap();
    assert_eq!(rows.len(), 2);
    // 'Eng' merges departments 1 and 2: 3 employees.
    assert_eq!(rows.rows[0][1], gbj::Value::Int(3));
    assert_eq!(rows.rows[1][1], gbj::Value::Int(1));
}
