//! Hand-built counter-instances for the *necessity* direction of the
//! Main Theorem (Lemmas 2 and 3): when FD1 or FD2 fails in the join
//! result, `E1` and `E2` genuinely differ — so TestFD's refusal is not
//! conservatism, and the engine must keep the lazy plan. Also checks
//! the distinctness lemmas (4 and 5): neither `E1` nor a valid `E2`
//! produces duplicate rows.
//!
//! `E2` is constructed explicitly through an aggregated view (grouping
//! `R1` on `GA1+` first), exactly the expression the theorem compares.

use std::collections::HashSet;

use gbj::engine::PlanChoice;
use gbj::types::GroupKey;
use gbj::{Database, Value};

/// Lemma 2 (necessity of FD1): `(GA1, GA2) → GA1+` fails.
///
/// Query groups by `(F.G, D.H)` while the join runs on `F.A = D.B`, so
/// `GA1+ = {F.A, F.G}`. Two fact rows share `G` but differ on `A`, and
/// both join partners share `H`: `E1` merges them into one group, the
/// eager `E2` keeps them apart — different answers.
#[test]
fn fd1_violation_makes_e1_and_e2_differ() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (B INTEGER PRIMARY KEY, H INTEGER); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, G INTEGER, V INTEGER); \
         INSERT INTO D VALUES (1, 7), (2, 7); \
         INSERT INTO F VALUES (10, 1, 5, 10), (11, 2, 5, 20);",
    )
    .unwrap();

    // E1: one group (G=5, H=7) summing both rows.
    let sql = "SELECT F.G, D.H, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY F.G, D.H";
    let e1 = db.query(sql).unwrap();
    assert_eq!(e1.len(), 1);
    assert_eq!(
        e1.rows[0],
        vec![Value::Int(5), Value::Int(7), Value::Int(30)]
    );

    // The engine must have refused the rewrite (FD1 underivable: the
    // closure of {F.G, D.H} never reaches F.A).
    let report = db.plan_query(sql).unwrap();
    assert_eq!(report.choice, PlanChoice::Lazy);

    // E2, built by hand: group F on GA1+ = (A, G) first, then join.
    db.execute(
        "CREATE VIEW R1P (A, G, S) AS \
         SELECT F.A, F.G, SUM(F.V) FROM F GROUP BY F.A, F.G",
    )
    .unwrap();
    let e2 = db
        .query("SELECT R1P.G, D.H, R1P.S FROM R1P, D WHERE R1P.A = D.B")
        .unwrap();
    assert_eq!(e2.len(), 2, "E2 keeps the two A-groups apart");
    assert!(!e1.multiset_eq(&e2), "Lemma 2: E1 ≠ E2 when FD1 fails");
}

/// Lemma 3 (necessity of FD2): `(GA1+, GA2) → RowID(R2)` fails.
///
/// `R2` has two rows with the same join-key value (`B` is not a key).
/// Grouping by `F.A` alone: `E1` folds both join partners into one
/// group (double-counting), the eager `E2` emits one output row per
/// `R2` partner — different answers.
#[test]
fn fd2_violation_makes_e1_and_e2_differ() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (Id INTEGER PRIMARY KEY, B INTEGER, H INTEGER); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, V INTEGER); \
         INSERT INTO D VALUES (100, 1, 7), (101, 1, 8); \
         INSERT INTO F VALUES (10, 1, 10), (11, 1, 20);",
    )
    .unwrap();

    let sql = "SELECT F.A, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY F.A";
    let e1 = db.query(sql).unwrap();
    // Each fact row joins both D rows: 4 join rows, one group, the sum
    // double-counts — that is E1's (correct SQL) answer.
    assert_eq!(e1.len(), 1);
    assert_eq!(e1.rows[0], vec![Value::Int(1), Value::Int(60)]);

    let report = db.plan_query(sql).unwrap();
    assert_eq!(
        report.choice,
        PlanChoice::Lazy,
        "no key of D is derivable from (GA1+, GA2)"
    );

    // E2 by hand: group F on GA1+ = (A) first, then join.
    db.execute("CREATE VIEW R1P (A, S) AS SELECT F.A, SUM(F.V) FROM F GROUP BY F.A")
        .unwrap();
    let e2 = db
        .query("SELECT R1P.A, R1P.S FROM R1P, D WHERE R1P.A = D.B")
        .unwrap();
    assert_eq!(e2.len(), 2, "one output row per R2 join partner");
    assert_eq!(e2.rows[0], vec![Value::Int(1), Value::Int(30)]);
    assert!(!e1.multiset_eq(&e2), "Lemma 3: E1 ≠ E2 when FD2 fails");
}

/// With a UNIQUE constraint making a NOT NULL `B` a candidate key, the
/// same query becomes valid — the minimal change flipping Lemma 3's
/// counterexample into a theorem instance. Over a nullable `B` the
/// UNIQUE is no key and the rewrite stays refused (conservatively here:
/// the join rejects a NULL `B`; ROADMAP item 10).
#[test]
fn restoring_the_key_restores_validity() {
    let sql = "SELECT F.A, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY F.A";
    for (b, certified) in [
        ("B INTEGER NOT NULL UNIQUE", true),
        ("B INTEGER UNIQUE", false),
    ] {
        let mut db = Database::new();
        db.run_script(&format!(
            "CREATE TABLE D (Id INTEGER PRIMARY KEY, {b}, H INTEGER); \
             CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, V INTEGER); \
             INSERT INTO D VALUES (100, 1, 7), (101, 2, 8); \
             INSERT INTO F VALUES (10, 1, 10), (11, 1, 20);"
        ))
        .unwrap();
        db.options_mut().policy = gbj::engine::PushdownPolicy::Always;
        let report = db.plan_query(sql).unwrap();
        if certified {
            assert_eq!(report.choice, PlanChoice::Eager, "UNIQUE(B) restores FD2");
        } else {
            assert_eq!(
                report.choice,
                PlanChoice::Lazy,
                "a nullable UNIQUE is no key"
            );
        }
        let eager = db.query(sql).unwrap();
        db.options_mut().policy = gbj::engine::PushdownPolicy::Never;
        let lazy = db.query(sql).unwrap();
        assert!(eager.multiset_eq(&lazy));
    }
}

fn has_duplicates(rows: &[Vec<Value>]) -> bool {
    let mut seen: HashSet<GroupKey> = HashSet::new();
    rows.iter().any(|r| !seen.insert(GroupKey(r.clone())))
}

/// Lemmas 4 and 5: the result of `E1` contains no duplicate rows, and
/// neither does a valid `E2` — even though the projection is an ALL
/// projection.
#[test]
fn distinctness_lemmas_hold() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (B INTEGER PRIMARY KEY, H VARCHAR(5)); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, V INTEGER); \
         INSERT INTO D VALUES (1, 'x'), (2, 'x'), (3, 'y'); \
         INSERT INTO F VALUES (10, 1, 4), (11, 1, 4), (12, 2, 4), (13, 3, 4);",
    )
    .unwrap();
    // Identical aggregate values across groups — the tempting source of
    // duplicates — but grouping keys keep rows distinct.
    let sql = "SELECT D.B, D.H, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY D.B, D.H";
    for policy in [
        gbj::engine::PushdownPolicy::Never,
        gbj::engine::PushdownPolicy::Always,
    ] {
        db.options_mut().policy = policy;
        let rows = db.query(sql).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(
            !has_duplicates(&rows.rows),
            "no duplicates under {policy:?} (Lemmas 4/5)"
        );
    }
}

/// Lemma 1: projecting `R2` down to `GA2+` before the join (column
/// pruning does this automatically) does not change the result — checked
/// by comparing against an explicitly pre-projected view.
#[test]
fn lemma1_projection_is_irrelevant() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE D (B INTEGER PRIMARY KEY, H VARCHAR(5), Junk VARCHAR(20)); \
         CREATE TABLE F (Id INTEGER PRIMARY KEY, A INTEGER, V INTEGER); \
         INSERT INTO D VALUES (1, 'x', 'aaaaaa'), (2, 'y', 'bbbbbb'); \
         INSERT INTO F VALUES (10, 1, 4), (11, 2, 9), (12, 1, 1);",
    )
    .unwrap();
    let full = db
        .query("SELECT D.B, SUM(F.V) FROM F, D WHERE F.A = D.B GROUP BY D.B")
        .unwrap();
    // The same query over a view that pre-projects R2 to GA2+ = {B}.
    db.execute("CREATE VIEW D2 (B) AS SELECT D.B FROM D")
        .unwrap();
    let projected = db
        .query("SELECT D2.B, SUM(F.V) FROM F, D2 WHERE F.A = D2.B GROUP BY D2.B")
        .unwrap();
    assert!(full.multiset_eq(&projected));
}

/// Run `sql` over the instance `script` builds under the lazy, eager
/// and cost-based policies, at one part and at four: every run must
/// refuse the rewrite and return `expected`, the answer of the query
/// as written.
fn assert_written_answer_everywhere(script: &str, sql: &str, expected: &[Vec<Value>]) {
    use gbj::engine::PushdownPolicy;
    for parts in [1, 4] {
        for policy in [
            PushdownPolicy::Always,
            PushdownPolicy::CostBased,
            PushdownPolicy::Never,
        ] {
            let mut db = Database::new();
            db.run_script(script).unwrap();
            db.set_shards(std::num::NonZeroUsize::new(parts).unwrap());
            db.options_mut().policy = policy;
            let mut got = db.query(sql).unwrap().rows;
            got.sort_by_key(|row| format!("{row:?}"));
            assert_eq!(got, expected, "{policy:?} at {parts} parts");
            let report = db.plan_query(sql).unwrap();
            assert_eq!(
                report.choice,
                PlanChoice::Lazy,
                "{policy:?} at {parts} parts: {}",
                report.reason
            );
            assert!(report.certificate.is_none(), "{policy:?} at {parts} parts");
        }
    }
}

/// A nullable UNIQUE is no key: SQL's UNIQUE admits any number of rows
/// with a NULL key, which agree under `=ⁿ` while their RowIDs differ,
/// so FD2 fails. Grouping by `D.U` folds both `D` rows into one NULL
/// group; grouping `F` first and joining would emit one row per `D` row.
const NULLABLE_UNIQUE: &str = "CREATE TABLE D (DId INT, U INT, UNIQUE (U)); \
     CREATE TABLE F (FId INT PRIMARY KEY, DId INT, V INT); \
     INSERT INTO D VALUES (1, NULL), (1, NULL); \
     INSERT INTO F VALUES (1, 1, 10), (2, 1, 5);";

#[test]
fn nullable_unique_is_no_key() {
    assert_written_answer_everywhere(
        NULLABLE_UNIQUE,
        "SELECT D.U, SUM(F.V) FROM F, D WHERE F.DId = D.DId GROUP BY D.U",
        &[vec![Value::Null, Value::Int(30)]],
    );
}

/// The same instance through §8: the view is grouped before the join,
/// so the query as written returns one row per `D` row, and unfolding
/// it into one grouped join would merge them.
#[test]
fn nullable_unique_does_not_unfold_a_view() {
    assert_written_answer_everywhere(
        &format!(
            "{NULLABLE_UNIQUE} \
             CREATE VIEW V (DId, S) AS SELECT F.DId, SUM(F.V) FROM F GROUP BY F.DId;"
        ),
        "SELECT D.U, V.S FROM V, D WHERE V.DId = D.DId",
        &[
            vec![Value::Null, Value::Int(15)],
            vec![Value::Null, Value::Int(15)],
        ],
    );
}

/// A CHECK admits a row on which it is unknown, so `CHECK (G = 1)` on a
/// nullable `G` is no WHERE conjunct: with it, TestFD would read `F.G`
/// as the constant 1 in the disjunct `D.Y = 3`, which nothing in the
/// query makes true of the row with `G` NULL. `G` is declared as `g`,
/// between the statements `before` and `after` the table `F`.
fn assert_nullable_check_is_no_conjunct(before: &str, g: &str, after: &str) {
    assert_written_answer_everywhere(
        &format!(
            "{before} \
             CREATE TABLE F (FId INT PRIMARY KEY, G {g}, V INT); \
             {after} \
             CREATE TABLE D (DId INT PRIMARY KEY, X INT, Y INT); \
             INSERT INTO F VALUES (1, 1, 10), (2, NULL, 5); \
             INSERT INTO D VALUES (1, 7, 3);"
        ),
        "SELECT D.DId, SUM(F.V) FROM F, D WHERE F.G = D.X OR D.Y = 3 GROUP BY D.DId",
        &[vec![Value::Int(1), Value::Int(15)]],
    );
}

#[test]
fn nullable_column_check_is_no_conjunct() {
    assert_nullable_check_is_no_conjunct("", "INT CHECK (G = 1)", "");
}

#[test]
fn nullable_domain_check_is_no_conjunct() {
    assert_nullable_check_is_no_conjunct("CREATE DOMAIN One INT CHECK (VALUE = 1);", "One", "");
}

#[test]
fn nullable_assertion_is_no_conjunct() {
    assert_nullable_check_is_no_conjunct("", "INT", "CREATE ASSERTION g_one CHECK (F.G = 1);");
}
