//! Property-based validation of the Main Theorem (experiment X12):
//! on randomly generated instances and a family of grouped join
//! queries, whenever the engine's `TestFD` proves the transformation
//! valid, the lazy (`E1`) and eager (`E2`) plans must return identical
//! multisets — including instances with NULLs, duplicates, empty
//! tables, and dangling join keys.
//!
//! Offline build note: proptest is unavailable, so instances are drawn
//! from the local deterministic `rand` shim in a seeded loop; failure
//! messages carry the case number so any instance replays exactly.

use std::collections::BTreeSet;
use std::num::NonZeroUsize;

use gbj::engine::{PlanChoice, PushdownPolicy};
use gbj::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

/// A randomly generated Fact/Dim instance.
#[derive(Debug, Clone)]
struct Instance {
    dims: Vec<(i64, String)>,
    facts: Vec<(Option<i64>, Option<i64>)>, // (join key, value)
}

fn random_instance(rng: &mut StdRng) -> Instance {
    let n_dims = rng.gen_range(0usize..8);
    let mut keys = BTreeSet::new();
    for _ in 0..n_dims {
        keys.insert(rng.gen_range(0i64..12));
    }
    let cats = ["a", "b", "c"];
    let dims = keys
        .into_iter()
        .map(|k| (k, cats[rng.gen_range(0usize..cats.len())].to_string()))
        .collect();
    let n_facts = rng.gen_range(0usize..40);
    let facts = (0..n_facts)
        .map(|_| {
            let k = rng.gen_bool(0.85).then(|| rng.gen_range(0i64..15));
            let v = rng.gen_bool(0.85).then(|| rng.gen_range(-5i64..20));
            (k, v)
        })
        .collect();
    Instance { dims, facts }
}

fn build_db(inst: &Instance) -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(5) NOT NULL); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);",
    )
    .unwrap();
    db.insert_rows(
        "Dim",
        inst.dims
            .iter()
            .map(|(k, c)| vec![Value::Int(*k), Value::Str(c.clone())]),
    )
    .unwrap();
    db.insert_rows(
        "Fact",
        inst.facts.iter().enumerate().map(|(i, (k, v))| {
            vec![
                Value::Int(i as i64),
                k.map_or(Value::Null, Value::Int),
                v.map_or(Value::Null, Value::Int),
            ]
        }),
    )
    .unwrap();
    db
}

/// The query family exercised (all in the paper's class).
const QUERIES: &[&str] = &[
    "SELECT D.DimId, COUNT(F.FId) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId",
    "SELECT D.DimId, D.Cat, SUM(F.V), MIN(F.V), MAX(F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat",
    "SELECT D.DimId, COUNT(*) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId",
    "SELECT D.DimId, AVG(F.V), COUNT(DISTINCT F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId",
    // Local predicates on both sides.
    "SELECT D.DimId, SUM(F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId AND F.V > 0 AND D.Cat = 'a' GROUP BY D.DimId",
    // DISTINCT projection (Theorem 2).
    "SELECT DISTINCT D.Cat, COUNT(F.FId) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat",
    // Subset projection (Theorem 2).
    "SELECT D.Cat, SUM(F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat",
    // Constant pinning the group (degenerate-ish but valid).
    "SELECT D.DimId, COUNT(F.FId) FROM Fact F, Dim D \
     WHERE F.K = D.DimId AND D.DimId = 3 GROUP BY D.DimId",
];

/// `sql` on the oracle — asserted to be — under `db`'s current policy.
fn oracle(db: &mut Database, sql: &str) -> gbj::exec::ResultSet {
    common::as_oracle(db, |db| common::oracle_query(db, sql).unwrap())
}

/// Whenever TestFD answers YES, E1 ≡ E2 on the generated instance: E2
/// on the engine as configured against E1 on the oracle.
#[test]
fn main_theorem_equivalence() {
    let mut rng = StdRng::seed_from_u64(0xe9_5eed);
    for case in 0..64 {
        let inst = random_instance(&mut rng);
        let mut db = build_db(&inst);
        for sql in QUERIES {
            db.options_mut().policy = PushdownPolicy::Always;
            let report = db.plan_query(sql).unwrap();
            let eager_valid = report.choice == PlanChoice::Eager;
            let eager = db.query(sql).unwrap();

            db.options_mut().policy = PushdownPolicy::Never;
            let lazy = oracle(&mut db, sql);

            if eager_valid {
                assert!(
                    lazy.multiset_eq(&eager),
                    "case {case}: E1 != E2 for {sql}\nlazy:\n{lazy}\neager:\n{eager}\ninstance: {inst:?}"
                );
            } else {
                // Both policies must still agree (both ran lazily).
                assert!(lazy.multiset_eq(&eager), "case {case}: {sql}");
            }
        }
    }
}

/// The pipeline and the oracle agree on every generated instance: each
/// text of the family, run on the pipeline at one part and over four,
/// takes that path and returns the oracle's rows and counter
/// fingerprint.
#[test]
fn physical_algorithms_agree() {
    let mut rng = StdRng::seed_from_u64(0xa190_5eed);
    for case in 0..64 {
        let inst = random_instance(&mut rng);
        let mut db = build_db(&inst);
        for sql in QUERIES {
            let (reference, fingerprint) = common::as_oracle(&mut db, |db| {
                let rows = common::oracle_query(db, sql).unwrap();
                let metrics = db.last_query_metrics().expect("metrics recorded");
                (rows, metrics.profile.counter_fingerprint())
            });
            for (parts, path) in [(1, "batch"), (4, "sharded(4)")] {
                db.set_vectorized(true);
                db.set_shards(NonZeroUsize::new(parts).unwrap());
                let got = db.query(sql).unwrap();
                let metrics = db.last_query_metrics().expect("metrics recorded");
                let ctx = format!("case {case} parts {parts}: {sql}\ninstance: {inst:?}");
                assert_eq!(metrics.path.to_string(), path, "{ctx}");
                common::assert_same_rows(&reference, &got, &ctx);
                assert_eq!(metrics.profile.counter_fingerprint(), fingerprint, "{ctx}");
            }
        }
    }
}

/// NULL-heavy group keys under `=ⁿ`: an all-NULL grouping column and an
/// alternating NULL/value column (worst case for validity bitmaps) must
/// group identically on the row and the vectorized path, for both
/// pushdown policies — NULLs form one `=ⁿ` group, and a NULL join key
/// never matches.
#[test]
fn null_heavy_group_keys_agree_between_row_and_vectorized() {
    // Fact.K patterns: all NULL, and alternating NULL / value.
    let patterns: [&dyn Fn(i64) -> Option<i64>; 2] =
        [&|_| None, &|i| (i % 2 == 0).then_some(i % 5)];
    for (which, key_of) in patterns.iter().enumerate() {
        let inst = Instance {
            dims: (0..5).map(|k| (k, "a".to_string())).collect(),
            facts: (0..40).map(|i| (key_of(i), Some(i % 7 - 3))).collect(),
        };
        let mut db = build_db(&inst);
        for sql in QUERIES {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                db.options_mut().policy = policy;
                let row_engine = oracle(&mut db, sql);
                db.set_vectorized(true);
                let vectorized = db.query(sql).unwrap();
                assert_eq!(
                    common::canon(&vectorized),
                    common::canon(&row_engine),
                    "pattern {which} policy {policy:?}: {sql}"
                );
            }
        }
        // Grouping the NULL-heavy column directly: all-NULL collapses
        // to the single `=ⁿ` NULL group.
        let sql = "SELECT F.K, COUNT(F.FId) FROM Fact F GROUP BY F.K";
        let grouped = db.query(sql).unwrap();
        assert_eq!(
            common::canon(&grouped),
            common::canon(&oracle(&mut db, sql))
        );
        if which == 0 {
            assert_eq!(grouped.len(), 1, "all NULLs form exactly one group");
            assert_eq!(grouped.rows[0], vec![Value::Null, Value::Int(40)]);
        }
    }
}

/// The eager plan's join input never exceeds the lazy plan's
/// (paper §7, first bullet) — measured, not estimated.
#[test]
fn eager_never_increases_join_input() {
    let mut rng = StdRng::seed_from_u64(0x301d_5eed);
    for case in 0..64 {
        let inst = random_instance(&mut rng);
        let mut db = build_db(&inst);
        let sql = QUERIES[0];
        db.options_mut().policy = PushdownPolicy::Always;
        let report = db.plan_query(sql).unwrap();
        if report.choice != PlanChoice::Eager {
            continue;
        }
        let (_, eager_profile, _) = db.query_report(sql).unwrap();
        db.options_mut().policy = PushdownPolicy::Never;
        let (_, lazy_profile, _) = db.query_report(sql).unwrap();
        let join_in =
            |p: &gbj::exec::ProfileNode| common::find_join(p).map(gbj::exec::ProfileNode::rows_in);
        if let (Some(e), Some(l)) = (join_in(&eager_profile), join_in(&lazy_profile)) {
            assert!(e <= l, "case {case}: eager join input {e} > lazy {l}");
        }
    }
}
