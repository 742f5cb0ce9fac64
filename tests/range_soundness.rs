//! Small-scope soundness of the range pass, judged by running the query.
//!
//! The scope is every one-column table `T (c ...)` with an `INTEGER`,
//! `FLOAT` or `VARCHAR` column, nullable or not, with or without `CHECK
//! (c >= 0 AND c <= 10)` on the numeric ones, holding up to three
//! distinct values, or one value twice, drawn from {NULL, −1, 0, 5, 5.5,
//! 6, NaN, `'a'`, `'b'`} as the type and the constraints allow. Its
//! predicates are `c op lit` with each literal of {5, 5.5, 6, −1, `'a'`}
//! on either side, `NOT (c op lit)`, `c IS [NOT] NULL` and `c = c`, and
//! `AND`s of two of those; each is queried as `SELECT c ... WHERE p` and
//! under `GROUP BY c`. Every single predicate runs on every table. `lit
//! op c` and `NOT (c op lit)` lower to the tree of some `c op' lit`, so
//! the pairs are taken over the predicates with distinct lowerings, in
//! both orders (a conjunct is judged on the domains the one before it
//! left), and dealt out over the tables of each schema in turn.
//!
//! For both seed sets the engine prices with — the catalog's alone, and
//! the catalog's met with the observed statistics — whatever the pass
//! proves must hold of the rows that flowed:
//!
//! * a predicate proven never true (GBJ601) keeps no row;
//! * a predicate proven never false (GBJ602) keeps every row;
//! * every kept value lies inside the column's domain at the root — its
//!   nullability, interval, value set and NDV bound — NaN excepted,
//!   which no interval describes and no comparison keeps;
//! * at every node the proven cardinality bound is at least the rows
//!   that flowed.
//!
//! A one-table query's plan does not depend on the rows, so each text
//! is planned once per schema and run against every table by the
//! engine's executor, under the engine's execution options.

use std::collections::BTreeSet;

use gbj::analyze::{analyze_plan, Code, ColumnDomain, Nullability, SeedDomains};
use gbj::engine::audit_nodes;
use gbj::engine::database::bound_tree;
use gbj::exec::Executor;
use gbj::plan::LogicalPlan;
use gbj::types::ColumnRef;
use gbj::{Database, Value};

mod common;

const LITERALS: [&str; 5] = ["5", "5.5", "6", "-1", "'a'"];

const OPERATORS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// One column type of the scope: its SQL name, the values a row may
/// hold, and whether the numeric literals (else the string one) compare
/// with it.
struct Kind {
    sql: &'static str,
    values: &'static [&'static str],
    numeric: bool,
}

const KINDS: [Kind; 3] = [
    Kind {
        sql: "INTEGER",
        values: &["NULL", "-1", "0", "5", "6"],
        numeric: true,
    },
    Kind {
        sql: "FLOAT",
        values: &["NULL", "-1", "0", "5", "5.5", "6", "0.0 / 0.0"],
        numeric: true,
    },
    Kind {
        sql: "VARCHAR(4)",
        values: &["NULL", "'a'", "'b'"],
        numeric: false,
    },
];

/// The single predicates of the grammar that type-check against `kind`:
/// those with distinct lowerings first — `c IS [NOT] NULL`, `c = c`,
/// `c op lit` — then the `lit op c` / `NOT (c op lit)` spellings. The
/// count of the first kind is returned beside them.
fn atoms(kind: &Kind) -> (Vec<String>, usize) {
    let mut atoms = vec![
        "T.c IS NULL".to_string(),
        "T.c IS NOT NULL".to_string(),
        "T.c = T.c".to_string(),
    ];
    let literals: Vec<&str> = LITERALS
        .into_iter()
        .filter(|lit| lit.starts_with('\'') != kind.numeric)
        .collect();
    let spelled = |spell: fn(&str, &str) -> String| {
        let literals = &literals;
        literals
            .iter()
            .flat_map(move |lit| OPERATORS.map(|op| spell(op, lit)))
    };
    atoms.extend(spelled(|op, lit| format!("T.c {op} {lit}")));
    let distinct = atoms.len();
    atoms.extend(spelled(|op, lit| format!("{lit} {op} T.c")));
    atoms.extend(spelled(|op, lit| format!("NOT (T.c {op} {lit})")));
    (atoms, distinct)
}

/// The tables of a value set: empty, up to three distinct values, or
/// one value twice.
fn instances(values: &[&'static str]) -> Vec<Vec<&'static str>> {
    let mut out = vec![vec![]];
    for (i, a) in values.iter().enumerate() {
        out.extend([vec![*a], vec![*a, *a]]);
        for (j, b) in values.iter().enumerate().skip(i + 1) {
            out.push(vec![*a, *b]);
            out.extend(values.iter().skip(j + 1).map(|c| vec![*a, *b, *c]));
        }
    }
    out
}

/// One table of the scope, loaded, with the two seed sets priced from it.
struct Table {
    db: Database,
    rows: usize,
    seeds: [SeedDomains; 2],
    ctx: String,
}

impl Table {
    fn new(ddl: &str, rows: &[&str]) -> Table {
        let mut db = Database::new();
        db.execute(ddl).expect("ddl");
        for v in rows {
            db.execute(&format!("INSERT INTO T VALUES ({v})"))
                .unwrap_or_else(|e| panic!("{ddl}: {v}: {e}"));
        }
        let seeds = [
            common::price_seeds(&db, false),
            common::price_seeds(&db, true),
        ];
        let ctx = format!("{ddl} holding {rows:?}");
        Table {
            db,
            rows: rows.len(),
            seeds,
            ctx,
        }
    }

    /// Run `plan` (of `sql`) and hold every fact the pass proves about
    /// it against what ran.
    fn check(&self, sql: &str, plan: &LogicalPlan) {
        let executor = Executor::with_options(self.db.storage(), self.db.options().exec);
        let (result, profile, _) = executor
            .execute_metered(plan)
            .unwrap_or_else(|e| panic!("{}: {sql}: {e}", self.ctx));
        let schema = plan.schema().expect("plan schema");
        let kept: Vec<&Value> = result.rows.iter().map(|r| &r[0]).collect();
        let grouped = sql.contains("GROUP BY");
        for (seeds, observed) in self.seeds.iter().zip([false, true]) {
            let at = format!("{}, observed seeds {observed}: {sql}", self.ctx);
            let analysis = analyze_plan(plan, seeds);
            let codes = analysis.report.codes();
            if codes.contains(&Code::AlwaysFalsePredicate) {
                assert!(kept.is_empty(), "{at}: GBJ601, yet {kept:?} kept");
            }
            if codes.contains(&Code::TautologicalPredicate) && !grouped {
                assert_eq!(kept.len(), self.rows, "{at}: GBJ602, yet a row was dropped");
            }
            let dom = analysis
                .root
                .domain_of(&schema, &ColumnRef::qualified("T", "c"))
                .unwrap_or_else(|| panic!("{at}: no domain for T.c"));
            for v in &kept {
                assert!(admits(dom, v), "{at}: {v:?} kept outside {}", dom.render());
            }
            let distinct: BTreeSet<String> = kept
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| v.to_string())
                .collect();
            assert!(
                dom.ndv.is_none_or(|n| distinct.len() as f64 <= n),
                "{at}: {distinct:?} kept, beyond {}",
                dom.render()
            );
            let bounds = bound_tree(plan, &analysis.root, self.db.storage());
            for a in audit_nodes(&bounds, &profile) {
                assert!(
                    a.estimated >= a.actual as f64,
                    "{at}: {} is bounded by {} but {} rows flowed",
                    a.label,
                    a.estimated,
                    a.actual
                );
            }
        }
    }
}

/// Whether a kept value lies inside `dom`. NaN lies in no interval and
/// is admitted: only a comparison could keep it out, and none keeps it.
fn admits(dom: &ColumnDomain, v: &Value) -> bool {
    match v {
        Value::Null => dom.nullability != Nullability::Never,
        _ if dom.nullability == Nullability::Always => false,
        Value::Float(f) if f.is_nan() => true,
        Value::Int(i) => dom.interval.is_none_or(|iv| iv.contains(*i as f64)),
        Value::Float(f) => dom.interval.is_none_or(|iv| iv.contains(*f)),
        Value::Str(s) => dom.values.as_ref().is_none_or(|set| set.contains(s)),
        Value::Bool(_) => true,
    }
}

/// The two query texts of a predicate, each with the plan `db` runs it
/// by.
fn plans(db: &Database, predicate: &str) -> [(String, LogicalPlan); 2] {
    [
        format!("SELECT T.c FROM T WHERE {predicate}"),
        format!("SELECT T.c, COUNT(*) FROM T WHERE {predicate} GROUP BY T.c"),
    ]
    .map(|sql| {
        let report = db.plan_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        (sql, report.plan)
    })
}

/// Every schema of `kind`'s column: every single predicate on every
/// table, and each ordered pair of distinct lowerings on one table.
fn check_kind(kind: &Kind) {
    let (atoms, distinct) = atoms(kind);
    for nullable in [true, false] {
        for check in [false, kind.numeric] {
            let ddl = format!(
                "CREATE TABLE T (c {}{}{})",
                kind.sql,
                if nullable { "" } else { " NOT NULL" },
                if check {
                    " CHECK (c >= 0 AND c <= 10)"
                } else {
                    ""
                },
            );
            let values: Vec<&str> = kind
                .values
                .iter()
                .copied()
                .filter(|v| nullable || *v != "NULL")
                .filter(|v| !check || *v != "-1")
                .collect();
            let tables: Vec<Table> = instances(&values)
                .iter()
                .map(|rows| Table::new(&ddl, rows))
                .collect();
            // The plan's shape depends on neither its price nor a
            // re-check of a rewrite (a one-table query has none).
            let mut planner = tables[0].db.fork();
            planner.options_mut().clamp_estimates = false;
            planner.options_mut().verify_rewrites = false;
            for atom in &atoms {
                for (sql, plan) in plans(&planner, atom) {
                    tables.iter().for_each(|table| table.check(&sql, &plan));
                }
            }
            let lowerings = &atoms[..distinct];
            let pairs = lowerings.iter().flat_map(|a| {
                lowerings
                    .iter()
                    .filter(move |b| *b != a)
                    .map(move |b| (a, b))
            });
            for (n, (a, b)) in pairs.enumerate() {
                let table = &tables[n % tables.len()];
                for (sql, plan) in plans(&planner, &format!("{a} AND {b}")) {
                    table.check(&sql, &plan);
                }
            }
        }
    }
}

#[test]
fn integer_columns() {
    check_kind(&KINDS[0]);
}

#[test]
fn float_columns() {
    check_kind(&KINDS[1]);
}

#[test]
fn varchar_columns() {
    check_kind(&KINDS[2]);
}
