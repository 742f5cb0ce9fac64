//! Regenerates every figure / experiment table of the paper.
//!
//! ```text
//! cargo run --release -p gbj-bench --bin report            # all experiments
//! cargo run --release -p gbj-bench --bin report -- x1 x8   # a subset
//! cargo run --release -p gbj-bench --bin report -- --json out.json
//! cargo run --release -p gbj-bench --bin report -- ops [--facts N] [--dims N] [--runs N]
//! ```
//!
//! An unknown experiment id, or `--json` without a path, exits with
//! status 2 and lists the known ids. `ops` is the operator probe (see
//! [`ops_probe`]); it is not an experiment, so a run of every
//! experiment leaves it out.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use gbj_bench::{compare, measure, median, ExperimentRow};
use gbj_catalog::{ColumnDef, Constraint, TableDef};
use gbj_datagen::{
    AdversarialConfig, EmpDeptConfig, PartSupplierConfig, PrinterConfig, SweepConfig,
};
use gbj_engine::{Database, PlanChoice, PushdownPolicy};
use gbj_exec::{select, ColumnarBatch, OperatorMetrics, ProfileNode};
use gbj_expr::{BinaryOp, Expr};
use gbj_fd::{Fd, FdContext, FdSet};
use gbj_optimizer::{shape_cost, CardTree, CostModel};
use gbj_plan::LogicalPlan;
use gbj_types::{internal_err, ColumnRef, DataType, Field, Result, Schema, Truth, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Experiment = fn() -> Result<Vec<ExperimentRow>>;

/// Every experiment, in the order a full run prints them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
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
    ("x15", x15_vectorized),
    ("x16", x16_cost_model),
    ("x17", x17_sharding),
];

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Args {
    /// The experiments to run, in [`EXPERIMENTS`] order.
    run: Vec<&'static str>,
    /// Where to write the rows as JSON.
    json: Option<String>,
}

/// Parse the arguments after the program name: experiment ids (any
/// case; none means all) and `--json <path>`.
fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut wanted = BTreeSet::new();
    let mut json = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json = Some(it.next().ok_or("--json needs a path")?.clone());
        } else if let Some((id, _)) = EXPERIMENTS
            .iter()
            .find(|(id, _)| a.eq_ignore_ascii_case(id))
        {
            wanted.insert(*id);
        } else {
            return Err(format!("unknown experiment `{a}`"));
        }
    }
    let run = EXPERIMENTS
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| wanted.is_empty() || wanted.contains(id))
        .collect();
    Ok(Args { run, json })
}

/// What `report ops` is asked for.
#[derive(Debug, PartialEq)]
struct OpsArgs {
    /// `Fact` rows.
    facts: usize,
    /// `Dim` rows.
    dims: usize,
    /// Timed runs per template, after one warm-up.
    runs: usize,
}

/// Parse the arguments after `ops`: `--facts`, `--dims` and `--runs`,
/// each a positive count (100 000, 1 000 and 25 when left out).
fn parse_ops(args: &[String]) -> std::result::Result<OpsArgs, String> {
    let mut ops = OpsArgs {
        facts: 100_000,
        dims: 1_000,
        runs: 25,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let field = match flag.as_str() {
            "--facts" => &mut ops.facts,
            "--dims" => &mut ops.dims,
            "--runs" => &mut ops.runs,
            other => return Err(format!("unknown ops option `{other}`")),
        };
        *field = it
            .next()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| format!("{flag} needs a positive count"))?;
    }
    Ok(ops)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(("ops", rest)) = args.split_first().map(|(a, rest)| (a.as_str(), rest)) {
        let ops = parse_ops(rest).unwrap_or_else(|e| {
            eprintln!("report: {e}\nusage: report ops [--facts N] [--dims N] [--runs N]");
            std::process::exit(2);
        });
        if let Err(e) = ops_probe(&ops) {
            eprintln!("report ops failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(&args).unwrap_or_else(|e| {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "report: {e}\nusage: report [ID ...] [--json PATH] | report ops [--facts N] \
             [--dims N] [--runs N]\nknown ids: {}",
            known.join(" ")
        );
        std::process::exit(2);
    });

    let mut rows: Vec<ExperimentRow> = Vec::new();
    for (id, f) in EXPERIMENTS.iter().filter(|(id, _)| args.run.contains(id)) {
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
    if let Some(path) = args.json {
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
        c.engine.choice
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
        c.engine.choice
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
        c.engine.choice
    );
    Ok(vec![ExperimentRow::from_comparison(
        "x8",
        "A=10000 B=100 join=50 groupsA=9000",
        &c,
        "Figure 8: lazy wins; engine's cost model declines the rewrite",
    )])
}

// --------------------------------------------------------------- X9

/// Section 7 sweeps over 10 000 fact rows: fan-in (the dimension holds
/// every matched key), join selectivity at 9000 groups, and Zipf skew
/// at fan-in 100.
fn x9_sweeps() -> Result<Vec<ExperimentRow>> {
    let base = SweepConfig::default();
    let fan_in = [1, 10, 100, 1000, 10_000].map(|groups| SweepConfig {
        dim_rows: groups.clamp(100, 10_000),
        groups,
        ..base
    });
    let selectivity = [1.0, 0.5, 0.1, 0.01, 0.005].map(|match_fraction| SweepConfig {
        groups: 9_000,
        match_fraction,
        ..base
    });
    let skew = [0.0, 0.5, 1.0, 1.5].map(|skew| SweepConfig { skew, ..base });
    let series: [(&str, &str, &[SweepConfig]); 3] = [
        ("fan-in", "eager advantage grows with fan-in", &fan_in),
        (
            "selectivity",
            "low selectivity favours lazy (Figure 8 regime)",
            &selectivity,
        ),
        ("skew", "eager work follows group count, not size", &skew),
    ];
    let mut out = Vec::new();
    for (name, note, points) in series {
        println!("--- {name} sweep ---");
        println!(
            "{:<50} {:>12} {:>12} {:>9} {:>8}",
            "point", "lazy", "eager", "speedup", "engine"
        );
        for cfg in points {
            let mut db = cfg.build()?;
            let c = compare(&mut db, cfg.query(), 3)?;
            let params = sweep_params(cfg);
            println!(
                "{params:<50} {:>12?} {:>12?} {:>8.2}x {:>8}",
                c.lazy.time,
                c.eager.time,
                c.speedup(),
                format!("{:?}", c.engine.choice)
            );
            out.push(ExperimentRow::from_comparison(
                "x9",
                &format!("{name} sweep {params}"),
                &c,
                note,
            ));
        }
    }
    Ok(out)
}

/// A sweep point's parameters, as the experiment rows name them.
fn sweep_params(cfg: &SweepConfig) -> String {
    format!(
        "fact={} dim={} groups={} match={} zipf={}",
        cfg.fact_rows, cfg.dim_rows, cfg.groups, cfg.match_fraction, cfg.skew
    )
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
        c.eager.time, c.lazy.time, c.engine.choice
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

// --------------------------------------------------------------- X15

/// The row engine against the chunk pipeline: a filter-heavy predicate
/// evaluated row at a time and as the mask kernel over its lowered
/// `⌊P⌋` (batches built from the rows inside the timed region), then a
/// filtered grouped join end to end.
fn x15_vectorized() -> Result<Vec<ExperimentRow>> {
    const CHUNK: usize = 1024;
    let (kernel_rows, join_rows, reps) = (400_000, 100_000, 7);
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64, true),
        Field::new("v", DataType::Int64, true),
    ]);
    let mut rng = StdRng::seed_from_u64(15);
    let rows: Vec<Vec<Value>> = (0..kernel_rows)
        .map(|_| {
            let v = if rng.gen_bool(0.1) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(-1000i64..1000))
            };
            vec![Value::Int(rng.gen_range(0i64..1000)), v]
        })
        .collect();
    let bound = Expr::bare("v")
        .binary(BinaryOp::Gt, Expr::lit(-500i64))
        .and(Expr::bare("v").binary(BinaryOp::Lt, Expr::lit(700i64)))
        .or(Expr::bare("k").eq(Expr::lit(3i64)))
        .bind(&schema)?;
    let (floor, ceil) = bound
        .lower_floor()
        .zip(bound.lower_ceil())
        .ok_or_else(|| internal_err!("the X15 predicate does not lower"))?;
    // What the pipeline carries between operators is the selection
    // vector: both readings must keep exactly the rows the row engine's
    // `⌊P⌋` / `⌈P⌉` keep, before any number is reported.
    for chunk in rows.chunks(CHUNK) {
        let batch = ColumnarBatch::from_rows(chunk, schema.len())?;
        let truths = chunk
            .iter()
            .map(|r| bound.eval_truth(r))
            .collect::<Result<Vec<_>>>()?;
        for (lowered, reading) in [
            (&floor, Truth::floor as fn(Truth) -> bool),
            (&ceil, Truth::ceil),
        ] {
            let expected: Vec<u32> = (0u32..)
                .zip(&truths)
                .filter(|(_, t)| reading(**t))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                select(lowered, &batch, None)?,
                expected,
                "X15 selection vector"
            );
        }
    }
    // Interleaved rep by rep, so drift on a shared box hits both alike.
    let (mut by_row, mut by_kernel) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        let mut kept = 0usize;
        for r in &rows {
            kept += usize::from(bound.eval_truth(r)? == Truth::True);
        }
        std::hint::black_box(kept);
        by_row.push(start.elapsed());
        let start = Instant::now();
        let mut kept = 0usize;
        for chunk in rows.chunks(CHUNK) {
            let batch = ColumnarBatch::from_rows(chunk, schema.len())?;
            kept += select(&floor, &batch, None)?.len();
        }
        std::hint::black_box(kept);
        by_kernel.push(start.elapsed());
    }

    let cfg = SweepConfig {
        fact_rows: join_rows,
        ..SweepConfig::default()
    };
    let mut db = cfg.build()?;
    let sql = "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) FROM Fact F, Dim D \
               WHERE F.DimId = D.DimId AND F.V > 10 GROUP BY D.DimId";
    db.set_vectorized(false);
    let row = measure(&mut db, sql, PushdownPolicy::Never, reps)?;
    db.set_vectorized(true);
    let pipeline = measure(&mut db, sql, PushdownPolicy::Never, reps)?;
    assert_eq!(
        row.rows.sorted().rows,
        pipeline.rows.sorted().rows,
        "X15 join"
    );

    println!(
        "{:>14} {:>8} {:>12} {:>12} {:>9}",
        "workload", "rows", "row engine", "pipeline", "speedup"
    );
    let timings = [
        (
            "filter_kernel",
            kernel_rows,
            median(by_row),
            median(by_kernel),
        ),
        ("end_to_end", join_rows, row.time, pipeline.time),
    ];
    Ok(timings
        .into_iter()
        .map(|(workload, n, row, pipeline)| {
            let speedup = row.as_secs_f64() / pipeline.as_secs_f64().max(1e-12);
            println!("{workload:>14} {n:>8} {row:>12?} {pipeline:>12?} {speedup:>8.2}x");
            ExperimentRow::note(
                "x15",
                &format!("{workload} rows={n} reps={reps}"),
                &format!("row engine {row:?}, pipeline {pipeline:?}, {speedup:.2}x"),
            )
        })
        .collect())
}

// --------------------------------------------------------------- X16

/// Section 7's trade-off decided by the cost model: two extremes where it
/// points opposite ways, each choice checked against the clock, and an
/// adaptive loop whose first estimates point the wrong way.
fn x16_cost_model() -> Result<Vec<ExperimentRow>> {
    let extremes = [
        ("extreme_fan_in", 8000, 50, 50, 1.0),
        ("extreme_selective", 8000, 4000, 6000, 0.02),
    ];
    let mut out = Vec::new();
    for (workload, fact_rows, dim_rows, groups, match_fraction) in extremes {
        let cfg = SweepConfig {
            fact_rows,
            dim_rows,
            groups,
            match_fraction,
            skew: 0.0,
        };
        let mut db = cfg.build()?;
        let c = compare(&mut db, cfg.query(), 3)?;
        let (Some(lazy), Some(eager)) = (&c.engine.lazy_shape, &c.engine.eager_shape) else {
            return Err(internal_err!("{workload}: no shape costs"));
        };
        let shapes = format!("shape lazy {:.1} / eager {:.1}", lazy.total, eager.total);
        println!(
            "{workload}: picks {:?}, {shapes}; lazy {:?} eager {:?} speedup {:.2}x",
            c.engine.choice,
            c.lazy.time,
            c.eager.time,
            c.speedup()
        );
        out.push(ExperimentRow::from_comparison(
            "x16",
            &format!("{workload} {}", sweep_params(&cfg)),
            &c,
            &shapes,
        ));
    }

    let cfg = SweepConfig {
        fact_rows: 10_000,
        dim_rows: 5000,
        groups: 5000,
        match_fraction: 0.02,
        skew: 0.0,
    };
    let mut db = cfg.build()?;
    db.options_mut().policy = PushdownPolicy::CostBased;
    db.options_mut().adaptive = true;
    let mut choices = Vec::new();
    for _ in 0..5 {
        db.query(cfg.query())?;
        let metrics = db
            .last_query_metrics()
            .ok_or_else(|| internal_err!("no metrics recorded"))?;
        choices.push(metrics.choice);
    }
    let converged = choices.iter().position(|c| *c == PlanChoice::Lazy);
    let note = format!(
        "choices {choices:?}: lazy from round {}; stats_epoch {}",
        converged.map_or(0, |i| i + 1),
        db.stats_epoch()
    );
    println!("adaptive: {note}");
    out.push(ExperimentRow::note(
        "x16",
        &format!("adaptive {}", sweep_params(&cfg)),
        &note,
    ));
    Ok(out)
}

// --------------------------------------------------------------- X17

/// Section 7's communication claim on in-process shards: the X10 fan-in
/// workload (no declared partition keys) at 1/2/4/8 shards, where the
/// lazy plan ships fact rows into the join's exchange and the certified
/// eager plan ships per-group partials from a combiner below it.
fn x17_sharding() -> Result<Vec<ExperimentRow>> {
    let cfg = SweepConfig::default();
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "shards", "lazy ships", "eager ships", "ratio", "lazy", "eager"
    );
    let mut out = Vec::new();
    for shards in [1, 2, 4, 8] {
        let mut db = cfg.build()?;
        db.set_shards(NonZeroUsize::new(shards).ok_or_else(|| internal_err!("zero shards"))?);
        let c = compare(&mut db, cfg.query(), 3)?;
        let (lazy, eager) = (c.lazy.shipped_bytes, c.eager.shipped_bytes);
        let ratio = lazy.max(1) as f64 / eager.max(1) as f64;
        println!(
            "{shards:>6} {lazy:>10} B {eager:>10} B {ratio:>7.1}x {:>12?} {:>12?}",
            c.lazy.time, c.eager.time
        );
        out.push(ExperimentRow::from_comparison(
            "x17",
            &format!("shards={shards} {}", sweep_params(&cfg)),
            &c,
            &format!("ships {lazy} B vs {eager} B"),
        ));
    }
    Ok(out)
}

/// The star schema of `gbjbench`'s `analytic_scan`: `Fact.DimId`
/// uniform over twice `Dim`'s keys, `DimId`, `V` and `Tag` each NULL in
/// one row of a hundred, `V` in `0..1000`, 64 tags.
fn star(facts: usize, dims: usize) -> Result<Database> {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(20) NOT NULL, \
                           Region VARCHAR(20) NOT NULL); \
         CREATE TABLE Fact (FactId INTEGER PRIMARY KEY, DimId INTEGER, V INTEGER, \
                            Tag VARCHAR(20));",
    )?;
    let mut rng = StdRng::seed_from_u64(27);
    let cats = (dims / 10).clamp(2, 20) as i64;
    let dim_rows: Vec<Vec<Value>> = (0..dims as i64)
        .map(|id| {
            let cat = format!("cat{:02}", rng.gen_range(0..cats));
            let region = format!("region{}", rng.gen_range(0..8));
            vec![Value::Int(id), Value::str(cat), Value::str(region)]
        })
        .collect();
    db.insert_rows("Dim", dim_rows)?;
    let keys = 2 * dims as i64;
    let fact_rows: Vec<Vec<Value>> = (0..facts as i64)
        .map(|id| {
            let cells = [
                Value::Int(rng.gen_range(0..keys)),
                Value::Int(rng.gen_range(0..1000)),
                Value::str(format!("tag{:02}", rng.gen_range(0..64))),
            ];
            let nulled = cells.map(|v| if rng.gen_bool(0.01) { Value::Null } else { v });
            std::iter::once(Value::Int(id)).chain(nulled).collect()
        })
        .collect();
    db.insert_rows("Fact", fact_rows)?;
    Ok(db)
}

/// The three star templates of `gbjbench`, by name, and `join_sel`: a
/// join whose unique build keeps `Dim`'s first 20 keys, so about 1 % of
/// the `Fact` rows match at the default sizes — a sparse-match join no
/// `gbjbench` workload has.
const STAR_TEMPLATES: [(&str, &str); 4] = [
    (
        "fanin_key",
        "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) \
         FROM Fact F, Dim D WHERE F.DimId = D.DimId GROUP BY D.DimId",
    ),
    (
        "join_cat",
        "SELECT D.Cat, COUNT(F.FactId), SUM(F.V) \
         FROM Fact F, Dim D WHERE F.DimId = D.DimId AND F.V >= 500 GROUP BY D.Cat",
    ),
    (
        "filter_tag",
        "SELECT F.Tag, COUNT(F.FactId), MIN(F.V) FROM Fact F WHERE F.V < 50 GROUP BY F.Tag",
    ),
    (
        "join_sel",
        "SELECT D.Cat, COUNT(F.FactId), SUM(F.V) \
         FROM Fact F, Dim D WHERE F.DimId = D.DimId AND D.DimId < 20 GROUP BY D.Cat",
    ),
];

/// A profile tree in pre-order: each operator, indented by depth and
/// followed by its label's detail, and its metrics.
fn operators(node: &ProfileNode, depth: usize, out: &mut Vec<(String, OperatorMetrics)>) {
    let detail = node.label.split_once(' ').map_or("", |(_, detail)| detail);
    let name = format!("{}{} {detail}", "  ".repeat(depth), node.operator);
    out.push((name, node.metrics));
    for child in &node.children {
        operators(child, depth + 1, out);
    }
}

/// `report ops`, the operator probe: each star template over a `Fact`
/// of `facts` rows and a `Dim` of `dims`, on the product's options (the
/// chunk pipeline at one part unless `GBJ_TEST_*` says otherwise), one
/// warm-up then `runs` timed runs. Over several parts it declares the
/// partition keys `gbjbench`'s `scaleout` declares (`Fact(FactId)`,
/// `Dim(DimId)`). Prints, per operator of the plan that ran, its
/// `vectors` (the chunks it handled — a count, so a change in how
/// finely rows arrive shows without a timer) and the minimum over the
/// runs of its `build_ns`, `probe_ns` and `kernel_ns` (how they nest
/// per operator is in `gbj_exec::metrics`), and the minimum wall time
/// of the whole query.
fn ops_probe(args: &OpsArgs) -> Result<()> {
    let mut db = star(args.facts, args.dims)?;
    let exec = db.options().exec;
    if exec.shards.get() > 1 {
        db.declare_partition_key("Fact", &["FactId"])?;
        db.declare_partition_key("Dim", &["DimId"])?;
    }
    println!(
        "operator probe: {} Fact rows, {} Dim rows, {} part(s) on {} thread(s), minimum of {} \
         runs (µs)",
        args.facts, args.dims, exec.shards, exec.threads, args.runs
    );
    let us = |ns: u64| ns as f64 / 1e3;
    for (name, sql) in STAR_TEMPLATES {
        db.query_report(sql)?;
        let mut wall = Duration::MAX;
        let mut best: Vec<(String, OperatorMetrics)> = Vec::new();
        for _ in 0..args.runs {
            let started = Instant::now();
            let (_, profile, _) = db.query_report(sql)?;
            wall = wall.min(started.elapsed());
            let mut ran = Vec::new();
            operators(&profile, 0, &mut ran);
            if best.is_empty() {
                best = ran;
                continue;
            }
            if best.len() != ran.len() {
                return Err(internal_err!("{name}: the plan changed between runs"));
            }
            for ((_, min), (_, now)) in best.iter_mut().zip(&ran) {
                min.build_ns = min.build_ns.min(now.build_ns);
                min.probe_ns = min.probe_ns.min(now.probe_ns);
                min.kernel_ns = min.kernel_ns.min(now.kernel_ns);
            }
        }
        println!("\n{name}: query {:.1} µs", wall.as_secs_f64() * 1e6);
        println!(
            "  {:<64} {:>9} {:>8} {:>10} {:>10} {:>10}",
            "operator", "rows", "vectors", "build", "probe", "kernel"
        );
        for (op, m) in &best {
            let op: String = op.chars().take(64).collect();
            println!(
                "  {op:<64} {:>9} {:>8} {:>10.1} {:>10.1} {:>10.1}",
                m.rows_out,
                m.vectors,
                us(m.build_ns),
                us(m.probe_ns),
                us(m.kernel_ns)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> std::result::Result<Args, String> {
        parse_args(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn no_ids_run_everything_in_order() {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(
            parse(&[]).unwrap(),
            Args {
                run: all,
                json: None
            }
        );
    }

    #[test]
    fn ids_run_in_table_order_and_json_takes_its_path() {
        let args = parse(&["X17", "--json", "out.json", "x9", "x17"]).unwrap();
        assert_eq!(args.run, ["x9", "x17"]);
        assert_eq!(args.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn ops_takes_positive_counts() {
        let parse =
            |args: &[&str]| parse_ops(&args.iter().map(ToString::to_string).collect::<Vec<_>>());
        assert_eq!(
            parse(&[]).unwrap(),
            OpsArgs {
                facts: 100_000,
                dims: 1_000,
                runs: 25
            }
        );
        assert_eq!(
            parse(&["--runs", "3", "--facts", "2000"]).unwrap(),
            OpsArgs {
                facts: 2000,
                dims: 1_000,
                runs: 3
            }
        );
        assert_eq!(
            parse(&["--dims", "0"]).unwrap_err(),
            "--dims needs a positive count"
        );
        assert_eq!(
            parse(&["--runs"]).unwrap_err(),
            "--runs needs a positive count"
        );
        assert_eq!(parse(&["x1"]).unwrap_err(), "unknown ops option `x1`");
    }

    #[test]
    fn unknown_ids_and_a_dangling_json_are_rejected() {
        assert_eq!(parse(&["x99"]).unwrap_err(), "unknown experiment `x99`");
        assert_eq!(
            parse(&["x1", "x14"]).unwrap_err(),
            "unknown experiment `x14`"
        );
        assert_eq!(parse(&["x1", "--json"]).unwrap_err(), "--json needs a path");
    }
}
