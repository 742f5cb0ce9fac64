//! Golden-shape tests for `EXPLAIN` and `EXPLAIN ANALYZE` output.
//!
//! These don't pin full byte-for-byte goldens (timings vary run to
//! run); they pin the *shape*: every plan node appears, the
//! estimate-vs-actual columns are present on every audit line,
//! planning and execution time are separate labeled lines, and the
//! entire output is stable across repeated runs once the timing lines
//! are stripped.

use gbj::datagen::EmpDeptConfig;
use gbj::engine::{PushdownPolicy, QueryOutput};
use gbj::Database;

mod common;

fn build() -> (Database, &'static str) {
    let cfg = EmpDeptConfig {
        employees: 500,
        departments: 10,
        null_dept_fraction: 0.1,
        seed: 7,
    };
    (cfg.build().expect("build"), cfg.query())
}

fn explain_text(db: &mut Database, sql: &str) -> String {
    match db.execute(sql).expect("explain runs") {
        QueryOutput::Explain(text) => text,
        other => panic!("expected Explain output, got {other:?}"),
    }
}

/// The `path:` lines of an EXPLAIN ANALYZE / `\metrics` text.
fn path_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.starts_with("path: ")).collect()
}

/// Pin the three execution-path knobs, whatever the `GBJ_TEST_*`
/// environment defaulted them to.
fn configure(db: &mut Database, vectorized: bool, threads: usize, shards: usize) {
    db.set_vectorized(vectorized);
    db.set_threads(std::num::NonZeroUsize::new(threads).expect("nonzero"));
    db.set_shards(std::num::NonZeroUsize::new(shards).expect("nonzero"));
}

/// Whether some line of `text` starts with `needle`. (A bare
/// `contains` would let `"cost: lazy="` match inside
/// `"shape cost: lazy="`.)
fn has_line(text: &str, needle: &str) -> bool {
    text.lines().any(|l| l.starts_with(needle))
}

/// Drop the lines whose content legitimately varies between runs — the
/// two timings, and `peak memory:` exactly when `db` runs several parts
/// on several threads (how far the parts' charges overlap is the
/// scheduler's; at one part or one thread the line stays asserted) —
/// everything else must be reproducible.
fn stable_lines<'a>(db: &mut Database, text: &'a str) -> Vec<&'a str> {
    let exec = &db.options_mut().exec;
    let parts_overlap = exec.shards.get() > 1 && exec.threads.get() > 1;
    text.lines()
        .filter(|l| !l.starts_with("planning time:") && !l.starts_with("execution time:"))
        .filter(|l| !(parts_overlap && l.starts_with("peak memory:")))
        .collect()
}

/// Plain `EXPLAIN`: the report carries the choice, the one costed
/// comparison (`shape cost:` — the block-level `estimates:` / `cost:`
/// lines are gone with the second cost model), the TestFD trace and
/// both candidate plans — and every node of the chosen plan shows up in
/// the plan tree.
#[test]
fn explain_shows_choice_costs_and_every_plan_node() {
    let (mut db, sql) = build();
    db.options_mut().policy = PushdownPolicy::CostBased;
    let text = explain_text(&mut db, &format!("EXPLAIN {sql}"));
    for needle in [
        "choice:",
        "reason:",
        "shape cost: lazy=",
        "shape rationale:",
        "TestFD:",
        "plan:",
    ] {
        assert!(has_line(&text, needle), "missing {needle:?} in:\n{text}");
    }
    for gone in ["estimates:", "cost:"] {
        assert!(!has_line(&text, gone), "stale {gone:?} line in:\n{text}");
    }
    for node in [
        "Scan Employee AS E",
        "Scan Department AS D",
        "Aggregate",
        "Join",
    ] {
        assert!(
            text.contains(node),
            "missing plan node {node:?} in:\n{text}"
        );
    }
    // EXPLAIN must not execute: no measured section.
    assert!(
        !text.contains("actual rows:"),
        "EXPLAIN must not run the query"
    );
    assert!(!text.contains("estimate vs actual:"));
}

/// A certified EXPLAIN prints its FD1/FD2 certificate once: the closure
/// chain of the TestFD run that proved the rewrite, under `TestFD:`.
/// The report's certificate is that same trace, and no second copy of
/// the chain follows it.
#[test]
fn explain_prints_the_certificate_chain_once() {
    let (mut db, sql) = build();
    db.options_mut().policy = PushdownPolicy::CostBased;
    let report = db.plan_query(sql).expect("plans");
    let trace = report
        .certificate
        .as_deref()
        .expect("example 1's rewrite is certified");
    assert_eq!(report.testfd.as_deref(), Some(trace));
    let chain = |text: &str| {
        text.lines()
            .filter(|l| l.trim_start().starts_with("+ {"))
            .count()
    };
    assert!(chain(trace) > 0, "the closure has steps:\n{trace}");

    let text = explain_text(&mut db, &format!("EXPLAIN {sql}"));
    assert_eq!(text.matches(trace).count(), 1, "one trace in:\n{text}");
    assert_eq!(chain(&text), chain(trace), "one closure chain in:\n{text}");
    assert!(
        !text.contains("FD certificate"),
        "a second copy in:\n{text}"
    );
}

/// `EXPLAIN ANALYZE`: planning and execution time are separate labeled
/// lines, and the estimate-vs-actual section carries est/actual/q
/// columns for every node of the executed plan.
#[test]
fn explain_analyze_has_timing_lines_and_audit_columns() {
    let (mut db, sql) = build();
    db.options_mut().policy = PushdownPolicy::CostBased;
    let text = explain_text(&mut db, &format!("EXPLAIN ANALYZE {sql}"));

    let planning_lines = text
        .lines()
        .filter(|l| l.starts_with("planning time:"))
        .count();
    let execution_lines = text
        .lines()
        .filter(|l| l.starts_with("execution time:"))
        .count();
    assert_eq!(planning_lines, 1, "exactly one planning-time line:\n{text}");
    assert_eq!(
        execution_lines, 1,
        "exactly one execution-time line:\n{text}"
    );
    assert_eq!(path_lines(&text).len(), 1, "exactly one path line:\n{text}");
    assert!(
        text.contains("actual rows: 10"),
        "row count line in:\n{text}"
    );
    assert!(
        text.contains("peak memory: "),
        "peak memory line in:\n{text}"
    );
    assert!(
        text.contains("estimate vs actual:"),
        "audit header in:\n{text}"
    );

    // Every node the engine executed appears in the audit section with
    // all three columns on its line. (The label alone also occurs in
    // the plain plan tree above, so search from the section header on.)
    let audit_start = text.find("estimate vs actual:").expect("audit header");
    let audit_section = &text[audit_start..];
    let metrics = db.last_query_metrics().expect("analyze records metrics");
    let audits = metrics.audits();
    assert!(!audits.is_empty());
    for a in &audits {
        let line = audit_section
            .lines()
            .find(|l| l.trim_start().starts_with(&a.label))
            .unwrap_or_else(|| panic!("node {:?} missing from:\n{text}", a.label));
        for col in ["est=", "actual=", "q="] {
            assert!(line.contains(col), "line {line:?} lacks {col}");
        }
    }
}

/// The cost-based rationale golden: under `CostBased` the report
/// carries the itemised shape-cost comparison — one `shape cost:` line
/// with both totals and one `shape rationale:` line itemising the §7
/// trade-off (join input vs group input, lazy vs eager) — and, being
/// estimate-derived, both lines are deterministic across runs.
#[test]
fn explain_carries_deterministic_shape_cost_rationale() {
    let (mut db, sql) = build();
    db.options_mut().policy = PushdownPolicy::CostBased;
    let explain = format!("EXPLAIN {sql}");
    let text = explain_text(&mut db, &explain);

    let shape_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("shape cost: "))
        .collect();
    assert_eq!(shape_lines.len(), 1, "one shape-cost line in:\n{text}");
    assert!(
        shape_lines[0].contains("lazy=") && shape_lines[0].contains("eager="),
        "both totals on {:?}",
        shape_lines[0]
    );
    let rationale: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("shape rationale: "))
        .collect();
    assert_eq!(rationale.len(), 1, "one rationale line in:\n{text}");
    for col in ["join input ", "group input ", "(lazy vs eager)"] {
        assert!(
            rationale[0].contains(col),
            "{:?} lacks {col:?}",
            rationale[0]
        );
    }

    for run in 0..3 {
        let again = explain_text(&mut db, &explain);
        assert_eq!(
            stable_lines(&mut db, &text),
            stable_lines(&mut db, &again),
            "run {run}: shape-cost EXPLAIN drifted"
        );
    }

    // A query with no eager alternative has nothing to compare — the
    // lines must not be invented.
    let single = explain_text(&mut db, "EXPLAIN SELECT COUNT(*) FROM Employee E");
    assert!(
        !has_line(&single, "shape cost:"),
        "no alternative shape, no comparison:\n{single}"
    );
}

/// Modulo the two timing lines, `EXPLAIN ANALYZE` output is
/// byte-identical across repeated runs — estimates, actuals, peak
/// memory and tree shape are all deterministic.
#[test]
fn explain_analyze_is_stable_modulo_timings() {
    let (mut db, sql) = build();
    for policy in [PushdownPolicy::Never, PushdownPolicy::CostBased] {
        db.options_mut().policy = policy;
        let analyze = format!("EXPLAIN ANALYZE {sql}");
        let first = explain_text(&mut db, &analyze);
        for run in 0..3 {
            let again = explain_text(&mut db, &analyze);
            assert_eq!(
                stable_lines(&mut db, &first),
                stable_lines(&mut db, &again),
                "{policy:?} run {run}: non-timing output drifted"
            );
        }
    }
}

/// The batch-native plan profile golden: after an `EXPLAIN ANALYZE`
/// run with the vectorized pipeline on, the full metrics render carries
/// the vectorization observability columns (`vec=`, `sel=`, `kernel=`)
/// on every operator line, at least one operator reports a live
/// (non-zero) kernel invocation count, and the thread-invariant counter
/// fingerprint is byte-identical to the row engine's for the same query
/// — the observability columns are additive, never semantic.
#[test]
fn batch_native_profile_reports_vector_counters_with_row_engine_fingerprint() {
    let (mut db, sql) = build();
    db.options_mut().policy = PushdownPolicy::Never;
    let analyze = format!("EXPLAIN ANALYZE {sql}");

    common::make_oracle(&mut db);
    explain_text(&mut db, &analyze);
    let row_metrics = db.last_query_metrics().expect("row engine records metrics");
    common::assert_ran_oracle(row_metrics.path, &row_metrics.profile, &analyze);
    let row_fp = row_metrics.profile.counter_fingerprint();
    let row_render = row_metrics.render();

    db.set_vectorized(true);
    explain_text(&mut db, &analyze);
    let metrics = db
        .last_query_metrics()
        .expect("batch-native run records metrics");
    assert_eq!(
        metrics.profile.counter_fingerprint(),
        row_fp,
        "batch-native counter fingerprint diverged from the row engine"
    );

    let metric_lines = |t: &str| -> Vec<String> {
        let start = t
            .find("operator metrics:")
            .expect("operator metrics section");
        t[start..]
            .lines()
            .skip(1)
            .filter(|l| l.contains("rows="))
            .map(str::to_string)
            .collect()
    };
    let text = metrics.render();
    let vec_lines = metric_lines(&text);
    assert!(!vec_lines.is_empty(), "empty metrics tree in:\n{text}");
    for line in &vec_lines {
        for col in ["vec=", "sel=", "kernel="] {
            assert!(line.contains(col), "line {line:?} lacks {col}");
        }
    }
    assert!(
        vec_lines.iter().any(|l| !l.contains("vec=0 ")),
        "no operator claimed a vectorized kernel invocation in:\n{text}"
    );
    // The row engine never claims kernel invocations: the columns exist
    // but stay zero, so a non-zero `vec=` is an honest batch-native
    // marker.
    assert!(
        metric_lines(&row_render)
            .iter()
            .all(|l| l.contains("vec=0 ")),
        "row engine claimed vectorized kernels in:\n{row_render}"
    );
}

/// The `path:` golden: `EXPLAIN ANALYZE` and `\metrics` say which of the
/// two execution paths ran, at how many shards, and why a faster
/// configuration was refused — and the profile agrees. `ORDER BY` over
/// an error-free key stays batch-native; one `+` in a predicate sends
/// the whole plan to the row engine, which claims no kernel anywhere; a
/// supported plan at `threads = 4` is the same one-part pipeline, same
/// fingerprint, as at `threads = 1`; the oracle switch says `path: row`
/// at every shard count, with no refusal to report; and a plan only the
/// strict gate refuses says so instead of silently running on one
/// shard.
#[test]
fn path_line_names_the_path_and_the_refusal() {
    let (mut db, sql) = build();
    db.options_mut().policy = PushdownPolicy::Never;
    let vectors = |db: &Database| -> Vec<u64> {
        fn walk(p: &gbj::exec::ProfileNode, out: &mut Vec<u64>) {
            out.push(p.metrics.vectors);
            p.children.iter().for_each(|c| walk(c, out));
        }
        let mut out = Vec::new();
        walk(&db.last_query_metrics().expect("metrics").profile, &mut out);
        out
    };

    configure(&mut db, false, 1, 1);
    let text = explain_text(&mut db, &format!("EXPLAIN ANALYZE {sql}"));
    assert_eq!(path_lines(&text), ["path: row"], "{text}");

    configure(&mut db, true, 1, 1);
    let ordered = format!("EXPLAIN ANALYZE {sql} ORDER BY DeptID");
    let text = explain_text(&mut db, &ordered);
    assert_eq!(path_lines(&text), ["path: batch"], "{text}");
    let serial = db.last_query_metrics().expect("metrics");
    assert_eq!(serial.profile.operator, "Sort");
    assert!(vectors(&db).iter().skip(1).all(|v| *v > 0), "{text}");
    assert_eq!(path_lines(&serial.render()), ["path: batch"]);

    configure(&mut db, true, 4, 1);
    let text = explain_text(&mut db, &ordered);
    assert_eq!(path_lines(&text), ["path: batch"], "{text}");
    let parallel = db.last_query_metrics().expect("metrics");
    for op in ["HashJoin", "HashAggregate"] {
        assert!(parallel.profile.find_operator(op).is_some(), "serial {op}");
    }
    assert_eq!(
        parallel.profile.counter_fingerprint(),
        serial.profile.counter_fingerprint(),
        "threads must not change the pipeline's profile"
    );

    let arithmetic = "EXPLAIN ANALYZE SELECT E.EmpID FROM Employee E WHERE E.DeptID + 1 > 2";
    let text = explain_text(&mut db, arithmetic);
    assert_eq!(
        path_lines(&text),
        ["path: row (Filter: arithmetic in predicate)"],
        "{text}"
    );
    assert!(
        vectors(&db).iter().all(|v| *v == 0),
        "row engine ran a kernel"
    );

    // An arithmetic aggregate argument passes the one-part gate only.
    let argument = "SELECT E.DeptID, SUM(E.EmpID + 1) FROM Employee E GROUP BY E.DeptID";

    // The oracle switch wins over the shard and thread counts: the row
    // engine was asked for, so there is no refusal to report.
    configure(&mut db, false, 4, 4);
    for statement in [
        format!("EXPLAIN ANALYZE {sql}"),
        arithmetic.to_string(),
        format!("EXPLAIN ANALYZE {argument}"),
    ] {
        let text = explain_text(&mut db, &statement);
        assert_eq!(path_lines(&text), ["path: row"], "{text}");
        assert!(
            vectors(&db).iter().all(|v| *v == 0),
            "row engine ran a kernel"
        );
    }

    configure(&mut db, true, 1, 4);
    let text = explain_text(&mut db, &format!("EXPLAIN ANALYZE {sql}"));
    assert_eq!(path_lines(&text), ["path: sharded(4)"], "{text}");
    let text = explain_text(&mut db, arithmetic);
    assert_eq!(
        path_lines(&text),
        ["path: row (Filter: arithmetic in predicate)"],
        "{text}"
    );
    configure(&mut db, true, 1, 4);
    let text = explain_text(&mut db, &format!("EXPLAIN ANALYZE {argument}"));
    let refused = "path: batch (4 shards refused — Aggregate: aggregate argument not error-free)";
    assert_eq!(path_lines(&text), [refused], "{text}");
    db.query(argument).expect("query runs");
    let metrics = db.last_query_metrics().expect("metrics");
    assert_eq!(
        metrics.shards, 1,
        "the count that ran, not the configured one"
    );
    let rendered = metrics.render();
    assert_eq!(path_lines(&rendered), [refused]);
    assert!(!has_line(&rendered, "shards:"), "{rendered}");
}

/// The default is the product: `ExecOptions::default()` — what
/// `Database::new()` runs with no `GBJ_*` variable set — answers the
/// paper's Example 1 on the chunk pipeline, kernels live on every
/// operator.
#[test]
fn default_options_answer_example_1_on_the_pipeline() {
    let (mut db, sql) = build();
    db.options_mut().exec = gbj::exec::ExecOptions::default();
    assert!(db.options().exec.vectorized, "the pipeline is the default");
    let text = explain_text(&mut db, &format!("EXPLAIN ANALYZE {sql}"));
    assert_eq!(path_lines(&text), ["path: batch"], "{text}");
    let metrics = db.last_query_metrics().expect("metrics");
    assert!(metrics.profile.metrics.vectors > 0, "{text}");
}

/// The lazy and eager plan shapes both audit cleanly: the section is
/// present and each line is well-formed regardless of the plan chosen.
#[test]
fn both_plan_shapes_produce_audit_sections() {
    let (mut db, sql) = build();
    for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
        db.options_mut().policy = policy;
        let text = explain_text(&mut db, &format!("EXPLAIN ANALYZE {sql}"));
        let audit_start = text
            .find("estimate vs actual:")
            .unwrap_or_else(|| panic!("{policy:?}: no audit section in:\n{text}"));
        let audit = &text[audit_start..];
        let nodes = audit.lines().skip(1).filter(|l| l.contains("est=")).count();
        assert!(
            nodes >= 4,
            "{policy:?}: expected a multi-node audit:\n{audit}"
        );
    }
}

/// The range pass annotates EXPLAIN with a `domains:` line (inferred
/// per-column facts for the plan's output). It is catalog-derived and
/// must be byte-stable across runs.
#[test]
fn explain_carries_a_domains_annotation() {
    let (mut db, sql) = build();
    let text = explain_text(&mut db, &format!("EXPLAIN {sql}"));
    let domains: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("domains: "))
        .collect();
    assert_eq!(domains.len(), 1, "one domains line in:\n{text}");
    // The join/group columns are proven non-NULL from the catalog.
    assert!(
        domains[0].contains("not-null"),
        "inferred NULL-ness on {:?}",
        domains[0]
    );
    for run in 0..3 {
        let again = explain_text(&mut db, &format!("EXPLAIN {sql}"));
        assert_eq!(
            stable_lines(&mut db, &text),
            stable_lines(&mut db, &again),
            "run {run}: domains annotation drifted"
        );
    }
}

/// Byte-exact golden for the annotation line on a fully-controlled
/// schema: CHECK constraints plus the query's own predicates land in
/// `domains:`, and nothing else is printed beside it.
#[test]
fn domains_line_golden() {
    let mut db = gbj::Database::new();
    db.run_script(
        "CREATE TABLE Meter (MeterId INTEGER PRIMARY KEY, \
         Pct INTEGER CHECK (Pct >= 0 AND Pct <= 100));",
    )
    .unwrap();
    let text = explain_text(
        &mut db,
        "EXPLAIN SELECT M.MeterId, M.Pct FROM Meter M WHERE M.Pct >= 10 AND M.Pct <= 20",
    );
    assert!(
        text.contains("\ndomains: M.MeterId: not-null; M.Pct: [10,20] not-null\nplan:\n"),
        "output-domain line in:\n{text}"
    );
}
