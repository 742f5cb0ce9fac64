//! Fallback census: which execution path every SELECT in `corpus/*.sql`
//! takes, per refusal reason.
//!
//! `gbj_exec::execution_path` is the one gate in front of the chunk
//! pipeline, at one part or over several; a plan it refuses runs on the
//! row engine. This test pins how many corpus queries each reason sends
//! there, for both plan shapes, so the next change to the gate (or to
//! the planner's output) shows up as a diff in the expected table
//! rather than as a silent shift in what the pipeline covers.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use gbj::engine::PushdownPolicy;
use gbj::exec::{execution_path, ExecOptions};
use gbj::Database;

/// `(policy, path rendering) → queries`, over every SELECT of the
/// corpus, under `options`. Each `(file name, statement)` of `extra`
/// is appended to that corpus file's script.
fn census(options: &ExecOptions, extra: &[(&str, &str)]) -> BTreeMap<(String, String), usize> {
    let mut counts = BTreeMap::new();
    let mut files: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "a new corpus file needs a census row");
    for file in files {
        let mut text: String = std::fs::read_to_string(&file)
            .expect("corpus file")
            .lines()
            .filter(|l| !l.trim_start().starts_with("--"))
            .collect::<Vec<_>>()
            .join("\n");
        for (name, stmt) in extra {
            if file.file_name().is_some_and(|f| f == *name) {
                text.push_str(";\n");
                text.push_str(stmt);
            }
        }
        let mut db = Database::new();
        for stmt in text.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            if !stmt.to_ascii_uppercase().starts_with("SELECT") {
                db.execute(stmt).expect("corpus DDL/DML runs");
                continue;
            }
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                db.options_mut().policy = policy;
                let plan = db.plan_query(stmt).expect("corpus query plans").plan;
                let key = (
                    format!("{policy:?}"),
                    execution_path(&plan, options).to_string(),
                );
                *counts.entry(key).or_insert(0) += 1;
            }
        }
    }
    counts
}

fn expect(rows: &[(&str, &str, usize)]) -> BTreeMap<(String, String), usize> {
    rows.iter()
        .map(|(policy, path, n)| ((policy.to_string(), path.to_string()), *n))
        .collect()
}

#[test]
fn corpus_fallbacks_per_reason_are_pinned() {
    // The default alone is the product: the pipeline at one part.
    let batch = census(&ExecOptions::default(), &[]);
    assert_eq!(
        batch,
        expect(&[
            ("Always", "batch", 16),
            ("Always", "row (CrossJoin: no join key)", 1),
            ("Always", "row (Join: no equi-join key)", 3),
            ("Never", "batch", 16),
            ("Never", "row (CrossJoin: no join key)", 1),
            ("Never", "row (Join: no equi-join key)", 3),
        ]),
        "chunk pipeline census moved"
    );

    let shards = NonZeroUsize::new(4).expect("nonzero");
    let sharded = census(
        &ExecOptions {
            shards,
            ..ExecOptions::default()
        },
        &[],
    );
    assert_eq!(
        sharded,
        expect(&[
            ("Always", "sharded(4)", 16),
            ("Always", "row (CrossJoin: no join key)", 1),
            ("Always", "row (Join: no equi-join key)", 3),
            ("Never", "sharded(4)", 16),
            ("Never", "row (CrossJoin: no join key)", 1),
            ("Never", "row (Join: no equi-join key)", 3),
        ]),
        "sharded pipeline census moved"
    );

    // Plus the one shape only the strict gate refuses: the path names
    // the configuration that ran *and* the one refused.
    let both = census(
        &ExecOptions {
            shards,
            ..ExecOptions::default()
        },
        &[(
            "paper_examples.sql",
            "SELECT F.DimId, SUM(F.V + 1) FROM Fact F GROUP BY F.DimId",
        )],
    );
    let refused = "batch (4 shards refused — Aggregate: aggregate argument not error-free)";
    assert_eq!(
        both,
        expect(&[
            ("Always", "sharded(4)", 16),
            ("Always", refused, 1),
            ("Always", "row (CrossJoin: no join key)", 1),
            ("Always", "row (Join: no equi-join key)", 3),
            ("Never", "sharded(4)", 16),
            ("Never", refused, 1),
            ("Never", "row (CrossJoin: no join key)", 1),
            ("Never", "row (Join: no equi-join key)", 3),
        ]),
        "strict-gate refusal census moved"
    );

    // The oracle switch takes every query to the row engine, asked for
    // — no refusal — whatever the shard count says.
    let oracle = census(
        &ExecOptions {
            vectorized: false,
            shards,
            ..ExecOptions::default()
        },
        &[],
    );
    assert_eq!(
        oracle,
        expect(&[("Always", "row", 20), ("Never", "row", 20)]),
        "oracle census moved"
    );
}
