//! Parts × threads differential tests.
//!
//! The chunk pipeline runs a plan over `n` parts on a team of `t`
//! threads and promises results **byte-identical to the serial row
//! engine** after the engine's canonical ordering, at every part and
//! thread count, for both plan shapes (E1 lazy / E2 eager), and under
//! deterministic fault injection — same seed ⇒ same rows or the same
//! typed error at parts {1, 2, 4} × threads {1, 2, 4, 8}. These tests
//! hold the executor to that promise over the same query family and
//! randomized instances the serial differential oracle uses, with the
//! oracle itself (`common::oracle_query`: `path: row`, asserted) as the
//! reference side of every comparison, and additionally pin the
//! resource-governance contract: a shared memory budget exhausts at the
//! oracle's own `{limit, used}` snapshot at one part and within one
//! table entry per part of the limit over several, errors raised while
//! the team is in flight always join it and surface as typed `Err`s,
//! and at one part — which runs inline — the thread count changes
//! nothing at all.

use std::num::NonZeroUsize;

use gbj_engine::{Database, PushdownPolicy};
use gbj_exec::ResourceLimits;
use gbj_storage::{FaultConfig, FaultInjector};
use gbj_types::{Error, Value};
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;

const PARTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The differential oracle's query family (mirrors the serial E1/E2
/// oracle in `equivalence_prop.rs` / `fault_injection.rs`).
const QUERIES: &[&str] = &[
    "SELECT D.DimId, COUNT(F.FId) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId",
    "SELECT D.DimId, D.Cat, SUM(F.V), MIN(F.V), MAX(F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat",
    "SELECT D.DimId, COUNT(*) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId",
    "SELECT D.DimId, AVG(F.V), COUNT(DISTINCT F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId",
    "SELECT D.DimId, SUM(F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId AND F.V > 0 AND D.Cat = 'c1' GROUP BY D.DimId",
    "SELECT DISTINCT D.Cat, COUNT(F.FId) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat",
    "SELECT D.DimId, D.Cat, COUNT(F.FId), SUM(F.V) FROM Fact F, Dim D \
     WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat",
    "SELECT F.K, COUNT(F.FId), SUM(F.V) FROM Fact F GROUP BY F.K",
];

/// Randomized Example-1-shaped instance with nullable join, grouping,
/// and aggregate columns (NULL-heavy on purpose).
fn build_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(5)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);",
    )
    .expect("ddl");
    let dims = rng.gen_range(1i64..10);
    for d in 0..dims {
        let cat = if rng.gen_bool(0.25) {
            "NULL".to_string()
        } else {
            format!("'c{}'", rng.gen_range(0i64..3))
        };
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, {cat})"))
            .expect("dim row");
    }
    let facts = rng.gen_range(0i64..60);
    for f in 0..facts {
        let k = if rng.gen_bool(0.2) {
            "NULL".to_string()
        } else {
            rng.gen_range(0i64..12).to_string()
        };
        let v = if rng.gen_bool(0.2) {
            "NULL".to_string()
        } else {
            rng.gen_range(-5i64..20).to_string()
        };
        db.execute(&format!("INSERT INTO Fact VALUES ({f}, {k}, {v})"))
            .expect("fact row");
    }
    db
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("nonzero")
}

/// Where one run executes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell {
    /// The reference side: the serial row engine, asserted to be.
    Oracle,
    /// The chunk pipeline over `parts` parts on `threads` threads.
    Pipeline { parts: usize, threads: usize },
}

/// Every pipeline cell of the matrix: parts {1, 2, 4} × threads
/// {1, 2, 4, 8}.
fn cells() -> Vec<Cell> {
    let at = |parts| THREAD_COUNTS.map(|threads| Cell::Pipeline { parts, threads });
    PARTS.into_iter().flat_map(at).collect()
}

/// The pipeline at the environment's part count (`GBJ_TEST_SHARDS`, one
/// by default) on each thread count.
fn default_part_cells() -> Vec<Cell> {
    let parts = gbj_engine::EngineOptions::default().exec.shards.get();
    let at = |threads| Cell::Pipeline { parts, threads };
    THREAD_COUNTS.map(at).into()
}

/// Run `sql` in `cell` under `policy`, faults re-armed.
fn query(
    db: &mut Database,
    cell: Cell,
    policy: PushdownPolicy,
    sql: &str,
) -> gbj_types::Result<gbj_exec::ResultSet> {
    db.options_mut().policy = policy;
    if let Some(inj) = db.fault_injector() {
        inj.reset();
    }
    match cell {
        Cell::Oracle => common::as_oracle(db, |db| common::oracle_query(db, sql)),
        Cell::Pipeline { parts, threads } => {
            db.set_vectorized(true);
            db.set_shards(nz(parts));
            db.set_threads(nz(threads));
            db.query(sql)
        }
    }
}

fn typed(e: Error) -> String {
    format!("{}: {}", e.kind(), e.message())
}

/// One run's observable outcome: canonical rows, or the typed error's
/// kind and message.
fn run_at(
    db: &mut Database,
    cell: Cell,
    policy: PushdownPolicy,
    sql: &str,
) -> Result<Vec<Vec<Value>>, String> {
    query(db, cell, policy, sql)
        .map(|rows| common::canon(&rows))
        .map_err(typed)
}

/// Every oracle query, both plan shapes: results in every parts ×
/// threads cell are identical to the oracle's.
#[test]
fn all_thread_counts_agree_with_serial_for_both_plans() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0001);
    for case in 0..24u64 {
        let mut db = build_db(&mut rng);
        for sql in QUERIES {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let serial = run_at(&mut db, Cell::Oracle, policy, sql);
                for cell in cells() {
                    let got = run_at(&mut db, cell, policy, sql);
                    assert_eq!(got, serial, "case {case} {cell:?} policy={policy:?}: {sql}");
                }
            }
        }
    }
}

/// Seeded fault injection: in every cell the same seed yields the
/// oracle's typed error or the oracle's rows — scan-level faults (batch
/// failures, short batches, NULL flips) are part- and thread-count
/// independent, the scan being one serial cursor everywhere.
#[test]
fn fault_seeds_are_thread_count_independent() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0002);
    let mut disagreements = Vec::new();
    for case in 0..24u64 {
        let mut db = build_db(&mut rng);
        let config = FaultConfig {
            seed: rng.gen_range(0u64..1 << 40),
            fail_nth_batch: rng.gen_bool(0.4).then(|| rng.gen_range(0u64..6)),
            batch_size: rng.gen_bool(0.5).then(|| rng.gen_range(1usize..5)),
            null_flip_one_in: rng.gen_bool(0.6).then(|| rng.gen_range(1u64..6)),
        };
        db.set_fault_injector(Some(FaultInjector::new(config)));
        for sql in [QUERIES[1], QUERIES[6], QUERIES[7]] {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let serial = run_at(&mut db, Cell::Oracle, policy, sql);
                for cell in cells() {
                    let got = run_at(&mut db, cell, policy, sql);
                    if got != serial {
                        disagreements.push(format!(
                            "case {case} {cell:?} policy={policy:?} under \
                             {config:?}:\n  serial={serial:?}\n  got={got:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "cells disagreed with the oracle under faults:\n{}",
        disagreements.join("\n")
    );
}

/// A shared memory budget exhausts at the oracle's own `{limit, used}`
/// snapshot at one part, at every thread count — one part charges in
/// row order, like the row engine — and over several parts within one
/// table entry per part of the limit: the parts charge one shared
/// guard concurrently, and the error reported is the lowest part's,
/// which may have seen the others' last charges.
#[test]
fn memory_budget_snapshot_is_stable_across_thread_counts() {
    let mut db = Database::new();
    db.run_script("CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);")
        .expect("ddl");
    db.insert_rows(
        "Fact",
        (0..2_000i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i), // unique group key
                Value::Int(i % 97),
            ]
        }),
    )
    .expect("rows");
    let sql = "SELECT F.K, SUM(F.V) FROM Fact F GROUP BY F.K";
    const LIMIT: u64 = 50_000;
    // One aggregation-table entry: the key row plus one accumulator.
    let entry = gbj_exec::guard::row_bytes(&[Value::Int(0)]) + 48;
    db.options_mut().exec.limits = ResourceLimits {
        max_memory_bytes: Some(LIMIT),
        ..ResourceLimits::default()
    };
    let mut exhaust = |cell| {
        let err = query(&mut db, cell, PushdownPolicy::Never, sql).expect_err("budget must fire");
        match err {
            Error::ResourceExhausted { limit, used, .. } => {
                assert_eq!(limit, LIMIT, "{cell:?}");
                assert!(used > limit, "{cell:?}: snapshot below limit");
                used
            }
            other => panic!("{cell:?}: expected resource error, got {other}"),
        }
    };
    let oracle_used = exhaust(Cell::Oracle);
    assert!(
        oracle_used <= LIMIT + entry,
        "the oracle stops at the first entry over"
    );
    for cell in cells() {
        let used = exhaust(cell);
        match cell {
            Cell::Pipeline { parts: 1, .. } => assert_eq!(used, oracle_used, "{cell:?}"),
            Cell::Pipeline { parts, .. } => assert!(
                used <= LIMIT + parts as u64 * entry,
                "{cell:?}: used {used} is more than one entry ({entry} B) per part over {LIMIT}"
            ),
            Cell::Oracle => unreachable!(),
        }
    }
    // Budgets restore cleanly in every cell, the oracle's included.
    db.options_mut().exec.limits = ResourceLimits::default();
    for cell in std::iter::once(Cell::Oracle).chain(cells()) {
        let rows = query(&mut db, cell, PushdownPolicy::Never, sql).expect("unlimited rerun");
        assert_eq!(rows.len(), 2_000, "{cell:?}");
    }
}

/// Errors raised while the team is in flight (here: the shared budget
/// tripping mid-aggregation on four parts, and injected scan failures)
/// always come back as typed `Err`s with every thread joined — the test
/// completing at all is the no-deadlock/no-leak proof, and repeated
/// runs would surface a leaked worker as a panic on a dropped scope.
#[test]
fn mid_flight_errors_join_all_workers_and_stay_typed() {
    let mut db = Database::new();
    db.run_script("CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);")
        .expect("ddl");
    db.insert_rows(
        "Fact",
        (0..4_000i64).map(|i| vec![Value::Int(i), Value::Int(i), Value::Int(1)]),
    )
    .expect("rows");
    let sql = "SELECT F.K, SUM(F.V) FROM Fact F GROUP BY F.K";

    // Budget trips while the parts are folding on all 8 workers.
    let busy = Cell::Pipeline {
        parts: 4,
        threads: 8,
    };
    db.options_mut().exec.limits = ResourceLimits {
        max_memory_bytes: Some(10_000),
        ..ResourceLimits::default()
    };
    for round in 0..20 {
        let err = query(&mut db, busy, PushdownPolicy::Never, sql).expect_err("budget must fire");
        assert_eq!(err.kind(), "resource", "round {round}");
        assert_eq!(err.message(), "memory budget exceeded", "round {round}");
    }

    // Injected batch failures surface as the oracle's error in every
    // cell.
    db.options_mut().exec.limits = ResourceLimits::default();
    db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
        seed: 3,
        fail_nth_batch: Some(1),
        batch_size: Some(512),
        ..FaultConfig::default()
    })));
    let serial = run_at(&mut db, Cell::Oracle, PushdownPolicy::Never, sql);
    match &serial {
        Err(msg) => assert!(
            msg.starts_with("execution: injected fault"),
            "typed execution error expected, got {msg}"
        ),
        Ok(_) => panic!("the injected batch failure must surface"),
    }
    for cell in cells() {
        let outcome = run_at(&mut db, cell, PushdownPolicy::Never, sql);
        assert_eq!(outcome, serial, "{cell:?}");
    }
}

/// One run's counter fingerprint: the path-invariant subset of every
/// operator's metrics — `(label, [rows_in, rows_out, batches,
/// hash_entries])` in pre-order — or the typed error if the run failed.
fn fingerprint_at(
    db: &mut Database,
    cell: Cell,
    policy: PushdownPolicy,
    sql: &str,
) -> Result<Vec<(String, [u64; 4])>, String> {
    query(db, cell, policy, sql).map_err(typed)?;
    let metrics = db.last_query_metrics().expect("metrics recorded");
    Ok(metrics.profile.counter_fingerprint())
}

/// The metrics layer's determinism promise: every operator counter in
/// the fingerprint — rows in/out, batch counts (`batches` included: the
/// morsel count of the input, whoever runs it), hash-table entries — is
/// the oracle's in every parts × threads cell, for both plan shapes,
/// across the whole oracle query family. (Timings and transient state
/// bytes are deliberately outside the fingerprint; see DESIGN.md §10.)
#[test]
fn metrics_counters_are_identical_at_every_thread_count() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0003);
    for case in 0..12u64 {
        let mut db = build_db(&mut rng);
        for sql in QUERIES {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let serial = fingerprint_at(&mut db, Cell::Oracle, policy, sql);
                assert!(serial.is_ok(), "case {case}: clean run must succeed");
                for cell in cells() {
                    let got = fingerprint_at(&mut db, cell, policy, sql);
                    assert_eq!(
                        got, serial,
                        "case {case} {cell:?} policy={policy:?}: \
                         counters drifted for {sql}"
                    );
                }
            }
        }
    }
}

/// The vectorized columnar path promises output **byte-identical to
/// the row engine** — same rows after canonical ordering, or the same
/// typed error — at every thread count, for both plan shapes, across
/// the whole oracle query family, at the environment's part count. The
/// oracle is the reference; the vectorized runs at 1/2/4/8 threads must
/// all match it.
#[test]
fn vectorized_path_is_byte_identical_to_the_row_engine() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0005);
    for case in 0..12u64 {
        let mut db = build_db(&mut rng);
        for sql in QUERIES {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let row_engine = run_at(&mut db, Cell::Oracle, policy, sql);
                for cell in default_part_cells() {
                    let got = run_at(&mut db, cell, policy, sql);
                    assert_eq!(
                        got, row_engine,
                        "case {case} {cell:?} policy={policy:?} vectorized: {sql}"
                    );
                }
            }
        }
    }
}

/// Vectorized execution under deterministic fault injection: short
/// batches, NULL flips and injected batch failures must produce the
/// same rows or the same typed error as the row engine, at every
/// thread count, for the same seed.
#[test]
fn vectorized_path_matches_row_engine_under_fault_seeds() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0006);
    let mut disagreements = Vec::new();
    for case in 0..12u64 {
        let mut db = build_db(&mut rng);
        let config = FaultConfig {
            seed: rng.gen_range(0u64..1 << 40),
            fail_nth_batch: rng.gen_bool(0.4).then(|| rng.gen_range(0u64..6)),
            batch_size: rng.gen_bool(0.5).then(|| rng.gen_range(1usize..5)),
            null_flip_one_in: rng.gen_bool(0.6).then(|| rng.gen_range(1u64..6)),
        };
        db.set_fault_injector(Some(FaultInjector::new(config)));
        for sql in [QUERIES[1], QUERIES[4], QUERIES[6], QUERIES[7]] {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let row_engine = run_at(&mut db, Cell::Oracle, policy, sql);
                for cell in default_part_cells() {
                    let got = run_at(&mut db, cell, policy, sql);
                    if got != row_engine {
                        disagreements.push(format!(
                            "case {case} {cell:?} policy={policy:?} under \
                             {config:?}:\n  row={row_engine:?}\n  vectorized={got:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "vectorized path disagreed with the row engine under faults:\n{}",
        disagreements.join("\n")
    );
}

/// The counter fingerprint excludes the vectorized-only counters
/// (vectors built, selection totals, kernel time), so it must be
/// byte-identical between the row engine and the vectorized path at
/// every thread count — vectorization changes how operators compute,
/// never what flows through them.
#[test]
fn vectorized_fingerprints_match_the_row_engine() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0007);
    for case in 0..8u64 {
        let mut db = build_db(&mut rng);
        for sql in QUERIES {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let row_engine = fingerprint_at(&mut db, Cell::Oracle, policy, sql);
                assert!(row_engine.is_ok(), "case {case}: clean run must succeed");
                for cell in default_part_cells() {
                    let got = fingerprint_at(&mut db, cell, policy, sql);
                    assert_eq!(
                        got, row_engine,
                        "case {case} {cell:?} policy={policy:?}: \
                         vectorized counters drifted for {sql}"
                    );
                }
            }
        }
    }
}

/// Counters stay the oracle's under deterministic fault injection too:
/// short batches and NULL flips perturb what the scan feeds every
/// operator, but identically so in every parts × threads cell (the scan
/// is one serial cursor everywhere). Failing seeds must yield the same
/// typed error everywhere instead of a fingerprint.
#[test]
fn metrics_counters_are_thread_invariant_under_fault_seeds() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0004);
    for case in 0..12u64 {
        let mut db = build_db(&mut rng);
        let config = FaultConfig {
            seed: rng.gen_range(0u64..1 << 40),
            fail_nth_batch: rng.gen_bool(0.3).then(|| rng.gen_range(0u64..6)),
            batch_size: rng.gen_bool(0.7).then(|| rng.gen_range(1usize..5)),
            null_flip_one_in: rng.gen_bool(0.7).then(|| rng.gen_range(1u64..6)),
        };
        db.set_fault_injector(Some(FaultInjector::new(config)));
        for sql in [QUERIES[0], QUERIES[3], QUERIES[6], QUERIES[7]] {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let serial = fingerprint_at(&mut db, Cell::Oracle, policy, sql);
                for cell in cells() {
                    let got = fingerprint_at(&mut db, cell, policy, sql);
                    assert_eq!(
                        got, serial,
                        "case {case} {cell:?} policy={policy:?} under \
                         {config:?}: {sql}"
                    );
                }
            }
        }
    }
}

/// One part runs inline on the calling thread, so `threads` is a no-op
/// there: the path, the rows (their order too), the whole profile —
/// operator names, every counter, `vectors` included — and the memory
/// high-water mark are the same at 1, 2, 4 and 8 threads. This is what
/// lets the test matrix carry no `GBJ_TEST_THREADS`-alone cell.
#[test]
fn threads_change_nothing_at_one_part() {
    fn counters(p: &gbj_exec::ProfileNode, out: &mut Vec<(String, [u64; 4], u64, u64)>) {
        let m = &p.metrics;
        out.push((p.operator.clone(), m.fingerprint(), m.vectors, m.selected));
        p.children.iter().for_each(|c| counters(c, out));
    }
    let mut rng = StdRng::seed_from_u64(0x9a11_0008);
    for case in 0..6u64 {
        let mut db = build_db(&mut rng);
        for sql in QUERIES {
            for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
                let mut serial = None;
                for threads in THREAD_COUNTS {
                    let cell = Cell::Pipeline { parts: 1, threads };
                    let rows = query(&mut db, cell, policy, sql).expect("runs");
                    let m = db.last_query_metrics().expect("metrics recorded");
                    let mut profile = Vec::new();
                    counters(&m.profile, &mut profile);
                    let seen = (
                        m.path_line(),
                        rows.rows,
                        m.profile.display_tree(),
                        profile,
                        m.peak_memory_bytes,
                    );
                    assert_eq!(seen.0, "path: batch\n", "case {case}: {sql}");
                    match &serial {
                        None => serial = Some(seen),
                        Some(first) => assert_eq!(
                            &seen, first,
                            "case {case} threads={threads} policy={policy:?}: {sql}"
                        ),
                    }
                }
            }
        }
    }
}
