//! Batch-boundary differential suite for the batch-native pipeline.
//!
//! The columnar pipeline (scan → selection-vector filters → code-native
//! hash join/aggregate with late materialization) promises output
//! **byte-identical to the row engine** — same rows after canonical
//! ordering, same counter fingerprint, or the same typed error — no
//! matter where the batch boundaries fall. Batch boundaries are the
//! pipeline's sharpest edge: a batch size of 1 makes every row its own
//! vector, 2 and 7 shear groups and join keys across chunk seams, and
//! the default leaves the cursor's natural batching. This suite sweeps
//! batch size × thread count × seeded fault injection (short batches,
//! NULL flips, injected scan failures) over the datasets most likely to
//! break `=ⁿ` dictionary grouping: NULL-heavy string keys, empty
//! tables, and all-NULL columns.

use gbj_engine::Database;
use gbj_storage::{FaultConfig, FaultInjector};
use rand::{rngs::StdRng, Rng, SeedableRng};

mod common;

/// Batch sizes to sweep: pathological 1/2/7 plus the cursor default.
const BATCH_SIZES: [Option<usize>; 4] = [Some(1), Some(2), Some(7), None];

/// String-keyed query family: dictionary-encoded group keys (NULL gets
/// its own reserved code and its own `=ⁿ` group), dictionary join keys
/// (NULL never matches), distinct projection, and scalar aggregates.
const QUERIES: &[&str] = &[
    "SELECT F.Tag, COUNT(F.FId), SUM(F.V) FROM Fact F GROUP BY F.Tag",
    "SELECT D.Name, COUNT(*) FROM Fact F, Dim D WHERE F.Tag = D.Name GROUP BY D.Name",
    "SELECT D.Name, SUM(F.V) FROM Fact F, Dim D \
     WHERE F.Tag = D.Name AND F.V > 2 GROUP BY D.Name",
    "SELECT DISTINCT F.Tag FROM Fact F",
    "SELECT COUNT(F.V), SUM(F.V), MIN(F.V), MAX(F.V) FROM Fact F",
    "SELECT F.Tag, COUNT(*) FROM Fact F WHERE F.V > 0 OR F.Tag = 'a' GROUP BY F.Tag",
];

// The batch-native side runs at several thread counts although its
// breakers are serial at all of them: the profile must not depend on
// the setting.
use common::thread_counts;

fn schema(db: &mut Database) {
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Name VARCHAR(8)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, Tag VARCHAR(8), V INTEGER);",
    )
    .expect("ddl");
}

/// NULL-heavy instance with *string* join/group keys drawn from a small
/// alphabet (so dictionaries dedup heavily and NULL codes interleave
/// with real ones at every batch seam).
fn null_heavy_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    schema(&mut db);
    let dims = rng.gen_range(1i64..8);
    for d in 0..dims {
        let name = if rng.gen_bool(0.3) {
            "NULL".to_string()
        } else {
            format!("'{}'", ["a", "b", "c", "dd", ""][rng.gen_range(0usize..5)])
        };
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, {name})"))
            .expect("dim row");
    }
    let facts = rng.gen_range(0i64..50);
    for f in 0..facts {
        let tag = if rng.gen_bool(0.35) {
            "NULL".to_string()
        } else {
            format!(
                "'{}'",
                ["a", "b", "c", "dd", "", "zz"][rng.gen_range(0usize..6)]
            )
        };
        let v = if rng.gen_bool(0.25) {
            "NULL".to_string()
        } else {
            rng.gen_range(-4i64..15).to_string()
        };
        db.execute(&format!("INSERT INTO Fact VALUES ({f}, {tag}, {v})"))
            .expect("fact row");
    }
    db
}

/// Both tables empty: every operator sees zero chunks.
fn empty_db() -> Database {
    let mut db = Database::new();
    schema(&mut db);
    db
}

/// Every nullable column entirely NULL: the dictionary holds zero
/// entries, every group key is the reserved NULL code, and no join key
/// ever matches.
fn all_null_db() -> Database {
    let mut db = Database::new();
    schema(&mut db);
    for d in 0..4i64 {
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, NULL)"))
            .expect("dim row");
    }
    for f in 0..23i64 {
        db.execute(&format!("INSERT INTO Fact VALUES ({f}, NULL, NULL)"))
            .expect("fact row");
    }
    db
}

/// One run's observable outcome: canonical rows or the typed error.
fn run(
    db: &mut Database,
    vectorized: bool,
    threads: usize,
    sql: &str,
) -> Result<Vec<Vec<gbj_types::Value>>, String> {
    db.set_vectorized(vectorized);
    db.set_threads(std::num::NonZeroUsize::new(threads).expect("nonzero"));
    if let Some(inj) = db.fault_injector() {
        inj.reset();
    }
    match db.query(sql) {
        Ok(rows) => Ok(common::canon(&rows)),
        Err(e) => Err(format!("{}: {}", e.kind(), e.message())),
    }
}

/// One run's counter fingerprint (the engine-invariant metrics subset)
/// or the typed error.
fn fingerprint(
    db: &mut Database,
    vectorized: bool,
    threads: usize,
    sql: &str,
) -> Result<Vec<(String, [u64; 4])>, String> {
    db.set_vectorized(vectorized);
    db.set_threads(std::num::NonZeroUsize::new(threads).expect("nonzero"));
    if let Some(inj) = db.fault_injector() {
        inj.reset();
    }
    match db.query(sql) {
        Ok(_) => {
            let metrics = db.last_query_metrics().expect("metrics recorded");
            Ok(metrics.profile.counter_fingerprint())
        }
        Err(e) => Err(format!("{}: {}", e.kind(), e.message())),
    }
}

/// Assert the batch-native pipeline matches the row engine on every
/// query, at every batch size and thread count, under `config`-seeded
/// faults — rows and counter fingerprints both.
fn assert_differential(db: &mut Database, ctx: &str, config: Option<FaultConfig>) {
    for batch_size in BATCH_SIZES {
        let injector = match (&config, batch_size) {
            (None, None) => None,
            (None, Some(_)) => Some(FaultConfig {
                batch_size,
                ..FaultConfig::default()
            }),
            (Some(c), _) => Some(FaultConfig {
                batch_size: batch_size.or(c.batch_size),
                ..*c
            }),
        };
        db.set_fault_injector(injector.map(FaultInjector::new));
        for sql in QUERIES {
            let oracle_rows = run(db, false, 1, sql);
            let oracle_fp = fingerprint(db, false, 1, sql);
            for threads in thread_counts() {
                let got = run(db, true, threads, sql);
                assert_eq!(
                    got, oracle_rows,
                    "{ctx}: rows diverged at batch_size={batch_size:?} \
                     threads={threads} for {sql}"
                );
                let got_fp = fingerprint(db, true, threads, sql);
                assert_eq!(
                    got_fp, oracle_fp,
                    "{ctx}: counter fingerprint diverged at batch_size={batch_size:?} \
                     threads={threads} for {sql}"
                );
            }
        }
        db.set_vectorized(false);
    }
}

/// Randomized NULL-heavy string-keyed instances, clean scans: only the
/// batch boundaries move.
#[test]
fn batch_boundaries_never_change_results_on_null_heavy_keys() {
    let mut rng = StdRng::seed_from_u64(0xc01a_0001);
    for case in 0..8u64 {
        let mut db = null_heavy_db(&mut rng);
        assert_differential(&mut db, &format!("case {case}"), None);
    }
}

/// The same instances under seeded fault injection: NULL flips rewrite
/// key columns mid-stream (the dictionary prescan must re-observe the
/// same flips) and injected batch failures must surface as the same
/// typed error from both engines.
#[test]
fn seeded_faults_agree_between_row_and_batch_native_engines() {
    let mut rng = StdRng::seed_from_u64(0xc01a_0002);
    for case in 0..8u64 {
        let mut db = null_heavy_db(&mut rng);
        let config = FaultConfig {
            seed: rng.gen_range(0u64..1 << 40),
            fail_nth_batch: rng.gen_bool(0.35).then(|| rng.gen_range(0u64..8)),
            batch_size: None,
            null_flip_one_in: rng.gen_bool(0.7).then(|| rng.gen_range(1u64..5)),
        };
        assert_differential(&mut db, &format!("case {case} {config:?}"), Some(config));
    }
}

/// Empty tables: zero chunks through every operator, at every batch
/// size — scalar aggregates still emit their single row.
#[test]
fn empty_tables_agree_at_every_batch_size() {
    let mut db = empty_db();
    assert_differential(&mut db, "empty tables", None);
}

/// All-NULL key and value columns: the dictionary is empty, every row
/// lands in the reserved-NULL-code group, joins produce nothing.
#[test]
fn all_null_columns_agree_at_every_batch_size() {
    let mut db = all_null_db();
    assert_differential(&mut db, "all-NULL columns", None);
    let config = FaultConfig {
        seed: 7,
        fail_nth_batch: None,
        batch_size: None,
        null_flip_one_in: Some(2),
    };
    assert_differential(&mut db, "all-NULL columns + flips", Some(config));
}
