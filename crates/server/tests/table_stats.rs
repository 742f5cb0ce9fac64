//! The serving layer over shared table statistics.
//!
//! A [`gbj_storage::TableStats`] belongs to one *version* of a table's
//! rows and is shared by every fork holding that version, so a server
//! summarizes a table once however many snapshots and sessions plan
//! against it — and what it summarizes after a write is the written
//! table's tail block, its sealed blocks having been folded by the
//! writes that filled them.
//! [`Storage::stats_builds`](gbj_storage::Storage::stats_builds) counts
//! the passes and
//! [`Storage::stats_rows_read`](gbj_storage::Storage::stats_rows_read)
//! the rows they read; these tests pin when they move — the "no table
//! scans outside execution on a plan-cache hit" property — and the
//! plan-cache key the snapshots are looked up under.

use std::sync::{Arc, Barrier};

use gbj_engine::{Database, QueryMetrics, QueryOutput, QueryReport};
use gbj_server::{Server, ServerConfig, Session};
use gbj_types::Value;

const DDL: &str = "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(8) NOT NULL); \
                   CREATE TABLE Fact (FactId INTEGER PRIMARY KEY, DimId INTEGER, V INTEGER)";

/// Grouped join on a key of `Dim`: cost-based, so planning estimates
/// and clamps both candidate shapes (the audit reads the chosen one's).
const FANIN: &str = "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) \
                     FROM Fact F, Dim D WHERE F.DimId = D.DimId GROUP BY D.DimId";
/// A range predicate (histogram) under a two-column grouping of one
/// table (joint NDV).
const JOINT: &str = "SELECT F.DimId, F.V, COUNT(F.FactId) FROM Fact F \
                     WHERE F.V < 5 GROUP BY F.DimId, F.V";
const DIM_ONLY: &str = "SELECT D.Cat, COUNT(D.DimId) FROM Dim D GROUP BY D.Cat";

fn dim_rows() -> Vec<Vec<Value>> {
    (0..8)
        .map(|d| vec![Value::Int(d), Value::str(format!("c{}", d % 3))])
        .collect()
}

fn fact_rows(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|f| {
            let dim = if f % 11 == 0 {
                Value::Null
            } else {
                Value::Int(f % 8)
            };
            vec![Value::Int(f), dim, Value::Int(f % 10)]
        })
        .collect()
}

fn star_db(facts: Vec<Vec<Value>>) -> Database {
    let mut db = Database::new();
    db.run_script(DDL).unwrap();
    db.insert_rows("Dim", dim_rows()).unwrap();
    db.insert_rows("Fact", facts).unwrap();
    db
}

fn star_server_of(facts: i64) -> Server {
    Server::with_database(
        star_db(fact_rows(facts)),
        ServerConfig::default().with_plan_cache(16),
    )
}

fn star_server() -> Server {
    star_server_of(200)
}

fn builds(server: &Server) -> u64 {
    server.with_snapshot(|db| db.storage().stats_builds())
}

fn rows_read(server: &Server) -> u64 {
    server.with_snapshot(|db| db.storage().stats_rows_read())
}

/// Folds the next run of `sqls` adds.
fn builds_added(server: &Server, session: &Session, sqls: &[&str]) -> u64 {
    folded(server, session, sqls).0
}

/// Statistics passes the next run of `sqls` adds, and the rows they
/// read.
fn folded(server: &Server, session: &Session, sqls: &[&str]) -> (u64, u64) {
    let before = (builds(server), rows_read(server));
    for sql in sqls {
        session.query(sql).unwrap();
    }
    (builds(server) - before.0, rows_read(server) - before.1)
}

/// The `est=` column of an `EXPLAIN ANALYZE`, node by node.
fn estimates(db: &mut Database, sql: &str) -> Vec<String> {
    let QueryOutput::Explain(text) = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap() else {
        panic!("EXPLAIN ANALYZE returns text");
    };
    let ests: Vec<String> = text
        .split_whitespace()
        .filter(|w| w.starts_with("est="))
        .map(str::to_string)
        .collect();
    assert!(!ests.is_empty(), "no est= in:\n{text}");
    ests
}

#[test]
fn cached_reads_fold_nothing() {
    let server = star_server();
    let session = server.connect();
    let first = builds_added(&server, &session, &[FANIN, JOINT, DIM_ONLY]);
    // One summary each for Fact and Dim, one joint sketch for
    // (F.DimId, F.V) — pricing two shapes asked for each of them more
    // than once.
    assert_eq!(first, 3, "one fold per table version, one per joint key");
    for _ in 0..10 {
        for sql in [FANIN, JOINT, DIM_ONLY] {
            assert!(session.query(sql).unwrap().cache_hit);
        }
    }
    assert_eq!(builds(&server), first, "cache hits read the summaries");
    // A plan-cache miss of a new text over the same versions plans and
    // estimates afresh — from the same summaries.
    let other = "SELECT F.DimId, COUNT(F.FactId) FROM Fact F WHERE F.V >= 5 GROUP BY F.DimId";
    assert!(!session.query(other).unwrap().cache_hit);
    assert_eq!(builds(&server), first);
}

/// Two sealed blocks and a 200-row tail of facts: an INSERT makes the
/// next plan summarize the written table only — and of it the tail
/// only, in one pass per summary and per joint key; DELETE and UPDATE
/// re-pack the blocks, so the write itself folds the blocks it seals
/// and the first joint count after it reads them once more.
#[test]
fn a_write_refolds_the_written_table_only() {
    const SEALED: u64 = 2 * 1024;
    let server = star_server_of(SEALED as i64 + 200);
    let session = server.connect();
    let loaded = rows_read(&server);
    assert_eq!(loaded, SEALED, "the load folded each block it sealed");
    assert_eq!(
        folded(&server, &session, &[FANIN, JOINT, DIM_ONLY]),
        (3, 200 + 8 + SEALED + 200),
        "Fact's tail, Dim, and the joint key's one pass over all of Fact"
    );
    let refreshes = server.metrics().snapshot_refreshes;

    session
        .execute_write("INSERT INTO Fact VALUES (100000, 1, 3)")
        .unwrap();
    assert_eq!(
        rows_read(&server),
        loaded + 408 + SEALED,
        "a write folds nothing"
    );
    // The re-forked snapshot shares Dim's cell with the old one, and
    // Fact's sealed fold — joint sketch included — with the writer.
    assert_eq!(folded(&server, &session, &[DIM_ONLY]), (0, 0));
    assert_eq!(folded(&server, &session, &[FANIN]), (1, 201));
    assert_eq!(folded(&server, &session, &[JOINT]), (1, 201));
    assert_eq!(
        server.metrics().snapshot_refreshes,
        refreshes + 1,
        "one re-fork per write, none for what the reads learned"
    );

    for write in [
        "DELETE FROM Fact WHERE FactId = 100000",
        "UPDATE Fact SET V = 4 WHERE FactId = 3",
    ] {
        let before = rows_read(&server);
        session.execute_write(write).unwrap();
        assert_eq!(rows_read(&server) - before, SEALED, "{write}: re-packed");
        assert_eq!(
            folded(&server, &session, &[FANIN, JOINT, DIM_ONLY]),
            (2, 200 + SEALED + 200),
            "{write}: Fact's tail, then all of Fact for the joint key; nothing of Dim"
        );
    }
    session
        .execute_write(
            "DROP TABLE Fact; \
             CREATE TABLE Fact (FactId INTEGER PRIMARY KEY, DimId INTEGER, V INTEGER); \
             INSERT INTO Fact VALUES (1, 1, 1), (2, 1, 2)",
        )
        .unwrap();
    assert_eq!(
        folded(&server, &session, &[FANIN, JOINT, DIM_ONLY]),
        (2, 2 + 2),
        "a new Fact: its summary and joint sketch, nothing of Dim"
    );
}

#[test]
fn writes_that_change_no_row_keep_the_summaries() {
    let server = star_server();
    let session = server.connect();
    builds_added(&server, &session, &[FANIN, JOINT, DIM_ONLY]);
    let epoch = server.epoch();

    let err = session
        .execute_write("INSERT INTO Fact VALUES (0, 1, 1)")
        .unwrap_err();
    assert_eq!(err.kind(), "constraint", "duplicate primary key");
    session
        .execute_write("DELETE FROM Fact WHERE FactId = -1")
        .unwrap();
    assert_eq!(server.epoch(), epoch, "nothing committed");
    assert_eq!(
        builds_added(&server, &session, &[FANIN, JOINT, DIM_ONLY]),
        0
    );
    // Even when the epoch moves for another reason (a view), the
    // re-forked snapshot still shares every table's cell.
    session
        .execute_write("CREATE VIEW W AS SELECT D.DimId FROM Dim D")
        .unwrap();
    assert!(server.epoch() > epoch);
    assert_eq!(
        builds_added(&server, &session, &[FANIN, JOINT, DIM_ONLY]),
        0
    );
}

#[test]
fn a_snapshot_keeps_its_estimates_while_the_writer_sees_the_new_rows() {
    let mut writer = star_db(fact_rows(200));
    let before = estimates(&mut writer, FANIN);
    let mut snapshot = writer.fork();
    assert_eq!(writer.storage().stats_builds(), 2, "Fact and Dim");
    assert_eq!(estimates(&mut snapshot, FANIN), before);
    assert_eq!(
        writer.storage().stats_builds(),
        2,
        "the fork reads the cells its parent filled"
    );

    writer
        .insert_rows("Fact", fact_rows(300).split_off(200))
        .unwrap();
    let after = estimates(&mut writer, FANIN);
    assert_ne!(after, before, "the writer's next plan sees 300 facts");
    assert_eq!(
        estimates(&mut snapshot, FANIN),
        before,
        "the snapshot still reads, and estimates, its 200"
    );
    // Each side's numbers are those of a database freshly loaded with
    // the rows it holds.
    assert_eq!(estimates(&mut star_db(fact_rows(200)), FANIN), before);
    assert_eq!(estimates(&mut star_db(fact_rows(300)), FANIN), after);
    for sql in [JOINT, DIM_ONLY] {
        assert_eq!(
            estimates(&mut writer, sql),
            estimates(&mut star_db(fact_rows(300)), sql)
        );
    }
}

/// A fresh `Database::query_report` of `sql` on a fork of the server's
/// snapshot: the report it planned, and the metrics its run recorded.
fn fresh_run(server: &Server, sql: &str) -> (QueryReport, QueryMetrics) {
    let fork = server.with_snapshot(Database::fork);
    let (_, _, report) = fork.query_report(sql).unwrap();
    (report, fork.last_query_metrics().unwrap())
}

/// A plan-cache hit audits against the tree its miss priced the plan
/// with, and that tree is what planning afresh at the same plan epoch
/// gives.
#[test]
fn served_hits_audit_what_the_miss_priced() {
    let server = star_server();
    let session = server.connect();
    for sql in [FANIN, JOINT, DIM_ONLY] {
        let miss = session.query(sql).unwrap();
        let hit = session.query(sql).unwrap();
        assert!(!miss.cache_hit && hit.cache_hit, "{sql}");
        assert_eq!(miss.metrics.estimates, miss.report.estimates, "{sql}");
        assert_eq!(hit.metrics.estimates, miss.metrics.estimates, "{sql}");
        let (report, metrics) = fresh_run(&server, sql);
        assert_eq!(report.estimates, hit.metrics.estimates, "{sql}");
        assert_eq!(metrics.estimates, hit.metrics.estimates, "{sql}");
    }
}

/// Under `adaptive`, what a served read measured is absorbed into the
/// authoritative database. An absorb that teaches something moves the
/// stats epoch, so the next read misses and is priced with the learned
/// facts; an absorb of the same facts moves nothing, so the next read
/// hits and audits the same tree.
#[test]
fn learned_facts_reprice_on_a_miss_and_relearned_ones_keep_the_hit() {
    // A Dim filter the estimator reads as independent of the join: it
    // guesses the grouped join's size, and the run measures it.
    const SKEWED: &str = "SELECT D.DimId, COUNT(F.FactId) FROM Fact F, Dim D \
                          WHERE F.DimId = D.DimId AND D.Cat = 'c0' AND F.V < 3 \
                          GROUP BY D.DimId";
    let mut db = star_db(fact_rows(200));
    db.options_mut().adaptive = true;
    let server = Server::with_database(db, ServerConfig::default().with_plan_cache(16));
    let session = server.connect();
    let stats_epoch = || server.with_snapshot(Database::stats_epoch);

    let first = session.query(SKEWED).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(stats_epoch(), 1, "the first run taught the server");
    let learned = session.query(SKEWED).unwrap();
    assert!(!learned.cache_hit, "the stats epoch moved: a miss");
    assert_ne!(
        learned.metrics.estimates, first.metrics.estimates,
        "priced with the learned facts"
    );
    assert_eq!(stats_epoch(), 1, "the second run measured the same facts");
    assert_eq!(
        fresh_run(&server, SKEWED).0.estimates,
        learned.metrics.estimates
    );

    let hit = session.query(SKEWED).unwrap();
    assert!(hit.cache_hit, "no epoch moved: a hit");
    assert_eq!(hit.metrics.estimates, learned.metrics.estimates);
    assert!(!server.absorb_feedback(&first.metrics.feedback));
    let again = session.query(SKEWED).unwrap();
    assert!(again.cache_hit, "an absorb of known facts keeps the hit");
    assert_eq!(again.metrics.estimates, learned.metrics.estimates);
}

#[test]
fn two_sessions_asking_a_cold_table_at_once_fold_it_once() {
    let server = star_server();
    let gate = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let session = server.connect();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                session.query(FANIN).unwrap().rows
            })
        })
        .collect();
    let rows: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(rows[0].rows, rows[1].rows);
    assert_eq!(
        builds(&server),
        2,
        "Fact once and Dim once, not per session"
    );
}

/// What an adaptive server learns reaches the authoritative database
/// and survives writes, and the plan-cache key still tells a write from
/// learned statistics. A snapshot used to absorb feedback into its own
/// store: the facts died with it at the next write, and when the plan
/// epoch was the *sum* `data epoch + stats epoch`, `(11, 2)` — where a
/// view's plan was cached — and the `(13, 0)` re-fork after the view was
/// redefined collided at 13, so the dropped view's plan (and rows) came
/// back as a cache hit. Now the re-fork is at `(13, 2)`: the facts
/// survive, the pair moved in its data half, and the redefined view
/// misses.
#[test]
fn plan_cache_key_tells_a_write_from_learned_statistics() {
    let mut db = Database::new();
    db.options_mut().adaptive = true;
    db.run_script(
        "CREATE TABLE Dept (DeptId INTEGER PRIMARY KEY, Budget INTEGER NOT NULL); \
         CREATE TABLE Emp (EmpId INTEGER PRIMARY KEY, DeptId INTEGER NOT NULL, Sal INTEGER); \
         INSERT INTO Dept VALUES (1, 10), (2, 20), (3, 30); \
         INSERT INTO Emp VALUES (1, 1, 5), (2, 1, 6), (3, 2, 7), (4, 3, 8), (5, 3, 9); \
         CREATE VIEW V AS SELECT E.DeptId, E.Sal FROM Emp E WHERE E.Sal > 6",
    )
    .unwrap();
    let server = Server::with_database(db, ServerConfig::default().with_plan_cache(16));
    let session = server.connect();
    // Two grouped joins teach the server two rounds of facts: the
    // stats epoch moves by 2 while the data epoch stays, and each round
    // publishes a snapshot that plans with it.
    for sql in [
        "SELECT D.DeptId, COUNT(E.EmpId), SUM(E.Sal) \
         FROM Emp E, Dept D WHERE E.DeptId = D.DeptId GROUP BY D.DeptId",
        "SELECT D.Budget, COUNT(E.EmpId) \
         FROM Emp E, Dept D WHERE E.DeptId = D.DeptId GROUP BY D.Budget",
    ] {
        session.query(sql).unwrap();
    }
    let epochs = |server: &Server| server.with_snapshot(|d| (d.epoch(), d.stats_epoch()));
    let (data, stats) = epochs(&server);
    assert_eq!(stats, 2, "what the served reads measured was absorbed");
    assert_eq!(server.metrics().snapshot_refreshes, 2, "and published");

    let view = "SELECT V.DeptId, V.Sal FROM V";
    assert!(!session.query(view).unwrap().cache_hit);
    let cached = session.query(view).unwrap();
    assert!(cached.cache_hit);
    assert_eq!(cached.rows.sorted().rows.len(), 3, "Sal > 6");
    assert_eq!(epochs(&server), (data, 2), "nothing new to learn from it");

    // Redefine the view in exactly as many data-epoch steps as facts
    // were learned.
    session
        .execute_write(
            "DROP VIEW V; CREATE VIEW V AS SELECT E.DeptId, E.Sal FROM Emp E WHERE E.Sal < 6",
        )
        .unwrap();
    let fresh = session.query(view).unwrap();
    assert_eq!(
        epochs(&server),
        (data + 2, 2),
        "the facts survive the write: the re-fork starts from the authoritative store"
    );
    assert!(
        !fresh.cache_hit,
        "the view changed: its cached plan is stale"
    );
    assert_eq!(
        fresh.rows.rows,
        vec![vec![Value::Int(1), Value::Int(5)]],
        "Sal < 6"
    );
    assert_eq!(
        fresh.rows.rows,
        server.with_snapshot(|d| d.query(view)).unwrap().rows
    );
}
