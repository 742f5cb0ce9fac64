//! Chaos differential test for the serving layer (`gbj-server`).
//!
//! The oracle: run N client threads of seeded chaos — mixed DML and
//! aggregate-join reads, injected scan faults, tiny deadlines, shed
//! traffic — against one [`Server`], then **serially replay** the
//! committed-write log against a fork of the seed database. Every
//! successful query observed during the storm must be byte-identical
//! (as a canonically sorted row multiset of [`Value`]s) to re-running
//! the same SQL on the replayed database at the same storage epoch,
//! and every failure must be a *typed* error — never a panic, never
//! `Error::Internal`, never a partial result.
//!
//! Why the replay is sound:
//!
//! * writes hold the server's database mutex for the whole script, so
//!   snapshots only exist at script boundaries and every observed
//!   epoch is a commit-log boundary epoch;
//! * the fault injector only lands on the *read* path (scan batches),
//!   so committed writes replay identically without it;
//! * write failures that do occur (deliberate PK violations below) are
//!   data-dependent and replay deterministically, which is why the log
//!   records partially-committed scripts too.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use gbj::exec::CancellationToken;
use gbj::server::{with_retry, AdmissionConfig, QueryOpts, RetryPolicy, Server, ServerConfig};
use gbj::storage::{FaultConfig, FaultInjector};
use gbj::{Database, Error, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's aggregate-join shape: per-department COUNT/SUM.
const AGG: &str = "SELECT D.DeptId, COUNT(E.EmpId), SUM(E.Sal) \
                   FROM Emp E, Dept D WHERE E.DeptId = D.DeptId GROUP BY D.DeptId";

/// Read mix exercised by every chaos client.
const QUERIES: &[&str] = &[
    AGG,
    "SELECT E.EmpId, E.Sal FROM Emp E WHERE E.Sal > 50",
    "SELECT D.DeptId, D.Budget FROM Dept D",
    "SELECT D.Budget, COUNT(E.EmpId) \
     FROM Emp E, Dept D WHERE E.DeptId = D.DeptId GROUP BY D.Budget",
];

/// A deliberately huge cross product: never finishes inside a test,
/// only ever ends by cancellation or deadline. Used to pin a query in
/// the single admission slot.
const HEAVY: &str = "SELECT COUNT(*) FROM Emp E1, Emp E2, Emp E3";

/// Dept(8) x Emp(200), `Sal` nullable so NULL-flip chaos has cells to
/// flip. Deterministic: two calls build byte-identical databases.
fn seed_db() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dept (DeptId INTEGER PRIMARY KEY, Budget INTEGER NOT NULL); \
         CREATE TABLE Emp (EmpId INTEGER PRIMARY KEY, DeptId INTEGER NOT NULL, Sal INTEGER);",
    )
    .unwrap();
    db.insert_rows(
        "Dept",
        (0..8).map(|d| vec![Value::Int(d), Value::Int(d * 100)]),
    )
    .unwrap();
    db.insert_rows(
        "Emp",
        (0..200).map(|e| vec![Value::Int(e), Value::Int(e % 8), Value::Int(e * 7 % 101)]),
    )
    .unwrap();
    db
}

/// Every client-visible failure must be one of the typed classes a
/// server is allowed to surface. `Error::Internal` is an engine bug.
fn assert_typed(e: &Error) {
    match e {
        Error::Internal(m) => panic!("internal error escaped to a client: {m}"),
        Error::Cancelled
        | Error::DeadlineExceeded { .. }
        | Error::Overloaded { .. }
        | Error::ResourceExhausted { .. }
        | Error::Execution(_)
        | Error::Constraint(_) => {}
        other => panic!("unexpected error class under chaos: {other}"),
    }
}

/// One successful snapshot read, as observed by a chaos client.
struct Obs {
    sql: String,
    epoch: u64,
    rows: Vec<Vec<Value>>,
}

/// Run `clients` threads of seeded chaos against one server, then
/// verify every observation against the serial replay.
fn chaos_round(clients: usize, seed: u64) {
    let mut db = seed_db();
    // The serial replay is the reference side: it runs the oracle.
    let mut replay_base = db.fork();
    common::make_oracle(&mut replay_base);
    // Read-path chaos only: the Nth scan batch of each snapshot fails
    // typed, and the batch size is shrunk to stress the morsel loop.
    // NULL flips stay out of the concurrent round (they are covered by
    // `single_client_null_chaos_is_deterministic` below) so successful
    // reads stay comparable to the unfaulted replay.
    db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
        seed,
        fail_nth_batch: Some(5),
        batch_size: Some(7),
        ..FaultConfig::default()
    })));
    let server = Server::with_database(
        db,
        ServerConfig {
            admission: AdmissionConfig {
                max_active: 4,
                max_queued: 32,
                ..AdmissionConfig::default()
            },
            plan_cache_capacity: 32,
            record_commits: true,
            ..ServerConfig::default()
        },
    );

    let mut handles = Vec::new();
    for t in 0..clients {
        let server = server.clone();
        handles.push(std::thread::spawn(move || {
            let session = server.connect();
            let mut rng = StdRng::seed_from_u64(seed ^ (0xC1A0 + t as u64));
            let mut observations: Vec<Obs> = Vec::new();
            for i in 0..40u32 {
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let sql = QUERIES[rng.gen_range(0..QUERIES.len())];
                        let opts = if rng.gen_bool(0.15) {
                            // A deadline so tight it usually fires —
                            // typed, and excluded from the oracle.
                            QueryOpts {
                                deadline: Some(Duration::from_micros(rng.gen_range(0..400u64))),
                                ..QueryOpts::default()
                            }
                        } else {
                            QueryOpts::default()
                        };
                        match session.query_opts(sql, &opts) {
                            Ok(resp) => observations.push(Obs {
                                sql: sql.to_string(),
                                epoch: resp.epoch,
                                rows: resp.rows.sorted().rows,
                            }),
                            Err(e) => assert_typed(&e),
                        }
                    }
                    5..=7 => {
                        // Unique key per (thread, op): always commits.
                        let key = 10_000 + (t as i64) * 1_000 + i64::from(i);
                        let sql = format!(
                            "INSERT INTO Emp VALUES ({key}, {}, {})",
                            rng.gen_range(0..8),
                            rng.gen_range(0..100)
                        );
                        if let Err(e) = session.execute_write(&sql) {
                            assert_typed(&e);
                        }
                    }
                    8 => {
                        let sql = format!(
                            "UPDATE Emp SET Sal = {} WHERE DeptId = {} AND EmpId >= 10000",
                            rng.gen_range(0..100),
                            rng.gen_range(0..8)
                        );
                        if let Err(e) = session.execute_write(&sql) {
                            assert_typed(&e);
                        }
                    }
                    _ => {
                        // A script whose first statement commits and
                        // whose second violates the Emp primary key:
                        // the partial commit is real and must be
                        // logged for replay.
                        let key = 500_000 + (t as i64) * 1_000 + i64::from(i);
                        let sql = format!(
                            "INSERT INTO Emp VALUES ({key}, 0, 1); \
                             INSERT INTO Emp VALUES (0, 0, 1)"
                        );
                        match session.execute_write(&sql) {
                            Ok(_) => panic!("duplicate-key script cannot succeed"),
                            Err(e) => assert_typed(&e),
                        }
                    }
                }
            }
            observations
        }));
    }

    let mut all: Vec<Obs> = Vec::new();
    for h in handles {
        all.extend(h.join().expect("chaos client panicked"));
    }
    assert!(
        !all.is_empty(),
        "chaos produced no successful reads; the round proves nothing"
    );

    // ---- Serial replay ----
    let log = server.commit_log();
    assert!(!log.is_empty(), "chaos committed nothing");
    for w in log.windows(2) {
        assert!(w[0].seq < w[1].seq, "commit log out of order");
        assert!(
            w[0].epoch_after < w[1].epoch_after,
            "boundary epochs must be strictly increasing"
        );
    }

    let mut by_epoch: BTreeMap<u64, Vec<&Obs>> = BTreeMap::new();
    for obs in &all {
        by_epoch.entry(obs.epoch).or_default().push(obs);
    }

    let check = |db: &Database, epoch: u64| {
        for obs in by_epoch.get(&epoch).map(Vec::as_slice).unwrap_or_default() {
            let fresh = common::oracle_query(db, &obs.sql)
                .unwrap_or_else(|e| panic!("replay of `{}` at epoch {epoch} failed: {e}", obs.sql));
            assert_eq!(
                fresh.sorted().rows,
                obs.rows,
                "`{}` at epoch {epoch}: concurrent result diverges from serial replay",
                obs.sql
            );
        }
    };

    let mut replay = replay_base;
    let mut boundaries = BTreeSet::new();
    boundaries.insert(replay.epoch());
    check(&replay, replay.epoch());
    for op in &log {
        // Failures (the deliberate duplicate keys) are part of the
        // recorded history: the committed prefix is what matters.
        let _ = replay.run_script(&op.sql);
        assert_eq!(
            replay.epoch(),
            op.epoch_after,
            "replay epoch diverged at seq {} (`{}`)",
            op.seq,
            op.sql
        );
        boundaries.insert(op.epoch_after);
        check(&replay, op.epoch_after);
    }
    for &epoch in by_epoch.keys() {
        assert!(
            boundaries.contains(&epoch),
            "a query observed epoch {epoch}, which is not a script boundary: torn snapshot"
        );
    }

    // The storm's outcomes are fully accounted for: every successful
    // read became an observation, every committing script a log entry,
    // and no attempt vanished without a counted outcome.
    let m = server.metrics();
    assert_eq!(m.queries_ok, all.len() as u64);
    assert_eq!(m.writes, log.len() as u64);
    assert!(
        m.queries_ok + m.queries_failed + m.cancelled + m.deadline_exceeded + m.shed >= m.admitted,
        "an admitted query resolved without an outcome \
         (ok {} failed {} cancelled {} deadline {} shed {} admitted {})",
        m.queries_ok,
        m.queries_failed,
        m.cancelled,
        m.deadline_exceeded,
        m.shed,
        m.admitted
    );
}

#[test]
fn chaos_differential_2_clients() {
    chaos_round(2, 0xA11CE);
}

#[test]
fn chaos_differential_4_clients() {
    chaos_round(4, 0xB0B);
}

#[test]
fn chaos_differential_8_clients() {
    chaos_round(8, 0xCAFE);
}

/// Overload path: with one slot and no queue, a pinned heavy query
/// makes every newcomer shed *typed* — and once the slot frees, the
/// same server serves again. The deterministic retry helper turns the
/// shed into an eventual success.
#[test]
fn overload_sheds_typed_while_still_serving() {
    let server = Server::with_database(
        seed_db(),
        ServerConfig {
            admission: AdmissionConfig {
                max_active: 1,
                max_queued: 0,
                retry_after_hint: Duration::from_millis(1),
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let token = CancellationToken::new();
    let heavy = {
        let session = server.connect();
        let token = token.clone();
        std::thread::spawn(move || {
            session.query_opts(
                HEAVY,
                &QueryOpts {
                    cancel: Some(token),
                    ..QueryOpts::default()
                },
            )
        })
    };
    let start = Instant::now();
    while server.active_queries() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "heavy query never entered its slot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let session = server.connect();
    let shed = session
        .query(AGG)
        .expect_err("one slot, zero queue: must shed");
    assert!(
        matches!(
            shed,
            Error::Overloaded {
                retry_after_hint_ms: 1
            }
        ),
        "expected a typed Overloaded with the configured hint, got {shed}"
    );
    assert!(shed.is_retryable());
    assert!(server.metrics().shed >= 1);

    // Deterministic backoff: same seed, same attempt, same cause ⇒
    // byte-identical schedule on every machine.
    let policy = RetryPolicy {
        seed: 42,
        ..RetryPolicy::default()
    };
    assert_eq!(policy.delay(0, &shed), policy.delay(0, &shed));

    token.cancel();
    let heavy = heavy.join().expect("heavy client panicked");
    assert!(
        matches!(heavy, Err(Error::Cancelled)),
        "pinned query must end typed: {heavy:?}"
    );

    // The slot is free: the server kept its ability to serve.
    let resp = with_retry(&policy, |_| session.query(AGG)).expect("server must serve after shed");
    assert_eq!(resp.rows.len(), 8);
}

/// A deadline set on a query stuck in the admission queue expires
/// *in the queue* and comes back typed, with the session's budget
/// filled in.
#[test]
fn queued_deadline_expires_typed() {
    let server = Server::with_database(
        seed_db(),
        ServerConfig {
            admission: AdmissionConfig {
                max_active: 1,
                max_queued: 4,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let token = CancellationToken::new();
    let heavy = {
        let session = server.connect();
        let token = token.clone();
        std::thread::spawn(move || {
            session.query_opts(
                HEAVY,
                &QueryOpts {
                    cancel: Some(token),
                    ..QueryOpts::default()
                },
            )
        })
    };
    let start = Instant::now();
    while server.active_queries() == 0 {
        assert!(start.elapsed() < Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(1));
    }

    let session = server.connect();
    let e = session
        .query_opts(
            AGG,
            &QueryOpts {
                deadline: Some(Duration::from_millis(30)),
                ..QueryOpts::default()
            },
        )
        .expect_err("queued behind a pinned slot, a 30ms deadline must expire");
    match e {
        Error::DeadlineExceeded { budget_ms, .. } => assert_eq!(budget_ms, 30),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    assert!(server.metrics().deadline_exceeded >= 1);

    token.cancel();
    assert!(matches!(
        heavy.join().expect("heavy client panicked"),
        Err(Error::Cancelled)
    ));
}

/// Cancellation landing *mid-execution* (not before start) surfaces as
/// typed `Cancelled` and frees the active slot.
#[test]
fn mid_query_cancellation_is_typed() {
    let server = Server::with_database(seed_db(), ServerConfig::default());
    let session = server.connect();
    let token = CancellationToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };
    let e = session
        .query_opts(
            HEAVY,
            &QueryOpts {
                cancel: Some(token),
                ..QueryOpts::default()
            },
        )
        .expect_err("the cross product cannot finish before the cancel lands");
    assert!(matches!(e, Error::Cancelled), "got {e}");
    canceller.join().expect("canceller panicked");
    assert_eq!(server.active_queries(), 0);
    assert!(server.metrics().cancelled >= 1);
}

/// The reference server of the cached-vs-fresh comparisons: no plan
/// cache, and the oracle for an engine.
fn uncached_oracle_server() -> Server {
    let mut db = seed_db();
    common::make_oracle(&mut db);
    Server::with_database(db, ServerConfig::default()) // capacity 0
}

/// One read on [`uncached_oracle_server`], asserted to be what it says.
fn reference_rows(session: &gbj::server::Session, sql: &str) -> Vec<Vec<Value>> {
    let fresh = session.query(sql).unwrap();
    assert!(!fresh.cache_hit, "cache disabled on the reference server");
    common::assert_ran_oracle(fresh.metrics.path, &fresh.metrics.profile, sql);
    fresh.rows.sorted().rows
}

/// Satellite (d): a cached plan must produce byte-identical rows to a
/// fresh plan of the same SQL — across the whole read mix, and across
/// an epoch change that invalidates the cache.
#[test]
fn cached_plans_are_byte_identical_to_fresh_planned() {
    let cached = Server::with_database(seed_db(), ServerConfig::default().with_plan_cache(16));
    let fresh = uncached_oracle_server();
    let cs = cached.connect();
    let fs = fresh.connect();

    for sql in QUERIES {
        let miss = cs.query(sql).unwrap();
        assert!(!miss.cache_hit, "first sight of `{sql}` cannot hit");
        let hit = cs.query(sql).unwrap();
        assert!(
            hit.cache_hit,
            "second run of `{sql}` at the same epoch must hit"
        );
        assert_eq!(
            hit.rows.sorted().rows,
            miss.rows.sorted().rows,
            "`{sql}`: cached plan diverged from its own fresh planning"
        );
        assert_eq!(
            hit.rows.sorted().rows,
            reference_rows(&fs, sql),
            "`{sql}`: cached plan diverged from an uncached server"
        );
    }
    assert!(cached.plan_cache_len() > 0);

    // An epoch change makes every cached plan unreachable; the next
    // read re-plans and still matches the uncached server.
    let write = "INSERT INTO Emp VALUES (9000, 3, 77)";
    cs.execute_write(write).unwrap();
    fs.execute_write(write).unwrap();
    let after = cs.query(AGG).unwrap();
    assert!(
        !after.cache_hit,
        "epoch moved: the old plan must not be reused"
    );
    assert_eq!(
        after.rows.sorted().rows,
        reference_rows(&fs, AGG),
        "post-invalidation replan diverged from the uncached server"
    );
}

/// A stats-feedback absorption bumps the *plan* epoch (data epoch
/// untouched): cached plans stop matching, the next read re-costs with
/// the learned facts, and the re-costed plan stays byte-identical to a
/// cache-disabled server that absorbed the same facts.
#[test]
fn stats_feedback_recosts_cached_plans_byte_identically() {
    let cached = Server::with_database(seed_db(), ServerConfig::default().with_plan_cache(16));
    let fresh = uncached_oracle_server();
    let cs = cached.connect();
    let fs = fresh.connect();

    let first = cs.query(AGG).unwrap();
    assert!(cs.query(AGG).unwrap().cache_hit, "warm the cache");

    // Teach both servers the same measured facts.
    let delta = first.metrics.feedback.clone();
    assert!(!delta.is_empty(), "a metered run must produce facts");
    assert!(cached.absorb_feedback(&delta), "facts must be new");
    fresh.absorb_feedback(&delta);

    let recosted = cs.query(AGG).unwrap();
    assert!(
        !recosted.cache_hit,
        "stats epoch moved: the cached plan must be re-costed"
    );
    assert_eq!(
        recosted.epoch, first.epoch,
        "no write happened — the data epoch the replay oracle keys on is unchanged"
    );
    assert_eq!(
        recosted.rows.sorted().rows,
        first.rows.sorted().rows,
        "feedback re-costing must never change results"
    );
    assert_eq!(
        recosted.rows.sorted().rows,
        reference_rows(&fs, AGG),
        "re-costed cached server diverged from the uncached server"
    );

    // Absorbing the identical delta again is a no-op: the plan cached
    // at the new plan epoch keeps hitting (no cache thrash).
    assert!(!cached.absorb_feedback(&delta));
    assert!(cs.query(AGG).unwrap().cache_hit);
}

/// Satellite (b): the outcome counters are *event* counters — for a
/// fixed workload they are identical no matter how many client threads
/// carry it.
#[test]
fn counters_are_thread_count_invariant() {
    fn run(clients: usize) -> (u64, u64, u64, u64, u64, u64, u64) {
        let server = Server::with_database(
            seed_db(),
            ServerConfig {
                admission: AdmissionConfig {
                    max_active: 4,
                    max_queued: 64, // deep enough that nothing ever sheds
                    ..AdmissionConfig::default()
                },
                plan_cache_capacity: 8,
                ..ServerConfig::default()
            },
        );
        let total_ops = 24usize;
        let per_client = total_ops / clients;
        let mut handles = Vec::new();
        for t in 0..clients {
            let server = server.clone();
            handles.push(std::thread::spawn(move || {
                let session = server.connect();
                for i in 0..per_client {
                    session.query(AGG).expect("unfaulted read must succeed");
                    let key = 40_000 + (t * per_client + i) as i64;
                    session
                        .execute_write(&format!("INSERT INTO Emp VALUES ({key}, 1, 1)"))
                        .expect("unique-key insert must succeed");
                }
            }));
        }
        for h in handles {
            h.join().expect("client panicked");
        }
        let m = server.metrics();
        assert_eq!(m.cache_hits + m.cache_misses, total_ops as u64);
        (
            m.admitted,
            m.queries_ok,
            m.queries_failed,
            m.writes,
            m.shed,
            m.cancelled,
            m.deadline_exceeded,
        )
    }

    let serial = run(1);
    assert_eq!(serial, (24, 24, 0, 24, 0, 0, 0));
    assert_eq!(run(2), serial, "counters drift at 2 clients");
    assert_eq!(run(4), serial, "counters drift at 4 clients");
}

/// Single-client NULL-flip chaos is deterministic: flips are keyed by
/// `(seed, table, row_id, column)`, so two identically seeded servers
/// observe byte-identical (epoch, rows) sequences.
#[test]
fn single_client_null_chaos_is_deterministic() {
    fn run(seed: u64) -> Vec<(u64, Vec<Vec<Value>>)> {
        let mut db = seed_db();
        db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            seed,
            null_flip_one_in: Some(3),
            ..FaultConfig::default()
        })));
        let server = Server::with_database(db, ServerConfig::default().with_plan_cache(8));
        let session = server.connect();
        let mut out = Vec::new();
        for i in 0..10i64 {
            let resp = session.query(AGG).expect("flips never fail a query");
            out.push((resp.epoch, resp.rows.sorted().rows));
            session
                .execute_write(&format!(
                    "INSERT INTO Emp VALUES ({}, {}, {})",
                    60_000 + i,
                    i % 8,
                    i
                ))
                .expect("unique-key insert must succeed");
        }
        out
    }

    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "identical seeds must observe identical histories");
    assert_ne!(
        a,
        run(8),
        "a different seed must flip differently (otherwise the knob is dead)"
    );
}
