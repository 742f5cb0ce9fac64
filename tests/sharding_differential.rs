//! Sharded-execution differential harness.
//!
//! The contract under test: running a supported plan on the chunk
//! pipeline over `n` parts is **byte-identical** to the single-shard
//! row oracle — same canonical rows, same engine-invariant counter
//! fingerprint (`rows_in`/`rows_out`/`batches`/`hash_entries` per
//! operator) — at every shard count × thread count, for every pushdown
//! policy, including under seeded scan faults. Only the
//! shipped-rows/bytes counters may vary with the shard count (they
//! *are* the measurement), and at a fixed shard count even those are
//! deterministic across thread counts.
//!
//! On top of the safety net, the §7 distributed claim itself: with the
//! certified eager pre-aggregation pushed below the exchange as a
//! combiner, the eager plan must ship strictly fewer bytes than the
//! lazy plan on the fan-in workload — and the optimizer's predicted
//! `shipped_rows` must stay within a Q-error bound of the measured
//! counters.

use gbj::datagen::SweepConfig;
use gbj::engine::{PlanChoice, PushdownPolicy};
use gbj::exec::guard::row_bytes;
use gbj::storage::{FaultConfig, FaultInjector};
use gbj::types::GroupKey;
use gbj::{Database, Value};

mod common;

/// Shard counts to sweep: the powers of two from the issue matrix,
/// plus any `GBJ_TEST_SHARDS` override from the CI matrix.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 8];
    let default = gbj::engine::EngineOptions::default().exec.shards.get();
    if !counts.contains(&default) {
        counts.push(default);
    }
    counts
}

use common::thread_counts;

/// Canonical rows, counter fingerprint, plan choice and shipped
/// counters of one configured run.
struct Obs {
    rows: Vec<Vec<gbj::Value>>,
    fingerprint: Vec<(String, [u64; 4])>,
    choice: PlanChoice,
    shipped_rows: u64,
    shipped_bytes: u64,
    /// The distribution planner's prediction (`None` unless the run was
    /// sharded).
    predicted_shipped_rows: Option<f64>,
    /// `(is a scan that returned rows, vectors)` per profile node.
    kernels: Vec<(bool, u64)>,
}

fn kernels(p: &gbj::exec::ProfileNode, out: &mut Vec<(bool, u64)>) {
    out.push((p.children.is_empty() && p.rows_out > 0, p.metrics.vectors));
    p.children.iter().for_each(|c| kernels(c, out));
}

/// One run on the pipeline over `shards` parts on `threads` workers —
/// or, with `None`, the reference run: the oracle, asserted to be.
fn observe(
    db: &mut Database,
    policy: PushdownPolicy,
    cell: Option<(usize, usize)>,
    sql: &str,
) -> Obs {
    db.options_mut().policy = policy;
    let rows = match cell {
        None => {
            common::make_oracle(db);
            common::oracle_query(db, sql).expect("oracle runs")
        }
        Some((shards, threads)) => {
            db.set_vectorized(true);
            db.set_shards(std::num::NonZeroUsize::new(shards).expect("nonzero"));
            db.set_threads(std::num::NonZeroUsize::new(threads).expect("nonzero"));
            db.query(sql).expect("query runs")
        }
    };
    let m = db.last_query_metrics().expect("metrics recorded");
    let mut per_node = Vec::new();
    kernels(&m.profile, &mut per_node);
    Obs {
        rows: common::canon(&rows),
        fingerprint: m.profile.counter_fingerprint(),
        choice: m.choice,
        shipped_rows: m.shipped_rows,
        shipped_bytes: m.shipped_bytes,
        predicted_shipped_rows: m.predicted_shipped_rows,
        kernels: per_node,
    }
}

/// One sweep point: for each policy, every shards × threads cell of the
/// pipeline must reproduce the oracle's rows and counter fingerprint;
/// single-shard runs ship nothing; at a fixed shard count the shipped
/// counters are thread-invariant, and a prediction of zero shipped rows
/// means none were shipped — any shipped row was predicted (the
/// pipeline executes the tree the planner prices, so they agree on
/// *which* exchanges happen). The converse does not hold: a movement
/// whose rows all sit on their destination already ships nothing yet
/// is priced. And every scan that returned rows ran a kernel.
fn assert_point(db: &mut Database, sql: &str, ctx: &str) {
    for policy in [
        PushdownPolicy::Never,
        PushdownPolicy::Always,
        PushdownPolicy::CostBased,
    ] {
        let oracle = observe(db, policy, None, sql);
        assert_eq!(
            (oracle.shipped_rows, oracle.shipped_bytes),
            (0, 0),
            "{ctx}: the oracle must not ship"
        );
        for &shards in &shard_counts() {
            let mut shipped_at: Option<(u64, u64)> = None;
            for &threads in &thread_counts() {
                let got = observe(db, policy, Some((shards, threads)), sql);
                let at = format!("shards={shards} threads={threads}");
                assert!(
                    got.kernels
                        .iter()
                        .all(|(scan, vectors)| !scan || *vectors > 0),
                    "{ctx}: {policy:?} a scan ran no kernel at {at}: {:?}",
                    got.kernels
                );
                assert_eq!(
                    got.rows, oracle.rows,
                    "{ctx}: {policy:?} rows diverged at {at}"
                );
                assert_eq!(
                    got.choice, oracle.choice,
                    "{ctx}: {policy:?} plan choice must not depend on shards"
                );
                assert_eq!(
                    got.fingerprint, oracle.fingerprint,
                    "{ctx}: {policy:?} counter fingerprint diverged at {at}"
                );
                if let Some(predicted) = got.predicted_shipped_rows {
                    assert!(
                        predicted > 0.0 || got.shipped_rows == 0,
                        "{ctx}: {policy:?} predicted {predicted} shipped rows, measured {} \
                         at shards={shards}",
                        got.shipped_rows
                    );
                }
                let shipped = (got.shipped_rows, got.shipped_bytes);
                if shards == 1 {
                    assert_eq!(shipped, (0, 0), "{ctx}: one part must not ship");
                }
                match shipped_at {
                    None => shipped_at = Some(shipped),
                    Some(first) => assert_eq!(
                        shipped, first,
                        "{ctx}: {policy:?} shipped counters must be deterministic at {at}"
                    ),
                }
            }
        }
    }
}

/// Fan-in × selectivity × skew sweep over the full shard matrix.
#[test]
fn sweep_sharded_byte_identity() {
    for &groups in &[10usize, 500] {
        for &match_fraction in &[0.05f64, 1.0] {
            let cfg = SweepConfig {
                fact_rows: 2000,
                dim_rows: 100,
                groups,
                match_fraction,
                skew: 0.0,
            };
            let mut db = cfg.build().expect("build");
            let ctx = format!("groups={groups} match={match_fraction}");
            assert_point(&mut db, cfg.query(), &ctx);
        }
    }
}

/// Shard-skew edge: heavy key skew concentrates most rows on one shard;
/// results and fingerprints must not care.
#[test]
fn skewed_keys_byte_identity() {
    let cfg = SweepConfig {
        fact_rows: 3000,
        dim_rows: 50,
        groups: 50,
        match_fraction: 1.0,
        skew: 2.0,
    };
    let mut db = cfg.build().expect("build");
    assert_point(&mut db, cfg.query(), "skew=2.0");
}

/// Empty-shard edge: two distinct join keys at eight shards leaves most
/// shards with no rows after the exchange.
#[test]
fn empty_shards_byte_identity() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(8)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER); \
         INSERT INTO Dim VALUES (1, 'a'), (2, 'b');",
    )
    .expect("ddl");
    for i in 0..200i64 {
        db.execute(&format!(
            "INSERT INTO Fact VALUES ({i}, {}, {i})",
            1 + i % 2
        ))
        .expect("insert");
    }
    let sql = "SELECT D.DimId, D.Cat, COUNT(F.FId), SUM(F.V) \
               FROM Fact F, Dim D WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat";
    assert_point(&mut db, sql, "two keys, eight shards");
}

/// All-NULL-key edge: every Fact join key is NULL (one `=ⁿ` group that
/// routes to a single deterministic shard and survives no join), plus
/// an all-NULL declared partition key on the same column.
#[test]
fn all_null_keys_byte_identity() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(8)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER); \
         INSERT INTO Dim VALUES (1, 'a'), (2, 'b');",
    )
    .expect("ddl");
    for i in 0..64i64 {
        db.execute(&format!("INSERT INTO Fact VALUES ({i}, NULL, {i})"))
            .expect("insert");
    }
    db.declare_partition_key("Fact", &["K"]).expect("declare");
    let sql = "SELECT D.DimId, COUNT(F.FId) \
               FROM Fact F, Dim D WHERE F.K = D.DimId GROUP BY D.DimId";
    assert_point(&mut db, sql, "all-NULL join/partition key");
    // Scalar aggregate over the all-NULL table: gather path.
    let gather = "SELECT COUNT(F.FId), SUM(F.V) FROM Fact F";
    assert_point(&mut db, gather, "all-NULL scalar gather");
    // The scan puts all 64 rows on the NULL key's part; the gather to
    // part 0 ships all of them or, when that part is 0, none.
    for shards in [2usize, 4, 8] {
        let null_part = GroupKey(vec![Value::Null]).shard(shards);
        let got = observe(
            &mut db,
            PushdownPolicy::CostBased,
            Some((shards, 1)),
            gather,
        );
        let expect = if null_part == 0 { 0 } else { 64 };
        assert_eq!(got.shipped_rows, expect, "part {null_part} of {shards}");
    }
}

/// A declared partition key on the join column must strictly reduce
/// shipped bytes (the scan side arrives co-partitioned), without
/// changing results.
#[test]
fn declared_partition_key_reduces_shipping() {
    let cfg = SweepConfig {
        fact_rows: 4000,
        dim_rows: 100,
        groups: 100,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let build = || cfg.build().expect("build");
    let mut plain = build();
    let mut keyed = build();
    keyed
        .declare_partition_key("Fact", &["DimId"])
        .expect("declare");
    keyed
        .declare_partition_key("Dim", &["DimId"])
        .expect("declare");
    let a = observe(&mut plain, PushdownPolicy::Never, Some((4, 1)), cfg.query());
    let b = observe(&mut keyed, PushdownPolicy::Never, Some((4, 1)), cfg.query());
    assert_eq!(a.rows, b.rows, "partition keys are physical only");
    assert!(
        b.shipped_bytes < a.shipped_bytes,
        "declared keys must reduce shipping: {} vs {}",
        b.shipped_bytes,
        a.shipped_bytes
    );
}

/// Grouping on the partition key plus one more column, both tables
/// keyed on the join column: the pre-aggregation is co-located, the key
/// survives it, and the join above needs no exchange. The runner has
/// shipped nothing here since it learned to keep the key through a
/// co-located aggregate; the planner, then a separate walk, still
/// predicted a repartition (105 rows, a shipped q-error of 105).
#[test]
fn key_surviving_a_colocated_aggregate_predicts_no_shipping() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(8)); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, DimId INTEGER, Tag INTEGER);",
    )
    .expect("ddl");
    for d in 0..20i64 {
        db.execute(&format!("INSERT INTO Dim VALUES ({d}, 'c{d}')"))
            .expect("insert");
    }
    // 20 x 7 = 140 distinct (DimId, Tag) groups.
    for i in 0..560i64 {
        db.execute(&format!(
            "INSERT INTO Fact VALUES ({i}, {}, {})",
            i % 20,
            i % 7
        ))
        .expect("insert");
    }
    db.declare_partition_key("Fact", &["DimId"])
        .expect("declare");
    db.declare_partition_key("Dim", &["DimId"])
        .expect("declare");
    let sql = "SELECT D.DimId, F.Tag, COUNT(F.FId) FROM Fact F, Dim D \
               WHERE F.DimId = D.DimId GROUP BY D.DimId, F.Tag";
    for policy in [PushdownPolicy::Always, PushdownPolicy::Never] {
        let got = observe(&mut db, policy, Some((4, 1)), sql);
        assert_eq!(got.shipped_rows, 0, "{policy:?}: co-partitioned throughout");
        assert_eq!(got.predicted_shipped_rows, Some(0.0), "{policy:?}");
        let m = db.last_query_metrics().expect("metrics");
        assert_eq!(m.shipped_q_error(), Some(1.0), "{policy:?}");
    }
    assert_point(&mut db, sql, "group by partition key + tag");
}

/// X17's lazy and eager shipped bytes at `n` parts from their row-form
/// definition, not from the pipeline: a row crosses the wire when
/// `GroupKey::shard` of its key differs from the part it sits on, and
/// costs `8 + row_bytes(row)`. Nothing is declared, so both scans deal
/// round-robin on the row ordinal (insertion order, which the primary
/// keys restate). The lazy plan repartitions every `Fact` row (the
/// three columns the query reads) and every `Dim` row (its `DimId`, the
/// one column read) on `DimId`. The eager plan repartitions `Dim` and
/// ships one partial per origin part per group: its key, with one
/// 48-byte accumulator entry per aggregate (two) in place of payload.
fn x17_row_form_bytes(db: &Database, n: usize) -> (u64, u64) {
    let moves = |key: &Value, origin: usize| GroupKey(vec![key.clone()]).shard(n) != origin;
    let scan = |sql: &str| db.query(sql).expect("table scan").rows;
    let facts = scan("SELECT FactId, DimId, V FROM Fact ORDER BY FactId");
    let dims = scan("SELECT DimId FROM Dim ORDER BY DimId");
    let shipped = |rows: &[Vec<Value>], key: usize| -> u64 {
        let leaving = rows
            .iter()
            .enumerate()
            .filter(|(i, r)| moves(&r[key], i % n));
        leaving.map(|(_, r)| 8 + row_bytes(r)).sum()
    };
    let dim_bytes = shipped(&dims, 0);
    let mut partials: Vec<(usize, i64)> = facts
        .iter()
        .enumerate()
        .filter_map(|(i, r)| match r[1] {
            Value::Int(k) => Some((i % n, k)),
            _ => None,
        })
        .collect();
    partials.sort_unstable();
    partials.dedup();
    let partial_bytes: u64 = partials
        .iter()
        .filter(|(origin, k)| moves(&Value::Int(*k), *origin))
        .map(|_| 8 + row_bytes(&[Value::Int(0)]) + 2 * 48)
        .sum();
    (shipped(&facts, 1) + dim_bytes, partial_bytes + dim_bytes)
}

/// **The acceptance criterion.** On the fan-in workload (X17) with no
/// declared partition keys, the certified eager plan (whose
/// pre-aggregation runs as a combiner below the exchange) must ship
/// fewer bytes than the lazy plan — the paper's §7 claim as a measured
/// number, not a model output. Placement and wire pricing are
/// deterministic, so the bytes are pinned exactly at 2, 4 and 8 shards,
/// and the pins are re-derived from the row form of the byte model.
#[test]
fn eager_combiner_ships_fewer_bytes_than_lazy_at_2_4_8_shards() {
    let cfg = SweepConfig {
        fact_rows: 10_000,
        dim_rows: 100,
        groups: 100,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let mut db = cfg.build().expect("build");
    for (shards, lazy_bytes, eager_bytes) in [
        (2, 554_168, 11_024),
        (4, 826_024, 16_432),
        (8, 935_672, 32_080),
    ] {
        assert_eq!(
            x17_row_form_bytes(&db, shards),
            (lazy_bytes, eager_bytes),
            "row-form lazy / eager bytes at {shards} shards"
        );
        let lazy = observe(
            &mut db,
            PushdownPolicy::Never,
            Some((shards, 1)),
            cfg.query(),
        );
        let eager = observe(
            &mut db,
            PushdownPolicy::Always,
            Some((shards, 1)),
            cfg.query(),
        );
        assert_eq!(lazy.rows, eager.rows, "shapes must agree on rows");
        assert_eq!(lazy.choice, PlanChoice::Lazy);
        assert_eq!(eager.choice, PlanChoice::Eager);
        assert_eq!(
            (lazy.shipped_bytes, eager.shipped_bytes),
            (lazy_bytes, eager_bytes),
            "lazy / eager shipped bytes at {shards} shards"
        );
        // And the profile must show the combiner actually ran.
        let m = db.last_query_metrics().expect("metrics");
        assert!(
            m.profile.find_operator("CombinerHashAggregate").is_some(),
            "certified eager plan at {shards} shards must run its \
             pre-aggregation as a combiner:\n{}",
            m.profile.display_tree_with_metrics()
        );
    }
}

/// The distribution planner's `shipped_rows` prediction must stay
/// within a Q-error bound of the measured exchange counters, for both
/// shapes — and absorbing a round of cardinality feedback must not make
/// it materially worse.
#[test]
fn shipped_prediction_q_error_bounded_and_feedback_safe() {
    // `groups` is coprime to every shard count so the round-robin scan
    // distribution leaves every group represented on every shard — the
    // distribution model's worst-case partial count is then exact
    // rather than an upper bound.
    let cfg = SweepConfig {
        fact_rows: 6000,
        dim_rows: 200,
        groups: 101,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let mut db = cfg.build().expect("build");
    db.options_mut().adaptive = true;
    for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
        observe(&mut db, policy, Some((4, 1)), cfg.query());
        let first = db
            .last_query_metrics()
            .expect("metrics")
            .shipped_q_error()
            .expect("sharded run must carry a prediction");
        assert!(
            first <= 2.0,
            "{policy:?}: predicted vs measured shipped rows q-error {first}"
        );
        // Second run plans with absorbed feedback: the audit must not
        // degrade materially.
        observe(&mut db, policy, Some((4, 1)), cfg.query());
        let second = db
            .last_query_metrics()
            .expect("metrics")
            .shipped_q_error()
            .expect("prediction");
        assert!(
            second <= first * 1.1,
            "{policy:?}: feedback worsened the shipped audit: {first} -> {second}"
        );
    }
}

/// Seeded scan faults behave identically with and without shards: the
/// sharded scan is the same serial cursor, so NULL flips produce the
/// same rows and injected batch failures fail every configuration.
#[test]
fn faults_identical_across_shard_counts() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let cfg = SweepConfig {
        fact_rows: 500,
        dim_rows: 20,
        groups: 20,
        match_fraction: 1.0,
        skew: 0.0,
    };
    // `None` is the reference run: the oracle, asserted to be.
    let run =
        move |db: &mut Database, shards: Option<usize>| -> Result<Vec<Vec<gbj::Value>>, String> {
            if let Some(inj) = db.fault_injector() {
                inj.reset();
            }
            let query = AssertUnwindSafe(|| match shards {
                None => common::as_oracle(db, |db| common::oracle_query(db, cfg.query())),
                Some(shards) => {
                    db.set_vectorized(true);
                    db.set_shards(std::num::NonZeroUsize::new(shards).expect("nonzero"));
                    db.query(cfg.query())
                }
            });
            match catch_unwind(query) {
                Ok(Ok(rows)) => Ok(common::canon(&rows)),
                Ok(Err(e)) => Err(e.kind().to_string()),
                Err(_) => Err("PANIC".to_string()),
            }
        };
    for seed in 0..8u64 {
        // NULL flips: same flipped cells at every shard count.
        let mut db = cfg.build().expect("build");
        db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            seed,
            null_flip_one_in: Some(3),
            batch_size: Some(7),
            ..FaultConfig::default()
        })));
        let oracle = run(&mut db, None);
        for shards in [1usize, 2, 4, 8] {
            assert_eq!(
                run(&mut db, Some(shards)),
                oracle,
                "seed {seed}: NULL-flip divergence at {shards} shards"
            );
        }
        // Batch failure: every shard count observes the same error.
        db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
            seed,
            fail_nth_batch: Some(0),
            ..FaultConfig::default()
        })));
        let oracle = run(&mut db, None);
        assert!(
            oracle.is_err(),
            "seed {seed}: injected failure must surface"
        );
        for shards in [1usize, 2, 4, 8] {
            assert_eq!(
                run(&mut db, Some(shards)),
                oracle,
                "seed {seed}: fault error divergence at {shards} shards"
            );
        }
    }
}

/// The scan split under faults: over a `Fact` of two sealed blocks and
/// a tail — placed by row ordinal, by its `Int` key and by its string
/// column — every part count returns the oracle's rows, raises its
/// first error and reproduces its counter fingerprint, whether the
/// cursor hands out whole blocks (whose splits storage keeps), cuts
/// them short, flips cells to NULL, or fails a batch part-way through.
#[test]
fn scan_split_under_faults_matches_the_oracle() {
    let queries = [
        "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) FROM Fact F, Dim D \
         WHERE F.DimId = D.DimId GROUP BY D.DimId",
        "SELECT F.Tag, COUNT(F.FactId), MIN(F.V) FROM Fact F WHERE F.V < 300 GROUP BY F.Tag",
        "SELECT D.Cat, COUNT(F.FactId) FROM Fact F, Dim D \
         WHERE F.DimId = D.DimId AND F.V >= 500 GROUP BY D.Cat",
    ];
    let faults = [
        FaultConfig::default(),
        FaultConfig {
            seed: 3,
            null_flip_one_in: Some(4),
            batch_size: Some(333),
            ..FaultConfig::default()
        },
        FaultConfig {
            seed: 4,
            null_flip_one_in: Some(9),
            ..FaultConfig::default()
        },
        FaultConfig {
            seed: 5,
            fail_nth_batch: Some(2),
            ..FaultConfig::default()
        },
        FaultConfig {
            seed: 6,
            batch_size: Some(700),
            fail_nth_batch: Some(3),
            ..FaultConfig::default()
        },
    ];
    // Rows or the error text, and the fingerprint of a run that succeeded.
    type Outcome = (
        Result<Vec<Vec<Value>>, String>,
        Option<Vec<(String, [u64; 4])>>,
    );
    let run = |db: &mut Database, shards: Option<usize>, sql: &str| -> Outcome {
        if let Some(inj) = db.fault_injector() {
            inj.reset();
        }
        let rows = match shards {
            None => common::as_oracle(db, |db| common::oracle_query(db, sql)),
            Some(shards) => {
                db.set_vectorized(true);
                db.set_shards(std::num::NonZeroUsize::new(shards).expect("nonzero"));
                db.query(sql)
            }
        };
        match rows {
            Ok(rows) => {
                let m = db.last_query_metrics().expect("metrics recorded");
                (
                    Ok(common::canon(&rows)),
                    Some(m.profile.counter_fingerprint()),
                )
            }
            Err(e) => (Err(e.to_string()), None),
        }
    };
    for placement in [None, Some("FactId"), Some("Tag")] {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(20) NOT NULL); \
             CREATE TABLE Fact (FactId INTEGER PRIMARY KEY, DimId INTEGER, V INTEGER, \
                                Tag VARCHAR(20));",
        )
        .expect("ddl");
        let cat = |d: i64| Value::str(format!("cat{}", d % 7));
        db.insert_rows("Dim", (0..60).map(|d| vec![Value::Int(d), cat(d)]))
            .expect("dims");
        let fact = |f: i64| {
            let tag = (f % 11 != 0).then(|| Value::str(format!("tag{}", f % 13)));
            vec![
                Value::Int(f),
                Value::Int(f * 7 % 90),
                Value::Int(f * 37 % 1000),
                tag.unwrap_or(Value::Null),
            ]
        };
        db.insert_rows("Fact", (0..2600).map(fact)).expect("facts");
        if let Some(column) = placement {
            db.declare_partition_key("Fact", &[column])
                .expect("declare");
        }
        for fault in &faults {
            db.set_fault_injector(Some(FaultInjector::new(*fault)));
            for sql in queries {
                let oracle = run(&mut db, None, sql);
                for shards in [1usize, 2, 3, 4, 8] {
                    assert_eq!(
                        run(&mut db, Some(shards), sql),
                        oracle,
                        "placement {placement:?}, {fault:?}, {shards} parts: {sql}"
                    );
                }
            }
        }
    }
}

/// Serving layer: a snapshot read covers all shards of one epoch —
/// reconfiguring the server to 4 shards changes neither results nor
/// the epoch/read-your-writes contract.
#[test]
fn server_snapshot_epoch_covers_all_shards() {
    use gbj::server::{Server, ServerConfig};
    let cfg = SweepConfig {
        fact_rows: 1000,
        dim_rows: 50,
        groups: 50,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let db = cfg.build().expect("build");
    let single = {
        let mut d = cfg.build().expect("build");
        common::make_oracle(&mut d);
        common::canon(&common::oracle_query(&d, cfg.query()).expect("query"))
    };
    let server = Server::with_database(db, ServerConfig::default());
    server.reconfigure(|d| {
        d.set_vectorized(true);
        d.set_shards(std::num::NonZeroUsize::new(4).expect("nonzero"));
    });
    let session = server.connect();
    let resp = session.query(cfg.query()).expect("snapshot read");
    assert_eq!(
        common::canon(&resp.rows),
        single,
        "sharded snapshot read must equal single-shard"
    );
    assert_eq!(resp.epoch, server.epoch(), "read at the published epoch");
    assert_eq!(resp.metrics.shards, 4, "metrics must reflect the shards");
    // A write bumps the epoch; the next sharded read sees it.
    let w = session
        .execute_write("INSERT INTO Dim VALUES (100000, 'new')")
        .expect("write");
    assert!(w.epoch_after > resp.epoch, "write must advance the epoch");
    let resp2 = session.query(cfg.query()).expect("second read");
    assert_eq!(resp2.epoch, w.epoch_after, "read-your-writes across shards");
}

/// GBJ502: at shards > 1, a chosen plan with an uncertified aggregate
/// below a join gets the combiner-not-certified lint; the same query at
/// one shard stays clean, and a certified rewrite never triggers it.
#[test]
fn lint_flags_uncertified_aggregate_below_join_at_shards() {
    let cfg = SweepConfig {
        fact_rows: 100,
        dim_rows: 10,
        groups: 10,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let mut db = cfg.build().expect("build");
    // Written-form aggregate below a join that cannot be unfolded (the
    // outer filter references the aggregate output, which would need a
    // HAVING clause), hence no certificate.
    db.execute("CREATE VIEW T (K, c) AS SELECT DimId, COUNT(FactId) FROM Fact GROUP BY DimId")
        .expect("view");
    let sql = "SELECT D.Cat, T.c FROM T, Dim D WHERE T.K = D.DimId AND T.c > 0";
    let has_502 = |db: &Database| {
        db.lint_select(sql)
            .expect("lint")
            .codes()
            .contains(&gbj::analyze::Code::CombinerNotCertified)
    };
    // Pin one shard explicitly: GBJ_TEST_SHARDS changes the default.
    db.set_shards(std::num::NonZeroUsize::MIN);
    assert!(!has_502(&db), "single-shard must not warn");
    db.set_shards(std::num::NonZeroUsize::new(4).expect("nonzero"));
    assert!(
        has_502(&db),
        "uncertified aggregate-below-join at 4 shards must lint GBJ502"
    );
    // A certified eager rewrite carries its certificate: clean.
    db.options_mut().policy = PushdownPolicy::Always;
    let certified = db
        .lint_select(cfg.query())
        .expect("lint")
        .codes()
        .contains(&gbj::analyze::Code::CombinerNotCertified);
    assert!(!certified, "certified rewrites must not lint GBJ502");
}
