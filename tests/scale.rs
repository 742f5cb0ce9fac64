//! Larger-scale end-to-end checks, plus a machine-independent test of
//! the cost model's *decision quality*: across the Section 7 sweep
//! grid, the engine's cost-based choice must match the plan that
//! demonstrably does less work — measured as total rows produced by all
//! operators (deterministic, unlike wall-clock time).

use gbj::datagen::{EmpDeptConfig, SweepConfig};
use gbj::engine::{PlanChoice, PushdownPolicy};
use gbj::exec::ProfileNode;
use gbj::Value;

mod common;

fn total_rows_produced(p: &ProfileNode) -> usize {
    p.rows_out + p.children.iter().map(total_rows_produced).sum::<usize>()
}

#[test]
fn emp_dept_at_20k_scale() {
    let cfg = EmpDeptConfig {
        employees: 20_000,
        departments: 200,
        null_dept_fraction: 0.01,
        seed: 99,
    };
    let mut db = cfg.build().unwrap();
    db.options_mut().policy = PushdownPolicy::Always;
    let (eager, eager_profile, _) = db.query_report(cfg.query()).unwrap();
    db.options_mut().policy = PushdownPolicy::Never;
    let (lazy, lazy_profile, _) = db.query_report(cfg.query()).unwrap();

    assert_eq!(lazy.len(), 200);
    assert!(lazy.multiset_eq(&eager));
    // Sanity on the totals: ~99% of employees are counted.
    let total: i64 = lazy
        .rows
        .iter()
        .map(|r| match r[2] {
            Value::Int(n) => n,
            _ => 0,
        })
        .sum();
    assert!(total > 19_000 && total <= 20_000, "total = {total}");
    // The eager plan does meaningfully less work here (both plans pay
    // the 20k-row scan; the lazy plan additionally pushes 20k rows
    // through the join).
    let we = total_rows_produced(&eager_profile);
    let wl = total_rows_produced(&lazy_profile);
    assert!(
        (we as f64) < 0.8 * wl as f64,
        "eager work {we} should be at least 20% under lazy work {wl}"
    );
}

/// Decision quality across the sweep grid: wherever the two plans'
/// work differs by ≥ 30%, the engine's cost-based choice picks the
/// lighter one.
#[test]
fn cost_based_choice_tracks_actual_work() {
    let grid = [
        // (groups, match_fraction) spanning both regimes.
        (10usize, 1.0f64),
        (100, 1.0),
        (2_000, 1.0),
        (4_000, 0.5),
        (4_000, 0.05),
        (4_000, 0.01),
    ];
    for (groups, frac) in grid {
        let cfg = SweepConfig {
            fact_rows: 5_000,
            dim_rows: 100.max(groups.min(1_000)),
            groups,
            match_fraction: frac,
            ..SweepConfig::default()
        };
        let mut db = cfg.build().unwrap();

        db.options_mut().policy = PushdownPolicy::Always;
        let (_, ep, _) = db.query_report(cfg.query()).unwrap();
        db.options_mut().policy = PushdownPolicy::Never;
        let (_, lp, _) = db.query_report(cfg.query()).unwrap();
        let (we, wl) = (total_rows_produced(&ep), total_rows_produced(&lp));

        db.options_mut().policy = PushdownPolicy::CostBased;
        let choice = db.plan_query(cfg.query()).unwrap().choice;

        let clear_cut = we.max(wl) as f64 / we.min(wl).max(1) as f64 >= 1.3;
        if clear_cut {
            let should_be_eager = we < wl;
            let picked_eager = choice == PlanChoice::Eager;
            assert_eq!(
                picked_eager, should_be_eager,
                "groups={groups} frac={frac}: work eager={we} lazy={wl}, choice={choice:?}"
            );
        }
    }
}

/// Adversarial parts-vs-oracle stress at ≥100k rows: one seeded Fact
/// table mixing the three regimes that break naive partitioned
/// aggregation — Zipf-skewed groups (one part takes half the rows),
/// all-NULL group keys (the `=ⁿ` NULL group lands whole on one part),
/// and a single mega-group (maximum merging of partials) — plus
/// dangling and matching join keys. The pipeline's results must be the
/// oracle's — byte for byte at one part, as the same multiset over
/// four parts on 4 and 8 threads — for both plan shapes. Row counts are
/// `--release`-friendly: one build, a handful of queries.
#[test]
fn parallel_stress_at_100k_rows_matches_serial() {
    use gbj::engine::Database;
    use std::num::NonZeroUsize;

    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Dim (DimId INTEGER PRIMARY KEY, Cat VARCHAR(5) NOT NULL); \
         CREATE TABLE Fact (FId INTEGER PRIMARY KEY, K INTEGER, V INTEGER);",
    )
    .unwrap();
    db.insert_rows(
        "Dim",
        (0..64i64).map(|d| vec![Value::Int(d), Value::Str(format!("c{}", d % 5))]),
    )
    .unwrap();
    // Deterministic xorshift so the instance is seeded and replayable.
    let mut state = 0x5ca1_e100u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    const N: i64 = 120_000;
    db.insert_rows(
        "Fact",
        (0..N).map(|i| {
            let k = match i % 3 {
                // Regime 1: Zipf-ish skew — key 0 gets ~half the rows,
                // the tail spreads over 64 keys (some dangling: >= 64
                // never matches Dim).
                0 => {
                    let r = next();
                    if r % 2 == 0 {
                        Value::Int(0)
                    } else {
                        Value::Int((r % 80) as i64)
                    }
                }
                // Regime 2: all-NULL group keys — one `=ⁿ` group.
                1 => Value::Null,
                // Regime 3: single mega-group.
                _ => Value::Int(7),
            };
            let v = if next() % 11 == 0 {
                Value::Null
            } else {
                Value::Int((next() % 1_000) as i64 - 500)
            };
            vec![Value::Int(i), k, v]
        }),
    )
    .unwrap();

    let queries = [
        "SELECT F.K, COUNT(F.FId), SUM(F.V), MIN(F.V), MAX(F.V) FROM Fact F GROUP BY F.K",
        "SELECT D.DimId, D.Cat, COUNT(F.FId), SUM(F.V) FROM Fact F, Dim D \
         WHERE F.K = D.DimId GROUP BY D.DimId, D.Cat",
    ];
    for sql in queries {
        for policy in [PushdownPolicy::Never, PushdownPolicy::Always] {
            db.options_mut().policy = policy;
            let serial = common::as_oracle(&mut db, |db| common::oracle_query(db, sql)).unwrap();
            db.set_vectorized(true);
            for (parts, threads) in [(1usize, 8usize), (4, 4), (4, 8)] {
                db.set_shards(NonZeroUsize::new(parts).unwrap());
                db.set_threads(NonZeroUsize::new(threads).unwrap());
                let got = db.query(sql).unwrap();
                let ctx = format!("parts={parts} threads={threads} policy={policy:?}: {sql}");
                if parts == 1 {
                    // Byte-identical rows, not just multiset equality.
                    assert_eq!(got.rows, serial.rows, "{ctx}");
                } else {
                    assert_eq!(common::canon(&got), common::canon(&serial), "{ctx}");
                }
            }
        }
    }
}

/// The §7 invariant at scale, measured: eager join input ≤ lazy join
/// input at every grid point.
#[test]
fn join_input_invariant_at_scale() {
    for (groups, frac) in [(50usize, 1.0f64), (4_500, 0.02), (5_000, 1.0)] {
        let cfg = SweepConfig {
            fact_rows: 5_000,
            dim_rows: 100,
            groups,
            match_fraction: frac,
            ..SweepConfig::default()
        };
        let mut db = cfg.build().unwrap();
        let join_in = |p: &ProfileNode| common::find_join(p).map(ProfileNode::rows_in).unwrap_or(0);
        db.options_mut().policy = PushdownPolicy::Always;
        let (_, ep, _) = db.query_report(cfg.query()).unwrap();
        db.options_mut().policy = PushdownPolicy::Never;
        let (_, lp, _) = db.query_report(cfg.query()).unwrap();
        assert!(
            join_in(&ep) <= join_in(&lp),
            "groups={groups} frac={frac}: {} > {}",
            join_in(&ep),
            join_in(&lp)
        );
    }
}
