//! Plan-choice differential harness for the cost-based eager/lazy
//! decision (PR 8's tentpole).
//!
//! Three layers of proof, from safety to quality to learning:
//!
//! 1. **Correctness is unconditional.** Whatever the cost model picks,
//!    eager and lazy must stay byte-identical — same canonical rows
//!    across shapes, and within each shape the engine-invariant counter
//!    fingerprint must not move between the oracle and the pipeline,
//!    at any thread count. The sweep spans the four axes that bend
//!    the decision: join fan-in, join selectivity, key skew, and NULL
//!    group keys.
//! 2. **The choice is empirically right at the extremes.** On an
//!    X-series instance built to crush one shape, the cost-based plan
//!    must both (a) be the shape the model predicts and (b) not lose a
//!    best-of-N wall-clock race against the rejected shape by more than
//!    a generous tolerance.
//! 3. **The adaptive loop is monotone.** With feedback absorption on,
//!    repeated runs of a query whose initial estimates are wrong must
//!    converge to the empirically faster shape within a few rounds and
//!    never flip back.

use std::time::{Duration, Instant};

use gbj::datagen::{EmpDeptConfig, SweepConfig};
use gbj::engine::{PlanChoice, PushdownPolicy};
use gbj::Database;

mod common;

use common::thread_counts;

/// Canonical rows, counter fingerprint and plan choice of one run.
type Observation = (Vec<Vec<gbj::Value>>, Vec<(String, [u64; 4])>, PlanChoice);

/// One run under `policy`: on the oracle — asserted to be — with
/// `threads: None`, else on the pipeline at the environment's part
/// count on `threads` workers.
fn observe(
    db: &mut Database,
    policy: PushdownPolicy,
    threads: Option<usize>,
    sql: &str,
) -> Observation {
    db.options_mut().policy = policy;
    let rows = match threads {
        None => common::as_oracle(db, |db| common::oracle_query(db, sql)),
        Some(threads) => {
            db.set_vectorized(true);
            db.set_threads(std::num::NonZeroUsize::new(threads).expect("nonzero"));
            db.query(sql)
        }
    }
    .expect("query runs");
    let metrics = db.last_query_metrics().expect("metrics recorded");
    (
        common::canon(&rows),
        metrics.profile.counter_fingerprint(),
        metrics.choice,
    )
}

/// One sweep point: every policy agrees on rows with the lazy plan on
/// the oracle, and each policy's counter fingerprint and plan choice on
/// the pipeline, at every thread count, are the oracle's.
fn assert_point(db: &mut Database, sql: &str, ctx: &str) {
    let (oracle_rows, _, _) = observe(db, PushdownPolicy::Never, None, sql);
    for policy in [
        PushdownPolicy::Never,
        PushdownPolicy::Always,
        PushdownPolicy::CostBased,
    ] {
        let (_, base_fp, base_choice) = observe(db, policy, None, sql);
        for &threads in &thread_counts() {
            let (rows, fp, choice) = observe(db, policy, Some(threads), sql);
            assert_eq!(
                rows, oracle_rows,
                "{ctx}: {policy:?} rows diverged at threads={threads}"
            );
            assert_eq!(
                choice, base_choice,
                "{ctx}: {policy:?} plan choice must not depend on the engine"
            );
            assert_eq!(
                fp, base_fp,
                "{ctx}: {policy:?} counter fingerprint diverged at threads={threads}"
            );
        }
    }
}

/// Fan-in × selectivity × skew sweep: the cost decision may land either
/// way, but results never move.
#[test]
fn sweep_eager_lazy_byte_identity() {
    for &groups in &[10usize, 2000] {
        for &match_fraction in &[0.05f64, 1.0] {
            for &skew in &[0.0f64, 1.5] {
                let cfg = SweepConfig {
                    fact_rows: 4000,
                    dim_rows: 200,
                    groups,
                    match_fraction,
                    skew,
                };
                let mut db = cfg.build().expect("build");
                let ctx = format!("groups={groups} match={match_fraction} skew={skew}");
                assert_point(&mut db, cfg.query(), &ctx);
            }
        }
    }
}

/// NULL group-key axis (Example 1 shape): NULL forms its own group
/// below the join but never survives it — both shapes must agree at
/// every NULL fraction.
#[test]
fn sweep_null_fraction_byte_identity() {
    for &null_fraction in &[0.0f64, 0.3, 0.9] {
        let cfg = EmpDeptConfig {
            employees: 3000,
            departments: 40,
            null_dept_fraction: null_fraction,
            seed: 7,
        };
        let mut db = cfg.build().expect("build");
        let ctx = format!("null_fraction={null_fraction}");
        assert_point(&mut db, cfg.query(), &ctx);
    }
}

/// Median wall time of `runs` executions under `policy`.
fn timed(db: &mut Database, policy: PushdownPolicy, sql: &str, runs: usize) -> Duration {
    db.options_mut().policy = policy;
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            db.query(sql).expect("query runs");
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[runs / 2]
}

/// The shape the cost model picked must not lose the wall-clock race
/// against the rejected shape by more than `tolerance`×. Timing noise
/// on shared CI is real, so the bound is deliberately loose — the
/// assertion only rules out picking a *categorically* slower plan.
fn assert_not_slower(db: &mut Database, sql: &str, tolerance: f64, ctx: &str) {
    let report = {
        db.options_mut().policy = PushdownPolicy::CostBased;
        db.plan_query(sql).expect("plan")
    };
    let (chosen, other) = match report.choice {
        PlanChoice::Eager => (PushdownPolicy::Always, PushdownPolicy::Never),
        _ => (PushdownPolicy::Never, PushdownPolicy::Always),
    };
    let t_chosen = timed(db, chosen, sql, 3);
    let t_other = timed(db, other, sql, 3);
    assert!(
        t_chosen.as_secs_f64() <= t_other.as_secs_f64() * tolerance,
        "{ctx}: chose {:?} at {t_chosen:?} but the rejected shape ran {t_other:?}",
        report.choice
    );
}

/// Extreme A — huge fan-in, fully matching keys: the eager aggregate
/// collapses 160 rows into every group before a tiny join. The §7 model
/// must pick eager, and the pick must hold up on the clock.
#[test]
fn extreme_fan_in_picks_eager_and_wins() {
    let cfg = SweepConfig {
        fact_rows: 8000,
        dim_rows: 50,
        groups: 50,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let mut db = cfg.build().expect("build");
    db.options_mut().policy = PushdownPolicy::CostBased;
    let report = db.plan_query(cfg.query()).expect("plan");
    assert_eq!(
        report.choice,
        PlanChoice::Eager,
        "reason: {}",
        report.reason
    );
    assert!(report.reason.contains("cost-based"), "{}", report.reason);
    assert_not_slower(&mut db, cfg.query(), 3.0, "extreme A (fan-in)");
}

/// Extreme B — near-key grouping and a very selective join: eager
/// would aggregate 8000 rows into ~6000 groups only for the join to
/// discard almost all of them. The model must stay lazy.
#[test]
fn extreme_selective_near_key_grouping_stays_lazy() {
    let cfg = SweepConfig {
        fact_rows: 8000,
        dim_rows: 4000,
        groups: 6000,
        match_fraction: 0.02,
        skew: 0.0,
    };
    let mut db = cfg.build().expect("build");
    db.options_mut().policy = PushdownPolicy::CostBased;
    let report = db.plan_query(cfg.query()).expect("plan");
    assert_eq!(report.choice, PlanChoice::Lazy, "reason: {}", report.reason);
    assert_not_slower(&mut db, cfg.query(), 3.0, "extreme B (selective near-key)");
}

/// The adaptive loop is monotone: on a workload whose first-run
/// estimates overshoot the join output by 50× (the `1/max(ndv)`
/// containment assumption at `match_fraction = 0.02`), feedback rounds
/// must converge to the lazy shape within three runs and never flip
/// back to the slower shape afterwards.
#[test]
fn adaptive_feedback_converges_and_never_flips_back() {
    let cfg = SweepConfig {
        fact_rows: 10_000,
        dim_rows: 5000,
        groups: 5000,
        match_fraction: 0.02,
        skew: 0.0,
    };
    let mut db = cfg.build().expect("build");
    db.options_mut().policy = PushdownPolicy::CostBased;
    db.options_mut().adaptive = true;

    let rounds = 5usize;
    let mut choices = Vec::with_capacity(rounds);
    let mut baseline: Option<Vec<Vec<gbj::Value>>> = None;
    for _ in 0..rounds {
        let rows = db.query(cfg.query()).expect("query runs");
        let canon = common::canon(&rows);
        match &baseline {
            None => baseline = Some(canon),
            Some(b) => assert_eq!(&canon, b, "feedback must never change results"),
        }
        choices.push(db.last_query_metrics().expect("metrics").choice);
    }

    // Eager on this instance aggregates 10k rows into ~5k groups that
    // the join then throws away: lazy is the empirically faster shape.
    let first_correct = choices
        .iter()
        .position(|c| *c == PlanChoice::Lazy)
        .unwrap_or_else(|| panic!("never converged to lazy: {choices:?}"));
    assert!(
        first_correct < 3,
        "took more than 3 feedback rounds to converge: {choices:?}"
    );
    assert!(
        choices[first_correct..]
            .iter()
            .all(|c| *c == PlanChoice::Lazy),
        "choice flipped back to the slower shape: {choices:?}"
    );

    // The stats epoch moved at least once (something was learned) and
    // absorbing the final round's facts again is a no-op: converged.
    assert!(db.stats_epoch() > 0, "feedback rounds must learn facts");
    let last = db.last_query_metrics().expect("metrics").feedback;
    let published = db.feedback_snapshot();
    assert!(
        !db.absorb_feedback(&last),
        "converged loop must be a fixed point"
    );
    // The store is published, never copied: a snapshot and a fork hold
    // the one store, a no-op absorb leaves it in place, and a material
    // change swaps in a new one without touching what readers hold.
    let same = |db: &Database| std::sync::Arc::ptr_eq(&published, &db.feedback_snapshot());
    assert!(same(&db) && same(&db.fork()));
    let mut moved = last.clone();
    moved
        .table_rows
        .push(("learned_elsewhere".to_string(), 7.0));
    let epoch = db.stats_epoch();
    assert!(db.absorb_feedback(&moved));
    assert!(!same(&db) && db.stats_epoch() == epoch + 1);
    assert_eq!(published.epoch(), epoch);
    assert_eq!(published.table_rows("learned_elsewhere"), None);
}
