//! Cost-model choice sweep — the data behind EXPERIMENTS.md's X16 and
//! the committed `BENCH_costmodel.json` baseline CI's costmodel job
//! compares against.
//!
//! Three workloads:
//!
//! 1. **extreme_fan_in** — huge fan-in, fully matching keys: the §7
//!    model must choose eager, and the wall clock must agree.
//! 2. **extreme_selective** — near-key grouping under a very selective
//!    join: the model must stay lazy.
//! 3. **adaptive** — a workload whose first-run estimates overshoot
//!    the join output 50×: with feedback absorption on, the choice
//!    must converge to the faster shape within a few rounds.
//!
//! Each line is one JSON object carrying the *predicted* shape-cost
//! ratio (deterministic), the chosen shape, and the measured lazy/eager
//! medians (noisy; the bench_check policy treats drift as advisory).
//! Sizes honour `GBJ_BENCH_SMALL=1` (CI smoke) like every other sweep.
//!
//! ```text
//! cargo run --release -p gbj-bench --bin costmodel_sweep
//! ```

use std::time::Instant;

use gbj_datagen::SweepConfig;
use gbj_engine::{Database, PlanChoice, PushdownPolicy};
use gbj_types::{Error, Result};

fn small() -> bool {
    std::env::var("GBJ_BENCH_SMALL").is_ok_and(|v| v.trim() == "1")
}

fn choice_name(c: PlanChoice) -> &'static str {
    match c {
        PlanChoice::Lazy => "lazy",
        PlanChoice::Eager => "eager",
        PlanChoice::Unfolded => "unfolded",
    }
}

/// Median wall-clock milliseconds of three runs under `policy`.
fn timed_ms(db: &mut Database, policy: PushdownPolicy, sql: &str) -> Result<f64> {
    db.options_mut().policy = policy;
    // BENCH_costmodel.json's shape timings were recorded on the oracle.
    db.set_vectorized(false);
    let mut samples: Vec<f64> = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        db.query(sql)?;
        samples.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[1])
}

/// One extreme: plan under CostBased, time both shapes, emit the line.
fn extreme(workload: &str, cfg: &SweepConfig) -> Result<()> {
    let mut db = cfg.build()?;
    db.options_mut().policy = PushdownPolicy::CostBased;
    let report = db.plan_query(cfg.query())?;
    let (lazy_shape, eager_shape) = match (&report.lazy_shape, &report.eager_shape) {
        (Some(l), Some(e)) => (l.total, e.total),
        _ => {
            return Err(Error::Internal(format!(
                "{workload}: cost-based planning produced no shape costs"
            )))
        }
    };
    // Predicted advantage of the *chosen* shape (≥ 1 by construction).
    let predicted_speedup = match report.choice {
        PlanChoice::Eager => lazy_shape / eager_shape.max(f64::MIN_POSITIVE),
        _ => eager_shape / lazy_shape.max(f64::MIN_POSITIVE),
    };
    let lazy_ms = timed_ms(&mut db, PushdownPolicy::Never, cfg.query())?;
    let eager_ms = timed_ms(&mut db, PushdownPolicy::Always, cfg.query())?;
    println!(
        "{{\"experiment\":\"costmodel\",\"workload\":\"{}\",\"params\":\"fact={} dim={} groups={} match={}\",\
         \"choice\":\"{}\",\"shape_lazy\":{:.1},\"shape_eager\":{:.1},\"predicted_speedup\":{:.3},\
         \"lazy_ms\":{:.3},\"eager_ms\":{:.3}}}",
        workload,
        cfg.fact_rows,
        cfg.dim_rows,
        cfg.groups,
        cfg.match_fraction,
        choice_name(report.choice),
        lazy_shape,
        eager_shape,
        predicted_speedup,
        lazy_ms,
        eager_ms,
    );
    Ok(())
}

/// The adaptive loop: rounds until the cost-based choice reaches the
/// empirically faster (lazy) shape and stays there.
fn adaptive(cfg: &SweepConfig, rounds: usize) -> Result<()> {
    let mut db = cfg.build()?;
    db.options_mut().policy = PushdownPolicy::CostBased;
    db.options_mut().adaptive = true;
    let mut choices = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        db.query(cfg.query())?;
        let m = db
            .last_query_metrics()
            .ok_or_else(|| Error::Internal("no metrics recorded".into()))?;
        choices.push(m.choice);
    }
    let converged_at = choices.iter().position(|c| *c == PlanChoice::Lazy);
    let stable = converged_at
        .map(|i| choices[i..].iter().all(|c| *c == PlanChoice::Lazy))
        .unwrap_or(false);
    println!(
        "{{\"experiment\":\"costmodel\",\"workload\":\"adaptive\",\"params\":\"fact={} dim={} groups={} match={}\",\
         \"rounds\":{},\"rounds_to_converge\":{},\"stable\":{},\"final_choice\":\"{}\",\"stats_epoch\":{}}}",
        cfg.fact_rows,
        cfg.dim_rows,
        cfg.groups,
        cfg.match_fraction,
        rounds,
        converged_at.map(|i| i + 1).unwrap_or(0),
        stable,
        choices
            .last()
            .map(|c| choice_name(*c))
            .unwrap_or("none"),
        db.stats_epoch(),
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("costmodel_sweep: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let scale = if small() { 8 } else { 1 };
    extreme(
        "extreme_fan_in",
        &SweepConfig {
            fact_rows: 8000 / scale,
            dim_rows: 50,
            groups: 50,
            match_fraction: 1.0,
            skew: 0.0,
        },
    )?;
    extreme(
        "extreme_selective",
        &SweepConfig {
            fact_rows: 8000 / scale,
            dim_rows: 4000 / scale,
            groups: 6000 / scale,
            match_fraction: 0.02,
            skew: 0.0,
        },
    )?;
    adaptive(
        &SweepConfig {
            fact_rows: 10_000 / scale,
            dim_rows: 5000 / scale,
            groups: 5000 / scale,
            match_fraction: 0.02,
            skew: 0.0,
        },
        5,
    )
}
