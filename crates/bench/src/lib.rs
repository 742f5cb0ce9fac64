#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]
#![warn(missing_docs)]

//! # gbj-bench
//!
//! The benchmark harness: timing helpers for the `report` binary that
//! regenerates every figure and experiment table of the paper (see
//! DESIGN.md's experiment index X1–X17 and EXPERIMENTS.md for recorded
//! results).

use std::time::{Duration, Instant};

use gbj_engine::{Database, PushdownPolicy, QueryReport};
use gbj_exec::{ProfileNode, ResultSet};
use gbj_types::Result;

/// One measured plan execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Median wall-clock time over the repetitions.
    pub time: Duration,
    /// The result rows.
    pub rows: ResultSet,
    /// The operator-cardinality profile.
    pub profile: ProfileNode,
    /// Bytes the last run shipped between shards
    /// (`QueryMetrics::shipped_bytes`; 0 at one shard).
    pub shipped_bytes: u64,
    /// The planner report.
    pub report: QueryReport,
}

/// Lazy-vs-eager comparison for one query on one database.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The lazy (`E1`) measurement.
    pub lazy: Measured,
    /// The eager (`E2`, or written view form) measurement.
    pub eager: Measured,
    /// The engine's own cost-based plan report: its `choice` is what it
    /// would pick, `lazy_shape` / `eager_shape` the costs it compared.
    pub engine: QueryReport,
}

impl Comparison {
    /// `lazy time / eager time` — > 1 means the transformation wins.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.lazy.time.as_secs_f64() / self.eager.time.as_secs_f64().max(1e-12)
    }
}

/// Run `sql` under one policy, returning the median of `reps` runs.
pub fn measure(
    db: &mut Database,
    sql: &str,
    policy: PushdownPolicy,
    reps: usize,
) -> Result<Measured> {
    db.options_mut().policy = policy;
    let mut times = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = db.query_report(sql)?;
        times.push(start.elapsed());
        last = Some(out);
    }
    let (rows, profile, report) = last.ok_or_else(|| {
        gbj_types::Error::Internal("measure: zero repetitions produced no run".into())
    })?;
    let shipped_bytes = db.last_query_metrics().map_or(0, |m| m.shipped_bytes);
    Ok(Measured {
        time: median(times),
        rows,
        profile,
        shipped_bytes,
        report,
    })
}

/// The median of `samples` (the upper one of an even count; zero for
/// none).
#[must_use]
pub fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples.get(samples.len() / 2).copied().unwrap_or_default()
}

/// Measure both plans and the engine's own choice.
pub fn compare(db: &mut Database, sql: &str, reps: usize) -> Result<Comparison> {
    let lazy = measure(db, sql, PushdownPolicy::Never, reps)?;
    let eager = measure(db, sql, PushdownPolicy::Always, reps)?;
    db.options_mut().policy = PushdownPolicy::CostBased;
    let engine = db.plan_query(sql)?;
    assert!(
        lazy.rows.multiset_eq(&eager.rows),
        "plans disagree on {sql}"
    );
    Ok(Comparison {
        lazy,
        eager,
        engine,
    })
}

/// A machine-readable experiment row (emitted as JSON by the report
/// binary for EXPERIMENTS.md bookkeeping).
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Experiment id (`x1` … `x17`).
    pub experiment: String,
    /// Free-form parameter description.
    pub params: String,
    /// Measured lazy time in milliseconds (when timed).
    pub lazy_ms: Option<f64>,
    /// Measured eager time in milliseconds (when timed).
    pub eager_ms: Option<f64>,
    /// lazy/eager speedup (when timed).
    pub speedup: Option<f64>,
    /// Which plan the engine picks cost-based.
    pub engine_choice: Option<String>,
    /// Any additional observation worth recording.
    pub note: String,
}

impl ExperimentRow {
    /// Build a row from a comparison.
    #[must_use]
    pub fn from_comparison(
        experiment: &str,
        params: &str,
        c: &Comparison,
        note: &str,
    ) -> ExperimentRow {
        ExperimentRow {
            experiment: experiment.to_string(),
            params: params.to_string(),
            lazy_ms: Some(c.lazy.time.as_secs_f64() * 1e3),
            eager_ms: Some(c.eager.time.as_secs_f64() * 1e3),
            speedup: Some(c.speedup()),
            engine_choice: Some(format!("{:?}", c.engine.choice)),
            note: note.to_string(),
        }
    }

    /// An untimed observation row.
    #[must_use]
    pub fn note(experiment: &str, params: &str, note: &str) -> ExperimentRow {
        ExperimentRow {
            experiment: experiment.to_string(),
            params: params.to_string(),
            lazy_ms: None,
            eager_ms: None,
            speedup: None,
            engine_choice: None,
            note: note.to_string(),
        }
    }

    /// Serialise the row as a JSON object (hand-rolled — serde is not
    /// available in the offline build environment).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn num(v: Option<f64>) -> String {
            match v {
                Some(f) if f.is_finite() => format!("{f}"),
                _ => "null".to_string(),
            }
        }
        let choice = match &self.engine_choice {
            Some(c) => format!("\"{}\"", esc(c)),
            None => "null".to_string(),
        };
        format!(
            "{{\"experiment\":\"{}\",\"params\":\"{}\",\"lazy_ms\":{},\"eager_ms\":{},\"speedup\":{},\"engine_choice\":{},\"note\":\"{}\"}}",
            esc(&self.experiment),
            esc(&self.params),
            num(self.lazy_ms),
            num(self.eager_ms),
            num(self.speedup),
            choice,
            esc(&self.note),
        )
    }
}

/// Serialise rows as a pretty-printed JSON array.
#[must_use]
pub fn rows_to_json(rows: &[ExperimentRow]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.to_json())).collect();
    format!("[\n{}\n]", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_datagen::EmpDeptConfig;
    use gbj_engine::PlanChoice;

    #[test]
    fn compare_checks_equivalence_and_times() {
        let cfg = EmpDeptConfig {
            employees: 300,
            departments: 10,
            null_dept_fraction: 0.0,
            seed: 2,
        };
        let mut db = cfg.build().unwrap();
        let c = compare(&mut db, cfg.query(), 3).unwrap();
        assert_eq!(c.lazy.rows.len(), 10);
        assert!(c.lazy.time > Duration::ZERO);
        assert!(c.speedup() > 0.0);
        assert_eq!(c.engine.choice, PlanChoice::Eager);
        let row = ExperimentRow::from_comparison("x1", "300/10", &c, "test");
        assert_eq!(row.experiment, "x1");
        assert!(row.speedup.unwrap() > 0.0);
        let json = row.to_json();
        assert!(json.contains("\"experiment\":\"x1\""));
    }
}
