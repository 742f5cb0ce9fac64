//! Row-engine vs vectorized-kernel throughput sweep — the data behind
//! EXPERIMENTS.md's X15 table and the committed `BENCH_vectorized.json`
//! baseline that CI's bench-smoke job compares against.
//!
//! Two measurements:
//!
//! 1. **Filter kernel** (primary): the same compound, filter-heavy
//!    predicate evaluated row-at-a-time (`BoundExpr::eval_truth` per
//!    row) and as the chunk pipeline does it: lowered once to its
//!    two-valued `⌊P⌋` (`BoundExpr::lower_floor`), then the mask kernel
//!    `select` per 1024-row chunk (`ColumnarBatch::from_rows` included
//!    in the timed region, as it always was — the pipeline itself is
//!    handed stored blocks). The selection vectors of `⌊P⌋` and of
//!    `⌈P⌉` are asserted identical to the row engine's `true` and
//!    not-`false` rows before any number is reported.
//! 2. **End-to-end** (secondary): the grouped-join sweep workload with
//!    a filter, run through [`gbj_engine::Database`] with the
//!    vectorized kernels off and on; results must be byte-identical.
//!
//! Output: a CSV summary on stderr-free stdout followed by one JSON
//! array (the `BENCH_vectorized.json` format). Sizes honour
//! `GBJ_BENCH_ROWS=<n>` (exact) or `GBJ_BENCH_SMALL=1` (CI smoke), so
//! the bench-smoke job stays fast.
//!
//! ```text
//! cargo run --release -p gbj-bench --bin vectorized_sweep
//! ```

use std::time::Instant;

use gbj_datagen::SweepConfig;
use gbj_engine::PushdownPolicy;
use gbj_exec::{select, ColumnarBatch};
use gbj_expr::{BinaryOp, BoundExpr, Expr};
use gbj_types::{internal_err, DataType, Field, Result, Schema, Truth, Value};

/// Chunk size for the columnar path (mirrors the executor's upper
/// morsel bound).
const CHUNK: usize = 1024;

/// Deterministic xorshift rows: `(k, v)` Int columns with ~10% NULL v.
fn make_rows(n: usize) -> Vec<Vec<Value>> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let k = Value::Int((next() % 1000) as i64);
            let v = if next() % 10 == 0 {
                Value::Null
            } else {
                Value::Int((next() % 2000) as i64 - 1000)
            };
            vec![k, v]
        })
        .collect()
}

/// The filter-heavy compound predicate: `v > -500 AND v < 700 OR k = 3`.
fn predicate(schema: &Schema) -> Result<BoundExpr> {
    Expr::bare("v")
        .binary(BinaryOp::Gt, Expr::lit(-500i64))
        .and(Expr::bare("v").binary(BinaryOp::Lt, Expr::lit(700i64)))
        .or(Expr::bare("k").eq(Expr::lit(3i64)))
        .bind(schema)
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(0.0)
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

struct SweepRow {
    workload: String,
    params: String,
    row_ms: f64,
    vec_ms: f64,
    speedup: f64,
    rows_per_s_row: f64,
    rows_per_s_vec: f64,
}

impl SweepRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"x15\",\"workload\":\"{}\",\"params\":\"{}\",\
             \"row_ms\":{},\"vec_ms\":{},\"speedup\":{},\
             \"rows_per_s_row\":{},\"rows_per_s_vec\":{}}}",
            esc(&self.workload),
            esc(&self.params),
            num(self.row_ms),
            num(self.vec_ms),
            num(self.speedup),
            num(self.rows_per_s_row),
            num(self.rows_per_s_vec),
        )
    }
}

fn bench_sizes() -> (usize, usize, usize) {
    if let Ok(s) = std::env::var("GBJ_BENCH_ROWS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            let n = n.max(1);
            return (n, n.min(20_000), 3);
        }
    }
    if std::env::var("GBJ_BENCH_SMALL").is_ok_and(|v| v.trim() == "1") {
        // CI smoke: small enough to finish in seconds anywhere.
        (20_000, 10_000, 3)
    } else {
        (400_000, 100_000, 7)
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("vectorized_sweep: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let (kernel_rows, e2e_rows, reps) = bench_sizes();
    let mut out = Vec::new();

    // 1. Filter kernel: row loop vs build+kernel over the same rows.
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int64, true),
        Field::new("v", DataType::Int64, true),
    ]);
    let rows = make_rows(kernel_rows);
    let bound = predicate(&schema)?;

    let row_truths: Vec<Truth> = rows
        .iter()
        .map(|r| bound.eval_truth(r))
        .collect::<Result<_>>()?;
    // Interleave the two timings rep by rep so slow drift on a shared
    // box (frequency scaling, noisy neighbours) hits both paths alike.
    let lowered = |l: Option<gbj_expr::Lowered>| {
        l.ok_or_else(|| internal_err!("the sweep predicate is not vectorizable"))
    };
    let (floor, ceil) = (lowered(bound.lower_floor())?, lowered(bound.lower_ceil())?);
    let mut row_samples = Vec::with_capacity(reps);
    let mut vec_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let mut kept = 0usize;
        for r in &rows {
            if bound.eval_truth(r)? == Truth::True {
                kept += 1;
            }
        }
        std::hint::black_box(kept);
        row_samples.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let mut kept = 0usize;
        for chunk in rows.chunks(CHUNK) {
            let batch = ColumnarBatch::from_rows(chunk, schema.len())?;
            kept += select(&floor, &batch, None)?.len();
        }
        std::hint::black_box(kept);
        vec_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    // What the pipeline carries between operators is the selection
    // vector of surviving row ids: verify both readings of the
    // predicate against the row engine, chunk by chunk.
    let mut offset = 0usize;
    for chunk in rows.chunks(CHUNK) {
        let batch = ColumnarBatch::from_rows(chunk, schema.len())?;
        let truths = row_truths.get(offset..offset + chunk.len()).unwrap_or(&[]);
        type Reading = fn(Truth) -> bool;
        for (pred, reading) in [(&floor, Truth::floor as Reading), (&ceil, Truth::ceil)] {
            let expected: Vec<u32> = (0u32..)
                .zip(truths)
                .filter(|(_, t)| reading(**t))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                select(pred, &batch, None)?,
                expected,
                "selection vector differs from the row engine at chunk offset {offset}"
            );
        }
        offset += chunk.len();
    }

    let row_ms = median_ms(&mut row_samples);
    let vec_ms = median_ms(&mut vec_samples);
    println!("workload,rows,row_ms,vec_ms,speedup");
    println!(
        "filter_kernel,{kernel_rows},{row_ms:.3},{vec_ms:.3},{:.2}",
        row_ms / vec_ms.max(1e-9)
    );
    out.push(SweepRow {
        workload: "filter_kernel".to_string(),
        params: format!("rows={kernel_rows} chunk={CHUNK} reps={reps}"),
        row_ms,
        vec_ms,
        speedup: row_ms / vec_ms.max(1e-9),
        rows_per_s_row: kernel_rows as f64 / (row_ms / 1e3).max(1e-9),
        rows_per_s_vec: kernel_rows as f64 / (vec_ms / 1e3).max(1e-9),
    });

    // 2. End-to-end: filter-heavy grouped join through the Database,
    // vectorized off vs on, byte-identical results required.
    let cfg = SweepConfig {
        fact_rows: e2e_rows,
        dim_rows: 100,
        groups: 100,
        match_fraction: 1.0,
        skew: 0.0,
    };
    let mut db = cfg.build()?;
    db.options_mut().policy = PushdownPolicy::Never;
    let sql = "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) FROM Fact F, Dim D \
               WHERE F.DimId = D.DimId AND F.V > 10 GROUP BY D.DimId";

    let mut time_e2e = |vectorized: bool| -> Result<(f64, Vec<Vec<Value>>)> {
        db.set_vectorized(vectorized);
        let mut samples = Vec::with_capacity(reps);
        let mut result = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            let r = db.query(sql)?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            result = r.sorted().rows;
        }
        Ok((median_ms(&mut samples), result))
    };
    let (e2e_row_ms, row_result) = time_e2e(false)?;
    let (e2e_vec_ms, vec_result) = time_e2e(true)?;
    assert_eq!(vec_result, row_result, "end-to-end results diverge");
    println!(
        "end_to_end,{e2e_rows},{e2e_row_ms:.3},{e2e_vec_ms:.3},{:.2}",
        e2e_row_ms / e2e_vec_ms.max(1e-9)
    );
    out.push(SweepRow {
        workload: "end_to_end".to_string(),
        params: format!("fact_rows={e2e_rows} groups=100 reps={reps}"),
        row_ms: e2e_row_ms,
        vec_ms: e2e_vec_ms,
        speedup: e2e_row_ms / e2e_vec_ms.max(1e-9),
        rows_per_s_row: e2e_rows as f64 / (e2e_row_ms / 1e3).max(1e-9),
        rows_per_s_vec: e2e_rows as f64 / (e2e_vec_ms / 1e3).max(1e-9),
    });

    let json: Vec<String> = out.iter().map(SweepRow::to_json).collect();
    println!("[\n  {}\n]", json.join(",\n  "));
    Ok(())
}
