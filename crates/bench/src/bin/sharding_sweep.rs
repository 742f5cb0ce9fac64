//! Sharded-execution communication sweep — the data behind
//! EXPERIMENTS.md's X17 and the committed `BENCH_sharding.json`
//! baseline CI's sharding job compares against.
//!
//! One fan-in workload (the shape of X10), no declared partition keys,
//! run at 1/2/4/8 shards. At each shard count both plan shapes run:
//! the lazy plan ships every surviving fact row to the join's exchange;
//! the certified eager plan runs its pre-aggregation as a *combiner
//! below the exchange* and ships per-group partials instead. The
//! headline number is `shipped_ratio` — lazy wire bytes over eager wire
//! bytes — the paper's §7 distributed claim as a measurement. Wall
//! clocks ride along (noisy; the bench_check policy treats drift as
//! advisory, but the shipped counters are deterministic).
//!
//! Sizes honour `GBJ_BENCH_SMALL=1` (CI smoke) like every other sweep.
//!
//! ```text
//! cargo run --release -p gbj-bench --bin sharding_sweep
//! ```

use std::num::NonZeroUsize;
use std::time::Instant;

use gbj_datagen::SweepConfig;
use gbj_engine::{Database, PushdownPolicy};
use gbj_types::{Error, Result};

fn small() -> bool {
    std::env::var("GBJ_BENCH_SMALL").is_ok_and(|v| v.trim() == "1")
}

/// Median wall-clock milliseconds of three runs plus the (run-invariant)
/// shipped-byte counter under `policy` at `shards`.
fn timed(
    db: &mut Database,
    policy: PushdownPolicy,
    shards: usize,
    sql: &str,
) -> Result<(f64, u64)> {
    db.options_mut().policy = policy;
    // BENCH_sharding.json's one-shard baseline was recorded on the oracle.
    db.set_vectorized(shards > 1);
    db.set_shards(
        NonZeroUsize::new(shards)
            .ok_or_else(|| Error::Internal("shard count must be non-zero".into()))?,
    );
    let mut samples: Vec<f64> = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        db.query(sql)?;
        samples.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    samples.sort_by(f64::total_cmp);
    let shipped = db
        .last_query_metrics()
        .ok_or_else(|| Error::Internal("no metrics recorded".into()))?
        .shipped_bytes;
    Ok((samples[1], shipped))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("sharding_sweep: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let scale = if small() { 8 } else { 1 };
    let cfg = SweepConfig {
        fact_rows: 10_000 / scale,
        dim_rows: 100,
        groups: 100,
        match_fraction: 1.0,
        skew: 0.0,
    };
    for shards in [1usize, 2, 4, 8] {
        let mut db = cfg.build()?;
        let (lazy_ms, lazy_bytes) = timed(&mut db, PushdownPolicy::Never, shards, cfg.query())?;
        let (eager_ms, eager_bytes) = timed(&mut db, PushdownPolicy::Always, shards, cfg.query())?;
        // Both shapes ship nothing at one shard; report ratio 1.
        let shipped_ratio = if eager_bytes == 0 {
            1.0
        } else {
            lazy_bytes as f64 / eager_bytes as f64
        };
        println!(
            "{{\"experiment\":\"sharding\",\"workload\":\"shards={}\",\"params\":\"fact={} dim={} groups={} match={}\",\
             \"lazy_shipped_bytes\":{},\"eager_shipped_bytes\":{},\"shipped_ratio\":{:.3},\
             \"lazy_ms\":{:.3},\"eager_ms\":{:.3},\"speedup\":{:.3}}}",
            shards,
            cfg.fact_rows,
            cfg.dim_rows,
            cfg.groups,
            cfg.match_fraction,
            lazy_bytes,
            eager_bytes,
            shipped_ratio,
            lazy_ms,
            eager_ms,
            lazy_ms / eager_ms.max(f64::MIN_POSITIVE),
        );
    }
    Ok(())
}
