//! Serving-layer throughput/latency sweep — the data behind the
//! committed `BENCH_serving.json` baseline that CI's serving job
//! compares against (scripts/bench_check.sh, ±30% advisory).
//!
//! For each client count N ∈ {1, 4, 16}, the same fixed per-client
//! batch of aggregate-join reads is driven through one [`Server`]
//! twice:
//!
//! * **shed=off** — admission sized so nothing ever queues long or
//!   sheds (`max_active = N`): the raw concurrency scaling of the
//!   snapshot-read path;
//! * **shed=on** — a deliberately tiny slot pool (`max_active = 2`,
//!   `max_queued = 2`): the overload path, where excess traffic is
//!   rejected *typed* instead of collapsing the latency of admitted
//!   queries.
//!
//! Reported per cell: completed-query QPS over the cell's wall clock,
//! p50/p99 latency of successful queries, and ok/shed/failed counts.
//! Sizes honour `GBJ_BENCH_ROWS=<n>` / `GBJ_BENCH_SMALL=1` like every
//! other sweep, so the CI smoke stays fast.
//!
//! ```text
//! cargo run --release -p gbj-bench --bin serve_sweep
//! ```

use std::sync::{Arc, Barrier};
use std::time::Instant;

use gbj_datagen::SweepConfig;
use gbj_server::{AdmissionConfig, Server, ServerConfig};
use gbj_types::{Error, Result};

/// The aggregate-join read every client hammers.
const SQL: &str = "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) \
                   FROM Fact F, Dim D WHERE F.DimId = D.DimId GROUP BY D.DimId";

const CLIENT_COUNTS: &[usize] = &[1, 4, 16];

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

/// `p`-th percentile (0..=1) of the samples, nearest-rank.
fn pct(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples.get(idx).copied().unwrap_or(0.0)
}

struct Cell {
    clients: usize,
    shedding: bool,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    ok: u64,
    shed: u64,
    failed: u64,
    params: String,
}

impl Cell {
    fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"serving\",\"workload\":\"clients={} shed={}\",\
             \"params\":\"{}\",\"qps\":{},\"p50_ms\":{},\"p99_ms\":{},\
             \"ok\":{},\"shed\":{},\"failed\":{}}}",
            self.clients,
            if self.shedding { "on" } else { "off" },
            esc(&self.params),
            num(self.qps),
            num(self.p50_ms),
            num(self.p99_ms),
            self.ok,
            self.shed,
            self.failed,
        )
    }
}

fn bench_sizes() -> (usize, usize) {
    if let Ok(s) = std::env::var("GBJ_BENCH_ROWS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return (n.max(1), 50);
        }
    }
    if std::env::var("GBJ_BENCH_SMALL").is_ok_and(|v| v.trim() == "1") {
        (4_000, 30)
    } else {
        (20_000, 200)
    }
}

/// Drive `clients` threads of `per_client` reads each through the
/// server, wall-clocked from a shared starting barrier.
fn run_cell(server: &Server, clients: usize, per_client: usize, shedding: bool) -> Cell {
    let barrier = Arc::new(Barrier::new(clients.saturating_add(1)));
    let mut handles = Vec::with_capacity(clients);
    for _ in 0..clients {
        let server = server.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || -> (u64, u64, u64, Vec<f64>) {
            let session = server.connect();
            barrier.wait();
            let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
            let mut lat_ms = Vec::with_capacity(per_client);
            for _ in 0..per_client {
                let t = Instant::now();
                match session.query(SQL) {
                    Ok(_) => {
                        ok += 1;
                        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    Err(Error::Overloaded { .. }) => shed += 1,
                    Err(_) => failed += 1,
                }
            }
            (ok, shed, failed, lat_ms)
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
    let mut lat_ms: Vec<f64> = Vec::new();
    for h in handles {
        if let Ok((o, s, f, l)) = h.join() {
            ok += o;
            shed += s;
            failed += f;
            lat_ms.extend(l);
        } else {
            failed += per_client as u64;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    Cell {
        clients,
        shedding,
        qps: ok as f64 / wall_s,
        p50_ms: pct(&mut lat_ms, 0.50),
        p99_ms: pct(&mut lat_ms, 0.99),
        ok,
        shed,
        failed,
        params: format!("per_client={per_client}"),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("serve_sweep: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let (fact_rows, per_client) = bench_sizes();
    let cfg = SweepConfig {
        fact_rows,
        dim_rows: 100,
        groups: 100,
        match_fraction: 1.0,
        skew: 0.0,
    };

    let mut out = Vec::new();
    println!("clients,shedding,qps,p50_ms,p99_ms,ok,shed,failed");
    for &clients in CLIENT_COUNTS {
        for shedding in [false, true] {
            let admission = if shedding {
                AdmissionConfig {
                    max_active: 2,
                    max_queued: 2,
                    ..AdmissionConfig::default()
                }
            } else {
                AdmissionConfig {
                    max_active: clients.max(1),
                    max_queued: 64,
                    ..AdmissionConfig::default()
                }
            };
            let mut db = cfg.build()?;
            // BENCH_serving.json was recorded on the oracle.
            db.set_vectorized(false);
            let server = Server::with_database(
                db,
                ServerConfig {
                    admission,
                    plan_cache_capacity: 16,
                    ..ServerConfig::default()
                },
            );
            let mut cell = run_cell(&server, clients, per_client, shedding);
            cell.params = format!("per_client={per_client} fact_rows={fact_rows}");
            println!(
                "{},{},{:.1},{:.3},{:.3},{},{},{}",
                cell.clients,
                if cell.shedding { "on" } else { "off" },
                cell.qps,
                cell.p50_ms,
                cell.p99_ms,
                cell.ok,
                cell.shed,
                cell.failed
            );
            if cell.failed > 0 {
                return Err(Error::Internal(format!(
                    "{} queries failed non-typed-overload under a fault-free sweep",
                    cell.failed
                )));
            }
            out.push(cell);
        }
    }

    let json: Vec<String> = out.iter().map(Cell::to_json).collect();
    println!("[\n  {}\n]", json.join(",\n  "));
    Ok(())
}
