//! The five workloads: what each loads, how the engine is configured for
//! it, and the fixed sequence of operations one round sends.

use std::num::NonZeroUsize;

use gbj::engine::{Database, EngineOptions, PushdownPolicy};
use gbj::exec::ExecOptions;
use gbj::server::{AdmissionConfig, Server, ServerConfig};
use gbj::types::{Error, Result};

use crate::gen::{self, Data, Query};

/// Rows per `INSERT` statement.
pub const INSERT_ROWS: usize = 10;
/// Equal rounds per run. Responses are graded between rounds, and every
/// timing metric is reported per round beside its value over the run, so
/// that a reader (and `compare`) can see how far the rounds disagree.
pub const ROUNDS: usize = 10;
/// Distinct texts of `plan_cold`: six times its plan cache.
const PLAN_COLD_TEXTS: usize = 96;
const PLAN_CACHE: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    Star,
    Paper,
}

/// One operation of the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Session::query` of the workload's `queries[i]`.
    Read(usize),
    /// `Session::execute_write` of the next insert batch.
    Write,
}

/// A workload at full size. `--scale` and `--seconds` shrink it through
/// [`Spec::sized`]; nothing else about it varies.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub schema: Schema,
    /// Fact rows (star) or Employee rows (paper).
    pub rows: usize,
    /// Dim rows (star only).
    pub dims: usize,
    pub vectorized: bool,
    pub threads: usize,
    pub shards: usize,
    /// Warm the plan cache during set-up. Off where the miss is what
    /// users pay.
    pub warm_up: bool,
    /// Reads of `fanin_key` after each `INSERT` in the loop; 0 for a loop
    /// of reads alone, cycling every text.
    pub reads_per_write: usize,
    /// Also measure `server.two_client_speedup` in the traced run.
    pub contention_probe: bool,
    /// Operation cycles per round at `--seconds 10`; a cycle is one pass
    /// over [`Spec::cycle`].
    pub cycles_per_round: usize,
    /// Traced iterations per distinct text.
    pub trace_iterations: usize,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "serve_hot",
        why: "20k-row star, 3 cached texts, row engine: audit and estimation dominate, the planner is idle",
        schema: Schema::Star,
        rows: 20_000,
        dims: 100,
        vectorized: false,
        threads: 1,
        shards: 1,
        warm_up: true,
        reads_per_write: 0,
        contention_probe: true,
        cycles_per_round: 15,
        trace_iterations: 10,
    },
    Spec {
        name: "analytic_scan",
        why: "100k-row star through the batch-native pipeline, cache hits: execution, scans and per-row statistics scale with rows",
        schema: Schema::Star,
        rows: 100_000,
        dims: 1_000,
        vectorized: true,
        threads: 1,
        shards: 1,
        warm_up: true,
        reads_per_write: 0,
        contention_probe: false,
        cycles_per_round: 4,
        trace_iterations: 5,
    },
    Spec {
        name: "plan_cold",
        why: "96 distinct texts over the paper schemas against a 16-entry plan cache: every read parses, binds, runs TestFD and plans",
        schema: Schema::Paper,
        rows: 300,
        dims: 0,
        vectorized: false,
        threads: 1,
        shards: 1,
        warm_up: false,
        reads_per_write: 0,
        contention_probe: false,
        cycles_per_round: 5,
        trace_iterations: 10,
    },
    Spec {
        name: "mixed_rw",
        why: "one 10-row INSERT then 4 reads: each write moves the epoch, so a quarter of the reads re-fork the snapshot and replan",
        schema: Schema::Star,
        rows: 20_000,
        dims: 100,
        vectorized: false,
        threads: 1,
        shards: 1,
        warm_up: true,
        reads_per_write: 4,
        contention_probe: false,
        cycles_per_round: 8,
        trace_iterations: 10,
    },
    Spec {
        name: "scaleout",
        why: "60k-row star on 4 shards and 2 threads: exchanges, the certified combiner below them, and shipped bytes",
        schema: Schema::Star,
        rows: 60_000,
        dims: 1_000,
        vectorized: true,
        threads: 2,
        shards: 4,
        warm_up: true,
        reads_per_write: 0,
        contention_probe: false,
        cycles_per_round: 4,
        trace_iterations: 5,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().find(|w| w.name == name).cloned()
}

impl Spec {
    /// The workload at `scale` of its rows and at `seconds / 10` of its
    /// operations — a deterministic function of the arguments, so sample
    /// counts and every counter repeat exactly for equal arguments.
    pub fn sized(&self, scale: f64, seconds: f64) -> Spec {
        let shrink = |n: usize, floor: usize| ((n as f64 * scale).round() as usize).max(floor);
        let mut s = self.clone();
        s.rows = shrink(self.rows, 60);
        s.dims = shrink(self.dims, 10);
        s.cycles_per_round = shrink(self.cycles_per_round, 1);
        s.cycles_per_round = ((s.cycles_per_round as f64 * seconds / 10.0).round() as usize).max(1);
        s.trace_iterations = shrink(self.trace_iterations, 2);
        s
    }

    /// Whether the loop itself writes.
    pub fn is_mixed(&self) -> bool {
        self.reads_per_write > 0
    }

    /// The distinct read texts, in cycle order.
    pub fn queries(&self, seed: u64) -> Vec<Query> {
        match (self.schema, self.is_mixed()) {
            (Schema::Paper, _) => gen::paper_queries(seed, PLAN_COLD_TEXTS, self.rows),
            (Schema::Star, true) => vec![Query::FaninKey],
            (Schema::Star, false) => gen::STAR_QUERIES.to_vec(),
        }
    }

    /// One cycle of operations.
    pub fn cycle(&self, queries: &[Query]) -> Vec<Op> {
        if self.is_mixed() {
            let mut ops = vec![Op::Write];
            ops.extend(vec![Op::Read(0); self.reads_per_write]);
            ops
        } else {
            (0..queries.len()).map(Op::Read).collect()
        }
    }

    pub fn generate(&self, seed: u64) -> Data {
        match self.schema {
            Schema::Star => Data::Star(gen::star(seed, self.rows, self.dims)),
            Schema::Paper => Data::Paper(gen::paper(seed, self.rows)),
        }
    }

    /// Engine options, every field spelled out: `EngineOptions::default()`
    /// reads `GBJ_*` environment variables, and a benchmark whose engine
    /// configuration depends on the caller's shell measures nothing.
    pub fn engine_options(&self) -> EngineOptions {
        let exec = ExecOptions {
            threads: NonZeroUsize::new(self.threads).unwrap_or(NonZeroUsize::MIN),
            shards: NonZeroUsize::new(self.shards).unwrap_or(NonZeroUsize::MIN),
            vectorized: self.vectorized,
            metrics: true,
            combiner: false,
            ..ExecOptions::default()
        };
        EngineOptions {
            policy: PushdownPolicy::CostBased,
            transform: Default::default(),
            cost_model: Default::default(),
            exec,
            verify_rewrites: false,
            adaptive: false,
            clamp_estimates: true,
        }
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            admission: AdmissionConfig::default(),
            default_limits: Default::default(),
            default_timeout: None,
            plan_cache_capacity: PLAN_CACHE,
            record_commits: false,
        }
    }

    /// The options above, as the structs themselves print, for the run
    /// header.
    pub fn options_line(&self) -> String {
        format!(
            "{:?} {:?} clients=1",
            self.engine_options(),
            self.server_config()
        )
    }

    /// DDL + load + server start: a fresh server holding `data`.
    pub fn start_server(&self, data: &Data) -> Result<Server> {
        let mut db = Database::with_options(self.engine_options());
        match data {
            Data::Star(d) => {
                db.run_script(gen::STAR_DDL)?;
                db.insert_rows("Dim", d.dims.iter().map(gen::Dim::row))?;
                db.insert_rows("Fact", d.facts.iter().map(gen::Fact::row))?;
                if self.shards > 1 {
                    db.declare_partition_key("Fact", &["FactId"])?;
                    db.declare_partition_key("Dim", &["DimId"])?;
                }
            }
            Data::Paper(d) => {
                use gbj::types::Value;
                db.run_script(gen::PAPER_DDL)?;
                db.insert_rows(
                    "Department",
                    d.depts
                        .iter()
                        .map(|x| vec![Value::Int(x.id), Value::str(&x.name)]),
                )?;
                db.insert_rows("Employee", d.emps.iter().map(gen::Emp::row))?;
                db.insert_rows(
                    "UserAccount",
                    d.users.iter().map(|u| {
                        vec![Value::Int(u.id), Value::str(u.machine), Value::str(&u.name)]
                    }),
                )?;
                db.insert_rows(
                    "Printer",
                    d.printers
                        .iter()
                        .map(|p| vec![Value::Int(p.pno), Value::Int(p.speed), Value::str(&p.make)]),
                )?;
                db.insert_rows(
                    "PrinterAuth",
                    d.auths.iter().map(|a| {
                        vec![
                            Value::Int(a.user),
                            Value::str(a.machine),
                            Value::Int(a.pno),
                            Value::Int(a.usage),
                        ]
                    }),
                )?;
            }
        }
        Ok(Server::with_database(db, self.server_config()))
    }

    /// The table the insert batches and the storage probes go to.
    pub fn main_table(&self) -> &'static str {
        match self.schema {
            Schema::Star => "Fact",
            Schema::Paper => "Employee",
        }
    }
}

/// The `batch`-th insert of a workload: its SQL text, and the same rows
/// for the harness's copy so the fold stays current.
pub struct InsertBatch {
    pub sql: String,
    rows: NewRows,
}

enum NewRows {
    Facts(Vec<gen::Fact>),
    Emps(Vec<gen::Emp>),
}

impl InsertBatch {
    /// `spec.rows` rows were loaded before the first batch; batches
    /// number from zero and never reuse an id.
    pub fn new(spec: &Spec, seed: u64, batch: u64, rows: usize, data: &Data) -> InsertBatch {
        match data {
            Data::Star(d) => {
                let new = gen::fact_batch(seed, batch, rows, spec.rows, d.dims.len());
                InsertBatch {
                    sql: gen::fact_insert_sql(&new),
                    rows: NewRows::Facts(new),
                }
            }
            Data::Paper(d) => {
                let new = gen::emp_batch(seed, batch, rows, spec.rows, d.depts.len());
                InsertBatch {
                    sql: gen::emp_insert_sql(&new),
                    rows: NewRows::Emps(new),
                }
            }
        }
    }

    /// The batch as engine rows, for `Database::insert_rows`.
    pub fn value_rows(&self) -> Vec<Vec<gbj::types::Value>> {
        match &self.rows {
            NewRows::Facts(new) => new.iter().map(gen::Fact::row).collect(),
            NewRows::Emps(new) => new.iter().map(gen::Emp::row).collect(),
        }
    }

    /// Record the batch in the harness's copy of the data.
    pub fn apply(self, data: &mut Data) {
        match (self.rows, data) {
            (NewRows::Facts(new), Data::Star(d)) => d.facts.extend(new),
            (NewRows::Emps(new), Data::Paper(d)) => d.emps.extend(new),
            _ => unreachable!("a batch is applied to the data it was generated from"),
        }
    }
}

/// The harness refuses to start under any `GBJ_*` variable: the engine's
/// defaults read them, and a run that silently picked up
/// `GBJ_TEST_THREADS` from a developer's shell would not be comparable
/// with anything.
pub fn refuse_gbj_env() -> Result<()> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GBJ_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(Error::Unsupported(format!(
            "refusing to run with {} set: engine defaults read GBJ_* variables",
            set.join(", ")
        )))
    }
}
