//! The traced run: spans around each public call into a layer, held in
//! memory and written out when the benchmark ends; per-layer metrics are
//! medians over the quiet ones of those spans and over the counters the
//! calls return.
//!
//! The engine has no spans of its own yet, so the layers are separated by
//! calling their public entry points one after another on the workload's
//! own snapshot and subtracting: `Database::plan_query` minus the parse
//! and bind it contains is planning, `Database::query_report` minus
//! planning minus `Executor::execute_metered` is the audit tail, and
//! `Session::query` on a cached plan minus
//! `Database::execute_report_guarded` is what the server adds.

use std::collections::BTreeMap;
use std::time::Instant;

use gbj::engine::{Database, Estimator, PlanChoice, PushdownPolicy, QueryReport};
use gbj::exec::{ExecOptions, Executor, ProfileNode, ResourceGuard};
use gbj::sql::{parse_sql, Binder, Statement};
use gbj::types::{Error, Result};

use crate::json::Json;
use crate::report::PER_LAYER;
use crate::rng::SplitMix64;
use crate::run::{Harness, Outcome};
use crate::stats::{median, quietest};
use crate::workload::InsertBatch;

/// Distinct texts traced on `plan_cold` (a seeded sample of its 96).
const PLAN_COLD_SAMPLE: usize = 12;
/// Rows of the `Database::insert_rows` probe.
const INSERT_PROBE_ROWS: usize = 1000;
/// Operations of the one-client and of the two-client contention probe.
const TWO_CLIENT_OPS: usize = 200;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one traced operation share `op_id`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op_id: usize,
}

/// Spans and counters of one traced run.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    op_id: usize,
    /// Which text (or probe) the current operation belongs to.
    group: usize,
    /// `name → group → one value per iteration`: span durations in ms,
    /// and the counters recorded beside them.
    samples: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
            group: 0,
            samples: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Time `f` as a span named `name` under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        self.count(name, (end_us - start_us) / 1e3);
        out
    }

    /// One traced operation on text (or probe) `group`.
    fn op<R>(&mut self, group: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op_id += 1;
        self.group = group;
        self.span("op", f)
    }

    /// Record a counter beside the spans of the current operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.samples
            .entry(name)
            .or_default()
            .entry(self.group)
            .or_default()
            .push(value);
    }

    /// Median over the quiet iterations per text (`stats::quietest`, as
    /// for the end-to-end timings; a counter repeats exactly, so its
    /// median is itself), then the mean over texts: the per-text medians
    /// of different layers can be added and subtracted, which a median
    /// over pooled samples of unlike texts cannot.
    pub fn p50(&self, name: &str) -> f64 {
        let Some(groups) = self.samples.get(name) else {
            return 0.0;
        };
        let medians: Vec<f64> = groups.values().map(|v| median(&quietest(v))).collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }

    /// Median self time per span name: the span minus the part of it its
    /// child spans cover.
    pub fn self_time_p50_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_us) {
            by_name
                .entry(s.name)
                .or_default()
                .push((s.end_us - s.start_us - children) / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, v)| (name, median(&v)))
            .collect()
    }

    pub fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op_id", Json::Num(s.op_id as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Sum a counter over a profile tree.
fn tree_sum(node: &ProfileNode, f: &impl Fn(&ProfileNode) -> u64) -> u64 {
    f(node) + node.children.iter().map(|c| tree_sum(c, f)).sum::<u64>()
}

/// The executor options the engine derives for a planned query: the
/// database's own, plus the combiner exactly when a certified eager plan
/// was chosen.
fn exec_options_for(base: ExecOptions, report: &QueryReport) -> ExecOptions {
    ExecOptions {
        combiner: report.certificate.is_some() && report.choice == PlanChoice::Eager,
        ..base
    }
}

/// The layer calls for one text on one snapshot, each in its own span.
fn trace_layers(t: &mut Tracer, db: &Database, sql: &str, exec: ExecOptions) -> Result<()> {
    let stmt = t.span("sql.parse", |_| parse_sql(sql))?;
    let Statement::Select(select) = stmt else {
        return Err(Error::Unsupported("traced text is not a SELECT".into()));
    };
    t.span("sql.bind", |_| {
        Binder::new(db.catalog()).bind_select(&select).map(|_| ())
    })?;
    let report = t.span("engine.plan_query", |_| db.plan_query(sql))?;
    let opts = exec_options_for(exec, &report);
    let (rows, profile, summary) = t.span("exec.execute_metered", |_| {
        Executor::with_options(db.storage(), opts).execute_metered(&report.plan)
    })?;
    t.span("engine.estimate_plan", |_| {
        let feedback = db.feedback_snapshot();
        std::hint::black_box(
            Estimator::with_feedback(db.storage(), &feedback).estimate_plan(&report.plan),
        );
    });
    t.span("engine.query_report", |_| db.query_report(sql))?;
    t.span("engine.execute_report_guarded", |_| {
        db.execute_report_guarded(&report, &ResourceGuard::new(Default::default()))
    })?;

    let ns_ms = |ns: u64| ns as f64 / 1e6;
    t.count(
        "exec.build_ms",
        ns_ms(tree_sum(&profile, &|n| n.metrics.build_ns)),
    );
    t.count(
        "exec.probe_ms",
        ns_ms(tree_sum(&profile, &|n| n.metrics.probe_ns)),
    );
    t.count(
        "exec.kernel_ms",
        ns_ms(tree_sum(&profile, &|n| n.metrics.kernel_ns)),
    );
    t.count(
        "exec.hash_entries",
        tree_sum(&profile, &|n| n.metrics.hash_entries) as f64,
    );
    t.count(
        "exec.state_bytes",
        tree_sum(&profile, &|n| n.metrics.state_bytes) as f64,
    );
    t.count("exec.peak_memory_bytes", summary.peak_memory_bytes as f64);
    let scanned = tree_sum(&profile, &|n| {
        if n.children.is_empty() {
            n.rows_out as u64
        } else {
            0
        }
    });
    t.count(
        "exec.rows_examined_per_result",
        scanned as f64 / rows.len().max(1) as f64,
    );
    let vectors = tree_sum(&profile, &|n| n.metrics.vectors);
    t.count("exec.vectorized_share", f64::from(u8::from(vectors > 0)));
    Ok(())
}

/// Drain `open_scan`, fork, and bulk-insert on the fork.
fn trace_storage(t: &mut Tracer, db: &Database, h: &Harness, iteration: usize) -> Result<()> {
    let table = h.spec.main_table();
    t.span("storage.scan_rows", |_| -> Result<()> {
        let mut cursor = db.storage().open_scan(table)?;
        while let Some(batch) = cursor.next_batch()? {
            std::hint::black_box(batch);
        }
        Ok(())
    })?;
    t.span("storage.scan_columnar", |_| -> Result<()> {
        let mut cursor = db.storage().open_scan(table)?;
        while let Some(batch) = cursor.next_columnar()? {
            std::hint::black_box(batch);
        }
        Ok(())
    })?;
    let mut fork = t.span("storage.fork", |_| db.fork());
    // Ids far past anything the run inserted; the fork is thrown away.
    let probe = InsertBatch::new(
        &h.spec,
        h.seed,
        1_000_000 + iteration as u64,
        INSERT_PROBE_ROWS,
        &h.checker.data,
    );
    let rows = probe.value_rows();
    t.span("storage.insert_rows", |_| fork.insert_rows(table, rows))?;
    Ok(())
}

/// Execution time of the cost-based choice over the faster of the two
/// forced policies, for one certifiable text. 1.0 means the optimizer
/// chose as well as hindsight.
fn choice_regret(db: &Database, sql: &str, exec: ExecOptions, iterations: usize) -> Result<f64> {
    let exec_p50 = |policy: PushdownPolicy| -> Result<f64> {
        let mut fork = db.fork();
        fork.options_mut().policy = policy;
        let report = fork.plan_query(sql)?;
        let opts = exec_options_for(exec, &report);
        let mut ms = Vec::new();
        for _ in 0..iterations {
            let started = Instant::now();
            Executor::with_options(fork.storage(), opts).execute_metered(&report.plan)?;
            ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&quietest(&ms)))
    };
    let chosen = exec_p50(PushdownPolicy::CostBased)?;
    let best = exec_p50(PushdownPolicy::Always)?.min(exec_p50(PushdownPolicy::Never)?);
    Ok(chosen / best)
}

/// Throughput of two sessions over that of one, same operations.
fn two_client_speedup(h: &Harness) -> f64 {
    let ops = (TWO_CLIENT_OPS / h.sqls.len()).max(1) * h.sqls.len();
    let drive = |n: usize| {
        let session = h.server().connect();
        for sql in h.sqls.iter().cycle().take(n) {
            // A failure here shows up as an implausible ratio; results
            // were already graded by the untraced run.
            let _ = std::hint::black_box(session.query(sql));
        }
    };
    let started = Instant::now();
    drive(ops);
    let one = started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| drive(ops / 2));
        s.spawn(|| drive(ops / 2));
    });
    one / started.elapsed().as_secs_f64()
}

/// The traced run and every per-layer metric, in `BENCHMARK.json` order.
pub struct Traced {
    pub tracer: Tracer,
    pub metrics: Vec<(String, f64, &'static str)>,
}

pub fn trace(h: &mut Harness, out: &Outcome) -> Result<Traced> {
    let spec = h.spec.clone();
    let exec = spec.engine_options().exec;
    let iterations = spec.trace_iterations;
    let texts: Vec<usize> = if spec.warm_up {
        (0..h.sqls.len()).collect()
    } else {
        // A seeded sample, in cycle order.
        let mut rng = SplitMix64::derive(h.seed, 4);
        let mut all: Vec<usize> = (0..h.sqls.len()).collect();
        for i in 0..PLAN_COLD_SAMPLE.min(all.len()) {
            let j = i + rng.below((all.len() - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(PLAN_COLD_SAMPLE);
        all.sort_unstable();
        all
    };

    let fillers: Vec<usize> = (0..h.sqls.len())
        .filter(|q| !texts.contains(q))
        .take(spec.server_config().plan_cache_capacity)
        .collect();

    let mut t = Tracer::new();
    for iteration in 0..iterations {
        for &q in &texts {
            let sql = h.sqls[q].clone();
            let write = spec.is_mixed().then(|| h.next_insert());
            // Where the loop never hits, the first read below has to miss
            // too: push the text out of the plan cache with as many other
            // texts as the cache holds. Outside any span.
            for filler in fillers.iter().filter(|_| !spec.warm_up) {
                h.session().query(&h.sqls[*filler])?;
            }
            t.op(q, |t| -> Result<()> {
                if let Some(batch) = write {
                    let wrote = t.span("server.execute_write", |_| {
                        h.session().execute_write(&batch.sql)
                    });
                    // Keep the grader's copy in step with the engine.
                    h.checker.write(batch, wrote.map(|_| ()));
                }
                // The first read after a write, or of a text the cache
                // evicted, is a miss; the second is always a hit.
                t.span("server.query_first", |_| h.session().query(&sql))?;
                t.span("server.query_hit", |_| h.session().query(&sql))?;
                h.server()
                    .with_snapshot(|db| t.span("snapshot", |t| trace_layers(t, db, &sql, exec)))
            })?;
        }
        // Group `usize::MAX`: the storage probes belong to no text.
        t.op(usize::MAX, |t| {
            h.server()
                .with_snapshot(|db| trace_storage(t, db, h, iteration))
        })?;
    }

    let regret_sql = &h.sqls[0];
    let regret = h
        .server()
        .with_snapshot(|db| choice_regret(db, regret_sql, exec, iterations))?;
    let speedup = if spec.contention_probe {
        two_client_speedup(h)
    } else {
        0.0
    };

    // Layer times, each the mean over texts of the per-text median.
    let parse = t.p50("sql.parse");
    let bind = t.p50("sql.bind");
    let plan_query = t.p50("engine.plan_query");
    let execute = t.p50("exec.execute_metered");
    let query_report = t.p50("engine.query_report");
    let guarded = t.p50("engine.execute_report_guarded");
    let query_hit = t.p50("server.query_hit");
    let plan = plan_query - parse - bind;
    let audit = query_report - plan_query - execute;
    let overhead = query_hit - guarded;

    // What users of this workload mostly wait for: a miss where the loop
    // never hits, a hit elsewhere.
    let (reference, layers) = if spec.warm_up {
        (query_hit, overhead + execute + audit)
    } else {
        (
            t.p50("server.query_first"),
            overhead + parse + bind + plan + execute + audit,
        )
    };
    // The same texts, same kind of read, same statistic, with and
    // without spans.
    let kinds = out.reads_by_kind(None);
    let untraced: Vec<f64> = texts
        .iter()
        .filter_map(|&q| kinds.get(&(q, spec.warm_up)))
        .map(|ms| median(&quietest(ms)))
        .collect();
    let untraced = untraced.iter().sum::<f64>() / untraced.len().max(1) as f64;

    let all_reads: Vec<f64> = out.reads.iter().map(|r| r.ms).collect();
    let hits = out.server.cache_hits - out.server_before.cache_hits;
    let misses = out.server.cache_misses - out.server_before.cache_misses;
    let reads = out.reads.len().max(1) as f64;

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64| {
        let listed = PER_LAYER.iter().find(|l| l.0 == name);
        let unit = listed.expect("every reported metric is in PER_LAYER").1;
        m.push((name.to_string(), value, unit));
    };
    put("sql.parse_ms", parse);
    put("sql.bind_ms", bind);
    put("engine.plan_ms", plan);
    put("engine.estimate_ms", t.p50("engine.estimate_plan"));
    put("engine.audit_ms", audit);
    put("engine.eager_share", out.eager_reads as f64 / reads);
    put("exec.execute_ms", execute);
    for name in [
        "exec.build_ms",
        "exec.probe_ms",
        "exec.kernel_ms",
        "exec.hash_entries",
        "exec.state_bytes",
        "exec.peak_memory_bytes",
        "exec.rows_examined_per_result",
        "exec.vectorized_share",
    ] {
        put(name, t.p50(name));
    }
    put("exec.shipped_rows", out.shipped_rows as f64 / reads);
    put("exec.shipped_bytes", out.shipped_bytes as f64 / reads);
    put("storage.scan_rows_ms", t.p50("storage.scan_rows"));
    put("storage.scan_columnar_ms", t.p50("storage.scan_columnar"));
    put(
        "storage.insert_rows_per_s",
        INSERT_PROBE_ROWS as f64 / (t.p50("storage.insert_rows") / 1e3),
    );
    put("storage.fork_ms", t.p50("storage.fork"));
    put("server.overhead_ms", overhead);
    put(
        "server.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    put(
        "server.snapshot_refreshes",
        (out.server.snapshot_refreshes - out.server_before.snapshot_refreshes) as f64,
    );
    put(
        "server.shed",
        (out.server.shed - out.server_before.shed) as f64,
    );
    put(
        "server.latency_p99_ms",
        crate::stats::percentile(&all_reads, 99.0),
    );
    put("server.two_client_speedup", speedup);
    put("optimizer.choice_regret", regret);
    let quiet = out.quiet_reads(None);
    for template in crate::gen::TEMPLATES {
        let of = quiet
            .iter()
            .filter(|(query, _)| h.queries[*query].template() == template);
        let ms: Vec<f64> = of.flat_map(|(_, q)| q.ms.clone()).collect();
        // 0 marks a template this workload does not send.
        let p50 = if ms.is_empty() { 0.0 } else { median(&ms) };
        put(&format!("tpl.{template}.p50_ms"), p50);
    }
    put("trace.overhead_share", reference / untraced - 1.0);
    put("trace.unattributed_share", 1.0 - layers / reference);
    Ok(Traced {
        tracer: t,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        t.op(0, |t| {
            t.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(4))
                });
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let outer = t.spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(t.spans[outer].parent, Some(0));
        assert_eq!(inner.op_id, t.spans[0].op_id);
        let selfs = t.self_time_p50_ms();
        assert!(selfs["inner"] >= 4.0);
        assert!(selfs["outer"] >= 2.0 && selfs["outer"] < selfs["inner"] + 2.0);
        assert!(selfs["op"] < 1.0, "the op span only wraps outer");
        assert!(t.p50("outer") >= 6.0);
    }

    #[test]
    fn layer_medians_average_over_texts() {
        let mut t = Tracer::new();
        t.group = 0;
        for v in [1.0, 2.0, 3.0, 30.0] {
            t.count("x", v);
        }
        t.group = 1;
        t.count("x", 10.0);
        assert_eq!(
            t.p50("x"),
            6.0,
            "the three quietest of text 0, then the mean"
        );
        assert_eq!(t.p50("absent"), 0.0);
    }

    #[test]
    fn traced_run_yields_every_layer_metric_at_smoke_scale() {
        for w in &crate::workload::WORKLOADS {
            let spec = w.sized(0.02, 1.0);
            let mut h = Harness::set_up(&spec, 1).unwrap();
            let out = h.run_rounds();
            let traced = trace(&mut h, &out).unwrap();
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.0), "{}", w.name);
            assert!(traced.metrics.iter().all(|m| m.1.is_finite()), "{}", w.name);
            let get = |n: &str| traced.metrics.iter().find(|m| m.0 == n).unwrap().1;
            assert_eq!(
                get("exec.shipped_bytes") > 0.0,
                w.shards > 1,
                "{}: only sharded plans ship",
                w.name
            );
        }
    }
}
