//! Metric tables, the run header, and the files and lines a run prints.

use std::path::Path;

use crate::json::Json;
use crate::run::{Harness, Outcome};
use crate::stats::{closed_loop_rate, mean, median, percentile, quietest};
use crate::trace::Traced;
use crate::workload::ROUNDS;

/// `(name, unit, better, bound)` of every end-to-end metric, as in
/// `BENCHMARK.json` (a unit test holds the two together). `bound` is the
/// share of the parent's median by which the metric may get worse.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric, in the order the
/// traced run reports them.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("sql.parse_ms", "ms", "lower"),
    ("sql.bind_ms", "ms", "lower"),
    ("engine.plan_ms", "ms", "lower"),
    ("engine.estimate_ms", "ms", "lower"),
    ("engine.audit_ms", "ms", "lower"),
    ("engine.eager_share", "share", "higher"),
    ("exec.execute_ms", "ms", "lower"),
    ("exec.build_ms", "ms", "lower"),
    ("exec.probe_ms", "ms", "lower"),
    ("exec.kernel_ms", "ms", "lower"),
    ("exec.hash_entries", "count", "lower"),
    ("exec.state_bytes", "bytes", "lower"),
    ("exec.peak_memory_bytes", "bytes", "lower"),
    ("exec.rows_examined_per_result", "rows/row", "lower"),
    ("exec.vectorized_share", "share", "higher"),
    ("exec.shipped_rows", "rows/op", "lower"),
    ("exec.shipped_bytes", "bytes/op", "lower"),
    ("storage.scan_rows_ms", "ms", "lower"),
    ("storage.scan_columnar_ms", "ms", "lower"),
    ("storage.insert_rows_per_s", "rows/s", "higher"),
    ("storage.fork_ms", "ms", "lower"),
    ("server.overhead_ms", "ms", "lower"),
    ("server.cache_hit_rate", "share", "higher"),
    ("server.snapshot_refreshes", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("server.latency_p99_ms", "ms", "lower"),
    ("server.two_client_speedup", "ratio", "higher"),
    ("optimizer.choice_regret", "ratio", "lower"),
    ("tpl.fanin_key.p50_ms", "ms", "lower"),
    ("tpl.join_cat.p50_ms", "ms", "lower"),
    ("tpl.filter_tag.p50_ms", "ms", "lower"),
    ("tpl.example1.p50_ms", "ms", "lower"),
    ("tpl.thm2_subset.p50_ms", "ms", "lower"),
    ("tpl.thm2_distinct.p50_ms", "ms", "lower"),
    ("tpl.example3.p50_ms", "ms", "lower"),
    ("tpl.refusal.p50_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
];

/// Per-layer metrics that are counts of a deterministic program on
/// seeded inputs: two runs of one commit must agree on them exactly.
pub const EXACT: [&str; 9] = [
    "engine.eager_share",
    "exec.rows_examined_per_result",
    "exec.vectorized_share",
    "exec.shipped_rows",
    "exec.shipped_bytes",
    "server.cache_hit_rate",
    "server.snapshot_refreshes",
    "server.shed",
    "exec.hash_entries",
];

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
}

/// `HEAD` of the repository the package sits in, read from `.git`
/// directly; "unknown" outside a repository (the driver's checkout).
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// What produced a result file: enough to tell whether two files may be
/// compared.
pub fn header(args: &RunArgs) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("scale", Json::Num(args.scale)),
        ("seconds", Json::Num(args.seconds)),
        ("git_commit", Json::str(git_commit())),
        ("rustc", Json::str(rustc_version())),
        ("nproc", Json::Num(nproc as f64)),
        (
            "load_model",
            Json::str("closed loop, one client, fixed operation count"),
        ),
        (
            "gbj_env",
            Json::str("none set (the harness refuses to start under any GBJ_* variable)"),
        ),
    ])
}

/// One end-to-end metric with what it was computed from.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Quiet samples the value was taken from.
    samples: usize,
    /// The same metric of each round (or write burst, or the set-up
    /// repetitions themselves): its spread tells `compare` whether a
    /// difference can be resolved.
    parts: Vec<f64>,
}

/// The timings of the reads of one round, or of the whole run: the median
/// and the 90th percentile over the pooled quiet samples of every kind of
/// read, how many those were, and the rate of the loop over them. One
/// client in a closed loop completes `n` operations in the sum of their
/// latencies, so the rate is `n` over that sum, each kind at the mean of
/// its quiet samples.
fn loop_timings(out: &Outcome, round: Option<usize>) -> (f64, f64, usize, f64) {
    let reads = out.quiet_reads(round);
    let pool: Vec<f64> = reads.iter().flat_map(|(_, q)| q.ms.clone()).collect();
    let writes = out.loop_writes.then(|| out.quiet_writes(round));
    let kinds = reads.iter().map(|(_, q)| q).chain(&writes);
    (
        percentile(&pool, 50.0),
        percentile(&pool, 90.0),
        pool.len(),
        closed_loop_rate(kinds.map(|q| (q.count, mean(&q.ms)))),
    )
}

fn end_to_end(out: &Outcome) -> Vec<EndToEnd> {
    let (p50, p90, reads, rate) = loop_timings(out, None);
    let rounds: Vec<_> = (0..ROUNDS).map(|r| loop_timings(out, Some(r))).collect();
    let writes = out.quiet_writes(None);
    let write_parts = (0..out.write_groups).map(|g| median(&out.quiet_writes(Some(g)).ms));
    let setups = quietest(&out.setup_s);
    let values = [
        (p50, reads, rounds.iter().map(|r| r.0).collect()),
        (p90, reads, rounds.iter().map(|r| r.1).collect()),
        (median(&writes.ms), writes.ms.len(), write_parts.collect()),
        (rate, reads, rounds.iter().map(|r| r.3).collect()),
        (out.peak_rss_mb, 1, vec![]),
        (median(&setups), setups.len(), out.setup_s.clone()),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), (value, samples, parts))| EndToEnd {
            name,
            unit,
            value,
            samples,
            parts,
        })
        .collect()
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn per_layer(traced: &Traced) -> Json {
    let metrics = traced.metrics.iter();
    Json::obj(metrics.map(|(name, value, unit)| (name.as_str(), metric(*value, unit))))
}

/// The whole result of one process as JSON (spans excluded).
pub fn result_json(args: &RunArgs, h: &Harness, out: &Outcome, traced: Option<&Traced>) -> Json {
    let c = &h.checker;
    let e2e = end_to_end(out);
    let all_reads: Vec<f64> = out.reads.iter().map(|r| r.ms).collect();
    let mut pairs = vec![
        ("header".to_string(), header(args)),
        ("workload".into(), Json::str(h.spec.name)),
        ("why".into(), Json::str(h.spec.why)),
        ("options".into(), Json::str(h.spec.options_line())),
        (
            "sizes".into(),
            Json::obj([
                ("rows", Json::Num(h.spec.rows as f64)),
                ("dims", Json::Num(h.spec.dims as f64)),
                ("distinct_texts", Json::Num(h.sqls.len() as f64)),
                ("rounds", Json::Num(ROUNDS as f64)),
                ("ops_per_round", Json::Num(out.ops_per_round as f64)),
            ]),
        ),
        ("round_wall_s".into(), Json::nums(&out.round_walls_s)),
        // What the quiet samples were chosen from: every read, episodes of
        // interference included.
        (
            "all_reads_ms".into(),
            Json::obj(
                [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)]
                    .map(|(k, p)| (k, Json::Num(percentile(&all_reads, p)))),
            ),
        ),
        ("correct".into(), Json::Bool(c.failed == 0)),
        ("attempted".into(), Json::Num(c.attempted as f64)),
        ("failed".into(), Json::Num(c.failed as f64)),
        (
            "failed_share".into(),
            Json::Num(c.failed as f64 / c.attempted.max(1) as f64),
        ),
        (
            "complaints".into(),
            Json::Arr(c.complaints.iter().map(Json::str).collect()),
        ),
        (
            "exact".into(),
            Json::obj([
                (
                    "result_checksum",
                    Json::str(format!("{:016x}", c.checksum())),
                ),
                ("reads", Json::Num(out.reads.len() as f64)),
                ("writes", Json::Num(out.writes.len() as f64)),
                ("attempted", Json::Num(c.attempted as f64)),
            ]),
        ),
        (
            "end_to_end".into(),
            Json::obj(e2e.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::Num(m.samples as f64)),
                        ("parts", Json::nums(&m.parts)),
                    ]),
                )
            })),
        ),
    ];
    if let Some(t) = traced {
        pairs.push(("per_layer".into(), per_layer(t)));
    }
    Json::Obj(pairs)
}

/// The one line the benchmark contract reads: end-to-end metrics of an
/// untraced run, per-layer metrics of a traced one.
pub fn contract_line(h: &Harness, out: &Outcome, traced: Option<&Traced>) -> String {
    let metrics = match traced {
        None => {
            let e2e = end_to_end(out);
            Json::obj(e2e.iter().map(|m| (m.name, metric(m.value, m.unit))))
        }
        Some(t) => per_layer(t),
    };
    Json::obj([
        ("correct", Json::Bool(h.checker.failed == 0)),
        ("attempted", Json::Num(h.checker.attempted as f64)),
        ("failed", Json::Num(h.checker.failed as f64)),
        ("metrics", metrics),
    ])
    .line()
}

/// Every metric of a result object by name, with unit and sample count.
pub fn print_human(result: &Json) {
    let text = |k: &str| result.get(k).and_then(Json::as_str).unwrap_or("?");
    let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!("== {} — {}", text("workload"), text("why"));
    if let Some(h) = result.get("header").and_then(Json::as_obj) {
        let line: Vec<String> = h
            .iter()
            .map(|(k, v)| match v {
                Json::Str(s) => format!("{k}={s:?}"),
                v => format!("{k}={}", v.line()),
            })
            .collect();
        println!("   {}", line.join(" "));
    }
    println!("   options: {}", text("options"));
    if let Some(s) = result.get("sizes") {
        println!("   sizes: {}", s.line());
    }
    for (name, m) in result
        .get("end_to_end")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let get = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let bound = END_TO_END.iter().find(|e| e.0 == name).map_or(0.0, |e| e.3);
        println!(
            "   {name:<34} {:>14.4} {:<8} n={:<6} bound={:.0}%",
            get("value"),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
            get("samples"),
            bound * 100.0
        );
    }
    println!(
        "   {:<34} {:>14.4} {:<8} {} of {} operations failed or returned wrong rows",
        "failed_share",
        num("failed_share"),
        "share",
        num("failed"),
        num("attempted")
    );
    for (name, m) in result
        .get("per_layer")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        println!(
            "   {name:<34} {:>14.4} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    for c in result
        .get("complaints")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        println!("   CHECK FAILED: {}", c.as_str().unwrap_or("?"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics,
    /// units, directions and bounds of the tables above, and exactly the
    /// workloads of `workload::WORKLOADS`.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String, String, f64)> = manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let table: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|e| (e.0.into(), e.1.into(), e.2.into(), e.3))
            .collect();
        assert_eq!(listed, table);
        let listed: Vec<(String, String, String)> = manifest
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let table: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|e| (e.0.into(), e.1.into(), e.2.into()))
            .collect();
        assert_eq!(listed, table);
        let listed: Vec<(String, String)> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let table: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, table);
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|p| p.0 == *e)));
    }
}
