//! `gbjbench`: the repository's benchmark. One workload per process:
//!
//! ```text
//! gbjbench run --workload <name> --seed <n> [--seconds <s>] [--scale <f>] [--trace 0|1] [--out <dir>]
//! gbjbench trace --workload <name> …      (run --trace 1)
//! gbjbench run --smoke                    (all five at --scale 0.05, checks on)
//! gbjbench merge --out <file> <result.json>…
//! gbjbench compare <a.json> <b.json>
//! ```
//!
//! `run` prints every metric by name and, as the last line of standard
//! output, the one JSON object the benchmark contract reads. See
//! `README.md` beside this package for what is measured and why.

mod compare;
mod expect;
mod gen;
mod json;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunArgs;

/// Scale and seconds of `run --smoke`.
const SMOKE_SCALE: f64 = 0.05;
const DEFAULT_SECONDS: f64 = 15.0;

/// Exit code when the program ran but a result check failed.
const CHECK_FAILED: u8 = 2;

struct Cli {
    workload: Option<String>,
    smoke: bool,
    trace: bool,
    out: PathBuf,
    args: RunArgs,
    /// Positional arguments (`merge`, `compare`).
    files: Vec<String>,
}

fn parse_cli(argv: &[String], trace_default: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        smoke: false,
        trace: trace_default,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        args: RunArgs {
            seed: 1,
            scale: 1.0,
            seconds: DEFAULT_SECONDS,
        },
        files: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--scale" => cli.args.scale = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => cli.files.push(file.to_string()),
        }
    }
    let a = &cli.args;
    let in_range = a.scale > 0.0 && a.scale <= 1.0 && (1.0..=60.0).contains(&a.seconds);
    if !in_range {
        return Err("--scale must be in (0, 1] and --seconds in [1, 60]".into());
    }
    Ok(cli)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process. Returns whether every check passed.
fn run_one(name: &str, cli: &Cli, contract: bool) -> Result<bool, String> {
    let spec = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let spec = spec.sized(cli.args.scale, cli.args.seconds);
    let engine = |e: gbj::Error| format!("{name}: {e}");
    let mut harness = run::Harness::set_up(&spec, cli.args.seed).map_err(engine)?;
    let mut outcome = harness.run_rounds();
    let traced = if cli.trace {
        Some(trace::trace(&mut harness, &outcome).map_err(engine)?)
    } else {
        None
    };
    harness.finish(&mut outcome).map_err(engine)?;
    let mut result = report::result_json(&cli.args, &harness, &outcome, traced.as_ref());
    report::print_human(&result);
    let file = match &traced {
        Some(t) => {
            if let json::Json::Obj(pairs) = &mut result {
                let selfs = t.tracer.self_time_p50_ms();
                pairs.push((
                    "self_time_p50_ms".into(),
                    json::Json::obj(selfs.into_iter().map(|(k, v)| (k, json::Json::Num(v)))),
                ));
                pairs.push(("spans".into(), t.tracer.spans_json()));
            }
            format!("trace-{name}.json")
        }
        None => format!("result-{name}.json"),
    };
    write_file(&cli.out.join(file), &result.pretty())?;
    if contract {
        println!(
            "{}",
            report::contract_line(&harness, &outcome, traced.as_ref())
        );
    }
    Ok(harness.checker.failed == 0)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = argv
        .split_first()
        .ok_or("usage: gbjbench run|trace|merge|compare … (see benchmark/README.md)")?;
    match command.as_str() {
        "run" | "trace" => {
            workload::refuse_gbj_env().map_err(|e| e.to_string())?;
            let cli = parse_cli(rest, command == "trace")?;
            if cli.smoke {
                let cli = Cli {
                    args: RunArgs {
                        scale: SMOKE_SCALE,
                        ..cli.args.clone()
                    },
                    ..cli
                };
                let mut ok = true;
                for w in &workload::WORKLOADS {
                    ok &= run_one(w.name, &cli, false)?;
                }
                println!(
                    "smoke: {}",
                    if ok {
                        "every check passed"
                    } else {
                        "CHECKS FAILED"
                    }
                );
                return Ok(ok);
            }
            let name = cli.workload.as_deref().ok_or("--workload is required")?;
            run_one(name, &cli, true)
        }
        "merge" => {
            let cli = parse_cli(rest, false)?;
            let (merged, ok) = compare::merge(&cli.files)?;
            write_file(&cli.out, &merged.pretty())?;
            println!(
                "merged {} files into {}",
                cli.files.len(),
                cli.out.display()
            );
            Ok(ok)
        }
        "compare" => {
            let [a, b] = rest else {
                return Err("usage: gbjbench compare <a.json> <b.json>".into());
            };
            let load = |p: &String| -> Result<json::Json, String> {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                json::Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            };
            let ok = compare::compare(&load(a)?, &load(b)?)?;
            println!(
                "compare: {}",
                if ok {
                    "b is acceptable against a"
                } else {
                    "b is NOT acceptable against a"
                }
            );
            Ok(ok)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(CHECK_FAILED),
        Err(e) => {
            eprintln!("gbjbench: {e}");
            ExitCode::FAILURE
        }
    }
}
