//! `gbj-lint` — run the plan static analyzer over SQL script files.
//!
//! ```text
//! cargo run --bin gbj-lint -- corpus/paper_examples.sql
//! cargo run --bin gbj-lint -- --json corpus/counterexamples.sql
//! cargo run --bin gbj-lint -- --codes corpus/counterexamples.sql
//! cargo run --bin gbj-lint -- --deny warnings corpus/paper_examples.sql
//! cargo run --bin gbj-lint -- --deny GBJ601 --allow GBJ604 corpus/x.sql
//! ```
//!
//! Each file is a `;`-separated script. DDL and DML statements are
//! *executed* (so later queries see the schemas, keys and constraints
//! they declare); every SELECT — and the target of every EXPLAIN — is
//! analyzed without running it: schema/type soundness, the refusal
//! code of a refused eager-aggregation rewrite (the TestFD step that
//! failed), the NULL-semantics lints, and the range/NDV domain proofs.
//!
//! Exit status: `0` when nothing *denied* was produced, `1` when at
//! least one denied diagnostic was found, `2` on usage, I/O or SQL
//! errors. By default only Error-severity diagnostics are denied
//! (warnings — e.g. a correctly *refused* rewrite — do not fail the
//! run). `--deny warnings` promotes every Warning to a failure;
//! `--deny <code>` denies one specific code regardless of its
//! severity; `--allow <code>` exempts a code from any denial,
//! including the Error default. `--allow` wins over `--deny` for the
//! same code.

use gbj::analyze::{Code, Severity};
use gbj::Database;

const USAGE: &str = "usage: gbj-lint [--json] [--codes] [--deny <code|warnings>] [--allow <code>] <file.sql>...\n\
                     \x20 --json           render one JSON report object per query (as a JSON array)\n\
                     \x20 --codes          print only the diagnostic codes, one per line\n\
                     \x20 --deny <what>    fail (exit 1) on a specific code (e.g. GBJ601), or on\n\
                     \x20                  all warnings with `--deny warnings`; repeatable\n\
                     \x20 --allow <code>   never fail on this code, overriding --deny and the\n\
                     \x20                  Error-severity default; repeatable\n\
                     \x20 exit codes: 0 = no denied diagnostics, 1 = denied diagnostics found,\n\
                     \x20             2 = usage, I/O or SQL error";

/// Which diagnostics gate the exit status.
struct GatePolicy {
    deny_warnings: bool,
    deny_codes: Vec<Code>,
    allow_codes: Vec<Code>,
}

impl GatePolicy {
    /// Whether one diagnostic (by code and severity) fails the run.
    fn denies(&self, code: Code, severity: Severity) -> bool {
        if self.allow_codes.contains(&code) {
            return false;
        }
        severity == Severity::Error
            || (self.deny_warnings && severity == Severity::Warning)
            || self.deny_codes.contains(&code)
    }
}

fn parse_code(s: &str) -> Option<Code> {
    Code::all().iter().copied().find(|c| c.as_str() == s)
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut json = false;
    let mut codes_only = false;
    let mut files = Vec::new();
    let mut policy = GatePolicy {
        deny_warnings: false,
        deny_codes: Vec::new(),
        allow_codes: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--codes" => codes_only = true,
            "--deny" => {
                let Some(what) = args.next() else {
                    eprintln!("--deny needs an argument\n{USAGE}");
                    return 2;
                };
                if what == "warnings" {
                    policy.deny_warnings = true;
                } else if let Some(code) = parse_code(&what) {
                    policy.deny_codes.push(code);
                } else {
                    eprintln!("--deny: unknown code {what}\n{USAGE}");
                    return 2;
                }
            }
            "--allow" => {
                let Some(what) = args.next() else {
                    eprintln!("--allow needs an argument\n{USAGE}");
                    return 2;
                };
                let Some(code) = parse_code(&what) else {
                    eprintln!("--allow: unknown code {what}\n{USAGE}");
                    return 2;
                };
                policy.allow_codes.push(code);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            _ if arg.starts_with('-') => {
                eprintln!("unknown flag {arg}\n{USAGE}");
                return 2;
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }

    let mut denied_found = false;
    let mut json_reports = Vec::new();
    for file in &files {
        let sql = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                return 2;
            }
        };
        // Each file gets a fresh in-memory database: scripts are
        // self-contained (schema + queries) and independent.
        let mut db = Database::new();
        let reports = match db.lint_script(&sql) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{file}: {e}");
                return 2;
            }
        };
        for report in reports {
            for code in report.codes() {
                if policy.denies(code, code.severity()) {
                    denied_found = true;
                }
            }
            if json {
                json_reports.push(report.render_json());
            } else if codes_only {
                for code in report.codes() {
                    println!("{}", code.as_str());
                }
            } else {
                print!("{}", report.render_text());
            }
        }
    }
    if json {
        println!("[{}]", json_reports.join(","));
    }
    if denied_found {
        1
    } else {
        0
    }
}
