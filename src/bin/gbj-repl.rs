//! A small interactive shell for the `gbj` engine, running through the
//! concurrent serving layer (`gbj-server`): every SELECT is an
//! admitted snapshot read with the session's deadline attached, every
//! write runs on the serialised write path, and prepared plans come
//! from the bound-plan cache.
//!
//! ```text
//! cargo run --bin gbj-repl                  # interactive
//! cargo run --bin gbj-repl script.sql       # run a file, then drop to the prompt
//! cargo run --bin gbj-repl -- --threads 4   # the pipeline over 4 parts on 4 workers
//! ```
//!
//! Statements end with `;`. Meta commands:
//!
//! * `\q` — quit
//! * `\tables` — list tables and views
//! * `\policy cost|eager|lazy` — set the pushdown policy
//! * `\threads n` — run the chunk pipeline over `n` parts on `n` worker
//!   threads (`1` = one part, inline), and print the resulting `path:`
//! * `\timeout <ms>|off` — set (or clear) this session's query deadline
//! * `\metrics` — timings, estimate-vs-actual audit and operator
//!   counters of the most recent query
//! * `\sessions` — server counters: sessions, admitted/shed/cancelled/
//!   deadline-exceeded queries, plan-cache hits, snapshot refreshes
//! * `\lint SELECT …` — run the static analyzer over a query without
//!   executing it (same diagnostics as `EXPLAIN (LINT)`)
//! * `\help` — this text

use std::io::{BufRead, Write};
use std::num::NonZeroUsize;
use std::time::Duration;

use gbj::engine::{PushdownPolicy, QueryMetrics, QueryOutput};
use gbj::exec::execution_path;
use gbj::plan::LogicalPlan;
use gbj::server::{Server, ServerConfig, Session};
use gbj::types::Schema;

struct Repl {
    server: Server,
    session: Session,
    /// Metrics of the most recent session read (`\metrics`).
    last: Option<QueryMetrics>,
}

impl Repl {
    fn new() -> Repl {
        let server = Server::new(ServerConfig::default().with_plan_cache(32));
        let session = server.connect();
        Repl {
            server,
            session,
            last: None,
        }
    }
}

/// `--threads n` / `\threads n`: the thread count sizes the team under
/// the pipeline's parts and nothing else, so asking for `n` workers
/// means `n` parts for them to run.
fn set_parallelism(state: &mut Repl, n: NonZeroUsize) {
    state.server.reconfigure(|db| {
        db.set_shards(n);
        db.set_threads(n);
    });
    println!("executor threads = {n}, parts = {n}");
    // What a plan inside the gate now runs on (a bare scan always is).
    let scan = LogicalPlan::Scan {
        table: String::new(),
        qualifier: String::new(),
        schema: Schema::empty(),
    };
    let exec = state.server.with_snapshot(|db| db.options().exec);
    println!("path: {}", execution_path(&scan, &exec));
}

fn print_output(out: &QueryOutput) {
    match out {
        QueryOutput::Rows(rows) => println!("{rows}"),
        QueryOutput::Explain(text) => println!("{text}"),
        QueryOutput::Affected(n) => println!("INSERT {n}"),
        QueryOutput::Ddl(msg) => println!("{msg}"),
    }
}

/// True when the buffer is one bare SELECT (no trailing second
/// statement) that can take the session's snapshot-read path.
fn is_single_select(sql: &str) -> bool {
    let body = sql.trim().trim_end_matches(';');
    !body.contains(';')
        && body
            .trim_start()
            .get(..6)
            .is_some_and(|p| p.eq_ignore_ascii_case("select"))
}

fn run_buffer(state: &mut Repl, sql: &str) {
    if is_single_select(sql) {
        match state.session.query(sql.trim().trim_end_matches(';')) {
            Ok(resp) => {
                println!("{}", resp.rows);
                if resp.cache_hit {
                    println!("(cached plan, epoch {})", resp.epoch);
                }
                state.last = Some(resp.metrics);
            }
            Err(e) => eprintln!("{e}"),
        }
        return;
    }
    match state.session.run(sql) {
        Ok(outputs) => {
            for out in outputs {
                print_output(&out);
            }
        }
        Err(e) => eprintln!("{e}"),
    }
}

fn handle_meta(state: &mut Repl, line: &str) -> bool {
    let mut parts = line.split_whitespace();
    match parts.next() {
        Some("\\q") | Some("\\quit") => return false,
        Some("\\help") => {
            println!(
                "statements end with ';'. SELECT / INSERT / UPDATE / DELETE / \
                 CREATE TABLE|DOMAIN|VIEW|ASSERTION / DROP / EXPLAIN [ANALYZE] [(LINT)].\n\
                 \\q quit | \\tables list | \\policy cost|eager|lazy | \\threads n | \
                 \\timeout ms|off session deadline | \\metrics last-query metrics | \
                 \\sessions server counters | \\lint SELECT … analyze without running"
            );
        }
        Some("\\metrics") => match &state.last {
            Some(m) => print!("{}", m.render()),
            None => println!("no session read has run yet"),
        },
        Some("\\sessions") => print!("{}", state.server.metrics().render()),
        Some("\\timeout") => match parts.next() {
            Some("off") => {
                state.session.set_timeout(None);
                println!("session timeout off");
            }
            Some(ms) => match ms.parse::<u64>() {
                Ok(ms) => {
                    state.session.set_timeout(Some(Duration::from_millis(ms)));
                    println!("session timeout = {ms} ms");
                }
                Err(_) => eprintln!("usage: \\timeout <milliseconds>|off"),
            },
            None => match state.session.timeout() {
                Some(t) => println!("session timeout = {} ms", t.as_millis()),
                None => println!("session timeout off"),
            },
        },
        Some("\\lint") => {
            let rest = line["\\lint".len()..].trim().trim_end_matches(';');
            if rest.is_empty() {
                eprintln!("usage: \\lint SELECT …");
            } else {
                match state.server.with_snapshot(|db| db.lint_select(rest)) {
                    Ok(report) => print!("{}", report.render_text()),
                    Err(e) => eprintln!("{e}"),
                }
            }
        }
        Some("\\tables") => {
            state.server.with_snapshot(|db| {
                for t in db.catalog().tables() {
                    println!("table {} ({} columns)", t.name, t.columns.len());
                }
            });
        }
        Some("\\policy") => match parts.next() {
            Some("cost") => state
                .server
                .reconfigure(|db| db.options_mut().policy = PushdownPolicy::CostBased),
            Some("eager") => state
                .server
                .reconfigure(|db| db.options_mut().policy = PushdownPolicy::Always),
            Some("lazy") => state
                .server
                .reconfigure(|db| db.options_mut().policy = PushdownPolicy::Never),
            other => eprintln!("unknown policy {other:?} (cost|eager|lazy)"),
        },
        Some("\\threads") => match parts.next().and_then(|n| n.parse().ok()) {
            Some(n) => set_parallelism(state, n),
            None => eprintln!("usage: \\threads <positive integer>"),
        },
        other => eprintln!("unknown meta command {other:?} (try \\help)"),
    }
    true
}

fn main() {
    let mut state = Repl::new();
    println!("gbj — group-by before join (Yan & Larson, ICDE 1994). \\help for help.");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => set_parallelism(&mut state, n),
                None => eprintln!("usage: --threads <positive integer>"),
            }
            continue;
        }
        match std::fs::read_to_string(&arg) {
            Ok(sql) => {
                println!("-- running {arg}");
                run_buffer(&mut state, &sql);
            }
            Err(e) => eprintln!("cannot read {arg}: {e}"),
        }
    }

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        let prompt = if buffer.trim().is_empty() {
            "gbj> "
        } else {
            "...> "
        };
        print!("{prompt}");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.trim().is_empty() && trimmed.starts_with('\\') {
            if !handle_meta(&mut state, trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') {
            let sql = std::mem::take(&mut buffer);
            run_buffer(&mut state, &sql);
        }
    }
}
