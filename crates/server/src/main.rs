//! `mwtj-server`: the long-lived query server binary.
//!
//! ```text
//! mwtj-server [--listen ADDR] [--units K] [--max-queue N] [--slow-query-ms MS] [--demo]
//! mwtj-server --stdin [--units K] [--max-queue N] [--slow-query-ms MS] [--demo]
//! mwtj-server client [--stream] ADDR REQUEST...
//! ```
//!
//! The default mode binds a TCP listener and serves the framed
//! protocol until a `shutdown` request. `--stdin` serves one-line
//! requests from stdin (responses on stdout) — handy for scripts and
//! CI. `client` sends a single request (the remaining arguments,
//! joined) to a running server and prints the response; it exits
//! non-zero if the response is an error. With `--stream` the client
//! reads a streamed frame sequence (schema → batches → end) and prints
//! each frame *as it arrives* — a `run` request is rewritten to
//! `stream` for convenience. With `--prepare` the remaining arguments
//! are SQL (with optional `?` parameters) and the client demonstrates
//! the full statement lifecycle on one connection: `prepare` →
//! `execute` with `--params v1,v2,…` (streamed under `--stream`) →
//! `close`, printing every response. `--history [N]` and
//! `--profile TRACE` are shorthand for the `history`/`profile`
//! introspection verbs: the recent flight-recorder entries, and the
//! retained profile tree of one recorded slow run.

use mwtj_core::{AdmissionPolicy, Engine};
use mwtj_server::{load_demo, serve_lines, Client, Server};
use std::io::{self, BufReader};
use std::process::ExitCode;

struct Args {
    listen: String,
    units: u32,
    max_queue: Option<usize>,
    /// Engine-wide slow-query log threshold in wall-clock ms (0 = off);
    /// per-request `+slow=ms` options override it.
    slow_query_ms: u64,
    demo: bool,
    stdin: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mwtj-server [--listen ADDR] [--units K] [--max-queue N] \
         [--slow-query-ms MS] [--demo] [--stdin]\n\
         \x20      mwtj-server client [--stream] ADDR REQUEST...\n\
         \x20      mwtj-server client --prepare [--stream] [--params V1,V2,...] ADDR SQL...\n\
         \x20      mwtj-server client --history [N] ADDR\n\
         \x20      mwtj-server client --profile TRACE ADDR"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        listen: "127.0.0.1:7411".into(),
        units: 16,
        max_queue: Some(64),
        slow_query_ms: 0,
        demo: false,
        stdin: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => out.listen = it.next().unwrap_or_else(|| usage()).clone(),
            "--units" => {
                out.units = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--max-queue" => {
                let v: i64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                out.max_queue = if v < 0 { None } else { Some(v as usize) };
            }
            "--slow-query-ms" => {
                out.slow_query_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--demo" => out.demo = true,
            "--stdin" => out.stdin = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    out
}

fn build_engine(args: &Args) -> Engine {
    let policy = AdmissionPolicy {
        max_queue: args.max_queue,
        ..AdmissionPolicy::default()
    };
    let engine = Engine::with_units_and_policy(args.units, policy);
    engine.set_slow_query_ms(args.slow_query_ms);
    if args.demo {
        load_demo(&engine);
        eprintln!("loaded demo relations: r, s, t (columns a:int, b:int)");
    }
    engine
}

/// The `--prepare` lifecycle demo: prepare → execute (optionally
/// streamed) → close on one connection, printing every response.
fn client_prepare(addr: &str, sql: &str, params: &[f64], streamed: bool) -> ExitCode {
    use std::io::Write as _;
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let step = |label: &str, result: io::Result<String>| -> Result<String, ExitCode> {
        match result {
            Ok(response) => {
                let _ = writeln!(io::stdout(), "{response}");
                if response.starts_with("err") {
                    Err(ExitCode::FAILURE)
                } else {
                    Ok(response)
                }
            }
            Err(e) => {
                eprintln!("{label} failed: {e}");
                Err(ExitCode::FAILURE)
            }
        }
    };
    let prepared = match step("prepare", client.prepare(sql)) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let Some(id) = Client::parse_stmt_id(&prepared) else {
        eprintln!("prepare response carried no stmt= id");
        return ExitCode::FAILURE;
    };
    if streamed {
        let ps: String = params.iter().map(|p| format!(" {p}")).collect();
        match client.stream(&format!("execute {id} stream{ps}"), |frame| {
            let _ = writeln!(io::stdout(), "{frame}");
            let _ = io::stdout().flush();
        }) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("execute failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Err(code) = step(
        "execute",
        client.execute(id, &mwtj_core::RunOptions::default(), params),
    ) {
        return code;
    }
    match step("close", client.close_stmt(id)) {
        Ok(_) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn client_main(rest: &[String]) -> ExitCode {
    let mut rest = rest;
    let mut streamed = false;
    let mut prepare = false;
    let mut history: Option<Option<usize>> = None;
    let mut profile: Option<u64> = None;
    let mut params: Vec<f64> = Vec::new();
    loop {
        match rest.first().map(String::as_str) {
            Some("--stream") => {
                streamed = true;
                rest = &rest[1..];
            }
            Some("--prepare") => {
                prepare = true;
                rest = &rest[1..];
            }
            Some("--history") => {
                // Optional count: `--history 5 ADDR`. An address never
                // parses as a bare count, so the grammar is unambiguous.
                match rest.get(1).and_then(|w| w.parse::<usize>().ok()) {
                    Some(n) => {
                        history = Some(Some(n));
                        rest = &rest[2..];
                    }
                    None => {
                        history = Some(None);
                        rest = &rest[1..];
                    }
                }
            }
            Some("--profile") => {
                let Some(id) = rest.get(1) else { usage() };
                match id.parse::<u64>() {
                    Ok(t) => profile = Some(t),
                    Err(_) => {
                        eprintln!("--profile: `{id}` is not a trace id");
                        return ExitCode::FAILURE;
                    }
                }
                rest = &rest[2..];
            }
            Some("--params") => {
                let Some(list) = rest.get(1) else { usage() };
                for v in list.split(',') {
                    match v.trim().parse::<f64>() {
                        Ok(p) => params.push(p),
                        Err(_) => {
                            eprintln!("--params: `{v}` is not a number");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                rest = &rest[2..];
            }
            _ => break,
        }
    }
    let Some(addr) = rest.first() else { usage() };
    if rest.len() < 2 && history.is_none() && profile.is_none() {
        usage();
    }
    if prepare {
        let sql = rest[1..].join(" ");
        return client_prepare(addr, &sql, &params, streamed);
    }
    let mut request = if let Some(n) = history {
        match n {
            Some(n) => format!("history {n}"),
            None => "history".to_string(),
        }
    } else if let Some(trace) = profile {
        format!("profile {trace}")
    } else {
        rest[1..].join(" ")
    };
    if streamed {
        // `client --stream ADDR run …` means "the same query,
        // streamed" — rewrite the verb.
        if let Some(tail) = request.strip_prefix("run ") {
            request = format!("stream {tail}");
        }
    }
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Tolerate a closed stdout (e.g. piped into `head`): a truncated
    // print must not look like a failed request.
    use std::io::Write as _;
    if streamed {
        return match client.stream(&request, |frame| {
            let _ = writeln!(io::stdout(), "{frame}");
            let _ = io::stdout().flush();
        }) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("stream failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match client.request(&request) {
        Ok(response) => {
            let _ = writeln!(io::stdout(), "{response}");
            if response.starts_with("err") {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("client") {
        return client_main(&argv[1..]);
    }
    let args = parse_args(&argv);
    let engine = build_engine(&args);
    if args.stdin {
        let stdin = io::stdin();
        let mut stdout = io::stdout();
        if let Err(e) = serve_lines(&engine, BufReader::new(stdin.lock()), &mut stdout) {
            eprintln!("stdin serve failed: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let server = match Server::bind(engine, &args.listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!(
            "mwtj-server listening on {addr} ({} units); send `shutdown` to stop",
            args.units
        ),
        Err(e) => eprintln!("mwtj-server listening ({e})"),
    }
    match server.serve() {
        Ok(served) => {
            eprintln!("mwtj-server: clean shutdown after {served} request(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}
