//! `xqa` — command-line XQuery-with-analytics runner and server.
//!
//! `xqa --help` prints the options of both (the `USAGE` text below,
//! followed by the plan-hint table).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use xqa::{
    serialize_sequence_with, Clock, Engine, EngineOptions, MonotonicClock, PlanHints,
    SerializeOptions, TickClock,
};
use xqa_service::{DocumentCatalog, FlightRecord, Server, ServiceConfig};

/// Tick width of the `--deterministic-clock` profile clock: 1ms per
/// clock read, so golden profile output is stable across machines.
const DETERMINISTIC_TICK_NANOS: u64 = 1_000_000;

/// A one-shot run's query id: its compile trace's `query_id` and its
/// `--diag-json` record's `request_id`.
const QUERY_ID: u64 = 1;

struct Args {
    query_text: Option<String>,
    query_file: Option<String>,
    input: Option<String>,
    docs: Vec<(String, String)>,
    collections: Vec<(String, Vec<String>)>,
    pretty: bool,
    stats: bool,
    explain: bool,
    profile: bool,
    diag_json: Option<String>,
    deterministic_clock: bool,
    hints: PlanHints,
}

const USAGE: &str = "usage: xqa [OPTIONS] <query.xq | -q QUERY> [input.xml]
       xqa serve [OPTIONS]
options:
  -q, --query TEXT          inline query text
  -i, --input FILE          input XML document (context item)
      --doc NAME=FILE       register a document for fn:doc(\"NAME\")
      --collection NAME=FILE[,FILE...]
                            register a collection for fn:collection(\"NAME\")
      --pretty              pretty-print the result
      --stats               print evaluator statistics to stderr
      --explain             print the compiled plan to stderr before running
      --profile             run with per-operator profiling and print
                            `explain analyze` to stderr
      --diag-json FILE      write the run's flight record to FILE, the JSON
                            `serve` returns at /debug/query/<id>: plan
                            fingerprint, latency, evaluator stats, the full
                            profile (one entry per FLWOR: operator
                            est/actual counters summed over its executions,
                            q-errors), the compile trace (parse, rewrites,
                            compile with its hints) and the rewrite kinds
      --deterministic-clock profile with a fixed-tick clock so timings are
                            reproducible (for tests and goldens)
      --hint K=V[,K=V...]   pin planner decisions (hints below)
  -h, --help                show this help
serve options:
      --addr HOST:PORT      bind address (default 127.0.0.1:8399)
      --workers N           worker threads (default: one per core)
      --cache-size N        prepared-plan cache capacity (default 128)
      --max-queue N         admitted connections allowed to wait for a
                            worker beyond the workers themselves; excess
                            connections are shed with 429 + Retry-After
                            (default 128)
      --max-inflight-per-client N
                            admitted connections allowed per client IP at
                            once (default 64)
      --max-requests-per-conn N
                            keep-alive requests served on one connection
                            before the server closes it (default 1000)
      --flight-recorder-capacity N
                            completed-query records retained for the
                            /debug/queries, /debug/query/<id> and
                            /debug/plans endpoints (default 256;
                            0 disables the recorder)
      --hint K=V[,K=V...]   pin planner decisions (hints below)
hints (--hint on run and serve; an absent hint leaves the decision to the
planner):
";

fn usage() -> String {
    format!("{USAGE}{}", PlanHints::table())
}

/// The value of `--hint`.
fn parse_hint_spec(spec: Option<String>) -> Result<PlanHints, String> {
    spec.ok_or("--hint requires KEY=VALUE[,KEY=VALUE...]")?
        .parse()
}

fn parse_doc_spec(spec: &str) -> Result<(String, String), String> {
    let (name, file) = spec
        .split_once('=')
        .ok_or("--doc requires NAME=FILE syntax")?;
    Ok((name.to_string(), file.to_string()))
}

fn parse_collection_spec(spec: &str) -> Result<(String, Vec<String>), String> {
    let (name, files) = spec
        .split_once('=')
        .ok_or("--collection requires NAME=FILE[,FILE...] syntax")?;
    let files: Vec<String> = files
        .split(',')
        .filter(|f| !f.is_empty())
        .map(str::to_string)
        .collect();
    if files.is_empty() {
        return Err("--collection requires at least one file".to_string());
    }
    Ok((name.to_string(), files))
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        query_text: None,
        query_file: None,
        input: None,
        docs: Vec::new(),
        collections: Vec::new(),
        pretty: false,
        stats: false,
        explain: false,
        profile: false,
        diag_json: None,
        deterministic_clock: false,
        hints: PlanHints::default(),
    };
    let mut it = raw;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(usage()),
            "-q" | "--query" => {
                args.query_text = Some(it.next().ok_or_else(|| format!("{arg} requires a value"))?);
            }
            "-i" | "--input" => {
                args.input = Some(it.next().ok_or_else(|| format!("{arg} requires a value"))?);
            }
            "--doc" => {
                let spec = it.next().ok_or("--doc requires NAME=FILE")?;
                args.docs.push(parse_doc_spec(&spec)?);
            }
            "--collection" => {
                let spec = it
                    .next()
                    .ok_or("--collection requires NAME=FILE[,FILE...]")?;
                args.collections.push(parse_collection_spec(&spec)?);
            }
            "--pretty" => args.pretty = true,
            "--stats" => args.stats = true,
            "--explain" => args.explain = true,
            "--profile" => args.profile = true,
            "--diag-json" => {
                args.diag_json = Some(it.next().ok_or("--diag-json requires a file")?);
            }
            "--deterministic-clock" => args.deterministic_clock = true,
            "--hint" => args.hints = parse_hint_spec(it.next())?,
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    if args.query_text.is_none() {
        args.query_file = Some(positional.next().ok_or("missing query (file or -q)")?);
    }
    if args.input.is_none() {
        args.input = positional.next();
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument {extra}"));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let query_source = match (&args.query_text, &args.query_file) {
        (Some(text), _) => text.clone(),
        (None, Some(file)) => {
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?
        }
        (None, None) => unreachable!("parse_args guarantees a query"),
    };
    // The profile's clock; `--deterministic-clock` pins its readings.
    // The compile trace counts from the compile's own start.
    let clock: Arc<dyn Clock> = if args.deterministic_clock {
        Arc::new(TickClock::new(DETERMINISTIC_TICK_NANOS))
    } else {
        Arc::new(MonotonicClock::new())
    };
    // Load documents before compiling: the indexed stores built over
    // them yield the statistics the plan's cardinality estimates read.
    let mut catalog = load_catalog(args.input.as_deref(), &args.docs, &args.collections)?;
    let statistics = catalog.build_indexes();
    let mut ctx = catalog.new_context();
    ctx.set_clock(Arc::clone(&clock));
    if args.profile || args.diag_json.is_some() {
        ctx.enable_profiling();
    }
    let engine = Engine::with_options(EngineOptions {
        hints: args.hints,
        ..EngineOptions::default()
    })
    .with_statistics(statistics);
    // The record's latency spans compile, run and serialize, as a
    // served request's does.
    let started = Instant::now();
    let query = engine.compile(&query_source).map_err(|e| e.to_string())?;
    for rewrite in query.applied_rewrites() {
        eprintln!("rewrite: {rewrite}");
    }
    if args.explain {
        eprint!("{}", query.explain());
    }
    let result = query.run(&ctx);
    if let Ok(items) = &result {
        let options = if args.pretty {
            SerializeOptions::pretty()
        } else {
            SerializeOptions::default()
        };
        println!("{}", serialize_sequence_with(items, options));
    }
    let latency = started.elapsed();
    let profile = if args.profile || args.diag_json.is_some() {
        let p = ctx.take_profile().unwrap_or_default();
        if args.profile && result.is_ok() {
            eprint!("{}", query.explain_analyze(&p, &ctx.stats.snapshot()));
        }
        Some(p)
    } else {
        None
    };
    if args.stats && result.is_ok() {
        eprintln!("stats: {}", ctx.stats.snapshot());
    }
    if let Some(file) = &args.diag_json {
        // The record a server deposits for the same request: compiled
        // now, buffered; a failed run keeps what it did up to the error.
        let stats = ctx.stats.snapshot();
        let facts = (&stats, profile.as_ref().expect("profiling enabled"));
        let record = FlightRecord::new(
            QUERY_ID.to_string(),
            &query_source,
            Some((&query, false)),
            QUERY_ID,
            latency,
            false,
            match &result {
                Ok(_) => Ok(facts),
                Err(e) => Err((format!("runtime: {e}"), Some(facts))),
            },
        );
        std::fs::write(file, record.full_json())
            .map_err(|e| format!("cannot write {file}: {e}"))?;
    }
    result.map(drop).map_err(|e| e.to_string())
}

struct ServeArgs {
    addr: String,
    input: Option<String>,
    docs: Vec<(String, String)>,
    collections: Vec<(String, Vec<String>)>,
    workers: usize,
    cache_size: usize,
    max_queue: usize,
    max_inflight_per_client: usize,
    max_requests_per_conn: usize,
    flight_recorder_capacity: usize,
    hints: PlanHints,
}

fn parse_serve_args(raw: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        addr: "127.0.0.1:8399".to_string(),
        input: None,
        docs: Vec::new(),
        collections: Vec::new(),
        workers: 0,
        cache_size: 128,
        max_queue: ServiceConfig::default().max_queue,
        max_inflight_per_client: ServiceConfig::default().max_inflight_per_client,
        max_requests_per_conn: ServiceConfig::default().max_requests_per_conn,
        flight_recorder_capacity: ServiceConfig::default().flight_recorder_capacity,
        hints: PlanHints::default(),
    };
    let mut it = raw;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(usage()),
            "--addr" => {
                args.addr = it.next().ok_or("--addr requires HOST:PORT")?;
            }
            "-i" | "--input" => {
                args.input = Some(it.next().ok_or_else(|| format!("{arg} requires a value"))?);
            }
            "--doc" => {
                let spec = it.next().ok_or("--doc requires NAME=FILE")?;
                args.docs.push(parse_doc_spec(&spec)?);
            }
            "--collection" => {
                let spec = it
                    .next()
                    .ok_or("--collection requires NAME=FILE[,FILE...]")?;
                args.collections.push(parse_collection_spec(&spec)?);
            }
            "--workers" => {
                let n = it.next().ok_or("--workers requires a number")?;
                args.workers = n.parse().map_err(|_| format!("invalid worker count {n}"))?;
            }
            "--cache-size" => {
                let n = it.next().ok_or("--cache-size requires a number")?;
                args.cache_size = n.parse().map_err(|_| format!("invalid cache size {n}"))?;
            }
            "--max-queue" => {
                let n = it.next().ok_or("--max-queue requires a number")?;
                args.max_queue = n.parse().map_err(|_| format!("invalid queue bound {n}"))?;
            }
            "--max-inflight-per-client" => {
                let n = it
                    .next()
                    .ok_or("--max-inflight-per-client requires a number")?;
                args.max_inflight_per_client =
                    n.parse().map_err(|_| format!("invalid quota {n}"))?;
                if args.max_inflight_per_client == 0 {
                    return Err("--max-inflight-per-client must be at least 1".to_string());
                }
            }
            "--max-requests-per-conn" => {
                let n = it
                    .next()
                    .ok_or("--max-requests-per-conn requires a number")?;
                args.max_requests_per_conn =
                    n.parse().map_err(|_| format!("invalid request cap {n}"))?;
                if args.max_requests_per_conn == 0 {
                    return Err("--max-requests-per-conn must be at least 1".to_string());
                }
            }
            "--flight-recorder-capacity" => {
                let n = it
                    .next()
                    .ok_or("--flight-recorder-capacity requires a number")?;
                args.flight_recorder_capacity =
                    n.parse().map_err(|_| format!("invalid capacity {n}"))?;
            }
            "--hint" => args.hints = parse_hint_spec(it.next())?,
            other => return Err(format!("unknown serve option {other}")),
        }
    }
    Ok(args)
}

/// The documents of `-i`, `--doc` and `--collection`, for `run` and
/// `serve` alike: each file is parsed once, so one file named twice is
/// one document.
fn load_catalog(
    input: Option<&str>,
    docs: &[(String, String)],
    collections: &[(String, Vec<String>)],
) -> Result<DocumentCatalog, String> {
    let mut catalog = DocumentCatalog::new();
    if let Some(input) = input {
        catalog.set_context_file(input).map_err(|e| e.to_string())?;
    }
    for (name, file) in docs {
        catalog
            .add_document_file(name, file)
            .map_err(|e| e.to_string())?;
    }
    for (name, files) in collections {
        catalog
            .add_collection_files(name, files)
            .map_err(|e| e.to_string())?;
    }
    Ok(catalog)
}

fn serve(args: &ServeArgs) -> Result<(), String> {
    let catalog = load_catalog(args.input.as_deref(), &args.docs, &args.collections)?;
    let config = ServiceConfig {
        workers: args.workers,
        plan_cache_capacity: args.cache_size,
        engine_options: EngineOptions {
            hints: args.hints,
            ..Default::default()
        },
        max_queue: args.max_queue,
        max_inflight_per_client: args.max_inflight_per_client,
        max_requests_per_conn: args.max_requests_per_conn,
        flight_recorder_capacity: args.flight_recorder_capacity,
        ..Default::default()
    };
    let server = Server::start(&args.addr, &catalog, config)
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    // Announce the bound address (with the real port when --addr used
    // port 0) so callers can connect; then serve until killed.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("serve") {
        argv.next();
        let args = match parse_serve_args(argv) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        };
        return match serve(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("xqa: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xqa: {msg}");
            ExitCode::FAILURE
        }
    }
}
