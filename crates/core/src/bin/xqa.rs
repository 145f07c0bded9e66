//! `xqa` — command-line XQuery-with-analytics runner and server.
//!
//! ```text
//! xqa [OPTIONS] <query.xq | -q "query text"> [input.xml]
//!
//!   -q, --query <TEXT>          inline query text instead of a file
//!   -i, --input <FILE>          input XML document (context item)
//!       --doc NAME=FILE         register a document for fn:doc("NAME")
//!       --collection NAME=F,..  register a collection for fn:collection("NAME")
//!       --pretty                pretty-print the result
//!       --stats                 print evaluator statistics to stderr
//!       --stats-json            print stats (and profile) as JSON to stderr
//!       --profile               run profiled; print `explain analyze` to stderr
//!       --trace-json FILE       write compile/execute trace events to FILE
//!       --diag-json FILE        write one diagnostics object (plan fingerprint,
//!                               rewrites, stats, profile with spans and
//!                               q-errors, trace events) to FILE
//!       --deterministic-clock   profile with a fixed-tick clock (for tests)
//!       --threads N             intra-query parallelism (default: all cores;
//!                               1 = serial)
//!       --hint K=V[,K=V...]     pin planner decisions (`--help` lists the
//!                               hints; XQA_HINTS supplies the ones left absent)
//!   -h, --help                  this help
//!
//! xqa serve [OPTIONS]           start the HTTP query service
//!
//!       --addr HOST:PORT        bind address (default 127.0.0.1:8399)
//!   -i, --input FILE            context document served to every query
//!       --doc NAME=FILE         as above
//!       --collection NAME=F,..  as above
//!       --workers N             worker threads (default: one per core)
//!       --query-threads N       intra-query parallelism per request
//!                               (default: all cores; 1 = serial)
//!       --cache-size N          prepared-plan cache capacity (default 128)
//!       --max-queue N           admitted connections allowed to wait for a
//!                               worker; excess shed with 429 (default 128)
//!       --max-inflight-per-client N
//!                               admitted connections per client IP
//!                               (default 64)
//!       --max-requests-per-conn N
//!                               keep-alive requests served per connection
//!                               before the server closes it (default 1000)
//!       --slow-query-ms N       log queries slower than N ms to stderr
//!       --flight-recorder-capacity N
//!                               per-query records kept for /debug/* endpoints
//!                               (default 256; 0 disables the recorder)
//!       --hint K=V[,K=V...]     as above
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use xqa::{
    parse_document, serialize_sequence_with, Clock, DynamicContext, Engine, EngineOptions,
    MonotonicClock, PlanHints, SerializeOptions, TickClock, TracePhase, TraceRing, TraceSink,
    Tracer,
};
use xqa_service::{DocumentCatalog, Server, ServiceConfig};

/// Tick width of the `--deterministic-clock` profile clock: 1ms per
/// clock read, so golden profile output is stable across machines.
const DETERMINISTIC_TICK_NANOS: u64 = 1_000_000;

/// Capacity of the `--trace-json` event ring (events beyond this drop
/// oldest-first; a single compile-and-run emits far fewer).
const TRACE_RING_CAPACITY: usize = 1024;

struct Args {
    query_text: Option<String>,
    query_file: Option<String>,
    input: Option<String>,
    docs: Vec<(String, String)>,
    collections: Vec<(String, Vec<String>)>,
    pretty: bool,
    stats: bool,
    stats_json: bool,
    explain: bool,
    profile: bool,
    trace_json: Option<String>,
    diag_json: Option<String>,
    deterministic_clock: bool,
    threads: usize,
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
      --stats-json          print statistics (and the profile, with --profile)
                            as one JSON object on stderr
      --explain             print the compiled plan to stderr before running
      --profile             run with per-operator profiling and print
                            `explain analyze` to stderr
      --trace-json FILE     write structured trace events (parse, rewrites,
                            compile, execute) to FILE as JSON
      --diag-json FILE      write one diagnostics JSON object to FILE: the
                            plan fingerprint, applied rewrites, evaluator
                            stats, the full profile (operator est/actual
                            counters, q-errors, span timeline) and the
                            compile/execute trace events
      --deterministic-clock profile with a fixed-tick clock so timings are
                            reproducible (for tests and goldens)
      --threads N           intra-query parallelism: worker threads for
                            eligible FLWORs (default: all cores, or
                            XQA_THREADS; 1 = serial)
      --hint K=V[,K=V...]   pin planner decisions (hints below)
  -h, --help                show this help
serve options:
      --addr HOST:PORT      bind address (default 127.0.0.1:8399)
      --workers N           worker threads (default: one per core)
      --query-threads N     intra-query parallelism per request (default:
                            all cores, or XQA_THREADS; 1 = serial)
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
      --slow-query-ms N     log queries slower than N ms to stderr
      --flight-recorder-capacity N
                            completed-query records retained for the
                            /debug/queries, /debug/query/<id> and
                            /debug/plans endpoints (default 256;
                            0 disables the recorder)
      --hint K=V[,K=V...]   pin planner decisions (hints below)
hints (--hint on run and serve; XQA_HINTS in the environment, same grammar,
supplies the hints --hint leaves absent):
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
        stats_json: false,
        explain: false,
        profile: false,
        trace_json: None,
        diag_json: None,
        deterministic_clock: false,
        threads: 0,
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
            "--stats-json" => args.stats_json = true,
            "--explain" => args.explain = true,
            "--profile" => args.profile = true,
            "--trace-json" => {
                args.trace_json = Some(it.next().ok_or("--trace-json requires a file")?);
            }
            "--diag-json" => {
                args.diag_json = Some(it.next().ok_or("--diag-json requires a file")?);
            }
            "--deterministic-clock" => args.deterministic_clock = true,
            "--threads" => {
                let n = it.next().ok_or("--threads requires a number")?;
                args.threads = n.parse().map_err(|_| format!("invalid thread count {n}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
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
    // One clock serves both the trace timestamps and the profile
    // timings, so `--deterministic-clock` pins every reading.
    let clock: Arc<dyn Clock> = if args.deterministic_clock {
        Arc::new(TickClock::new(DETERMINISTIC_TICK_NANOS))
    } else {
        Arc::new(MonotonicClock::new())
    };
    // Load documents before compiling: the indexed stores built over
    // them yield the statistics the planner's access-path decisions
    // consult.
    let mut ctx = DynamicContext::new();
    ctx.set_clock(Arc::clone(&clock));
    if args.profile || args.diag_json.is_some() {
        ctx.enable_profiling();
    }
    if let Some(input) = &args.input {
        let text =
            std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
        let doc = parse_document(&text).map_err(|e| format!("{input}: {e}"))?;
        ctx.set_context_document(&doc);
    }
    // Hold registered docs alive for the duration of the run.
    let mut registered = Vec::new();
    for (name, file) in &args.docs {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let doc = parse_document(&text).map_err(|e| format!("{file}: {e}"))?;
        ctx.register_document(name.clone(), &doc);
        registered.push(doc);
    }
    for (name, files) in &args.collections {
        let mut roots = Vec::with_capacity(files.len());
        for file in files {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let doc = parse_document(&text).map_err(|e| format!("{file}: {e}"))?;
            roots.push(doc.root());
            registered.push(doc);
        }
        ctx.register_collection(name.clone(), roots);
    }
    ctx.index_documents();
    let statistics = Arc::new(xqa::storage::CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    let engine = Engine::with_options(EngineOptions {
        threads: args.threads,
        hints: args.hints,
    })
    .with_statistics(statistics);
    let trace_ring = (args.trace_json.is_some() || args.diag_json.is_some())
        .then(|| Arc::new(TraceRing::new(TRACE_RING_CAPACITY)));
    let tracer = trace_ring.as_ref().map(|ring| {
        Tracer::new(
            1,
            Arc::clone(&clock),
            Arc::clone(ring) as Arc<dyn TraceSink>,
        )
    });
    let query = engine
        .compile_traced(&query_source, tracer.as_ref())
        .map_err(|e| e.to_string())?;
    for rewrite in query.applied_rewrites() {
        eprintln!("rewrite: {rewrite}");
    }
    if args.explain {
        eprint!("{}", query.explain());
    }
    let result = query.run(&ctx).map_err(|e| e.to_string())?;
    if let Some(t) = &tracer {
        t.emit(
            TracePhase::Execute,
            format!("evaluated: {} item(s) in result", result.len()),
        );
    }
    let options = if args.pretty {
        SerializeOptions::pretty()
    } else {
        SerializeOptions::default()
    };
    println!("{}", serialize_sequence_with(&result, options));
    let profile = if args.profile || args.diag_json.is_some() {
        let p = ctx.take_profile().unwrap_or_default();
        if args.profile {
            eprint!("{}", query.explain_analyze(&p));
        }
        Some(p)
    } else {
        None
    };
    if args.stats {
        eprintln!("stats: {}", ctx.stats.snapshot());
    }
    if args.stats_json {
        let s = ctx.stats.snapshot();
        match &profile {
            Some(p) => eprintln!("{{\"stats\":{},\"profile\":{}}}", s.to_json(), p.to_json()),
            None => eprintln!("{{\"stats\":{}}}", s.to_json()),
        }
    }
    if let (Some(file), Some(ring)) = (&args.trace_json, &trace_ring) {
        std::fs::write(file, ring.to_json()).map_err(|e| format!("cannot write {file}: {e}"))?;
    }
    if let Some(file) = &args.diag_json {
        // One self-contained diagnostics object — the CLI's offline
        // equivalent of a server-side flight record.
        let rewrites = query
            .applied_rewrites()
            .iter()
            .map(|r| format!("\"{}\"", xqa_engine::trace::json_escape(&r.to_string())))
            .collect::<Vec<_>>()
            .join(",");
        let diag = format!(
            "{{\"fingerprint\":\"{:016x}\",\"hints\":\"{}\",\"rewrites\":[{rewrites}],\
             \"stats\":{},\"profile\":{},\"trace\":{}}}",
            query.fingerprint(),
            query.hints(),
            ctx.stats.snapshot().to_json(),
            profile.as_ref().expect("profiling enabled").to_json(),
            trace_ring
                .as_ref()
                .map_or_else(|| "[]".to_string(), |r| r.to_json()),
        );
        std::fs::write(file, diag).map_err(|e| format!("cannot write {file}: {e}"))?;
    }
    Ok(())
}

struct ServeArgs {
    addr: String,
    input: Option<String>,
    docs: Vec<(String, String)>,
    collections: Vec<(String, Vec<String>)>,
    workers: usize,
    query_threads: usize,
    cache_size: usize,
    max_queue: usize,
    max_inflight_per_client: usize,
    max_requests_per_conn: usize,
    slow_query_ms: Option<u64>,
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
        query_threads: 0,
        cache_size: 128,
        max_queue: ServiceConfig::default().max_queue,
        max_inflight_per_client: ServiceConfig::default().max_inflight_per_client,
        max_requests_per_conn: ServiceConfig::default().max_requests_per_conn,
        slow_query_ms: None,
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
            "--query-threads" => {
                let n = it.next().ok_or("--query-threads requires a number")?;
                args.query_threads = n.parse().map_err(|_| format!("invalid thread count {n}"))?;
                if args.query_threads == 0 {
                    return Err("--query-threads must be at least 1".to_string());
                }
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
            "--slow-query-ms" => {
                let n = it.next().ok_or("--slow-query-ms requires a number")?;
                args.slow_query_ms = Some(n.parse().map_err(|_| format!("invalid threshold {n}"))?);
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

fn serve(args: &ServeArgs) -> Result<(), String> {
    let mut catalog = DocumentCatalog::new();
    if let Some(input) = &args.input {
        catalog.set_context_file(input).map_err(|e| e.to_string())?;
    }
    for (name, file) in &args.docs {
        catalog
            .add_document_file(name, file)
            .map_err(|e| e.to_string())?;
    }
    for (name, files) in &args.collections {
        catalog
            .add_collection_files(name, files)
            .map_err(|e| e.to_string())?;
    }
    let config = ServiceConfig {
        workers: args.workers,
        plan_cache_capacity: args.cache_size,
        engine_options: EngineOptions {
            threads: args.query_threads,
            hints: args.hints,
        },
        max_queue: args.max_queue,
        max_inflight_per_client: args.max_inflight_per_client,
        max_requests_per_conn: args.max_requests_per_conn,
        slow_query_ms: args.slow_query_ms,
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
