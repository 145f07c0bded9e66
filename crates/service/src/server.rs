//! The HTTP server: an acceptor thread feeding a worker pool whose
//! jobs are whole *connections* (HTTP/1.1 keep-alive request loops),
//! one fresh evaluation context per request.
//!
//! ```text
//! POST /query               body = query text -> 200 chunked serialized sequence
//!                                                400 {"error":{"kind":...,"message":...}}
//! POST /query?stream=false  -> 200 buffered (Content-Length) response
//! GET  /healthz             -> 200 "ok"
//! GET  /metrics             -> 200 Prometheus-style text
//! GET  /debug/queries       -> 200 flight-recorder ring, newest first
//! GET  /debug/query/<id>    -> 200 one full record (stats, profile, compile trace),
//!                                  the shape `xqa run --diag-json` writes
//! GET  /debug/plans         -> 200 per-plan-fingerprint aggregates
//! ```
//!
//! **Connection lifecycle.** The acceptor asks the [`Admission`] layer
//! before dispatching: connections past the `workers + max_queue`
//! bound or the per-client quota are shed inline with `429` +
//! `Retry-After`. Admitted connections run a keep-alive loop: up to
//! `max_requests_per_conn` requests are served per socket, waiting up
//! to `idle_timeout` for each next request and `read_timeout` per read
//! once one starts (an expired mid-request deadline answers `408` and
//! closes; an idle expiry or clean client EOF closes silently).
//! `Connection: close` and HTTP/1.0 semantics are honored and echoed.
//!
//! **Streaming.** Every query runs one way: one
//! [`PreparedQuery::run_serialized`] call, serializing each pipeline
//! batch as it is pulled, into a sink that either writes a chunk of a
//! `Transfer-Encoding: chunked` response (plain `POST /query` over
//! HTTP/1.1; the head goes out with the first chunk) or appends to a
//! buffered body (`?stream=false` and HTTP/1.0). Whether a failure can
//! still be a `400` is read off the socket, not off the engine's item
//! count: until the chunked head has gone out, a failure is an ordinary
//! `400` JSON response; after, the chunked body stays truncated (no
//! terminal chunk) and the connection closes, which is HTTP's
//! mid-stream failure signal.
//!
//! [`PreparedQuery::run_serialized`]: xqa_engine::PreparedQuery::run_serialized
//!
//! Every request gets its own [`DynamicContext`] built from the shared
//! [`DocumentCatalog`] (cheap: documents are parsed once at startup and
//! handed out as `Arc` clones), so per-request [`EvalStats`] and
//! operator profiles never interleave between concurrent requests.
//! Completed requests fold their stats snapshot into a service-wide
//! totals block that `/metrics` reads. Plans come from the LRU
//! [`PlanCache`]; rewrite-fired counters bump only on cache misses so
//! one compilation is counted exactly once. Every request is profiled,
//! and every response carries an `X-Request-Id` header — the client's
//! own, when it sent one — under which the completed request's record
//! waits in the [`FlightRecorder`] behind the `/debug/*` endpoints:
//! plan fingerprint, latency, stats, the per-FLWOR profile and the
//! worst cardinality misestimate, aggregated per plan shape.
//!
//! [`EvalStats`]: xqa_engine::EvalStats
//! [`DynamicContext`]: xqa_engine::DynamicContext

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use xqa_engine::trace::json_escape;
use xqa_engine::{
    Engine, EngineOptions, EvalStats, EvalStatsSnapshot, OpKind, PreparedQuery, QueryProfile,
    RewriteKind, StreamError,
};

use crate::admission::{Admission, AdmissionGuard, ShedReason};
use crate::cache::PlanCache;
use crate::catalog::DocumentCatalog;
use crate::flight::{FlightRecord, FlightRecorder};
use crate::http::{self, Request, RequestError};
use crate::metrics::{self, Metrics};
use crate::pool::ThreadPool;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Maximum number of cached prepared plans.
    pub plan_cache_capacity: usize,
    /// Options for the engine compiling every query, used as given:
    /// every plan runs at `engine_options.threads` (serial by default).
    pub engine_options: EngineOptions,
    /// Per-read deadline once a request has started arriving (keeps a
    /// slow-loris client from pinning a worker; expiry answers `408`).
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (bounds how long one socket can monopolize a worker).
    pub max_requests_per_conn: usize,
    /// Admitted connections allowed to wait for a worker beyond the
    /// workers themselves; excess connections are shed with `429`.
    pub max_queue: usize,
    /// Admitted connections allowed per client IP at once.
    pub max_inflight_per_client: usize,
    /// Completed-query records retained by the flight recorder
    /// (`0` disables recording).
    pub flight_recorder_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            plan_cache_capacity: 128,
            engine_options: EngineOptions::default(),
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            max_queue: 128,
            max_inflight_per_client: 64,
            flight_recorder_capacity: 256,
        }
    }
}

/// State shared by the acceptor and every worker, and read by the
/// metric registry ([`metrics::render`]).
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) cache: PlanCache,
    pub(crate) catalog: DocumentCatalog,
    pub(crate) metrics: Metrics,
    /// Evaluation counters folded in from per-request snapshots.
    pub(crate) totals: EvalStats,
    /// Tuples emitted per operator kind, indexed by `OpKind as usize`
    /// ([`OpKind::ALL`] position), summed from per-request profiles.
    pub(crate) op_tuples: [AtomicU64; OpKind::ALL.len()],
    /// Compilations in which each rewrite fired, indexed by
    /// `RewriteKind as usize` ([`RewriteKind::ALL`] position; cache
    /// misses only).
    pub(crate) rewrites_fired: [AtomicU64; RewriteKind::ALL.len()],
    next_request_id: AtomicU64,
    /// The always-on flight recorder behind the `/debug/*` endpoints.
    pub(crate) flight: FlightRecorder,
    pub(crate) pool: ThreadPool,
    pub(crate) started: Instant,
    /// Bounded admission + per-client quotas (see [`Admission`]).
    pub(crate) admission: Arc<Admission>,
    read_timeout: Duration,
    idle_timeout: Duration,
    max_requests_per_conn: usize,
}

/// A running query service bound to a TCP address.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.shared.pool.size())
            .finish()
    }
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port), build the shared
    /// context from `catalog`, spawn the worker pool and the acceptor.
    pub fn start(
        addr: &str,
        catalog: &DocumentCatalog,
        config: ServiceConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            config.workers
        };
        // Index the server's copy of the catalog so every request
        // context carries document stores, and hand the derived
        // statistics to the engine for the plans' cardinality estimates
        // (the statistics version also keys the plan cache).
        let mut catalog = catalog.clone();
        let statistics = catalog.build_indexes();
        let shared = Arc::new(Shared {
            engine: Engine::with_options(config.engine_options).with_statistics(statistics),
            cache: PlanCache::new(config.plan_cache_capacity),
            catalog,
            metrics: Metrics::new(),
            totals: EvalStats::default(),
            op_tuples: std::array::from_fn(|_| AtomicU64::new(0)),
            rewrites_fired: std::array::from_fn(|_| AtomicU64::new(0)),
            next_request_id: AtomicU64::new(0),
            flight: FlightRecorder::new(config.flight_recorder_capacity),
            pool: ThreadPool::new("xqa-worker", workers),
            started: Instant::now(),
            admission: Admission::new(workers, config.max_queue, config.max_inflight_per_client),
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("xqa-acceptor".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let peer = stream.peer_addr().ok().map(|a| a.ip());
                        match shared.admission.try_admit(peer) {
                            Ok(guard) => {
                                let conn_shared = Arc::clone(&shared);
                                shared.pool.execute(move || {
                                    handle_connection(stream, &conn_shared, guard)
                                });
                            }
                            Err(reason) => shed_connection(stream, reason),
                        }
                    }
                })?
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Mutex::new(Some(acceptor)),
            stop,
        })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// join every thread. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self
            .acceptor
            .lock()
            .expect("acceptor handle poisoned")
            .take()
        {
            let _ = handle.join();
        }
        self.shared.pool.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shed a connection the admission layer refused: an inline `429`
/// written from the acceptor thread (cheap — no query work, one small
/// buffered write), then close.
fn shed_connection(mut stream: TcpStream, reason: ShedReason) {
    // Never let a dead client block the acceptor.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = match reason {
        ShedReason::QueueFull => "server overloaded, retry later\n",
        ShedReason::ClientQuota => "per-client connection quota exceeded, retry later\n",
    };
    respond(
        &mut stream,
        429,
        TEXT,
        &[("Retry-After", "1")],
        body.as_bytes(),
        false,
    );
}

/// The per-connection keep-alive loop (one pool job per connection):
/// serve requests off the socket until the client closes, asks to
/// close, times out, errors, or hits the per-connection request cap.
fn handle_connection(mut stream: TcpStream, shared: &Shared, mut guard: AdmissionGuard) {
    guard.mark_running();
    // Small pipelined responses should not wait on Nagle.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.read_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    for served in 0..shared.max_requests_per_conn {
        // Wait for the first byte of the next request under the idle
        // deadline; an idle expiry or clean EOF between requests is the
        // normal end of a keep-alive session.
        let _ = stream.set_read_timeout(Some(shared.idle_timeout));
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF
            Ok(_) => {}       // request bytes waiting
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return; // idle timeout
            }
            Err(_) => return,
        }
        // From here every read of this request runs under the tighter
        // read deadline.
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
        let request = match http::read_request(&mut reader) {
            Ok(request) => request,
            Err(RequestError::Closed) => return,
            Err(RequestError::Timeout) => {
                Metrics::bump(&shared.metrics.request_timeouts);
                respond(
                    &mut stream,
                    408,
                    TEXT,
                    &[],
                    b"request read timed out\n",
                    false,
                );
                return;
            }
            Err(err) => {
                Metrics::bump(&shared.metrics.bad_requests);
                let status = if err == RequestError::TooLarge {
                    413
                } else {
                    400
                };
                respond(
                    &mut stream,
                    status,
                    TEXT,
                    &[],
                    format!("{err}\n").as_bytes(),
                    false,
                );
                return;
            }
        };
        // The response's connection disposition: what the client asked
        // for, capped by the per-connection request budget.
        let keep_alive =
            request.keep_alive_requested() && served + 1 < shared.max_requests_per_conn;
        if !route(&mut stream, &request, shared, keep_alive) {
            return;
        }
    }
}

/// Dispatch one request. Returns whether the connection may serve
/// another request (`keep_alive`, unless the handler had to abort a
/// stream mid-response).
fn route(stream: &mut TcpStream, request: &Request, shared: &Shared, keep_alive: bool) -> bool {
    let path = request.target.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("POST", "/query") => return handle_query(stream, request, shared, keep_alive),
        ("GET", "/healthz") => respond(stream, 200, TEXT, &[], b"ok\n", keep_alive),
        ("GET", "/metrics") => {
            let body = metrics::render(shared);
            respond(stream, 200, TEXT, &[], body.as_bytes(), keep_alive);
        }
        ("GET", "/debug/queries") => {
            let body = shared.flight.recent_json();
            respond(stream, 200, JSON, &[], body.as_bytes(), keep_alive);
        }
        ("GET", "/debug/plans") => {
            let body = shared.flight.plans_json(DEBUG_PLANS_TOP_K);
            respond(stream, 200, JSON, &[], body.as_bytes(), keep_alive);
        }
        ("GET", p) if p.starts_with("/debug/query/") => {
            let id = &p["/debug/query/".len()..];
            match shared.flight.query_json(id) {
                Some(body) => respond(stream, 200, JSON, &[], body.as_bytes(), keep_alive),
                None => {
                    Metrics::bump(&shared.metrics.not_found);
                    respond(stream, 404, TEXT, &[], b"no such request id\n", keep_alive);
                }
            }
        }
        (_, "/query" | "/healthz" | "/metrics" | "/debug/queries" | "/debug/plans") => {
            Metrics::bump(&shared.metrics.not_found);
            respond(stream, 405, TEXT, &[], b"method not allowed\n", keep_alive);
        }
        _ => {
            Metrics::bump(&shared.metrics.not_found);
            respond(stream, 404, TEXT, &[], b"not found\n", keep_alive);
        }
    }
    keep_alive
}

/// How many per-fingerprint aggregates `GET /debug/plans` returns.
const DEBUG_PLANS_TOP_K: usize = 20;

/// The client's `X-Request-Id`, when one arrived and is sane
/// (non-empty, bounded, no control characters — it is echoed inside a
/// response header). `None` means "generate one".
fn client_request_id(request: &Request) -> Option<String> {
    const MAX_ID_CHARS: usize = 128;
    let id = request.header("x-request-id")?;
    let sane = !id.is_empty()
        && id.chars().count() <= MAX_ID_CHARS
        && id.chars().all(|c| (c as u32) >= 0x20 && c != '\u{7f}');
    sane.then(|| id.to_string())
}

/// Fold one executed run's stats and profile into the service totals,
/// whether it succeeded or failed: the work was done either way.
fn snapshot_run(
    shared: &Shared,
    ctx: &mut xqa_engine::DynamicContext,
) -> (EvalStatsSnapshot, QueryProfile) {
    let stats = ctx.stats.snapshot();
    shared.totals.add_snapshot(&stats);
    let profile = ctx.take_profile().unwrap_or_default();
    for pipeline in &profile.pipelines {
        for op in &pipeline.ops {
            shared.op_tuples[op.kind as usize].fetch_add(op.tuples_out, Ordering::Relaxed);
        }
    }
    (stats, profile)
}

/// Serve one `POST /query`. Returns whether the connection may serve
/// another request (false after a truncated stream).
fn handle_query(
    stream: &mut TcpStream,
    request: &Request,
    shared: &Shared,
    keep_alive: bool,
) -> bool {
    let start = Instant::now();
    // One counter draw per request: it is the trace query id, and the
    // response's request id when the client did not supply one.
    let seq = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let request_id = client_request_id(request).unwrap_or_else(|| seq.to_string());
    Metrics::bump(&shared.metrics.query_requests);
    // Stream unless the client opted out or speaks HTTP/1.0 (chunked
    // framing needs 1.1).
    let chunked =
        request.minor_version >= 1 && http::query_param(&request.target, "stream") != Some("false");
    // (plan, served-from-cache) once the plan exists — survives into
    // the flight record even when the run itself fails.
    let mut compiled: Option<(Arc<PreparedQuery>, bool)> = None;
    let id_header: [(&str, &str); 1] = [("X-Request-Id", &request_id)];
    // Whether the chunked head has gone to the socket. Until it has, a
    // failure is still an ordinary 400; after, it can only truncate.
    let mut streamed = false;
    let mut body = String::new();
    // A failure is (kind, message, the stats and profile of the run
    // when the plan ran).
    type Facts = (EvalStatsSnapshot, QueryProfile);
    let outcome: Result<Facts, (&str, String, Option<Box<Facts>>)> = (|| {
        let query = std::str::from_utf8(&request.body)
            .map_err(|_| ("body", "query text must be UTF-8".to_string(), None))?;
        let (plan, compiled_now) = shared
            .cache
            .get_or_compile_status(&shared.engine, query)
            .map_err(|e| ("compile", e.to_string(), None))?;
        compiled = Some((Arc::clone(&plan), !compiled_now));
        if compiled_now {
            // Count each rewrite once per compilation, not per request:
            // cache hits reuse the plan without re-firing anything.
            for note in plan.applied_rewrites() {
                shared.rewrites_fired[note.kind as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
        // Fresh context per request: stats and the operator profile
        // belong to this request alone, then fold into the totals.
        let mut ctx = shared.catalog.new_context();
        ctx.enable_profiling();
        // Buffered, the body collects every chunk; chunked, the head
        // goes out with the first chunk.
        let mut send = |chunk: &str| {
            if !chunked {
                body.push_str(chunk);
                return Ok(());
            }
            if !streamed {
                streamed = true;
                http::write_chunked_head(stream, 200, XML, &id_header, keep_alive)?;
            }
            http::write_chunk(stream, chunk.as_bytes())
        };
        let run = match plan.run_serialized(&ctx, &mut send) {
            // `send("")` writes no chunk, only the head an empty result
            // still owes the client; then the terminal chunk.
            Ok(_) if chunked => send("")
                .and_then(|()| http::finish_chunked(stream))
                .map_err(|e| ("sink", e.to_string())),
            Ok(_) => Ok(()),
            Err(StreamError::Engine { error, .. }) => Err(("runtime", error.to_string())),
            Err(StreamError::Sink { error, .. }) => Err(("sink", error.to_string())),
        };
        let facts = snapshot_run(shared, &mut ctx);
        match run {
            Ok(()) => Ok(facts),
            Err((kind, message)) => Err((kind, message, Some(Box::new(facts)))),
        }
    })();
    let elapsed = start.elapsed();
    shared.metrics.query_latency.record(elapsed);
    if shared.flight.enabled() {
        let run = match &outcome {
            Ok((stats, profile)) => Ok((stats, profile)),
            Err((kind, message, facts)) => {
                let error = match *kind {
                    "runtime" if streamed => format!("runtime (mid-stream): {message}"),
                    kind => format!("{kind}: {message}"),
                };
                Err((
                    error,
                    facts.as_deref().map(|(stats, profile)| (stats, profile)),
                ))
            }
        };
        shared.flight.record(FlightRecord::new(
            request_id.clone(),
            &String::from_utf8_lossy(&request.body),
            compiled.as_ref().map(|(plan, cached)| (&**plan, *cached)),
            seq,
            elapsed,
            streamed,
            run,
        ));
    }
    match outcome {
        Ok(_) => {
            Metrics::bump(&shared.metrics.query_ok);
            if streamed {
                Metrics::bump(&shared.metrics.streamed_responses);
            } else {
                respond(stream, 200, XML, &id_header, body.as_bytes(), keep_alive);
            }
            keep_alive
        }
        // No byte has left: an ordinary 400.
        Err((kind, message, _)) if !streamed => {
            Metrics::bump(&shared.metrics.query_errors);
            let json = format!(
                "{{\"request_id\":\"{}\",\"error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}}}",
                json_escape(&request_id),
                json_escape(kind),
                json_escape(&message)
            );
            respond(stream, 400, JSON, &id_header, json.as_bytes(), keep_alive);
            keep_alive
        }
        // The head already left: the chunked body stays truncated (no
        // terminal chunk) and the connection closes, so the client sees
        // the failure instead of a silently short result. A sink failure
        // means the client hung up (or the socket died).
        Err((kind, message, _)) => {
            Metrics::bump(&shared.metrics.mid_stream_aborts);
            if kind != "sink" {
                Metrics::bump(&shared.metrics.query_errors);
                eprintln!("[xqa-service] query #{request_id} failed mid-stream: {message}");
            }
            false
        }
    }
}

/// The content types the server answers with.
const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";
const XML: &str = "application/xml; charset=utf-8";

/// Write one whole response. The client may already be gone; nothing
/// useful to do about it.
fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    let _ = http::write_response_with_headers(
        stream,
        status,
        content_type,
        extra_headers,
        body,
        keep_alive,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// Reassemble a chunked transfer-encoded body into its payload.
    pub(crate) fn dechunk(body: &str) -> String {
        let mut out = String::new();
        let mut rest = body;
        while let Some((size_line, after)) = rest.split_once("\r\n") {
            let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
                break;
            };
            if size == 0 {
                break;
            }
            out.push_str(&after[..size]);
            rest = &after[size + 2..]; // skip the chunk's trailing CRLF
        }
        out
    }

    /// Blocking one-shot HTTP client for tests. The raw request should
    /// ask for `Connection: close` so `read_to_string` terminates;
    /// chunked bodies are reassembled transparently.
    pub(crate) fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .map(|(h, b)| (h.to_string(), b.to_string()))
            .unwrap_or_default();
        let body = if head
            .to_ascii_lowercase()
            .contains("transfer-encoding: chunked")
        {
            dechunk(&body)
        } else {
            body
        };
        (status, body)
    }

    pub(crate) fn post_query(addr: SocketAddr, query: &str) -> (u16, String) {
        request(
            addr,
            &format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
                query.len(),
                query
            ),
        )
    }

    pub(crate) fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    fn test_server() -> Server {
        let mut catalog = DocumentCatalog::new();
        catalog
            .set_context_xml("<r><v>1</v><v>2</v><v>3</v></r>")
            .unwrap();
        let config = ServiceConfig {
            workers: 2,
            ..Default::default()
        };
        Server::start("127.0.0.1:0", &catalog, config).expect("bind")
    }

    /// `snapshot_run` and the compile-miss path index the per-kind
    /// counter arrays by discriminant.
    #[test]
    fn kind_discriminants_are_their_positions_in_all() {
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
        for (i, kind) in RewriteKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn healthz_answers_ok() {
        let server = test_server();
        assert_eq!(
            get(server.local_addr(), "/healthz"),
            (200, "ok\n".to_string())
        );
        server.shutdown();
    }

    #[test]
    fn query_endpoint_evaluates_against_the_catalog() {
        let server = test_server();
        let (status, body) = post_query(server.local_addr(), "sum(//v)");
        assert_eq!((status, body.as_str()), (200, "6"));
        server.shutdown();
    }

    #[test]
    fn compile_and_runtime_errors_are_structured() {
        let server = test_server();
        let (status, body) = post_query(server.local_addr(), "for $x in");
        assert_eq!(status, 400);
        assert!(body.contains("\"kind\":\"compile\""), "{body}");
        let (status, body) = post_query(server.local_addr(), "$undefined");
        assert_eq!(status, 400);
        assert!(body.contains("\"error\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let server = test_server();
        let addr = server.local_addr();
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(get(addr, "/query").0, 405);
        assert_eq!(request(addr, "BROKEN\r\n\r\n").0, 400);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_runs_on_drop() {
        let server = test_server();
        server.shutdown();
        server.shutdown();
        drop(server);
    }

    /// One-shot POST with extra headers, returning the raw response
    /// (status line + headers + body) for header assertions.
    fn post_query_raw_response(addr: SocketAddr, query: &str, extra: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let raw = format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{extra}Content-Length: {}\r\n\r\n{}",
            query.len(),
            query
        );
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn client_request_ids_are_echoed_on_success_and_error() {
        let server = test_server();
        let addr = server.local_addr();
        let ok = post_query_raw_response(addr, "sum(//v)", "X-Request-Id: trace-me-42\r\n");
        assert!(ok.contains("X-Request-Id: trace-me-42\r\n"), "{ok}");
        let err = post_query_raw_response(addr, "for $x in", "X-Request-Id: trace-me-43\r\n");
        assert!(err.contains("X-Request-Id: trace-me-43\r\n"), "{err}");
        assert!(err.contains("\"request_id\":\"trace-me-43\""), "{err}");
        // An unusable id (empty) falls back to a generated one.
        let gen = post_query_raw_response(addr, "sum(//v)", "X-Request-Id:\r\n");
        assert!(!gen.contains("X-Request-Id: \r\n"), "{gen}");
        assert!(gen.contains("X-Request-Id: "), "{gen}");
        server.shutdown();
    }

    #[test]
    fn debug_endpoints_expose_the_flight_recorder() {
        let server = test_server();
        let addr = server.local_addr();
        let raw = post_query_raw_response(addr, "sum(//v)", "X-Request-Id: fr-1\r\n");
        assert!(raw.contains("X-Request-Id: fr-1"), "{raw}");

        let (status, body) = get(addr, "/debug/queries");
        assert_eq!(status, 200);
        assert!(body.contains("\"request_id\":\"fr-1\""), "{body}");
        assert!(body.contains("\"ok\":true"), "{body}");
        assert!(body.contains("\"fingerprint\":\""), "{body}");

        let (status, full) = get(addr, "/debug/query/fr-1");
        assert_eq!(status, 200);
        assert!(full.contains("\"profile\":{"), "{full}");
        assert!(full.contains("\"pipelines\":["), "{full}");
        // First request for this plan shape: compiled now, so the record
        // carries the compile trace the plan renders.
        assert!(full.contains("\"cached_plan\":false"), "{full}");
        assert!(full.contains("\"phase\":\"parse\""), "{full}");
        assert!(full.contains("\"phase\":\"compile\""), "{full}");
        // The compile event names the hints the plan was compiled under
        // (empty brackets when none), so a forced plan is told apart
        // from a default one after the fact.
        assert!(full.contains("streaming pipeline, hints ["), "{full}");

        // Re-running the same query hits the plan cache: same
        // fingerprint, no compile events this time.
        let _ = post_query_raw_response(addr, "sum(//v)", "X-Request-Id: fr-2\r\n");
        let (_, cached) = get(addr, "/debug/query/fr-2");
        assert!(cached.contains("\"cached_plan\":true"), "{cached}");
        assert!(!cached.contains("\"phase\":\"parse\""), "{cached}");

        let (status, plans) = get(addr, "/debug/plans");
        assert_eq!(status, 200);
        assert!(plans.contains("\"fingerprints\":1"), "{plans}");
        assert!(plans.contains("\"count\":2"), "{plans}");

        assert_eq!(get(addr, "/debug/query/never-seen").0, 404);
        assert_eq!(post_query(addr, "1").0, 200); // POST /debug 405 check below
        let (status, _) = request(
            addr,
            "POST /debug/queries HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        server.shutdown();
    }

    /// A FLWOR re-run under an outer `for` is one profile entry whose
    /// estimate sums over its executions, like its actual: both FLWORs'
    /// estimates are exact, so neither the record nor the plan
    /// aggregate reports a misestimate.
    #[test]
    fn a_served_nested_flwor_records_exact_q_errors() {
        let server = test_server();
        let addr = server.local_addr();
        let query = "for $x in (1,2,3) return count(for $y in (1,2) return $y)";
        let raw = post_query_raw_response(addr, query, "X-Request-Id: nested-1\r\n");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");

        let (status, full) = get(addr, "/debug/query/nested-1");
        assert_eq!(status, 200);
        assert!(full.contains("\"worst_q_error\":1.00"), "{full}");
        let (status, plans) = get(addr, "/debug/plans");
        assert_eq!(status, 200);
        assert!(plans.contains("\"max_q_error\":1.00"), "{plans}");
        server.shutdown();
    }

    #[test]
    fn failed_queries_are_recorded_too() {
        let server = test_server();
        let addr = server.local_addr();
        let _ = post_query_raw_response(addr, "for $x in", "X-Request-Id: boom\r\n");
        let (status, full) = get(addr, "/debug/query/boom");
        assert_eq!(status, 200);
        assert!(full.contains("\"ok\":false"), "{full}");
        assert!(full.contains("\"fingerprint\":null"), "{full}");
        assert!(full.contains("\"error\":\"compile:"), "{full}");
        server.shutdown();
    }

    #[test]
    fn metrics_export_flight_recorder_gauges() {
        let server = test_server();
        let addr = server.local_addr();
        let _ = post_query(addr, "sum(//v)");
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("xqa_flight_records 1"), "{body}");
        assert!(body.contains("xqa_plan_fingerprints 1"), "{body}");
        assert!(body.contains("xqa_cardinality_qerror_max "), "{body}");
        server.shutdown();
    }

    #[test]
    fn join_queries_move_the_join_metrics_and_surface_rewrites() {
        // Unhinted, the planner unnests this joinable self-join shape.
        let server = test_server();
        let addr = server.local_addr();
        let query = "for $m in distinct-values(//v) \
                     let $hits := for $y in //v where $y = $m return $y \
                     order by string($m) \
                     return count($hits)";
        let raw = post_query_raw_response(addr, query, "X-Request-Id: join-1\r\n");
        assert!(raw.contains("1 1 1"), "{raw}");
        let (_, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("xqa_join_hash_total 3"), "{metrics}");
        assert!(
            metrics.contains("xqa_join_build_tuples_total 3"),
            "{metrics}"
        );
        assert!(
            metrics.contains("xqa_rewrite_fired_total{rewrite=\"join-unnest\"} 1"),
            "{metrics}"
        );
        // The record and the per-plan aggregate both carry the fired
        // rewrite kinds.
        let (_, full) = get(addr, "/debug/query/join-1");
        assert!(full.contains("\"rewrites\":["), "{full}");
        assert!(full.contains("join-unnest"), "{full}");
        let (_, plans) = get(addr, "/debug/plans");
        assert!(plans.contains("join-unnest"), "{plans}");
        server.shutdown();
    }

    #[test]
    fn recorder_off_serves_empty_debug_payloads() {
        let mut catalog = DocumentCatalog::new();
        catalog.set_context_xml("<r><v>1</v></r>").unwrap();
        let config = ServiceConfig {
            workers: 1,
            flight_recorder_capacity: 0,
            ..Default::default()
        };
        let server = Server::start("127.0.0.1:0", &catalog, config).expect("bind");
        let addr = server.local_addr();
        assert_eq!(post_query(addr, "sum(//v)").0, 200);
        let (status, body) = get(addr, "/debug/queries");
        assert_eq!(status, 200);
        assert!(body.contains("\"records\":[]"), "{body}");
        assert_eq!(get(addr, "/debug/query/1").0, 404);
        server.shutdown();
    }
}
