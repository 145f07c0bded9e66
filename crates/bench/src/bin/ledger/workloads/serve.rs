//! `serve_mixed`: an in-process `Server::start` on `127.0.0.1:0` with
//! `workers = 2` and query `threads = 1`, driven by one closed-loop
//! keep-alive client (closed because dashboards, scripts and the repo's
//! own clients wait for each reply; one because two busy threads measure
//! the host, see `spec::CLIENTS`). The seeded mix is 70 % `point`,
//! 10 % `adhoc`, 10 % `agg`, 10 % `export`, so the median sits inside
//! `point` and the 95th percentile inside `export`, not on a class
//! boundary. It is the only workload where `service` (http, admission,
//! pool, plan cache, flight recorder, chunked writer) is most of a
//! request.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xqa::Engine;
use xqa_service::{
    DocumentCatalog, FlightRecord, FlightRecorder, PlanCache, Server, ServiceConfig,
};
use xqa_workload::{generate_orders, DetRng};

use super::export::stream;
use super::{
    documents, engine_options, generate_xml, ms, operation, parse_xml, timed_setup, us, Op, Pass,
    Scale,
};
use crate::oracle::{Facts, Fingerprint};
use crate::queries::Query;
use crate::spec::{CLIENTS, SERVER_WORKERS};
use crate::stats::{median, percentile};
use crate::trace::{Trace, NO_PARENT};

/// Request classes, as `Op::group`.
pub const POINT: u16 = 0;
pub const ADHOC: u16 = 1;
pub const AGG: u16 = 2;
pub const EXPORT: u16 = 3;

/// The three `Qgb` shapes of the `agg` class: 4, 9 and 50 groups.
const AGG_SHAPES: [usize; 3] = [0, 2, 5];
/// The `export` class: the two lineitem exports.
const EXPORT_SHAPES: [usize; 2] = [0, 1];

/// Classes of ten consecutive requests: exactly the stated shares.
const BLOCK: [u16; 10] = [
    POINT, POINT, POINT, POINT, POINT, POINT, POINT, ADHOC, AGG, EXPORT,
];

/// The seeded request stream of one client. The mix is stratified: the
/// seed shuffles the order inside every block of ten requests and picks
/// the `point` quantities, while the class shares are exact in every
/// block and the `agg` and `export` shapes take turns. Drawing each
/// class independently would let the share of the slow classes, and
/// with it the throughput, wander by several percent from seed to seed.
pub struct Mix<'a> {
    rng: DetRng,
    /// The classes still to come in the current block.
    block: Vec<u16>,
    /// Every part key of the document; this client uses every
    /// `CLIENTS`-th, starting at its own index.
    partkeys: &'a [u32],
    next_key: usize,
    aggs: usize,
    exports: usize,
}

impl<'a> Mix<'a> {
    pub fn new(seed: u64, client: usize, partkeys: &'a [u32]) -> Mix<'a> {
        Mix {
            rng: DetRng::seed_from_u64(seed.wrapping_mul(1_000_003) + client as u64),
            block: Vec::new(),
            partkeys,
            next_key: client,
            aggs: client,
            exports: client,
        }
    }

    pub fn next(&mut self) -> (u16, Query) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..=i));
            }
        }
        let class = self.block.pop().expect("refilled above");
        let query = match class {
            POINT => Query::Point(self.rng.gen_range(1..=50u32)),
            ADHOC => {
                // A literal this run has not sent before: the next part
                // key, and one more trailing zero each time around.
                let partkey = self.partkeys[self.next_key % self.partkeys.len()];
                let zeros = (self.next_key / self.partkeys.len()) as u32;
                self.next_key += CLIENTS;
                Query::Adhoc { partkey, zeros }
            }
            AGG => {
                self.aggs += 1;
                Query::Qgb(AGG_SHAPES[self.aggs % AGG_SHAPES.len()])
            }
            _ => {
                self.exports += 1;
                Query::Export(EXPORT_SHAPES[self.exports % EXPORT_SHAPES.len()])
            }
        };
        (class, query)
    }
}

/// The texts the plan cache can keep: everything but `adhoc`.
fn hot_set() -> Vec<Query> {
    (1..=50)
        .map(Query::Point)
        .chain(AGG_SHAPES.map(Query::Qgb))
        .chain(EXPORT_SHAPES.map(Query::Export))
        .collect()
}

/// A keep-alive HTTP/1.1 client, reconnecting when the server closes
/// (it does after `max_requests_per_conn` requests).
struct Client {
    addr: SocketAddr,
    connection: Option<(TcpStream, BufReader<TcpStream>)>,
    line: String,
    /// The body of the last response.
    body: Vec<u8>,
}

struct Response {
    status: u16,
    /// When the first body byte had been read.
    first_byte: Instant,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            connection: None,
            line: String::new(),
            body: Vec::new(),
        }
    }

    /// Send one request and read the whole response into `self.body`.
    /// Any I/O error drops the connection; the next request reconnects.
    fn request(&mut self, method: &str, target: &str, body: &str) -> std::io::Result<Response> {
        let result = self.exchange(method, target, body);
        if result.is_err() {
            self.connection = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, target: &str, body: &str) -> std::io::Result<Response> {
        if self.connection.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
            self.connection = Some((stream, reader));
        }
        let (stream, reader) = self.connection.as_mut().expect("connected above");
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: ledger\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let read_line = |reader: &mut BufReader<TcpStream>, line: &mut String| {
            line.clear();
            match reader.read_line(line)? {
                0 => Err(bad("connection closed mid-response")),
                _ => Ok(()),
            }
        };
        read_line(reader, &mut self.line)?;
        let status: u16 = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut length, mut chunked, mut close) = (0usize, false, false);
        loop {
            read_line(reader, &mut self.line)?;
            let header = self.line.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                length = v.trim().parse().map_err(|_| bad("content-length"))?;
            }
            chunked |= header == "transfer-encoding: chunked";
            close |= header == "connection: close";
        }
        self.body.clear();
        let mut first_byte = None;
        if chunked {
            loop {
                read_line(reader, &mut self.line)?;
                let size =
                    usize::from_str_radix(self.line.trim(), 16).map_err(|_| bad("chunk size"))?;
                let at = self.body.len();
                // The chunk and its trailing CRLF.
                self.body.resize(at + size + 2, 0);
                reader.read_exact(&mut self.body[at..])?;
                self.body.truncate(at + size);
                first_byte.get_or_insert_with(Instant::now);
                if size == 0 {
                    break;
                }
            }
        } else {
            self.body.resize(length, 0);
            reader.read_exact(&mut self.body)?;
        }
        if close {
            self.connection = None;
        }
        Ok(Response {
            status,
            first_byte: first_byte.unwrap_or_else(Instant::now),
        })
    }

    fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One request as its client saw it.
struct Exchange {
    class: u16,
    start: Instant,
    first_byte: Instant,
    end: Instant,
    traced: bool,
    ok: bool,
}

/// One client's closed loop until `deadline`. Hot texts are checked by
/// length and checksum against the fingerprints the warm-up verified;
/// every `adhoc` text is new, so each is compared in full.
fn client_loop(
    addr: SocketAddr,
    mut mix: Mix,
    deadline: Instant,
    traced: bool,
    facts: &Facts,
    fingerprints: &HashMap<Query, Fingerprint>,
) -> Vec<Exchange> {
    let mut client = Client::new(addr);
    let mut exchanges = Vec::new();
    while Instant::now() < deadline {
        let (class, query) = mix.next();
        let text = query.text();
        let start = Instant::now();
        let response = client.request("POST", "/query", &text);
        let end = Instant::now();
        let ok = response.as_ref().is_ok_and(|r| r.status == 200)
            && match fingerprints.get(&query) {
                Some(expected) => Fingerprint::of(client.body_text()) == *expected,
                None => facts.matches(&query, client.body_text()),
            };
        exchanges.push(Exchange {
            class,
            start,
            first_byte: response.map_or(end, |r| r.first_byte),
            end,
            traced: traced && exchanges.len() % 2 == 1,
            ok,
        });
    }
    exchanges
}

/// A running server with everything the measured phase needs.
struct Served {
    server: Server,
    catalog: DocumentCatalog,
    fingerprints: HashMap<Query, Fingerprint>,
}

/// The timed set-up: XML text -> parse -> catalog -> `Server::start`
/// (which indexes) -> one warm-up request per hot text, each compared in
/// full against the oracle.
fn setup(
    cfg: &xqa_workload::OrdersConfig,
    facts: &Facts,
    threads: usize,
    tr: &mut Trace,
) -> (Served, u64) {
    let xml = generate_xml(cfg, tr);
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(parse_xml(&xml, tr));
    let config = ServiceConfig {
        workers: SERVER_WORKERS,
        engine_options: engine_options(threads),
        ..ServiceConfig::default()
    };
    let (server, _, _) = tr.span("service.start", |_| {
        Server::start("127.0.0.1:0", &catalog, config).expect("server starts on a free port")
    });
    let mut failures = 0;
    let mut fingerprints = HashMap::new();
    tr.span("workload.warmup", |_| {
        let mut client = Client::new(server.local_addr());
        for query in hot_set() {
            let status = client
                .request("POST", "/query", &query.text())
                .map(|r| r.status);
            if !matches!(status, Ok(200)) || !facts.matches(&query, client.body_text()) {
                failures += 1;
            }
            fingerprints.insert(query, Fingerprint::of(client.body_text()));
        }
    });
    (
        Served {
            server,
            catalog,
            fingerprints,
        },
        failures,
    )
}

/// The server's `/metrics` page as name -> value (labels kept in the name).
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let mut client = Client::new(addr);
    if client.request("GET", "/metrics", "").is_err() {
        return HashMap::new();
    }
    client
        .body_text()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// What each `/metrics` counter gained between two scrapes.
struct Deltas(HashMap<String, f64>);

impl Deltas {
    fn between(before: &HashMap<String, f64>, after: HashMap<String, f64>) -> Deltas {
        Deltas(
            after
                .into_iter()
                .map(|(name, value)| {
                    let gained = value - before.get(&name).unwrap_or(&0.0);
                    (name, gained)
                })
                .collect(),
        )
    }

    fn of(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The median of the server's latency histogram over the measured phase,
/// interpolated linearly inside the bucket that holds it.
fn server_p50_us(deltas: &Deltas) -> f64 {
    let total = deltas.of("xqa_query_latency_us_count");
    let (mut lower, mut below) = (0.0, 0.0);
    for bound in xqa_service::metrics::LATENCY_BOUNDS_US {
        let cumulative = deltas.of(&format!("xqa_query_latency_us_bucket{{le=\"{bound}\"}}"));
        if cumulative >= total / 2.0 && cumulative > below {
            let share = (total / 2.0 - below) / (cumulative - below);
            return lower + share * (bound as f64 - lower);
        }
        (lower, below) = (bound as f64, cumulative);
    }
    lower
}

pub fn run(seed: u64, scale: &Scale, traced: bool, tr: &mut Trace) -> Pass {
    let cfg = documents(seed, scale.lineitems, 1).remove(0);
    let facts = Facts::walk(&generate_orders(&cfg));
    let partkeys = facts.partkeys();
    let ((served, mut extra_failures), setup_s) =
        timed_setup(traced, tr, |tr| setup(&cfg, &facts, scale.threads, tr));
    let addr = served.server.local_addr();

    let before = scrape(addr);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(scale.seconds);
    let per_client: Vec<Vec<Exchange>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mix = Mix::new(seed, client, &partkeys);
                let (facts, fingerprints) = (&facts, &served.fingerprints);
                scope.spawn(move || client_loop(addr, mix, deadline, traced, facts, fingerprints))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let deltas = Deltas::between(&before, scrape(addr));

    let origin = tr.origin();
    let mut ops = Vec::new();
    for exchange in per_client.into_iter().flatten() {
        let latency_ns = (exchange.end - exchange.start).as_nanos() as u64;
        let first_byte_ns = (exchange.first_byte - exchange.start).as_nanos() as u64;
        if exchange.traced {
            tr.next_op();
            let at = (exchange.start - origin).as_nanos() as u64;
            let request = tr.spans.len() as u32;
            tr.synthetic("client.request", NO_PARENT, at, latency_ns);
            tr.synthetic("client.first_byte", request, at, first_byte_ns);
            tr.end_op();
        }
        ops.push(Op {
            group: exchange.class,
            latency_ns,
            first_byte_ns: (exchange.class == EXPORT).then_some(first_byte_ns),
            traced: exchange.traced,
            ok: exchange.ok,
        });
    }
    if traced {
        tr.on = true;
        let point_p50_ms = sample_service(tr, &ops, &deltas);
        extra_failures += replay(tr, seed, &served, &facts, &partkeys, point_p50_ms);
    }
    Pass {
        ops,
        wall_s,
        setup_s,
        extra_failures,
    }
}

/// The `service` samples the client records and the `/metrics` deltas
/// give. Returns the `point` class's median latency in ms.
fn sample_service(tr: &mut Trace, ops: &[Op], deltas: &Deltas) -> f64 {
    let latencies = |class: Option<u16>| -> Vec<f64> {
        ops.iter()
            .filter(|o| class.is_none_or(|c| o.group == c))
            .map(|o| ms(o.latency_ns))
            .collect()
    };
    let point_p50_ms = median(&latencies(Some(POINT)));
    tr.sample("service.class.point_p50_ms", point_p50_ms);
    for (class, metric) in [
        (ADHOC, "service.class.adhoc_p50_ms"),
        (AGG, "service.class.agg_p50_ms"),
        (EXPORT, "service.class.export_p50_ms"),
    ] {
        tr.sample(metric, median(&latencies(Some(class))));
    }
    tr.sample("service.client_p99_ms", percentile(&latencies(None), 99.0));
    let (hits, misses) = (
        deltas.of("xqa_plan_cache_hits_total"),
        deltas.of("xqa_plan_cache_misses_total"),
    );
    tr.sample("service.cache.hit_ratio", hits / (hits + misses).max(1.0));
    for (counter, metric) in [
        ("xqa_requests_shed_total", "service.shed_total"),
        ("xqa_request_timeouts_total", "service.timeouts_total"),
        (
            "xqa_mid_stream_aborts_total",
            "service.midstream_aborts_total",
        ),
        ("xqa_streamed_responses_total", "service.streamed_total"),
    ] {
        tr.sample(metric, deltas.of(counter));
    }
    let server_p50 = server_p50_us(deltas);
    tr.sample("service.server_p50_us", server_p50);
    tr.sample(
        "service.socket_gap_us",
        median(&latencies(None)) * 1e3 - server_p50,
    );
    point_p50_ms
}

/// Replay the start of the mix in-process, without the service around
/// it: plan cache lookup, then the streamed run, each in a span. This
/// gives the engine-side samples of the served queries, the plan-cache
/// timings, and the in-process `point` latency that
/// `service.overhead_us` subtracts from what the clients saw.
fn replay(
    tr: &mut Trace,
    seed: u64,
    served: &Served,
    facts: &Facts,
    partkeys: &[u32],
    served_point_p50_ms: f64,
) -> u64 {
    const REQUESTS: usize = 400;
    let mut failures = 0;
    let mut catalog = served.catalog.clone();
    let (statistics, build_ns, _) = tr.span("storage.build", |_| catalog.build_indexes());
    tr.sample("storage.build_ms", ms(build_ns));
    tr.sample("storage.index_bytes", catalog.index_bytes() as f64);
    let engine = Engine::with_options(engine_options(1)).with_statistics(statistics);
    let cache = PlanCache::new(ServiceConfig::default().plan_cache_capacity);
    let mut ctx = catalog.new_context();
    ctx.enable_profiling();
    let mut mix = Mix::new(seed, 0, partkeys);
    let mut point_us = Vec::new();
    let mut last = None;
    for _ in 0..REQUESTS {
        let (class, query) = mix.next();
        let text = query.text();
        let ((seen, plan), latency_ns) = operation(tr, |tr| {
            let (plan, lookup_ns, _) = tr.span("service.cache", |_| {
                cache
                    .get_or_compile_status(&engine, &text)
                    .expect("the ledger's queries compile")
            });
            let (plan, compiled_now) = plan;
            let metric = if compiled_now {
                "service.cache.miss_us"
            } else {
                "service.cache.hit_us"
            };
            tr.sample(metric, us(lookup_ns));
            (stream(&plan, &ctx, tr), plan)
        });
        let expected = match served.fingerprints.get(&query) {
            Some(expected) => *expected,
            None => facts.fingerprint(&query),
        };
        failures += u64::from(seen.fingerprint != expected);
        if class == POINT {
            point_us.push(us(latency_ns));
        }
        last = Some((text, plan, latency_ns));
    }
    tr.sample(
        "service.overhead_us",
        served_point_p50_ms * 1e3 - median(&point_us),
    );
    let (text, plan, latency_ns) = last.expect("the replay ran");
    sample_flight_record(tr, &ctx, text, &plan, latency_ns);
    failures
}

/// `service.flight.record_ns`: `FlightRecorder::record` timed directly
/// with the ring full, on a record like the one the server builds for
/// `plan` (one profiled run supplies its stats and profile text).
fn sample_flight_record(
    tr: &mut Trace,
    ctx: &xqa::DynamicContext,
    text: String,
    plan: &xqa::PreparedQuery,
    latency_ns: u64,
) {
    let _ = plan.run(ctx);
    let record = FlightRecord {
        request_id: "ledger".to_string(),
        fingerprint: Some(plan.fingerprint()),
        query: text,
        ok: true,
        error: None,
        cached_plan: true,
        streamed: true,
        latency_us: latency_ns / 1_000,
        tuples: 0,
        worst_q_error: None,
        stats_json: Some(ctx.stats.snapshot().to_json()),
        profile_json: Some(ctx.take_profile().unwrap_or_default().to_json()),
        trace_json: "[]".to_string(),
        rewrites: plan
            .applied_rewrites()
            .iter()
            .map(|r| r.kind.as_str().to_string())
            .collect(),
    };
    let recorder = FlightRecorder::new(ServiceConfig::default().flight_recorder_capacity);
    for batch in 0..8 {
        let records: Vec<FlightRecord> = (0..256).map(|_| record.clone()).collect();
        let start = Instant::now();
        for r in records {
            recorder.record(r);
        }
        // The first batch only fills the ring.
        if batch > 0 {
            tr.sample(
                "service.flight.record_ns",
                start.elapsed().as_nanos() as f64 / 256.0,
            );
        }
    }
}
