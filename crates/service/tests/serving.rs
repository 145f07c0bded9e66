//! End-to-end tests for the production serving path: keep-alive
//! connection reuse, Connection-header semantics, bounded admission
//! with load-shedding, request read timeouts, streamed (chunked)
//! result bodies, and the malformed-request corpus over real sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use xqa_service::{DocumentCatalog, Server, ServiceConfig};

fn start_server(config: ServiceConfig) -> Server {
    let mut catalog = DocumentCatalog::new();
    catalog
        .set_context_xml("<r><v>1</v><v>2</v><v>3</v></r>")
        .unwrap();
    Server::start("127.0.0.1:0", &catalog, config).expect("bind")
}

fn default_server() -> Server {
    start_server(ServiceConfig {
        workers: 2,
        ..Default::default()
    })
}

/// Read exactly one HTTP response (head + framed body) off a buffered
/// socket, leaving the stream positioned at the next response. Returns
/// (head, body) with chunked bodies reassembled.
fn read_response(reader: &mut BufReader<TcpStream>) -> (String, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read head line");
        assert!(n > 0, "connection closed mid-head (head so far: {head:?})");
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let lower = head.to_ascii_lowercase();
    let body = if lower.contains("transfer-encoding: chunked") {
        let mut out = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line).expect("chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            reader.read_exact(&mut chunk).expect("chunk data");
            if size == 0 {
                break;
            }
            out.push_str(std::str::from_utf8(&chunk[..size]).expect("utf-8 chunk"));
        }
        out
    } else {
        let len: usize = lower
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .map(|v| v.trim().parse().expect("content-length"))
            .unwrap_or(0);
        let mut buf = vec![0u8; len];
        reader.read_exact(&mut buf).expect("body");
        String::from_utf8(buf).expect("utf-8 body")
    };
    (head, body)
}

fn status_of(head: &str) -> u16 {
    head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap()
}

fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (n, v) = l.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}

fn post_query_raw(query: &str, extra: &str) -> String {
    format!(
        "POST /query HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {}\r\n\r\n{query}",
        query.len()
    )
}

#[test]
fn keep_alive_serves_many_requests_on_one_socket() {
    let server = default_server();
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    // Five request/response cycles over the same connection, mixing
    // methods and endpoints; every response says keep-alive.
    for i in 0..5 {
        let raw = if i % 2 == 0 {
            post_query_raw(&format!("sum(//v) + {i}"), "")
        } else {
            "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string()
        };
        stream.write_all(raw.as_bytes()).expect("send");
        let (head, body) = read_response(&mut reader);
        assert_eq!(status_of(&head), 200, "request {i}: {head}");
        assert_eq!(
            header_value(&head, "connection").as_deref(),
            Some("keep-alive"),
            "request {i}: {head}"
        );
        if i % 2 == 0 {
            assert_eq!(body, (6 + i).to_string(), "request {i}");
        } else {
            assert_eq!(body, "ok\n", "request {i}");
        }
    }

    // Pipelining: three requests written back to back before any read.
    let mut pipelined = String::new();
    for i in 0..3 {
        pipelined.push_str(&post_query_raw(&format!("count(//v) + {i}"), ""));
    }
    stream.write_all(pipelined.as_bytes()).expect("pipeline");
    for i in 0..3 {
        let (head, body) = read_response(&mut reader);
        assert_eq!(status_of(&head), 200);
        assert_eq!(body, (3 + i).to_string(), "pipelined request {i}");
    }
    server.shutdown();
}

#[test]
fn connection_header_semantics_per_http_version() {
    let server = default_server();
    let addr = server.local_addr();
    // (request, expected Connection echo, expect server close)
    let cases = [
        (
            "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            "keep-alive",
            false,
        ),
        (
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            "close",
            true,
        ),
        ("GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n", "close", true),
        (
            "GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
            "keep-alive",
            false,
        ),
        // `close` wins inside a token list.
        (
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: keep-alive, close\r\n\r\n",
            "close",
            true,
        ),
    ];
    for (raw, expected, expect_close) in cases {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        stream.write_all(raw.as_bytes()).expect("send");
        let (head, body) = read_response(&mut reader);
        assert_eq!(status_of(&head), 200, "{raw:?}");
        assert_eq!(body, "ok\n");
        assert_eq!(
            header_value(&head, "connection").as_deref(),
            Some(expected),
            "{raw:?}: {head}"
        );
        if expect_close {
            // The server closes: the next read sees EOF.
            let mut rest = String::new();
            reader.read_to_string(&mut rest).expect("drain");
            assert!(rest.is_empty(), "{raw:?}: unexpected extra data {rest:?}");
        } else {
            // Still open: a second request round-trips.
            stream
                .write_all("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".as_bytes())
                .expect("second request");
            let (head2, body2) = read_response(&mut reader);
            assert_eq!(status_of(&head2), 200, "{raw:?} second request");
            assert_eq!(body2, "ok\n");
        }
    }
    server.shutdown();
}

#[test]
fn excess_connections_are_shed_with_429_and_retry_after() {
    // Capacity: 1 worker + 0 queue slots = 1 admitted connection.
    // Quota must not bind first (both clients come from 127.0.0.1).
    let server = start_server(ServiceConfig {
        workers: 1,
        max_queue: 0,
        max_inflight_per_client: 8,
        idle_timeout: Duration::from_millis(200),
        ..Default::default()
    });
    let addr = server.local_addr();

    // Occupy the only slot; reading the response proves admission.
    let held = TcpStream::connect(addr).expect("connect A");
    let mut held_reader = BufReader::new(held.try_clone().expect("clone"));
    let mut held = held;
    held.write_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".as_bytes())
        .expect("send A");
    let (head, _) = read_response(&mut held_reader);
    assert_eq!(status_of(&head), 200);

    // The next connection is shed at accept time, before it sends
    // anything (writing first would race the server's close into an
    // RST that discards the 429).
    let mut shed = TcpStream::connect(addr).expect("connect B");
    let mut response = String::new();
    shed.read_to_string(&mut response).expect("read B");
    assert!(response.starts_with("HTTP/1.1 429 "), "{response}");
    assert!(
        response.to_ascii_lowercase().contains("retry-after: 1"),
        "{response}"
    );
    assert!(
        response.to_ascii_lowercase().contains("connection: close"),
        "{response}"
    );

    // Free the slot; the shed counter survives in /metrics. Probes
    // sent while the slot is still occupied are themselves shed (each
    // bumping the counter), so assert on >= 1, not == 1.
    drop(held);
    drop(held_reader);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let Ok(mut probe) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let _ = probe
            .write_all("GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".as_bytes());
        let mut metrics = String::new();
        let _ = probe.read_to_string(&mut metrics);
        if metrics.starts_with("HTTP/1.1 200") {
            let shed_total: u64 = metrics
                .lines()
                .find_map(|l| l.strip_prefix("xqa_requests_shed_total "))
                .and_then(|v| v.trim().parse().ok())
                .expect("shed gauge present");
            assert!(shed_total >= 1, "{metrics}");
            assert!(
                metrics.contains("xqa_http_connections_active 1"),
                "{metrics}"
            );
            assert!(metrics.contains("xqa_admission_queue_depth 0"), "{metrics}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn per_client_quota_sheds_the_greedy_client() {
    let server = start_server(ServiceConfig {
        workers: 4,
        max_queue: 8,
        max_inflight_per_client: 1,
        ..Default::default()
    });
    let addr = server.local_addr();
    let held = TcpStream::connect(addr).expect("connect A");
    let mut held_reader = BufReader::new(held.try_clone().expect("clone"));
    let mut held_stream = held;
    held_stream
        .write_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".as_bytes())
        .expect("send A");
    let (head, _) = read_response(&mut held_reader);
    assert_eq!(status_of(&head), 200);

    let mut second = TcpStream::connect(addr).expect("connect B");
    let mut response = String::new();
    second.read_to_string(&mut response).expect("read B");
    assert!(response.starts_with("HTTP/1.1 429 "), "{response}");
    server.shutdown();
}

#[test]
fn slow_loris_requests_time_out_with_408() {
    let server = start_server(ServiceConfig {
        workers: 1,
        read_timeout: Duration::from_millis(200),
        ..Default::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Start a request line but never finish it.
    stream.write_all(b"GET /hea").expect("send partial");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    assert!(
        response.to_ascii_lowercase().contains("connection: close"),
        "{response}"
    );
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_reaped_silently() {
    let server = start_server(ServiceConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        ..Default::default()
    });
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    stream
        .write_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".as_bytes())
        .expect("send");
    let (head, _) = read_response(&mut reader);
    assert_eq!(status_of(&head), 200);
    // Send nothing more: the server reaps the idle connection without
    // writing anything (no 408 — no request had started).
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain");
    assert!(rest.is_empty(), "unexpected data on idle close: {rest:?}");
    server.shutdown();
}

#[test]
fn malformed_requests_get_clean_4xx_responses() {
    let server = default_server();
    let addr = server.local_addr();
    let one_shot = |raw: &[u8]| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    };
    // Truncated request line.
    let r = one_shot(b"GET\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    // Unsupported version.
    let r = one_shot(b"GET / HTTP/2.0\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    // Header without a colon.
    let r = one_shot(b"GET / HTTP/1.1\r\nHost t\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    // Duplicate Content-Length (request-smuggling vector).
    let r = one_shot(b"POST /query HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxx");
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    // Unparseable Content-Length.
    let r = one_shot(b"POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    // CR-only line endings (bare carriage return inside the line).
    let r = one_shot(b"GET / HTTP/1.1\rHost: t\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
    // Oversized declared body.
    let r = one_shot(
        format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            xqa_service::http::MAX_BODY_BYTES + 1
        )
        .as_bytes(),
    );
    assert!(r.starts_with("HTTP/1.1 413 "), "{r}");
    // All of the above closed the connection after responding and none
    // of them crashed the server.
    let r = one_shot(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(r.starts_with("HTTP/1.1 200 "), "{r}");
    server.shutdown();
}

#[test]
fn a_request_transfer_encoding_gets_one_400_and_a_closed_socket() {
    let server = default_server();
    let addr = server.local_addr();
    let chunked = "3\r\n1+1\r\n0\r\n\r\n";
    let healthz = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let cases = [
        // Chunked alone: a body framed by length alone would be empty and
        // its chunk bytes the next pipelined request.
        format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
             {chunked}{healthz}"
        ),
        // Chunked next to a length: the CL.TE smuggling shape.
        format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
             Transfer-Encoding: chunked\r\n\r\n{chunked}{healthz}",
            chunked.len()
        ),
    ];
    for raw in cases {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        stream.write_all(raw.as_bytes()).expect("send");
        let (head, body) = read_response(&mut reader);
        assert_eq!(status_of(&head), 400, "{raw:?}: {body}");
        assert!(body.contains("transfer-encoding"), "{raw:?}: {body}");
        assert_eq!(
            header_value(&head, "connection").as_deref(),
            Some("close"),
            "{raw:?}: {head}"
        );
        // Nothing follows: the pipelined GET was never served.
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("drain to close");
        assert!(rest.is_empty(), "{raw:?}: a second response {rest:?}");
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let (head, body) = read_response(&mut BufReader::new(stream));
    assert_eq!(status_of(&head), 200);
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn a_query_nested_past_the_parser_bound_is_a_400_and_the_server_lives_on() {
    // A 1 000-term `1+1+...+1` (2 KB) once overflowed a worker's 2 MiB
    // stack, which panic isolation cannot catch: it aborted the server.
    let server = default_server();
    let addr = server.local_addr();
    let query = vec!["1"; 1_000].join("+");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(post_query_raw(&query, "Connection: close\r\n").as_bytes())
        .expect("send");
    let (head, body) = read_response(&mut BufReader::new(stream));
    assert_eq!(status_of(&head), 400, "{body}");
    assert!(
        body.contains("nesting exceeds the supported depth"),
        "{body}"
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let (head, body) = read_response(&mut BufReader::new(stream));
    assert_eq!(status_of(&head), 200);
    assert_eq!(body, "ok\n");
    server.shutdown();
}

/// The differential corpus: every query here must serialize to the
/// same bytes whether streamed (chunked) or buffered (`stream=false`).
const CORPUS: &[&str] = &[
    "1 to 10",
    "sum(//v)",
    "<out>{sum(//v)}</out>",
    "for $x in //v return <n>{string($x)}</n>",
    "for $x in //v where number($x) > 1 order by number($x) descending return number($x)",
    "for $x in 1 to 500 return $x * 2",
    "()",
    "\"a\", \"b\", <e/>, 3",
];

#[test]
fn streamed_and_buffered_bodies_are_byte_identical() {
    let server = default_server();
    let addr = server.local_addr();
    let fetch = |target: &str, query: &str| -> (String, String) {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        stream
            .write_all(
                format!(
                    "POST {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                     Content-Length: {}\r\n\r\n{query}",
                    query.len()
                )
                .as_bytes(),
            )
            .expect("send");
        read_response(&mut reader)
    };
    for query in CORPUS {
        let (streamed_head, streamed) = fetch("/query", query);
        let (buffered_head, buffered) = fetch("/query?stream=false", query);
        assert_eq!(status_of(&streamed_head), 200, "{query}");
        assert_eq!(status_of(&buffered_head), 200, "{query}");
        assert!(
            streamed_head
                .to_ascii_lowercase()
                .contains("transfer-encoding: chunked"),
            "{query}: {streamed_head}"
        );
        assert!(
            buffered_head
                .to_ascii_lowercase()
                .contains("content-length: "),
            "{query}: {buffered_head}"
        );
        assert_eq!(streamed, buffered, "bodies diverged for {query}");
    }
    // HTTP/1.0 clients always get a buffered, content-length response.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    stream
        .write_all(b"POST /query HTTP/1.0\r\nContent-Length: 8\r\n\r\nsum(//v)")
        .expect("send");
    let (head, body) = read_response(&mut reader);
    assert!(
        head.to_ascii_lowercase().contains("content-length: "),
        "{head}"
    );
    assert_eq!(body, "6");
    server.shutdown();
}

#[test]
fn error_before_first_byte_is_a_clean_400_even_when_streaming() {
    let server = default_server();
    let addr = server.local_addr();
    let fetch = |request_line: &str, query: &str| -> (String, String) {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        stream
            .write_all(
                format!(
                    "{request_line}\r\nHost: t\r\nConnection: close\r\n\
                     X-Request-Id: err-diff\r\nContent-Length: {}\r\n\r\n{query}",
                    query.len()
                )
                .as_bytes(),
            )
            .expect("send");
        read_response(&mut reader)
    };
    // The second query's first batch is one empty string: it reaches
    // the sink but serializes to no bytes, so the failure in the next
    // batch still precedes the first result byte.
    for (query, code) in [
        ("1 div 0", "FOAR0001"),
        (
            "for $i in 1 to 65 return if ($i = 1) then \"\" else if ($i = 65) then error() else ()",
            "FOER0000",
        ),
    ] {
        let (streamed_head, streamed) = fetch("POST /query HTTP/1.1", query);
        let (buffered_head, buffered) = fetch("POST /query?stream=false HTTP/1.1", query);
        let (http10_head, http10) = fetch("POST /query HTTP/1.0", query);
        assert_eq!(status_of(&streamed_head), 400, "{query}: {streamed}");
        assert_eq!(status_of(&buffered_head), 400, "{query}: {buffered}");
        assert_eq!(status_of(&http10_head), 400, "{query}: {http10}");
        assert!(streamed.contains("\"kind\":\"runtime\""), "{streamed}");
        assert!(streamed.contains(code), "{streamed}");
        // With the request id pinned, the error envelope is byte-identical.
        assert_eq!(streamed, buffered, "{query}");
        assert_eq!(streamed, http10, "{query}");
    }
    server.shutdown();
}

#[test]
fn mid_stream_errors_truncate_the_chunked_body_and_close() {
    let server = default_server();
    let addr = server.local_addr();
    // Batches of 64: items 1..=128 stream out, then x=150 divides by
    // zero inside the third batch.
    let query = "for $x in 1 to 200 return $x idiv (150 - $x)";
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(post_query_raw(query, "").as_bytes())
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read to close");
    // The head went out as a 200 before the engine hit the error…
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");
    assert!(
        raw.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "{raw}"
    );
    // …but the body was truncated: the terminal 0-length chunk is
    // missing, which is how a chunked client detects the abort. (The
    // connection closed — read_to_string returned.)
    assert!(!raw.ends_with("0\r\n\r\n"), "{raw:?}");
    // x = 1..=128 made it out: 1 idiv 149 = 0, …, 75 idiv 75 = 1, ….
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap();
    assert!(body.contains("0 0"), "first batches made it out: {raw:?}");

    let (_, metrics) = {
        let mut probe = TcpStream::connect(addr).expect("connect probe");
        probe
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("send probe");
        let mut response = String::new();
        probe.read_to_string(&mut response).expect("read probe");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (response, body)
    };
    assert!(
        metrics.contains("xqa_mid_stream_aborts_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("xqa_query_errors_total 1"), "{metrics}");

    // The record counts the tuples the run produced, as an in-process
    // run of the same query over the same document does, not the items
    // that reached the socket.
    let id = header_value(raw.split_once("\r\n\r\n").unwrap().0, "x-request-id").unwrap();
    let mut probe = TcpStream::connect(addr).expect("connect debug");
    probe
        .write_all(
            format!("GET /debug/query/{id} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("send debug");
    let mut record = String::new();
    probe.read_to_string(&mut record).expect("read debug");
    let mut catalog = DocumentCatalog::new();
    catalog
        .set_context_xml("<r><v>1</v><v>2</v><v>3</v></r>")
        .unwrap();
    let engine = xqa_engine::Engine::new().with_statistics(catalog.build_indexes());
    let ctx = catalog.new_context();
    engine
        .compile(query)
        .unwrap()
        .run(&ctx)
        .expect_err("x = 150 divides by zero");
    let tuples = ctx.stats.snapshot().tuples_produced;
    assert!(tuples > 0);
    assert!(
        record.contains(&format!("\"tuples\":{tuples},")),
        "{tuples}: {record}"
    );
    server.shutdown();
}

#[test]
fn streamed_responses_move_the_streaming_metrics_and_flight_records() {
    let server = default_server();
    let addr = server.local_addr();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    stream
        .write_all(post_query_raw("sum(//v)", "X-Request-Id: stream-1\r\n").as_bytes())
        .expect("send");
    let (head, body) = read_response(&mut reader);
    assert_eq!(status_of(&head), 200);
    assert_eq!(body, "6");

    // Buffered control request on the same socket.
    stream
        .write_all(
            "POST /query?stream=false HTTP/1.1\r\nHost: t\r\nX-Request-Id: stream-2\r\n\
             Connection: close\r\nContent-Length: 8\r\n\r\nsum(//v)"
                .as_bytes(),
        )
        .expect("send second");
    let (head2, body2) = read_response(&mut reader);
    assert_eq!(status_of(&head2), 200);
    assert_eq!(body2, "6");

    let mut probe = TcpStream::connect(addr).expect("connect probe");
    probe
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send probe");
    let mut metrics = String::new();
    probe.read_to_string(&mut metrics).expect("read probe");
    assert!(
        metrics.contains("xqa_streamed_responses_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("xqa_query_ok_total 2"), "{metrics}");

    // The flight recorder marks which requests streamed.
    let mut probe = TcpStream::connect(addr).expect("connect debug");
    probe
        .write_all(b"GET /debug/query/stream-1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send debug");
    let mut debug = String::new();
    probe.read_to_string(&mut debug).expect("read debug");
    assert!(debug.contains("\"streamed\":true"), "{debug}");
    let mut probe = TcpStream::connect(addr).expect("connect debug 2");
    probe
        .write_all(b"GET /debug/query/stream-2 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send debug 2");
    let mut debug2 = String::new();
    probe.read_to_string(&mut debug2).expect("read debug 2");
    assert!(debug2.contains("\"streamed\":false"), "{debug2}");
    // The first request compiled the plan, so its record carries the
    // compile trace: parse, the rewrites that fired, compile. The
    // second was a cache hit and carries none.
    let compile_trace = |record: &str| {
        let rest = &record[record.find("\"compile_trace\":").expect("compile_trace") + 16..];
        rest[..rest.find(",\"rewrites\":").expect("rewrites")].to_string()
    };
    let trace = compile_trace(&debug);
    let phases: Vec<&str> = trace
        .split("\"phase\":\"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("phase")])
        .collect();
    assert_eq!(phases.first(), Some(&"parse"), "{trace}");
    assert_eq!(phases.last(), Some(&"compile"), "{trace}");
    assert!(phases.len() > 2, "no rewrite events in {trace}");
    assert!(
        phases[1..phases.len() - 1]
            .iter()
            .all(|p| *p == "rewrite-fired"),
        "{trace}"
    );
    assert!(trace.contains("\"detail\":\"path-fusion: "), "{trace}");
    assert_eq!(compile_trace(&debug2), "[]", "{debug2}");
    server.shutdown();
}

#[test]
fn connections_are_closed_after_the_per_connection_request_cap() {
    let server = start_server(ServiceConfig {
        workers: 1,
        max_requests_per_conn: 3,
        ..Default::default()
    });
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    for i in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (head, _) = read_response(&mut reader);
        assert_eq!(status_of(&head), 200);
        let expected = if i == 2 { "close" } else { "keep-alive" };
        assert_eq!(
            header_value(&head, "connection").as_deref(),
            Some(expected),
            "request {i}: {head}"
        );
    }
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain");
    assert!(rest.is_empty(), "server kept the capped connection open");
    server.shutdown();
}
