//! End-to-end test of the HTTP service over real sockets: parallel
//! clients, mixed cached/novel queries, and metrics aggregation.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use xqa_engine::{DynamicContext, Engine};
use xqa_service::{DocumentCatalog, Server, ServiceConfig};
use xqa_workload::{generate_orders, OrdersConfig};
use xqa_xmlparse::serialize_sequence;

/// Reassemble a chunked transfer-encoded body into its payload.
fn dechunk(body: &str) -> String {
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

/// Split a raw response into (head, status, de-chunked body). Raw
/// requests in this file ask for `Connection: close` so
/// `read_to_string` terminates.
fn parse_response(response: &str) -> (String, u16, String) {
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
    (head, status, body)
}

fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (_, status, body) = parse_response(&response);
    (status, body)
}

fn post_query(addr: SocketAddr, query: &str) -> (u16, String) {
    post_query_at(addr, "/query", query).1
}

/// POST `query` to `target`, returning the raw head (status line plus
/// headers) alongside (status, body) so tests can inspect headers.
fn post_query_at(addr: SocketAddr, target: &str, query: &str) -> (String, (u16, String)) {
    let mut stream = TcpStream::connect(addr).expect("connect");
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
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, status, body) = parse_response(&response);
    (head, (status, body))
}

/// The value of `header` in a response head, if present.
fn header_value(head: &str, header: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case(header)
            .then(|| value.trim().to_string())
    })
}

/// The flat `"stats":{...}` object embedded in a flight record.
fn stats_object(body: &str) -> &str {
    let start = body.find("\"stats\":{").expect("stats object") + "\"stats\":".len();
    let end = body[start..].find('}').expect("stats closes") + start + 1;
    &body[start..end]
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn metric(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
}

/// One-shot reference evaluation, exactly what the CLI does for
/// `xqa -q QUERY -i FILE`: fresh engine, fresh context, compact
/// serialization.
fn one_shot(catalog: &DocumentCatalog, query: &str) -> String {
    let engine = Engine::new();
    let plan = engine.compile(query).expect("reference compile");
    let ctx: DynamicContext = catalog.new_context();
    serialize_sequence(&plan.run(&ctx).expect("reference run"))
}

/// The paper's analytics shapes, as served traffic: a `group by` /
/// `nest ... into` aggregation and a `return at $rank` numbering query.
const GROUPBY_QUERY: &str = "for $litem in //order/lineitem \
     group by $litem/shipmode into $mode \
     nest $litem into $items \
     order by $mode \
     return <r>{string($mode)}: {count($items)}</r>";

const RANK_QUERY: &str = "for $litem in //order/lineitem \
     order by number($litem/quantity) descending \
     return at $rank <top>{$rank}: {string($litem/quantity)}</top>";

#[test]
fn parallel_clients_match_one_shot_results_and_metrics_aggregate() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(generate_orders(&OrdersConfig::with_total_lineitems(300)));
    let server = Server::start(
        "127.0.0.1:0",
        &catalog,
        ServiceConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // 20 requests from 20 client threads: the two analytics queries
    // are repeated (so their second-and-later runs hit the plan
    // cache), the rest are novel per-thread arithmetic.
    let mut requests: Vec<String> = Vec::new();
    for _ in 0..4 {
        requests.push(GROUPBY_QUERY.to_string());
        requests.push(RANK_QUERY.to_string());
    }
    for i in 0..12 {
        requests.push(format!("sum(//order/lineitem/quantity) + {i}"));
    }
    assert!(requests.len() >= 16);

    let expected: Vec<String> = requests.iter().map(|q| one_shot(&catalog, q)).collect();

    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|q| s.spawn(move || post_query(addr, q)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (status, body) = h.join().expect("client thread");
                assert_eq!(status, 200, "{body}");
                body
            })
            .collect()
    });

    for (i, (got, want)) in bodies.iter().zip(&expected).enumerate() {
        assert_eq!(
            got,
            want,
            "request {i} ({})",
            &requests[i][..40.min(requests[i].len())]
        );
    }

    // Group-by output sanity: the orders workload uses the TPC-H
    // shipmode domain of seven values.
    assert_eq!(bodies[0].matches("<r>").count(), 7);
    // Rank numbering starts at 1.
    assert!(bodies[1].starts_with("<top>1: "), "{}", &bodies[1]);

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "xqa_query_requests_total") as u64, 20);
    assert_eq!(metric(&metrics, "xqa_query_ok_total") as u64, 20);
    assert_eq!(metric(&metrics, "xqa_query_errors_total") as u64, 0);
    // 14 distinct queries -> 6 cache hits out of 20 lookups, fewer
    // when two clients miss on the same text at the same time (both
    // compile; the cache does not single-flight).
    let hits = metric(&metrics, "xqa_plan_cache_hits_total") as u64;
    let misses = metric(&metrics, "xqa_plan_cache_misses_total") as u64;
    assert_eq!(hits + misses, 20);
    assert!((14..=20).contains(&misses), "misses = {misses}");
    assert_eq!(metric(&metrics, "xqa_plan_cache_hit_rate") > 0.0, hits > 0);
    assert_eq!(metric(&metrics, "xqa_query_latency_us_count") as u64, 20);
    // The group-by queries ran through the grouping operator; the
    // per-request snapshots folded into the service totals.
    assert!(metric(&metrics, "xqa_eval_tuples_grouped_total") > 0.0);
    assert!(metric(&metrics, "xqa_eval_groups_emitted_total") > 0.0);
    // Per-operator tuple totals come from the per-request profiles:
    // every query ran a ForScan, and 4 group-by runs emitted 7 groups
    // each through GroupConsume.
    assert!(metric(&metrics, "xqa_op_tuples_total{op=\"ForScan\"}") > 0.0);
    assert_eq!(
        metric(&metrics, "xqa_op_tuples_total{op=\"GroupConsume\"}") as u64,
        4 * 7
    );
    // All `//order/lineitem` plans fused their descendant steps; the
    // counter counts compilations (one per miss), not requests.
    let fused = metric(&metrics, "xqa_rewrite_fired_total{rewrite=\"path-fusion\"}") as u64;
    assert!((1..=misses).contains(&fused), "fused = {fused}");
    // No positional bounds in this traffic, so no top-k pushdown.
    assert_eq!(
        metric(
            &metrics,
            "xqa_rewrite_fired_total{rewrite=\"topk-pushdown\"}"
        ) as u64,
        0
    );
    // Latency quantiles are served precomputed from the histogram.
    for q in ["0.5", "0.95", "0.99"] {
        let v = metric(
            &metrics,
            &format!("xqa_query_latency_quantile_us{{quantile=\"{q}\"}}"),
        );
        assert!(v > 0.0, "quantile {q} = {v}");
    }
    // The histogram is annotated for Prometheus scrapers, and the old
    // ad-hoc mean gauge is gone.
    assert!(metrics.contains("# TYPE xqa_query_latency_us histogram"));
    assert!(!metrics.contains("xqa_query_latency_mean_us"));

    server.shutdown();
}

#[test]
fn concurrent_profiled_requests_report_disjoint_stats() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(generate_orders(&OrdersConfig::with_total_lineitems(200)));
    let server = Server::start(
        "127.0.0.1:0",
        &catalog,
        ServiceConfig {
            workers: 4,
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    // Solo baselines: with a fresh context per request, a query's stats
    // depend only on the query, so a concurrent run must reproduce them
    // exactly — any cross-request bleed shows up as a diff. Each
    // request's stats and profile are read back from its flight record.
    let queries = [GROUPBY_QUERY, RANK_QUERY];
    let record = |id: &str| {
        let (status, body) = get(addr, &format!("/debug/query/{id}"));
        assert_eq!(status, 200, "{body}");
        body
    };
    let baselines: Vec<(String, String)> = queries
        .iter()
        .map(|q| {
            let (head, (status, body)) = post_query_at(addr, "/query", q);
            assert_eq!(status, 200, "{body}");
            let record = record(&header_value(&head, "X-Request-Id").expect("request id"));
            (stats_object(&record).to_string(), record)
        })
        .collect();

    let heads: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                s.spawn(move || {
                    let (head, (status, body)) = post_query_at(addr, "/query", queries[i % 2]);
                    assert_eq!(status, 200, "{body}");
                    (i % 2, head)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut seen_ids = std::collections::HashSet::new();
    for (which, head) in &heads {
        let id = header_value(head, "X-Request-Id").expect("request id header");
        assert_eq!(
            stats_object(&record(&id)),
            baselines[*which].0,
            "stats interleaved for query {which}"
        );
        let id: u64 = id.parse().expect("numeric request id");
        assert!(seen_ids.insert(id), "request id {id} reused");
    }

    // The record's profile names the pipeline operators.
    let groupby_record = &baselines[0].1;
    for op in ["ForScan", "GroupConsume", "OrderBy", "ReturnAt"] {
        assert!(
            groupby_record.contains(&format!("\"op\":\"{op}\"")),
            "{op} missing in {groupby_record}"
        );
    }
    assert!(
        groupby_record.contains("\"request_id\":\"1\""),
        "{groupby_record}"
    );

    server.shutdown();
}

#[test]
fn flight_recorder_on_and_off_serve_byte_identical_bodies() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context(generate_orders(&OrdersConfig::with_total_lineitems(200)));
    let start = |capacity: usize| {
        Server::start(
            "127.0.0.1:0",
            &catalog,
            ServiceConfig {
                workers: 2,
                flight_recorder_capacity: capacity,
                ..Default::default()
            },
        )
        .expect("start server")
    };
    let with_recorder = start(64);
    let without_recorder = start(0);

    // Identical traffic against both servers: the recorder observes
    // requests, it must never change what they return — including
    // error bodies, modulo nothing (request ids are client-pinned).
    let queries = [
        GROUPBY_QUERY,
        RANK_QUERY,
        "sum(//order/lineitem/quantity)",
        "1 +",
    ];
    for (i, q) in queries.iter().enumerate() {
        let send = |addr: SocketAddr| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(
                    format!(
                        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                         X-Request-Id: diff-{i}\r\nContent-Length: {}\r\n\r\n{q}",
                        q.len()
                    )
                    .as_bytes(),
                )
                .expect("send");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            let (_, _, body) = parse_response(&response);
            body
        };
        let on = send(with_recorder.local_addr());
        let off = send(without_recorder.local_addr());
        assert_eq!(on, off, "query {i} diverged with the recorder on");
    }

    // And the recorder did actually observe the on-server's traffic.
    let (_, debug) = get(with_recorder.local_addr(), "/debug/queries");
    assert!(debug.contains("\"request_id\":\"diff-0\""), "{debug}");
    let (_, debug_off) = get(without_recorder.local_addr(), "/debug/queries");
    assert!(debug_off.contains("\"records\":[]"), "{debug_off}");

    with_recorder.shutdown();
    without_recorder.shutdown();
}

#[test]
fn mixed_good_and_bad_traffic_is_isolated_per_request() {
    let mut catalog = DocumentCatalog::new();
    catalog.set_context_xml("<r><v>5</v><v>6</v></r>").unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        &catalog,
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(move || {
                assert_eq!(post_query(addr, "sum(//v)"), (200, "11".to_string()));
                let (status, body) = post_query(addr, "1 +");
                assert_eq!(status, 400);
                assert!(body.contains("\"kind\":\"compile\""));
                assert_eq!(post_query(addr, "count(//v)"), (200, "2".to_string()));
            });
        }
    });

    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric(&metrics, "xqa_query_requests_total") as u64, 12);
    assert_eq!(metric(&metrics, "xqa_query_ok_total") as u64, 8);
    assert_eq!(metric(&metrics, "xqa_query_errors_total") as u64, 4);
    assert_eq!(metric(&metrics, "xqa_worker_panics_total") as u64, 0);
    assert_eq!(get(addr, "/healthz").0, 200);

    server.shutdown();
}
