//! Service metrics: request counters, a lock-free latency histogram,
//! and the one registry that `GET /metrics` and the README's metric
//! reference are both rendered from.
//!
//! Everything is relaxed atomics so recording never blocks a worker and
//! `GET /metrics` reads a consistent-enough snapshot without stopping
//! traffic. Rendering follows the Prometheus text exposition format
//! (`# HELP` / `# TYPE` per family, cumulative `le` buckets) so the
//! output scrapes cleanly, but there is no dependency on anything
//! beyond `std`.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use xqa_engine::{EvalStatsSnapshot, OpKind, RewriteKind};

use crate::server::Shared;

/// Upper bounds of the latency buckets, in microseconds.
pub const LATENCY_BOUNDS_US: [u64; 13] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

/// A fixed-bucket histogram of request latencies.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    /// One counter per bound plus a final overflow bucket.
    counts: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BOUNDS_US.len());
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimated latency quantile in microseconds: the upper bound of
    /// the first bucket holding the `q`-th observation (0 when empty;
    /// observations past the last bound clamp to it). Coarse by design —
    /// the resolution is the bucket layout — but monotone in `q` and
    /// cheap enough to serve inline from `/metrics`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            if cumulative >= target {
                return bound;
            }
        }
        LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1]
    }

    /// Append Prometheus-style cumulative buckets named `{name}_bucket`
    /// plus `{name}_sum` / `{name}_count`.
    pub fn render(&self, out: &mut String, name: &str) -> std::fmt::Result {
        let mut cumulative = 0u64;
        for (i, &bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}")?;
        }
        cumulative += self.counts[LATENCY_BOUNDS_US.len()].load(Ordering::Relaxed);
        writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}")?;
        writeln!(out, "{name}_sum {}", self.sum_us.load(Ordering::Relaxed))?;
        writeln!(out, "{name}_count {}", self.count.load(Ordering::Relaxed))
    }
}

/// Aggregated request counters for the whole service.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `POST /query` requests received.
    pub query_requests: AtomicU64,
    /// Query requests that returned a result.
    pub query_ok: AtomicU64,
    /// Query requests rejected (bad body, compile or runtime error).
    pub query_errors: AtomicU64,
    /// Requests for paths/methods the server does not serve.
    pub not_found: AtomicU64,
    /// Connections whose request could not be parsed.
    pub bad_requests: AtomicU64,
    /// Requests answered `408` because a read deadline expired.
    pub request_timeouts: AtomicU64,
    /// Query responses streamed as chunked transfer encoding.
    pub streamed_responses: AtomicU64,
    /// Streamed responses aborted after the first byte (truncated
    /// chunked body, connection closed).
    pub mid_stream_aborts: AtomicU64,
    /// End-to-end query latency (receipt to serialized response).
    pub query_latency: LatencyHistogram,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Relaxed-increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read helper.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// What a family's samples mean to a scraper: its `# TYPE`.
type Kind = &'static str;
const COUNTER: Kind = "counter";
const GAUGE: Kind = "gauge";
const HISTOGRAM: Kind = "histogram";

/// The samples of a labelled family: `(label value, sample)`.
type Samples = Vec<(&'static str, u64)>;

/// Where a family's samples come from.
#[derive(Clone, Copy)]
enum Source {
    /// One unlabelled integer sample read from the server.
    Int(fn(&Shared) -> u64),
    /// One unlabelled sample rendered to four decimals.
    Ratio(fn(&Shared) -> f64),
    /// One integer sample per value of the named label.
    PerLabel(&'static str, fn(&Shared) -> Samples),
    /// Cumulative `le` buckets plus `_sum` and `_count`.
    Histogram(fn(&Shared) -> &LatencyHistogram),
    /// An engine counter, already read from the totals snapshot.
    Engine(u64),
}
use Source::{Histogram, Int, PerLabel, Ratio};

/// One metric family, as `/metrics` exports it under one name:
/// `(name, kind, help, source)`.
type Row = (&'static str, Kind, &'static str, Source);

/// One registry entry: a family of the service's own, or a run of the
/// engine's counters — `EvalStatsSnapshot::fields()[range]`, each a
/// counter family named and documented by its declaration in
/// `xqa_engine::context`.
enum Entry {
    Family(&'static str, Kind, &'static str, Source),
    Engine(Range<usize>),
}
use Entry::{Engine, Family};

/// One sample per kind from a counter array indexed like `kinds`.
fn tally<K>(kinds: &[K], label: fn(&K) -> &'static str, counts: &[AtomicU64]) -> Samples {
    let counts = counts.iter().map(Metrics::read);
    kinds.iter().map(label).zip(counts).collect()
}

fn quantiles(shared: &Shared) -> Samples {
    [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)]
        .map(|(label, q)| (label, shared.metrics.query_latency.quantile_us(q)))
        .into()
}

/// Every metric the service exports, in page order. Adding a family is
/// one row here; an engine counter is declared in `xqa_engine::context`
/// instead and lands in the second engine run.
#[rustfmt::skip]
static REGISTRY: &[Entry] = &[
    Family("xqa_uptime_seconds", GAUGE, "Seconds since the server started.",
        Int(|s| s.started.elapsed().as_secs())),
    Family("xqa_workers", GAUGE, "Worker threads serving connections (`--workers`).",
        Int(|s| s.pool.size() as u64)),
    Family("xqa_worker_panics_total", COUNTER,
        "Connection jobs that panicked and were isolated by the pool.",
        Int(|s| s.pool.panic_count())),
    Family("xqa_query_requests_total", COUNTER, "`POST /query` requests received.",
        Int(|s| Metrics::read(&s.metrics.query_requests))),
    Family("xqa_query_ok_total", COUNTER, "Query requests that returned a result.",
        Int(|s| Metrics::read(&s.metrics.query_ok))),
    Family("xqa_query_errors_total", COUNTER,
        "Query requests that failed (bad body, compile or runtime error).",
        Int(|s| Metrics::read(&s.metrics.query_errors))),
    Family("xqa_bad_requests_total", COUNTER, "Connections whose request could not be parsed.",
        Int(|s| Metrics::read(&s.metrics.bad_requests))),
    Family("xqa_not_found_total", COUNTER, "Requests for paths or methods that are not served.",
        Int(|s| Metrics::read(&s.metrics.not_found))),
    Family("xqa_plan_cache_size", GAUGE, "Prepared plans currently cached.",
        Int(|s| s.cache.len() as u64)),
    Family("xqa_plan_cache_capacity", GAUGE, "Most plans the cache keeps (`--cache-size`).",
        Int(|s| s.cache.capacity() as u64)),
    Family("xqa_plan_cache_hits_total", COUNTER, "Queries served from a cached plan.",
        Int(|s| s.cache.hits())),
    Family("xqa_plan_cache_misses_total", COUNTER, "Queries that had to be compiled.",
        Int(|s| s.cache.misses())),
    Engine(0..9),
    Family("xqa_catalog_documents", GAUGE, "Documents indexed at startup.",
        Int(|s| s.catalog.indexed_document_count() as u64)),
    Family("xqa_catalog_version", GAUGE, "Monotonic catalog version the plan cache keys on.",
        Int(|s| s.catalog.version())),
    Family("xqa_storage_index_bytes", GAUGE, "Resident size of the document-store indexes.",
        Int(|s| s.catalog.index_bytes())),
    Engine(9..usize::MAX),
    Family("xqa_http_connections_active", GAUGE,
        "Connections a worker is serving right now (DESIGN.md §16).",
        Int(|s| s.admission.active_connections() as u64)),
    Family("xqa_admission_queue_depth", GAUGE, "Admitted connections still waiting for a worker.",
        Int(|s| s.admission.queue_depth() as u64)),
    Family("xqa_requests_shed_total", COUNTER, "Connections answered `429` by the admission layer.",
        Int(|s| s.admission.shed_total())),
    Family("xqa_request_timeouts_total", COUNTER,
        "Requests answered `408` because a read deadline expired.",
        Int(|s| Metrics::read(&s.metrics.request_timeouts))),
    Family("xqa_streamed_responses_total", COUNTER,
        "Query responses streamed as chunked transfer encoding.",
        Int(|s| Metrics::read(&s.metrics.streamed_responses))),
    Family("xqa_mid_stream_aborts_total", COUNTER,
        "Streamed responses truncated after the first byte.",
        Int(|s| Metrics::read(&s.metrics.mid_stream_aborts))),
    Family("xqa_flight_records", GAUGE, "Query records the flight recorder holds (DESIGN.md §14).",
        Int(|s| s.flight.len() as u64)),
    Family("xqa_plan_fingerprints", GAUGE,
        "Plan fingerprints the flight recorder holds aggregates for (at most its capacity).",
        Int(|s| s.flight.fingerprint_count() as u64)),
    Family("xqa_op_tuples_total", COUNTER,
        "Tuples emitted per pipeline operator kind, from request profiles.",
        PerLabel("op", |s| tally(&OpKind::ALL, OpKind::as_str, &s.op_tuples))),
    Family("xqa_rewrite_fired_total", COUNTER,
        "Compilations (plan-cache misses) in which each rewrite fired.",
        PerLabel("rewrite", |s| tally(&RewriteKind::ALL, RewriteKind::as_str, &s.rewrites_fired))),
    Family("xqa_cardinality_qerror_max", GAUGE,
        "Worst cardinality q-error among retained flight records.",
        Ratio(|s| s.flight.max_q_error())),
    Family("xqa_plan_cache_hit_rate", GAUGE, "Plan-cache hits over lookups, 0 to 1.",
        Ratio(|s| s.cache.hit_rate())),
    Family("xqa_query_latency_quantile_us", GAUGE,
        "Query latency quantiles, to the histogram's bucket resolution.",
        PerLabel("quantile", quantiles)),
    Family("xqa_query_latency_us", HISTOGRAM,
        "End-to-end query latency (receipt to serialized response).",
        Histogram(|s| &s.metrics.query_latency)),
];

/// The registry with the engine runs spliced in from `engine`.
fn rows(engine: &EvalStatsSnapshot) -> Vec<Row> {
    let engine: Vec<Row> = engine
        .fields()
        .map(|(_, name, help, value)| (name, COUNTER, help, Source::Engine(value)))
        .collect();
    let mut rows = Vec::with_capacity(REGISTRY.len() + engine.len());
    for entry in REGISTRY {
        match entry {
            Family(name, kind, help, source) => rows.push((*name, *kind, *help, *source)),
            Engine(run) => rows.extend_from_slice(&engine[run.start..run.end.min(engine.len())]),
        }
    }
    rows
}

/// Render the `/metrics` page.
pub(crate) fn render(shared: &Shared) -> String {
    let mut out = String::with_capacity(8192);
    for (name, kind, help, source) in rows(&shared.totals.snapshot()) {
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        let _ = match source {
            Int(read) => writeln!(out, "{name} {}", read(shared)),
            Source::Engine(value) => writeln!(out, "{name} {value}"),
            Ratio(read) => writeln!(out, "{name} {:.4}", read(shared)),
            PerLabel(label, read) => read(shared)
                .iter()
                .try_for_each(|(value, n)| writeln!(out, "{name}{{{label}=\"{value}\"}} {n}")),
            Histogram(read) => read(shared).render(&mut out, name),
        };
    }
    out
}

/// The README's `/metrics` reference: one markdown table row per
/// family, from the same rows [`render`] walks.
pub fn reference_table() -> String {
    let mut out = String::from("| Metric | Type | Meaning |\n|---|---|---|\n");
    for (name, kind, help, source) in rows(&EvalStatsSnapshot::default()) {
        let samples = match source {
            PerLabel(label, _) => format!("{name}{{{label}=...}}"),
            Histogram(_) => format!("{name}_bucket{{le=...}}`, `{name}_sum`, `{name}_count"),
            _ => name.to_string(),
        };
        let _ = writeln!(out, "| `{samples}` | {kind} | {help} |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(50)); // <= 100
        h.record(Duration::from_micros(100)); // <= 100 (inclusive bound)
        h.record(Duration::from_micros(101)); // <= 250
        h.record(Duration::from_secs(10)); // overflow
        assert_eq!(h.count(), 4);
        assert_eq!(h.counts[0].load(Ordering::Relaxed), 2);
        assert_eq!(h.counts[1].load(Ordering::Relaxed), 1);
        assert_eq!(h.counts[LATENCY_BOUNDS_US.len()].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn render_is_cumulative_and_ends_at_inf() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(200));
        let mut out = String::new();
        h.render(&mut out, "lat_us").unwrap();
        assert!(out.contains("lat_us_bucket{le=\"100\"} 1"));
        assert!(out.contains("lat_us_bucket{le=\"250\"} 2"));
        assert!(out.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("lat_us_count 2"));
        assert!(out.contains("lat_us_sum 210"));
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram");
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record(Duration::from_micros(50)); // bucket le=100
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(40_000)); // bucket le=50000
        }
        assert_eq!(h.quantile_us(0.5), 100);
        assert_eq!(h.quantile_us(0.9), 100);
        assert_eq!(h.quantile_us(0.95), 50_000);
        assert_eq!(h.quantile_us(0.99), 50_000);
    }

    #[test]
    fn every_quantile_of_a_single_sample_is_its_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(300)); // bucket le=500
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 500, "q={q}");
        }
    }

    #[test]
    fn overflow_observations_clamp_to_the_last_bound() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(30));
        assert_eq!(h.quantile_us(0.5), *LATENCY_BOUNDS_US.last().unwrap());
    }
}
