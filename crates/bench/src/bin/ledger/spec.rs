//! The names the ledger reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root repeats
//! the workload and metric names; a test keeps the two in step.

/// Seconds one run measures for when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 24.0;

/// Processes an untraced run is made of, one after the other. Each sets
/// up once and measures for a fifth of the run's seconds, and every
/// end-to-end metric is the median over the five: `setup_s` is then the
/// median of five set-ups, and a process that happens to run slowly, or
/// a few slow seconds of the machine, move one value of five and not the
/// median (README.md, "Repeatability").
pub const SEGMENTS: usize = 5;

/// Lineitems per document under `--quick` and in the probes.
pub const QUICK_LINEITEMS: usize = 200;

/// Closed-loop connections of `serve_mixed`. One: the client waits while
/// a worker computes, so one thread runs at a time. With two, and with
/// `export_stream` at `threads = 2`, both cores of the box the sizes were
/// chosen on were busy and the time metrics spread two to three times as
/// widely between runs (README.md, "Repeatability").
pub const CLIENTS: usize = 1;

/// `ServiceConfig::workers` of `serve_mixed`.
pub const SERVER_WORKERS: usize = 2;

/// `EngineOptions::threads` of the plans `engine.parallel_speedup` and
/// `engine.parallel_first_chunk_ms` time against the serial ones
/// (= `nproc` of that box, what the product default resolves to there).
pub const PARALLEL_THREADS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Lineitems per generated document.
    pub lineitems: usize,
    /// The pinned `EngineOptions::threads`.
    pub threads: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sweep_groupby",
        why: "paper's six Qgb templates over one warm indexed document, plans precompiled: engine pipeline ForScan -> GroupConsume is the whole op",
        // Interleaved runs at 16K, 4K and 1K lineitems spread their
        // `latency_p50_ms` by 14 %, 7 % and 6 % (README.md, "Repeatability").
        lineitems: 4_000,
        threads: 1,
    },
    Workload {
        name: "sweep_baseline",
        why: "paper's six Q templates (distinct-values self-join), warm: four shapes hash-join, two stay nested, so rewrites must move this and leave sweep_groupby flat",
        lineitems: 4_000,
        threads: 1,
    },
    Workload {
        name: "cold_run",
        why: "what one xqa run pays: XML text -> parse -> index -> statistics -> compile -> run -> serialize per op; xmlparse and storage build dominate",
        lineitems: 2_000,
        threads: 1,
    },
    Workload {
        name: "serve_mixed",
        why: "in-process HTTP server, one closed-loop keep-alive client, 70/10/10/10 point/adhoc/agg/export mix: the only workload where service is most of a request",
        // A `point` response is about 49 KB here. At 8K lineitems it is
        // about 66 KB, half of them over 64 KiB, beyond which a request
        // takes twice as long: the median then sits on that step and
        // jumps from seed to seed.
        lineitems: 6_000,
        threads: 1,
    },
    Workload {
        name: "export_stream",
        why: "run_serialized at threads=1 over a warm document, large breaker-free results streamed into a checksumming sink: same pipeline as sweep_groupby used the opposite way",
        lineitems: 4_000,
        threads: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics have none).
    pub bound: f64,
    /// The crate or module the metric belongs to.
    pub layer: &'static str,
}

const fn metric(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        layer,
    }
}

/// What a user of the system sees. README.md says what each means, and
/// its "Repeatability" section holds the measured run-to-run spreads the
/// bounds come from: `peak_rss_mb` five times its widest spread, the
/// time metrics the 0.25 the driver allows at most. `latency_p95_ms` is
/// not here but in `PER_LAYER`, reported without a bound: the driver
/// refused the benchmark when ten runs of one commit spread it by more
/// than 0.25 of its median.
pub const END_TO_END: [Metric; 5] = [
    metric("end_to_end", "setup_s", "s", "lower", 0.25),
    metric("end_to_end", "throughput_qps", "ops/s", "higher", 0.25),
    metric("end_to_end", "latency_p50_ms", "ms", "lower", 0.25),
    metric("end_to_end", "first_byte_p50_ms", "ms", "lower", 0.25),
    metric("end_to_end", "peak_rss_mb", "MB", "lower", 0.1),
];

/// One row per number a single layer reports; README.md says what each
/// means and which end-to-end metric it should move, on which workload.
pub const PER_LAYER: [Metric; 58] = [
    metric("end_to_end", "latency_p95_ms", "ms", "lower", 0.0),
    metric("xmlparse", "xmlparse.parse_ms", "ms", "lower", 0.0),
    metric("xmlparse", "xmlparse.parse_mb_per_s", "MB/s", "higher", 0.0),
    metric("xmlparse", "xmlparse.serialize_ms", "ms", "lower", 0.0),
    metric(
        "xmlparse",
        "xmlparse.serialize_mb_per_s",
        "MB/s",
        "higher",
        0.0,
    ),
    metric("storage", "storage.build_ms", "ms", "lower", 0.0),
    metric("storage", "storage.build_nodes_per_s", "1/s", "higher", 0.0),
    metric("storage", "storage.stats_ms", "ms", "lower", 0.0),
    metric("storage", "storage.index_bytes", "B", "lower", 0.0),
    metric(
        "storage",
        "storage.index_bytes_per_xml_byte",
        "ratio",
        "lower",
        0.0,
    ),
    metric("frontend", "frontend.parse_us", "us", "lower", 0.0),
    metric("engine.compile", "engine.compile_us", "us", "lower", 0.0),
    metric(
        "engine.compile",
        "engine.rewrites_fired",
        "count",
        "higher",
        0.0,
    ),
    metric(
        "engine.compile",
        "engine.rewrite.join-unnest_fired",
        "count",
        "higher",
        0.0,
    ),
    metric(
        "engine.compile",
        "engine.rewrite.index-scan_fired",
        "count",
        "higher",
        0.0,
    ),
    metric(
        "engine.compile",
        "engine.expr_compiled",
        "count",
        "higher",
        0.0,
    ),
    metric(
        "engine.compile",
        "engine.expr_fallback",
        "count",
        "lower",
        0.0,
    ),
    metric("engine.execute", "engine.execute_ms", "ms", "lower", 0.0),
    metric("engine.execute", "engine.op.ForScan_ms", "ms", "lower", 0.0),
    metric("engine.execute", "engine.op.LetBind_ms", "ms", "lower", 0.0),
    metric("engine.execute", "engine.op.Filter_ms", "ms", "lower", 0.0),
    metric(
        "engine.execute",
        "engine.op.GroupConsume_ms",
        "ms",
        "lower",
        0.0,
    ),
    metric("engine.execute", "engine.op.OrderBy_ms", "ms", "lower", 0.0),
    metric(
        "engine.execute",
        "engine.op.HashJoin_ms",
        "ms",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.op.ReturnAt_ms",
        "ms",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.op.unattributed_pct",
        "%",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.nested_shape_ms",
        "ms",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.tuples_produced",
        "count",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.nodes_visited",
        "count",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.comparisons",
        "count",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.tuples_per_result_item",
        "ratio",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.scan_index_tuples",
        "count",
        "higher",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.scan_walk_tuples",
        "count",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.seq_items_copied",
        "count",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.stream_chunks",
        "count",
        "higher",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.stream_first_chunk_ms",
        "ms",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.parallel_speedup",
        "ratio",
        "higher",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.parallel_first_chunk_ms",
        "ms",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.allocs_per_op",
        "count",
        "lower",
        0.0,
    ),
    metric(
        "engine.execute",
        "engine.alloc_bytes_per_op",
        "B",
        "lower",
        0.0,
    ),
    metric("service", "service.overhead_us", "us", "lower", 0.0),
    metric("service", "service.server_p50_us", "us", "lower", 0.0),
    metric("service", "service.socket_gap_us", "us", "lower", 0.0),
    metric("service", "service.cache.hit_ratio", "ratio", "higher", 0.0),
    metric("service", "service.cache.hit_us", "us", "lower", 0.0),
    metric("service", "service.cache.miss_us", "us", "lower", 0.0),
    metric("service", "service.flight.record_ns", "ns", "lower", 0.0),
    metric("service", "service.class.point_p50_ms", "ms", "lower", 0.0),
    metric("service", "service.class.adhoc_p50_ms", "ms", "lower", 0.0),
    metric("service", "service.class.agg_p50_ms", "ms", "lower", 0.0),
    metric("service", "service.class.export_p50_ms", "ms", "lower", 0.0),
    metric("service", "service.client_p99_ms", "ms", "lower", 0.0),
    metric("service", "service.shed_total", "count", "lower", 0.0),
    metric("service", "service.timeouts_total", "count", "lower", 0.0),
    metric(
        "service",
        "service.midstream_aborts_total",
        "count",
        "lower",
        0.0,
    ),
    metric("service", "service.streamed_total", "count", "higher", 0.0),
    metric("ledger", "ledger.unaccounted_pct", "%", "lower", 0.0),
    metric("ledger", "ledger.trace_overhead_pct", "%", "lower", 0.0),
];

/// Whether `name` is made of the characters a metric or workload name
/// may use (`[A-Za-z0-9_.-]+`, starting with a letter or digit, at most
/// 64 long).
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}
