//! What the five workloads share: the timed set-up and measuring loop,
//! the calls into each layer with their spans, and the samples taken at
//! those boundaries.

pub mod cold;
pub mod export;
pub mod serve;
pub mod sweep;

use std::sync::Arc;
use std::time::Instant;

use xqa::storage::CatalogStatistics;
use xqa::xdm::Document;
use xqa::{
    parse_document, serialize_node, serialize_sequence, DynamicContext, Engine, EngineOptions,
    OpKind, PreparedQuery, RewriteKind,
};
use xqa_workload::{generate_orders, OrdersConfig};

use crate::alloc;
use crate::oracle::{Facts, Fingerprint};
use crate::queries::Query;
use crate::trace::Trace;

/// How much one run does.
pub struct Scale {
    /// Lineitems per generated document.
    pub lineitems: usize,
    /// Seconds the measuring loop runs for (it stops at a round boundary).
    pub seconds: f64,
    /// The workload's pinned `EngineOptions::threads`.
    pub threads: usize,
}

/// One measured operation.
pub struct Op {
    /// The query template (in-process workloads) or request class
    /// (`serve_mixed`) the operation belongs to.
    pub group: u16,
    pub latency_ns: u64,
    /// Time to the first result byte, on the operations
    /// `first_byte_p50_ms` is the median of: the `export` class where a
    /// workload has classes, every operation otherwise (a result handed
    /// over whole has its first byte when it has its last).
    pub first_byte_ns: Option<u64>,
    /// Whether the operation ran with tracing on.
    pub traced: bool,
    /// Whether it completed and its output matched the oracle.
    pub ok: bool,
}

/// What one run of a workload produced.
pub struct Pass {
    pub ops: Vec<Op>,
    /// Wall time of the measuring loop.
    pub wall_s: f64,
    /// Duration of the set-up.
    pub setup_s: f64,
    /// Results outside the measured operations (warm-up, in-process
    /// replay) that did not match the oracle.
    pub extra_failures: u64,
}

impl Pass {
    /// Operations and checks the run made.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64 + self.extra_failures
    }

    /// Those that failed, were refused or gave a wrong result.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64 + self.extra_failures
    }
}

/// The documents of a run: `n` generator configurations whose seeds
/// derive from `--seed`.
pub fn documents(seed: u64, lineitems: usize, n: usize) -> Vec<OrdersConfig> {
    (0..n as u64)
        .map(|i| OrdersConfig::with_total_lineitems(lineitems).seed(seed.wrapping_mul(1_000) + i))
        .collect()
}

/// A workload that calls the program in-process, round after round.
pub trait InProcess: Sized {
    /// Generated documents the workload needs.
    const DOCUMENTS: usize = 1;

    /// The timed set-up: generate the data, load it, compile, and run
    /// every query once, comparing that first result in full against
    /// the oracle. Returns the workload and how many results differed.
    fn setup(docs: &[OrdersConfig], facts: &[Facts], threads: usize, tr: &mut Trace)
        -> (Self, u64);

    /// One round of operations, traced when `tr.on`.
    fn round(&mut self, tr: &mut Trace, ops: &mut Vec<Op>);

    /// Extra measurements of a traced run, after the measuring loop.
    fn finish(&mut self, _tr: &mut Trace) {}
}

/// Run an in-process workload: oracle, timed set-up, then rounds for
/// `scale.seconds`. In a traced run every second round is traced, so the
/// traced and untraced operations that `ledger.trace_overhead_pct`
/// compares see the same machine state.
pub fn run_in_process<W: InProcess>(
    seed: u64,
    scale: &Scale,
    traced: bool,
    tr: &mut Trace,
) -> Pass {
    let docs = documents(seed, scale.lineitems, W::DOCUMENTS);
    let facts: Vec<Facts> = docs
        .iter()
        .map(|cfg| Facts::walk(&generate_orders(cfg)))
        .collect();
    let ((mut workload, extra_failures), setup_s) =
        timed_setup(traced, tr, |tr| W::setup(&docs, &facts, scale.threads, tr));
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round < 2 || start.elapsed().as_secs_f64() < scale.seconds {
        tr.on = traced && round % 2 == 1;
        workload.round(tr, &mut ops);
        round += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    if traced {
        tr.on = true;
        workload.finish(tr);
    }
    Pass {
        ops,
        wall_s,
        setup_s,
        extra_failures,
    }
}

/// Run the set-up, traced when the run is; returns its result and its
/// duration in seconds.
pub fn timed_setup<T>(
    traced: bool,
    tr: &mut Trace,
    setup: impl FnOnce(&mut Trace) -> T,
) -> (T, f64) {
    tr.on = traced;
    let start = Instant::now();
    let result = setup(tr);
    (result, start.elapsed().as_secs_f64())
}

pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

pub fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// Generate a document and turn it into the XML text the program is
/// given (documents reach `xqa run` and `xqa serve` as files).
pub fn generate_xml(cfg: &OrdersConfig, tr: &mut Trace) -> String {
    tr.span("workload.generate", |_| {
        serialize_node(&generate_orders(cfg).root())
    })
    .0
}

/// The engine options every workload pins: the product defaults apart
/// from `threads`.
pub fn engine_options(threads: usize) -> EngineOptions {
    EngineOptions {
        threads,
        ..EngineOptions::default()
    }
}

/// A document loaded the way `xqa run` loads it: parsed, indexed, with
/// catalog statistics attached to the engine.
pub struct Loaded {
    pub doc: Arc<Document>,
    pub ctx: DynamicContext,
    pub statistics: Arc<CatalogStatistics>,
    pub engine: Engine,
}

/// `parse_document` in its span, sampled.
pub fn parse_xml(xml: &str, tr: &mut Trace) -> Arc<Document> {
    let (doc, parse_ns, _) = tr.span("xmlparse.parse", |_| {
        parse_document(xml).expect("generated XML parses")
    });
    if tr.on {
        tr.sample("xmlparse.parse_ms", ms(parse_ns));
        tr.sample("xmlparse.parse_mb_per_s", xml.len() as f64 / us(parse_ns));
    }
    doc
}

pub fn load(xml: &str, threads: usize, profiling: bool, tr: &mut Trace) -> Loaded {
    let doc = parse_xml(xml, tr);
    let mut ctx = DynamicContext::new();
    if profiling {
        ctx.enable_profiling();
    }
    ctx.set_context_document(&doc);
    let (_, build_ns, _) = tr.span("storage.build", |_| ctx.index_documents());
    let (statistics, stats_ns, _) = tr.span("storage.stats", |_| {
        Arc::new(CatalogStatistics::from_stores(
            ctx.stores().map(Arc::as_ref),
        ))
    });
    if tr.on {
        let index_bytes: u64 = ctx.stores().map(|s| s.index_bytes()).sum();
        tr.sample("storage.build_ms", ms(build_ns));
        tr.sample(
            "storage.build_nodes_per_s",
            doc.len() as f64 / (build_ns as f64 / 1e9),
        );
        tr.sample("storage.stats_ms", ms(stats_ns));
        tr.sample("storage.index_bytes", index_bytes as f64);
        tr.sample(
            "storage.index_bytes_per_xml_byte",
            index_bytes as f64 / xml.len() as f64,
        );
    }
    let engine =
        Engine::with_options(engine_options(threads)).with_statistics(Arc::clone(&statistics));
    Loaded {
        doc,
        ctx,
        statistics,
        engine,
    }
}

impl Loaded {
    /// A second context over the same document and stores with the
    /// engine's per-operator profiling on, for the traced operations.
    pub fn profiled_twin(&self) -> DynamicContext {
        let mut ctx = DynamicContext::new();
        ctx.enable_profiling();
        ctx.set_context_document(&self.doc);
        for store in self.ctx.stores() {
            ctx.register_store(Arc::clone(store));
        }
        ctx
    }
}

/// `Engine::compile`, with the frontend timed on its own beside it when
/// tracing (`compile` parses internally, so the parse is repeated).
pub fn compile(engine: &Engine, text: &str, tr: &mut Trace) -> PreparedQuery {
    let parse_ns = if tr.on {
        tr.span("frontend.parse", |_| {
            std::hint::black_box(
                xqa::frontend::parse_query(text).expect("the ledger's queries parse"),
            );
        })
        .1
    } else {
        0
    };
    let (plan, compile_ns, _) = tr.span("engine.compile", |_| {
        engine.compile(text).expect("the ledger's queries compile")
    });
    if tr.on {
        tr.sample("frontend.parse_us", us(parse_ns));
        tr.sample("engine.compile_us", us(compile_ns.saturating_sub(parse_ns)));
    }
    plan
}

/// Sample the rewrite outcome over a workload's distinct query texts.
pub fn sample_rewrites<'a>(plans: impl Iterator<Item = &'a PreparedQuery>, tr: &mut Trace) {
    if !tr.on {
        return;
    }
    let (mut notes, mut join_unnest, mut index_scan) = (0, 0, 0);
    for plan in plans {
        let fired = |kind| plan.applied_rewrites().iter().any(|r| r.kind == kind);
        notes += plan.applied_rewrites().len();
        join_unnest += usize::from(fired(RewriteKind::JoinUnnest));
        index_scan += usize::from(fired(RewriteKind::IndexScan));
    }
    tr.sample("engine.rewrites_fired", notes as f64);
    tr.sample("engine.rewrite.join-unnest_fired", join_unnest as f64);
    tr.sample("engine.rewrite.index-scan_fired", index_scan as f64);
}

/// Run one operation. Traced, it is wrapped in an `op` span with the
/// allocation counter on, and samples the allocator and the share of its
/// wall time no layer span covers; untraced it is only timed.
pub fn operation<T>(tr: &mut Trace, body: impl FnOnce(&mut Trace) -> T) -> (T, u64) {
    if !tr.on {
        let start = Instant::now();
        let value = body(tr);
        return (value, start.elapsed().as_nanos() as u64);
    }
    tr.next_op();
    alloc::start();
    let (value, nanos, index) = tr.span("op", body);
    let (allocs, bytes) = alloc::stop();
    tr.end_op();
    tr.sample("engine.allocs_per_op", allocs as f64);
    tr.sample("engine.alloc_bytes_per_op", bytes as f64);
    tr.sample(
        "ledger.unaccounted_pct",
        100.0 * tr.uncovered_ns(index) as f64 / nanos as f64,
    );
    (value, nanos)
}

/// `PreparedQuery::run` then `serialize_sequence`, as `xqa run` does.
/// Returns the serialized result and, when tracing, the execute time.
/// A failed run gives an empty result, which no fingerprint matches.
pub fn run_materialized(
    plan: &PreparedQuery,
    ctx: &DynamicContext,
    tr: &mut Trace,
) -> (String, u64) {
    let (result, execute_ns, execute_span) = tr.span("engine.execute", |_| plan.run(ctx));
    let Ok(result) = result else {
        return (String::new(), execute_ns);
    };
    let (text, serialize_ns, _) = tr.span("xmlparse.serialize", |_| serialize_sequence(&result));
    if tr.on {
        tr.sampling(|tr| {
            sample_engine(tr, ctx, execute_span, execute_ns, result.len() as u64);
            tr.sample("xmlparse.serialize_ms", ms(serialize_ns));
            tr.sample(
                "xmlparse.serialize_mb_per_s",
                text.len() as f64 / us(serialize_ns),
            );
        });
    }
    (text, execute_ns)
}

const OP_METRICS: [(OpKind, &str); 7] = [
    (OpKind::ForScan, "engine.op.ForScan_ms"),
    (OpKind::LetBind, "engine.op.LetBind_ms"),
    (OpKind::Filter, "engine.op.Filter_ms"),
    (OpKind::GroupConsume, "engine.op.GroupConsume_ms"),
    (OpKind::OrderBy, "engine.op.OrderBy_ms"),
    (OpKind::HashJoin, "engine.op.HashJoin_ms"),
    (OpKind::ReturnAt, "engine.op.ReturnAt_ms"),
];

/// Sample what the engine itself exposes about the run that just ended
/// on `ctx` (a profiling context): per-operator self time and the
/// evaluation counters. Resets both for the next operation.
pub fn sample_engine(
    tr: &mut Trace,
    ctx: &DynamicContext,
    execute_span: u32,
    execute_ns: u64,
    items: u64,
) {
    let stats = ctx.stats.snapshot();
    ctx.stats.reset();
    let profile = ctx.take_profile().unwrap_or_default();
    tr.sample("engine.execute_ms", ms(execute_ns));
    // A nested FLWOR's time is already inside the operator of the outer
    // pipeline that evaluates it, so only the outermost pipeline (the
    // one with the largest total) is broken down; the ledger's queries
    // have one top-level FLWOR each, or none (path expressions).
    let outermost = profile.pipelines.iter().max_by_key(|p| p.total_nanos());
    let mut attributed = 0;
    if let Some(pipeline) = outermost {
        let mut start = tr.spans[execute_span as usize].start_ns;
        for (kind, metric) in OP_METRICS {
            let mut of_kind = pipeline.ops.iter().filter(|o| o.kind == kind).peekable();
            if of_kind.peek().is_some() {
                let nanos: u64 = of_kind.map(|o| o.nanos).sum();
                tr.sample(metric, ms(nanos));
                tr.synthetic(metric, execute_span, start, nanos);
                start += nanos;
                attributed += nanos;
            }
        }
    }
    // At threads > 1 operator times are CPU time summed over workers and
    // can exceed the wall time; that reads as 0 % unattributed.
    tr.sample(
        "engine.op.unattributed_pct",
        100.0 * execute_ns.saturating_sub(attributed) as f64 / execute_ns.max(1) as f64,
    );
    tr.sample("engine.tuples_produced", stats.tuples_produced as f64);
    tr.sample("engine.nodes_visited", stats.nodes_visited as f64);
    tr.sample("engine.comparisons", stats.comparisons as f64);
    tr.sample(
        "engine.tuples_per_result_item",
        stats.tuples_produced as f64 / items.max(1) as f64,
    );
    tr.sample("engine.scan_index_tuples", stats.scan_index_tuples as f64);
    tr.sample("engine.scan_walk_tuples", stats.scan_walk_tuples as f64);
    tr.sample("engine.seq_items_copied", stats.seq_items_copied as f64);
    tr.sample("engine.expr_compiled", stats.expr_compiled as f64);
    tr.sample("engine.expr_fallback", stats.expr_fallback as f64);
}

/// A compiled query of a warm workload with the fingerprint its first,
/// fully verified result left behind.
pub struct Plan {
    pub query: Query,
    pub plan: PreparedQuery,
    pub fingerprint: Fingerprint,
}

/// What the warm workloads keep between rounds: one loaded document, a
/// profiling twin of its context for the traced operations, and the
/// precompiled plans.
pub struct Warm {
    pub loaded: Loaded,
    pub profiled: DynamicContext,
    pub plans: Vec<Plan>,
}

impl Warm {
    /// The timed set-up of a warm workload: generate, load, compile
    /// `queries`, and run each once, comparing the result in full
    /// against the oracle. Returns how many results differed.
    pub fn setup(
        cfg: &OrdersConfig,
        facts: &Facts,
        threads: usize,
        queries: &[Query],
        tr: &mut Trace,
    ) -> (Warm, u64) {
        let xml = generate_xml(cfg, tr);
        let loaded = load(&xml, threads, false, tr);
        let mut failures = 0;
        let plans: Vec<Plan> = queries
            .iter()
            .map(|query| {
                let plan = compile(&loaded.engine, &query.text(), tr);
                let (text, _, _) = tr.span("workload.warmup", |_| {
                    plan.run(&loaded.ctx)
                        .map(|r| serialize_sequence(&r))
                        .unwrap_or_default()
                });
                failures += u64::from(!facts.matches(query, &text));
                Plan {
                    query: *query,
                    plan,
                    fingerprint: Fingerprint::of(&text),
                }
            })
            .collect();
        sample_rewrites(plans.iter().map(|p| &p.plan), tr);
        let profiled = loaded.profiled_twin();
        let warm = Warm {
            loaded,
            profiled,
            plans,
        };
        (warm, failures)
    }

    /// The context an operation runs against: the profiling twin while
    /// tracing, the plain one otherwise.
    pub fn ctx(&self, tr: &Trace) -> &DynamicContext {
        if tr.on {
            &self.profiled
        } else {
            &self.loaded.ctx
        }
    }
}
