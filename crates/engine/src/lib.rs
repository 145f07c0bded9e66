//! # xqa-engine — compiler and evaluator
//!
//! Compiles the XQuery subset (plus the SIGMOD'05 `group by` / output
//! numbering extensions) to an IR and evaluates it over
//! [`xqa_xdm`] values.
//!
//! ```
//! use xqa_engine::{Engine, DynamicContext};
//! use xqa_xmlparse::parse_document;
//!
//! let doc = parse_document("<bib><book><price>10</price></book></bib>").unwrap();
//! let engine = Engine::new();
//! let query = engine.compile("sum(//book/price)").unwrap();
//! let mut ctx = DynamicContext::new();
//! ctx.set_context_document(&doc);
//! let result = query.run(&ctx).unwrap();
//! assert_eq!(result[0].string_value(), "10");
//! ```

#![warn(missing_docs)]

pub mod casts;
pub mod compile;
pub mod context;
pub mod error;
pub mod estimate;
mod eval;
pub mod explain;
pub mod fold;
pub mod functions;
mod hints;
pub mod ir;
pub mod keys;
mod pipeline;
pub mod profile;
pub mod rewrite;
pub mod trace;
pub mod types;

pub use context::{DynamicContext, EvalStats, EvalStatsSnapshot, Focus};
pub use error::{EngineError, EngineResult};
pub use explain::plan_fingerprint;
pub use hints::PlanHints;
pub use ir::OpKind;
pub use profile::{Clock, Misestimate, MonotonicClock, QueryProfile, TickClock};

use xqa_frontend::parse_query;
use xqa_xdm::Sequence;

/// Engine configuration: the plan hints (everything that shapes the
/// plan).
///
/// `PartialEq`/`Eq`/`Hash` are derived so options can key a prepared-plan
/// cache together with the query text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EngineOptions {
    /// Retired and ignored: every plan runs on the calling thread
    /// (DESIGN.md §10). Declared only because the benchmark ledger
    /// builds it (`crates/bench/src/bin/ledger/workloads/mod.rs:173–176`);
    /// the first non-benchmark change after ROADMAP item 1a, which
    /// stops the ledger naming it, deletes it.
    pub threads: usize,
    /// Pins on the planner's decisions (see [`PlanHints`]); none by
    /// default.
    pub hints: PlanHints,
}

/// The kind of optimizer rewrite a [`RewriteNote`] records. The wire
/// names (`as_str`) key the service's rewrite-fired counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RewriteKind {
    /// `distinct-values` self-join rewritten to explicit `group by`.
    ImplicitGroupBy,
    /// Constant subexpressions folded at compile time.
    ConstantFolding,
    /// Positional bound pushed into `order by` as a heap limit.
    TopKPushdown,
    /// `descendant-or-self::node()/child::T` fused to `descendant::T`.
    PathFusion,
    /// `//T` scan or value predicate annotated to resolve against the
    /// document store's label-range / typed-value indexes.
    IndexScan,
    /// Nested-FLWOR equality predicate over an independent source
    /// unnested into a `HashJoin` pipeline operator.
    JoinUnnest,
}

impl RewriteKind {
    /// Every rewrite kind, in compilation order.
    pub const ALL: [RewriteKind; 6] = [
        RewriteKind::ImplicitGroupBy,
        RewriteKind::ConstantFolding,
        RewriteKind::TopKPushdown,
        RewriteKind::PathFusion,
        RewriteKind::IndexScan,
        RewriteKind::JoinUnnest,
    ];

    /// The wire name of the rewrite.
    pub fn as_str(&self) -> &'static str {
        match self {
            RewriteKind::ImplicitGroupBy => "implicit-groupby",
            RewriteKind::ConstantFolding => "constant-folding",
            RewriteKind::TopKPushdown => "topk-pushdown",
            RewriteKind::PathFusion => "path-fusion",
            RewriteKind::IndexScan => "index-scan",
            RewriteKind::JoinUnnest => "join-unnest",
        }
    }
}

/// One optimizer rewrite that fired during compilation: a typed kind
/// plus a human-readable description saying what happened and where.
///
/// Derefs to the description `str`, so string-style call sites
/// (`note.contains(...)`, `format!("{note}")`) keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteNote {
    /// Which rewrite fired.
    pub kind: RewriteKind,
    /// What it did, and in which location (query body / global / function).
    pub detail: String,
}

impl std::ops::Deref for RewriteNote {
    type Target = str;

    fn deref(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for RewriteNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// The query engine: compiles query text into executable plans.
#[derive(Debug, Default, Clone)]
pub struct Engine {
    options: EngineOptions,
    /// Catalog statistics the plan's cardinality estimates read,
    /// attached by the service/CLI after loading documents. `None`: only
    /// structurally provable sources are estimated; the plan is the same.
    statistics: Option<std::sync::Arc<xqa_storage::CatalogStatistics>>,
}

impl Engine {
    /// An engine with default options.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with explicit options.
    pub fn with_options(options: EngineOptions) -> Engine {
        Engine {
            options,
            statistics: None,
        }
    }

    /// Attach catalog statistics for the plan's cardinality estimates;
    /// no plan decision reads them.
    pub fn with_statistics(
        mut self,
        stats: std::sync::Arc<xqa_storage::CatalogStatistics>,
    ) -> Self {
        self.statistics = Some(stats);
        self
    }

    /// The attached catalog statistics, if any.
    pub fn statistics(&self) -> Option<&std::sync::Arc<xqa_storage::CatalogStatistics>> {
        self.statistics.as_ref()
    }

    /// The active options.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    /// Parse and compile a query. The plan keeps how long parsing and
    /// planning took, which its compile trace
    /// ([`PreparedQuery::trace_json`]) renders.
    pub fn compile(&self, source: &str) -> EngineResult<PreparedQuery> {
        let start = std::time::Instant::now();
        let hints = self.options.hints;
        let module = parse_query(source)?;
        let parse_ns = start.elapsed().as_nanos() as u64;
        let mut compiled = compile::compile(&module)?;
        let rewrites = rewrite::plan(&mut compiled, hints, self.statistics.as_deref());
        let plan_ns = start.elapsed().as_nanos() as u64;
        let fingerprint = explain::plan_fingerprint(&compiled);
        Ok(PreparedQuery {
            compiled,
            rewrites,
            fingerprint,
            hints,
            source_len: source.len(),
            parse_ns,
            plan_ns,
        })
    }
}

/// A compiled, reusable query.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    compiled: ir::CompiledQuery,
    rewrites: Vec<RewriteNote>,
    fingerprint: u64,
    hints: PlanHints,
    /// Byte length of the query text, and nanoseconds from the
    /// compile's start to parse-done and to plan-done: what
    /// [`PreparedQuery::trace_json`] renders beyond the plan itself.
    source_len: usize,
    parse_ns: u64,
    plan_ns: u64,
}

impl PreparedQuery {
    /// Evaluate against a dynamic context.
    pub fn run(&self, ctx: &DynamicContext) -> EngineResult<Sequence> {
        eval::execute(&self.compiled, ctx)
    }

    /// Evaluate while streaming result items to `sink` batch by batch
    /// instead of materializing the full result sequence. Returns the
    /// total number of items handed to the sink.
    ///
    /// A failure reports what failed (the query or the sink) and how
    /// many items the sink had accepted. What that means for a client
    /// is the transport's call: only it knows which bytes went out.
    pub fn run_streaming(
        &self,
        ctx: &DynamicContext,
        sink: &mut dyn FnMut(&[xqa_xdm::Item]) -> std::io::Result<()>,
    ) -> Result<u64, StreamError> {
        let mut emitted: u64 = 0;
        let mut sink_error: Option<std::io::Error> = None;
        let result = eval::execute_streaming(&self.compiled, ctx, &mut |items| {
            match sink(items) {
                Ok(()) => {
                    emitted += items.len() as u64;
                    Ok(())
                }
                Err(e) => {
                    // Remember the transport failure and abort the
                    // pipeline through the engine's error channel; the
                    // match below turns it back into `Sink`.
                    sink_error = Some(e);
                    Err(EngineError::dynamic(
                        xqa_xdm::ErrorCode::Other,
                        "result sink failed",
                    ))
                }
            }
        });
        match result {
            Ok(items) => Ok(items),
            Err(_) if sink_error.is_some() => Err(StreamError::Sink {
                error: sink_error.expect("sink error recorded"),
                items_emitted: emitted,
            }),
            Err(error) => Err(StreamError::Engine {
                error,
                items_emitted: emitted,
            }),
        }
    }

    /// Evaluate and serialize incrementally: each streamed batch is
    /// serialized with the engine's standard sequence serialization
    /// (single spaces between adjacent atomics, carried across batch
    /// boundaries) and handed to `write` as a text chunk. The
    /// concatenated chunks are byte-identical to serializing the
    /// materialized result of [`run`](Self::run).
    pub fn run_serialized(
        &self,
        ctx: &DynamicContext,
        write: &mut dyn FnMut(&str) -> std::io::Result<()>,
    ) -> Result<StreamStats, StreamError> {
        let mut ser = xqa_xmlparse::SequenceSerializer::new(Default::default());
        let mut buf = String::new();
        let mut stats = StreamStats::default();
        let items = self.run_streaming(ctx, &mut |items| {
            buf.clear();
            ser.push(items, &mut buf);
            if !buf.is_empty() {
                stats.chunks += 1;
                stats.bytes += buf.len() as u64;
                write(&buf)?;
            }
            Ok(())
        })?;
        stats.items = items;
        Ok(stats)
    }

    /// The stable plan fingerprint (see
    /// [`explain::plan_fingerprint`]): identical exactly when the
    /// optimizer produced the same rewritten plan, even for textually
    /// different query sources.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The optimizer rewrites that fired during compilation, with what
    /// they did and where.
    pub fn applied_rewrites(&self) -> &[RewriteNote] {
        &self.rewrites
    }

    /// The hints this plan was compiled under: the engine's (prints
    /// empty when none).
    pub fn hints(&self) -> PlanHints {
        self.hints
    }

    /// The compiled IR (for inspection/explain).
    pub fn compiled(&self) -> &ir::CompiledQuery {
        &self.compiled
    }

    /// Render the compiled plan as an indented operator tree.
    pub fn explain(&self) -> String {
        explain::explain_query(&self.compiled)
    }

    /// Render a measured profile (from a profiling-enabled run of this
    /// query) and the run's evaluator counters as `explain analyze`
    /// text.
    pub fn explain_analyze(&self, profile: &QueryProfile, stats: &EvalStatsSnapshot) -> String {
        explain::explain_analyze(profile, stats)
    }
}

/// Why a streaming run ([`PreparedQuery::run_streaming`] /
/// [`PreparedQuery::run_serialized`]) stopped, and how many items the
/// sink had accepted by then.
#[derive(Debug)]
pub enum StreamError {
    /// The query raised an error.
    Engine {
        /// The engine error that aborted the pipeline.
        error: EngineError,
        /// Items delivered to the sink before the failure.
        items_emitted: u64,
    },
    /// The sink itself failed (e.g. the client hung up mid-response).
    Sink {
        /// The I/O error the sink returned.
        error: std::io::Error,
        /// Items delivered to the sink before the failure.
        items_emitted: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Engine {
                error,
                items_emitted,
            } => write!(f, "{error} (after {items_emitted} items streamed)"),
            StreamError::Sink {
                error,
                items_emitted,
            } => write!(f, "result sink failed after {items_emitted} items: {error}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Summary of a completed [`PreparedQuery::run_serialized`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Result items streamed.
    pub items: u64,
    /// Non-empty serialized chunks handed to the writer.
    pub chunks: u64,
    /// Total serialized bytes.
    pub bytes: u64,
}

#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    /// The cross-thread contract the service layer relies on: documents,
    /// items, contexts and compiled plans may be shared freely between
    /// worker threads.
    #[test]
    fn shared_types_are_send_and_sync() {
        assert_send_sync::<xqa_xdm::Document>();
        assert_send_sync::<xqa_xdm::NodeHandle>();
        assert_send_sync::<xqa_xdm::Item>();
        assert_send_sync::<DynamicContext>();
        assert_send_sync::<EvalStats>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<Engine>();
    }
}
