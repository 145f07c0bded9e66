//! `export_stream`: `PreparedQuery::run_serialized` in-process at
//! `threads = 1` over a warm document. Three breaker-free queries (scan,
//! filter, construct) with large results; the sink checksums each chunk
//! and drops it, so nothing but the engine holds the result. The traced
//! run also times the same queries at `spec::PARALLEL_THREADS`, where
//! `run_streaming` materializes the result before its first chunk.

use std::time::Instant;

use xqa::{serialize_sequence, DynamicContext, PreparedQuery};
use xqa_workload::OrdersConfig;

use super::{compile, ms, operation, sample_engine, us, InProcess, Op, Warm};
use crate::oracle::{Facts, Fingerprint};
use crate::queries::{Query, EXPORTS};
use crate::spec::PARALLEL_THREADS;
use crate::stats::median;
use crate::trace::Trace;

pub struct Export(Warm);

/// What the sink saw of one streamed result.
pub(super) struct Streamed {
    pub fingerprint: Fingerprint,
    /// Nanoseconds from the start of the run to the first chunk.
    pub first_chunk_ns: u64,
}

/// The product's own `run_serialized` into a sink that checksums each
/// chunk and drops it; traced and untraced operations run this same
/// code. Traced, the call is one `engine.stream` span with every sink
/// call a `ledger.sink` span under it. `run_serialized` serializes each
/// batch itself, between producing it and calling the sink, so what the
/// sink does not cover is the engine's execute time *including* that
/// serialization. A failed run gives the empty fingerprint, which
/// matches no verified result.
pub(super) fn stream(plan: &PreparedQuery, ctx: &DynamicContext, tr: &mut Trace) -> Streamed {
    let mut seen = Streamed {
        fingerprint: Fingerprint::EMPTY,
        first_chunk_ns: 0,
    };
    let start = Instant::now();
    let (run, _, stream_span) = tr.span("engine.stream", |tr| {
        plan.run_serialized(ctx, &mut |chunk: &str| {
            if seen.fingerprint.len == 0 {
                seen.first_chunk_ns = start.elapsed().as_nanos() as u64;
            }
            tr.span("ledger.sink", |_| {
                seen.fingerprint = seen.fingerprint.extend(chunk.as_bytes());
            });
            Ok(())
        })
    });
    let Ok(stats) = run else {
        seen.fingerprint = Fingerprint::EMPTY;
        return seen;
    };
    if tr.on {
        tr.sampling(|tr| {
            let execute_ns = tr.uncovered_ns(stream_span);
            sample_engine(tr, ctx, stream_span, execute_ns, stats.items);
            tr.sample("engine.stream_chunks", stats.chunks as f64);
            tr.sample("engine.stream_first_chunk_ms", ms(seen.first_chunk_ns));
        });
    }
    seen
}

impl InProcess for Export {
    fn setup(
        docs: &[OrdersConfig],
        facts: &[Facts],
        threads: usize,
        tr: &mut Trace,
    ) -> (Self, u64) {
        let queries: Vec<Query> = (0..EXPORTS).map(Query::Export).collect();
        let (warm, failures) = Warm::setup(&docs[0], &facts[0], threads, &queries, tr);
        (Export(warm), failures)
    }

    fn round(&mut self, tr: &mut Trace, ops: &mut Vec<Op>) {
        for (group, plan) in self.0.plans.iter().enumerate() {
            let ctx = self.0.ctx(tr);
            let (seen, latency_ns) = operation(tr, |tr| stream(&plan.plan, ctx, tr));
            ops.push(Op {
                group: group as u16,
                latency_ns,
                first_byte_ns: Some(seen.first_chunk_ns),
                traced: tr.on,
                ok: seen.fingerprint == plan.fingerprint,
            });
        }
    }

    /// `xmlparse.serialize_*`: out of a span's reach inside
    /// `run_serialized`, so each query's materialized result is
    /// serialized once more here, outside any operation.
    /// `engine.parallel_speedup` and `engine.parallel_first_chunk_ms`:
    /// the same queries compiled at `PARALLEL_THREADS`, timed in turn
    /// with the workload's own serial plans.
    fn finish(&mut self, tr: &mut Trace) {
        for plan in &self.0.plans {
            if let Ok(result) = plan.plan.run(&self.0.loaded.ctx) {
                let (text, serialize_ns, _) =
                    tr.span("xmlparse.serialize", |_| serialize_sequence(&result));
                tr.sample("xmlparse.serialize_ms", ms(serialize_ns));
                tr.sample(
                    "xmlparse.serialize_mb_per_s",
                    text.len() as f64 / us(serialize_ns.max(1)),
                );
            }
        }
        let parallel_engine = xqa::Engine::with_options(super::engine_options(PARALLEL_THREADS))
            .with_statistics(std::sync::Arc::clone(&self.0.loaded.statistics));
        tr.on = false;
        let parallel: Vec<PreparedQuery> = self
            .0
            .plans
            .iter()
            .map(|p| compile(&parallel_engine, &p.query.text(), tr))
            .collect();
        // Seconds the run took, and milliseconds to its first chunk.
        let mut time = |plan: &PreparedQuery| {
            let start = Instant::now();
            let seen = stream(plan, &self.0.loaded.ctx, tr);
            (start.elapsed().as_secs_f64(), ms(seen.first_chunk_ns))
        };
        let (mut serial_s, mut parallel_s) = (0.0, 0.0);
        let mut first_chunk_ms = Vec::new();
        for (plan, parallel_plan) in self.0.plans.iter().zip(&parallel) {
            let (mut serial, mut parallel) = (Vec::new(), Vec::new());
            for _ in 0..5 {
                serial.push(time(&plan.plan).0);
                let (seconds, first_ms) = time(parallel_plan);
                parallel.push(seconds);
                first_chunk_ms.push(first_ms);
            }
            serial_s += median(&serial);
            parallel_s += median(&parallel);
        }
        tr.on = true;
        tr.sample("engine.parallel_speedup", serial_s / parallel_s);
        tr.sample("engine.parallel_first_chunk_ms", median(&first_chunk_ms));
    }
}
