//! Per-operator query profiling.
//!
//! The pipeline in [`crate::pipeline`] self-measures when profiling is
//! enabled on the [`crate::DynamicContext`]: every operator is wrapped
//! in an instrumentation decorator that counts batches and tuples and
//! accumulates wall time from a [`Clock`] injected through the context.
//! Production code uses the [`MonotonicClock`]; tests inject a
//! [`TickClock`] so golden `explain analyze` output is deterministic.
//!
//! One FLWOR execution produces a [`PipelineProfile`]; nested FLWORs
//! (or a FLWOR re-entered inside a function) record once per execution
//! and merge by plan signature into the context's [`QueryProfile`],
//! which renders as `explain analyze` text or machine-readable JSON.

use crate::context::EvalStatsSnapshot;
use crate::ir::OpKind;
use crate::trace::json_escape;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A monotonic nanosecond clock, injectable so profiled runs can be
/// made deterministic in tests.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Nanoseconds since an arbitrary per-clock origin; never decreases.
    fn now_nanos(&self) -> u64;
}

/// The production clock: [`Instant`] elapsed since construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock anchored at the moment of construction.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A deterministic clock: every reading advances by a fixed tick, so
/// profiled durations depend only on the number of clock reads — stable
/// across machines, suitable for golden tests.
#[derive(Debug)]
pub struct TickClock {
    tick_nanos: u64,
    reads: AtomicU64,
}

impl TickClock {
    /// A clock that advances `tick_nanos` per reading.
    pub fn new(tick_nanos: u64) -> TickClock {
        TickClock {
            tick_nanos,
            reads: AtomicU64::new(0),
        }
    }
}

impl Clock for TickClock {
    fn now_nanos(&self) -> u64 {
        let reads = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        reads * self.tick_nanos
    }
}

/// Measured counters for one operator across one pipeline's executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Which operator.
    pub kind: OpKind,
    /// Plan detail ([`crate::ir::OpIr::detail`]), e.g. `limit=10` for
    /// a bounded order-by.
    pub detail: String,
    /// Batches the operator emitted (for `ReturnAt`: batches consumed).
    pub batches: u64,
    /// Tuples the operator consumed from its input.
    pub tuples_in: u64,
    /// Tuples the operator emitted (for `ReturnAt`: output ordinals).
    pub tuples_out: u64,
    /// Self wall time (cumulative time minus the input's share).
    pub nanos: u64,
    /// The planner's row estimate for this operator (tuples it was
    /// expected to emit; see [`crate::estimate`]). `None` when the
    /// planner had no basis for an estimate.
    pub estimate: Option<u64>,
}

impl OpProfile {
    /// The plan label: the operator's entry in `explain`'s `pipeline:`
    /// line ([`OpKind::label`]).
    pub fn label(&self) -> String {
        self.kind.label(&self.detail)
    }

    /// Whether this operator buffered its input (breaker).
    pub fn materializes(&self) -> bool {
        self.kind.materializes()
    }

    /// The estimation quality factor `max(est/actual, actual/est)`,
    /// with both sides clamped to ≥ 1 so empty operators don't divide
    /// by zero. 1.0 is a perfect estimate; `None` when the planner
    /// recorded no estimate for this operator.
    pub fn q_error(&self) -> Option<f64> {
        let est = self.estimate?.max(1) as f64;
        let actual = self.tuples_out.max(1) as f64;
        Some((est / actual).max(actual / est))
    }

    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"op\":\"{}\",\"detail\":\"{}\",\"materializes\":{},\
             \"batches\":{},\"tuples_in\":{},\"tuples_out\":{},\"time_ns\":{}",
            self.kind.as_str(),
            json_escape(&self.detail),
            self.materializes(),
            self.batches,
            self.tuples_in,
            self.tuples_out,
            self.nanos
        );
        if let (Some(est), Some(q)) = (self.estimate, self.q_error()) {
            let _ = write!(s, ",\"est\":{est},\"q_error\":{q:.2}");
        }
        s.push('}');
        s
    }

    fn merge(&mut self, other: &OpProfile) {
        self.batches += other.batches;
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.nanos += other.nanos;
        // Repeated executions of one plan share one estimate.
        self.estimate = self.estimate.or(other.estimate);
    }
}

/// One node of a query's span timeline: a named interval on the
/// profiling clock, optionally attributed to a morsel worker, with
/// nested child spans. Serial pipelines lay their per-operator child
/// spans out cumulatively by self time (the pipeline ran the operators
/// interleaved, so exact per-operator intervals don't exist); parallel
/// pipelines report each worker's real loop interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran: `"pipeline #N"`, an operator label, `"worker"`,
    /// `"merge+replay"`, or a compile phase name.
    pub name: String,
    /// Interval start on the profiling clock (nanoseconds).
    pub start_nanos: u64,
    /// Interval end on the profiling clock (nanoseconds).
    pub end_nanos: u64,
    /// The morsel worker that ran this span, if it ran off-coordinator.
    pub worker: Option<u64>,
    /// Nested spans, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// A leaf span.
    pub fn leaf(name: impl Into<String>, start_nanos: u64, end_nanos: u64) -> Span {
        Span {
            name: name.into(),
            start_nanos,
            end_nanos,
            worker: None,
            children: Vec::new(),
        }
    }

    /// The span's duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    /// The machine-readable form (recursive).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            json_escape(&self.name),
            self.start_nanos,
            self.end_nanos
        );
        if let Some(w) = self.worker {
            let _ = write!(s, ",\"worker\":{w}");
        }
        if !self.children.is_empty() {
            let children: Vec<String> = self.children.iter().map(|c| c.to_json()).collect();
            let _ = write!(s, ",\"children\":[{}]", children.join(","));
        }
        s.push('}');
        s
    }
}

/// The worst cardinality misestimate of a profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Misestimate {
    /// The offending operator's plan label.
    pub label: String,
    /// What the planner expected.
    pub estimated: u64,
    /// What the run produced.
    pub actual: u64,
    /// `max(est/actual, actual/est)`, clamped sides (see
    /// [`OpProfile::q_error`]).
    pub q_error: f64,
}

/// The measured operator chain of one FLWOR pipeline. Repeated
/// executions of the same plan (a FLWOR nested under an outer `for`, or
/// inside a function called many times) merge into one entry with
/// `executions` counting the runs and the counters summing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineProfile {
    /// How many times this pipeline ran.
    pub executions: u64,
    /// The widest degree of parallelism any execution ran at (1 =
    /// serial). Parallel executions sum worker-side operator counters,
    /// so per-operator `nanos` are CPU time while the pipeline total
    /// stays wall time.
    pub workers: u64,
    /// Per-operator counters, source first, `ReturnAt` sink last.
    pub ops: Vec<OpProfile>,
}

impl PipelineProfile {
    /// The plan signature: operator labels joined with ` -> `. Matches
    /// the `pipeline:` line rendered by `explain`.
    pub fn signature(&self) -> String {
        let labels: Vec<String> = self.ops.iter().map(|op| op.label()).collect();
        labels.join(" -> ")
    }

    /// Total self time across all operators.
    pub fn total_nanos(&self) -> u64 {
        self.ops.iter().map(|op| op.nanos).sum()
    }

    fn to_json(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|op| op.to_json()).collect();
        format!(
            "{{\"signature\":\"{}\",\"executions\":{},\"workers\":{},\"total_ns\":{},\"ops\":[{}]}}",
            json_escape(&self.signature()),
            self.executions,
            self.workers,
            self.total_nanos(),
            ops.join(",")
        )
    }
}

/// The profile of a whole query: every distinct pipeline that executed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Pipelines in first-execution order.
    pub pipelines: Vec<PipelineProfile>,
    /// What every evaluator counter gained over the profiled run(s).
    pub stats: EvalStatsSnapshot,
    /// Execution span timeline: one root span per recorded pipeline
    /// execution (capped at [`QueryProfile::MAX_SPANS`] to stay
    /// compact), with per-operator and per-worker child spans.
    pub spans: Vec<Span>,
}

impl QueryProfile {
    /// Retained span cap: a query that re-enters a pipeline thousands
    /// of times keeps only the first executions' timelines.
    pub const MAX_SPANS: usize = 64;

    /// The counters of [`QueryProfile::stats`] that [`to_json`]
    /// renders, as top-level keys in declaration order.
    ///
    /// [`to_json`]: QueryProfile::to_json
    const JSON_COUNTERS: [&'static str; 7] = [
        "seq_items_copied",
        "seq_clones_shared",
        "scan_index_hits",
        "scan_index_tuples",
        "scan_walk_tuples",
        "expr_compiled",
        "expr_fallback",
    ];

    /// Whether any pipeline was recorded.
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// The single worst cardinality misestimate across every operator
    /// of every pipeline, or `None` when nothing carried an estimate.
    pub fn worst_misestimate(&self) -> Option<Misestimate> {
        self.pipelines
            .iter()
            .flat_map(|p| &p.ops)
            .filter_map(|op| {
                op.q_error().map(|q| Misestimate {
                    label: op.label(),
                    estimated: op.estimate.unwrap_or(0),
                    actual: op.tuples_out,
                    q_error: q,
                })
            })
            .max_by(|a, b| a.q_error.total_cmp(&b.q_error))
    }

    /// Merge another pipeline execution into the profile: same plan
    /// signature → counters sum; new signature → new entry.
    pub fn merge(&mut self, p: PipelineProfile) {
        let sig = p.signature();
        for existing in &mut self.pipelines {
            if existing.signature() == sig {
                existing.executions += p.executions;
                existing.workers = existing.workers.max(p.workers);
                for (a, b) in existing.ops.iter_mut().zip(&p.ops) {
                    a.merge(b);
                }
                return;
            }
        }
        self.pipelines.push(p);
    }

    /// The machine-readable form: one JSON object, no dependencies.
    pub fn to_json(&self) -> String {
        let pipelines: Vec<String> = self.pipelines.iter().map(|p| p.to_json()).collect();
        let spans: Vec<String> = self.spans.iter().map(|s| s.to_json()).collect();
        let worst = match self.worst_misestimate() {
            Some(m) => format!(
                "{{\"op\":\"{}\",\"est\":{},\"actual\":{},\"q_error\":{:.2}}}",
                json_escape(&m.label),
                m.estimated,
                m.actual,
                m.q_error
            ),
            None => "null".to_string(),
        };
        // The profile's schema carries only `JSON_COUNTERS`; the full
        // snapshot travels next to it as `stats`.
        let mut counters = String::new();
        for (name, _, _, value) in self.stats.fields() {
            if Self::JSON_COUNTERS.contains(&name) {
                let _ = write!(counters, "\"{name}\":{value},");
            }
        }
        format!(
            "{{\"pipelines\":[{}],{counters}\"worst_misestimate\":{},\"spans\":[{}]}}",
            pipelines.join(","),
            worst,
            spans.join(","),
        )
    }
}

/// The per-run profile collector hung off a [`crate::DynamicContext`].
/// Interior-mutable so the pipeline can record through `&self`.
#[derive(Debug, Default)]
pub struct Profiler {
    profile: Mutex<QueryProfile>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// The profile under its lock. Every update leaves the profile
    /// valid at every step (counters sum, vectors push), so a guard
    /// poisoned by a panicking worker is recovered rather than turning
    /// each later profiled run on this context into a second panic.
    fn lock(&self) -> MutexGuard<'_, QueryProfile> {
        self.profile.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one pipeline execution (merged by plan signature).
    pub fn record(&self, p: PipelineProfile) {
        self.lock().merge(p);
    }

    /// Record one execution's span timeline. Dropped silently past
    /// [`QueryProfile::MAX_SPANS`] retained roots.
    pub fn add_span(&self, span: Span) {
        let mut p = self.lock();
        if p.spans.len() < QueryProfile::MAX_SPANS {
            p.spans.push(span);
        }
    }

    /// Fold one run's evaluator-counter deltas into the profile.
    pub fn add_stats(&self, delta: &EvalStatsSnapshot) {
        self.lock().stats.accumulate(delta);
    }

    /// Drain the collected profile, leaving the profiler empty.
    pub fn take(&self) -> QueryProfile {
        std::mem::take(&mut *self.lock())
    }

    /// A copy of the collected profile without draining it.
    pub fn snapshot(&self) -> QueryProfile {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, detail: &str, tuples_out: u64) -> OpProfile {
        OpProfile {
            kind,
            detail: detail.into(),
            batches: 1,
            tuples_in: 1,
            tuples_out,
            nanos: 100,
            estimate: None,
        }
    }

    #[test]
    fn tick_clock_is_deterministic() {
        let c = TickClock::new(1_000);
        assert_eq!(c.now_nanos(), 1_000);
        assert_eq!(c.now_nanos(), 2_000);
        assert_eq!(c.now_nanos(), 3_000);
    }

    #[test]
    fn monotonic_clock_never_decreases() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    /// The profile of a real run prints, operator for operator, the
    /// `pipeline:` line `explain` shows for the same plan.
    #[test]
    fn signature_is_the_explain_pipeline_line() {
        let doc = xqa_xmlparse::parse_document("<r><x><k>b</k></x><x><k>a</k></x></r>")
            .expect("well-formed");
        let mut ctx = crate::DynamicContext::new();
        ctx.set_context_document(&doc);
        ctx.index_documents();
        ctx.enable_profiling();
        let engine = crate::Engine::with_options(crate::EngineOptions {
            threads: 1,
            hints: "access=index,join=hash".parse().expect("valid hints"),
        });
        let plan = engine
            .compile(
                "(for $x in //x let $m := (for $y in //x where $y/k = $x/k return $y) \
                 group by $x/k into $k nest $m into $ms order by $k return <g/>)[position() le 1]",
            )
            .expect("compiles");
        plan.run(&ctx).expect("runs");
        let profile = ctx.take_profile().expect("profiling was enabled");
        let signature = profile.pipelines[0].signature();
        assert_eq!(
            signature,
            "ForScan(index scan //x) -> HashJoin(key=$slot0/k = $slot1/k) -> \
             GroupConsume [materializes] -> OrderBy(limit=1) [heap] -> ReturnAt"
        );
        let explain = plan.explain();
        assert!(
            explain.contains(&format!("pipeline: {signature}\n")),
            "{explain}"
        );
    }

    #[test]
    fn merge_by_signature_sums_counters() {
        let run = || PipelineProfile {
            executions: 1,
            workers: 1,
            ops: vec![op(OpKind::ForScan, "", 10), op(OpKind::ReturnAt, "", 10)],
        };
        let mut q = QueryProfile::default();
        q.merge(run());
        q.merge(run());
        q.merge(PipelineProfile {
            executions: 1,
            workers: 1,
            ops: vec![op(OpKind::LetBind, "", 1), op(OpKind::ReturnAt, "", 1)],
        });
        assert_eq!(q.pipelines.len(), 2);
        assert_eq!(q.pipelines[0].executions, 2);
        assert_eq!(q.pipelines[0].ops[0].tuples_out, 20);
        assert_eq!(q.pipelines[0].ops[0].nanos, 200);
        assert_eq!(q.pipelines[1].executions, 1);
    }

    #[test]
    fn profiler_take_drains() {
        let p = Profiler::new();
        p.record(PipelineProfile {
            executions: 1,
            workers: 1,
            ops: vec![op(OpKind::ForScan, "", 1)],
        });
        assert!(!p.snapshot().is_empty());
        assert!(!p.take().is_empty());
        assert!(p.take().is_empty());
    }

    #[test]
    fn a_poisoned_profiler_keeps_recording() {
        let p = Profiler::new();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = p.lock();
                panic!("a worker dies holding the profile");
            })
            .join()
        });
        assert!(poisoner.is_err() && p.profile.is_poisoned());
        p.add_span(Span::leaf("after", 0, 1));
        assert_eq!(p.take().spans.len(), 1);
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        let mut o = op(OpKind::ForScan, "", 10);
        assert_eq!(o.q_error(), None);
        o.estimate = Some(10);
        assert_eq!(o.q_error(), Some(1.0));
        o.estimate = Some(40); // over-estimate 4x
        assert_eq!(o.q_error(), Some(4.0));
        o.estimate = Some(2); // under-estimate 5x: same scale
        assert_eq!(o.q_error(), Some(5.0));
        o.tuples_out = 0; // empty actual clamps to 1, no div-by-zero
        assert_eq!(o.q_error(), Some(2.0));
    }

    #[test]
    fn worst_misestimate_picks_the_largest_q() {
        let mut q = QueryProfile::default();
        let mut scan = op(OpKind::ForScan, "", 100);
        scan.estimate = Some(10);
        let mut filter = op(OpKind::Filter, "", 50);
        filter.estimate = Some(40);
        q.merge(PipelineProfile {
            executions: 1,
            workers: 1,
            ops: vec![scan, filter],
        });
        let worst = q.worst_misestimate().expect("has estimates");
        assert_eq!(worst.label, "ForScan");
        assert_eq!((worst.estimated, worst.actual), (10, 100));
        assert_eq!(worst.q_error, 10.0);
        assert!(QueryProfile::default().worst_misestimate().is_none());
    }

    #[test]
    fn span_json_nests_and_names_workers() {
        let mut root = Span::leaf("pipeline #0", 1_000, 9_000);
        let mut w = Span::leaf("worker", 1_000, 5_000);
        w.worker = Some(1);
        root.children.push(w);
        let json = root.to_json();
        assert_eq!(
            json,
            "{\"name\":\"pipeline #0\",\"start_ns\":1000,\"end_ns\":9000,\
             \"children\":[{\"name\":\"worker\",\"start_ns\":1000,\"end_ns\":5000,\"worker\":1}]}"
        );
        assert_eq!(root.duration_nanos(), 8_000);
    }

    #[test]
    fn profiler_caps_retained_spans() {
        let p = Profiler::new();
        for i in 0..(QueryProfile::MAX_SPANS + 10) {
            p.add_span(Span::leaf(format!("s{i}"), 0, 1));
        }
        assert_eq!(p.snapshot().spans.len(), QueryProfile::MAX_SPANS);
    }

    #[test]
    fn json_shape() {
        let mut q = QueryProfile::default();
        q.merge(PipelineProfile {
            executions: 1,
            workers: 1,
            ops: vec![op(OpKind::OrderBy, "limit=3", 3)],
        });
        let json = q.to_json();
        assert!(json.starts_with("{\"pipelines\":["));
        assert!(json.contains("\"op\":\"OrderBy\""));
        assert!(json.contains("\"detail\":\"limit=3\""));
        assert!(json.contains("\"materializes\":true"));
        assert!(json.contains("\"time_ns\":100"));
        // No estimates recorded: per-op est keys absent, worst null.
        assert!(!json.contains("\"est\":"));
        assert!(json.contains("\"worst_misestimate\":null"));
        assert!(json.contains("\"spans\":[]"));

        let mut scan = op(OpKind::ForScan, "", 6);
        scan.estimate = Some(3);
        q.merge(PipelineProfile {
            executions: 1,
            workers: 1,
            ops: vec![scan],
        });
        q.spans.push(Span::leaf("pipeline #0", 0, 100));
        let json = q.to_json();
        assert!(json.contains("\"est\":3,\"q_error\":2.00"), "{json}");
        assert!(
            json.contains("\"worst_misestimate\":{\"op\":\"ForScan\",\"est\":3,\"actual\":6,\"q_error\":2.00}"),
            "{json}"
        );
        assert!(
            json.contains("\"spans\":[{\"name\":\"pipeline #0\""),
            "{json}"
        );
    }
}
