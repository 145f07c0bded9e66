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
//! and merge by FLWOR identity into the context's [`QueryProfile`]:
//! one entry per FLWOR, its counters and estimates summed over its
//! executions. The profile renders as `explain analyze` text or
//! machine-readable JSON.

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
        // Every execution carries the per-execution estimate: summed,
        // it is compared with the summed actual.
        self.estimate = self
            .estimate
            .zip(other.estimate)
            .map(|(a, b)| a.saturating_add(b));
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
/// executions of the same FLWOR (one nested under an outer `for`, or
/// inside a function called many times) merge into one entry with
/// `executions` counting the runs and the counters and estimates
/// summing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineProfile {
    /// How many times this pipeline ran.
    pub executions: u64,
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

    fn merge(&mut self, other: &PipelineProfile) {
        self.executions += other.executions;
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            a.merge(b);
        }
    }

    fn to_json(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|op| op.to_json()).collect();
        format!(
            "{{\"signature\":\"{}\",\"executions\":{},\"total_ns\":{},\"ops\":[{}]}}",
            json_escape(&self.signature()),
            self.executions,
            self.total_nanos(),
            ops.join(",")
        )
    }
}

/// The profile of a whole query: one entry per FLWOR that executed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Pipelines in first-completion order.
    pub pipelines: Vec<PipelineProfile>,
}

impl QueryProfile {
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

    /// The machine-readable form: one JSON object, no dependencies.
    pub fn to_json(&self) -> String {
        let pipelines: Vec<String> = self.pipelines.iter().map(|p| p.to_json()).collect();
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
        format!(
            "{{\"pipelines\":[{}],\"worst_misestimate\":{}}}",
            pipelines.join(","),
            worst,
        )
    }
}

/// The per-run profile collector hung off a [`crate::DynamicContext`].
/// Interior-mutable so the pipeline can record through `&self`.
#[derive(Debug, Default)]
pub struct Profiler {
    recording: Mutex<Recording>,
}

/// The profile being collected, and the FLWOR each of its pipelines
/// measures.
#[derive(Debug, Default)]
struct Recording {
    profile: QueryProfile,
    /// Per entry of `profile.pipelines`, the key it was recorded under.
    flwors: Vec<usize>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// The recording under its lock. Every update leaves it valid at
    /// every step (counters sum, vectors push), so a guard poisoned by
    /// a panicking worker is recovered rather than turning each later
    /// profiled run on this context into a second panic.
    fn lock(&self) -> MutexGuard<'_, Recording> {
        self.recording
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one execution of the FLWOR keyed `flwor` (the pipeline
    /// passes the address of its `FlworIr`, unique while the plan
    /// lives). A re-execution sums into that FLWOR's entry; any other
    /// FLWOR, equal labels or not, gets an entry of its own. Equal
    /// operator kinds are required too, so a key reused by a later plan
    /// in an undrained profile never zips mismatched rows.
    pub(crate) fn record(&self, flwor: usize, p: PipelineProfile) {
        let mut guard = self.lock();
        let Recording { profile, flwors } = &mut *guard;
        let same_ops = |q: &PipelineProfile| {
            q.ops
                .iter()
                .map(|op| op.kind)
                .eq(p.ops.iter().map(|op| op.kind))
        };
        let entry = flwors
            .iter()
            .zip(&mut profile.pipelines)
            .find(|(key, existing)| **key == flwor && same_ops(existing));
        match entry {
            Some((_, existing)) => existing.merge(&p),
            None => {
                flwors.push(flwor);
                profile.pipelines.push(p);
            }
        }
    }

    /// Drain the collected profile, leaving the profiler empty.
    pub fn take(&self) -> QueryProfile {
        std::mem::take(&mut *self.lock()).profile
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
            hints: "access=index,join=hash".parse().expect("valid hints"),
            ..Default::default()
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
            "ForScan(index scan //x) -> HashJoin(key=$slot0/k = $slot1/k, value index k) -> \
             GroupConsume(keys by value id) [materializes] -> OrderBy(limit=1) [heap] -> ReturnAt"
        );
        let explain = plan.explain();
        assert!(
            explain.contains(&format!("pipeline: {signature}\n")),
            "{explain}"
        );
    }

    #[test]
    fn merge_by_flwor_sums_counters_and_estimates() {
        let run = || {
            let mut scan = op(OpKind::ForScan, "", 10);
            scan.estimate = Some(10);
            PipelineProfile {
                executions: 1,
                ops: vec![scan, op(OpKind::ReturnAt, "", 10)],
            }
        };
        let p = Profiler::new();
        p.record(1, run());
        p.record(1, run());
        // Another FLWOR with the same labels keeps its own entry.
        p.record(2, run());
        // A reused key with other operators never zips with the first.
        p.record(
            1,
            PipelineProfile {
                executions: 1,
                ops: vec![op(OpKind::LetBind, "", 1), op(OpKind::ReturnAt, "", 1)],
            },
        );
        let q = p.take();
        assert_eq!(q.pipelines.len(), 3);
        assert_eq!(q.pipelines[0].executions, 2);
        assert_eq!(q.pipelines[0].ops[0].tuples_out, 20);
        assert_eq!(q.pipelines[0].ops[0].nanos, 200);
        assert_eq!(q.pipelines[0].ops[0].estimate, Some(20));
        assert_eq!(q.pipelines[0].ops[0].q_error(), Some(1.0));
        assert_eq!(q.pipelines[1].executions, 1);
        assert_eq!(q.pipelines[2].ops[0].kind, OpKind::LetBind);
    }

    #[test]
    fn profiler_take_drains() {
        let p = Profiler::new();
        p.record(
            0,
            PipelineProfile {
                executions: 1,
                ops: vec![op(OpKind::ForScan, "", 1)],
            },
        );
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
        assert!(poisoner.is_err() && p.recording.is_poisoned());
        p.record(
            0,
            PipelineProfile {
                executions: 1,
                ops: vec![op(OpKind::ForScan, "", 1)],
            },
        );
        assert_eq!(p.take().pipelines.len(), 1);
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
        q.pipelines.push(PipelineProfile {
            executions: 1,
            ops: vec![scan, filter],
        });
        let worst = q.worst_misestimate().expect("has estimates");
        assert_eq!(worst.label, "ForScan");
        assert_eq!((worst.estimated, worst.actual), (10, 100));
        assert_eq!(worst.q_error, 10.0);
        assert!(QueryProfile::default().worst_misestimate().is_none());
    }

    #[test]
    fn json_shape() {
        let mut q = QueryProfile::default();
        q.pipelines.push(PipelineProfile {
            executions: 1,
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
        assert!(json.ends_with(",\"worst_misestimate\":null}"), "{json}");

        let mut scan = op(OpKind::ForScan, "", 6);
        scan.estimate = Some(3);
        q.pipelines.push(PipelineProfile {
            executions: 1,
            ops: vec![scan],
        });
        let json = q.to_json();
        assert!(json.contains("\"est\":3,\"q_error\":2.00"), "{json}");
        assert!(
            json.contains("\"worst_misestimate\":{\"op\":\"ForScan\",\"est\":3,\"actual\":6,\"q_error\":2.00}"),
            "{json}"
        );
    }
}
