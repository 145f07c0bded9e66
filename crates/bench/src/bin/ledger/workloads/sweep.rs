//! `sweep_groupby` and `sweep_baseline`: the paper's Section-6 sweep,
//! the six `Qgb` (explicit group by) or the six `Q` (distinct-values
//! plus self-join) templates over one warm, indexed document with plans
//! precompiled. One round runs each template once; the result is
//! serialized, as the paper's timings include producing the answer.

use xqa::RewriteKind;
use xqa_workload::OrdersConfig;

use super::{ms, operation, run_materialized, InProcess, Op, Warm};
use crate::oracle::{Facts, Fingerprint};
use crate::queries::Query;
use crate::trace::Trace;

/// `BASELINE` picks the `Q` templates; otherwise the `Qgb` templates.
pub struct Sweep<const BASELINE: bool>(Warm);

impl<const BASELINE: bool> InProcess for Sweep<BASELINE> {
    fn setup(
        docs: &[OrdersConfig],
        facts: &[Facts],
        threads: usize,
        tr: &mut Trace,
    ) -> (Self, u64) {
        let queries: Vec<Query> = (0..6)
            .map(|i| if BASELINE { Query::Q(i) } else { Query::Qgb(i) })
            .collect();
        let (warm, failures) = Warm::setup(&docs[0], &facts[0], threads, &queries, tr);
        (Sweep(warm), failures)
    }

    fn round(&mut self, tr: &mut Trace, ops: &mut Vec<Op>) {
        for (group, plan) in self.0.plans.iter().enumerate() {
            let ctx = self.0.ctx(tr);
            let ((text, execute_ns), latency_ns) =
                operation(tr, |tr| run_materialized(&plan.plan, ctx, tr));
            // The Q shapes join-unnest leaves alone are evaluated as
            // nested loops; their execute time is sampled separately.
            let unnested = plan
                .plan
                .applied_rewrites()
                .iter()
                .any(|r| r.kind == RewriteKind::JoinUnnest);
            if tr.on && BASELINE && !unnested {
                tr.sample("engine.nested_shape_ms", ms(execute_ns));
            }
            ops.push(Op {
                group: group as u16,
                latency_ns,
                first_byte_ns: Some(latency_ns),
                traced: tr.on,
                ok: Fingerprint::of(&text) == plan.fingerprint,
            });
        }
    }
}
