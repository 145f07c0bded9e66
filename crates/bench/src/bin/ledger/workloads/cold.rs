//! `cold_run`: what one `xqa run -q ... -i doc.xml` pays. Every
//! operation starts from XML text and goes parse -> index -> catalog
//! statistics -> compile -> run -> serialize -> teardown, over four
//! documents, rotating a point lookup, a `Qgb` and a top-k. It is the
//! write-beside-read check for `storage`: an index that speeds the warm
//! workloads by doing more at build time pays for it here.

use xqa::PreparedQuery;
use xqa_workload::OrdersConfig;

use super::{
    compile, generate_xml, load, operation, run_materialized, sample_rewrites, InProcess, Op,
};
use crate::oracle::{Facts, Fingerprint};
use crate::queries::Query;
use crate::trace::Trace;

pub struct Cold {
    threads: usize,
    xmls: Vec<String>,
    /// (document, query, fingerprint of its verified first result).
    items: Vec<(usize, Query, Fingerprint)>,
}

/// One cold operation. Returns the serialized result and the plan (for
/// the rewrite samples); everything else is dropped inside the
/// operation, as it is when `xqa run` returns.
fn cold_op(xml: &str, query: &Query, threads: usize, tr: &mut Trace) -> (String, PreparedQuery) {
    let loaded = load(xml, threads, tr.on, tr);
    let plan = compile(&loaded.engine, &query.text(), tr);
    let (text, _) = run_materialized(&plan, &loaded.ctx, tr);
    tr.span("teardown", |_| drop(loaded));
    (text, plan)
}

impl InProcess for Cold {
    const DOCUMENTS: usize = 4;

    fn setup(
        docs: &[OrdersConfig],
        facts: &[Facts],
        threads: usize,
        tr: &mut Trace,
    ) -> (Self, u64) {
        let xmls: Vec<String> = docs.iter().map(|cfg| generate_xml(cfg, tr)).collect();
        let mut failures = 0;
        let mut items = Vec::new();
        let mut plans = Vec::new();
        for (doc, xml) in xmls.iter().enumerate() {
            let quantity = (docs[doc].seed % 50) as u32 + 1;
            for query in [Query::Point(quantity), Query::Qgb(doc), Query::TopK] {
                let (text, plan) = cold_op(xml, &query, threads, tr);
                if !facts[doc].matches(&query, &text) {
                    failures += 1;
                }
                items.push((doc, query, Fingerprint::of(&text)));
                plans.push(plan);
            }
        }
        sample_rewrites(plans.iter(), tr);
        (
            Cold {
                threads,
                xmls,
                items,
            },
            failures,
        )
    }

    fn round(&mut self, tr: &mut Trace, ops: &mut Vec<Op>) {
        for (group, (doc, query, fingerprint)) in self.items.iter().enumerate() {
            let ((text, _), latency_ns) =
                operation(tr, |tr| cold_op(&self.xmls[*doc], query, self.threads, tr));
            ops.push(Op {
                group: group as u16,
                latency_ns,
                first_byte_ns: Some(latency_ns),
                traced: tr.on,
                ok: Fingerprint::of(&text) == *fingerprint,
            });
        }
    }
}
