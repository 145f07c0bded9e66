//! # xqa — Extending XQuery for Analytics
//!
//! A from-scratch Rust implementation of the XQuery analytics
//! extensions proposed by Beyer, Chamberlin, Colby, Özcan, Pirahesh and
//! Xu in *"Extending XQuery for Analytics"* (SIGMOD 2005):
//!
//! - an explicit **`group by`** clause for FLWOR expressions, with
//!   `nest ... into` bindings, deep-equal grouping over complex keys,
//!   custom equality via `using`, per-nest `order by` for windowing,
//!   and post-group `let`/`where`;
//! - **output numbering** via `return at $rank`;
//!
//! on top of a complete substrate built for this reproduction: an XDM
//! value layer, an XML parser/serializer, an XQuery-1.0-subset frontend,
//! and a compiling evaluator.
//!
//! ## Quickstart
//!
//! ```
//! use xqa::{Engine, DynamicContext, parse_document, serialize_sequence};
//!
//! let doc = parse_document(
//!     "<bib>\
//!        <book><publisher>MK</publisher><price>10.00</price></book>\
//!        <book><publisher>MK</publisher><price>20.00</price></book>\
//!        <book><publisher>AW</publisher><price>40.00</price></book>\
//!      </bib>").unwrap();
//!
//! let engine = Engine::new();
//! let query = engine.compile(
//!     "for $b in //book
//!      group by $b/publisher into $p
//!      nest $b/price into $prices
//!      order by $p
//!      return <r>{string($p)}: {avg($prices)}</r>").unwrap();
//!
//! let mut ctx = DynamicContext::new();
//! ctx.set_context_document(&doc);
//! let result = query.run(&ctx).unwrap();
//! assert_eq!(serialize_sequence(&result), "<r>AW: 40</r><r>MK: 15</r>");
//! ```

#![warn(missing_docs)]

pub use xqa_engine::{
    resolve_threads, Clock, DynamicContext, Engine, EngineError, EngineOptions, EngineResult,
    EvalStats, EvalStatsSnapshot, Focus, MonotonicClock, OpKind, PlanHints, PreparedQuery,
    QueryProfile, RewriteKind, RewriteNote, TickClock, TraceEvent, TracePhase, TraceRing,
    TraceSink, Tracer,
};
pub use xqa_xmlparse::{
    parse_document, parse_document_with, parse_fragment, serialize_node, serialize_node_with,
    serialize_sequence, serialize_sequence_with, ParseError, ParseOptions, SerializeOptions,
    MAX_XML_DEPTH,
};

/// The data-model layer (items, nodes, atomic values).
pub use xqa_xdm as xdm;

/// The frontend (lexer, AST, parser) for tooling that wants syntax trees.
pub use xqa_frontend as frontend;

/// The serving layer (document catalog, plan cache, HTTP server) behind
/// `xqa serve`.
pub use xqa_service as service;

/// The indexed document-store layer: element postings and typed-value
/// indexes over the document's interned names and interval labels, and
/// the per-path statistics the planner consults.
pub use xqa_storage as storage;

use xqa_xdm::Sequence;

/// One-shot convenience: compile `query`, run it against `xml`, and
/// serialize the result compactly.
///
/// ```
/// assert_eq!(xqa::run_query("sum(//v)", "<r><v>1</v><v>2</v></r>").unwrap(), "3");
/// ```
pub fn run_query(query: &str, xml: &str) -> EngineResult<String> {
    Ok(serialize_sequence(&run_query_items(query, xml)?))
}

/// One-shot convenience returning the raw result sequence.
pub fn run_query_items(query: &str, xml: &str) -> EngineResult<Sequence> {
    let engine = Engine::new();
    let compiled = engine.compile(query)?;
    let doc = parse_document(xml).map_err(|e| EngineError::Static {
        code: xqa_xdm::ErrorCode::Other,
        message: e.to_string(),
    })?;
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    compiled.run(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_query_convenience() {
        assert_eq!(run_query("1 + 1", "<x/>").unwrap(), "2");
        assert_eq!(
            run_query(
                "for $v in //v group by $v into $k return string($k)",
                "<r><v>a</v><v>a</v></r>"
            )
            .unwrap(),
            "a"
        );
    }

    #[test]
    fn run_query_propagates_errors() {
        assert!(run_query("$nope", "<x/>").is_err());
        assert!(run_query("1", "<not closed").is_err());
    }
}
