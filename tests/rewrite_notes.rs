//! Golden for which planner rewrites fire, where, and in what order:
//! every corpus query (see `corpus/mod.rs`) is compiled under each hint
//! cell the differential suites loop over, and every
//! `applied_rewrites()` entry is held against
//! `tests/golden/rewrite_notes.txt`. A plan is a function of the query
//! text and the hints alone: the second test holds every corpus plan
//! equal with and without catalog statistics and under the spelled-out
//! default hints.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test rewrite_notes`.

mod corpus;

use std::fmt::Write;
use std::sync::Arc;
use xqa::{DynamicContext, Engine, EngineOptions};

const HEADER: &str = "\
# Rewrite notes of the corpus: `== query`, then per group of hint
# cells that fired the same notes `@ hints|-, ...` and one
# `  kind: detail` line per fired rewrite, in firing order. Queries no
# rewrite fires on under any cell are left out. No rule reads catalog
# statistics, so none are attached. A planner refactor must leave this
# file byte-identical; a change to what a rule fires regenerates it.
";

/// `query` compiled serially under `hints`, with `stats` attached if
/// given.
fn compile(
    query: &str,
    hints: &str,
    stats: Option<&Arc<xqa::storage::CatalogStatistics>>,
) -> xqa::PreparedQuery {
    let mut engine = Engine::with_options(EngineOptions {
        hints: hints.parse().expect("valid hints"),
        ..Default::default()
    });
    if let Some(stats) = stats {
        engine = engine.with_statistics(Arc::clone(stats));
    }
    engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile under [{hints}]: {e}\n{query}"))
}

#[test]
fn rewrite_notes_match_the_golden() {
    let mut actual = String::from(HEADER);
    let mut compiled_queries = 0;
    for query in corpus::candidates() {
        if Engine::new().compile(&query).is_err() {
            continue;
        }
        compiled_queries += 1;
        // Cells that fired the same notes share one block.
        let mut blocks: Vec<(String, Vec<&str>)> = Vec::new();
        for hints in corpus::HINT_CELLS {
            let notes: String = compile(&query, hints, None)
                .applied_rewrites()
                .iter()
                .map(|note| format!("  {}: {}\n", note.kind.as_str(), note.detail))
                .collect();
            let cell = if hints.is_empty() { "-" } else { hints };
            match blocks.iter_mut().find(|(n, _)| *n == notes) {
                Some((_, cells)) => cells.push(cell),
                None => blocks.push((notes, vec![cell])),
            }
        }
        if blocks.iter().any(|(notes, _)| !notes.is_empty()) {
            let _ = writeln!(actual, "== {query}");
            for (notes, cells) in blocks {
                let _ = write!(actual, "@ {}\n{notes}", cells.join(", "));
            }
        }
    }
    assert!(
        compiled_queries > 100,
        "corpus shrank to {compiled_queries}"
    );

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/rewrite_notes.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (n, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "rewrite notes drifted at golden line {}", n + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "rewrite notes drifted in length"
    );
}

/// Statistics only estimate, and an absent hint is its default side:
/// attaching a catalog, or spelling out `access=index` or `join=hash`,
/// leaves every corpus plan's `explain()` and fingerprint as they are.
#[test]
fn plans_ignore_statistics_and_spelled_out_defaults() {
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 120,
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let stats = Arc::new(xqa::storage::CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));

    let mut compared = 0;
    for query in corpus::candidates() {
        let Ok(reference) = Engine::new().compile(&query) else {
            continue;
        };
        for hints in ["", "access=index", "join=hash"] {
            for stats in [None, Some(&stats)] {
                let plan = compile(&query, hints, stats);
                let cell = format!("[{hints}] stats={}", stats.is_some());
                assert_eq!(plan.explain(), reference.explain(), "{cell}: {query}");
                assert_eq!(
                    plan.fingerprint(),
                    reference.fingerprint(),
                    "{cell}: {query}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 600, "only {compared} plans compared");
}
