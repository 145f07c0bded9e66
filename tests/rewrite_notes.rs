//! Golden for which planner rewrites fire, where, and in what order:
//! every corpus query (see `corpus/mod.rs`) is compiled under each hint
//! cell the differential suites loop over, with catalog statistics
//! attached and detached, and every `applied_rewrites()` entry is held
//! against `tests/golden/rewrite_notes.txt`.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test rewrite_notes`.

mod corpus;

use std::fmt::Write;
use std::sync::Arc;
use xqa::{DynamicContext, Engine, EngineOptions};

const HEADER: &str = "\
# Rewrite notes of the corpus: `== query`, then per group of cells
# that fired the same notes `@ hints|- stats|nostats, ...` and one
# `  kind: detail` line per fired rewrite, in firing order. Queries no
# rewrite fires on under any cell are left out. Generated by
# tests/rewrite_notes.rs before the planner became one rule list; a
# planner refactor must leave this file byte-identical, except that the
# slot numbers inside `implicit-groupby=on` cells may change (that
# rewrite moved from the AST, ahead of slot allocation, onto the
# compiled plan): regenerate only those cells.
";

#[test]
fn rewrite_notes_match_the_golden() {
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

    let mut actual = String::from(HEADER);
    let mut compiled_queries = 0;
    for query in corpus::candidates() {
        if Engine::new().compile(&query).is_err() {
            continue;
        }
        compiled_queries += 1;
        // Cells that fired the same notes share one block.
        let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
        for hints in corpus::HINT_CELLS {
            for with_stats in [true, false] {
                let mut engine = Engine::with_options(EngineOptions {
                    threads: 1,
                    hints: hints.parse().expect("valid hints"),
                });
                if with_stats {
                    engine.set_statistics(Arc::clone(&stats));
                }
                let plan = engine
                    .compile(&query)
                    .unwrap_or_else(|e| panic!("compile under [{hints}]: {e}\n{query}"));
                let notes: String = plan
                    .applied_rewrites()
                    .iter()
                    .map(|note| format!("  {}: {}\n", note.kind.as_str(), note.detail))
                    .collect();
                let cell = format!(
                    "{} {}",
                    if hints.is_empty() { "-" } else { hints },
                    if with_stats { "stats" } else { "nostats" }
                );
                match blocks.iter_mut().find(|(n, _)| *n == notes) {
                    Some((_, cells)) => cells.push(cell),
                    None => blocks.push((notes, vec![cell])),
                }
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
