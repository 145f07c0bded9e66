//! Golden tests for the `[index scan ...]` plan annotations.
//!
//! `explain` output is deterministic by construction; the `explain
//! analyze` golden additionally pins timings with the [`TickClock`].
//! Regenerate with `UPDATE_GOLDEN=1 cargo test`.

use std::sync::Arc;

use xqa_engine::{DynamicContext, Engine, EngineOptions, TickClock};
use xqa_storage::CatalogStatistics;

/// 1ms per clock read, matching the other explain-analyze goldens.
const TICK_NANOS: u64 = 1_000_000;

/// Six `item` elements (of 19 elements total, selectivity well under
/// the auto-mode gate), each with a numeric `p` leaf.
const DOC: &str = "<r>\
     <item><p>1</p></item><item><p>2</p></item><item><p>3</p></item>\
     <item><p>1</p></item><item><p>2</p></item><item><p>3</p></item>\
     <pad/><pad/><pad/><pad/><pad/><pad/>\
     </r>";

fn indexed_ctx() -> (DynamicContext, Arc<CatalogStatistics>) {
    let doc = xqa_xmlparse::parse_document(DOC).expect("parse");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    (ctx, stats)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nrun with UPDATE_GOLDEN=1 to (re)create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "output drifted from golden {name}\nrun with UPDATE_GOLDEN=1 to regenerate"
    );
}

#[test]
fn explain_renders_index_scan_annotations() {
    let (_, stats) = indexed_ctx();
    let engine = Engine::new().with_statistics(stats);
    let plan = engine
        .compile("count(//item) + count(//item[p = 2]) + count(//pad/missing)")
        .expect("compile");
    let text = plan.explain();
    assert_matches_golden("explain_index_scan.txt", &text);
    // All three leading descendant steps are annotated — //pad/missing
    // resolves the //pad prefix via the index, then walks the child step.
    assert_eq!(text.matches("[index scan").count(), 3, "{text}");
    assert!(text.contains("[index scan path=//item]"), "{text}");
    assert!(text.contains("[index scan path=//pad]"), "{text}");
    assert!(
        text.contains("[index scan path=//item value-eq p=2]"),
        "{text}"
    );
}

#[test]
fn explain_walk_mode_has_no_annotations() {
    let (_, stats) = indexed_ctx();
    let engine = Engine::with_options(EngineOptions {
        hints: "access=walk".parse().unwrap(),
        ..Default::default()
    })
    .with_statistics(stats);
    let plan = engine.compile("count(//item[p = 2])").expect("compile");
    assert!(
        !plan.explain().contains("[index scan"),
        "{}",
        plan.explain()
    );
}

#[test]
fn explain_analyze_reports_index_scan_counters() {
    let (mut ctx, stats) = indexed_ctx();
    let engine = Engine::new().with_statistics(stats);
    let plan = engine
        .compile(
            "for $i in //item[p = 2] \
             order by string($i/p) \
             return at $r <hit rank=\"{$r}\"/>",
        )
        .expect("compile");
    ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
    ctx.enable_profiling();
    plan.run(&ctx).expect("run");
    let profile = ctx.take_profile().expect("profiling was enabled");
    let text = plan.explain_analyze(&profile);
    assert_matches_golden("explain_analyze_index_scan.txt", &text);
    // The ForScan advertises its access path and the footer counts the
    // index-resolved tuples.
    assert!(text.contains("ForScan(index scan //item[p=..])"), "{text}");
    assert!(
        text.contains("index scans: hits=1 index_tuples=2 walk_tuples=0"),
        "{text}"
    );
    // The statistics-driven estimate rides along: 6 `item` elements
    // over 3 distinct `p` values, value-eq probe estimated at
    // 6/ndv(p) = 2 — exactly the 2 matches.
    assert!(text.contains("est/actual=2/2 (q=1.0)"), "{text}");
    assert!(text.contains("worst misestimate:"), "{text}");
}

/// Twelve `item` elements but only two distinct `p` values: the
/// catalog ndv drives the value-eq estimate to 12/2 = 6, where the
/// old ⌈√12⌉ = 3 fallback would have been off by 2×.
const SKEW_DOC: &str = "<r>\
     <item><p>1</p></item><item><p>2</p></item><item><p>1</p></item>\
     <item><p>2</p></item><item><p>1</p></item><item><p>2</p></item>\
     <item><p>1</p></item><item><p>2</p></item><item><p>1</p></item>\
     <item><p>2</p></item><item><p>1</p></item><item><p>2</p></item>\
     <pad/><pad/><pad/><pad/><pad/><pad/>\
     <pad/><pad/><pad/><pad/><pad/><pad/>\
     </r>";

#[test]
fn explain_analyze_value_eq_estimate_uses_catalog_ndv() {
    let doc = xqa_xmlparse::parse_document(SKEW_DOC).expect("parse");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    let engine = Engine::new().with_statistics(stats);
    let plan = engine
        .compile("for $i in //item[p = 1] return string($i/p)")
        .expect("compile");
    ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
    ctx.enable_profiling();
    plan.run(&ctx).expect("run");
    let profile = ctx.take_profile().expect("profiling was enabled");
    let text = plan.explain_analyze(&profile);
    assert_matches_golden("explain_analyze_value_eq_ndv.txt", &text);
    assert!(text.contains("est/actual=6/6 (q=1.0)"), "{text}");
}
