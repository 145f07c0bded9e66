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

/// Six `item` elements, each with a numeric `p` leaf, among 19
/// elements.
const DOC: &str = "<r>\
     <item><p>1</p></item><item><p>2</p></item><item><p>3</p></item>\
     <item><p>1</p></item><item><p>2</p></item><item><p>3</p></item>\
     <pad/><pad/><pad/><pad/><pad/><pad/>\
     </r>";

fn indexed(xml: &str) -> (DynamicContext, Arc<CatalogStatistics>) {
    let doc = xqa_xmlparse::parse_document(xml).expect("parse");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    (ctx, stats)
}

/// An engine at `threads` with `stats` attached and no hints.
fn engine(threads: usize, stats: Arc<CatalogStatistics>) -> Engine {
    Engine::with_options(EngineOptions {
        threads,
        ..Default::default()
    })
    .with_statistics(stats)
}

/// The profiled `explain analyze` of `query` over `xml`, indexed, at
/// `threads`.
fn analyze(xml: &str, query: &str, threads: usize) -> String {
    let (mut ctx, stats) = indexed(xml);
    let plan = engine(threads, stats).compile(query).expect("compile");
    ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
    ctx.enable_profiling();
    plan.run(&ctx).expect("run");
    let profile = ctx.take_profile().expect("profiling was enabled");
    plan.explain_analyze(&profile, &ctx.stats.snapshot())
}

/// `render(threads)` equals the golden file `name` serial and at four
/// threads alike; returns the text.
fn assert_matches_golden(name: &str, render: impl Fn(usize) -> String) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, render(1)).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nrun with UPDATE_GOLDEN=1 to (re)create it",
            path.display()
        )
    });
    for threads in [1, 4] {
        assert_eq!(
            render(threads),
            expected,
            "output at {threads} thread(s) drifted from golden {name}\n\
             run with UPDATE_GOLDEN=1 to regenerate"
        );
    }
    expected
}

#[test]
fn explain_renders_index_scan_annotations() {
    let (_, stats) = indexed(DOC);
    let text = assert_matches_golden("explain_index_scan.txt", |threads| {
        engine(threads, stats.clone())
            .compile("count(//item) + count(//item[p = 2]) + count(//pad/missing)")
            .expect("compile")
            .explain()
    });
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
    let (_, stats) = indexed(DOC);
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
    let text = assert_matches_golden("explain_analyze_index_scan.txt", |threads| {
        analyze(
            DOC,
            "for $i in //item[p = 2] \
             order by string($i/p) \
             return at $r <hit rank=\"{$r}\"/>",
            threads,
        )
    });
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
    let text = assert_matches_golden("explain_analyze_value_eq_ndv.txt", |threads| {
        analyze(
            SKEW_DOC,
            "for $i in //item[p = 1] return string($i/p)",
            threads,
        )
    });
    assert!(text.contains("est/actual=6/6 (q=1.0)"), "{text}");
}
