//! Compile-trace tests: the trace a plan renders (parse, one event per
//! fired rewrite, compile) and the rewrite notes it renders from, which
//! fire exactly when the rewrites apply and name where. The rendering
//! is pinned by `tests/golden/compile_trace.txt` (`ts_ns` masked);
//! regenerate with `UPDATE_GOLDEN=1 cargo test --test trace_events`.

use std::sync::Arc;

use xqa_engine::{Engine, EngineOptions, RewriteKind};

/// The details of the rewrites of `kind` that fired compiling `query`.
fn fired(query: &str, kind: RewriteKind) -> Vec<String> {
    Engine::new()
        .compile(query)
        .expect("compiles")
        .applied_rewrites()
        .iter()
        .filter(|note| note.kind == kind)
        .map(|note| note.detail.clone())
        .collect()
}

/// `(ts_ns, query_id, phase, detail)` of each event of a rendered
/// trace, one event per line.
fn events(trace: &str) -> Vec<(u64, u64, String, String)> {
    let field = |line: &str, key: &str, end: &str| {
        let rest = &line[line.find(key).expect(key) + key.len()..];
        rest[..rest.find(end).expect(end)].to_string()
    };
    trace
        .lines()
        .filter(|line| line.starts_with("  {"))
        .map(|line| {
            (
                field(line, "\"ts_ns\":", ",").parse().expect("ts_ns"),
                field(line, "\"query_id\":", ",").parse().expect("query_id"),
                field(line, "\"phase\":\"", "\""),
                field(line, "\"detail\":\"", "\"}"),
            )
        })
        .collect()
}

#[test]
fn every_compile_emits_parse_then_compile() {
    let trace = Engine::new()
        .compile("1 + 1")
        .expect("compiles")
        .trace_json(1);
    let events = events(&trace);
    assert_eq!(events.first().map(|e| e.2.as_str()), Some("parse"));
    assert_eq!(events.last().map(|e| e.2.as_str()), Some("compile"));
    assert!(events.last().unwrap().3.contains("streaming pipeline"));
}

#[test]
fn the_compile_event_names_the_effective_hints() {
    let plan = Engine::with_options(EngineOptions {
        hints: "join=nested,access=walk".parse().unwrap(),
        ..Default::default()
    })
    .compile("1 + 1")
    .expect("compiles");
    let hints = plan.hints();
    assert_eq!(
        (hints.hash_join, hints.index_scan),
        (Some(false), Some(false))
    );
    let compile = events(&plan.trace_json(1)).pop().expect("compile event").3;
    assert!(compile.ends_with(&format!("hints [{hints}]")), "{compile}");
}

#[test]
fn topk_pushdown_fires_exactly_when_a_positional_bound_exists() {
    // Bounded rank query: the pushdown applies and says where.
    let notes = fired(
        "(for $x in 1 to 100 order by $x descending return at $r <v>{$r}</v>)[position() le 5]",
        RewriteKind::TopKPushdown,
    );
    assert!(
        notes
            .iter()
            .any(|d| d.contains("5-tuple heap") && d.contains("in query body")),
        "missing topk note in {notes:?}"
    );

    // Unbounded order-by: nothing to push down, no note.
    let notes = fired(
        "for $x in 1 to 100 order by $x descending return $x",
        RewriteKind::TopKPushdown,
    );
    assert!(
        notes.is_empty(),
        "topk-pushdown must not fire without a bound: {notes:?}"
    );
}

#[test]
fn path_fusion_fires_exactly_on_descendant_steps() {
    let notes = fired("for $v in //item return $v", RewriteKind::PathFusion);
    assert!(
        notes.iter().any(|d| d.contains("in query body")),
        "missing fusion note in {notes:?}"
    );

    // Child-only steps leave nothing to fuse.
    let notes = fired("for $v in /r/item return $v", RewriteKind::PathFusion);
    assert!(
        notes.is_empty(),
        "path-fusion must not fire on child-only paths: {notes:?}"
    );
}

#[test]
fn rewrites_in_functions_and_globals_name_their_location() {
    let notes = fired(
        "declare variable $g := count(//a); \
         declare function local:f() { count(//b) }; \
         local:f() + $g",
        RewriteKind::PathFusion,
    );
    assert!(
        notes.iter().any(|d| d.contains("global $g")),
        "missing global location in {notes:?}"
    );
    assert!(
        notes.iter().any(|d| d.contains("function local:f#0")),
        "missing function location in {notes:?}"
    );
}

#[test]
fn events_are_stamped_with_query_id_and_monotone_timestamps() {
    let plan = Engine::new()
        .compile("for $v in //item return $v")
        .expect("compiles");
    let events = events(&plan.trace_json(42));
    assert_eq!(events.len(), 4, "parse, path fusion, index scan, compile");
    assert!(events.iter().all(|e| e.1 == 42));
    assert!(
        events.windows(2).all(|w| w[0].0 <= w[1].0),
        "timestamps must not decrease: {events:?}"
    );
}

/// The queries of the compile-trace golden: (label, hints, statistics
/// attached, query text).
const GOLDEN_CASES: &[(&str, &str, bool, &str)] = &[
    ("no rewrites", "", false, "1 + 1"),
    (
        "hints pinned",
        "join=nested,access=walk,topk=off",
        true,
        "for $v in //item order by $v/p return $v",
    ),
    (
        "rewrites in the body",
        "",
        false,
        "(for $x in 1 to 100 order by $x descending return at $r <v>{$r}</v>)[position() le 5]",
    ),
    (
        "rewrites in a global and a function",
        "",
        false,
        "declare variable $g := count(//a); \
         declare function local:f() { count(//b) }; \
         local:f() + $g",
    ),
    (
        "index scans, statistics attached",
        "",
        true,
        "count(//item) + count(//item[p = 2])",
    ),
    (
        "hash join on a string key",
        "join=hash",
        true,
        "for $o in //item let $m := (for $y in //item where $y/p = \"2\" return $y) return count($m)",
    ),
];

fn golden_statistics() -> Arc<xqa_storage::CatalogStatistics> {
    let doc = xqa_xmlparse::parse_document(
        "<r><item><p>1</p></item><item><p>2</p></item><item><p>3</p></item>\
         <pad/><pad/><pad/><pad/><pad/><pad/><pad/><pad/><pad/></r>",
    )
    .expect("parse");
    let store = xqa_storage::DocumentStore::build(&doc);
    Arc::new(xqa_storage::CatalogStatistics::from_stores([&store]))
}

#[test]
fn compile_trace_matches_golden() {
    let mut actual = String::new();
    for &(label, hints, with_stats, query) in GOLDEN_CASES {
        let mut engine = Engine::with_options(EngineOptions {
            hints: hints.parse().expect("valid hints"),
            ..Default::default()
        });
        if with_stats {
            engine = engine.with_statistics(golden_statistics());
        }
        let trace = engine.compile(query).expect("compiles").trace_json(7);
        let events = events(&trace);
        assert!(
            events.windows(2).all(|w| w[0].0 <= w[1].0),
            "ts_ns decreased in {trace}"
        );
        let mut masked = trace.clone();
        for (ts, ..) in &events {
            masked = masked.replacen(&format!("\"ts_ns\":{ts},"), "\"ts_ns\":_,", 1);
        }
        actual.push_str(&format!("== {label}: {query}\n{masked}\n"));
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compile_trace.txt");
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
    assert_eq!(actual, expected, "compile trace drifted from the golden");
}
