//! Loop-invariant `for` sources: a `for` that is not its FLWOR's first
//! clause, or the first `for` of the FLWOR a `let` binds, whose source
//! reads no variable that FLWOR binds, is evaluated at the first tuple
//! and kept for the rest of the FLWOR execution (`source once` /
//! `inner source once` in the plan labels; DESIGN.md §5.1).
//!
//! A hoisted plan must answer exactly as its un-hoistable twin, the same
//! query whose source is made to read an outer variable
//! (`(P)[exists($a)]`), in every hint mode: the same
//! items, or the same error code. The cases aim at every way keeping a
//! source could change an outcome: a source never evaluated because no
//! tuple reaches it, one that raises, one that mints nodes, one that
//! reads the focus, positions and declared types, sources spanning
//! documents, and the planner rule's declines.
//!
//! Mutants of the engine this suite was run against, each failing it:
//! keeping a source that reads a variable its FLWOR binds (the twins
//! and the bound-variable declines); evaluating a kept source when its
//! FLWOR starts instead of at the first tuple, raising its error there
//! (the zero-tuple and first-error cases) or only storing it (the
//! zero-tuple scan count); and taking the binary-search pick for a
//! source out of document order (the reversed-source case) or spanning
//! documents (the collection case).

use std::sync::Arc;

use xqa::storage::{CatalogStatistics, DocumentStore};
use xqa::xdm::{Document, ErrorCode, NodeHandle};
use xqa::{parse_document, serialize_sequence, DynamicContext, Engine, EngineOptions};
use xqa_workload::{generate_orders, OrdersConfig};

/// Every hint mode the twins are compared under.
const MODES: [&str; 4] = ["", "access=index", "access=walk", "join=nested"];

/// An indexed context over `doc`, with its catalog statistics.
fn indexed(doc: &Arc<Document>) -> (DynamicContext, Arc<CatalogStatistics>) {
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(doc);
    ctx.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    (ctx, stats)
}

fn engine(hints: &str, stats: &Arc<CatalogStatistics>) -> Engine {
    Engine::with_options(EngineOptions {
        hints: hints.parse().expect("valid hints"),
        ..Default::default()
    })
    .with_statistics(Arc::clone(stats))
}

/// The run's serialized result, or its error code.
fn outcome(engine: &Engine, query: &str, ctx: &DynamicContext) -> Result<String, ErrorCode> {
    let plan = engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"));
    plan.run(ctx)
        .map(|items| serialize_sequence(&items))
        .map_err(|e| e.code())
}

/// The `explain` text of `query` under `hints`.
fn explain(query: &str, hints: &str, stats: &Arc<CatalogStatistics>) -> String {
    engine(hints, stats)
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"))
        .explain()
}

/// Whether any operator of `query`'s plan under `hints` keeps a source.
fn keeps_a_source(query: &str, hints: &str, stats: &Arc<CatalogStatistics>) -> bool {
    explain(query, hints, stats).contains("source once")
}

/// `query` and its `twin` give one outcome in every mode, and the twin
/// keeps no source. Returns the outcome.
fn assert_twins_agree(
    ctx: &DynamicContext,
    stats: &Arc<CatalogStatistics>,
    query: &str,
    twin: &str,
) -> Result<String, ErrorCode> {
    let reference = outcome(&engine("access=walk", stats), twin, ctx);
    for hints in MODES {
        assert!(!keeps_a_source(twin, hints, stats), "{hints:?}: {twin}");
        for q in [query, twin] {
            assert_eq!(
                outcome(&engine(hints, stats), q, ctx),
                reference,
                "{hints:?}:\n{q}"
            );
        }
    }
    reference
}

fn xml(text: &str) -> Arc<Document> {
    parse_document(text).expect("well-formed")
}

fn orders(n: usize) -> Arc<Document> {
    generate_orders(&OrdersConfig {
        orders: n,
        ..Default::default()
    })
}

/// Table 1's `Q` template on one or two keys; the twin reads `$a` in
/// every source after the first.
fn q_query(keys: &[&str], twin: bool) -> String {
    let guard = if twin { "[exists($a)]" } else { "" };
    match keys {
        [a] => format!(
            "for $a in distinct-values(//order/lineitem/{a}) \
             let $items := for $i in (//order/lineitem){guard} where $i/{a} = $a return $i \
             return <r>{{$a, count($items)}}</r>"
        ),
        [a, b] => format!(
            "for $a in distinct-values(//order/lineitem/{a}), \
                 $b in distinct-values(//order/lineitem/{b}){guard} \
             let $items := for $i in (//order/lineitem){guard} \
                           where $i/{a} = $a and $i/{b} = $b return $i \
             where exists($items) \
             return <r>{{$a, $b, count($items)}}</r>"
        ),
        _ => panic!("templates cover one or two keys"),
    }
}

const SIX_KEYS: [&[&str]; 6] = [
    &["shipinstruct"],
    &["shipmode"],
    &["tax"],
    &["shipinstruct", "shipmode"],
    &["shipinstruct", "tax"],
    &["quantity"],
];

#[test]
fn the_six_q_templates_answer_as_their_unhoistable_twins() {
    let (ctx, stats) = indexed(&orders(60));
    for keys in SIX_KEYS {
        let (query, twin) = (q_query(keys, false), q_query(keys, true));
        let out = assert_twins_agree(&ctx, &stats, &query, &twin).expect("runs");
        assert!(out.matches("<r>").count() >= 4, "{keys:?}: {out}");
        // Nested, the inner FLWOR keeps its source whatever the keys.
        assert!(explain(&query, "join=nested", &stats).contains("LetBind(inner source once)"));
    }
}

/// The two-key `Q` reads `//order/lineitem` once per run, and each
/// `distinct-values` once: three index scans, where the nested plan
/// without kept sources scans once per `$a` and once per pair.
#[test]
fn the_two_key_q_scans_each_source_once() {
    let (ctx, stats) = indexed(&orders(60));
    let hits = |query: &str| {
        ctx.stats.reset();
        outcome(&engine("", &stats), query, &ctx).expect("runs");
        ctx.stats.snapshot().scan_index_hits
    };
    for keys in [&["shipinstruct", "shipmode"][..], &["shipinstruct", "tax"]] {
        let (query, twin) = (q_query(keys, false), q_query(keys, true));
        let plan = explain(&query, "", &stats);
        assert!(
            plan.contains(
                "pipeline: ForScan -> ForScan(source once) -> LetBind(inner source once) \
                 -> Filter -> ReturnAt"
            ),
            "{plan}"
        );
        assert_eq!(hits(&query), 3, "{keys:?}");
        // 1 + 4 per `$a` (shipinstruct has four values) + 1 per pair.
        assert!(hits(&twin) > 3 + 4, "{keys:?}");
    }
}

#[test]
fn a_source_no_tuple_reaches_is_never_evaluated() {
    let (ctx, stats) = indexed(&xml("<r><x>1</x></r>"));
    for (query, twin) in [
        (
            "for $x in //nosuch for $y in error() return 1",
            "for $x in //nosuch for $y in error()[exists($x)] return 1",
        ),
        (
            "for $x in (1, 2)[. > 5] for $y in error() return 1",
            "for $x in (1, 2)[. > 5] for $y in error()[exists($x)] return 1",
        ),
        (
            "for $x in //nosuch let $v := for $y in error() return $y return 1",
            "for $x in //nosuch let $v := for $y in error()[exists($x)] return $y return 1",
        ),
    ] {
        assert!(keeps_a_source(query, "", &stats), "{query}");
        assert_eq!(
            assert_twins_agree(&ctx, &stats, query, twin).as_deref(),
            Ok("")
        );
    }
    // Nor is one that would not raise: `//x` is never scanned.
    let query = "for $x in //nosuch for $y in //x return 1";
    ctx.stats.reset();
    let out = outcome(&engine("access=index", &stats), query, &ctx);
    assert_eq!(out.as_deref(), Ok(""));
    assert_eq!(ctx.stats.snapshot().scan_index_hits, 1);
}

#[test]
fn a_raising_source_raises_at_the_first_tuple_as_before() {
    let (ctx, stats) = indexed(&xml("<r><bad>a</bad><x>1</x></r>"));
    for (query, twin, code) in [
        (
            "for $x in (1, 2) for $y in xs:integer(//bad) return $y",
            "for $x in (1, 2) for $y in xs:integer(//bad)[exists($x)] return $y",
            ErrorCode::FORG0001,
        ),
        (
            "for $x in (1, 2) let $v := for $y in xs:integer(//bad) return $y return $v",
            "for $x in (1, 2) let $v := for $y in xs:integer(//bad)[exists($x)] return $y \
             return $v",
            ErrorCode::FORG0001,
        ),
        // The first tuple raises in a `let` before the source runs.
        (
            "for $x in (1, 2) let $z := 1 idiv ($x - 1) \
             for $y in xs:integer(//bad) return ($y, $z)",
            "for $x in (1, 2) let $z := 1 idiv ($x - 1) \
             for $y in xs:integer(//bad)[exists($x)] return ($y, $z)",
            ErrorCode::FOAR0001,
        ),
    ] {
        assert!(keeps_a_source(query, "", &stats), "{query}");
        assert_eq!(assert_twins_agree(&ctx, &stats, query, twin), Err(code));
    }
}

#[test]
fn a_source_read_under_a_changing_focus_is_kept_per_focus() {
    let (ctx, stats) = indexed(&xml("<r><x><k>1</k><k>2</k></x><x><k>3</k></x><x/></r>"));
    let query = "//x/sum(for $a in (1, 2) for $k in k return number($k))";
    let twin = "//x/sum(for $a in (1, 2) for $k in k[exists($a)] return number($k))";
    assert!(keeps_a_source(query, "", &stats));
    assert_eq!(
        assert_twins_agree(&ctx, &stats, query, twin).as_deref(),
        Ok("6 6 0")
    );
    let query = "//x[count(for $a in (1, 2) for $k in k return $k) = 2]";
    let twin = "//x[count(for $a in (1, 2) for $k in k[exists($a)] return $k) = 2]";
    assert_eq!(
        assert_twins_agree(&ctx, &stats, query, twin).as_deref(),
        Ok("<x><k>3</k></x>")
    );
    // An enclosing FLWOR's variable is fixed for one inner execution.
    let query = "for $x in //x return sum(for $a in (1, 2) for $k in $x/k return number($k))";
    let twin =
        "for $x in //x return sum(for $a in (1, 2) for $k in $x/k[exists($a)] return number($k))";
    assert!(keeps_a_source(query, "", &stats));
    assert_eq!(
        assert_twins_agree(&ctx, &stats, query, twin).as_deref(),
        Ok("6 6 0")
    );
}

#[test]
fn positions_and_declared_types_are_kept_per_tuple() {
    let (ctx, stats) = indexed(&xml("<r><x>1</x></r>"));
    for (query, twin, want) in [
        (
            "for $x in (1, 2) for $y at $p in (\"a\", \"b\", \"c\") \
             return concat($x, $y, $p)",
            "for $x in (1, 2) for $y at $p in (\"a\", \"b\", \"c\")[exists($x)] \
             return concat($x, $y, $p)",
            Ok("1a1 1b2 1c3 2a1 2b2 2c3"),
        ),
        (
            "for $x in (1, 2) let $v := for $y at $p in (\"a\", \"b\") return concat($y, $p) \
             return string-join($v, \"\")",
            "for $x in (1, 2) \
             let $v := for $y at $p in (\"a\", \"b\")[exists($x)] return concat($y, $p) \
             return string-join($v, \"\")",
            Ok("a1b2 a1b2"),
        ),
        (
            "for $x in (1, 2) for $y as xs:string in (\"a\", \"b\") return concat($x, $y)",
            "for $x in (1, 2) for $y as xs:string in (\"a\", \"b\")[exists($x)] \
             return concat($x, $y)",
            Ok("1a 1b 2a 2b"),
        ),
        (
            "for $x in (1, 2) for $y as xs:integer in (1, \"a\") return $y",
            "for $x in (1, 2) for $y as xs:integer in (1, \"a\")[exists($x)] return $y",
            Err(ErrorCode::XPTY0004),
        ),
    ] {
        assert!(keeps_a_source(query, "", &stats), "{query}");
        assert_eq!(
            assert_twins_agree(&ctx, &stats, query, twin),
            want.map(String::from)
        );
    }
}

/// A kept source that is one document's nodes in document order lets a
/// probe pick its rows by binary search; any other takes the filter,
/// which keeps the source's order and duplicates.
#[test]
fn a_probed_source_out_of_document_order_keeps_its_order() {
    let (ctx, stats) = indexed(&xml(
        "<r><x><k>a</k><n>1</n></x><x><k>b</k><n>2</n></x><x><k>a</k><n>3</n></x></r>",
    ));
    for (source, want) in [
        ("//x", "1 3 2"),
        ("reverse(//x)", "3 1 2"),
        ("(//x, //x)", "1 3 1 3 2 2"),
        ("(//x[n = 3], //x)", "3 1 3 2"),
    ] {
        let query = format!(
            "for $m in (\"a\", \"b\") for $x in {source} where $x/k = $m return string($x/n)"
        );
        let twin = format!(
            "for $m in (\"a\", \"b\") for $x in ({source})[exists($m)] where $x/k = $m \
             return string($x/n)"
        );
        assert!(
            explain(&query, "access=index", &stats).contains("source once, probe k"),
            "{query}"
        );
        assert_eq!(
            assert_twins_agree(&ctx, &stats, &query, &twin).as_deref(),
            Ok(want),
            "{source}"
        );
    }
}

/// Three documents, two of them indexed: the kept source spans
/// documents, so the probes filter it per document. Padding makes the
/// node ids increase across the documents too, as within one.
#[test]
fn a_collection_with_stores_on_two_documents_filters() {
    let pad = |n| "<p/>".repeat(n);
    let docs = [
        (
            "<r><x><k>a</k><n>1</n></x><x><k>b</k><n>2</n></x></r>".to_string(),
            true,
        ),
        (
            format!(
                "<r>{}<x><k>a</k><n>3</n></x><x><k>b</k><n>4</n></x></r>",
                pad(8)
            ),
            false,
        ),
        (
            format!(
                "<r>{}<x><k>b</k><n>5</n></x><x><k>a</k><n>6</n></x></r>",
                pad(16)
            ),
            true,
        ),
    ]
    .map(|(text, store)| (xml(&text), store));
    let mut ctx = DynamicContext::new();
    ctx.set_default_collection(
        docs.iter()
            .map(|(d, _)| d.root())
            .collect::<Vec<NodeHandle>>(),
    );
    for (doc, _) in docs.iter().filter(|(_, store)| *store) {
        ctx.register_store(Arc::new(DocumentStore::build(doc)));
    }
    let stats = Arc::new(CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    for (query, twin) in [
        (
            "for $m in (\"a\", \"b\") for $x in collection()//x where $x/k = $m \
             return string($x/n)",
            "for $m in (\"a\", \"b\") for $x in collection()//x[exists($m)] where $x/k = $m \
             return string($x/n)",
        ),
        (
            "for $m in (\"a\", \"b\") \
             let $v := for $x in collection()//x where $x/k = $m return string($x/n) \
             return $v",
            "for $m in (\"a\", \"b\") \
             let $v := for $x in collection()//x[exists($m)] where $x/k = $m \
                       return string($x/n) \
             return $v",
        ),
    ] {
        assert!(keeps_a_source(query, "join=nested", &stats), "{query}");
        assert_eq!(
            assert_twins_agree(&ctx, &stats, query, twin).as_deref(),
            Ok("1 3 6 2 4 5")
        );
    }
}

/// A kept source under a sort: a hoisted `for` after an outer `for` of
/// 2 100 items is evaluated once, and a hoisted `let`'s inner FLWOR
/// sorts the kept, probed source. Each chain ends in an `order by`.
#[test]
fn kept_sources_behind_an_exchange() {
    let (ctx, stats) = indexed(&xml("<r><x>1</x><x>2</x></r>"));
    let query = "count(for $i in 1 to 2100 for $y in (//x)[1] order by $i return $y)";
    let twin = "count(for $i in 1 to 2100 for $y in (//x)[exists($i)][1] order by $i return $y)";
    assert!(keeps_a_source(query, "", &stats));
    assert_eq!(
        assert_twins_agree(&ctx, &stats, query, twin).as_deref(),
        Ok("2100")
    );
    ctx.stats.reset();
    outcome(&engine("access=index", &stats), query, &ctx).expect("runs");
    assert_eq!(ctx.stats.snapshot().scan_index_hits, 1);

    let mut text = String::from("<r>");
    for i in 0..1500 {
        let k = if i % 5 == 0 { "b" } else { "a" };
        text.push_str(&format!("<x><k>{k}</k><n>{i}</n></x>"));
    }
    text.push_str("</r>");
    let (ctx, stats) = indexed(&xml(&text));
    let query = "for $m in (\"a\", \"b\", \"c\") \
                 let $v := for $x in //x where $x/k = $m order by number($x/n) return $x/n \
                 return <m>{count($v)}</m>";
    let twin = "for $m in (\"a\", \"b\", \"c\") \
                let $v := for $x in (//x)[exists($m)] where $x/k = $m \
                          order by number($x/n) return $x/n \
                return <m>{count($v)}</m>";
    assert!(keeps_a_source(query, "join=nested", &stats));
    assert_eq!(
        assert_twins_agree(&ctx, &stats, query, twin).as_deref(),
        Ok("<m>1200</m><m>300</m><m>0</m>")
    );
}

// ---- the rule's declines ----------------------------------------------

fn no_stats() -> Arc<CatalogStatistics> {
    Arc::new(CatalogStatistics::from_stores(std::iter::empty()))
}

/// Whether `query` keeps a source in any mode.
fn kept_anywhere(query: &str) -> bool {
    let stats = no_stats();
    MODES
        .iter()
        .any(|hints| keeps_a_source(query, hints, &stats))
}

#[test]
fn a_first_for_keeps_no_source() {
    assert!(!kept_anywhere("for $x in (1, 2) return $x"));
    assert!(!kept_anywhere("for $x in (1, 2) let $y := $x return $y"));
}

#[test]
fn a_for_reading_a_variable_its_flwor_binds_keeps_no_source() {
    for query in [
        "for $x in (1, 2) for $y in ($x, 3) return $y",
        "for $x in (1, 2) let $s := ($x, 3) for $y in $s return $y",
        "for $x in (1, 2) count $c for $y in 1 to $c return $y",
        "for $x at $p in (1, 2) for $y in 1 to $p return $y",
        "for tumbling window $w in (1 to 4) start when true() end at $e when $e mod 2 = 0 \
         for $y in $w return $y",
    ] {
        assert!(!kept_anywhere(query), "{query}");
    }
}

#[test]
fn a_constructed_source_keeps_no_source() {
    let (ctx, stats) = indexed(&xml("<r/>"));
    // Each tuple's `<a/>` is a new node: `/.` keeps both.
    for query in [
        "count((for $x in (1, 2) for $y in <a/> return $y)/.)",
        "count((for $x in (1, 2) let $v := for $y in <a/> return $y return $v)/.)",
    ] {
        assert!(!kept_anywhere(query), "{query}");
        assert_eq!(
            outcome(&engine("", &stats), query, &ctx).as_deref(),
            Ok("2")
        );
    }
}

#[test]
fn a_user_function_source_keeps_no_source() {
    let query = "declare function local:f() { 1 to 3 }; \
                 for $x in (1, 2) for $y in local:f() return $y";
    assert!(!kept_anywhere(query));
    let query = "declare function local:f() { 1 to 3 }; \
                 for $x in (1, 2) let $v := for $y in local:f() return $y return $v";
    assert!(!kept_anywhere(query));
}

#[test]
fn a_hash_joined_let_keeps_no_source() {
    let query = q_query(&["shipmode"], false);
    let (_, stats) = indexed(&orders(20));
    let plan = explain(&query, "", &stats);
    assert!(plan.contains("HashJoin(key="), "{plan}");
    assert!(!plan.contains("source once"), "{plan}");
}

#[test]
fn a_let_of_anything_but_a_flwor_starting_with_a_for_keeps_no_source() {
    for query in [
        "for $x in (1, 2) let $v := (3, 4) return $v",
        "for $x in (1, 2) let $v := count(for $y in (3, 4) return $y) return $v",
        "for $x in (1, 2) let $v := (let $z := (3, 4) for $y in $z return $y) return $v",
    ] {
        assert!(!kept_anywhere(query), "{query}");
    }
}

#[test]
fn a_let_whose_inner_source_reads_an_outer_variable_keeps_no_source() {
    for query in [
        "for $x in (1, 2) let $v := for $y in ($x, 3) return $y return $v",
        "for $x in (1, 2) let $s := 3 let $v := for $y in ($s, 4) return $y return $v",
    ] {
        assert!(!kept_anywhere(query), "{query}");
    }
    // Reading a variable bound outside the enclosing FLWOR is fine.
    assert!(kept_anywhere(
        "for $x in (1, 2) return for $z in (1, 2) let $v := for $y in ($x, 3) return $y \
         return $v"
    ));
}
