//! Grouping on value ids: a `group by` whose keys are all `$v/N` over an
//! indexed document keys its tuples by the store's dictionary ids of
//! `$v`'s `N` children, and falls back to canonical deep-equal keys at
//! the first tuple the store cannot code (DESIGN.md §5.1, §12).
//!
//! The coded plans (`access=index`, the default, with or without
//! statistics attached) must give byte-identical results, or the same error code, as the
//! uncoded ones (`access=walk`, or no stores), each at threads 1 and 4.
//! The cases aim at every way a code could go wrong: attributes on key
//! leaves, two documents whose dictionaries number the same text
//! differently, missing and repeated key children, a non-leaf key after
//! coded tuples, signed zeros, `$v` bound to two nodes, and `using`.

use std::sync::Arc;

use xqa::storage::CatalogStatistics;
use xqa::xdm::{Document, ErrorCode, NodeHandle};
use xqa::{parse_document, serialize_sequence, DynamicContext, Engine, EngineOptions};
use xqa_workload::orders::generate_split;
use xqa_workload::{generate_orders, OrdersConfig};

/// Where a case's documents go in the dynamic context.
enum Docs {
    /// One context document.
    Context(Arc<Document>),
    /// The default collection.
    Collection(Vec<Arc<Document>>),
}

impl Docs {
    /// A context over these documents, with or without their stores.
    fn ctx(&self, indexed: bool) -> DynamicContext {
        let mut ctx = DynamicContext::new();
        match self {
            Docs::Context(doc) => {
                ctx.set_context_document(doc);
            }
            Docs::Collection(docs) => {
                ctx.set_default_collection(
                    docs.iter().map(|d| d.root()).collect::<Vec<NodeHandle>>(),
                );
            }
        }
        if indexed {
            ctx.index_documents();
        }
        ctx
    }

    fn xml(text: &str) -> Docs {
        Docs::Context(parse_document(text).expect("well-formed"))
    }
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

/// Whether the plan of `query` under `hints` groups on value ids.
fn coded(query: &str, hints: &str, stats: &Arc<CatalogStatistics>) -> bool {
    engine(hints, 1, Some(stats))
        .compile(query)
        .expect("compiles")
        .explain()
        .contains("keys by value id")
}

fn engine(hints: &str, threads: usize, stats: Option<&Arc<CatalogStatistics>>) -> Engine {
    let engine = Engine::with_options(EngineOptions {
        threads,
        hints: hints.parse().expect("valid hints"),
    });
    match stats {
        Some(stats) => engine.with_statistics(Arc::clone(stats)),
        None => engine,
    }
}

/// Coded ≡ uncoded on `query` over `docs`; `codes` says whether the
/// coded plans must carry the value-id annotation. Returns the outcome.
fn assert_coded_matches_uncoded(
    docs: &Docs,
    query: &str,
    codes: bool,
) -> Result<String, ErrorCode> {
    let indexed = docs.ctx(true);
    let bare = docs.ctx(false);
    let stats = Arc::new(CatalogStatistics::from_stores(
        indexed.stores().map(Arc::as_ref),
    ));
    assert_eq!(coded(query, "access=index", &stats), codes, "{query}");
    assert!(!coded(query, "access=walk", &stats), "{query}");
    let mut runs = Vec::new();
    for threads in [1, 4] {
        // (hints, context, statistics): the last cell has no stores.
        let cells = [
            ("access=index", &indexed, Some(&stats)),
            ("", &indexed, Some(&stats)),
            ("access=walk", &indexed, Some(&stats)),
            ("access=index", &bare, None),
        ];
        for (hints, ctx, stats) in cells {
            let out = outcome(&engine(hints, threads, stats), query, ctx);
            let stores = if stats.is_some() { "" } else { " (no stores)" };
            runs.push((format!("{hints:?}{stores} threads={threads}"), out));
        }
    }
    let (first_label, first) = &runs[0];
    for (label, out) in &runs[1..] {
        assert_eq!(first, out, "{first_label} vs {label}:\n{query}");
    }
    runs.swap_remove(0).1
}

/// `group by $x/k into $k nest $x into $xs`, each group as `key|count`.
const BY_K: &str = "for $x in //x group by $x/k into $k nest $x into $xs \
                    return <g>{$k}|{count($xs)}</g>";

#[test]
fn the_six_qgb_templates_and_the_corpus_groupings_code_identically() {
    let docs = Docs::Context(generate_orders(&OrdersConfig {
        orders: 320,
        ..Default::default()
    }));
    let keys: [&[&str]; 6] = [
        &["shipinstruct"],
        &["shipmode"],
        &["tax"],
        &["shipinstruct", "shipmode"],
        &["shipinstruct", "tax"],
        &["quantity"],
    ];
    for keys in keys {
        let by: Vec<String> = keys
            .iter()
            .zip(["a", "b"])
            .map(|(key, var)| format!("$litem/{key} into ${var}"))
            .collect();
        let vars: Vec<String> = ["$a", "$b"][..keys.len()]
            .iter()
            .map(|v| v.to_string())
            .collect();
        let query = format!(
            "for $litem in //order/lineitem group by {} nest $litem into $items \
             return <r> {{{}, count($items)}} </r>",
            by.join(", "),
            vars.join(", ")
        );
        assert_coded_matches_uncoded(&docs, &query, true).expect("runs");
    }
    for query in [
        "for $li in //order/lineitem group by $li/shipmode into $m nest $li into $items \
         order by string($m) return <g>{string($m)}:{count($items)}</g>",
        "for $li in //order/lineitem \
         group by $li/returnflag into $rf, $li/linestatus into $ls nest $li/quantity into $qs \
         order by string($rf), string($ls) \
         return <g>{string($rf)}{string($ls)}|{count($qs)}|{sum(for $q in $qs return number($q))}</g>",
        "for $li in //order/lineitem group by $li/shipmode into $m \
         nest $li/shipdate order by string($li/shipdate) into $ds \
         order by string($m) return <g>{string($m)}:{string($ds[1])}..{string($ds[last()])}</g>",
        "for $li in //order/lineitem group by $li/shipmode into $m nest $li into $items \
         let $n := count($items) where $n ge 10 order by $n descending, string($m) \
         return <g>{string($m)}:{$n}</g>",
        "(for $li in //order/lineitem group by $li/shipmode into $m nest $li into $items \
          order by count($items) descending, string($m) \
          return at $r <g rank=\"{$r}\">{string($m)}</g>)[position() le 3]",
        // A grouped node is still the document's own: identity survives.
        "for $li in //order/lineitem group by $li/shipmode into $m nest $li into $items \
         return <g>{$m is ($items[1]/shipmode)}</g>",
    ] {
        assert_coded_matches_uncoded(&docs, query, true).expect("runs");
    }
}

#[test]
fn using_keys_are_never_coded() {
    let docs = Docs::Context(generate_orders(&OrdersConfig {
        orders: 60,
        ..Default::default()
    }));
    let query = "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
                 { deep-equal($a, $b) }; \
                 for $li in //order/lineitem group by $li/shipmode into $m using local:eq \
                 nest $li into $items order by string($m) \
                 return <g>{string($m)}:{count($items)}</g>";
    assert_coded_matches_uncoded(&docs, query, false).expect("runs");
}

#[test]
fn attribute_bearing_key_leaves_are_not_deep_equal_to_bare_ones() {
    // First tuple coded, a later one with attributes: the table re-keys.
    let later = Docs::xml(
        "<r><x><k>p</k></x><x><k a=\"1\">p</k></x><x><k>p</k></x>\
         <x><k a=\"2\">p</k></x><x><k a=\"1\">p</k></x></r>",
    );
    assert_eq!(
        assert_coded_matches_uncoded(&later, BY_K, true).as_deref(),
        Ok("<g><k>p</k>|2</g><g><k a=\"1\">p</k>|2</g><g><k a=\"2\">p</k>|1</g>")
    );
    // Attributes on the first tuple already.
    let first = Docs::xml("<r><x><k a=\"1\">p</k></x><x><k>p</k></x></r>");
    assert_eq!(
        assert_coded_matches_uncoded(&first, BY_K, true).as_deref(),
        Ok("<g><k a=\"1\">p</k>|1</g><g><k>p</k>|1</g>")
    );
}

#[test]
fn two_documents_number_equal_texts_differently() {
    // Document 1 numbers p as 0 and q as 1, document 2 numbers q as 0:
    // their ids do not compare, so the second document's tuples re-key.
    let docs = Docs::Collection(vec![
        parse_document("<r><x><k>p</k></x><x><k>q</k></x></r>").unwrap(),
        parse_document("<r><x><k>q</k></x><x><k>p</k></x></r>").unwrap(),
    ]);
    let query = "for $x in collection()//x group by $x/k into $k nest $x into $xs \
                 return <g>{$k}|{count($xs)}</g>";
    assert_eq!(
        assert_coded_matches_uncoded(&docs, query, true).as_deref(),
        Ok("<g><k>p</k>|2</g><g><k>q</k>|2</g>")
    );
    // Equal text in both documents: one group.
    let docs = Docs::Collection(vec![
        parse_document("<r><x><k>p</k></x></r>").unwrap(),
        parse_document("<r><x><k>p</k></x><x><k>p</k></x></r>").unwrap(),
    ]);
    assert_eq!(
        assert_coded_matches_uncoded(&docs, query, true).as_deref(),
        Ok("<g><k>p</k>|3</g>")
    );
    // The paper's collection shape: one document per order.
    let docs = Docs::Collection(generate_split(&OrdersConfig {
        orders: 300,
        ..Default::default()
    }));
    let query = "for $litem in collection()/order/lineitem \
                 group by $litem/shipmode into $a, $litem/tax into $b nest $litem into $items \
                 return <r>{$a, $b, count($items)}</r>";
    assert_coded_matches_uncoded(&docs, query, true).expect("runs");
}

#[test]
fn missing_and_repeated_key_children_code_as_sequences() {
    let docs = Docs::xml(
        "<r><x><k>a</k><k>b</k></x><x/><x><k>b</k><k>a</k></x><x><j>a</j></x>\
         <x><k>a</k><k>b</k></x><x><k>a</k></x><x>text<k>a</k><!--c--></x></r>",
    );
    assert_eq!(
        assert_coded_matches_uncoded(&docs, BY_K, true).as_deref(),
        Ok("<g><k>a</k><k>b</k>|2</g><g>|2</g><g><k>b</k><k>a</k>|1</g><g><k>a</k>|2</g>")
    );
}

#[test]
fn a_non_leaf_key_after_coded_tuples_keeps_first_appearance_order() {
    // 1 100 coded tuples, then a constructed `x` whose `k` has element
    // content, then the same 1 100 again: more than one morsel on each
    // side of the fallback, so at threads 4 coded and re-keyed partials
    // merge too.
    let mut xml = String::from("<r>");
    for i in 0..1100 {
        xml.push_str(&format!("<x><k>v{}</k><n>{i}</n></x>", (i * 7) % 13));
    }
    xml.push_str("</r>");
    let docs = Docs::xml(&xml);
    let query = "for $x in (//x, <x><k><i>v1</i></k></x>, //x) \
                 group by $x/k into $k nest $x/n into $ns \
                 return <g>{$k}|{count($ns)}|{string($ns[1])}</g>";
    let out = assert_coded_matches_uncoded(&docs, query, true).expect("runs");
    assert_eq!(out.matches("<g>").count(), 14, "{out}");
    assert!(
        out.starts_with("<g><k>v0</k>|170|0</g><g><k>v7</k>|"),
        "{out}"
    );
    // In a document of its own, a non-leaf `k` leaves the name without
    // a dictionary: the first tuple falls back.
    let docs = Docs::xml("<r><x><k>a</k></x><x><k><i/></k></x><x><k>a</k></x></r>");
    assert_eq!(
        assert_coded_matches_uncoded(&docs, BY_K, true).as_deref(),
        Ok("<g><k>a</k>|2</g><g><k><i/></k>|1</g>")
    );
}

#[test]
fn signed_zeros_are_two_groups() {
    let docs = Docs::xml("<r><x><k>-0</k></x><x><k>0</k></x><x><k>0</k></x><x><k>-0</k></x></r>");
    assert_eq!(
        assert_coded_matches_uncoded(&docs, BY_K, true).as_deref(),
        Ok("<g><k>-0</k>|2</g><g><k>0</k>|2</g>")
    );
}

#[test]
fn a_variable_bound_to_two_nodes_falls_back() {
    let docs = Docs::xml("<r><x><k>a</k></x><x><k>b</k></x><x><k>a</k></x></r>");
    let query = "for $x in //x let $v := ($x, $x/following-sibling::x[1]) \
                 group by $v/k into $k nest $x into $xs \
                 return <g>{$k}|{count($xs)}</g>";
    assert_eq!(
        assert_coded_matches_uncoded(&docs, query, true).as_deref(),
        Ok("<g><k>a</k><k>b</k>|1</g><g><k>b</k><k>a</k>|1</g><g><k>a</k>|1</g>")
    );
}

#[test]
fn errors_after_coded_tuples_raise_the_same_code() {
    let docs =
        Docs::xml("<r><x><k>a</k><v>1</v></x><x><k>b</k><v>2</v></x><x><k>a</k><v>z</v></x></r>");
    let query = "for $x in //x group by $x/k into $k nest xs:integer($x/v) into $vs \
                 return <g>{$k}|{sum($vs)}</g>";
    assert_eq!(
        assert_coded_matches_uncoded(&docs, query, true),
        Err(ErrorCode::FORG0001)
    );
    // A key path over an atomic raises in both plans alike.
    let query = "for $x in (//x, 1) group by $x/k into $k nest $x into $xs return count($xs)";
    let out = assert_coded_matches_uncoded(&docs, query, true);
    assert!(out.is_err(), "{out:?}");
}
