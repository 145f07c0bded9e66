//! Paths on ids: a path whose leading `//T` step is index-resolved and
//! whose later steps are all plain `child::Name` runs on node ids, one
//! merge of postings per child step, and `distinct-values` of such a
//! path dedups on the store's value column (DESIGN.md §5.1, §12).
//!
//! The default plan must give byte-identical results, or the same error
//! code, as the `access=walk` plan and as a context with no stores. The
//! cases aim at every way the id path could
//! differ from the walk: `T` nested in `T`, grandchildren of a context,
//! attributes on leaves, names with a non-leaf element, absent names and
//! empty context sets, documents without a store, texts that are equal
//! as numbers but not as strings, and the order of first appearance.

use std::sync::Arc;

use xqa::storage::DocumentStore;
use xqa::xdm::{Document, ErrorCode, NodeHandle};
use xqa::{parse_document, serialize_sequence, DynamicContext, Engine, EngineOptions};
use xqa_workload::{generate_orders, OrdersConfig};

/// The documents of a case, and which of them get a store.
enum Docs {
    /// One context document.
    Context(Arc<Document>),
    /// The default collection; the flag says whether a document is
    /// indexed.
    Collection(Vec<(Arc<Document>, bool)>),
}

impl Docs {
    fn xml(text: &str) -> Docs {
        Docs::Context(parse_document(text).expect("well-formed"))
    }

    /// A context over these documents, with their stores or none.
    fn ctx(&self, indexed: bool) -> DynamicContext {
        let mut ctx = DynamicContext::new();
        match self {
            Docs::Context(doc) => {
                ctx.set_context_document(doc);
                if indexed {
                    ctx.index_documents();
                }
            }
            Docs::Collection(docs) => {
                ctx.set_default_collection(
                    docs.iter()
                        .map(|(d, _)| d.root())
                        .collect::<Vec<NodeHandle>>(),
                );
                for (doc, _) in docs.iter().filter(|(_, store)| indexed && *store) {
                    ctx.register_store(Arc::new(DocumentStore::build(doc)));
                }
            }
        }
        ctx
    }
}

fn engine(hints: &str) -> Engine {
    Engine::with_options(EngineOptions {
        hints: hints.parse().expect("valid hints"),
        ..Default::default()
    })
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

/// The default plan ≡ the walk ≡ no stores on `query` over `docs`.
/// Returns the outcome.
fn assert_ids_match_walk(docs: &Docs, query: &str) -> Result<String, ErrorCode> {
    let (indexed, bare) = (docs.ctx(true), docs.ctx(false));
    let reference = outcome(&engine("access=walk"), query, &indexed);
    for (hints, ctx) in [("", &indexed), ("access=walk", &indexed), ("", &bare)] {
        assert_eq!(
            outcome(&engine(hints), query, ctx),
            reference,
            "{query}\nhints {hints:?}"
        );
    }
    reference
}

/// The paper's Table-1 template without `group by` (`Q`).
fn q_query(keys: &[&str]) -> String {
    match keys {
        [a] => format!(
            "for $a in distinct-values(//order/lineitem/{a}) \
             let $items := for $i in //order/lineitem where $i/{a} = $a return $i \
             return <r>{{$a, count($items)}}</r>"
        ),
        [a, b] => format!(
            "for $a in distinct-values(//order/lineitem/{a}), \
                 $b in distinct-values(//order/lineitem/{b}) \
             let $items := for $i in //order/lineitem \
                           where $i/{a} = $a and $i/{b} = $b return $i \
             where exists($items) \
             return <r>{{$a, $b, count($items)}}</r>"
        ),
        _ => panic!("templates cover one or two keys"),
    }
}

/// The paper's Table-1 template with `group by` (`Qgb`).
fn qgb_query(keys: &[&str]) -> String {
    let (groups, values) = match keys {
        [a] => (format!("$litem/{a} into $a"), "$a"),
        [a, b] => (format!("$litem/{a} into $a, $litem/{b} into $b"), "$a, $b"),
        _ => panic!("templates cover one or two keys"),
    };
    format!(
        "for $litem in //order/lineitem group by {groups} nest $litem into $items \
         return <r> {{{values}, count($items)}} </r>"
    )
}

/// `(nodes_visited, scan_index_hits, scan_index_tuples)` of one default
/// run.
fn counts(ctx: &DynamicContext, query: &str) -> (u64, u64, u64) {
    ctx.stats.reset();
    outcome(&engine(""), query, ctx).expect("runs");
    let s = ctx.stats.snapshot();
    (s.nodes_visited, s.scan_index_hits, s.scan_index_tuples)
}

#[test]
fn only_children_are_kept() {
    // The second `b` is a grandchild of `a`, inside `a`'s interval.
    let docs = Docs::xml("<r><a><b>1</b><c><b>2</b></c><b>3</b></a><a><c/></a></r>");
    for (query, want) in [
        ("//a/b", "<b>1</b><b>3</b>"),
        ("//r/a/c/b", "<b>2</b>"),
        ("distinct-values(//a/b)", "1 3"),
        ("count(//r/a/c)", "2"),
    ] {
        assert_eq!(assert_ids_match_walk(&docs, query).as_deref(), Ok(want));
    }
    // One index hit over the two `a` postings; the merge examines the
    // three `b` postings inside them.
    assert_eq!(counts(&docs.ctx(true), "//a/b"), (3, 1, 2));
}

#[test]
fn a_leading_name_nested_in_itself_falls_back_to_the_walk() {
    let docs = Docs::xml("<r><a><b>1</b><a><b>2</b></a><b>3</b></a><a><b>4</b></a></r>");
    for (query, want) in [
        ("//a/b", "<b>1</b><b>2</b><b>3</b><b>4</b>"),
        ("distinct-values(//a/b)", "1 2 3 4"),
        (
            "//a",
            "<a><b>1</b><a><b>2</b></a><b>3</b></a><a><b>2</b></a><a><b>4</b></a>",
        ),
    ] {
        assert_eq!(assert_ids_match_walk(&docs, query).as_deref(), Ok(want));
    }
    // The walk runs the `b` step over every `a`'s children: the hit is
    // still counted once, and the visits are the walk's.
    assert_eq!(counts(&docs.ctx(true), "//a/b"), (5, 1, 3));
}

#[test]
fn attribute_bearing_leaves_dedup_on_their_text() {
    let docs = Docs::xml(
        "<r><x><k a=\"1\">p</k></x><x><k>p</k></x><x><k b=\"2\">q</k></x>\
         <x><k a=\"1\">q</k><k>r</k></x></r>",
    );
    assert_eq!(
        assert_ids_match_walk(&docs, "distinct-values(//x/k)").as_deref(),
        Ok("p q r")
    );
    assert_eq!(
        assert_ids_match_walk(&docs, "//x/k").as_deref(),
        Ok("<k a=\"1\">p</k><k>p</k><k b=\"2\">q</k><k a=\"1\">q</k><k>r</k>")
    );
}

#[test]
fn a_name_with_a_non_leaf_element_keeps_distinct_values_on_text() {
    for xml in [
        // One `k` has element content.
        "<r><x><k>ab</k></x><x><k>a<i>b</i></k></x><x><k>c</k></x></r>",
        // One `k` has a comment between its texts.
        "<r><x><k>ab</k></x><x><k>a<!--c-->b</k></x><x><k>c</k></x></r>",
    ] {
        let docs = Docs::xml(xml);
        assert_eq!(
            assert_ids_match_walk(&docs, "distinct-values(//x/k)").as_deref(),
            Ok("ab c"),
            "{xml}"
        );
        assert_ids_match_walk(&docs, "//x/k").expect("runs");
    }
}

#[test]
fn absent_names_and_empty_context_sets_select_nothing() {
    let docs = Docs::xml("<r><x><k>1</k></x><x/><y><k>2</k></y></r>");
    for query in [
        "//x/nosuch",
        "//nosuch/k",
        "//x/nosuch/k",
        "distinct-values(//x/nosuch)",
        "distinct-values(//nosuch/k)",
        "count(//x/k/k)",
        "distinct-values(//k/x)",
        "()//x/k",
        "count(//x[k = 5]/k)",
    ] {
        assert_ids_match_walk(&docs, query).expect("runs");
    }
    assert_eq!(
        assert_ids_match_walk(&docs, "for $x in //x return count($x//k/k)").as_deref(),
        Ok("0 0")
    );
}

#[test]
fn documents_without_a_store_and_mixed_collections_agree() {
    let doc = |xml: &str| parse_document(xml).expect("well-formed");
    let docs = Docs::Collection(vec![
        (doc("<r><x><k>b</k></x><x><k>a</k></x></r>"), true),
        (doc("<r><x><k>c</k></x><x><k>a</k></x></r>"), false),
        (doc("<r><x><k>a</k><k>d</k></x></r>"), true),
    ]);
    for (query, want) in [
        ("distinct-values(collection()//x/k)", "b a c d"),
        (
            "for $d in collection() return <d>{distinct-values($d//x/k)}</d>",
            "<d>b a</d><d>c a</d><d>a d</d>",
        ),
        ("for $d in collection() return count($d//r/x/k)", "2 2 2"),
    ] {
        assert_eq!(assert_ids_match_walk(&docs, query).as_deref(), Ok(want));
    }
    // A document without a store, alone.
    let bare = Docs::xml("<r><x><k>1</k></x></r>");
    let ctx = bare.ctx(false);
    assert_eq!(counts(&ctx, "//x/k"), (5, 0, 0));
}

#[test]
fn untyped_texts_are_distinct_as_strings() {
    let docs = Docs::xml(
        "<r><x><k>1</k></x><x><k>1.0</k></x><x><k>01</k></x><x><k> 1</k></x>\
         <x><k>NaN</k></x><x><k>-0</k></x><x><k/></x><x><k>0</k></x><x><k>NaN</k></x>\
         <x><k>1</k></x><x><k></k></x></r>",
    );
    assert_eq!(
        assert_ids_match_walk(&docs, "count(distinct-values(//x/k))").as_deref(),
        Ok("8")
    );
    assert_eq!(
        assert_ids_match_walk(
            &docs,
            "for $v in distinct-values(//x/k) return <v>[{$v}]</v>"
        )
        .as_deref(),
        Ok("<v>[1]</v><v>[1.0]</v><v>[01]</v><v>[ 1]</v><v>[NaN]</v><v>[-0]</v><v>[]</v><v>[0]</v>")
    );
    // The values stay untyped: they cast as their texts do.
    assert_eq!(
        assert_ids_match_walk(
            &docs,
            "count(distinct-values(//x/k)[. castable as xs:double][xs:double(.) = 1])"
        )
        .as_deref(),
        Ok("4")
    );
}

#[test]
fn distinct_values_keep_first_appearance_order() {
    let docs = Docs::xml(
        "<r><o><l><m>SHIP</m></l><l><m>AIR</m></l></o><o><l><m>SHIP</m></l></o>\
         <o><l><m>RAIL</m></l><l><m>AIR</m></l><l><m>MAIL</m></l></o></r>",
    );
    assert_eq!(
        assert_ids_match_walk(&docs, "distinct-values(//o/l/m)").as_deref(),
        Ok("SHIP AIR RAIL MAIL")
    );
    assert_eq!(
        assert_ids_match_walk(&docs, "distinct-values(//m)").as_deref(),
        Ok("SHIP AIR RAIL MAIL")
    );
    // `distinct-values(//o/l/m)`: one hit over three `o`, six `l` and
    // six `m` postings examined.
    assert_eq!(
        counts(&docs.ctx(true), "distinct-values(//o/l/m)"),
        (12, 1, 3)
    );
}

#[test]
fn the_paper_templates_match_the_walk() {
    let docs = Docs::Context(generate_orders(
        &OrdersConfig::with_total_lineitems(1500).seed(7),
    ));
    let keys: [&[&str]; 6] = [
        &["shipinstruct"],
        &["shipmode"],
        &["tax"],
        &["shipinstruct", "shipmode"],
        &["shipinstruct", "tax"],
        &["quantity"],
    ];
    for keys in keys {
        for query in [q_query(keys), qgb_query(keys)] {
            let out = assert_ids_match_walk(&docs, &query).expect("runs");
            assert!(out.matches("<r>").count() >= 4, "{query}");
        }
    }
}

/// The work the id path saves, as exact counts on a 4K-lineitem
/// document. Walking each context's children, the same runs visited
/// 73 985 (one-key `Q`), 136 971 (two-key `Q`) and 62 986 (`Qgb`)
/// nodes; the index hits are unchanged.
#[test]
fn the_paper_templates_merge_their_child_steps() {
    let doc = generate_orders(&OrdersConfig::with_total_lineitems(4000).seed(5000));
    let ctx = Docs::Context(doc).ctx(true);
    assert_eq!(counts(&ctx, &q_query(&["shipmode"])), (11_997, 2, 2_000));
    assert_eq!(
        counts(&ctx, &q_query(&["shipinstruct", "shipmode"])),
        (19_995, 3, 3_000)
    );
    // `Qgb` still walks each lineitem's children for its key.
    assert_eq!(counts(&ctx, &qgb_query(&["shipmode"])), (55_986, 1, 1_000));
    assert_eq!(
        counts(&ctx, "distinct-values(//order/lineitem/shipmode)"),
        (7_998, 1, 1_000)
    );
}
