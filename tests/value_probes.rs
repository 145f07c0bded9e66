//! Value probes: a `for` directly followed by a `where` whose leading
//! conjuncts are `$v/c = $x` drops the binding-sequence nodes the
//! document store's typed-value index proves those conjuncts reject
//! (DESIGN.md §5.1). The `where` still runs on every survivor.
//!
//! The probed plans (the default `access=index`, also under
//! `join=nested` so that a join shape keeps its `where`, and over a
//! context with no stores) must give byte-identical results, or the
//! same error code, as the `access=walk` plan, each at threads 1 and 4. The cases aim at every
//! way a probe could drop a tuple the `where` would keep, or swallow an
//! error it would raise: each key type, leaves that are absent, not
//! leaves, carry attributes or are not numbers, items that are not
//! nodes of an indexed document, and the declines of the planner rule.

use std::sync::Arc;

use xqa::storage::{CatalogStatistics, DocumentStore};
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

/// The run's serialized result, or its error code.
fn outcome(engine: &Engine, query: &str, ctx: &DynamicContext) -> Result<String, ErrorCode> {
    let plan = engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"));
    plan.run(ctx)
        .map(|items| serialize_sequence(&items))
        .map_err(|e| e.code())
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

/// The `probe ..` parts of the plan labels of `query` under `hints`
/// (no statistics), in plan order.
fn probes(query: &str, hints: &str) -> Vec<String> {
    let explain = engine(hints, 1, None)
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"))
        .explain();
    explain
        .match_indices("probe ")
        .map(|(at, _)| {
            let rest = &explain[at..];
            rest[..rest.find(')').expect("a label ends")].to_string()
        })
        .collect()
}

/// Probed ≡ walked on `query` over `docs`, then `probed` says whether
/// the `join=nested` plan (index access, the default) carries a probe.
/// Returns the outcome.
fn assert_probed_matches_walk(docs: &Docs, query: &str, probed: bool) -> Result<String, ErrorCode> {
    let indexed = docs.ctx(true);
    let bare = docs.ctx(false);
    let stats = Arc::new(CatalogStatistics::from_stores(
        indexed.stores().map(Arc::as_ref),
    ));
    let mut runs = Vec::new();
    for threads in [1, 4] {
        // (hints, context, statistics): the walk first, the reference.
        let cells = [
            ("access=walk", &indexed, Some(&stats)),
            ("", &indexed, Some(&stats)),
            ("join=nested", &indexed, Some(&stats)),
            ("join=nested", &bare, None),
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
    assert_eq!(!probes(query, "join=nested").is_empty(), probed, "{query}");
    assert!(probes(query, "access=walk").is_empty(), "{query}");
    runs.swap_remove(0).1
}

/// Table 1's `Q` template on one or two keys.
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

fn orders(n: usize) -> Arc<Document> {
    generate_orders(&OrdersConfig {
        orders: n,
        ..Default::default()
    })
}

#[test]
fn the_six_q_templates_probe_identically() {
    let docs = Docs::Context(orders(240));
    let keys: [&[&str]; 6] = [
        &["shipinstruct"],
        &["shipmode"],
        &["tax"],
        &["shipinstruct", "shipmode"],
        &["shipinstruct", "tax"],
        &["quantity"],
    ];
    let ctx = docs.ctx(true);
    let tuples = |query: &str, hints: &str| {
        ctx.stats.reset();
        outcome(&engine(hints, 1, None), query, &ctx).expect("runs");
        ctx.stats.snapshot().tuples_produced
    };
    for keys in keys {
        let query = q_query(keys);
        // Unnested, the one-key template has no `where` left to probe.
        assert_eq!(
            probes(&query, "join=nested"),
            [format!("probe {}", keys.join(" "))]
        );
        let out = assert_probed_matches_walk(&docs, &query, true).expect("runs");
        assert!(out.matches("<r>").count() >= 4, "{out}");
        // The probed inner `for` binds only the matching rows.
        let (probed, walked) = (
            tuples(&query, "join=nested"),
            tuples(&query, "join=nested,access=walk"),
        );
        assert!(probed * 2 < walked, "{keys:?}: {probed} vs {walked} tuples");
    }
}

#[test]
fn an_exchange_seed_is_probed_like_a_scan() {
    // 1 500 rows, 1 200 of them `a`: more than one morsel survives the
    // probe, and the inner FLWOR's `order by` is a breaker, so at
    // threads 4 the inner `for` seeds the exchange.
    let mut xml = String::from("<r>");
    for i in 0..1500 {
        let k = if i % 5 == 0 { "b" } else { "a" };
        xml.push_str(&format!("<x><k>{k}</k><n>{i}</n></x>"));
    }
    xml.push_str("</r>");
    let docs = Docs::xml(&xml);
    let query = "for $m in (\"a\", \"b\", \"c\") \
                 return <m>{count(for $x in //x where $x/k = $m \
                                  order by number($x/n) return $x/n)}</m>";
    assert_eq!(
        assert_probed_matches_walk(&docs, query, true).as_deref(),
        Ok("<m>1200</m><m>300</m><m>0</m>")
    );
}

/// Every key type, over leaves that are all numbers (so numeric probes
/// apply) and over leaves that are not (so they do not, and the walk's
/// cast error stands).
#[test]
fn every_key_type_probes_or_declines_like_the_walk() {
    let numeric = Docs::xml(
        "<r><x><k>1</k><n>a</n></x><x><k>1.0</k><n>b</n></x><x><k> 1 </k><n>c</n></x>\
         <x><k>-0</k><n>d</n></x><x><k>0</k><n>e</n></x><x><k>NaN</k><n>f</n></x>\
         <x><k>2</k><n>g</n></x><x><k>1</k><k>2</k><n>h</n></x><x><n>i</n></x></r>",
    );
    let mixed = Docs::xml(
        "<r><x><k>1</k><n>a</n></x><x><k>true</k><n>b</n></x>\
         <x><k>2020-01-01</k><n>c</n></x><x><k>s</k><n>d</n></x></r>",
    );
    let keys = [
        ("\"1\"", Ok("a h"), Ok("a")),
        ("xs:untypedAtomic(\"1\")", Ok("a h"), Ok("a")),
        ("(//x/k)[1]", Ok("a h"), Ok("a")),
        ("1", Ok("a b c h"), Err(ErrorCode::FORG0001)),
        ("1.0", Ok("a b c h"), Err(ErrorCode::FORG0001)),
        ("1e0", Ok("a b c h"), Err(ErrorCode::FORG0001)),
        ("xs:double(\"NaN\")", Ok(""), Err(ErrorCode::FORG0001)),
        ("-0e0", Ok("d e"), Err(ErrorCode::FORG0001)),
        ("0", Ok("d e"), Err(ErrorCode::FORG0001)),
        ("true()", Err(ErrorCode::FORG0001), Err(ErrorCode::FORG0001)),
        (
            "xs:date(\"2020-01-01\")",
            Err(ErrorCode::FORG0001),
            Err(ErrorCode::FORG0001),
        ),
        ("()", Ok(""), Ok("")),
        ("(\"1\", \"2\")", Ok("a g h"), Ok("a")),
        ("(2, 1)", Ok("a b c g h"), Err(ErrorCode::FORG0001)),
    ];
    for (key, on_numeric, on_mixed) in keys {
        let query = format!(
            "let $key := {key} \
             return string-join(for $x in //x where $x/k = $key return string($x/n), \" \")"
        );
        for (docs, want) in [(&numeric, on_numeric), (&mixed, on_mixed)] {
            assert_eq!(
                assert_probed_matches_walk(docs, &query, true),
                want.map(String::from),
                "{key}"
            );
        }
    }
    // A later conjunct on the same row still decides.
    let query =
        "let $key := 1 return count(for $x in //x where $x/k = $key and $x/n = \"b\" return $x)";
    assert_eq!(
        assert_probed_matches_walk(&numeric, query, true).as_deref(),
        Ok("1")
    );
}

#[test]
fn absent_nested_and_attribute_bearing_leaves_answer_like_the_walk() {
    let docs = Docs::xml(
        "<r><x><k a=\"1\">p</k><j><i>p</i></j><n>1</n></x><x><k>p</k><j>p</j><n>2</n></x>\
         <x><k>q</k><j><i>q</i>q</j><n>3</n></x></r>",
    );
    for (cond, want) in [
        // `zz` occurs nowhere.
        ("$x/zz = $key", ""),
        // `j` has element content in two rows: no dictionary.
        ("$x/j = $key", "1 2"),
        // Attributes do not change a leaf's string value.
        ("$x/k = $key", "1 2"),
        ("$x/k = $key and $x/j = $key", "1 2"),
        ("$x/j = $key and $x/k = $key", "1 2"),
    ] {
        let query = format!(
            "let $key := \"p\" \
             return string-join(for $x in //x where {cond} return string($x/n), \" \")"
        );
        assert_eq!(
            assert_probed_matches_walk(&docs, &query, true).as_deref(),
            Ok(want),
            "{cond}"
        );
    }
}

#[test]
fn a_probe_that_does_not_apply_ends_the_list() {
    // `k` is not all numeric, so the numeric probe does not apply: the
    // `j` probe after it must not drop the row whose `k` fails to cast.
    let docs = Docs::xml("<r><x><k>1</k><j>p</j></x><x><k>s</k><j>q</j></x></r>");
    let query = "let $n := 1, $s := \"p\" \
                 return count(for $x in //x where $x/k = $n and $x/j = $s return $x)";
    assert_eq!(
        assert_probed_matches_walk(&docs, query, true),
        Err(ErrorCode::FORG0001)
    );
}

#[test]
fn a_key_of_two_atoms_leaves_its_conjunct_to_the_where() {
    // The `k` probe applies and is exact, the `j` key is two atoms and
    // takes no probe: the `where` still decides `j` on each survivor.
    let docs = Docs::xml(
        "<r><x><k>p</k><j>1</j><n>1</n></x><x><k>p</k><j>2</j><n>2</n></x>\
         <x><k>q</k><j>1</j><n>3</n></x></r>",
    );
    let query = "let $s := \"p\", $t := (\"1\", \"3\") \
                 return string-join(for $x in //x where $x/k = $s and $x/j = $t \
                                    return string($x/n), \" \")";
    assert_eq!(
        assert_probed_matches_walk(&docs, query, true).as_deref(),
        Ok("1")
    );
}

#[test]
fn atomics_and_other_nodes_in_the_binding_sequence() {
    let docs = Docs::xml("<r><x><k>a</k><n>1</n></x><x><k>b</k><n>2</n></x></r>");
    // Text, document and constructed nodes: the first two have no `k`
    // child, the last has no store and matches.
    let query = "let $key := \"a\" \
                 return count(for $x in (//x, //x/k/text(), /, <x><k>a</k></x>, //x/k) \
                              where $x/k = $key return $x)";
    assert_eq!(
        assert_probed_matches_walk(&docs, query, true).as_deref(),
        Ok("2")
    );
    // An atomic raises at the path, probed or not.
    let query = "let $key := \"a\" \
                 return count(for $x in (//x, \"a\") where $x/k = $key return $x)";
    assert_eq!(
        assert_probed_matches_walk(&docs, query, true),
        Err(ErrorCode::XPTY0004)
    );
}

#[test]
fn a_collection_with_one_indexed_document() {
    let doc = |xml: &str| parse_document(xml).expect("well-formed");
    let docs = Docs::Collection(vec![
        (
            doc("<r><x><k>a</k><n>1</n></x><x><k>b</k><n>2</n></x></r>"),
            true,
        ),
        (
            doc("<r><x><k>a</k><n>3</n></x><x><k>b</k><n>4</n></x></r>"),
            false,
        ),
        (
            doc("<r><x><k>b</k><n>5</n></x><x><k>a</k><n>6</n></x></r>"),
            true,
        ),
    ]);
    let query = "for $m in (\"a\", \"b\") \
                 return <m>{string-join(for $x in collection()//x where $x/k = $m \
                                        return string($x/n), \" \")}</m>";
    assert_eq!(
        assert_probed_matches_walk(&docs, query, true).as_deref(),
        Ok("<m>1 3 6</m><m>2 4 5</m>")
    );
}

/// On a 4K-lineitem document, exact probes leave the two-key `Q`'s
/// `where` nothing to compare, and the one-key `Q`'s join reads the value
/// index instead of walking every lineitem's key: exact counts (at the
/// plans before, 7 998 comparisons and 125 972 / 240 945 visits). The
/// visits are the postings the child steps' merges examine: 73 985 /
/// 136 971 while each child step walked every context's children.
#[test]
fn exact_probes_and_the_indexed_join_leave_no_key_to_recheck() {
    let doc = generate_orders(&OrdersConfig::with_total_lineitems(4000).seed(5000));
    let ctx = Docs::Context(doc).ctx(true);
    let counts = |keys: &[&str], hints: &str| {
        ctx.stats.reset();
        outcome(&engine(hints, 1, None), &q_query(keys), &ctx).expect("runs");
        let s = ctx.stats.snapshot();
        (s.comparisons, s.nodes_visited)
    };
    assert_eq!(counts(&["shipmode"], ""), (0, 11_997));
    assert_eq!(counts(&["shipinstruct", "shipmode"], ""), (0, 19_995));
    // Nested and probed, the one-key shape compares nothing either.
    assert_eq!(counts(&["shipmode"], "join=nested"), (0, 11_997));
}

#[test]
fn a_residual_conjunct_runs_after_exact_probes() {
    let docs = Docs::xml(
        "<r><x><k>a</k><n>1</n></x><x><k>a</k><n>2</n></x><x><k>b</k><n>bad</n></x>\
         <x><k>c</k><n>0</n></x></r>",
    );
    for (key, want) in [
        // The row that would raise is one the probe drops.
        ("a", Ok("2")),
        // It survives the probe, and the conjunct after it raises.
        ("b", Err(ErrorCode::FORG0001)),
        // It survives, and the conjunct after it is false.
        ("c", Ok("0")),
    ] {
        let query = format!(
            "let $key := \"{key}\" \
             return count(for $x in //x \
                          where $x/k = $key and $x/n cast as xs:integer gt 0 return $x)"
        );
        assert_eq!(
            assert_probed_matches_walk(&docs, &query, true),
            want.map(String::from),
            "{key}"
        );
    }
}

/// Per document a `for` over `$d//x` is exact where `$d` has a store
/// and not where it has none: one `ForScan` emits both kinds of batch,
/// and the `where` must recheck the unindexed document's rows.
#[test]
fn exact_and_inexact_bindings_mix_inside_one_for() {
    let doc = |xml: &str| parse_document(xml).expect("well-formed");
    let docs = Docs::Collection(vec![
        (
            doc("<r><x><k>a</k><n>1</n></x><x><k>b</k><n>2</n></x></r>"),
            true,
        ),
        (
            doc("<r><x><k>a</k><n>3</n></x><x><k>b</k><n>4</n></x></r>"),
            false,
        ),
        (
            doc("<r><x><k>b</k><n>5</n></x><x><k>a</k><n>6</n></x></r>"),
            true,
        ),
    ]);
    let query = "for $m in (\"a\", \"b\") \
                 return <m>{string-join(for $d in collection(), $x in $d//x where $x/k = $m \
                                        return string($x/n), \" \")}</m>";
    assert_eq!(
        assert_probed_matches_walk(&docs, query, true).as_deref(),
        Ok("<m>1 3 6</m><m>2 4 5</m>")
    );
}

/// The three ways a probe could change an outcome that the rule's
/// declines rule out: renumbered `at` positions, a skipped type check
/// and a skipped error in an earlier conjunct.
#[test]
fn positions_types_and_earlier_conjuncts_are_not_probed() {
    let docs = Docs::Context(orders(120));
    let at = "for $m in (\"AIR\") \
              return sum(for $i at $p in //order/lineitem where $i/shipmode = $m return $p)";
    let out = assert_probed_matches_walk(&docs, at, false).expect("runs");
    assert_ne!(out, "0");
    let typed = "for $o in (\"NOSUCH\") \
                 return count(for $i as element(order) in //order/lineitem \
                              where $i/shipmode = $o return $i)";
    assert_eq!(
        assert_probed_matches_walk(&docs, typed, false),
        Err(ErrorCode::XPTY0004)
    );
    let docs = Docs::xml("<r><x><z>1</z><k>a</k></x><x><z>bad</z><k>b</k></x></r>");
    let later = "let $key := \"a\" \
                 return count(for $i in //x \
                              where $i/z cast as xs:integer gt 0 and $i/k = $key return $i)";
    assert_eq!(
        assert_probed_matches_walk(&docs, later, false),
        Err(ErrorCode::FORG0001)
    );
}

// ---- the rule's declines ----------------------------------------------

const KEYED: &str = "for $m in (\"a\") return count(";

fn probes_in(inner: &str) -> Vec<String> {
    probes(&format!("{KEYED}{inner})"), "access=index")
}

#[test]
fn the_rule_probes_leading_general_comparisons_with_a_variable() {
    assert_eq!(
        probes_in("for $i in //x where $i/k = $m return $i"),
        ["probe k"]
    );
    assert_eq!(
        probes_in("for $i in //x where $m = $i/k return $i"),
        ["probe k"]
    );
    assert_eq!(
        probes_in("for $i in //x where $i/k = $m and $m = $i/j and $i/l > 1 return $i"),
        ["probe k j"]
    );
    // Not under `access=walk`; unhinted, as under `access=index`, with
    // no statistics attached.
    let query = format!("{KEYED}for $i in //x where $i/k = $m return $i)");
    assert!(probes(&query, "access=walk").is_empty());
    assert_eq!(probes(&query, ""), ["probe k"]);
}

#[test]
fn the_rule_declines_a_positional_or_typed_for() {
    assert!(probes_in("for $i at $p in //x where $i/k = $m return $p").is_empty());
    assert!(probes_in("for $i as element(x) in //x where $i/k = $m return $i").is_empty());
}

#[test]
fn the_rule_declines_a_value_comparison() {
    assert!(probes_in("for $i in //x where $i/k eq $m return $i").is_empty());
}

#[test]
fn the_rule_declines_a_key_that_is_not_another_variable() {
    assert!(probes_in("for $i in //x where $i/k = \"a\" return $i").is_empty());
    assert!(probes_in("for $i in //x where $i/k = string($m) return $i").is_empty());
    assert!(probes_in("for $i in //x where $i/k = $i return $i").is_empty());
    assert!(probes_in("for $i in //x where $i/k = $i/j return $i").is_empty());
    // Nor a compared side other than one plain child step of `$i`.
    assert!(probes_in("for $i in //x where $i/k/l = $m return $i").is_empty());
    assert!(probes_in("for $i in //x where $i/k[1] = $m return $i").is_empty());
    assert!(probes_in("for $i in //x where $i/@k = $m return $i").is_empty());
}

#[test]
fn the_rule_stops_at_the_first_conjunct_it_cannot_probe() {
    assert!(probes_in("for $i in //x where $i/z > 0 and $i/k = $m return $i").is_empty());
    assert_eq!(
        probes_in("for $i in //x where $i/k = $m and $i/z > 0 and $i/j = $m return $i"),
        ["probe k"]
    );
    assert!(probes_in("for $i in //x where ($i/k = $m or $i/j = $m) return $i").is_empty());
}

#[test]
fn the_rule_declines_a_clause_between_the_for_and_the_where() {
    assert!(probes_in("for $i in //x let $y := 1 where $i/k = $m return $i").is_empty());
    assert!(probes_in("for $i in //x, $j in //y where $i/k = $m return $i").is_empty());
}

#[test]
fn the_rule_declines_a_hash_joined_where() {
    let query = "for $i in //x where some $y in //y satisfies $y/k = $i/k return $i";
    assert!(probes(query, "access=index,join=hash").is_empty());
    assert!(probes(query, "access=index").is_empty());
}

/// A child name the document lacks answers empty, exactly: an index
/// value scan finds no row without walking, and a `for` probe on it
/// prunes the binding sequence to nothing (the walk keeps every row and
/// the `where` rejects each). The results are the walk's.
#[test]
fn an_absent_child_name_answers_empty() {
    let doc = orders(300);
    let ctx = Docs::Context(Arc::clone(&doc)).ctx(true);
    let counters = |query: &str, hints: &str| {
        ctx.stats.reset();
        let out = outcome(&engine(hints, 1, None), query, &ctx).expect("runs");
        let s = ctx.stats.snapshot();
        (
            out,
            s.scan_index_hits,
            s.scan_walk_tuples,
            s.tuples_produced,
        )
    };
    let scan = "count(//order[zz = \"a\"])";
    assert_eq!(counters(scan, "access=index"), ("0".to_string(), 1, 0, 0));
    assert_eq!(counters(scan, "access=walk").0, "0");
    let probe = "for $m in (\"a\") \
                 return count(for $i in //order/lineitem where $i/zz = $m return $i)";
    assert_eq!(counters(probe, "access=index"), ("0".to_string(), 1, 0, 1));
    let (out, _, _, walked) = counters(probe, "access=walk");
    assert_eq!(out, "0");
    assert!(walked > 1000, "{walked} tuples");
}
