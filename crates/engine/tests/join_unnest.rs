//! The join-unnesting rewrite end to end: detection, explain
//! annotations, hash execution vs. the nested-loop plan, the `join`
//! hint, and the join counters.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test`.

use std::sync::Arc;

use xqa_engine::{DynamicContext, Engine, EngineOptions, PlanHints, RewriteKind};
use xqa_storage::CatalogStatistics;
use xqa_xdm::ErrorCode;
use xqa_xmlparse::serialize_sequence;

/// Orders with repeating ship modes: the paper's §6 self-join shape.
const DOC: &str = "<r>\
     <order><lineitem><shipmode>AIR</shipmode><qty>1</qty></lineitem>\
            <lineitem><shipmode>RAIL</shipmode><qty>2</qty></lineitem></order>\
     <order><lineitem><shipmode>AIR</shipmode><qty>3</qty></lineitem>\
            <lineitem><shipmode>SHIP</shipmode><qty>4</qty></lineitem></order>\
     <order><lineitem><shipmode>RAIL</shipmode><qty>5</qty></lineitem>\
            <lineitem><shipmode>AIR</shipmode><qty>6</qty></lineitem></order>\
     </r>";

/// The paper's baseline self-join: one inner FLWOR per distinct key.
const SELF_JOIN: &str = "for $a in distinct-values(//order/lineitem/shipmode) \
     let $items := for $i in //order/lineitem where $i/shipmode = $a return $i \
     order by string($a) \
     return <g m=\"{$a}\">{count($items)}</g>";

/// The existential formulation: a semi-join filter.
const SEMI_JOIN: &str = "for $o in //order \
     where some $i in //order/lineitem[qty > 4] satisfies \
         $i/shipmode = $o/lineitem[1]/shipmode \
     return count($o/lineitem)";

fn ctx() -> DynamicContext {
    let doc = xqa_xmlparse::parse_document(DOC).expect("parse");
    let mut c = DynamicContext::new();
    c.set_context_document(&doc);
    c
}

fn indexed_ctx() -> (DynamicContext, Arc<CatalogStatistics>) {
    let mut c = ctx();
    c.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(c.stores().map(Arc::as_ref)));
    (c, stats)
}

fn engine(hints: &str) -> Engine {
    Engine::with_options(EngineOptions {
        hints: hints.parse().expect("valid hints"),
        ..Default::default()
    })
}

fn run(e: &Engine, c: &DynamicContext, query: &str) -> String {
    serialize_sequence(&e.compile(query).expect("compile").run(c).expect("run"))
}

#[test]
fn hash_mode_annotates_the_let_shape() {
    let plan = engine("join=hash").compile(SELF_JOIN).expect("compile");
    let text = plan.explain();
    assert!(text.contains("[hash join key="), "{text}");
    assert!(text.contains("HashJoin(key="), "{text}");
    assert!(
        plan.applied_rewrites()
            .iter()
            .any(|n| n.kind == RewriteKind::JoinUnnest),
        "no join-unnest rewrite note: {:?}",
        plan.applied_rewrites()
    );
}

#[test]
fn hash_mode_annotates_the_existential_shape() {
    let plan = engine("join=hash").compile(SEMI_JOIN).expect("compile");
    let text = plan.explain();
    assert!(text.contains("[hash join key="), "{text}");
    assert!(text.contains("HashJoin(key="), "{text}");
}

#[test]
fn nested_mode_never_annotates() {
    for query in [SELF_JOIN, SEMI_JOIN] {
        let plan = engine("join=nested").compile(query).expect("compile");
        assert!(!plan.explain().contains("hash join"), "{}", plan.explain());
    }
}

/// Whether the planner unnests `SELF_JOIN` when no hint pins the join.
fn unhinted_planner_unnests(stats: Option<&CatalogStatistics>) -> bool {
    let module = xqa_frontend::parse_query(SELF_JOIN).expect("parse");
    let mut compiled = xqa_engine::compile::compile(&module).expect("compile");
    xqa_engine::rewrite::plan(&mut compiled, PlanHints::default(), stats)
        .iter()
        .any(|note| note.kind == RewriteKind::JoinUnnest)
}

#[test]
fn without_a_hint_the_join_unnests_with_or_without_statistics() {
    assert!(unhinted_planner_unnests(None), "no catalog");
    let (_, stats) = indexed_ctx();
    assert!(unhinted_planner_unnests(Some(&stats)), "catalog attached");
}

#[test]
fn hash_and_nested_agree_on_the_self_join() {
    let c = ctx();
    assert_eq!(
        run(&engine("join=hash"), &c, SELF_JOIN),
        run(&engine("join=nested"), &c, SELF_JOIN),
    );
}

#[test]
fn hash_and_nested_agree_on_the_semi_join() {
    let c = ctx();
    assert_eq!(
        run(&engine("join=hash"), &c, SEMI_JOIN),
        run(&engine("join=nested"), &c, SEMI_JOIN),
    );
}

#[test]
fn forced_hash_fires_the_join_counters() {
    let c = ctx();
    let before = c.stats.snapshot();
    run(&engine("join=hash"), &c, SELF_JOIN);
    let after = c.stats.snapshot();
    assert!(
        after.join_hash_probes > before.join_hash_probes,
        "no hash probes recorded"
    );
    assert!(
        after.join_build_tuples > before.join_build_tuples,
        "no build tuples recorded"
    );
}

#[test]
fn nested_mode_leaves_the_join_counters_at_zero() {
    let c = ctx();
    let before = c.stats.snapshot();
    run(&engine("join=nested"), &c, SELF_JOIN);
    let after = c.stats.snapshot();
    assert_eq!(after.join_hash_probes, before.join_hash_probes);
    assert_eq!(after.join_build_tuples, before.join_build_tuples);
}

/// A probe whose atoms sit outside the build side's comparison class
/// must raise exactly what the nested plan raises (the fallback scan),
/// not silently miss.
#[test]
fn mixed_type_keys_keep_nested_error_behavior() {
    let query = "for $a in (1, 2) \
         let $m := for $y in ('x', 'y') where $y = $a return $y \
         return count($m)";
    let c = DynamicContext::new();
    let hash = engine("join=hash").compile(query).expect("compile").run(&c);
    let nested = engine("join=nested")
        .compile(query)
        .expect("compile")
        .run(&c);
    match (hash, nested) {
        (Err(h), Err(n)) => assert_eq!(h.to_string(), n.to_string()),
        (h, n) => panic!("expected both plans to raise, got {h:?} vs {n:?}"),
    }
}

/// Untyped document text joins against untyped text: the common case,
/// and the one the string comparison class keeps on the hash path.
#[test]
fn untyped_keys_match_across_collections() {
    let query = "for $o in //order \
         let $m := for $i in //order/lineitem where $i/shipmode = $o/lineitem[1]/shipmode \
                   return $i \
         return count($m)";
    let c = ctx();
    assert_eq!(
        run(&engine("join=hash"), &c, query),
        run(&engine("join=nested"), &c, query),
    );
}

/// An empty build side must not evaluate the probe expression — the
/// nested loop never does.
#[test]
fn empty_build_side_binds_empty() {
    let query = "for $a in (1, 2, 3) \
         let $m := for $y in //nosuch where $y = $a return $y \
         return count($m)";
    let c = ctx();
    assert_eq!(run(&engine("join=hash"), &c, query), "0 0 0");
    assert_eq!(run(&engine("join=nested"), &c, query), "0 0 0");
}

// ---- the join reads the value index --------------------------------------
//
// Where the build key is `$y/c` under `=`, the unhinted plan answers a
// probe from the document store's value index when it can; `access=walk`
// keeps the bucket table and `join=nested` the probed nested loop. All
// three must give the same bytes, or the same error code. Each way the store could answer wrongly is a case: every key
// type, leaves that are absent, not leaves, carry attributes or are not
// numbers, and build sources the store must decline.

fn indexed(xml: &str) -> DynamicContext {
    let doc = xqa_xmlparse::parse_document(xml).expect("well-formed");
    let mut c = DynamicContext::new();
    c.set_context_document(&doc);
    c.index_documents();
    c
}

/// `query`'s result under the store-answered join, the bucket table and
/// the nested plan, which must agree; whether the unhinted plan's join
/// reads the value index must be `reads_index`. Returns the outcome.
fn assert_joined_matches_nested(
    c: &DynamicContext,
    query: &str,
    reads_index: bool,
) -> Result<String, ErrorCode> {
    let mut runs = Vec::new();
    for hints in ["join=nested", "", "access=walk"] {
        let plan = engine(hints).compile(query).expect("compile");
        let out = plan.run(c).map(|s| serialize_sequence(&s));
        runs.push((format!("{hints:?}"), out.map_err(|e| e.code())));
    }
    let (first_label, first) = &runs[0];
    for (label, out) in &runs[1..] {
        assert_eq!(first, out, "{first_label} vs {label}:\n{query}");
    }
    let explain = |hints: &str| engine(hints).compile(query).expect("compile").explain();
    assert!(explain("").contains("HashJoin("), "{}", explain(""));
    assert_eq!(
        explain("").contains(", value index "),
        reads_index,
        "{query}"
    );
    assert!(!explain("access=walk").contains("value index"), "{query}");
    runs.swap_remove(0).1
}

/// The matches' `n` children, joined on `$y/k = KEY`.
fn keyed_join(key: &str) -> String {
    format!(
        "for $t in 1 let $key := {key} \
         let $m := for $y in //x where $y/k = $key return $y \
         return string-join(for $z in $m return string($z/n), \" \")"
    )
}

#[test]
fn every_key_type_joins_like_the_nested_loop() {
    let numeric = indexed(
        "<r><x><k>1</k><n>a</n></x><x><k>1.0</k><n>b</n></x><x><k> 1 </k><n>c</n></x>\
         <x><k>-0</k><n>d</n></x><x><k>0</k><n>e</n></x><x><k>NaN</k><n>f</n></x>\
         <x><k>2</k><n>g</n></x><x><k>1</k><k>2</k><n>h</n></x><x><n>i</n></x></r>",
    );
    let mixed = indexed(
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
        for (c, want) in [(&numeric, on_numeric), (&mixed, on_mixed)] {
            assert_eq!(
                assert_joined_matches_nested(c, &keyed_join(key), true),
                want.map(String::from),
                "{key}"
            );
        }
    }
}

#[test]
fn absent_nested_and_attribute_bearing_leaves_join_like_the_nested_loop() {
    let c = indexed(
        "<r><x><k a=\"1\">p</k><j><i>p</i></j><n>1</n></x><x><k>p</k><j>p</j><n>2</n></x>\
         <x><k>q</k><j><i>q</i>q</j><n>3</n></x></r>",
    );
    for (child, want) in [("zz", ""), ("j", "1 2"), ("k", "1 2")] {
        let query = format!(
            "for $t in 1 let $key := \"p\" \
             let $m := for $y in //x where $y/{child} = $key return $y \
             return string-join(for $z in $m return string($z/n), \" \")"
        );
        assert_eq!(
            assert_joined_matches_nested(&c, &query, true).as_deref(),
            Ok(want),
            "{child}"
        );
    }
}

#[test]
fn the_existential_shape_reads_the_index() {
    let c = indexed(DOC);
    assert_eq!(
        assert_joined_matches_nested(&c, SEMI_JOIN, true).as_deref(),
        Ok("2 2 2")
    );
    // The store answers without walking a build key: fewer nodes than the
    // bucket table visits.
    let visits = |hints: &str| {
        let before = c.stats.snapshot().nodes_visited;
        run(&engine(hints), &c, SELF_JOIN);
        c.stats.snapshot().nodes_visited - before
    };
    assert!(visits("") < visits("access=walk"));
}

#[test]
fn an_empty_build_never_evaluates_a_raising_probe_key() {
    let c = indexed(DOC);
    let query = "for $a in (1, 2) \
                 let $m := for $y in //nosuch where $y/k = $a idiv 0 return $y \
                 return count($m)";
    assert_eq!(
        assert_joined_matches_nested(&c, query, true).as_deref(),
        Ok("0 0")
    );
}

#[test]
fn an_atomic_build_declines_the_store() {
    let c = indexed(DOC);
    let query = "for $a in (\"AIR\") \
                 let $m := for $y in (//order/lineitem, 1) where $y/shipmode = $a return $y \
                 return count($m)";
    assert_eq!(
        assert_joined_matches_nested(&c, query, true),
        Err(ErrorCode::XPTY0004)
    );
}

#[test]
fn a_constructed_build_declines_the_store() {
    let c = indexed(DOC);
    let query =
        "let $c := <r><x><k>a</k><n>1</n></x><x><k>b</k><n>2</n></x><x><k>a</k><n>3</n></x></r> \
                 return (for $a in (\"a\", \"b\") \
                         let $m := for $y in $c/x where $y/k = $a return $y \
                         return <m>{string-join(for $z in $m return string($z/n), \" \")}</m>)";
    assert_eq!(
        assert_joined_matches_nested(&c, query, true).as_deref(),
        Ok("<m>1 3</m><m>2</m>")
    );
}

#[test]
fn an_unordered_build_declines_the_store() {
    // The store's answer is in document order; the nested loop's is the
    // build's own.
    let c = indexed("<r><a><k>p</k></a><b><k>p</k></b><a><k>q</k></a></r>");
    let query = "for $key in (\"p\", \"q\") \
                 let $m := for $y in (//b, //a) where $y/k = $key return $y \
                 return <m>{for $z in $m return name($z)}</m>";
    assert_eq!(
        assert_joined_matches_nested(&c, query, true).as_deref(),
        Ok("<m>b a</m><m>a</m>")
    );
}

#[test]
fn a_build_from_two_documents_declines_the_store() {
    let doc = |xml: &str| xqa_xmlparse::parse_document(xml).expect("well-formed");
    let docs = [
        doc("<r><x><k>a</k><n>1</n></x><x><k>b</k><n>2</n></x></r>"),
        doc("<r><x><k>b</k><n>3</n></x><x><k>a</k><n>4</n></x></r>"),
    ];
    let mut c = DynamicContext::new();
    c.set_default_collection(docs.iter().map(|d| d.root()).collect());
    for d in &docs {
        c.register_store(Arc::new(xqa_storage::DocumentStore::build(d)));
    }
    let query = "for $key in (\"a\", \"b\") \
                 let $m := for $y in collection()//x where $y/k = $key return $y \
                 return <m>{string-join(for $z in $m return string($z/n), \" \")}</m>";
    assert_eq!(
        assert_joined_matches_nested(&c, query, true).as_deref(),
        Ok("<m>1 4</m><m>2 3</m>")
    );
}

#[test]
fn a_value_comparison_declines_the_index() {
    let c = indexed("<r><x><k>a</k></x><x><k>b</k></x><x><k>a</k><k>b</k></x></r>");
    let query = "for $key in (\"a\", \"b\") \
                 let $m := for $y in //x where $y/k eq $key return $y \
                 return count($m)";
    assert_eq!(
        assert_joined_matches_nested(&c, query, false),
        Err(ErrorCode::XPTY0004)
    );
}

#[test]
fn an_ordered_build_off_the_index_raises_its_build_key_first() {
    // `//x` is ordered, but the build key is no `$y/c`: the store cannot
    // answer, so the table (whose first key raises FORG0001) is asked for
    // before the probe key (`($a, $a)` under `eq` raises XPTY0004), as the
    // nested `where` evaluates its left operand first.
    let c = indexed("<r><x><k>a</k></x><x><k>1</k></x></r>");
    let query = "for $a in (1, 2) \
                 let $m := for $y in //x where xs:integer($y/k) eq ($a, $a) return $y \
                 return count($m)";
    assert_eq!(
        assert_joined_matches_nested(&c, query, false),
        Err(ErrorCode::FORG0001)
    );
}

// The join annotation records only which operand of the clause's
// equality is the build key; the operator, `explain`, the estimator and
// the rewrite note read the rest back from the clause. These cases hold
// each part of that read-back against the nested loop.

/// `count` of the lineitems whose ship mode matches `$m`, joined on `pred`.
fn mode_join(pred: &str) -> String {
    format!(
        "for $m in (\"AIR\", \"SHIP\", \"TRUCK\") \
         let $items := for $i in //order/lineitem where {pred} return $i \
         return count($items)"
    )
}

/// The `HashJoin(...)` label of `query`'s unhinted plan.
fn join_label(query: &str) -> String {
    let text = engine("").compile(query).expect("compile").explain();
    let at = text.find("HashJoin(").expect("a hash join");
    text[at..].lines().next().unwrap_or_default().to_string()
}

#[test]
fn either_operand_order_reads_back_the_same_key() {
    let c = indexed(DOC);
    let (built_left, built_right) = (mode_join("$i/shipmode = $m"), mode_join("$m = $i/shipmode"));
    for query in [&built_left, &built_right] {
        assert_eq!(
            assert_joined_matches_nested(&c, query, true).as_deref(),
            Ok("3 1 0")
        );
    }
    assert_eq!(join_label(&built_left), join_label(&built_right));
    assert_eq!(
        join_label(&built_left),
        "HashJoin(key=$slot0 = $slot1/shipmode, value index shipmode) -> ReturnAt"
    );
    let (eq_left, eq_right) = (
        mode_join("$i/shipmode eq $m"),
        mode_join("$m eq $i/shipmode"),
    );
    for query in [&eq_left, &eq_right] {
        assert_eq!(
            assert_joined_matches_nested(&c, query, false).as_deref(),
            Ok("3 1 0")
        );
    }
    assert_eq!(
        join_label(&eq_left),
        "HashJoin(key=$slot0 eq $slot1/shipmode) -> ReturnAt"
    );
}

#[test]
fn the_let_type_is_read_from_the_clause() {
    let c = indexed(DOC);
    let typed = |ty: &str| {
        format!(
            "for $m in (\"AIR\", \"SHIP\") \
             let $items as {ty} := for $i in //order/lineitem where $i/shipmode = $m return $i \
             return count($items)"
        )
    };
    assert_eq!(
        assert_joined_matches_nested(&c, &typed("element(lineitem)+"), true).as_deref(),
        Ok("3 1")
    );
    assert_eq!(
        assert_joined_matches_nested(&c, &typed("element(lineitem)?"), true),
        Err(ErrorCode::XPTY0004)
    );
}

/// A predicate of more than one conjunct declines: the two-key `Q`
/// shapes stay on the nested path, whose `LetBind` and execute time the
/// ledger samples (ROADMAP, "Ledger coupling"). Every mode answers alike.
#[test]
fn a_conjunction_declines_the_join() {
    let c = indexed(DOC);
    for query in [
        mode_join("$i/shipmode = $m and $i/qty > 2"),
        "for $o in //order \
         where some $i in //order/lineitem satisfies \
             $i/shipmode = $o/lineitem[1]/shipmode and $i/qty > 4 \
         return count($o/lineitem)"
            .to_string(),
    ] {
        let mut outs = Vec::new();
        for hints in ["join=hash", "", "join=nested", "access=walk"] {
            let plan = engine(hints).compile(&query).expect("compile");
            assert!(!plan.explain().contains("hash join"), "{hints}: {query}");
            outs.push(
                plan.run(&c)
                    .map(|s| serialize_sequence(&s))
                    .map_err(|e| e.code()),
            );
        }
        assert!(outs.iter().all(|o| *o == outs[0]), "{query}: {outs:?}");
    }
}
