//! The join-unnesting rewrite end to end: detection, explain
//! annotations, hash execution vs. the nested-loop plan, the `join`
//! hint, and the join counters.
//!
//! Regenerate goldens with `UPDATE_GOLDEN=1 cargo test`.

use std::sync::Arc;

use xqa_engine::{DynamicContext, Engine, EngineOptions, PlanHints, RewriteKind};
use xqa_storage::CatalogStatistics;
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
