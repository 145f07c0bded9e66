//! The evaluator counters as callers see them through the `xqa`
//! facade: the exact JSON renderings (key order included) that the
//! flight recorder, `--stats-json` and the ledger read.

use xqa::{DynamicContext, Engine, EvalStatsSnapshot, QueryProfile};

/// The key order of `EvalStatsSnapshot::to_json`, pinned before the
/// counters were declared in one place.
const STATS_JSON: &str = "{\"nodes_visited\":1,\"tuples_grouped\":2,\"groups_emitted\":3,\
    \"comparisons\":4,\"tuples_produced\":5,\"tuples_pruned_filter\":6,\
    \"tuples_pruned_topk\":7,\"seq_items_copied\":8,\"seq_clones_shared\":9,\
    \"scan_index_hits\":10,\"scan_index_tuples\":11,\"scan_walk_tuples\":12,\
    \"expr_compiled\":13,\"expr_fallback\":14,\"join_hash_probes\":15,\
    \"join_build_tuples\":16}";

/// The profile JSON of a run that recorded nothing.
const EMPTY_PROFILE_JSON: &str = "{\"pipelines\":[],\"seq_items_copied\":0,\
    \"seq_clones_shared\":0,\"scan_index_hits\":0,\"scan_index_tuples\":0,\
    \"scan_walk_tuples\":0,\"expr_compiled\":0,\"expr_fallback\":0,\
    \"worst_misestimate\":null,\"spans\":[]}";

#[test]
fn stats_json_is_byte_identical_to_the_golden() {
    let snapshot = EvalStatsSnapshot {
        nodes_visited: 1,
        tuples_grouped: 2,
        groups_emitted: 3,
        comparisons: 4,
        tuples_produced: 5,
        tuples_pruned_filter: 6,
        tuples_pruned_topk: 7,
        seq_items_copied: 8,
        seq_clones_shared: 9,
        scan_index_hits: 10,
        scan_index_tuples: 11,
        scan_walk_tuples: 12,
        expr_compiled: 13,
        expr_fallback: 14,
        join_hash_probes: 15,
        join_build_tuples: 16,
    };
    assert_eq!(snapshot.to_json(), STATS_JSON);
}

#[test]
fn profile_json_keys_are_byte_identical_to_the_golden() {
    assert_eq!(QueryProfile::default().to_json(), EMPTY_PROFILE_JSON);

    // A real profiled run renders the same keys in the same order, and
    // on a fresh context its counters are the run's whole snapshot.
    let doc = xqa::parse_document("<r><v>1</v><v>2</v><v>2</v></r>").expect("well-formed");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    ctx.enable_profiling();
    let plan = Engine::new()
        .compile("for $v in //v group by string($v) into $k nest $v into $vs return count($vs)")
        .expect("compiles");
    plan.run(&ctx).expect("runs");
    let stats = ctx.stats.snapshot();
    let json = ctx.take_profile().expect("profiling enabled").to_json();
    assert!(stats.seq_clones_shared > 0 && stats.scan_index_tuples + stats.scan_walk_tuples > 0);
    let counters = format!(
        "}}],\"seq_items_copied\":{},\"seq_clones_shared\":{},\"scan_index_hits\":{},\
         \"scan_index_tuples\":{},\"scan_walk_tuples\":{},\"expr_compiled\":{},\
         \"expr_fallback\":{},\"worst_misestimate\":",
        stats.seq_items_copied,
        stats.seq_clones_shared,
        stats.scan_index_hits,
        stats.scan_index_tuples,
        stats.scan_walk_tuples,
        stats.expr_compiled,
        stats.expr_fallback,
    );
    assert!(json.starts_with("{\"pipelines\":[{"), "{json}");
    assert!(json.contains(&counters), "{counters}\n{json}");
    assert!(
        json.contains(",\"spans\":[{") && json.ends_with("]}"),
        "{json}"
    );
}
