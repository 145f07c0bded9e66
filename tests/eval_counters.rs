//! The evaluator counters as callers see them through the `xqa`
//! facade: the exact JSON renderings (key order included) that the
//! flight record (served and `--diag-json`) and the ledger read, and the
//! generated operations (`add_snapshot`, `snapshot`, `delta`,
//! `fields`, the `--stats` line) checked field by field through
//! `fields()`, so a newly declared counter is covered without an edit.

use std::collections::BTreeSet;

use xqa::{DynamicContext, Engine, EngineOptions, EvalStats, EvalStatsSnapshot, QueryProfile};
use xqa_workload::DetRng;

/// The key order of `EvalStatsSnapshot::to_json`, pinned before the
/// counters were declared in one place.
const STATS_JSON: &str = "{\"nodes_visited\":1,\"tuples_grouped\":2,\"groups_emitted\":3,\
    \"comparisons\":4,\"tuples_produced\":5,\"tuples_pruned_filter\":6,\
    \"tuples_pruned_topk\":7,\"seq_items_copied\":8,\"seq_clones_shared\":9,\
    \"scan_index_hits\":10,\"scan_index_tuples\":11,\"scan_walk_tuples\":12,\
    \"expr_compiled\":13,\"expr_fallback\":14,\"join_hash_probes\":15,\
    \"join_build_tuples\":16}";

/// The profile JSON of a run that recorded nothing. The counters are
/// not repeated here: the record carries them all under `stats`.
const EMPTY_PROFILE_JSON: &str = "{\"pipelines\":[],\"worst_misestimate\":null}";

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
    // no evaluator counter among them.
    let doc = xqa::parse_document("<r><v>1</v><v>2</v><v>2</v></r>").expect("well-formed");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    ctx.enable_profiling();
    // `sum`, not `count`: a counted nest keeps no members to share.
    let plan = Engine::new()
        .compile("for $v in //v group by string($v) into $k nest $v into $vs return sum($vs)")
        .expect("compiles");
    plan.run(&ctx).expect("runs");
    let stats = ctx.stats.snapshot();
    let json = ctx.take_profile().expect("profiling enabled").to_json();
    assert!(stats.seq_clones_shared > 0 && stats.scan_index_tuples + stats.scan_walk_tuples > 0);
    assert!(json.starts_with("{\"pipelines\":[{"), "{json}");
    for (name, ..) in stats.fields() {
        assert!(!json.contains(&format!("\"{name}\":")), "{name} in {json}");
    }
    // Nothing follows the worst misestimate (none here: no estimates).
    assert!(json.ends_with("}],\"worst_misestimate\":null}"), "{json}");
}

/// A snapshot with every counter drawn from `rng` (a counter declared
/// after this list was written stays 0 and is still checked below).
#[allow(clippy::needless_update)] // needed the day a 17th counter is declared
fn random_snapshot(rng: &mut DetRng) -> EvalStatsSnapshot {
    // Half range, so the sum of two snapshots cannot overflow.
    let mut draw = || rng.next_u64() >> 1;
    EvalStatsSnapshot {
        nodes_visited: draw(),
        tuples_grouped: draw(),
        groups_emitted: draw(),
        comparisons: draw(),
        tuples_produced: draw(),
        tuples_pruned_filter: draw(),
        tuples_pruned_topk: draw(),
        seq_items_copied: draw(),
        seq_clones_shared: draw(),
        scan_index_hits: draw(),
        scan_index_tuples: draw(),
        scan_walk_tuples: draw(),
        expr_compiled: draw(),
        expr_fallback: draw(),
        join_hash_probes: draw(),
        join_build_tuples: draw(),
        ..Default::default()
    }
}

fn values(s: &EvalStatsSnapshot) -> Vec<u64> {
    s.fields().map(|(.., value)| value).collect()
}

#[test]
fn add_snapshot_round_trips_and_delta_subtracts_field_wise() {
    let mut rng = DetRng::seed_from_u64(0x18);
    for _ in 0..64 {
        let (a, b) = (random_snapshot(&mut rng), random_snapshot(&mut rng));
        let totals = EvalStats::default();
        totals.add_snapshot(&a);
        assert_eq!(totals.snapshot(), a);
        totals.add_snapshot(&b);
        let sum = totals.snapshot();
        let field_sums: Vec<u64> = values(&a)
            .iter()
            .zip(values(&b))
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(values(&sum), field_sums);
        assert_eq!(sum.delta(&a), b);
        assert_eq!(sum.delta(&b), a);

        // Saturating, not wrapping: the smaller minus the larger is 0.
        let saturated: Vec<u64> = values(&a)
            .iter()
            .zip(values(&b))
            .map(|(x, y)| x.saturating_sub(y))
            .collect();
        assert_eq!(values(&a.delta(&b)), saturated);
        assert_eq!(a.delta(&sum), EvalStatsSnapshot::default());

        totals.reset();
        assert_eq!(totals.snapshot(), EvalStatsSnapshot::default());
    }
}

#[test]
fn fields_name_each_counter_once_in_json_key_order() {
    let snapshot = random_snapshot(&mut DetRng::seed_from_u64(7));
    let names: Vec<String> = snapshot
        .fields()
        .map(|(name, ..)| name.to_string())
        .collect();
    let json = snapshot.to_json();
    let keys: Vec<&str> = json
        .trim_matches(['{', '}'])
        .split(',')
        .map(|pair| pair.split_once(':').expect("key:value").0.trim_matches('"'))
        .collect();
    assert_eq!(names, keys);
    assert!(names.len() >= 16);
    let distinct: BTreeSet<&String> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "a counter is declared twice");

    let metrics: BTreeSet<&str> = snapshot.fields().map(|(_, metric, ..)| metric).collect();
    assert_eq!(metrics.len(), names.len(), "two counters export one name");
    for (name, metric, help, _) in snapshot.fields() {
        assert!(
            metric.starts_with("xqa_") && metric.ends_with("_total"),
            "{name}: {metric}"
        );
        assert!(
            help.ends_with('.') && !help.contains('\n'),
            "{name}: {help}"
        );
    }

    // The `--stats` line is the same list as `name=value` words.
    let words: Vec<String> = snapshot
        .fields()
        .map(|(name, .., value)| format!("{name}={value}"))
        .collect();
    assert_eq!(
        format!("stats: {snapshot}"),
        format!("stats: {}", words.join(" "))
    );
}

/// One grouped, one hash-joined and one index-scanned query: every
/// counter those plan shapes must bump shows up, under its declared
/// name, in `fields()` and on the `--stats` line.
#[test]
fn grouped_joined_and_index_scanned_plans_bump_their_counters() {
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 40,
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let engine = Engine::with_options(EngineOptions {
        hints: "join=hash,access=index".parse().expect("valid hints"),
        ..Default::default()
    });
    for query in [
        "for $li in //order/lineitem where $li/quantity > 2 \
         group by $li/shipmode into $m nest $li into $items return count($items)",
        "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $i in //order/lineitem where $i/shipmode = $m return $i \
         return count($items)",
        "for $li in //lineitem return string($li/shipmode)",
    ] {
        engine
            .compile(query)
            .expect("compiles")
            .run(&ctx)
            .expect("runs");
    }
    let stats = ctx.stats.snapshot();
    let line = format!("stats: {stats}");
    for must_bump in [
        "nodes_visited",
        "tuples_grouped",
        "groups_emitted",
        "comparisons",
        "tuples_produced",
        "tuples_pruned_filter",
        "seq_clones_shared",
        "scan_index_hits",
        "scan_index_tuples",
        "join_hash_probes",
        "join_build_tuples",
    ] {
        let (_, _, _, value) = stats
            .fields()
            .find(|(name, ..)| *name == must_bump)
            .unwrap_or_else(|| panic!("{must_bump} is not a declared counter"));
        assert!(value > 0, "{must_bump} stayed 0: {line}");
        assert!(line.contains(&format!(" {must_bump}={value}")), "{line}");
    }
}

/// `$n/name` over an element with N children visits exactly N nodes,
/// whether some, all or none of them match: the name-id fast path of a
/// child step still counts every child it examines, so
/// `engine.nodes_visited` stays comparable across the change to it.
#[test]
fn child_name_step_visits_every_child_once() {
    let engine = Engine::new();
    let plan = engine
        .compile("let $n := . return count($n/c)")
        .expect("compiles");
    for (xml, matches) in [
        ("<r><c/>t<c><c/></c><!--k--><d/><?p x?><c/></r>", 3),
        ("<r><d/><d>c</d><e c='1'/>text</r>", 0),
        ("<r/>", 0),
    ] {
        let doc = xqa::parse_document(xml).expect("well-formed");
        let r = doc.root().children().next().expect("a document element");
        let children = r.children().count() as u64;
        let mut ctx = DynamicContext::new();
        ctx.set_context_item(xqa::xdm::Item::Node(r));
        let result = plan.run(&ctx).expect("runs");
        assert_eq!(result[0].string_value(), matches.to_string(), "{xml}");
        assert_eq!(ctx.stats.snapshot().nodes_visited, children, "{xml}");
    }
}
