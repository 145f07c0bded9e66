//! Golden tests for `explain analyze` output.
//!
//! Profiled runs use the deterministic [`TickClock`], so every timing
//! in the rendered text depends only on how many times the pipeline
//! read the clock — stable across machines and optimization levels.
//! Regenerate the golden files with `UPDATE_GOLDEN=1 cargo test`.

use std::collections::BTreeSet;
use std::sync::Arc;

use xqa_engine::{
    DynamicContext, Engine, EngineOptions, EvalStatsSnapshot, OpKind, PreparedQuery, QueryProfile,
    TickClock,
};

/// 1ms per clock read: large enough that rendered times are round.
const TICK_NANOS: u64 = 1_000_000;

/// A paper-shaped aggregation: grouping with a pre-group filter and a
/// bounded rank, exercising ForScan / CountBind / LetBind / Filter /
/// GroupConsume / OrderBy(limit) / ReturnAt in one pipeline.
const GROUP_TOPK_QUERY: &str = "(for $x in 1 to 50 \
     count $c \
     let $m := $x mod 5 \
     where $c le 40 \
     group by $m into $k \
     nest $x into $xs \
     order by count($xs) descending, number($k) \
     return at $r <g r=\"{$r}\">{$k}:{count($xs)}</g>)[position() le 3]";

/// A tumbling window, exercising the remaining WindowScan operator.
const WINDOW_QUERY: &str = "for tumbling window $w in (1 to 20) \
     start at $s when $s mod 5 = 1 \
     return <w>{sum($w)}</w>";

/// A joinable nested FLWOR, exercising the HashJoin operator (the
/// default `join=hash`).
const JOIN_QUERY: &str = "for $x in 1 to 8 \
     let $m := for $y in (2, 4, 6) where $y = $x return $y \
     return <j>{$x}:{count($m)}</j>";

fn profiled_run(query: &str) -> (PreparedQuery, QueryProfile, EvalStatsSnapshot) {
    let plan = Engine::new().compile(query).expect("compiles");
    let mut ctx = DynamicContext::new();
    ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
    ctx.enable_profiling();
    plan.run(&ctx).expect("runs");
    let profile = ctx.take_profile().expect("profiling was enabled");
    (plan, profile, ctx.stats.snapshot())
}

/// `query`'s `explain analyze` equals the golden file `name`.
fn assert_matches_golden(name: &str, query: &str) {
    let (plan, profile, stats) = profiled_run(query);
    check_golden(name, plan.explain_analyze(&profile, &stats));
}

/// `rendered` equals the golden file `name`.
fn check_golden(name: &str, rendered: String) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &rendered).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nrun with UPDATE_GOLDEN=1 to (re)create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "output drifted from golden {name}\n\
         run with UPDATE_GOLDEN=1 to regenerate"
    );
}

#[test]
fn group_topk_matches_golden() {
    assert_matches_golden("explain_analyze_group_topk.txt", GROUP_TOPK_QUERY);
}

#[test]
fn window_matches_golden() {
    assert_matches_golden("explain_analyze_window.txt", WINDOW_QUERY);
}

#[test]
fn join_matches_golden() {
    assert_matches_golden("explain_analyze_join.txt", JOIN_QUERY);
}

/// The plan of the hash-joined [`JOIN_QUERY`]: the nested FLWOR under
/// the `[hash join ..]` tag never runs, so it prints no `pipeline:` line.
#[test]
fn join_explain_matches_golden() {
    let plan = Engine::new().compile(JOIN_QUERY).expect("compiles");
    check_golden("explain_join.txt", plan.explain());
}

/// The three golden queries exercise every pipeline operator kind.
#[test]
fn golden_queries_cover_every_op_kind() {
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    for query in [GROUP_TOPK_QUERY, WINDOW_QUERY, JOIN_QUERY] {
        let (_, profile, _) = profiled_run(query);
        for pipeline in &profile.pipelines {
            for op in &pipeline.ops {
                seen.insert(op.kind.as_str());
            }
        }
    }
    let all: BTreeSet<&'static str> = OpKind::ALL.iter().map(|k| k.as_str()).collect();
    assert_eq!(seen, all, "an operator kind is missing from the goldens");
}

/// GroupConsume and OrderBy are the only operators allowed to report
/// materialization, and the tuple flow must chain: each operator's
/// tuples_in equals its upstream's tuples_out.
#[test]
fn profiles_report_materialization_and_tuple_flow_consistently() {
    for query in [GROUP_TOPK_QUERY, WINDOW_QUERY, JOIN_QUERY] {
        let (_, profile, _) = profiled_run(query);
        for pipeline in &profile.pipelines {
            for pair in pipeline.ops.windows(2) {
                assert_eq!(
                    pair[1].tuples_in,
                    pair[0].tuples_out,
                    "tuple flow broken between {} and {}",
                    pair[0].kind.as_str(),
                    pair[1].kind.as_str()
                );
            }
            for op in &pipeline.ops {
                let allowed = matches!(op.kind, OpKind::GroupConsume | OpKind::OrderBy);
                assert!(
                    allowed || !op.materializes(),
                    "{} must not materialize",
                    op.kind.as_str()
                );
            }
        }
    }
}

/// The JSON form carries the same per-operator numbers as the text.
#[test]
fn profile_json_names_every_operator() {
    let (_, profile, _) = profiled_run(GROUP_TOPK_QUERY);
    let json = profile.to_json();
    for op in [
        "ForScan",
        "CountBind",
        "LetBind",
        "Filter",
        "GroupConsume",
        "OrderBy",
        "ReturnAt",
    ] {
        assert!(
            json.contains(&format!("\"op\":\"{op}\"")),
            "{op} missing:\n{json}"
        );
    }
    assert!(json.contains("\"tuples_in\""), "{json}");
    assert!(json.contains("\"time_ns\""), "{json}");
}

/// Per operator of one pipeline: its summed estimate and summed actual.
type EstActual = Vec<(Option<u64>, u64)>;

/// Per pipeline of `profile`: its executions and its operators' rows.
fn est_actual(profile: &QueryProfile) -> Vec<(u64, EstActual)> {
    profile
        .pipelines
        .iter()
        .map(|p| {
            let ops = p
                .ops
                .iter()
                .map(|op| (op.estimate, op.tuples_out))
                .collect();
            (p.executions, ops)
        })
        .collect()
}

/// A FLWOR re-run under an outer `for` is an entry of its own, apart
/// from the outer FLWOR that shares its labels (`ForScan -> ReturnAt`).
/// Its estimate of 2 per execution sums over the three executions like
/// its actual does, so neither entry reports a misestimate.
#[test]
fn a_nested_flwor_is_one_entry_with_summed_estimates() {
    let query = "for $x in (1,2,3) return count(for $y in (1,2) return $y)";
    let (_, profile, _) = profiled_run(query);
    assert_eq!(
        est_actual(&profile),
        [
            (3, vec![(Some(6), 6), (Some(6), 6)]),
            (1, vec![(Some(3), 3), (Some(3), 3)]),
        ]
    );
    let worst = profile.worst_misestimate().expect("estimated");
    assert_eq!(worst.q_error, 1.0);
}

/// Two unrelated FLWORs with equal labels keep one entry each.
#[test]
fn flwors_with_equal_labels_stay_apart() {
    let query = "(for $x in (1,2) return $x, for $y in (3,4,5) return $y)";
    let (_, profile, _) = profiled_run(query);
    assert_eq!(
        est_actual(&profile),
        [
            (1, vec![(Some(2), 2), (Some(2), 2)]),
            (1, vec![(Some(3), 3), (Some(3), 3)]),
        ]
    );
    assert_eq!(
        profile.pipelines[0].signature(),
        profile.pipelines[1].signature()
    );
}

/// The two-key `Q` over four `li` rows: `a` takes 1, 1, 2, 3 and `b`
/// takes x, y, x, z, so each has three distinct values and the inner
/// FLWOR runs once per `($a, $b)` pair, nine times; four pairs match
/// one row each.
const TWO_KEY_DOC: &str = "<r><li><a>1</a><b>x</b></li><li><a>1</a><b>y</b></li>\
                           <li><a>2</a><b>x</b></li><li><a>3</a><b>z</b></li></r>";
const TWO_KEY_Q: &str = "for $a in distinct-values(//li/a), $b in distinct-values(//li/b) \
                         let $items := for $i in //li where $i/a = $a and $i/b = $b return $i \
                         return count($items)";

/// The profile of the two-key `Q` over [`TWO_KEY_DOC`], indexed and
/// with its statistics attached, under `hints`.
fn two_key_profile(hints: &str) -> QueryProfile {
    let doc = xqa_xmlparse::parse_document(TWO_KEY_DOC).expect("well-formed");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let stats = Arc::new(xqa_storage::CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    let engine = Engine::with_options(EngineOptions {
        hints: hints.parse().expect("valid hints"),
        ..Default::default()
    })
    .with_statistics(stats);
    let plan = engine.compile(TWO_KEY_Q).expect("compiles");
    ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
    ctx.enable_profiling();
    plan.run(&ctx).expect("runs");
    ctx.take_profile().expect("profiling was enabled")
}

/// Under `access=walk` the two-key `Q` re-scans `//li` once per pair:
/// nine executions of an exact four-row scan read 36/36, and the worst
/// misestimate is the two-key conjunct the planner cannot see through
/// (the default 1/2 selectivity: 18 estimated, 4 kept).
#[test]
fn the_two_key_q_blames_the_conjunct_not_the_rescan() {
    let profile = two_key_profile("access=walk");
    let inner = &profile.pipelines[0];
    assert_eq!(inner.executions, 9);
    let scan = &inner.ops[0];
    assert_eq!(scan.label(), "ForScan");
    assert_eq!((scan.estimate, scan.tuples_out), (Some(36), 36));
    assert_eq!(scan.q_error(), Some(1.0));
    let worst = profile.worst_misestimate().expect("estimated");
    assert!(!worst.label.starts_with("ForScan"), "{worst:?}");
    assert_eq!((worst.estimated, worst.actual), (18, 4), "{worst:?}");
    assert_eq!(worst.q_error, 4.5);
}

/// Unhinted, the inner `for` probes both conjuncts through the value
/// index, so each execution binds only the rows matching its pair: 4
/// tuples over the nine executions, one for each matching pair. Per
/// execution the scan is estimated at `⌈4 × 1/3 × 1/3⌉ = 1` (each key
/// has three distinct values) and the `where`, whose conjuncts were
/// all probed, passes its input: 9 estimated against 4 at the scan,
/// the filter and the sink alike, q = 9/4 = 2.25.
#[test]
fn the_probed_two_key_q_binds_only_the_matching_rows() {
    let profile = two_key_profile("");
    let inner = &profile.pipelines[0];
    assert_eq!(inner.executions, 9);
    let rows: Vec<(String, Option<u64>, u64)> = inner
        .ops
        .iter()
        .map(|op| (op.label(), op.estimate, op.tuples_out))
        .collect();
    assert_eq!(
        rows,
        [
            (
                "ForScan(index scan //li, probe a b)".to_string(),
                Some(9),
                4
            ),
            ("Filter".to_string(), Some(9), 4),
            ("ReturnAt".to_string(), Some(9), 4),
        ]
    );
    let worst = profile.worst_misestimate().expect("estimated");
    assert_eq!((worst.estimated, worst.actual), (9, 4), "{worst:?}");
    assert_eq!(worst.q_error, 2.25);
}

/// The outer pipeline of the two-key `Q` ranges over
/// `distinct-values(//li/a)` and `distinct-values(//li/b)`: the catalog's
/// distinct counts estimate both sources, three values each, so every
/// row reads `q=1.0` (3 `$a`, 9 pairs).
#[test]
fn distinct_values_sources_are_estimated_from_the_catalog() {
    let profile = two_key_profile("");
    let outer = &profile.pipelines[1];
    let rows: Vec<(String, Option<u64>, u64)> = outer
        .ops
        .iter()
        .map(|op| (op.label(), op.estimate, op.tuples_out))
        .collect();
    assert_eq!(
        rows,
        [
            ("ForScan".to_string(), Some(3), 3),
            ("ForScan(source once)".to_string(), Some(9), 9),
            ("LetBind(inner source once)".to_string(), Some(9), 9),
            ("ReturnAt".to_string(), Some(9), 9),
        ]
    );
}

/// A `group by` over `$v/k` keys is estimated at `min(n, Π ndv(k))`
/// groups: over the four `li` rows of [`TWO_KEY_DOC`], `a` alone forms
/// its three distinct values and `(a, b)` four of the nine pairs, so
/// both `GroupConsume` rows read `q=1.0` (`⌈√4⌉ = 2` read 2/3 and 2/4).
#[test]
fn group_by_child_keys_are_estimated_from_the_catalog() {
    let doc = xqa_xmlparse::parse_document(TWO_KEY_DOC).expect("well-formed");
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx.index_documents();
    let stats = Arc::new(xqa_storage::CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
    ctx.enable_profiling();
    for (keys, groups) in [("$i/a into $a", 3), ("$i/a into $a, $i/b into $b", 4)] {
        let query =
            format!("for $i in //li group by {keys} nest $i into $items return count($items)");
        let plan = Engine::new()
            .with_statistics(Arc::clone(&stats))
            .compile(&query)
            .expect("compiles");
        plan.run(&ctx).expect("runs");
        let profile = ctx.take_profile().expect("profiling was enabled");
        let group = profile.pipelines[0]
            .ops
            .iter()
            .find(|op| op.kind == OpKind::GroupConsume)
            .expect("a GroupConsume row");
        assert_eq!(
            (group.estimate, group.tuples_out),
            (Some(groups), groups),
            "{query}"
        );
    }
}

/// `EngineOptions::threads` is retired: at every value the plan's
/// `explain` text and fingerprint, the serialized result, the evaluator
/// counters and a fixed-tick profile are the default's.
#[test]
fn the_thread_count_is_retired() {
    // Grouped, then ordered, over more than a thousand items.
    let query = "for $x in 1 to 5000 group by $x mod 5 into $k nest $x into $xs \
                 order by $k descending return <g>{$k}:{count($xs)}</g>";
    let observe = |threads: usize| {
        let plan = Engine::with_options(EngineOptions {
            threads,
            ..Default::default()
        })
        .compile(query)
        .expect("compiles");
        let mut ctx = DynamicContext::new();
        ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
        ctx.enable_profiling();
        let mut out = String::new();
        plan.run_serialized(&ctx, &mut |chunk| {
            out.push_str(chunk);
            Ok(())
        })
        .expect("runs");
        let stats = ctx.stats.snapshot();
        let profile = ctx.take_profile().expect("profiling was enabled");
        let analyzed = plan.explain_analyze(&profile, &stats);
        (
            plan.explain(),
            plan.fingerprint(),
            out,
            stats,
            analyzed,
            profile.to_json(),
        )
    };
    let default = observe(0);
    for threads in [1, 2, 4] {
        assert_eq!(observe(threads), default, "threads={threads}");
    }
}
