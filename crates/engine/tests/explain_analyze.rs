//! Golden tests for `explain analyze` output.
//!
//! Profiled runs use the deterministic [`TickClock`], so every timing
//! in the rendered text depends only on how many times the pipeline
//! read the clock — stable across machines and optimization levels —
//! and each golden is checked serial and at four threads.
//! Regenerate the golden files with `UPDATE_GOLDEN=1 cargo test`.

use std::collections::BTreeSet;
use std::sync::Arc;

use xqa_engine::{
    DynamicContext, Engine, EngineOptions, OpKind, PlanHints, PreparedQuery, QueryProfile,
    TickClock,
};

/// 1ms per clock read: large enough that rendered times are round.
const TICK_NANOS: u64 = 1_000_000;

/// The thread counts every golden holds at.
const THREADS: [usize; 2] = [1, 4];

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

/// A joinable nested FLWOR, exercising the HashJoin operator (needs
/// the `join=hash` hint — without one, and without catalog statistics,
/// it stays nested).
const JOIN_QUERY: &str = "for $x in 1 to 8 \
     let $m := for $y in (2, 4, 6) where $y = $x return $y \
     return <j>{$x}:{count($m)}</j>";

fn engine_for(query: &str, threads: usize) -> Engine {
    let hints = if query == JOIN_QUERY {
        "join=hash".parse().unwrap()
    } else {
        PlanHints::default()
    };
    Engine::with_options(EngineOptions { threads, hints })
}

fn profiled_run(query: &str, threads: usize) -> (PreparedQuery, QueryProfile) {
    let engine = engine_for(query, threads);
    let plan = engine.compile(query).expect("compiles");
    let mut ctx = DynamicContext::new();
    ctx.set_clock(Arc::new(TickClock::new(TICK_NANOS)));
    ctx.enable_profiling();
    plan.run(&ctx).expect("runs");
    let profile = ctx.take_profile().expect("profiling was enabled");
    (plan, profile)
}

/// `query`'s `explain analyze` equals the golden file `name`, serial
/// and at four threads alike.
fn assert_matches_golden(name: &str, query: &str) {
    let render = |threads| {
        let (plan, profile) = profiled_run(query, threads);
        plan.explain_analyze(&profile)
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, render(1)).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nrun with UPDATE_GOLDEN=1 to (re)create it",
            path.display()
        )
    });
    for threads in THREADS {
        assert_eq!(
            render(threads),
            expected,
            "explain analyze at {threads} thread(s) drifted from golden {name}\n\
             run with UPDATE_GOLDEN=1 to regenerate"
        );
    }
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

/// The three golden queries exercise every pipeline operator kind.
#[test]
fn golden_queries_cover_every_op_kind() {
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    for query in [GROUP_TOPK_QUERY, WINDOW_QUERY, JOIN_QUERY] {
        let (_, profile) = profiled_run(query, 1);
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
    for (query, threads) in [GROUP_TOPK_QUERY, WINDOW_QUERY, JOIN_QUERY]
        .into_iter()
        .flat_map(|q| THREADS.map(|t| (q, t)))
    {
        let (_, profile) = profiled_run(query, threads);
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
    let (_, profile) = profiled_run(GROUP_TOPK_QUERY, 1);
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
