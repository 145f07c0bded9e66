//! Ablation benches for the design choices DESIGN.md calls out:
//! 1. the implicit-group-by detection rewrite (Q naive vs rewritten vs
//!    explicit Qgb);
//! 2. hash-indexed deep-equal grouping vs the linear `using` comparator
//!    path;
//! 3. `nest ... order by` (sort per group) vs a global pre-sort.

use xqa::{Engine, EngineOptions};
use xqa_bench::harness::Harness;
use xqa_bench::{q_query, qgb_query, Dataset};

fn main() {
    bench_detection_rewrite();
    bench_grouping_equality();
    bench_nest_ordering();
    bench_moving_windows();
}

fn bench_detection_rewrite() {
    let dataset = Dataset::generate(2_000);
    let ctx = dataset.context();
    let plain = Engine::new();
    let detecting = Engine::with_options(EngineOptions {
        hints: "implicit-groupby=on".parse().unwrap(),
        ..Default::default()
    });
    let q_src = q_query(&["shipmode"]);

    let naive = plain.compile(&q_src).expect("compiles");
    let rewritten = detecting.compile(&q_src).expect("compiles");
    assert_eq!(rewritten.applied_rewrites().len(), 1, "rewrite must fire");
    let explicit = plain.compile(&qgb_query(&["shipmode"])).expect("compiles");

    let mut group = Harness::group("ablation/detection");
    group.bench("q_naive", || {
        naive.run(&ctx).expect("runs");
    });
    group.bench("q_rewritten", || {
        rewritten.run(&ctx).expect("runs");
    });
    group.bench("qgb_explicit", || {
        explicit.run(&ctx).expect("runs");
    });
}

fn bench_grouping_equality() {
    let dataset = Dataset::generate(4_000);
    let ctx = dataset.context();
    let engine = Engine::new();
    let hash = engine
        .compile(
            "for $litem in //order/lineitem \
             group by $litem/shipmode into $a \
             nest $litem into $items return count($items)",
        )
        .expect("compiles");
    let using = engine
        .compile(
            "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
             { deep-equal($a, $b) }; \
             for $litem in //order/lineitem \
             group by $litem/shipmode into $a using local:eq \
             nest $litem into $items return count($items)",
        )
        .expect("compiles");

    let mut group = Harness::group("ablation/equality");
    group.bench("hash_deep_equal", || {
        hash.run(&ctx).expect("runs");
    });
    group.bench("linear_using", || {
        using.run(&ctx).expect("runs");
    });
}

fn bench_nest_ordering() {
    let dataset = Dataset::generate(4_000);
    let ctx = dataset.context();
    let engine = Engine::new();
    let nest_sort = engine
        .compile(
            "for $li in //order/lineitem \
             group by $li/shipmode into $m \
             nest $li/shipdate order by string($li/shipdate) into $ds \
             return count($ds)",
        )
        .expect("compiles");
    let pre_sort = engine
        .compile(
            "for $li in (for $x in //order/lineitem \
                         order by string($x/shipdate) return $x) \
             group by $li/shipmode into $m \
             nest $li/shipdate into $ds \
             return count($ds)",
        )
        .expect("compiles");

    let mut group = Harness::group("ablation/nest_order");
    group.bench("per_group_sort", || {
        nest_sort.run(&ctx).expect("runs");
    });
    group.bench("global_pre_sort", || {
        pre_sort.run(&ctx).expect("runs");
    });
}

fn bench_moving_windows() {
    // The paper's Q8 moving window, three ways: nested iteration (the
    // paper's only option), an XQuery 3.0 sliding window, and the O(n)
    // xqa:moving-sum extension.
    let engine = Engine::new();
    let nested = engine
        .compile(
            "let $v := (1 to 500) \
             return for $x at $i in $v \
                    return sum(for $y at $j in $v \
                               where $j > $i - 10 and $j <= $i return $y)",
        )
        .expect("compiles");
    let window_clause = engine
        .compile(
            "for sliding window $w in (1 to 500) \
             start at $s when true() \
             end at $e when $e - $s = 9 \
             return sum($w)",
        )
        .expect("compiles");
    let extension = engine
        .compile("xqa:moving-sum(1 to 500, 10)")
        .expect("compiles");
    let ctx = xqa::DynamicContext::new();

    let mut group = Harness::group("ablation/moving_window");
    group.bench("nested_iteration_q8", || {
        nested.run(&ctx).expect("runs");
    });
    group.bench("sliding_window_clause", || {
        window_clause.run(&ctx).expect("runs");
    });
    group.bench("xqa_moving_sum", || {
        extension.run(&ctx).expect("runs");
    });
}
