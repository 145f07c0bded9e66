//! Differential tests for the streaming tuple pipeline.
//!
//! The pipeline is held against itself across degrees of parallelism
//! and across both sides of each plan hint (`access`, `expr`, `join`).
//! Every query here is evaluated at threads=1 (profiled — the run that
//! also asserts instrumentation never changes results and that every
//! FLWOR records its operator pipeline) and at threads=4, and the
//! serialized results must be byte-identical.

use xqa::{serialize_sequence, DynamicContext, Engine, EngineOptions};

/// An engine pinned to `hints` (the `--hint` grammar) at `threads`. A
/// pinned hint beats `XQA_HINTS`, so every differential below compares
/// the two sides it names whatever the environment says.
fn hinted_engine(hints: &str, threads: usize) -> Engine {
    Engine::with_options(EngineOptions {
        threads,
        hints: hints.parse().expect("valid hints"),
    })
}

fn threaded_engines() -> (Engine, Engine) {
    let serial = Engine::with_options(EngineOptions {
        threads: 1,
        ..Default::default()
    });
    let parallel = Engine::with_options(EngineOptions {
        threads: 4,
        ..Default::default()
    });
    (serial, parallel)
}

fn assert_identical_ctx(query: &str, ctx: &mut DynamicContext) {
    let (serial, parallel) = threaded_engines();
    let fast = serial
        .compile(query)
        .unwrap_or_else(|e| panic!("compile (threads=1): {e}\n{query}"));
    let slow = parallel
        .compile(query)
        .unwrap_or_else(|e| panic!("compile (threads=4): {e}\n{query}"));
    // The serial run is profiled: instrumentation must never change
    // results, and every streaming FLWOR must record its pipeline.
    ctx.enable_profiling();
    let a = fast
        .run(ctx)
        .unwrap_or_else(|e| panic!("run (threads=1): {e}\n{query}"));
    let profile = ctx.take_profile().expect("profiling was enabled");
    assert!(
        !profile.is_empty(),
        "no pipeline profile recorded for:\n{query}"
    );
    for pipeline in &profile.pipelines {
        assert!(!pipeline.ops.is_empty(), "empty pipeline in profile");
    }
    let b = slow
        .run(ctx)
        .unwrap_or_else(|e| panic!("run (threads=4): {e}\n{query}"));
    assert_eq!(
        serialize_sequence(&a),
        serialize_sequence(&b),
        "threads=1 and threads=4 disagree for:\n{query}"
    );
}

fn assert_identical(query: &str) {
    assert_identical_ctx(query, &mut DynamicContext::new());
}

fn orders_ctx() -> DynamicContext {
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 120,
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx
}

// ---- grouping ---------------------------------------------------------

#[test]
fn groupby_single_key() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        &mut orders_ctx(),
    );
}

#[test]
fn groupby_two_keys() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/returnflag into $rf, $li/linestatus into $ls \
         nest $li/quantity into $qs \
         order by string($rf), string($ls) \
         return <g>{string($rf)}{string($ls)}|{count($qs)}|{sum(for $q in $qs return number($q))}</g>",
        &mut orders_ctx(),
    );
}

#[test]
fn groupby_ordered_nest() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li/shipdate order by string($li/shipdate) into $ds \
         order by string($m) \
         return <g>{string($m)}:{string($ds[1])}..{string($ds[last()])}</g>",
        &mut orders_ctx(),
    );
}

#[test]
fn groupby_custom_equality() {
    assert_identical_ctx(
        "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
         { deep-equal($a, $b) }; \
         for $li in //order/lineitem \
         group by $li/shipmode into $m using local:eq \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        &mut orders_ctx(),
    );
}

#[test]
fn groupby_post_group_let_and_where() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         let $n := count($items) \
         where $n ge 10 \
         order by $n descending, string($m) \
         return <g>{string($m)}:{$n}</g>",
        &mut orders_ctx(),
    );
}

// ---- ranking ----------------------------------------------------------

#[test]
fn rank_query_unbounded() {
    assert_identical_ctx(
        "for $li in //order/lineitem \
         order by number($li/extendedprice) descending \
         return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>",
        &mut orders_ctx(),
    );
}

#[test]
fn rank_query_topk() {
    assert_identical_ctx(
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>)\
         [position() le 10]",
        &mut orders_ctx(),
    );
}

#[test]
fn rank_groups_topk() {
    assert_identical_ctx(
        "(for $li in //order/lineitem \
          group by $li/shipmode into $m \
          nest $li into $items \
          order by count($items) descending, string($m) \
          return at $r <g rank=\"{$r}\">{string($m)}</g>)\
         [position() le 3]",
        &mut orders_ctx(),
    );
}

// ---- windows ----------------------------------------------------------

#[test]
fn tumbling_window() {
    assert_identical(
        "for tumbling window $w in (1 to 50) \
         start at $s when $s mod 7 = 1 \
         return <w>{sum($w)}</w>",
    );
}

#[test]
fn tumbling_window_with_end_condition() {
    assert_identical(
        "for tumbling window $w in (2, 4, 6, 1, 3, 8, 10, 5) \
         start $s when $s mod 2 = 0 \
         end $e when $e mod 2 = 1 \
         return <w>{$w}</w>",
    );
}

#[test]
fn sliding_window_with_rank() {
    assert_identical(
        "for sliding window $w in (1 to 12) \
         start at $s when true() \
         only end at $e when $e = $s + 2 \
         return at $r <w r=\"{$r}\">{sum($w)}</w>",
    );
}

// ---- plain FLWOR shapes ----------------------------------------------

#[test]
fn for_let_where_count() {
    assert_identical(
        "for $x in (5, 3, 8, 1, 9, 2) \
         count $c \
         let $y := $x * $c \
         where $y mod 2 = 0 \
         return <r>{$c}:{$y}</r>",
    );
}

#[test]
fn nested_flwor_in_let() {
    assert_identical(
        "for $x in 1 to 5 \
         let $below := for $y in 1 to 5 where $y lt $x return $y \
         return <r>{$x}|{count($below)}</r>",
    );
}

#[test]
fn empty_for_input() {
    assert_identical("for $x in () order by $x return at $r <r>{$r}</r>");
}

#[test]
fn multiple_for_clauses() {
    assert_identical(
        "for $x in (1, 2, 3) \
         for $y in (\"a\", \"b\") \
         order by $y, $x descending \
         return <r>{$y}{$x}</r>",
    );
}

// ---- intra-query parallelism ------------------------------------------
//
// Every query above (and a set of large-input shapes that actually split
// into multiple morsels) is also evaluated with `threads: 1` vs
// `threads: 4`; the serialized results must be byte-identical and the
// evaluator accounting (tuples produced/grouped/pruned, groups emitted)
// must match exactly.

fn assert_threads_identical_ctx(query: &str, ctx: &mut DynamicContext) {
    let (serial, parallel) = threaded_engines();
    let s = serial
        .compile(query)
        .unwrap_or_else(|e| panic!("compile (threads=1): {e}\n{query}"));
    let p = parallel
        .compile(query)
        .unwrap_or_else(|e| panic!("compile (threads=4): {e}\n{query}"));
    let base = ctx.stats.snapshot();
    let a = s
        .run(ctx)
        .unwrap_or_else(|e| panic!("run (threads=1): {e}\n{query}"));
    let mid = ctx.stats.snapshot();
    let b = p
        .run(ctx)
        .unwrap_or_else(|e| panic!("run (threads=4): {e}\n{query}"));
    let end = ctx.stats.snapshot();
    assert_eq!(
        serialize_sequence(&a),
        serialize_sequence(&b),
        "threads=1 and threads=4 disagree for:\n{query}"
    );
    // The parallel run must do the same logical work as the serial one.
    let deltas = [
        (
            "tuples_produced",
            base.tuples_produced,
            mid.tuples_produced,
            end.tuples_produced,
        ),
        (
            "tuples_grouped",
            base.tuples_grouped,
            mid.tuples_grouped,
            end.tuples_grouped,
        ),
        (
            "groups_emitted",
            base.groups_emitted,
            mid.groups_emitted,
            end.groups_emitted,
        ),
        (
            "tuples_pruned_filter",
            base.tuples_pruned_filter,
            mid.tuples_pruned_filter,
            end.tuples_pruned_filter,
        ),
        (
            "tuples_pruned_topk",
            base.tuples_pruned_topk,
            mid.tuples_pruned_topk,
            end.tuples_pruned_topk,
        ),
    ];
    for (name, base, mid, end) in deltas {
        assert_eq!(
            mid - base,
            end - mid,
            "{name} differs between threads=1 and threads=4 for:\n{query}"
        );
    }
}

/// The orders-document corpus shared by the threads, access-path, and
/// expression-bytecode differentials.
const ORDERS_CORPUS: [&str; 8] = [
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        "for $li in //order/lineitem \
         group by $li/returnflag into $rf, $li/linestatus into $ls \
         nest $li/quantity into $qs \
         order by string($rf), string($ls) \
         return <g>{string($rf)}{string($ls)}|{count($qs)}|{sum(for $q in $qs return number($q))}</g>",
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li/shipdate order by string($li/shipdate) into $ds \
         order by string($m) \
         return <g>{string($m)}:{string($ds[1])}..{string($ds[last()])}</g>",
        "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
         { deep-equal($a, $b) }; \
         for $li in //order/lineitem \
         group by $li/shipmode into $m using local:eq \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         let $n := count($items) \
         where $n ge 10 \
         order by $n descending, string($m) \
         return <g>{string($m)}:{$n}</g>",
        "for $li in //order/lineitem \
         order by number($li/extendedprice) descending \
         return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>",
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>)\
         [position() le 10]",
        "(for $li in //order/lineitem \
          group by $li/shipmode into $m \
          nest $li into $items \
          order by count($items) descending, string($m) \
          return at $r <g rank=\"{$r}\">{string($m)}</g>)\
         [position() le 3]",
];

/// The document-free corpus shared by the same differentials.
const PLAIN_CORPUS: [&str; 7] = [
    "for tumbling window $w in (1 to 50) \
         start at $s when $s mod 7 = 1 \
         return <w>{sum($w)}</w>",
    "for tumbling window $w in (2, 4, 6, 1, 3, 8, 10, 5) \
         start $s when $s mod 2 = 0 \
         end $e when $e mod 2 = 1 \
         return <w>{$w}</w>",
    "for sliding window $w in (1 to 12) \
         start at $s when true() \
         only end at $e when $e = $s + 2 \
         return at $r <w r=\"{$r}\">{sum($w)}</w>",
    "for $x in (5, 3, 8, 1, 9, 2) \
         count $c \
         let $y := $x * $c \
         where $y mod 2 = 0 \
         return <r>{$c}:{$y}</r>",
    "for $x in 1 to 5 \
         let $below := for $y in 1 to 5 where $y lt $x return $y \
         return <r>{$x}|{count($below)}</r>",
    "for $x in () order by $x return at $r <r>{$r}</r>",
    "for $x in (1, 2, 3) \
         for $y in (\"a\", \"b\") \
         order by $y, $x descending \
         return <r>{$y}{$x}</r>",
];

/// The full corpus above, replayed as a threads=1 vs threads=4
/// differential. Inputs below one morsel take the pre-seeded serial
/// fallback; the large-input tests further down exercise the real
/// multi-worker split.
#[test]
fn parallel_corpus_differential() {
    for query in ORDERS_CORPUS {
        assert_threads_identical_ctx(query, &mut orders_ctx());
    }
    for query in PLAIN_CORPUS {
        assert_threads_identical_ctx(query, &mut DynamicContext::new());
    }
}

#[test]
fn parallel_large_streamed_chain() {
    // No breaker: per-morsel output fragments concatenated in order.
    assert_threads_identical_ctx(
        "for $x in 1 to 4000 \
         let $y := $x * 3 \
         where $y mod 7 = 0 \
         return <r>{$y}</r>",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_large_positional_at() {
    // `at` ordinals are global positions, not morsel-local ones.
    assert_threads_identical_ctx(
        "for $x at $i in 2 to 4001 \
         where $x mod 997 = 0 \
         return <r>{$i}:{$x}</r>",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_large_rank_without_order() {
    // No breaker but `return at`: ranks are assigned after the merge.
    assert_threads_identical_ctx(
        "for $x in 1 to 3000 \
         where $x mod 2 = 0 \
         return at $r <r>{$r}:{$x}</r>",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_large_group_by_deep_equal_keys() {
    // Sequence-valued grouping keys exercise the deep-equal fallback in
    // every worker's hash table and again in the cross-worker merge;
    // with no order by, group order is first appearance across morsels.
    assert_threads_identical_ctx(
        "for $x in 1 to 5000 \
         group by ($x mod 7, $x mod 3) into $k \
         nest $x into $xs \
         return <g>{$k[1]}-{$k[2]}|{count($xs)}|{sum($xs)}</g>",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_large_group_by_ordered_nest() {
    assert_threads_identical_ctx(
        "for $x in 1 to 5000 \
         group by $x mod 11 into $k \
         nest $x order by $x mod 13, $x into $xs \
         order by $k \
         return <g>{$k}|{$xs[1]}|{$xs[last()]}</g>",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_large_top_k_ties_and_rank() {
    // Massive ties on the sort key: the survivors and their ranks must
    // match the serial stable order (tags break ties by input position).
    assert_threads_identical_ctx(
        "(for $x in 1 to 5000 \
          order by $x mod 10 \
          return at $r <r rank=\"{$r}\">{$x}</r>)[position() le 25]",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_large_full_sort_stability() {
    assert_threads_identical_ctx(
        "for $x in 1 to 3000 \
         order by $x mod 4 \
         return <r>{$x}</r>",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_large_groupby_then_downstream_clauses() {
    // Clauses after the breaker (let/where/order by) run serially on
    // the merged stream.
    assert_threads_identical_ctx(
        "for $x in 1 to 5000 \
         group by $x mod 17 into $k \
         nest $x into $xs \
         let $n := count($xs) \
         where $k mod 2 = 0 \
         order by $n descending, $k \
         return <g>{$k}:{$n}</g>",
        &mut DynamicContext::new(),
    );
}

#[test]
fn parallel_error_matches_serial() {
    // The parallel run must surface exactly the error the serial run
    // raises first, even when later morsels would also fail.
    let (serial, parallel) = threaded_engines();
    let query = "for $x in 1 to 3000 return $x idiv ($x - 1500)";
    let ctx = DynamicContext::new();
    let e1 = serial
        .compile(query)
        .expect("compile")
        .run(&ctx)
        .expect_err("threads=1 must fail");
    let e4 = parallel
        .compile(query)
        .expect("compile")
        .run(&ctx)
        .expect_err("threads=4 must fail");
    assert_eq!(e1.to_string(), e4.to_string());
}

// ---- access paths -----------------------------------------------------
//
// Every query below is evaluated four ways — access path forced to
// `walk` and forced to `index`, each at threads=1 and threads=4 —
// against a context whose documents carry indexed stores. All four
// serialized results must be byte-identical: the index path is a pure
// access-method substitution, never a semantic one.

fn indexed_orders_ctx() -> (
    xqa::DynamicContext,
    std::sync::Arc<xqa::storage::CatalogStatistics>,
) {
    let mut ctx = orders_ctx();
    ctx.index_documents();
    let stats = std::sync::Arc::new(xqa::storage::CatalogStatistics::from_stores(
        ctx.stores().map(std::sync::Arc::as_ref),
    ));
    (ctx, stats)
}

fn assert_access_paths_identical(
    query: &str,
    ctx: &xqa::DynamicContext,
    stats: &std::sync::Arc<xqa::storage::CatalogStatistics>,
) {
    let mut outputs: Vec<(String, String)> = Vec::new();
    for threads in [1usize, 4] {
        for mode in ["access=walk", "access=index"] {
            let engine = hinted_engine(mode, threads).with_statistics(std::sync::Arc::clone(stats));
            let plan = engine
                .compile(query)
                .unwrap_or_else(|e| panic!("compile ({mode}, threads={threads}): {e}\n{query}"));
            let out = plan
                .run(ctx)
                .unwrap_or_else(|e| panic!("run ({mode}, threads={threads}): {e}\n{query}"));
            outputs.push((
                format!("{mode} threads={threads}"),
                serialize_sequence(&out),
            ));
        }
    }
    let (baseline_label, baseline) = &outputs[0];
    for (label, out) in &outputs[1..] {
        assert_eq!(
            baseline, out,
            "{baseline_label} and {label} disagree for:\n{query}"
        );
    }
}

/// The paper-workload corpus replayed as a walk-vs-index differential.
/// Descendant scans, string and numeric value predicates, predicates
/// the value index must refuse (non-leaf children, inequalities), and
/// FLWOR pipelines above them all serialize byte-identically whichever
/// access path resolves the scan.
#[test]
fn access_path_corpus_differential() {
    let (ctx, stats) = indexed_orders_ctx();
    for query in ACCESS_PATH_CORPUS {
        assert_access_paths_identical(query, &ctx, &stats);
    }
}

/// The paper-workload access-path corpus, shared with the
/// expression-bytecode differential below.
const ACCESS_PATH_CORPUS: [&str; 13] = [
    // plain descendant scans, high and low selectivity
    "count(//lineitem)",
    "count(//order)",
    "for $m in //shipmode return string($m)",
    // value-eq predicates: string probe, numeric probe, empty result
    "count(//lineitem[returnflag = \"A\"])",
    "count(//lineitem[quantity = 10])",
    "count(//lineitem[quantity = 999999])",
    "for $li in //lineitem[linestatus = \"O\"] return string($li/partkey)",
    // value index must refuse: non-leaf child, inequality, doubled preds
    "count(//order[customer = \"x\"])",
    "count(//lineitem[quantity > 10])",
    "count(//lineitem[quantity = 10][returnflag = \"A\"])",
    // descendant scan feeding the paper's grouping pipeline
    "for $li in //order/lineitem \
         group by $li/shipmode into $m \
         nest $li into $items \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
    // value predicate below a top-k ranking pipeline
    "(for $li in //lineitem[returnflag = \"R\"] \
          order by number($li/extendedprice) descending \
          return at $r <p rank=\"{$r}\">{data($li/partkey)}</p>)\
         [position() le 5]",
    // nested rescan: the inner path is re-annotated per tuple
    "for $m in distinct-values(//lineitem/shipmode) \
         let $n := count(//lineitem[shipmode = $m]) \
         order by string($m) \
         return <g>{string($m)}:{$n}</g>",
];

/// The forced-index corpus must actually exercise the index: a run with
/// everything forced to `index` records index hits, and the same
/// queries forced to `walk` record none. On a descendant scan and on a
/// value probe the walk must also visit at least ten times the nodes
/// the index plan visits or reads from postings: exact counters at
/// threads=1, 16 012 vs 473 and 38 174 vs 224 when this floor was set.
#[test]
fn access_path_differential_takes_the_index() {
    let (ctx, stats) = indexed_orders_ctx();
    let query = "count(//lineitem[quantity = 10]) + count(//lineitem)";
    let run = |mode: &str, query: &str| {
        let engine = hinted_engine(mode, 1).with_statistics(std::sync::Arc::clone(&stats));
        let before = ctx.stats.snapshot();
        engine
            .compile(query)
            .expect("compile")
            .run(&ctx)
            .expect("run");
        ctx.stats.snapshot().delta(&before)
    };
    let index_hits = run("access=index", query).scan_index_hits;
    assert!(
        index_hits >= 2,
        "forced index run recorded {index_hits} hits"
    );
    let walk = run("access=walk", query);
    assert_eq!(
        walk.scan_index_hits, 0,
        "forced walk run must not touch the index"
    );
    assert!(walk.scan_walk_tuples > 0, "forced walk run must tree-walk");

    for query in ["count(//lineitem)", "count(//lineitem[quantity = 7])"] {
        let index = run("access=index", query);
        let walk = run("access=walk", query);
        let index_work = index.nodes_visited + index.scan_index_tuples;
        assert!(
            walk.nodes_visited >= 10 * index_work,
            "{query}: walk visits {} nodes, index {} + {} postings: under 10x",
            walk.nodes_visited,
            index.nodes_visited,
            index.scan_index_tuples
        );
    }
}

#[test]
fn parallel_profile_reports_workers() {
    // A profiled parallel run records the widest worker fan-out.
    let parallel = Engine::with_options(EngineOptions {
        threads: 4,
        ..Default::default()
    });
    let query = parallel
        .compile(
            "for $x in 1 to 5000 \
             group by $x mod 5 into $k \
             nest $x into $xs \
             order by $k \
             return <g>{$k}:{count($xs)}</g>",
        )
        .expect("compile");
    let mut ctx = DynamicContext::new();
    ctx.enable_profiling();
    query.run(&ctx).expect("run");
    let profile = ctx.take_profile().expect("profile");
    let workers = profile.pipelines.iter().map(|p| p.workers).max().unwrap();
    assert_eq!(workers, 4, "expected a 4-worker parallel pipeline");
}

// ---- expression bytecode ----------------------------------------------
//
// Every query in the corpora above is evaluated four ways — scalar
// expression evaluation forced to `bytecode` and forced to `tree`, each
// at threads=1 and threads=4. All four serialized results must be
// byte-identical: a compiled program is a pure evaluation-method
// substitution for the tree-walker, never a semantic one.

fn assert_expr_evals_identical(query: &str, ctx: &DynamicContext) {
    let mut outputs: Vec<(String, String)> = Vec::new();
    let mut serial_comparisons: Vec<u64> = Vec::new();
    for threads in [1usize, 4] {
        for mode in ["expr=bytecode", "expr=tree"] {
            let engine = hinted_engine(mode, threads);
            let plan = engine
                .compile(query)
                .unwrap_or_else(|e| panic!("compile ({mode}, threads={threads}): {e}\n{query}"));
            let before = ctx.stats.snapshot();
            let out = plan
                .run(ctx)
                .unwrap_or_else(|e| panic!("run ({mode}, threads={threads}): {e}\n{query}"));
            let after = ctx.stats.snapshot();
            if threads == 1 {
                serial_comparisons.push(after.comparisons - before.comparisons);
            }
            outputs.push((
                format!("{mode:?} threads={threads}"),
                serialize_sequence(&out),
            ));
        }
    }
    let (baseline_label, baseline) = &outputs[0];
    for (label, out) in &outputs[1..] {
        assert_eq!(
            baseline, out,
            "{baseline_label} and {label} disagree for:\n{query}"
        );
    }
    // The type-specialized comparison fast paths must count exactly the
    // comparisons the tree-walker's kernels count (serial runs are
    // deterministic; parallel grouping merges can legitimately differ).
    assert_eq!(
        serial_comparisons[0], serial_comparisons[1],
        "bytecode and tree comparison counts diverge at threads=1 for:\n{query}"
    );
}

/// The orders and document-free corpora replayed as a bytecode-vs-tree
/// differential across thread counts.
#[test]
fn expr_eval_corpus_differential() {
    for query in ORDERS_CORPUS {
        assert_expr_evals_identical(query, &orders_ctx());
    }
    for query in PLAIN_CORPUS {
        assert_expr_evals_identical(query, &DynamicContext::new());
    }
}

/// The access-path corpus replayed the same way against an indexed
/// context: path-heavy queries mostly decline lowering, so this leg
/// pins the fallback boundary (compiled clause next to an interpreted
/// one) to identical output.
#[test]
fn expr_eval_access_path_corpus_differential() {
    let (ctx, _stats) = indexed_orders_ctx();
    for query in ACCESS_PATH_CORPUS {
        assert_expr_evals_identical(query, &ctx);
    }
}

/// The large multi-morsel shapes, where compiled programs run inside
/// worker threads with per-worker register scratch and stats sinks.
#[test]
fn expr_eval_parallel_morsel_differential() {
    let corpus = [
        "for $x in 1 to 4000 \
         let $y := $x * 3 \
         where $y mod 7 = 0 \
         return <r>{$y}</r>",
        "for $x at $i in 2 to 4001 \
         where $x mod 997 = 0 \
         return <r>{$i}:{$x}</r>",
        "for $x in 1 to 5000 \
         group by $x mod 7 into $k \
         nest $x into $xs \
         order by $k \
         return <g>{$k}|{count($xs)}|{sum($xs)}</g>",
        "(for $x in 1 to 5000 \
          order by $x mod 10 \
          return at $r <r rank=\"{$r}\">{$x}</r>)[position() le 25]",
    ];
    for query in corpus {
        assert_expr_evals_identical(query, &DynamicContext::new());
    }
}

/// Forced-bytecode runs on queries whose for/let/where clauses are all
/// in the scalar subset must actually execute compiled programs — and
/// forced-tree runs must execute none.
#[test]
fn forced_bytecode_actually_compiles() {
    let lowering_corpus = [
        "for $x in 1 to 100 where $x mod 3 = 0 return $x",
        "for $x in 1 to 50 let $y := $x * 2 + 1 where $y > 20 return $y",
        "for $x in 1 to 20 \
         count $c \
         let $y := $x * $c \
         where $y mod 2 = 0 \
         return <r>{$c}:{$y}</r>",
    ];
    let ctx = DynamicContext::new();
    for query in lowering_corpus {
        let before = ctx.stats.snapshot();
        hinted_engine("expr=bytecode", 1)
            .compile(query)
            .expect("compile")
            .run(&ctx)
            .expect("run");
        let mid = ctx.stats.snapshot();
        hinted_engine("expr=tree", 1)
            .compile(query)
            .expect("compile")
            .run(&ctx)
            .expect("run");
        let after = ctx.stats.snapshot();
        assert!(
            mid.expr_compiled > before.expr_compiled,
            "forced bytecode executed no compiled programs for:\n{query}"
        );
        assert_eq!(
            mid.expr_fallback, before.expr_fallback,
            "fully-lowerable query recorded fallbacks for:\n{query}"
        );
        assert_eq!(
            after.expr_compiled, mid.expr_compiled,
            "forced tree executed compiled programs for:\n{query}"
        );
        assert_eq!(
            after.expr_fallback, mid.expr_fallback,
            "tree mode must not count fallbacks for:\n{query}"
        );
    }
}

// ---- join unnesting ----------------------------------------------------
//
// Every query below is evaluated four ways — join strategy forced to
// `hash` and forced to `nested`, each at threads=1 and threads=4. All
// four serialized results must be byte-identical: the hash join is a
// pure join-method substitution for the nested loop, never a semantic
// one. Every corpus entry is a joinable shape, so the hash-mode plans
// are additionally required to carry the `[hash join ...]` annotation
// and the nested-mode plans not to.

fn assert_join_modes_identical(query: &str, ctx: &DynamicContext) {
    let mut outputs: Vec<(String, String)> = Vec::new();
    for threads in [1usize, 4] {
        for mode in ["join=hash", "join=nested"] {
            let engine = hinted_engine(mode, threads);
            let plan = engine
                .compile(query)
                .unwrap_or_else(|e| panic!("compile ({mode}, threads={threads}): {e}\n{query}"));
            assert_eq!(
                plan.explain().contains("[hash join"),
                mode == "join=hash",
                "{mode} planned the wrong join:\n{query}\n{}",
                plan.explain()
            );
            let out = plan
                .run(ctx)
                .unwrap_or_else(|e| panic!("run ({mode}, threads={threads}): {e}\n{query}"));
            outputs.push((
                format!("{mode} threads={threads}"),
                serialize_sequence(&out),
            ));
        }
    }
    let (baseline_label, baseline) = &outputs[0];
    for (label, out) in &outputs[1..] {
        assert_eq!(
            baseline, out,
            "{baseline_label} and {label} disagree for:\n{query}"
        );
    }
}

/// Joinable shapes over the orders document: the paper's §6 self-join
/// baseline, `eq` and reversed-operand variants, a numeric key, the
/// existential semi-join, and a join feeding a top-k ranking pipeline.
const JOIN_CORPUS: [&str; 6] = [
    "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $li in //order/lineitem where $li/shipmode = $m return $li \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
    "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $li in //order/lineitem where $li/shipmode eq $m return $li \
         order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
    "for $m in distinct-values(//order/lineitem/shipmode) \
         let $items := for $li in //order/lineitem where $m = $li/shipmode return $li \
         order by string($m) \
         return <g>{count($items)}</g>",
    "for $q in distinct-values(//order/lineitem/quantity) \
         let $ls := for $li in //order/lineitem where $li/quantity = $q return $li \
         order by number($q) \
         return <g>{string($q)}:{count($ls)}</g>",
    "for $o in //order \
         where some $li in //order/lineitem[returnflag = \"R\"] satisfies \
             $li/shipmode = $o/lineitem[1]/shipmode \
         return <o>{count($o/lineitem)}</o>",
    "(for $m in distinct-values(//order/lineitem/shipmode) \
          let $items := for $li in //order/lineitem where $li/shipmode = $m return $li \
          order by count($items) descending, string($m) \
          return at $r <g rank=\"{$r}\">{string($m)}:{count($items)}</g>)\
         [position() le 3]",
];

#[test]
fn join_corpus_differential() {
    let ctx = orders_ctx();
    for query in JOIN_CORPUS {
        assert_join_modes_identical(query, &ctx);
    }
}

/// Large document-free shapes where the probe side (and in one case the
/// build side) splits into multiple morsels, exercising the shared
/// build cell, the eager parallel pre-build, and per-worker probing.
#[test]
fn join_large_morsel_differential() {
    let corpus = [
        "for $x in 1 to 3000 \
         let $m := for $y in (2, 4, 6, 8) where $y = $x mod 10 return $y \
         return <r>{$x}:{count($m)}</r>",
        "for $x in 1 to 1200 \
         let $m := for $y in 1 to 3000 where $y = $x * 2 return $y \
         return count($m)",
        "for $x in 1 to 3000 \
         where some $y in (3, 5, 7) satisfies $y = $x mod 11 \
         return $x",
    ];
    let ctx = DynamicContext::new();
    for query in corpus {
        assert_join_modes_identical(query, &ctx);
    }
}

/// Forced-hash runs must actually take the hash path — the build and
/// probe counters move — and forced-nested runs must leave them alone.
/// Joining a 50-row `rates` document to the lineitems on `quantity`,
/// the nested plan re-walks the lineitems once per rate, so it must
/// visit at least ten times the nodes the hash plan does: exact
/// counters at threads=1, 1 131 951 vs 22 462 when this floor was set.
#[test]
fn join_differential_takes_the_hash_path() {
    let run = |mode: &str, query: &str, ctx: &DynamicContext| {
        let before = ctx.stats.snapshot();
        let out = hinted_engine(mode, 1)
            .compile(query)
            .expect("compile")
            .run(ctx)
            .expect("run");
        (
            serialize_sequence(&out),
            ctx.stats.snapshot().delta(&before),
        )
    };
    let mut ctx = orders_ctx();
    let (_, hash) = run("join=hash", JOIN_CORPUS[0], &ctx);
    let (_, nested) = run("join=nested", JOIN_CORPUS[0], &ctx);
    assert!(hash.join_hash_probes > 0, "forced hash recorded no probes");
    assert!(
        hash.join_build_tuples > 0,
        "forced hash recorded no build tuples"
    );
    assert_eq!(
        nested.join_hash_probes, 0,
        "forced nested must not probe a hash table"
    );
    assert_eq!(
        nested.join_build_tuples, 0,
        "forced nested must not build a hash table"
    );

    let rates: String = (1..=50)
        .map(|q| format!("<rate><q>{q}</q></rate>"))
        .collect();
    let rates = xqa::parse_document(&format!("<rates>{rates}</rates>")).expect("rates parse");
    ctx.register_document("rates", &rates);
    let two_collection = "for $r in doc(\"rates\")//rate \
         let $ls := for $li in //lineitem where $li/quantity = $r/q return $li \
         order by number($r/q) \
         return <g>{string($r/q)}:{count($ls)}</g>";
    let (hashed, hash) = run("join=hash", two_collection, &ctx);
    let (looped, nested) = run("join=nested", two_collection, &ctx);
    assert_eq!(
        hashed, looped,
        "join modes disagree on the two-collection join"
    );
    assert!(
        nested.nodes_visited >= 10 * hash.nodes_visited,
        "nested visits {} nodes, hash {}: under 10x",
        nested.nodes_visited,
        hash.nodes_visited
    );
}

/// A query mixing lowerable and unloweable clauses records both
/// counters: the scalar `where` compiles while the path-valued `for`
/// binding falls back.
#[test]
fn mixed_query_counts_compiled_and_fallback() {
    let ctx = orders_ctx();
    let query = "for $li in //order/lineitem \
                 let $q := number($li/quantity) \
                 where $q >= 0 \
                 return $li/partkey";
    let before = ctx.stats.snapshot();
    hinted_engine("expr=bytecode", 1)
        .compile(query)
        .expect("compile")
        .run(&ctx)
        .expect("run");
    let after = ctx.stats.snapshot();
    assert!(
        after.expr_compiled > before.expr_compiled,
        "the scalar where clause must run compiled"
    );
    assert!(
        after.expr_fallback > before.expr_fallback,
        "the path-valued for and function-calling let must fall back"
    );
}

// ---- count-only nests -------------------------------------------------
//
// A nest read only as `count($nest)` keeps a running item count per
// group under `nest-agg=on` and every member under `nest-agg=off`. Both
// sides, each at threads=1 and threads=4, must serialize the same
// result or raise the same error, and the plan carries `agg count(`
// exactly when the rule fires.

#[allow(dead_code)] // the hint cells are for the plan suites
mod corpus;

/// About 1 300 lineitems: a `for` over them spans two morsels, so at
/// threads=4 the grouping runs on merged partials.
fn large_orders_ctx() -> DynamicContext {
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: 320,
        ..Default::default()
    });
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    ctx
}

/// Run `query` with `nest-agg` on and off (on top of `base` hints) at
/// threads 1 and 4; every outcome must be byte-identical. Returns
/// whether the rule fired (the `nest-agg=on` plan carries `agg
/// count(`); the `nest-agg=off` plan never does.
fn assert_nest_agg_identical(query: &str, base: &str, ctx: &DynamicContext) -> bool {
    let mut outcomes: Vec<(String, String)> = Vec::new();
    let mut fired = false;
    for agg in ["nest-agg=on", "nest-agg=off"] {
        let hints = [base, agg].join(",");
        for threads in [1usize, 4] {
            let plan = hinted_engine(&hints, threads)
                .compile(query)
                .unwrap_or_else(|e| panic!("compile [{hints}] threads={threads}: {e}\n{query}"));
            let carries = plan.explain().contains("agg count(");
            if agg == "nest-agg=off" {
                assert!(!carries, "[{hints}] plan aggregates:\n{}", plan.explain());
            } else {
                fired = carries;
            }
            let outcome = match plan.run(ctx) {
                Ok(seq) => serialize_sequence(&seq),
                Err(e) => format!("error: {e}"),
            };
            outcomes.push((format!("[{hints}] threads={threads}"), outcome));
        }
    }
    let (first, expected) = &outcomes[0];
    for (label, outcome) in &outcomes[1..] {
        assert_eq!(
            expected, outcome,
            "{first} and {label} disagree for:\n{query}"
        );
    }
    fired
}

/// Every grouping query of the shared corpus, the paper's `Qgb`
/// templates among them, and the `Q` templates under the implicit
/// group-by rewrite (whose synthesized nest is counted too).
#[test]
fn nest_agg_corpus_differential() {
    let ctx = large_orders_ctx();
    let (mut queries, mut fired) = (0, 0);
    for query in corpus::candidates() {
        if xqa::Engine::new().compile(&query).is_err() {
            continue;
        }
        for base in ["", "implicit-groupby=on"] {
            if query.contains("group by")
                || (!base.is_empty() && query.contains("distinct-values("))
            {
                queries += 1;
                fired += usize::from(assert_nest_agg_identical(&query, base, &ctx));
            }
        }
    }
    assert!(
        queries > 20,
        "only {queries} grouping queries in the corpus"
    );
    // The six `Qgb` templates, and under the rewrite the six `Q` ones.
    assert!(fired >= 18, "the rule fired on only {fired} of {queries}");
}

/// Shapes the rule must aggregate, and shapes it must decline.
#[test]
fn nest_agg_fires_exactly_on_count_only_nests() {
    let ctx = large_orders_ctx();
    let fires = [
        // `count($items)` in a post-group let, where and order by
        "for $li in //order/lineitem group by $li/shipmode into $m nest $li into $items \
         let $n := count($items) where count($items) ge 10 \
         order by count($items) descending, string($m) return <g>{string($m)}:{$n}</g>",
        // nest values of 0, 1 or 2 items per member, and of many
        "for $li in //order/lineitem group by $li/returnflag into $rf \
         nest ($li/quantity, $li/tax)[number(.) gt 25] into $vs, $li/* into $cs, \
         $li/nosuchchild into $none \
         order by string($rf) \
         return <g>{string($rf)}:{count($vs)}/{count($cs)}/{count($none)}</g>",
        // two nests, only the first counted
        "for $li in //order/lineitem group by $li/linestatus into $ls \
         nest $li into $items, $li/quantity into $qs order by string($ls) \
         return <g>{string($ls)}:{count($items)}|{sum($qs)}</g>",
        // a `using` key (one partial, linear probe)
        "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
         { deep-equal($a, $b) }; \
         for $li in //order/lineitem group by $li/shipmode into $m using local:eq \
         nest $li into $items order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        // `return at` ranks over counts
        "for $li in //order/lineitem group by $li/tax into $t nest $li into $items \
         order by count($items) descending, number($t) \
         return at $r <g r=\"{$r}\">{string($t)}:{count($items)}</g>",
        // a count inside a nested FLWOR of the return expression
        "for $li in //order/lineitem group by $li/shipinstruct into $s nest $li into $items \
         order by string($s) \
         return <g>{for $k in (1, 2) return count($items) * $k}</g>",
        // the nest expression fails on its 700th member, under either side
        "for $li at $i in //order/lineitem group by $li/shipmode into $m \
         nest (if ($i eq 700) then xs:integer(\"seven hundred\") else $li) into $items \
         return count($items)",
    ];
    let declines = [
        // the nest is ordered
        "for $li in //order/lineitem group by $li/shipmode into $m \
         nest $li order by string($li/shipdate) into $items order by string($m) \
         return <g>{string($m)}:{count($items)}</g>",
        // `$items` is read outside `count`
        "for $li in //order/lineitem group by $li/shipmode into $m nest $li into $items \
         order by string($m) \
         return <g>{count($items)}:{string($items[1]/partkey)}</g>",
        // `$items` is never read
        "for $li in //order/lineitem group by $li/shipmode into $m nest $li into $items \
         order by string($m) return string($m)",
    ];
    for query in fires {
        assert!(
            assert_nest_agg_identical(query, "", &ctx),
            "did not fire:\n{query}"
        );
    }
    for query in declines {
        assert!(
            !assert_nest_agg_identical(query, "", &ctx),
            "fired:\n{query}"
        );
    }
}
