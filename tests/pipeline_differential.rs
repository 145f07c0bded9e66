//! Differential tests for the streaming tuple pipeline.
//!
//! The pipeline is held against itself across degrees of parallelism
//! and across both sides of each plan hint (`access`, `join`,
//! `nest-agg`).
//! Every query here is evaluated at threads=1 (profiled — the run that
//! also asserts instrumentation never changes results and that every
//! FLWOR records its operator pipeline) and at threads=4, and the
//! serialized results must be byte-identical.

use xqa::xdm::ErrorCode;
use xqa::{serialize_sequence, DynamicContext, Engine, EngineOptions};

/// An engine pinned to `hints` (the `--hint` grammar) at `threads`.
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

// Windows against an independent oracle: generated integer sequences
// and window clauses, evaluated by the engine at threads 1 and 4 and by
// a plain-Rust reading of the XQuery 3.0 window semantics (at the end of
// this file, so that the string literals it adds to the query corpus
// come after the existing ones).

/// Seeds of [`windows_match_the_oracle`]: one generated window clause
/// each, over [`ORACLE_ROWS`] sequences.
const ORACLE_SEEDS: u64 = 256;

/// The outer `for` values that get a window input; every other value
/// of `1 to 1100` (more than one morsel) windows the empty sequence.
const ORACLE_ROWS: [i64; 8] = [137, 274, 411, 548, 685, 822, 959, 1096];

/// Generated tumbling and sliding windows — with and without `end` and
/// `only end`, binding every boundary variable — match the oracle at
/// threads 1 and 4. The outer `for` binds more than one morsel and an
/// `order by $o`, which keeps the input order, follows the window, so
/// at threads 4 the exchange runs the window operator on its workers.
#[test]
fn windows_match_the_oracle() {
    let (serial, parallel) = threaded_engines();
    for seed in 0..ORACLE_SEEDS {
        let mut rng = xqa_workload::DetRng::seed_from_u64(seed);
        let spec = WindowSpec::draw(&mut rng);
        let rows: Vec<Vec<i64>> = ORACLE_ROWS
            .iter()
            .map(|_| {
                let len = rng.gen_range(0..=12usize);
                (0..len).map(|_| rng.gen_range(0..6i64)).collect()
            })
            .collect();
        let query = spec.query(&rows);
        let expected = spec.oracle(&rows);
        for (engine, threads) in [(&serial, 1), (&parallel, 4)] {
            let mut ctx = DynamicContext::new();
            ctx.enable_profiling();
            let result = engine
                .compile(&query)
                .and_then(|plan| plan.run(&ctx))
                .unwrap_or_else(|e| panic!("seed {seed}, threads={threads}: {e}\n{query}"));
            let profile = ctx.take_profile().expect("profiling was enabled");
            let workers = profile.pipelines.iter().map(|p| p.workers).max();
            assert!(
                threads == 1 || workers > Some(1),
                "seed {seed}: the exchange did not run at threads={threads}"
            );
            assert_eq!(
                serialize_sequence(&result),
                expected,
                "seed {seed}, threads={threads} differs from the oracle for:\n{query}"
            );
        }
    }
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

/// Asserts that `query` runs behind the exchange at threads 4 under
/// `hints`: its profiled run fans out to more than one worker.
fn assert_exchanges(query: &str, hints: &str) {
    let mut ctx = DynamicContext::new();
    ctx.enable_profiling();
    hinted_engine(hints, 4)
        .compile(query)
        .and_then(|plan| plan.run(&ctx))
        .unwrap_or_else(|e| panic!("run (threads=4): {e}\n{query}"));
    let profile = ctx.take_profile().expect("profiling was enabled");
    let workers = profile.pipelines.iter().map(|p| p.workers).max();
    assert!(workers > Some(1), "no exchange at threads=4:\n{query}");
}

/// The orders-document corpus of the threads differential.
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

/// The document-free corpus of the same differential.
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

/// The full corpus above and [`MIXED_CLAUSES`], replayed as a threads=1
/// vs threads=4 differential. Inputs below one morsel take the
/// pre-seeded serial fallback; the large-input tests further down
/// exercise the real multi-worker split.
#[test]
fn parallel_corpus_differential() {
    for query in ORDERS_CORPUS.into_iter().chain([MIXED_CLAUSES]) {
        assert_threads_identical_ctx(query, &mut orders_ctx());
    }
    for query in PLAIN_CORPUS {
        assert_threads_identical_ctx(query, &mut DynamicContext::new());
    }
}

#[test]
fn parallel_large_streamed_chain() {
    // No breaker: the serial chain at every thread count.
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
    let query = corpus::behind_exchange(
        "for $x at $i in 2 to 4001 \
         where $x mod 997 = 0 \
         return <r>{$i}:{$x}</r>",
    );
    assert_exchanges(&query, "");
    assert_threads_identical_ctx(&query, &mut DynamicContext::new());
}

#[test]
fn parallel_large_rank_without_order() {
    // No breaker, with `return at`: the serial chain at every thread
    // count.
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
    // raises first, even when later morsels would also fail. The error
    // is raised in `return`, so at threads 4 this breaker-free chain
    // runs serially; `expr_error_semantics.rs` raises errors in two
    // morsels behind the exchange.
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
    indexed(orders_ctx())
}

/// `ctx` with its documents indexed and their statistics merged.
fn indexed(
    mut ctx: xqa::DynamicContext,
) -> (
    xqa::DynamicContext,
    std::sync::Arc<xqa::storage::CatalogStatistics>,
) {
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
    let mut zeros = DynamicContext::new();
    zeros.set_context_document(&xqa::parse_document(SIGNED_ZEROS_DOC).unwrap());
    let (ctx, stats) = indexed(zeros);
    for query in SIGNED_ZEROS_CORPUS {
        assert_access_paths_identical(query, &ctx, &stats);
    }
}

/// `-0`, `0` and `0e0` are all `eq 0`: a numeric probe must find both
/// zero leaves whichever zero it spells.
const SIGNED_ZEROS_DOC: &str = "<r><x><v>-0</v></x><x><v>0</v></x><x><v>1</v></x></r>";
const SIGNED_ZEROS_CORPUS: [&str; 3] = [
    "count(//x[v = 0])",
    "count(//x[v = -0e0])",
    "count(//x[v = 0e0])",
];

/// The paper-workload access-path corpus.
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

// ---- scalar-heavy shapes ----------------------------------------------
//
// Arithmetic, `mod`, `count` and `sum` in `let`, `where` and group keys,
// within one morsel and across several, replayed threads=1 vs threads=4
// like the large-input shapes above.

#[test]
fn expr_eval_parallel_morsel_differential() {
    let corpus = [
        "for $x in 1 to 5000 \
         group by $x mod 7 into $k \
         nest $x into $xs \
         order by $k \
         return <g>{$k}|{count($xs)}|{sum($xs)}</g>",
        "for $x in 1 to 100 where $x mod 3 = 0 return $x",
        "for $x in 1 to 50 let $y := $x * 2 + 1 where $y > 20 return $y",
        "for $x in 1 to 20 \
         count $c \
         let $y := $x * $c \
         where $y mod 2 = 0 \
         return <r>{$c}:{$y}</r>",
    ];
    for query in corpus {
        assert_threads_identical_ctx(query, &mut DynamicContext::new());
    }
}

// ---- join unnesting ----------------------------------------------------
//
// Every query below is evaluated four ways — join strategy forced to
// `hash` and forced to `nested`, each at threads=1 and threads=4. All
// four outcomes must be identical, the serialized results byte for
// byte, an error by its code: the hash join is a pure join-method
// substitution for the nested loop, never a semantic one. Every corpus
// entry is a joinable shape, so the hash-mode plans are additionally
// required to carry the `[hash join ...]` annotation and the
// nested-mode plans not to.

/// The one outcome of `query` under all four join modes.
fn join_modes_outcome(query: &str, ctx: &DynamicContext) -> Result<String, ErrorCode> {
    let mut outputs = Vec::new();
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
                .map(|items| serialize_sequence(&items))
                .map_err(|e| e.code());
            outputs.push((format!("{mode} threads={threads}"), out));
        }
    }
    let (baseline_label, baseline) = &outputs[0];
    for (label, out) in &outputs[1..] {
        assert_eq!(
            baseline, out,
            "{baseline_label} and {label} disagree for:\n{query}"
        );
    }
    outputs.swap_remove(0).1
}

fn assert_join_modes_identical(query: &str, ctx: &DynamicContext) {
    if let Err(code) = join_modes_outcome(query, ctx) {
        panic!("every join mode raised {code:?} for:\n{query}");
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

/// Table 1's one-key `Q` with a type declared on the `for`, then on the
/// `let`: both joinable, and both must raise the same XPTY0004 however
/// the join runs.
const TYPED_JOIN_CORPUS: [&str; 2] = [
    "for $a as xs:integer in distinct-values(//order/lineitem/shipmode) \
         let $items := for $i in //order/lineitem where $i/shipmode = $a return $i \
         return <r>{$a}|{count($items)}</r>",
    "for $a in distinct-values(//order/lineitem/shipmode) \
         let $items as element(order)* := \
             for $i in //order/lineitem where $i/shipmode = $a return $i \
         return <r>{$a}|{count($items)}</r>",
];

#[test]
fn typed_join_corpus_raises_the_same_error() {
    let ctx = orders_ctx();
    for query in TYPED_JOIN_CORPUS {
        assert_eq!(
            join_modes_outcome(query, &ctx),
            Err(ErrorCode::XPTY0004),
            "{query}"
        );
    }
}

/// Document-free shapes: large ones where the probe side (and in one
/// case the build side) splits into multiple morsels, exercising the
/// shared build cell and per-worker probing (again behind the exchange,
/// given a breaker), and mixed-type numeric keys whose promotion to
/// `xs:double` rounds (`9007199254740993 = 9007199254740992e0` holds),
/// which must hash to one bucket.
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
        "for $x in (9007199254740993, 1) \
         let $m := for $y in (9007199254740992e0, 1e0) where $y = $x return $y \
         return count($m)",
        "for $x in (9007199254740993, 1) \
         where some $y in (9007199254740992e0, 1e0) satisfies $y eq $x \
         return $x",
    ];
    let ctx = DynamicContext::new();
    for query in corpus {
        assert_join_modes_identical(query, &ctx);
    }
    for query in &corpus[..3] {
        let query = corpus::behind_exchange(query);
        assert_exchanges(&query, "join=hash");
        assert_join_modes_identical(&query, &ctx);
    }
}

/// Behind the exchange every worker probes one shared build: however
/// many first probes race, SRC is keyed once per FLWOR execution. At
/// threads=4, over an outer `for` of three morsels, a join directly
/// behind the `for` and one behind a filtering clause (a second `for`
/// keeping one outer item in three; `where` may not precede a `let`)
/// count exactly what they count at threads=1: |SRC| build tuples and
/// one hash probe per probing tuple. An `order by $x` puts each behind
/// the exchange.
#[test]
fn join_builds_once_behind_the_exchange() {
    let corpus = [
        (
            "for $x in 1 to 3000 \
             let $m := for $y in 1 to 50 where $y = $x mod 100 return $y \
             return count($m)",
            3000,
        ),
        (
            "for $x in 1 to 3000, $z in $x[. mod 3 = 0] \
             let $m := for $y in 1 to 50 where $y = $z mod 100 return $y \
             return count($m)",
            1000,
        ),
    ];
    let ctx = DynamicContext::new();
    for (query, probes) in corpus {
        let query = corpus::behind_exchange(query);
        assert_exchanges(&query, "join=hash");
        for threads in [1, 4] {
            let before = ctx.stats.snapshot();
            hinted_engine("join=hash", threads)
                .compile(&query)
                .expect("compile")
                .run(&ctx)
                .expect("run");
            let d = ctx.stats.snapshot().delta(&before);
            assert_eq!(
                (d.join_build_tuples, d.join_hash_probes),
                (50, probes),
                "threads={threads}: (build tuples, hash probes) for:\n{query}"
            );
        }
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

/// A path-valued `for`, a function-calling `let` and a scalar `where`
/// in one FLWOR over the orders document, for the threads differential.
const MIXED_CLAUSES: &str = "for $li in //order/lineitem \
     let $q := number($li/quantity) \
     where $q >= 0 \
     return $li/partkey";

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

// ---- the window oracle ------------------------------------------------

/// The variables one window boundary binds: the item, its 1-based
/// position and its neighbours.
#[derive(Clone, Copy)]
struct Boundary {
    item: i64,
    at: i64,
    previous: Option<i64>,
    next: Option<i64>,
}

impl Boundary {
    fn of(items: &[i64], i: usize) -> Boundary {
        Boundary {
            item: items[i],
            at: i as i64 + 1,
            previous: i.checked_sub(1).map(|p| items[p]),
            next: items.get(i + 1).copied(),
        }
    }
}

/// A window `when` condition. The last three read the start boundary
/// too, so they only appear as end conditions.
#[derive(Clone, Copy)]
enum Cond {
    True,
    ItemMod(i64, i64),
    AtMod(i64, i64),
    Rises,
    NextEquals,
    SpanAtLeast(i64),
    AboveStart,
    Last,
}

impl Cond {
    fn draw(rng: &mut xqa_workload::DetRng, end: bool) -> Cond {
        let k = rng.gen_range(2..=4i64);
        let r = rng.gen_range(0..k);
        match rng.gen_range(0..if end { 8 } else { 5 }) {
            0 => Cond::True,
            1 => Cond::ItemMod(k, r),
            2 => Cond::AtMod(k, r),
            3 => Cond::Rises,
            4 => Cond::NextEquals,
            5 => Cond::SpanAtLeast(r),
            6 => Cond::AboveStart,
            _ => Cond::Last,
        }
    }

    /// The `when` expression over boundary variables `[item, at,
    /// previous, next]`, with `$s`/`$i` the start's item and position.
    fn xquery(self, [item, at, previous, next]: [&str; 4]) -> String {
        match self {
            Cond::True => "true()".to_string(),
            Cond::ItemMod(k, r) => format!("{item} mod {k} = {r}"),
            Cond::AtMod(k, r) => format!("{at} mod {k} = {r}"),
            Cond::Rises => format!("empty({previous}) or {previous} lt {item}"),
            Cond::NextEquals => format!("{next} = {item}"),
            Cond::SpanAtLeast(l) => format!("{at} - $i ge {l}"),
            Cond::AboveStart => format!("{item} gt $s"),
            Cond::Last => format!("empty({next})"),
        }
    }

    fn holds(self, b: &Boundary, start: &Boundary) -> bool {
        match self {
            Cond::True => true,
            Cond::ItemMod(k, r) => b.item % k == r,
            Cond::AtMod(k, r) => b.at % k == r,
            Cond::Rises => b.previous.is_none_or(|p| p < b.item),
            Cond::NextEquals => b.next == Some(b.item),
            Cond::SpanAtLeast(l) => b.at - start.at >= l,
            Cond::AboveStart => b.item > start.item,
            Cond::Last => b.next.is_none(),
        }
    }
}

struct WindowSpec {
    sliding: bool,
    start: Cond,
    end: Option<Cond>,
    only_end: bool,
}

const START_VARS: [&str; 4] = ["$s", "$i", "$p", "$n"];
const END_VARS: [&str; 4] = ["$e", "$j", "$ep", "$en"];

impl WindowSpec {
    fn draw(rng: &mut xqa_workload::DetRng) -> WindowSpec {
        let sliding = rng.gen_bool(0.5);
        // The parser requires `end` on a sliding window.
        let end = (sliding || rng.gen_bool(0.5)).then(|| Cond::draw(rng, true));
        WindowSpec {
            sliding,
            start: Cond::draw(rng, false),
            only_end: end.is_some() && rng.gen_bool(0.5),
            end,
        }
    }

    fn query(&self, rows: &[Vec<i64>]) -> String {
        let mut input = String::new();
        for (o, items) in ORACLE_ROWS.iter().zip(rows) {
            let items: Vec<String> = items.iter().map(i64::to_string).collect();
            input += &format!("if ($o = {o}) then ({}) else ", items.join(", "));
        }
        let mut q = format!(
            "for $o in 1 to 1100 for {} window $w in ({input}()) \
             start $s at $i previous $p next $n when {}",
            if self.sliding { "sliding" } else { "tumbling" },
            self.start.xquery(START_VARS)
        );
        let mut attrs = r#"o="{$o}" s="{$s}" i="{$i}" p="{$p}" n="{$n}""#.to_string();
        if let Some(end) = self.end {
            let only = if self.only_end { "only " } else { "" };
            q += &format!(
                " {only}end $e at $j previous $ep next $en when {}",
                end.xquery(END_VARS)
            );
            attrs += r#" e="{$e}" j="{$j}" ep="{$ep}" en="{$en}""#;
        }
        q + &format!(" order by $o return <w {attrs}>{{$w}}</w>")
    }

    /// The serialized result by the XQuery 3.0 rules: a window starts at
    /// every item satisfying `start` (in a tumbling window, only after
    /// the previous window's end) and ends at the first item from there
    /// satisfying `end`; without one it runs to the end of the sequence
    /// and is dropped under `only end`. A tumbling window without `end`
    /// ends just before the next item satisfying `start`.
    fn oracle(&self, rows: &[Vec<i64>]) -> String {
        let opt = |v: Option<i64>| v.map_or(String::new(), |v| v.to_string());
        let mut out = String::new();
        for (o, items) in ORACLE_ROWS.iter().zip(rows) {
            let at = |i| Boundary::of(items, i);
            let mut free = 0;
            for first in 0..items.len() {
                let s = at(first);
                if first < free || !self.start.holds(&s, &s) {
                    continue;
                }
                let (last, closed) = match self.end {
                    Some(end) => (first..items.len())
                        .find(|&j| end.holds(&at(j), &s))
                        .map_or((items.len() - 1, false), |j| (j, true)),
                    None => (first + 1..items.len())
                        .find(|&j| self.start.holds(&at(j), &at(j)))
                        .map_or((items.len() - 1, true), |j| (j - 1, true)),
                };
                if !self.sliding {
                    free = last + 1;
                }
                if !closed && self.only_end {
                    continue;
                }
                out += &format!(
                    r#"<w o="{o}" s="{}" i="{}" p="{}" n="{}""#,
                    s.item,
                    s.at,
                    opt(s.previous),
                    opt(s.next)
                );
                if self.end.is_some() {
                    let e = at(last);
                    out += &format!(
                        r#" e="{}" j="{}" ep="{}" en="{}""#,
                        e.item,
                        e.at,
                        opt(e.previous),
                        opt(e.next)
                    );
                }
                let window: Vec<String> = items[first..=last].iter().map(i64::to_string).collect();
                out += &format!(">{}</w>", window.join(" "));
            }
        }
        out
    }
}
