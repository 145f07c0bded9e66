//! `return at $rank` under the streaming pipeline: interaction with
//! post-group `let`/`where`, ordered nests, the top-k pushdown, and the
//! empty-input / single-group edge cases. Unlike the differential
//! suite, these assert exact outputs.

use xqa::{DynamicContext, Engine};

fn run(query: &str) -> String {
    let engine = Engine::new();
    let compiled = engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"));
    let ctx = DynamicContext::new();
    let result = compiled
        .run(&ctx)
        .unwrap_or_else(|e| panic!("run: {e}\n{query}"));
    xqa::serialize_sequence(&result)
}

#[test]
fn rank_after_post_group_let_and_where() {
    // Groups: a=3, b=2, c=1; the where prunes c, so ranks renumber
    // over the surviving groups only.
    let out = run("for $s in (\"a\", \"b\", \"a\", \"c\", \"b\", \"a\") \
         group by $s into $k \
         nest $s into $items \
         let $n := count($items) \
         where $n ge 2 \
         order by $n descending, string($k) \
         return at $r <g rank=\"{$r}\">{string($k)}:{$n}</g>");
    assert_eq!(out, "<g rank=\"1\">a:3</g><g rank=\"2\">b:2</g>");
}

#[test]
fn rank_with_ordered_nest() {
    // The nest is sorted per group; the rank numbers the groups.
    let out = run("for $x in (5, 3, 8, 1, 6) \
         group by ($x mod 2) into $k \
         nest $x order by $x into $xs \
         order by string($k) \
         return at $r <g r=\"{$r}\">{$xs}</g>");
    assert_eq!(out, "<g r=\"1\">6 8</g><g r=\"2\">1 3 5</g>");
}

#[test]
fn rank_renumbers_after_where() {
    let out = run("for $x in (10, 20, 30, 40) where $x gt 15 return at $r $r");
    assert_eq!(out, "1 2 3");
}

#[test]
fn rank_with_window_clause() {
    let out = run("for tumbling window $w in (1 to 7) \
         start at $s when $s mod 3 = 1 \
         return at $r <w r=\"{$r}\">{sum($w)}</w>");
    assert_eq!(out, "<w r=\"1\">6</w><w r=\"2\">15</w><w r=\"3\">7</w>");
}

#[test]
fn rank_empty_input() {
    assert_eq!(run("for $x in () order by $x return at $r $r"), "");
    assert_eq!(
        run("for $x in () \
             group by $x into $k nest $x into $xs \
             order by string($k) \
             return at $r <g>{$r}</g>"),
        ""
    );
}

#[test]
fn rank_single_group() {
    // All tuples collapse into one group: exactly one rank, 1.
    let out = run("for $x in (7, 7, 7) \
         group by $x into $k \
         nest $x into $xs \
         order by $k \
         return at $r <g r=\"{$r}\">{count($xs)}</g>");
    assert_eq!(out, "<g r=\"1\">3</g>");
}

#[test]
fn topk_pushdown_on_grouped_rank() {
    // Residues 1..9 sum to 10r + 450; residue 0 sums to 550. The top 3
    // group sums descending are residues 0, 9, 8.
    let query = "(for $x in 1 to 100 \
         group by ($x mod 10) into $k \
         nest $x into $xs \
         order by sum($xs) descending \
         return at $r <t>{$r}:{string($k)}</t>)[position() le 3]";
    let compiled = Engine::new().compile(query).expect("compiles");
    assert!(
        compiled
            .applied_rewrites()
            .iter()
            .any(|r| r.contains("top-k pushdown")),
        "rewrites: {:?}",
        compiled.applied_rewrites()
    );
    assert!(
        compiled.explain().contains("OrderBy(limit=3) [heap]"),
        "explain:\n{}",
        compiled.explain()
    );
    let out = xqa::serialize_sequence(&compiled.run(&DynamicContext::new()).expect("runs"));
    assert_eq!(out, "<t>1:0</t><t>2:9</t><t>3:8</t>");
}

#[test]
fn topk_bound_larger_than_input() {
    let out = run(
        "(for $x in (3, 1, 2) order by $x return at $r <v>{$r}:{$x}</v>)\
         [position() le 10]",
    );
    assert_eq!(out, "<v>1:1</v><v>2:2</v><v>3:3</v>");
}

#[test]
fn topk_zero_bound() {
    let out = run(
        "(for $x in 1 to 20 order by $x descending return at $r <v>{$r}</v>)\
         [position() lt 1]",
    );
    assert_eq!(out, "");
}

#[test]
fn topk_bound_below_any_position() {
    // The folder hands the pushdown `i64::MIN`; `lt` / flipped `gt`
    // subtract one from it (a panic in a debug build).
    for bound in [
        "position() lt (-9223372036854775807 - 1)",
        "(-9223372036854775807 - 1) gt position()",
    ] {
        let out = run(&format!(
            "(for $x in 1 to 5 order by $x return <a>{{$x}}</a>)[{bound}]"
        ));
        assert_eq!(out, "", "{bound}");
    }
}

#[test]
fn rank_stats_count_pruned_tuples() {
    // 20 inputs through a 5-slot heap: 15 tuples never leave the
    // order-by, and the stats say so.
    let query = "(for $x in 1 to 20 order by $x return at $r <v>{$x}</v>)\
         [position() le 5]";
    let compiled = Engine::new().compile(query).expect("compiles");
    let ctx = DynamicContext::new();
    compiled.run(&ctx).expect("runs");
    let stats = ctx.stats.snapshot();
    assert_eq!(stats.tuples_produced, 20);
    assert_eq!(stats.tuples_pruned_topk, 15);
}
