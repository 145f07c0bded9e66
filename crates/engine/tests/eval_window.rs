//! XQuery 3.0 window clauses (`for tumbling|sliding window`) and the
//! `count` clause — the standardized descendants of the paper's
//! moving-window motivation (§3.4.1) and output-numbering proposal (§4).

use xqa_engine::{DynamicContext, Engine};
use xqa_xdm::ErrorCode;
use xqa_xmlparse::{parse_document, serialize_sequence};

fn run(query: &str) -> String {
    let engine = Engine::new();
    let compiled = engine
        .compile(query)
        .unwrap_or_else(|e| panic!("compile {query:?}: {e}"));
    let doc = parse_document("<empty/>").unwrap();
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    let result = compiled
        .run(&ctx)
        .unwrap_or_else(|e| panic!("run {query:?}: {e}"));
    serialize_sequence(&result)
}

// ---- tumbling windows -------------------------------------------------

#[test]
fn tumbling_fixed_size_by_position() {
    // Classic fixed-size batches of 3.
    let out = run("for tumbling window $w in (1 to 10) \
         start at $s when $s mod 3 = 1 \
         return <w>{sum($w)}</w>");
    // windows: (1,2,3) (4,5,6) (7,8,9) (10)
    assert_eq!(out, "<w>6</w><w>15</w><w>24</w><w>10</w>");
}

#[test]
fn tumbling_with_end_condition() {
    let out = run("for tumbling window $w in (2, 4, 6, 1, 3, 8, 10, 5) \
         start $s when $s mod 2 = 0 \
         end $e when $e mod 2 = 1 \
         return <w>{$w}</w>");
    // starts at 2 (even); ends at first odd (1): window 2 4 6 1.
    // next start at 8; ends at 5: window 8 10 5.
    assert_eq!(out, "<w>2 4 6 1</w><w>8 10 5</w>");
}

#[test]
fn tumbling_only_end_drops_unclosed_windows() {
    let base = "for tumbling window $w in (2, 4, 1, 6, 8) \
                start $s when $s mod 2 = 0 END $e when $e mod 2 = 1 \
                return <w>{$w}</w>";
    // Without `only`: the trailing window (6, 8) closes at sequence end.
    let lenient = run(&base.replace("END", "end"));
    assert_eq!(lenient, "<w>2 4 1</w><w>6 8</w>");
    // With `only end`: it is dropped.
    let strict = run(&base.replace("END", "only end"));
    assert_eq!(strict, "<w>2 4 1</w>");
}

#[test]
fn tumbling_windows_partition_input_when_start_is_true() {
    // start when true() => every item begins a window => singletons.
    let out = run("for tumbling window $w in (\"a\", \"b\", \"c\") \
         start when true() \
         return <w>{$w}</w>");
    assert_eq!(out, "<w>a</w><w>b</w><w>c</w>");
}

#[test]
fn tumbling_skips_items_before_first_start() {
    let out = run("for tumbling window $w in (1, 3, 4, 5, 6) \
         start $s when $s mod 2 = 0 \
         return <w>{$w}</w>");
    // 1, 3 precede the first start; windows: (4,5) then (6).
    assert_eq!(out, "<w>4 5</w><w>6</w>");
}

// ---- sliding windows ---------------------------------------------------

#[test]
fn sliding_fixed_width_windows() {
    let out = run("for sliding window $w in (1 to 6) \
         start at $s when true() \
         end at $e when $e - $s = 2 \
         return <w>{sum($w)}</w>");
    // windows of width 3 starting at every position: (1,2,3) (2,3,4)
    // (3,4,5) (4,5,6), then (5,6) and (6) close at the sequence end.
    assert_eq!(out, "<w>6</w><w>9</w><w>12</w><w>15</w><w>11</w><w>6</w>");
}

#[test]
fn sliding_only_end_keeps_full_windows() {
    let out = run("for sliding window $w in (1 to 6) \
         start at $s when true() \
         only end at $e when $e - $s = 2 \
         return <w>{sum($w)}</w>");
    assert_eq!(out, "<w>6</w><w>9</w><w>12</w><w>15</w>");
}

#[test]
fn sliding_requires_end_condition() {
    let engine = Engine::new();
    let err = engine
        .compile("for sliding window $w in (1 to 3) start when true() return $w")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::XPST0003);
    assert!(err.to_string().contains("end condition"), "{err}");
}

/// Conditions are tested in one order — `start` at `i`, then `end` from
/// `i` — so when two `when`s would raise, the one tested first does.
#[test]
fn a_raising_condition_raises_in_evaluation_order() {
    let raised = |query: &str| {
        Engine::new()
            .compile(query)
            .and_then(|plan| plan.run(&DynamicContext::new()))
            .expect_err("a condition raises")
            .to_string()
    };
    let tumbling = raised(
        "for tumbling window $w in (1 to 5) \
         start at $s when (if ($s = 3) then error(\"x\", \"start at 3\") else true()) \
         end at $e when (if ($e = 2) then error(\"x\", \"end at 2\") else $e = $s) \
         return $w",
    );
    assert!(tumbling.contains("end at 2"), "{tumbling}");
    let sliding = raised(
        "for sliding window $w in (1 to 5) \
         start at $s when (if ($s = 2) then error(\"x\", \"start at 2\") else true()) \
         end at $e when (if ($e = 3) then error(\"x\", \"end at 3\") else false()) \
         return $w",
    );
    assert!(sliding.contains("end at 3"), "{sliding}");
}

// ---- window condition variables ----------------------------------------

#[test]
fn boundary_item_previous_next_variables() {
    let out = run("for tumbling window $w in (10, 20, 30, 40) \
         start $first at $i previous $prev next $nxt when $i mod 2 = 1 \
         return <w first=\"{$first}\" i=\"{$i}\" prev=\"{$prev}\" next=\"{$nxt}\">{count($w)}</w>");
    assert_eq!(
        out,
        "<w first=\"10\" i=\"1\" prev=\"\" next=\"20\">2</w>\
         <w first=\"30\" i=\"3\" prev=\"20\" next=\"40\">2</w>"
    );
}

#[test]
fn end_condition_sees_start_variables() {
    // Windows that end when the value doubles the starting value.
    let out = run("for tumbling window $w in (2, 3, 4, 5, 10, 3, 7) \
         start $s when true() \
         end $e when $e >= 2 * $s \
         return <w>{$w}</w>");
    // Start at 2, end at 4: (2,3,4). Start at 5, end at 10: (5,10).
    // Start at 3, end at 7: (3,7).
    assert_eq!(out, "<w>2 3 4</w><w>5 10</w><w>3 7</w>");
}

#[test]
fn window_vars_remain_in_scope_for_later_clauses() {
    let out = run("for tumbling window $w in (1 to 9) \
         start $s at $i when $i mod 3 = 1 \
         let $total := sum($w) \
         where $total > 10 \
         order by $total descending \
         return <w start=\"{$s}\">{$total}</w>");
    assert_eq!(out, "<w start=\"7\">24</w><w start=\"4\">15</w>");
}

#[test]
fn windows_over_nodes_from_documents() {
    // Sessionizing sales: new window whenever the region changes.
    let engine = Engine::new();
    let doc = parse_document(
        "<sales>\
         <sale><region>W</region><amount>1</amount></sale>\
         <sale><region>W</region><amount>2</amount></sale>\
         <sale><region>E</region><amount>3</amount></sale>\
         <sale><region>W</region><amount>4</amount></sale>\
         </sales>",
    )
    .unwrap();
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    let q = engine
        .compile(
            "for tumbling window $run in //sale \
             start $s previous $p when empty($p) or string($s/region) != string($p/region) \
             return <run region=\"{$run[1]/region}\">{sum($run/amount)}</run>",
        )
        .unwrap();
    let out = serialize_sequence(&q.run(&ctx).unwrap());
    assert_eq!(
        out,
        "<run region=\"W\">3</run><run region=\"E\">3</run><run region=\"W\">4</run>"
    );
}

#[test]
fn empty_binding_sequence_yields_no_windows() {
    assert_eq!(
        run("for tumbling window $w in () start when true() return <w/>"),
        ""
    );
}

#[test]
fn moving_average_via_sliding_window_matches_q8_formulation() {
    // The paper's Q8 intent in 3.0 syntax: average of each 3-sale window.
    let sliding = run("for sliding window $w in (4, 8, 15, 16, 23, 42) \
         start at $s when true() \
         only end at $e when $e - $s = 2 \
         return avg($w)");
    let nested = run("let $v := (4, 8, 15, 16, 23, 42) \
         return for $x at $i in $v \
                return (if ($i <= count($v) - 2) \
                        then avg(for $y at $j in $v \
                                 where $j >= $i and $j <= $i + 2 return $y) \
                        else ())");
    assert_eq!(sliding, nested);
}

// ---- the count clause ----------------------------------------------------

#[test]
fn count_clause_numbers_tuples() {
    assert_eq!(
        run("for $x in (\"a\", \"b\", \"c\") count $i return concat($i, $x)"),
        "1a 2b 3c"
    );
}

#[test]
fn count_interacts_with_where() {
    // count *before* the where keeps the original input numbering for
    // the surviving tuples.
    assert_eq!(
        run("for $x in (10, 20, 30, 40) count $i where $x > 15 return ($i, $x)"),
        "2 20 3 30 4 40"
    );
    // Numbering the *filtered* stream takes a nested FLWOR under the
    // paper's strict clause order.
    assert_eq!(
        run(
            "for $x in (for $y in (10, 20, 30, 40) where $y > 15 return $y) \
             count $i return ($i, $x)"
        ),
        "1 20 2 30 3 40"
    );
}

#[test]
fn count_vs_return_at_ordering_difference() {
    // `count` numbers the pre-sort stream; `return at` numbers output.
    let count_version =
        run("for $x in (30, 10, 20) count $i order by $x return concat($i, \":\", $x)");
    assert_eq!(count_version, "2:10 3:20 1:30");
    let at_version = run("for $x in (30, 10, 20) order by $x return at $i concat($i, \":\", $x)");
    assert_eq!(at_version, "1:10 2:20 3:30");
}

#[test]
fn count_works_with_group_by_pipeline() {
    // Number the groups in first-seen order.
    let out = run("for $x in (\"b\", \"a\", \"b\", \"c\", \"a\") \
         group by $x into $k \
         count $i \
         return concat($i, \"=\", $k)");
    assert_eq!(out, "1=b 2=a 3=c");
}
