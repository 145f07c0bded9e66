//! Dynamic-error parity between compiled expression programs and the
//! IR tree-walker. A lowered program must raise exactly the error the
//! tree-walker raises — same code, same message, and under parallel
//! execution the same first-failing-tuple selection — because programs
//! call the evaluator's own scalar kernels rather than reimplementing
//! their semantics.

use xqa::{DynamicContext, Engine, EngineOptions};

/// Runs `query` under every mode × thread combination; every run must
/// fail, all failures must render identically, and the message must
/// mention `expect` (an error code or message fragment).
fn assert_error_parity(query: &str, expect: &str) {
    let ctx = DynamicContext::new();
    let mut errors: Vec<(String, String)> = Vec::new();
    for threads in [1usize, 4] {
        for mode in ["expr=bytecode", "expr=tree"] {
            let engine = Engine::with_options(EngineOptions {
                threads,
                hints: mode.parse().unwrap(),
            });
            let err = engine
                .compile(query)
                .unwrap_or_else(|e| panic!("compile ({mode}, threads={threads}): {e}\n{query}"))
                .run(&ctx)
                .expect_err("query must raise a dynamic error");
            errors.push((format!("{mode} threads={threads}"), err.to_string()));
        }
    }
    let (baseline_label, baseline) = &errors[0];
    assert!(
        baseline.contains(expect),
        "expected error mentioning {expect:?}, got: {baseline}\n{query}"
    );
    for (label, err) in &errors[1..] {
        assert_eq!(
            baseline, err,
            "{baseline_label} and {label} raise different errors for:\n{query}"
        );
    }
}

#[test]
fn arith_type_error_parity() {
    assert_error_parity(
        "for $x in 1 to 100 let $y := $x + \"a\" return $y",
        "XPTY0004",
    );
}

#[test]
fn division_by_zero_parity() {
    assert_error_parity(
        "for $x in 1 to 100 let $y := $x idiv ($x - $x) return $y",
        "integer division by zero",
    );
}

#[test]
fn modulus_by_zero_parity() {
    assert_error_parity(
        "for $x in 1 to 100 where $x mod ($x - $x) = 0 return $x",
        "modulus by zero",
    );
}

#[test]
fn integer_overflow_parity() {
    assert_error_parity(
        "for $x in 1 to 10 let $y := 9223372036854775807 + $x return $y",
        "integer overflow",
    );
}

#[test]
fn cast_failure_parity() {
    // The `for` binding is a literal sequence (lowering declines), but
    // the failing cast sits in a lowered `let` program: the error
    // fires at the third tuple in both evaluators.
    assert_error_parity(
        "for $s in (\"1\", \"2\", \"x\") let $n := $s cast as xs:integer return $n",
        "cannot cast",
    );
}

#[test]
fn empty_cast_without_optional_parity() {
    assert_error_parity(
        "for $x in 1 to 3 let $e := () cast as xs:integer return $e",
        "cast of an empty sequence",
    );
}

#[test]
fn comparison_type_error_parity() {
    assert_error_parity("for $x in 1 to 50 where $x eq \"a\" return $x", "XPTY0004");
}

/// Multi-morsel input where two different tuples raise two *different*
/// errors: the serial scan hits the division at $x = 1200 before the
/// type error at $x = 2500, so every combination — including parallel
/// bytecode, where workers race over morsels — must surface the
/// division error, proving first-failing-morsel selection is preserved
/// through compiled programs.
#[test]
fn first_failing_morsel_parity() {
    assert_error_parity(
        "for $x in 1 to 4000 \
         let $y := if ($x = 1200) then $x idiv ($x - $x) \
                   else if ($x = 2500) then $x + \"a\" \
                   else $x \
         return $y",
        "integer division by zero",
    );
}

/// The same shape with only the later (type) error left in place:
/// proves the harness above really can observe the other error, so the
/// first-failing-morsel assertion is not vacuous.
#[test]
fn later_morsel_error_surfaces_when_alone() {
    assert_error_parity(
        "for $x in 1 to 4000 \
         let $y := if ($x = 2500) then $x + \"a\" else $x \
         return $y",
        "XPTY0004",
    );
}
