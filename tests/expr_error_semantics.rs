//! Dynamic-error identity: a query that raises must raise exactly the
//! expected error — its code or message — at the tuple that fails.

use xqa::{DynamicContext, Engine};

/// Runs `query`, which must fail with a message that mentions `expect`
/// (an error code or message fragment).
fn assert_error_parity(query: &str, expect: &str) {
    let err = Engine::new()
        .compile(query)
        .unwrap_or_else(|e| panic!("compile: {e}\n{query}"))
        .run(&DynamicContext::new())
        .expect_err("query must raise a dynamic error")
        .to_string();
    assert!(
        err.contains(expect),
        "expected error mentioning {expect:?}, got: {err}\n{query}"
    );
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
    // The failing cast sits in the `let`: the error fires at the third
    // tuple.
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
