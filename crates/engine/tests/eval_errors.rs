//! Error-path coverage: every failure class the engine can report,
//! with the right W3C code and a useful message.

use xqa_engine::{DynamicContext, Engine, EngineError};
use xqa_xdm::ErrorCode;
use xqa_xmlparse::parse_document;

fn try_run(query: &str) -> Result<String, EngineError> {
    let engine = Engine::new();
    let compiled = engine.compile(query)?;
    let doc = parse_document("<r><v>1</v><v>2</v><t>x</t></r>").unwrap();
    let mut ctx = DynamicContext::new();
    ctx.set_context_document(&doc);
    compiled
        .run(&ctx)
        .map(|seq| xqa_xmlparse::serialize_sequence(&seq))
}

fn code_of(query: &str) -> ErrorCode {
    match try_run(query) {
        Err(e) => e.code(),
        Ok(v) => panic!("expected error for {query:?}, got {v:?}"),
    }
}

#[test]
fn static_errors() {
    assert_eq!(code_of("$ghost"), ErrorCode::XPST0008);
    assert_eq!(code_of("let $x := 1 return $y"), ErrorCode::XPST0008);
    assert_eq!(code_of("no-such-function()"), ErrorCode::XPST0017);
    assert_eq!(
        code_of("concat(1)"),
        ErrorCode::XPST0017,
        "below minimum arity"
    );
    assert_eq!(
        code_of("true(1)"),
        ErrorCode::XPST0017,
        "above maximum arity"
    );
    assert_eq!(code_of("1 +"), ErrorCode::XPST0003);
    assert_eq!(code_of("\"x\" cast as xs:duration"), ErrorCode::XPST0003);
}

#[test]
fn scope_error_message_explains_group_by() {
    let err = try_run("for $v in //v group by $v into $k return count($v)").unwrap_err();
    assert_eq!(err.code(), ErrorCode::XPST0008);
    let msg = err.to_string();
    assert!(msg.contains("group by"), "{msg}");
    assert!(msg.contains("$v"), "{msg}");
    assert!(msg.contains("§3.2"), "{msg}");
}

#[test]
fn arithmetic_errors() {
    assert_eq!(code_of("1 idiv 0"), ErrorCode::FOAR0001);
    assert_eq!(code_of("1 mod 0"), ErrorCode::FOAR0001);
    assert_eq!(code_of("1.5 div 0.0"), ErrorCode::FOAR0001);
    assert_eq!(code_of("9223372036854775807 * 2"), ErrorCode::FOAR0002);
    assert_eq!(code_of("1 + \"x\""), ErrorCode::XPTY0004);
    assert_eq!(
        code_of("//t + 1"),
        ErrorCode::FORG0001,
        "non-numeric untyped content"
    );
    assert_eq!(
        code_of("(1, 2) + 1"),
        ErrorCode::XPTY0004,
        "non-singleton operand"
    );
}

#[test]
fn comparison_errors() {
    assert_eq!(code_of("1 eq \"x\""), ErrorCode::XPTY0004);
    assert_eq!(code_of("(1, 2) lt 3"), ErrorCode::XPTY0004);
    assert_eq!(
        code_of("1 = \"x\""),
        ErrorCode::XPTY0004,
        "general comparison, typed operands"
    );
    assert_eq!(
        code_of("5 is //v[1]"),
        ErrorCode::XPTY0004,
        "node comparison on atomic"
    );
}

#[test]
fn sequence_type_errors() {
    assert_eq!(code_of("boolean((1, 2))"), ErrorCode::FORG0006);
    assert_eq!(code_of("if ((1,2)) then 1 else 2"), ErrorCode::FORG0006);
    assert_eq!(code_of("sum((1, \"x\"))"), ErrorCode::FORG0006);
    assert_eq!(code_of("avg((1, current-date()))"), ErrorCode::FORG0006);
    assert_eq!(code_of("zero-or-one((1, 2))"), ErrorCode::FORG0003);
    assert_eq!(code_of("one-or-more(())"), ErrorCode::FORG0004);
    assert_eq!(code_of("exactly-one(())"), ErrorCode::FORG0005);
}

#[test]
fn cast_errors() {
    assert_eq!(code_of("\"abc\" cast as xs:integer"), ErrorCode::FORG0001);
    assert_eq!(code_of("() cast as xs:integer"), ErrorCode::XPTY0004);
    assert_eq!(
        code_of("\"2004-13-01\" cast as xs:date"),
        ErrorCode::FODT0001
    );
    assert_eq!(code_of("xs:dateTime(\"yesterday\")"), ErrorCode::FORG0001);
}

#[test]
fn order_by_type_errors() {
    // Mixed incomparable key types across tuples.
    assert_eq!(
        code_of("for $x in (1, \"a\") order by $x return $x"),
        ErrorCode::XPTY0004
    );
    // Multi-item order key.
    assert_eq!(
        code_of("for $x in (1, 2) order by (1, 2) return $x"),
        ErrorCode::XPTY0004
    );
}

#[test]
fn path_type_errors() {
    assert_eq!(
        code_of("(1)/child::a"),
        ErrorCode::XPTY0004,
        "axis step on atomic"
    );
    assert_eq!(
        code_of("//v/(if (. = 1) then . else 5)"),
        ErrorCode::XPTY0018,
        "mixed step result"
    );
}

#[test]
fn function_conversion_errors() {
    let err = try_run("declare function local:f($n as xs:integer) { $n }; local:f(\"nope\")")
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::XPTY0004);
    assert!(err.to_string().contains("local:f"), "{err}");
    // Cardinality violation on return type.
    let err =
        try_run("declare function local:g($n) as xs:integer { ($n, $n) }; local:g(1)").unwrap_err();
    assert_eq!(err.code(), ErrorCode::XPTY0004);
    assert!(err.to_string().contains("result of local:g"), "{err}");
}

#[test]
fn for_let_declared_type_errors() {
    assert_eq!(
        code_of("for $x as xs:integer in (1, \"two\") return $x"),
        ErrorCode::XPTY0004
    );
    assert_eq!(
        code_of("let $x as xs:integer := (1, 2) return $x"),
        ErrorCode::XPTY0004
    );
}

#[test]
fn global_declared_type_errors() {
    let err = try_run("declare variable $x as xs:integer := \"a\"; $x").unwrap_err();
    assert_eq!(err.code(), ErrorCode::XPTY0004);
    assert!(err.to_string().contains("$x"), "{err}");
    assert_eq!(
        try_run("declare variable $n as xs:integer := 3; $n + 1").unwrap(),
        "4"
    );
}

#[test]
fn errors_inside_group_by_propagate() {
    // Key expression errors surface, not panic.
    assert_eq!(
        code_of("for $v in //v group by sum(($v, \"x\")) into $k return $k"),
        ErrorCode::FORG0006
    );
    // Nest order-by key errors too.
    assert_eq!(
        code_of(
            "for $v in (1, \"a\") group by 1 into $k \
             nest $v order by $v into $vs return count($vs)"
        ),
        ErrorCode::XPTY0004
    );
}

#[test]
fn errors_in_predicates_propagate() {
    assert_eq!(code_of("//v[1 div 0]"), ErrorCode::FOAR0001);
    assert_eq!(code_of("(1 to 3)[sum((., \"x\"))]"), ErrorCode::FORG0006);
}

#[test]
fn constructed_attribute_after_content_is_rejected() {
    assert_eq!(
        code_of("element r { \"text first\", attribute a { 1 } }"),
        ErrorCode::XQTY0024
    );
}

#[test]
fn division_by_zero_in_folded_position_still_raises_at_runtime() {
    // Constant folding must not turn `1 div 0` into a compile error or
    // silently drop it.
    let err = try_run("1 div 0").unwrap_err();
    assert!(matches!(err, EngineError::Dynamic(_)), "{err:?}");
}

#[test]
fn context_item_errors() {
    let engine = Engine::new();
    let q = engine.compile("//v").unwrap();
    let ctx = DynamicContext::new(); // no context document
    let err = q.run(&ctx).unwrap_err();
    assert!(err.to_string().contains("context item"), "{err}");
    assert_eq!(err.code(), ErrorCode::XPDY0002);
    let q = engine.compile("position()").unwrap();
    assert_eq!(q.run(&ctx).unwrap_err().code(), ErrorCode::XPDY0002);
}

#[test]
fn good_queries_do_not_error() {
    // Sanity inverse: close cousins of the error cases succeed.
    assert_eq!(try_run("1 idiv 1").unwrap(), "1");
    assert_eq!(try_run("string(//v[1]) cast as xs:integer").unwrap(), "1");
    assert_eq!(
        try_run("for $x in (2, 1) order by $x return $x").unwrap(),
        "1 2"
    );
    assert_eq!(
        try_run("element r { attribute a { 1 }, \"text\" }").unwrap(),
        "<r a=\"1\">text</r>"
    );
}
