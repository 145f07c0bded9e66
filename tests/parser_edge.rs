//! Parser edge cases beyond the unit tests: error positions, nasty
//! constructor content, keyword/name ambiguity, deep nesting.

use xqa::frontend::ast::*;
use xqa::frontend::{parse_expression, parse_query, unparse_expr};

fn expr(src: &str) -> Expr {
    parse_expression(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
}

#[test]
fn error_positions_point_at_the_problem() {
    let err = parse_expression("for $b in //book\nreturn $b +").unwrap_err();
    assert_eq!(err.line, 2, "{err}");
    let err = parse_expression("1 +\n+\n#").unwrap_err();
    assert_eq!(err.line, 3, "{err}");
}

#[test]
fn keywords_as_names_everywhere() {
    // Clause keywords are fine as element names in paths and tags.
    expr("//group/by/into/nest/using");
    expr("<for><let>x</let></for>");
    expr("$x/return");
    expr("//order[where = 1]");
    // and as function-local variable names
    expr("for $for in (1,2) let $let := $for return $let");
}

#[test]
fn cdata_in_constructor_content() {
    let e = expr("<code><![CDATA[if (a < b) { return; }]]></code>");
    match e.kind {
        ExprKind::DirectElement(el) => {
            assert!(matches!(
                &el.content[0],
                ContentPart::Literal(s) if s == "if (a < b) { return; }"
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn nested_comment_constructors_and_pis() {
    let e = expr("<r><!--a comment--><?target some data?></r>");
    match e.kind {
        ExprKind::DirectElement(el) => {
            assert_eq!(el.content.len(), 2);
            assert!(matches!(&el.content[0], ContentPart::Child(c)
                if matches!(&c.kind, ExprKind::DirectComment(s) if s == "a comment")));
            assert!(matches!(&el.content[1], ContentPart::Child(c)
                if matches!(&c.kind, ExprKind::DirectPi(t, d) if t == "target" && d == "some data")));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn single_quoted_attributes_and_entities() {
    let e = expr("<r a='x{1}y' b='&lt;&amp;'/>");
    match e.kind {
        ExprKind::DirectElement(el) => {
            assert_eq!(el.attributes.len(), 2);
            let (_, parts) = &el.attributes[1];
            assert!(matches!(&parts[0], AttrPart::Literal(s) if s == "<&"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn deeply_nested_expressions_parse_up_to_the_limit() {
    // On std's default 2 MiB thread stack, as a server worker gets: the
    // depth cap must hold there even in a debug build.
    std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(|| {
            // 60 levels of parens parse; 200 levels error cleanly
            // instead of overflowing the stack.
            let ok = format!("{}1{}", "(".repeat(60), ")".repeat(60));
            expr(&ok);
            let too_deep = format!("{}1{}", "(".repeat(200), ")".repeat(200));
            let err = parse_expression(&too_deep).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
            // deeply nested elements (content recursion is shallower)
            let open: String = (0..40).map(|i| format!("<e{i}>")).collect();
            let close: String = (0..40).rev().map(|i| format!("</e{i}>")).collect();
            expr(&format!("{open}x{close}"));
        })
        .expect("spawn")
        .join()
        .expect("deep parse thread");
}

#[test]
fn flwor_clause_order_is_enforced() {
    // where before group by is pre-group; a second where without group
    // by is an error.
    assert!(parse_expression("for $x in (1) where 1 where 2 return $x").is_err());
    // order by cannot precede where
    assert!(parse_expression("for $x in (1) order by $x where 1 return $x").is_err());
    // nest before group keys is an error
    assert!(parse_expression("for $x in (1) group by nest $x into $n return $n").is_err());
    // using must name a function
    assert!(parse_expression("for $x in (1) group by $x into $k using 42 return $k").is_err());
}

#[test]
fn group_by_clause_boundaries() {
    // `nest` only after all keys; post-group let/where attach correctly.
    let e = expr(
        "for $x in (1,2,3) \
         group by $x mod 2 into $k nest $x into $xs, $x * 2 into $ds \
         let $n := count($xs) let $m := count($ds) \
         where $n > 0 \
         return ($k, $n, $m)",
    );
    match e.kind {
        ExprKind::Flwor(f) => {
            let g = f.group_by.unwrap();
            assert_eq!(g.keys.len(), 1);
            assert_eq!(g.nests.len(), 2);
            assert_eq!(f.post_group_clauses.len(), 2);
            assert!(f.post_group_where.is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn return_at_requires_variable() {
    // `return at` followed by non-variable parses `at` as a path step
    // start and then fails cleanly.
    assert!(parse_expression("for $x in (1) return at 5").is_err());
}

#[test]
fn comments_allowed_between_any_tokens() {
    let e = expr(
        "for (: iterate :) $b (: the book :) in (: over :) //book \
         group (: ! :) by $b/year into $y \
         return (: emit :) $y",
    );
    assert!(matches!(e.kind, ExprKind::Flwor(_)));
}

#[test]
fn operators_vs_names_need_whitespace() {
    // `$a-$b` is a name problem in XQuery: `a-$b` can't be a name, so
    // the lexer sees `$a` then `-$b`... actually `-` binds to the
    // following token; this parses as subtraction because `$a` ends at
    // the `-` (variable names can't contain `-` followed by `$`).
    let e = expr("$a -$b");
    assert!(matches!(e.kind, ExprKind::Arith(ArithOp::Sub, _, _)));
    // but a hyphenated variable is one name
    let e = expr("$region-sales");
    assert!(matches!(e.kind, ExprKind::VarRef(ref n) if n == "region-sales"));
}

#[test]
fn unparse_handles_every_escape() {
    let cases = [
        r#""quote""inside""#,
        "<r>{1}{2}</r>",
        "<r a=\"{{literal brace}}\"/>",
    ];
    for src in cases {
        let e = expr(src);
        let printed = unparse_expr(&e);
        let again = parse_expression(&printed)
            .unwrap_or_else(|err| panic!("unparse of {src:?} gave unparseable {printed:?}: {err}"));
        assert_eq!(unparse_expr(&again), printed);
    }
}

#[test]
fn version_prolog_variants() {
    assert!(parse_query("xquery version \"1.0\"; 1").is_ok());
    assert!(parse_query("xquery version \"3.0\"; 1").is_ok());
    assert!(parse_query("xquery version \"2.99\"; 1").is_err());
}

#[test]
fn declare_requires_known_declaration() {
    // `declare` followed by something else is treated as a path step,
    // which then fails to parse as a full query body.
    assert!(parse_query("declare frobnicate x; 1").is_err());
}

#[test]
fn empty_and_whitespace_queries_fail_cleanly() {
    assert!(parse_query("").is_err());
    assert!(parse_query("   \n\t  ").is_err());
    assert!(parse_query("(: only a comment :)").is_err());
}
