//! The trees the frontend builds.
//!
//! - A golden of the syntax tree for every query text the suites already
//!   hold: the corpus (`corpus/mod.rs`) plus the string literals of
//!   `unparse_equivalence.rs`, `usecases_xmp.rs` and `parser_edge.rs`.
//!   One line per text: `ok` and an FNV-1a of the module's `{:?}`
//!   rendering (spans included), or the syntax error as displayed; then
//!   the text, whitespace-normalized and cut short. A parser refactor
//!   must leave it byte-identical. Regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test parse_trees`.
//! - Unparsing is exact: `parse(unparse(t))` is `t` (spans aside) for
//!   every text above that parses and for trees generated over the
//!   operator table, and it writes only the parentheses binding power
//!   requires.
//! - Tree depth is bounded: deeper input is a syntax error, and a tree
//!   at the bound compiles and runs on a server worker's stack.
//!
//! This file is not one of `corpus::SOURCES`, so its literals do not
//! move `tests/golden/rewrite_notes.txt`.

#[allow(dead_code)] // the hint cells are for the plan suites
mod corpus;

use xqa::frontend::ast::*;
use xqa::frontend::operators::{Op, OPERATORS, PREFIX};
use xqa::frontend::parser::MAX_PARSE_DEPTH;
use xqa::frontend::{parse_expression, parse_query, unparse_expr, unparse_module};
use xqa::{serialize_sequence, DynamicContext, Engine};
use xqa_workload::DetRng;

const SOURCES: [&str; 3] = [
    include_str!("unparse_equivalence.rs"),
    include_str!("usecases_xmp.rs"),
    include_str!("parser_edge.rs"),
];

/// Characters of each text kept on its golden line.
const PREVIEW_CHARS: usize = 72;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Corpus candidates first, then every other literal, each text once.
fn texts() -> Vec<String> {
    let mut texts = corpus::candidates();
    let mut literals = Vec::new();
    for src in SOURCES {
        corpus::string_literals(src, &mut literals);
    }
    for text in literals {
        if !texts.contains(&text) {
            texts.push(text);
        }
    }
    texts
}

fn golden_line(text: &str) -> String {
    let outcome = match parse_query(text) {
        Ok(module) => format!("ok {:016x}", fnv1a(format!("{module:?}").as_bytes())),
        Err(e) => e.to_string(),
    };
    let preview: String = text
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .chars()
        .take(PREVIEW_CHARS)
        .collect();
    format!("{outcome}\t{preview}\n")
}

#[test]
fn parse_trees_match_the_golden() {
    let texts = texts();
    assert!(texts.len() > 250, "text set shrank to {}", texts.len());
    let actual: String = texts.iter().map(|t| golden_line(t)).collect();

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parse_trees.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (n, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "parse tree drifted at golden line {}", n + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "parse trees drifted in length"
    );
}

/// A tree's `{:?}` rendering with every `span: Span { .. }` removed.
fn shape(tree: &impl std::fmt::Debug) -> String {
    let text = format!("{tree:?}");
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find("span: Span {") {
        out.push_str(&rest[..at]);
        let close = rest[at..].find('}').expect("a span closes");
        rest = &rest[at + close + 1..];
    }
    out.push_str(rest);
    out
}

#[test]
fn unparsed_queries_parse_back_to_the_same_tree() {
    let mut checked = 0;
    for text in texts() {
        let Ok(module) = parse_query(&text) else {
            continue;
        };
        let printed = unparse_module(&module);
        let again = parse_query(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}\n--- printed:\n{printed}"));
        assert_eq!(
            shape(&again),
            shape(&module),
            "unparse changed the tree of\n{text}\n--- printed:\n{printed}"
        );
        checked += 1;
    }
    assert!(checked > 180, "only {checked} texts parsed");
}

fn node(kind: ExprKind) -> Expr {
    Expr::new(kind, Span::default())
}

fn child_path(start: PathStart, name: &str) -> Expr {
    let step = Step::Axis(AxisStep {
        axis: Axis::Child,
        test: NodeTest::Name(Name::local(name)),
        predicates: Vec::new(),
    });
    node(ExprKind::Path(Box::new(Path {
        start,
        steps: vec![step],
    })))
}

fn leaf(rng: &mut DetRng) -> Expr {
    match rng.gen_range(0..8u32) {
        0 => node(ExprKind::IntegerLit(rng.gen_range(0..100i64))),
        1 => node(ExprKind::StringLit("s".into())),
        2 => node(ExprKind::DecimalLit("1.5".into())),
        3 => node(ExprKind::VarRef("x".into())),
        4 => child_path(PathStart::Context, "a"),
        5 => child_path(PathStart::Expr(node(ExprKind::VarRef("x".into()))), "b"),
        6 => node(ExprKind::Path(Box::new(Path {
            start: PathStart::Root,
            steps: Vec::new(),
        }))),
        _ => node(ExprKind::FunctionCall {
            name: Name::local("true"),
            args: Vec::new(),
        }),
    }
}

/// A tree no deeper than `depth` levels: operators drawn from the
/// table's rows over literals, `$x`, paths, a FLWOR, `if` and unary
/// signs.
fn generate(rng: &mut DetRng, depth: usize) -> Expr {
    if depth <= 1 || rng.gen_range(0..5u32) == 0 {
        return leaf(rng);
    }
    let d = depth - 1;
    match rng.gen_range(0..8u32) {
        0 => {
            let (op, ..) = PREFIX[rng.gen_range(0..PREFIX.len())];
            node(ExprKind::Unary(op, Box::new(generate(rng, d))))
        }
        1 => {
            let (expr, return_expr) = (generate(rng, d), generate(rng, d));
            node(ExprKind::Flwor(Box::new(Flwor {
                clauses: vec![InitialClause::For(vec![ForBinding {
                    var: "x".into(),
                    at: None,
                    ty: None,
                    expr,
                }])],
                where_clause: None,
                group_by: None,
                post_group_clauses: Vec::new(),
                post_group_where: None,
                order_by: None,
                return_at: None,
                return_expr,
            })))
        }
        2 => node(ExprKind::If {
            cond: Box::new(generate(rng, d)),
            then: Box::new(generate(rng, d)),
            otherwise: Box::new(generate(rng, d)),
        }),
        _ => {
            let row = &OPERATORS[rng.gen_range(0..OPERATORS.len())];
            let lhs = Box::new(generate(rng, d));
            let (ty, optional) = (Name::prefixed("xs", "integer"), rng.gen_bool(0.5));
            match row.op {
                Op::Infix(op) => node(op.build(lhs, Box::new(generate(rng, d)))),
                Op::InstanceOf => node(ExprKind::InstanceOf(
                    lhs,
                    SequenceType {
                        item: ItemType::Atomic(ty),
                        occurrence: Occurrence::One,
                    },
                )),
                Op::CastableAs => node(ExprKind::CastableAs(lhs, ty, optional)),
                Op::CastAs => node(ExprKind::CastAs(lhs, ty, optional)),
            }
        }
    }
}

#[test]
fn generated_operator_trees_parse_back_to_the_same_tree() {
    let mut rng = DetRng::seed_from_u64(0x0b5e_55ed);
    for _ in 0..3_000 {
        let tree = generate(&mut rng, 8);
        let printed = unparse_expr(&tree);
        let again = parse_expression(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- printed:\n{printed}"));
        assert_eq!(shape(&again), shape(&tree), "printed:\n{printed}");
    }
}

#[test]
fn unparse_writes_only_the_parentheses_binding_power_requires() {
    for text in [
        "1 + 2 * 3",
        "(1 + 2) * 3",
        "1 - (2 - 3)",
        "1 - 2 - 3",
        "-(1 + 2)",
        "(1 + 2) cast as xs:string",
        "(for $x in 1 return $x) + 1",
        "(1 = 1) = true()",
        "$a or $b and $c",
        "($a or $b) and $c",
        "1 to 2 + 3",
        "\"5\" cast as xs:integer castable as xs:integer",
        "(\"5\" castable as xs:integer) cast as xs:string",
        "$x/child::a[1] union $y",
        "($x/child::a)[1]",
    ] {
        let tree = parse_expression(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(unparse_expr(&tree), text);
    }
}

#[test]
fn cast_binds_tighter_than_castable() {
    let run = |text: &str| {
        let query = Engine::new().compile(text).map_err(|e| e.to_string())?;
        let result = query
            .run(&DynamicContext::new())
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(serialize_sequence(&result))
    };
    assert_eq!(
        run("\"5\" cast as xs:integer castable as xs:integer").as_deref(),
        Ok("true")
    );
    let err = run("\"5\" castable as xs:integer cast as xs:string").unwrap_err();
    assert!(err.contains("unexpected name \"cast\""), "{err}");
}

/// Four inputs `n` expressions deep: unary signs, nested direct
/// elements, a `+` chain and an `or` chain over a declared `$x`.
fn deep_inputs(n: usize) -> [String; 4] {
    [
        format!("{}1", "-".repeat(n - 1)),
        format!("{}{}", "<a>".repeat(n), "</a>".repeat(n)),
        vec!["1"; n].join("+"),
        format!(
            "declare variable $x := true(); {}",
            vec!["$x"; n].join(" or ")
        ),
    ]
}

#[test]
fn input_deeper_than_the_bound_is_a_syntax_error() {
    let limit = format!("supported depth ({MAX_PARSE_DEPTH})");
    for n in [MAX_PARSE_DEPTH + 1, 1_000, 10_000] {
        for input in deep_inputs(n) {
            let err = parse_query(&input).expect_err("too deep");
            assert!(err.message.contains(&limit), "{n} levels: {err}");
        }
    }
}

#[test]
fn a_tree_at_the_bound_compiles_and_runs_on_a_worker_stack() {
    // std's default 2 MiB thread stack, which a server worker gets.
    let worker = std::thread::Builder::new().stack_size(2 * 1024 * 1024);
    let run_all = || {
        for input in deep_inputs(MAX_PARSE_DEPTH) {
            let query = Engine::new()
                .compile(&input)
                .unwrap_or_else(|e| panic!("{e}\n{input}"));
            let result = query
                .run(&DynamicContext::new())
                .unwrap_or_else(|e| panic!("{e}\n{input}"));
            assert!(!serialize_sequence(&result).is_empty(), "{input}");
        }
    };
    worker
        .spawn(run_all)
        .expect("spawn")
        .join()
        .expect("worker");
}
