//! AST → source text (unparser).
//!
//! Produces a canonical, re-parseable rendering of any AST, with only the
//! parentheses that binding power requires: operators, their spellings
//! and binding powers come from the parser's table
//! ([`crate::operators`]). Used for diagnostics and for the round-trip
//! property `parse(unparse(parse(q))) == parse(q)` (spans aside) that
//! exercises the parser against every construct.

use crate::ast::*;
use crate::operators::{operator_of, Assoc, PREFIX, UNARY_BP};
use std::fmt::Write;

/// Render a whole module.
pub fn unparse_module(module: &Module) -> String {
    let mut out = String::new();
    if let Some(mode) = module.prolog.ordering {
        let _ = writeln!(
            out,
            "declare ordering {};",
            match mode {
                OrderingMode::Ordered => "ordered",
                OrderingMode::Unordered => "unordered",
            }
        );
    }
    for f in &module.prolog.functions {
        let _ = write!(out, "declare function {}(", f.name);
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "${}", p.name);
            if let Some(ty) = &p.ty {
                let _ = write!(out, " as {}", unparse_sequence_type(ty));
            }
        }
        out.push(')');
        if let Some(ty) = &f.return_type {
            let _ = write!(out, " as {}", unparse_sequence_type(ty));
        }
        let _ = writeln!(out, " {{ {} }};", unparse_expr(&f.body));
    }
    for v in &module.prolog.variables {
        let _ = write!(out, "declare variable ${}", v.name);
        if let Some(ty) = &v.ty {
            let _ = write!(out, " as {}", unparse_sequence_type(ty));
        }
        let _ = writeln!(out, " := {};", unparse_expr(&v.init));
    }
    out.push_str(&unparse_expr(&module.body));
    out
}

/// Render a sequence type.
pub fn unparse_sequence_type(ty: &SequenceType) -> String {
    let item = match &ty.item {
        ItemType::AnyItem => "item()".to_string(),
        ItemType::AnyNode => "node()".to_string(),
        ItemType::Element(None) => "element()".to_string(),
        ItemType::Element(Some(n)) => format!("element({n})"),
        ItemType::Attribute(None) => "attribute()".to_string(),
        ItemType::Attribute(Some(n)) => format!("attribute({n})"),
        ItemType::Document => "document-node()".to_string(),
        ItemType::Text => "text()".to_string(),
        ItemType::Comment => "comment()".to_string(),
        ItemType::ProcessingInstruction => "processing-instruction()".to_string(),
        ItemType::Atomic(n) => n.to_string(),
        ItemType::EmptySequence => return "empty-sequence()".to_string(),
    };
    let occ = match ty.occurrence {
        Occurrence::One => "",
        Occurrence::Optional => "?",
        Occurrence::ZeroOrMore => "*",
        Occurrence::OneOrMore => "+",
    };
    format!("{item}{occ}")
}

/// Render an expression. It re-parses to the same tree.
pub fn unparse_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

/// Binding power of a path or filter expression: an operand of any
/// operator, but not a filter base, path start or step.
const PATH_BP: u8 = UNARY_BP + 1;
/// Binding power of a primary expression, which never needs parentheses.
const PRIMARY_BP: u8 = PATH_BP + 1;

/// How tightly `e` holds together when written bare.
fn binding_power(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Flwor(_)
        | ExprKind::If { .. }
        | ExprKind::Quantified { .. }
        | ExprKind::ComputedElement { .. }
        | ExprKind::ComputedAttribute { .. }
        | ExprKind::ComputedText(_) => 0,
        // Its sequence type would take a following `+` or `*` as an
        // occurrence indicator, so it is parenthesized wherever an
        // operator could follow.
        ExprKind::InstanceOf(..) => 0,
        ExprKind::Unary(..) => UNARY_BP,
        ExprKind::Path(_) | ExprKind::Filter { .. } => PATH_BP,
        kind => operator_of(kind).map_or(PRIMARY_BP, |(row, ..)| row.bp),
    }
}

/// Write `e`, in parentheses unless it binds at least `min_bp`.
fn write_operand(out: &mut String, e: &Expr, min_bp: u8) {
    if binding_power(e) >= min_bp {
        write_expr(out, e);
    } else {
        out.push('(');
        write_expr(out, e);
        out.push(')');
    }
}

fn write_expr(out: &mut String, e: &Expr) {
    if let Some((row, lhs, rhs)) = operator_of(&e.kind) {
        write_operand(out, lhs, row.bp + u8::from(row.assoc == Assoc::Non));
        let _ = write!(out, " {} ", row.spellings[0].text());
        if let Some(rhs) = rhs {
            write_operand(out, rhs, row.bp + 1);
        }
    }
    match &e.kind {
        ExprKind::StringLit(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\"\""),
                    '&' => out.push_str("&amp;"),
                    '<' => out.push_str("&lt;"),
                    _ => out.push(c),
                }
            }
            out.push('"');
        }
        ExprKind::IntegerLit(v) => {
            let _ = write!(out, "{v}");
        }
        ExprKind::DecimalLit(s) => out.push_str(s),
        ExprKind::DoubleLit(v) => {
            // Always exponent form so it re-lexes as a double.
            let _ = write!(out, "{v:e}");
        }
        ExprKind::VarRef(name) => {
            let _ = write!(out, "${name}");
        }
        ExprKind::ContextItem => out.push('.'),
        ExprKind::Sequence(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item);
            }
            out.push(')');
        }
        ExprKind::Unary(op, a) => {
            if let Some((.., sign)) = PREFIX.iter().find(|(o, ..)| o == op) {
                out.push_str(sign);
            }
            write_operand(out, a, UNARY_BP);
        }
        ExprKind::If {
            cond,
            then,
            otherwise,
        } => {
            out.push_str("if (");
            write_expr(out, cond);
            out.push_str(") then ");
            write_expr(out, then);
            out.push_str(" else ");
            write_expr(out, otherwise);
        }
        ExprKind::Quantified {
            kind,
            bindings,
            satisfies,
        } => {
            out.push_str(match kind {
                Quantifier::Some => "some ",
                Quantifier::Every => "every ",
            });
            for (i, (var, expr)) in bindings.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "${var} in ");
                write_expr(out, expr);
            }
            out.push_str(" satisfies ");
            write_expr(out, satisfies);
        }
        ExprKind::Flwor(f) => write_flwor(out, f),
        ExprKind::Path(p) => write_path(out, p),
        ExprKind::Filter { base, predicates } => {
            write_operand(out, base, PRIMARY_BP);
            for pred in predicates {
                out.push('[');
                write_expr(out, pred);
                out.push(']');
            }
        }
        ExprKind::FunctionCall { name, args } => {
            let _ = write!(out, "{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
        ExprKind::DirectElement(el) => write_direct_element(out, el),
        ExprKind::DirectComment(text) => {
            let _ = write!(out, "<!--{text}-->");
        }
        ExprKind::DirectPi(target, data) => {
            let _ = write!(out, "<?{target} {data}?>");
        }
        ExprKind::ComputedElement { name, content } => {
            let _ = write!(out, "element {name} {{");
            if let Some(c) = content {
                write_expr(out, c);
            }
            out.push('}');
        }
        ExprKind::ComputedAttribute { name, content } => {
            let _ = write!(out, "attribute {name} {{");
            if let Some(c) = content {
                write_expr(out, c);
            }
            out.push('}');
        }
        ExprKind::ComputedText(content) => {
            out.push_str("text {");
            if let Some(c) = content {
                write_expr(out, c);
            }
            out.push('}');
        }
        // The target type of a postfix operator, written above.
        ExprKind::InstanceOf(_, ty) => out.push_str(&unparse_sequence_type(ty)),
        ExprKind::CastAs(_, name, optional) | ExprKind::CastableAs(_, name, optional) => {
            let _ = write!(out, "{name}{}", if *optional { "?" } else { "" });
        }
        // The infix operators, written above.
        _ => {}
    }
}

fn write_flwor(out: &mut String, f: &Flwor) {
    for clause in &f.clauses {
        match clause {
            InitialClause::For(bindings) => {
                out.push_str("for ");
                for (i, b) in bindings.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "${}", b.var);
                    if let Some(ty) = &b.ty {
                        let _ = write!(out, " as {}", unparse_sequence_type(ty));
                    }
                    if let Some(at) = &b.at {
                        let _ = write!(out, " at ${at}");
                    }
                    out.push_str(" in ");
                    write_expr(out, &b.expr);
                }
                out.push(' ');
            }
            InitialClause::Let(bindings) => {
                out.push_str("let ");
                for (i, b) in bindings.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "${}", b.var);
                    if let Some(ty) = &b.ty {
                        let _ = write!(out, " as {}", unparse_sequence_type(ty));
                    }
                    out.push_str(" := ");
                    write_expr(out, &b.expr);
                }
                out.push(' ');
            }
            InitialClause::Count(var) => {
                let _ = write!(out, "count ${var} ");
            }
            InitialClause::Window(w) => {
                let _ = write!(
                    out,
                    "for {} window ${} in ",
                    if w.sliding { "sliding" } else { "tumbling" },
                    w.var
                );
                write_expr(out, &w.expr);
                out.push_str(" start ");
                write_window_condition(out, &w.start);
                if let Some(end) = &w.end {
                    out.push_str(if w.only_end { " only end " } else { " end " });
                    write_window_condition(out, end);
                }
                out.push(' ');
            }
        }
    }
    if let Some(w) = &f.where_clause {
        out.push_str("where ");
        write_expr(out, w);
        out.push(' ');
    }
    if let Some(g) = &f.group_by {
        out.push_str("group by ");
        for (i, key) in g.keys.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_expr(out, &key.expr);
            let _ = write!(out, " into ${}", key.var);
            if let Some(using) = &key.using {
                let _ = write!(out, " using {using}");
            }
        }
        if !g.nests.is_empty() {
            out.push_str(" nest ");
            for (i, nest) in g.nests.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, &nest.expr);
                if let Some(ob) = &nest.order_by {
                    out.push(' ');
                    write_order_by(out, ob);
                }
                let _ = write!(out, " into ${}", nest.var);
            }
        }
        out.push(' ');
        for clause in &f.post_group_clauses {
            match clause {
                PostGroupClause::Let(b) => {
                    let _ = write!(out, "let ${} := ", b.var);
                    write_expr(out, &b.expr);
                    out.push(' ');
                }
                PostGroupClause::Count(var) => {
                    let _ = write!(out, "count ${var} ");
                }
            }
        }
        if let Some(w) = &f.post_group_where {
            out.push_str("where ");
            write_expr(out, w);
            out.push(' ');
        }
    }
    if let Some(ob) = &f.order_by {
        write_order_by(out, ob);
        out.push(' ');
    }
    out.push_str("return ");
    if let Some(at) = &f.return_at {
        let _ = write!(out, "at ${at} ");
    }
    write_expr(out, &f.return_expr);
}

fn write_window_condition(out: &mut String, c: &WindowCondition) {
    if let Some(v) = &c.item_var {
        let _ = write!(out, "${v} ");
    }
    if let Some(v) = &c.at_var {
        let _ = write!(out, "at ${v} ");
    }
    if let Some(v) = &c.previous_var {
        let _ = write!(out, "previous ${v} ");
    }
    if let Some(v) = &c.next_var {
        let _ = write!(out, "next ${v} ");
    }
    out.push_str("when ");
    write_expr(out, &c.when);
}

fn write_order_by(out: &mut String, ob: &OrderByClause) {
    if ob.stable {
        out.push_str("stable ");
    }
    out.push_str("order by ");
    for (i, spec) in ob.specs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_expr(out, &spec.expr);
        if spec.descending {
            out.push_str(" descending");
        }
        match spec.empty {
            Some(EmptyOrder::Greatest) => out.push_str(" empty greatest"),
            Some(EmptyOrder::Least) => out.push_str(" empty least"),
            None => {}
        }
    }
}

fn write_path(out: &mut String, p: &Path) {
    let mut need_slash = match &p.start {
        PathStart::Context => false,
        // A lone `/` would take a following name or `*` as its first step.
        PathStart::Root if p.steps.is_empty() => {
            out.push_str("(/)");
            false
        }
        PathStart::Root => {
            out.push('/');
            false
        }
        PathStart::Expr(e) => {
            write_operand(out, e, PRIMARY_BP);
            true
        }
    };
    for step in &p.steps {
        match step {
            Step::Axis(s) => {
                // descendant-or-self::node() renders back as `//` when a
                // further step follows; standalone it stays explicit.
                if need_slash {
                    out.push('/');
                }
                let axis = match s.axis {
                    Axis::Child => "child",
                    Axis::Descendant => "descendant",
                    Axis::DescendantOrSelf => "descendant-or-self",
                    Axis::Attribute => "attribute",
                    Axis::SelfAxis => "self",
                    Axis::Parent => "parent",
                    Axis::Ancestor => "ancestor",
                    Axis::AncestorOrSelf => "ancestor-or-self",
                    Axis::FollowingSibling => "following-sibling",
                    Axis::PrecedingSibling => "preceding-sibling",
                };
                let _ = write!(out, "{axis}::{}", unparse_node_test(&s.test));
                for pred in &s.predicates {
                    out.push('[');
                    write_expr(out, pred);
                    out.push(']');
                }
            }
            Step::Expr { expr, predicates } => {
                if need_slash {
                    out.push('/');
                }
                write_operand(out, expr, PRIMARY_BP);
                for pred in predicates {
                    out.push('[');
                    write_expr(out, pred);
                    out.push(']');
                }
            }
        }
        need_slash = true;
    }
}

fn unparse_node_test(test: &NodeTest) -> String {
    match test {
        NodeTest::Name(n) => n.to_string(),
        NodeTest::Wildcard => "*".to_string(),
        NodeTest::AnyKind => "node()".to_string(),
        NodeTest::Text => "text()".to_string(),
        NodeTest::Comment => "comment()".to_string(),
        NodeTest::ProcessingInstruction(Some(t)) => format!("processing-instruction(\"{t}\")"),
        NodeTest::ProcessingInstruction(None) => "processing-instruction()".to_string(),
        NodeTest::Element(Some(n)) => format!("element({n})"),
        NodeTest::Element(None) => "element()".to_string(),
        NodeTest::Attribute(Some(n)) => format!("attribute({n})"),
        NodeTest::Attribute(None) => "attribute()".to_string(),
        NodeTest::Document => "document-node()".to_string(),
    }
}

fn write_direct_element(out: &mut String, el: &DirectElement) {
    let _ = write!(out, "<{}", el.name);
    for (name, parts) in &el.attributes {
        let _ = write!(out, " {name}=\"");
        for part in parts {
            match part {
                AttrPart::Literal(s) => {
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("&quot;"),
                            '&' => out.push_str("&amp;"),
                            '<' => out.push_str("&lt;"),
                            '{' => out.push_str("{{"),
                            '}' => out.push_str("}}"),
                            _ => out.push(c),
                        }
                    }
                }
                AttrPart::Enclosed(e) => {
                    out.push('{');
                    write_expr(out, e);
                    out.push('}');
                }
            }
        }
        out.push('"');
    }
    if el.content.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for part in &el.content {
        match part {
            ContentPart::Literal(s) => {
                for c in s.chars() {
                    match c {
                        '&' => out.push_str("&amp;"),
                        '<' => out.push_str("&lt;"),
                        '{' => out.push_str("{{"),
                        '}' => out.push_str("}}"),
                        _ => out.push(c),
                    }
                }
            }
            ContentPart::Enclosed(e) => {
                out.push('{');
                write_expr(out, e);
                out.push('}');
            }
            ContentPart::Child(e) => write_expr(out, e),
        }
    }
    let _ = write!(out, "</{}>", el.name);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    /// Parse → unparse → parse must yield the same tree, spans aside.
    fn roundtrip(src: &str) {
        let unspanned = |m: &Module| {
            let text = format!("{m:?}");
            let mut out = String::new();
            let mut rest = text.as_str();
            while let Some(at) = rest.find("span: Span {") {
                out.push_str(&rest[..at]);
                rest = &rest[at + rest[at..].find('}').expect("a span closes") + 1..];
            }
            out + rest
        };
        let first = parse_query(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
        let printed = unparse_module(&first);
        let second = parse_query(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n--- printed:\n{printed}"));
        assert_eq!(
            unspanned(&second),
            unspanned(&first),
            "unparse changed the tree of {src}\n--- printed:\n{printed}"
        );
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip("1 + 2 * 3");
        roundtrip("(1, 2, 3)[2]");
        roundtrip("-(3 - 5)");
        roundtrip("\"it\"\"s\"");
        roundtrip("1.5e0 + 2");
        roundtrip("$x and ($y or $z)");
        roundtrip("if (1 < 2) then \"a\" else \"b\"");
    }

    #[test]
    fn roundtrip_paths() {
        roundtrip("//book/title");
        roundtrip("/bib/book[price > 50]/author");
        roundtrip("$b/price");
        roundtrip("$rs/(quantity * price)");
        roundtrip("//sale/year-from-dateTime(timestamp)");
        roundtrip("//book/@year");
        roundtrip("child::book/descendant::text()");
        roundtrip("..");
        roundtrip("(a/b)[1]");
        roundtrip("(a/b)/c");
        roundtrip("for $x in (/) return $x");
        roundtrip("($x instance of xs:integer) + 1");
    }

    #[test]
    fn roundtrip_flwor_with_extensions() {
        roundtrip(
            "for $b in //book group by $b/publisher into $p, $b/year into $y \
             nest $b/price - $b/discount into $n \
             let $avg := avg($n) where $avg > 10 \
             order by $p descending empty greatest, $y \
             return at $r <g rank=\"{$r}\">{$p, $y, $avg}</g>",
        );
        roundtrip(
            "for $s in //sale group by $s/region into $r \
             nest $s order by $s/timestamp descending into $rs \
             return count($rs)",
        );
        roundtrip(
            "declare function local:eq($a as item()*, $b as item()*) as xs:boolean { true() }; \
             for $x in (1,2) group by $x into $k using local:eq return $k",
        );
    }

    #[test]
    fn roundtrip_prolog() {
        roundtrip("declare ordering unordered; declare variable $n := 3; $n");
        roundtrip(
            "declare function local:f($x as xs:integer) as xs:integer { $x + 1 }; local:f(1)",
        );
    }

    #[test]
    fn roundtrip_constructors() {
        roundtrip("<a b=\"1\" c=\"x{1 + 1}y\">text{$v}<nested/></a>");
        roundtrip("element r { attribute a { 1 }, text { \"t\" } }");
        roundtrip("<!--note-->");
        roundtrip("<r>a{{b}}c</r>");
    }

    #[test]
    fn roundtrip_types_and_quantifiers() {
        roundtrip("$x instance of element(book)");
        roundtrip("\"5\" cast as xs:integer?");
        roundtrip("\"5\" castable as xs:date");
        roundtrip("some $x in (1, 2), $y in (3, 4) satisfies $x = $y");
    }

    #[test]
    fn unparse_is_deterministic() {
        let src = "for $b in //book return $b";
        let m = parse_query(src).unwrap();
        assert_eq!(unparse_module(&m), unparse_module(&m));
    }
}
