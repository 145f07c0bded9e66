//! Constant folding over the IR.
//!
//! A conservative bottom-up pass: arithmetic, comparisons, logic and
//! conditionals over literal operands are evaluated at compile time.
//! Folding never changes semantics for succeeding expressions; an
//! expression that would raise a *dynamic* error (`1 div 0`) is left
//! unfolded so the error is still raised at run time, when and if the
//! expression is actually evaluated.

use crate::eval::{eval_arith, eval_neg};
use crate::ir::*;
use xqa_xdm::{effective_boolean_value, general_compare, value_compare, AtomicValue, Item};

/// The literal value of an IR node, if it is one.
fn literal(ir: &Ir) -> Option<Item> {
    Some(match ir {
        Ir::Str(s) => Item::Atomic(AtomicValue::String(s.clone())),
        Ir::Int(v) => Item::from(*v),
        Ir::Dec(v) => Item::Atomic(AtomicValue::Decimal(*v)),
        Ir::Dbl(v) => Item::from(*v),
        Ir::CallBuiltin(crate::functions::Builtin::TrueFn, args) if args.is_empty() => {
            Item::from(true)
        }
        Ir::CallBuiltin(crate::functions::Builtin::FalseFn, args) if args.is_empty() => {
            Item::from(false)
        }
        _ => return None,
    })
}

/// Build an IR literal back from a singleton result.
fn make_literal(items: &[Item]) -> Option<Ir> {
    match items {
        [] => Some(Ir::Empty),
        [Item::Atomic(v)] => Some(match v {
            AtomicValue::String(s) => Ir::Str(s.clone()),
            AtomicValue::Integer(i) => Ir::Int(*i),
            AtomicValue::Decimal(d) => Ir::Dec(*d),
            AtomicValue::Double(d) => Ir::Dbl(*d),
            AtomicValue::Boolean(true) => {
                Ir::CallBuiltin(crate::functions::Builtin::TrueFn, Vec::new())
            }
            AtomicValue::Boolean(false) => {
                Ir::CallBuiltin(crate::functions::Builtin::FalseFn, Vec::new())
            }
            _ => return None,
        }),
        _ => None,
    }
}

/// Try to collapse one node whose children are already folded (the
/// planner visits bottom-up). Says whether it did.
pub(crate) fn fold_node(ir: &mut Ir) -> bool {
    let replacement: Option<Ir> = match &*ir {
        Ir::Arith(op, a, b) => match (literal(a), literal(b)) {
            (Some(la), Some(lb)) => eval_arith(*op, &[la], &[lb])
                .ok()
                .and_then(|r| make_literal(&r)),
            _ => None,
        },
        Ir::Neg(a) => literal(a).and_then(|v| eval_neg(&[v]).ok().and_then(|r| make_literal(&r))),
        Ir::ValueComp(op, a, b) => match (literal(a), literal(b)) {
            (Some(Item::Atomic(la)), Some(Item::Atomic(lb))) => value_compare(&la, &lb, *op)
                .ok()
                .map(|v| make_literal(&[Item::from(v)]).expect("boolean literal")),
            _ => None,
        },
        Ir::GeneralComp(op, a, b) => match (literal(a), literal(b)) {
            (Some(la), Some(lb)) => general_compare(&[la], &[lb], *op)
                .ok()
                .map(|v| make_literal(&[Item::from(v)]).expect("boolean literal")),
            _ => None,
        },
        Ir::And(a, b) => fold_logic(a, b, true),
        Ir::Or(a, b) => fold_logic(a, b, false),
        Ir::If(c, t, e) => {
            literal(c).and_then(|v| {
                effective_boolean_value(&[v]).ok().map(|cond| {
                    if cond {
                        (**t).clone()
                    } else {
                        (**e).clone()
                    }
                })
            })
        }
        _ => None,
    };
    match replacement {
        Some(new) => {
            *ir = new;
            true
        }
        None => false,
    }
}

/// Fold `and`/`or` when an operand is a boolean literal.
/// `is_and` selects the identity/absorbing values.
fn fold_logic(a: &Ir, b: &Ir, is_and: bool) -> Option<Ir> {
    let lit_bool = |ir: &Ir| {
        literal(ir).and_then(|item| match item {
            Item::Atomic(AtomicValue::Boolean(v)) => Some(v),
            _ => None,
        })
    };
    let t = || Ir::CallBuiltin(crate::functions::Builtin::TrueFn, Vec::new());
    let f = || Ir::CallBuiltin(crate::functions::Builtin::FalseFn, Vec::new());
    let wrap_ebv =
        |ir: &Ir| Ir::CallBuiltin(crate::functions::Builtin::BooleanFn, vec![ir.clone()]);
    match (lit_bool(a), lit_bool(b)) {
        (Some(x), Some(y)) => Some(if is_and {
            if x && y {
                t()
            } else {
                f()
            }
        } else if x || y {
            t()
        } else {
            f()
        }),
        // and false / or true absorb regardless of the other side (XQuery
        // explicitly permits not evaluating the other operand).
        (Some(false), _) | (_, Some(false)) if is_and => Some(f()),
        (Some(true), _) | (_, Some(true)) if !is_and => Some(t()),
        // and true / or false reduce to the EBV of the other operand.
        (Some(true), None) if is_and => Some(wrap_ebv(b)),
        (None, Some(true)) if is_and => Some(wrap_ebv(a)),
        (Some(false), None) if !is_and => Some(wrap_ebv(b)),
        (None, Some(false)) if !is_and => Some(wrap_ebv(a)),
        _ => None,
    }
}

/// Apply `f` to every node of the tree under `ir` — a node before its
/// children, or after them when `bottom_up`. With
/// [`CompiledQuery::roots_mut`] this is the whole traversal every
/// planning rule of [`crate::rewrite`] runs on.
pub(crate) fn walk(ir: &mut Ir, bottom_up: bool, f: &mut impl FnMut(&mut Ir)) {
    if !bottom_up {
        f(ir);
    }
    for child in child_irs(ir) {
        walk(child, bottom_up, f);
    }
    if bottom_up {
        f(ir);
    }
}

/// Defines a function listing the direct child expressions of an IR
/// node, over `&Ir` or `&mut Ir`: `$iter` is `iter` / `iter_mut` and
/// `$($m)?` is empty / `mut`. Both enumerations below expand this one
/// body, so they cannot cover different children.
macro_rules! child_enumeration {
    ($(#[$doc:meta])* $name:ident, $iter:ident $(, $m:tt)?) => {
        $(#[$doc])*
        pub(crate) fn $name(ir: &$($m)? Ir) -> Vec<&$($m)? Ir> {
            let mut out: Vec<&$($m)? Ir> = Vec::new();
            match ir {
                Ir::Str(_)
                | Ir::Int(_)
                | Ir::Dec(_)
                | Ir::Dbl(_)
                | Ir::Empty
                | Ir::Var(_)
                | Ir::Global(_)
                | Ir::ContextItem
                | Ir::Comment(_)
                | Ir::Pi(..) => {}
                Ir::Seq(items) => out.extend(items.$iter()),
                Ir::Range(a, b)
                | Ir::Arith(_, a, b)
                | Ir::GeneralComp(_, a, b)
                | Ir::ValueComp(_, a, b)
                | Ir::NodeComp(_, a, b)
                | Ir::And(a, b)
                | Ir::Or(a, b)
                | Ir::SetOp(_, a, b) => {
                    out.push(a);
                    out.push(b);
                }
                Ir::Neg(a) | Ir::InstanceOf(a, _) | Ir::Cast(a, _, _) | Ir::Castable(a, _, _) => {
                    out.push(a)
                }
                Ir::If(c, t, e) => {
                    out.push(c);
                    out.push(t);
                    out.push(e);
                }
                Ir::Quantified {
                    bindings,
                    satisfies,
                    ..
                } => {
                    out.extend(bindings.$iter().map(|(_, e)| e));
                    out.push(satisfies);
                }
                Ir::Flwor(f) => {
                    for op in f.ops.$iter() {
                        match &$($m)? op.clause {
                            ClauseIr::For { expr, .. } | ClauseIr::Let { expr, .. } => {
                                out.push(expr)
                            }
                            ClauseIr::Where(cond) => out.push(cond),
                            ClauseIr::Count { .. } => {}
                            ClauseIr::Window(w) => {
                                out.push(&$($m)? w.expr);
                                out.push(&$($m)? w.start.when);
                                if let Some(end) = &$($m)? w.end {
                                    out.push(&$($m)? end.when);
                                }
                            }
                            ClauseIr::GroupBy(g) => {
                                out.extend(g.keys.$iter().map(|k| &$($m)? k.expr));
                                for nest in g.nests.$iter() {
                                    out.push(&$($m)? nest.expr);
                                    if let Some(ob) = &$($m)? nest.order_by {
                                        out.extend(ob.specs.$iter().map(|s| &$($m)? s.expr));
                                    }
                                }
                            }
                            ClauseIr::OrderBy(ob) => {
                                out.extend(ob.specs.$iter().map(|s| &$($m)? s.expr))
                            }
                        }
                    }
                    out.push(&$($m)? f.return_expr);
                }
                Ir::Path(p) => {
                    if let PathStartIr::Expr(e) = &$($m)? p.start {
                        out.push(e);
                    }
                    for step in p.steps.$iter() {
                        match step {
                            StepIr::Axis { predicates, .. } => out.extend(predicates.$iter()),
                            StepIr::Expr { expr, predicates } => {
                                out.push(expr);
                                out.extend(predicates.$iter());
                            }
                        }
                    }
                }
                Ir::Filter { base, predicates } => {
                    out.push(base);
                    out.extend(predicates.$iter());
                }
                Ir::CallBuiltin(_, args) | Ir::CallUser(_, args) => out.extend(args.$iter()),
                Ir::Element(el) => {
                    for (_, parts) in el.attributes.$iter() {
                        for part in parts {
                            if let AttrPartIr::Enclosed(e) = part {
                                out.push(e);
                            }
                        }
                    }
                    for part in el.content.$iter() {
                        match part {
                            ContentIr::Enclosed(e) | ContentIr::Child(e) => out.push(e),
                            ContentIr::Literal(_) => {}
                        }
                    }
                }
                Ir::Attribute { value, .. } => {
                    if let Some(v) = value {
                        out.push(v);
                    }
                }
                Ir::Text(content) => {
                    if let Some(c) = content {
                        out.push(c);
                    }
                }
            }
            out
        }
    };
}

child_enumeration! {
    /// All direct child expressions of an IR node, mutably: what
    /// [`walk`] descends through.
    child_irs, iter_mut, mut
}

child_enumeration! {
    /// All direct child expressions of an IR node, read-only: for
    /// analyses that inspect subtrees while the parent is immutably
    /// borrowed (e.g. the join-unnesting rule's slot-reference and
    /// rebuild-safety checks).
    child_irs_ref, iter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use xqa_frontend::parse_query;

    fn folded(src: &str) -> (CompiledQuery, usize) {
        let module = parse_query(src).expect("parse");
        let mut q = compile::compile(&module).expect("compile");
        let mut n = 0;
        for (_, root) in q.roots_mut() {
            walk(root, true, &mut |ir| n += usize::from(fold_node(ir)));
        }
        (q, n)
    }

    #[test]
    fn arithmetic_folds() {
        let (q, n) = folded("1 + 2 * 3");
        assert!(n >= 2, "folded {n}");
        assert!(matches!(q.body, Ir::Int(7)), "{:?}", q.body);
        let (q, _) = folded("65.00 - 5.50");
        assert!(matches!(q.body, Ir::Dec(d) if d.to_string() == "59.5"));
        let (q, _) = folded("-(2 + 3)");
        assert!(matches!(q.body, Ir::Int(-5)));
    }

    /// A folded negation prints what negating at run time prints,
    /// negative zero included (it was folded as `0 - x`, which loses
    /// the sign of `-0e0`).
    #[test]
    fn negation_folds_to_what_evaluation_gives() {
        let ctx = crate::DynamicContext::new();
        let run = |query: &str| {
            let plan = crate::Engine::new().compile(query).expect("compiles");
            let folded = !format!("{:?}", plan.compiled().body).contains("Neg");
            let out = xqa_xmlparse::serialize_sequence(&plan.run(&ctx).expect("runs"));
            (folded, out)
        };
        let operands = [
            "0e0",
            "-0e0",
            "(1e0 div 0e0)",
            "(0e0 div 0e0)",
            "2.50",
            "9223372036854775807",
        ];
        for x in operands {
            for (folded, unfolded) in [
                (
                    format!("string(-{x})"),
                    format!("for $z in {x} return string(-$z)"),
                ),
                (
                    format!("<a>{{-{x}}}</a>"),
                    format!("for $z in {x} return <a>{{-$z}}</a>"),
                ),
            ] {
                let (fired, expected) = (run(&folded), run(&unfolded).1);
                assert!(fired.0, "{folded} did not fold");
                assert_eq!(fired.1, expected, "{folded} vs {unfolded}");
            }
        }
        assert_eq!(run("string(-0e0)").1, "-0");
    }

    #[test]
    fn dynamic_errors_are_not_folded() {
        // 1 div 0 must raise at run time, not compile time.
        let (q, n) = folded("1 div 0");
        assert_eq!(n, 0);
        assert!(matches!(q.body, Ir::Arith(..)));
    }

    #[test]
    fn comparisons_fold() {
        let (q, _) = folded("1 < 2");
        assert!(matches!(
            q.body,
            Ir::CallBuiltin(crate::functions::Builtin::TrueFn, _)
        ));
        let (q, _) = folded("\"a\" eq \"b\"");
        assert!(matches!(
            q.body,
            Ir::CallBuiltin(crate::functions::Builtin::FalseFn, _)
        ));
    }

    #[test]
    fn logic_folds_and_absorbs() {
        let (q, _) = folded("1 = 1 and 2 = 2");
        assert!(matches!(
            q.body,
            Ir::CallBuiltin(crate::functions::Builtin::TrueFn, _)
        ));
        // false absorbs even with a non-constant side
        let (q, _) = folded("for $x in (1, 2) return (1 = 2 and $x = 1)");
        let Ir::Flwor(f) = &q.body else {
            panic!("not flwor")
        };
        assert!(
            matches!(
                f.return_expr,
                Ir::CallBuiltin(crate::functions::Builtin::FalseFn, _)
            ),
            "{:?}",
            f.return_expr
        );
        // true reduces `and` to the other operand's EBV
        let (q, _) = folded("for $x in (1, 2) return (1 = 1 and $x = 1)");
        let Ir::Flwor(f) = &q.body else {
            panic!("not flwor")
        };
        assert!(
            matches!(
                f.return_expr,
                Ir::CallBuiltin(crate::functions::Builtin::BooleanFn, _)
            ),
            "{:?}",
            f.return_expr
        );
    }

    #[test]
    fn constant_conditionals_select_branch() {
        let (q, _) = folded("if (1 = 1) then \"yes\" else \"no\"");
        assert!(matches!(q.body, Ir::Str(ref s) if &**s == "yes"));
    }

    #[test]
    fn folding_inside_flwor_clauses() {
        let (q, n) = folded("for $x in (1, 2) where $x > 1 + 1 return $x * (2 + 3)");
        assert!(n >= 2, "folded {n}");
        // the where comparison's rhs and the multiply's rhs are literals now
        let Ir::Flwor(f) = &q.body else {
            panic!("not flwor")
        };
        let has_lit_5 = format!("{:?}", f.return_expr).contains("Int(5)");
        assert!(has_lit_5, "{:?}", f.return_expr);
    }

    #[test]
    fn variables_block_folding() {
        let (_, n) = folded("for $x in (1, 2) return $x + 1");
        assert_eq!(n, 0);
    }
}
