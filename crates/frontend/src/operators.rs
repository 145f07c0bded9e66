//! The operator table: every binary and postfix operator of the
//! expression grammar with its spellings, binding power and
//! associativity, after the precedence table of XQuery 1.0 §A.4 (`treat
//! as` is not supported). The parser's precedence-climbing loop reads
//! it to build trees, and the unparser reads it to print them with only
//! the parentheses binding power requires.

use crate::ast::{ArithOp, Comparison, Expr, ExprKind, NodeComparison, SetOp, UnaryOp};
use crate::lexer::Token;
use Assoc::{Left, Non};
use Comparison as C;
use NodeComparison as N;
use Spelling::{Keyword as W, Symbol as S};

/// How an operator is written.
#[derive(Debug)]
pub enum Spelling {
    /// A punctuation token, and its text.
    Symbol(Token, &'static str),
    /// A contextual keyword: one word, or two separated by a space
    /// (`instance of`).
    Keyword(&'static str),
}

impl Spelling {
    /// The source text.
    pub fn text(&self) -> &'static str {
        match self {
            Spelling::Symbol(_, text) | Spelling::Keyword(text) => text,
        }
    }
}

/// How `a op b op c` groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assoc {
    /// As `(a op b) op c`.
    Left,
    /// Not at all: a syntax error.
    Non,
}

/// A binary operator: one variant per two-operand [`ExprKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Infix {
    /// [`ExprKind::Or`]
    Or,
    /// [`ExprKind::And`]
    And,
    /// [`ExprKind::GeneralComp`]
    GeneralComp(Comparison),
    /// [`ExprKind::ValueComp`]
    ValueComp(Comparison),
    /// [`ExprKind::NodeComp`]
    NodeComp(NodeComparison),
    /// [`ExprKind::Range`]
    Range,
    /// [`ExprKind::Arith`]
    Arith(ArithOp),
    /// [`ExprKind::SetOp`]
    SetOp(SetOp),
}

impl Infix {
    /// `a op b`.
    pub fn build(self, a: Box<Expr>, b: Box<Expr>) -> ExprKind {
        match self {
            Infix::Or => ExprKind::Or(a, b),
            Infix::And => ExprKind::And(a, b),
            Infix::GeneralComp(op) => ExprKind::GeneralComp(op, a, b),
            Infix::ValueComp(op) => ExprKind::ValueComp(op, a, b),
            Infix::NodeComp(op) => ExprKind::NodeComp(op, a, b),
            Infix::Range => ExprKind::Range(a, b),
            Infix::Arith(op) => ExprKind::Arith(op, a, b),
            Infix::SetOp(op) => ExprKind::SetOp(op, a, b),
        }
    }
}

/// What an operator builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A second operand follows.
    Infix(Infix),
    /// A sequence type follows: [`ExprKind::InstanceOf`].
    InstanceOf,
    /// A single type follows: [`ExprKind::CastableAs`].
    CastableAs,
    /// A single type follows: [`ExprKind::CastAs`].
    CastAs,
}

/// One row of [`OPERATORS`].
#[derive(Debug)]
pub struct Operator {
    /// Every accepted spelling; the unparser writes the first.
    pub spellings: &'static [Spelling],
    /// Binding power: the higher, the tighter.
    pub bp: u8,
    /// Associativity.
    pub assoc: Assoc,
    /// What it builds.
    pub op: Op,
}

const fn row(spellings: &'static [Spelling], bp: u8, assoc: Assoc, op: Op) -> Operator {
    Operator {
        spellings,
        bp,
        assoc,
        op,
    }
}

/// Every binary and postfix operator, loosest first. `cast as` binds
/// tighter than `castable as`: `e cast as t castable as u` is
/// `(e cast as t) castable as u`.
#[rustfmt::skip]
pub static OPERATORS: [Operator; 30] = [
    row(&[W("or")],                          1, Left, Op::Infix(Infix::Or)),
    row(&[W("and")],                         2, Left, Op::Infix(Infix::And)),
    row(&[S(Token::Eq, "=")],                3, Non,  Op::Infix(Infix::GeneralComp(C::Eq))),
    row(&[S(Token::Ne, "!=")],               3, Non,  Op::Infix(Infix::GeneralComp(C::Ne))),
    row(&[S(Token::Lt, "<")],                3, Non,  Op::Infix(Infix::GeneralComp(C::Lt))),
    row(&[S(Token::Le, "<=")],               3, Non,  Op::Infix(Infix::GeneralComp(C::Le))),
    row(&[S(Token::Gt, ">")],                3, Non,  Op::Infix(Infix::GeneralComp(C::Gt))),
    row(&[S(Token::Ge, ">=")],               3, Non,  Op::Infix(Infix::GeneralComp(C::Ge))),
    row(&[W("eq")],                          3, Non,  Op::Infix(Infix::ValueComp(C::Eq))),
    row(&[W("ne")],                          3, Non,  Op::Infix(Infix::ValueComp(C::Ne))),
    row(&[W("lt")],                          3, Non,  Op::Infix(Infix::ValueComp(C::Lt))),
    row(&[W("le")],                          3, Non,  Op::Infix(Infix::ValueComp(C::Le))),
    row(&[W("gt")],                          3, Non,  Op::Infix(Infix::ValueComp(C::Gt))),
    row(&[W("ge")],                          3, Non,  Op::Infix(Infix::ValueComp(C::Ge))),
    row(&[W("is")],                          3, Non,  Op::Infix(Infix::NodeComp(N::Is))),
    row(&[S(Token::Precedes, "<<")],         3, Non,  Op::Infix(Infix::NodeComp(N::Precedes))),
    row(&[S(Token::Follows, ">>")],          3, Non,  Op::Infix(Infix::NodeComp(N::Follows))),
    row(&[W("to")],                          4, Non,  Op::Infix(Infix::Range)),
    row(&[S(Token::Plus, "+")],              5, Left, Op::Infix(Infix::Arith(ArithOp::Add))),
    row(&[S(Token::Minus, "-")],             5, Left, Op::Infix(Infix::Arith(ArithOp::Sub))),
    row(&[S(Token::Star, "*")],              6, Left, Op::Infix(Infix::Arith(ArithOp::Mul))),
    row(&[W("div")],                         6, Left, Op::Infix(Infix::Arith(ArithOp::Div))),
    row(&[W("idiv")],                        6, Left, Op::Infix(Infix::Arith(ArithOp::IDiv))),
    row(&[W("mod")],                         6, Left, Op::Infix(Infix::Arith(ArithOp::Mod))),
    row(&[W("union"), S(Token::Pipe, "|")],  7, Left, Op::Infix(Infix::SetOp(SetOp::Union))),
    row(&[W("intersect")],                   8, Left, Op::Infix(Infix::SetOp(SetOp::Intersect))),
    row(&[W("except")],                      8, Left, Op::Infix(Infix::SetOp(SetOp::Except))),
    row(&[W("instance of")],                 9, Non,  Op::InstanceOf),
    row(&[W("castable as")],                10, Non,  Op::CastableAs),
    row(&[W("cast as")],                    11, Non,  Op::CastAs),
];

/// Binding power of the prefix operators: tighter than every row, so
/// `-e cast as t` casts `-e`.
pub const UNARY_BP: u8 = 12;

/// The prefix operators, unary `-` and `+`, with their tokens.
pub static PREFIX: [(UnaryOp, Token, &str); 2] = [
    (UnaryOp::Neg, Token::Minus, "-"),
    (UnaryOp::Plus, Token::Plus, "+"),
];

/// The row of the operator at the root of `kind`, its left operand and,
/// for an infix operator, its right one.
pub fn operator_of(kind: &ExprKind) -> Option<(&'static Operator, &Expr, Option<&Expr>)> {
    let (op, lhs, rhs) = match kind {
        ExprKind::Or(a, b) => (Op::Infix(Infix::Or), a, Some(b)),
        ExprKind::And(a, b) => (Op::Infix(Infix::And), a, Some(b)),
        ExprKind::GeneralComp(c, a, b) => (Op::Infix(Infix::GeneralComp(*c)), a, Some(b)),
        ExprKind::ValueComp(c, a, b) => (Op::Infix(Infix::ValueComp(*c)), a, Some(b)),
        ExprKind::NodeComp(c, a, b) => (Op::Infix(Infix::NodeComp(*c)), a, Some(b)),
        ExprKind::Range(a, b) => (Op::Infix(Infix::Range), a, Some(b)),
        ExprKind::Arith(o, a, b) => (Op::Infix(Infix::Arith(*o)), a, Some(b)),
        ExprKind::SetOp(o, a, b) => (Op::Infix(Infix::SetOp(*o)), a, Some(b)),
        ExprKind::InstanceOf(a, _) => (Op::InstanceOf, a, None),
        ExprKind::CastableAs(a, ..) => (Op::CastableAs, a, None),
        ExprKind::CastAs(a, ..) => (Op::CastAs, a, None),
        _ => return None,
    };
    let row = OPERATORS.iter().find(|row| row.op == op)?;
    Some((row, lhs, rhs.map(|b| &**b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operator_has_one_row_and_every_spelling_one_operator() {
        let e = || Expr::new(ExprKind::ContextItem, Default::default());
        for row in &OPERATORS {
            let kind = match row.op {
                Op::Infix(op) => op.build(Box::new(e()), Box::new(e())),
                Op::InstanceOf => {
                    ExprKind::InstanceOf(Box::new(e()), crate::ast::SequenceType::any())
                }
                Op::CastableAs => {
                    ExprKind::CastableAs(Box::new(e()), crate::ast::Name::local("t"), false)
                }
                Op::CastAs => ExprKind::CastAs(Box::new(e()), crate::ast::Name::local("t"), false),
            };
            let (found, ..) = operator_of(&kind).expect("row found");
            assert!(std::ptr::eq(found, row), "{row:?}");
        }
        let texts: Vec<&str> = OPERATORS
            .iter()
            .flat_map(|r| r.spellings)
            .map(Spelling::text)
            .collect();
        for (i, t) in texts.iter().enumerate() {
            assert!(!texts[i + 1..].contains(t), "{t} spelled twice");
        }
    }
}
