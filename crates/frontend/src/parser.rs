//! Recursive-descent parser for the XQuery subset plus the paper's
//! extensions.
//!
//! The parser drives the [`Lexer`] with up to two tokens of lookahead in
//! expression mode and switches it into raw mode inside direct
//! constructors. Keywords are matched contextually — `for` is only a
//! keyword when followed by a `$variable`, `order` only at a clause
//! boundary, and so on — which is how XQuery resolves its
//! keywords-are-names ambiguity.
//!
//! Clauses and constructors have one function each. Operator
//! expressions are one precedence-climbing (Pratt) loop over the
//! operator table [`OPERATORS`], which says how each binary and postfix
//! operator is spelled, how tightly it binds and whether it chains;
//! unary `+`/`-` are the only prefix case.
//!
//! The syntax tree is never deeper than [`MAX_PARSE_DEPTH`]: every
//! nested expression, folded operator, prefix sign, postfix cast and
//! nested constructor counts one level, so recursion over the tree (here
//! and in the engine) is bounded by the query's nesting, not its length.

use crate::ast::*;
use crate::error::{SyntaxError, SyntaxResult};
use crate::lexer::{AttrChunkEnd, ContentChunkEnd, Lexer, Token};
use crate::operators::{Assoc, Op, Operator, Spelling, OPERATORS, PREFIX};
use std::collections::VecDeque;

/// Parse a complete query (prolog + body).
pub fn parse_query(source: &str) -> SyntaxResult<Module> {
    let mut p = Parser::new(source);
    let prolog = p.parse_prolog()?;
    let body = p.parse_expr()?;
    p.expect_eof()?;
    Ok(Module { prolog, body })
}

/// Parse a standalone expression (no prolog allowed).
pub fn parse_expression(source: &str) -> SyntaxResult<Expr> {
    let mut p = Parser::new(source);
    let body = p.parse_expr()?;
    p.expect_eof()?;
    Ok(body)
}

/// Names reserved for kind tests and control syntax: these may not be
/// used as function names in calls (`text()` is a node test, not a call).
const RESERVED_FUNCTION_NAMES: &[&str] = &[
    "attribute",
    "comment",
    "document-node",
    "element",
    "empty-sequence",
    "if",
    "item",
    "node",
    "processing-instruction",
    "text",
    "typeswitch",
];

/// Maximum depth of the syntax tree, counted in expressions from the
/// query body down. It bounds the parser's recursion and every later
/// recursive walk over the tree against adversarial input.
pub const MAX_PARSE_DEPTH: usize = 64;

struct Parser<'a> {
    lexer: Lexer<'a>,
    buffer: VecDeque<(Token, Span)>,
    /// Tree level of the expression being parsed.
    depth: usize,
    /// Deepest tree level reached by the operand being parsed. Folding an
    /// operator over it, or wrapping it in a filter or path, moves the
    /// whole operand one level down.
    deepest: usize,
}

/// Result of parsing one path step.
enum StepOrExpr {
    Step(AxisStep),
    Primary { expr: Expr, predicates: Vec<Expr> },
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Parser<'a> {
        Parser {
            lexer: Lexer::new(source),
            buffer: VecDeque::new(),
            depth: 0,
            deepest: 0,
        }
    }

    // ---- token plumbing ----------------------------------------------

    fn fill(&mut self, n: usize) -> SyntaxResult<()> {
        while self.buffer.len() < n {
            let t = self.lexer.next_token()?;
            self.buffer.push_back(t);
        }
        Ok(())
    }

    fn peek(&mut self) -> SyntaxResult<&Token> {
        self.fill(1)?;
        Ok(&self.buffer[0].0)
    }

    fn peek2(&mut self) -> SyntaxResult<&Token> {
        self.fill(2)?;
        Ok(&self.buffer[1].0)
    }

    fn peek_span(&mut self) -> SyntaxResult<Span> {
        self.fill(1)?;
        Ok(self.buffer[0].1)
    }

    fn next(&mut self) -> SyntaxResult<(Token, Span)> {
        self.fill(1)?;
        Ok(self.buffer.pop_front().expect("buffer filled"))
    }

    fn error_here(&mut self, message: impl Into<String>) -> SyntaxError {
        let offset = self
            .buffer
            .front()
            .map(|(_, s)| s.start)
            .unwrap_or_else(|| self.lexer.position());
        SyntaxError::at(self.lexer.source(), offset, message)
    }

    fn expect(&mut self, want: &Token) -> SyntaxResult<Span> {
        let (t, span) = self.next()?;
        if &t == want {
            Ok(span)
        } else {
            Err(SyntaxError::at(
                self.lexer.source(),
                span.start,
                format!("expected {}, found {}", want.describe(), t.describe()),
            ))
        }
    }

    fn expect_eof(&mut self) -> SyntaxResult<()> {
        let (t, span) = self.next()?;
        if t == Token::Eof {
            Ok(())
        } else {
            Err(SyntaxError::at(
                self.lexer.source(),
                span.start,
                format!("unexpected {} after end of expression", t.describe()),
            ))
        }
    }

    /// True when the current token is the bare name `kw`.
    fn at_keyword(&mut self, kw: &str) -> SyntaxResult<bool> {
        Ok(matches!(self.peek()?, Token::NCName(s) if s == kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> SyntaxResult<bool> {
        if self.at_keyword(kw)? {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> SyntaxResult<Span> {
        if self.at_keyword(kw)? {
            Ok(self.next()?.1)
        } else {
            let found = self.peek()?.describe();
            Err(self.error_here(format!("expected keyword '{kw}', found {found}")))
        }
    }

    fn expect_var(&mut self) -> SyntaxResult<(String, Span)> {
        let (t, span) = self.next()?;
        match t {
            Token::VarName(v) => Ok((v, span)),
            other => Err(SyntaxError::at(
                self.lexer.source(),
                span.start,
                format!("expected a $variable, found {}", other.describe()),
            )),
        }
    }

    /// Consume a (possibly prefixed) name token.
    fn expect_name(&mut self) -> SyntaxResult<(Name, Span)> {
        let (t, span) = self.next()?;
        match t {
            Token::NCName(l) => Ok((Name::local(l), span)),
            Token::QName(p, l) => Ok((Name::prefixed(p, l), span)),
            other => Err(SyntaxError::at(
                self.lexer.source(),
                span.start,
                format!("expected a name, found {}", other.describe()),
            )),
        }
    }

    // ---- prolog -------------------------------------------------------

    fn parse_prolog(&mut self) -> SyntaxResult<Prolog> {
        let mut prolog = Prolog::default();
        // Optional version declaration.
        if self.at_keyword("xquery")? && matches!(self.peek2()?, Token::NCName(s) if s == "version")
        {
            self.next()?;
            self.next()?;
            match self.next()?.0 {
                Token::StringLit(v) if v == "1.0" || v == "1.1" || v == "3.0" => {}
                Token::StringLit(v) => {
                    return Err(self.error_here(format!("unsupported XQuery version {v:?}")))
                }
                other => {
                    return Err(self.error_here(format!(
                        "expected version string, found {}",
                        other.describe()
                    )))
                }
            }
            self.expect(&Token::Semicolon)?;
        }
        while self.at_keyword("declare")? {
            // Only commit when the next token is a declaration keyword;
            // otherwise `declare` is a path step in the body.
            let is_decl = matches!(
                self.peek2()?,
                Token::NCName(s) if s == "function" || s == "variable" || s == "ordering"
            );
            if !is_decl {
                break;
            }
            self.next()?; // declare
            if self.eat_keyword("function")? {
                prolog.functions.push(self.parse_function_decl()?);
            } else if self.eat_keyword("variable")? {
                let (var, _) = self.expect_var()?;
                let ty = self.try_parse_type_declaration()?;
                self.expect(&Token::Assign)?;
                let init = self.parse_expr_single()?;
                prolog.variables.push(VarDecl {
                    name: var,
                    ty,
                    init,
                });
            } else {
                self.expect_keyword("ordering")?;
                prolog.ordering = Some(if self.eat_keyword("ordered")? {
                    OrderingMode::Ordered
                } else {
                    self.expect_keyword("unordered")?;
                    OrderingMode::Unordered
                });
            }
            self.expect(&Token::Semicolon)?;
        }
        Ok(prolog)
    }

    fn parse_function_decl(&mut self) -> SyntaxResult<FunctionDecl> {
        let (name, start_span) = self.expect_name()?;
        self.expect(&Token::LParen)?;
        let mut params = Vec::new();
        if self.peek()? != &Token::RParen {
            loop {
                let (var, _) = self.expect_var()?;
                let ty = self.try_parse_type_declaration()?;
                params.push(Param { name: var, ty });
                if !self.eat_token(&Token::Comma)? {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        let return_type = self.try_parse_type_declaration()?;
        self.expect(&Token::LBrace)?;
        let body = self.parse_expr()?;
        let end = self.expect(&Token::RBrace)?;
        Ok(FunctionDecl {
            name,
            params,
            return_type,
            body,
            span: start_span.merge(end),
        })
    }

    fn eat_token(&mut self, t: &Token) -> SyntaxResult<bool> {
        if self.peek()? == t {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// `as SequenceType`, if present.
    fn try_parse_type_declaration(&mut self) -> SyntaxResult<Option<SequenceType>> {
        if self.eat_keyword("as")? {
            Ok(Some(self.parse_sequence_type()?))
        } else {
            Ok(None)
        }
    }

    fn parse_sequence_type(&mut self) -> SyntaxResult<SequenceType> {
        let item = self.parse_item_type()?;
        if matches!(item, ItemType::EmptySequence) {
            return Ok(SequenceType {
                item,
                occurrence: Occurrence::ZeroOrMore,
            });
        }
        let occurrence = match self.peek()? {
            Token::Question => {
                self.next()?;
                Occurrence::Optional
            }
            Token::Star => {
                self.next()?;
                Occurrence::ZeroOrMore
            }
            Token::Plus => {
                self.next()?;
                Occurrence::OneOrMore
            }
            _ => Occurrence::One,
        };
        Ok(SequenceType { item, occurrence })
    }

    fn parse_item_type(&mut self) -> SyntaxResult<ItemType> {
        let (name, _) = self.expect_name()?;
        let is_paren = self.peek()? == &Token::LParen;
        if name.prefix.is_none() && is_paren {
            self.next()?; // (
            let kind = match name.local.as_str() {
                "item" => ItemType::AnyItem,
                "node" => ItemType::AnyNode,
                "text" => ItemType::Text,
                "comment" => ItemType::Comment,
                "processing-instruction" => ItemType::ProcessingInstruction,
                "document-node" => ItemType::Document,
                "empty-sequence" => ItemType::EmptySequence,
                "element" | "attribute" => {
                    let inner = if self.peek()? == &Token::RParen || self.eat_token(&Token::Star)? {
                        None
                    } else {
                        Some(self.expect_name()?.0)
                    };
                    self.expect(&Token::RParen)?;
                    return Ok(if name.local == "element" {
                        ItemType::Element(inner)
                    } else {
                        ItemType::Attribute(inner)
                    });
                }
                other => return Err(self.error_here(format!("unknown item type {other}()"))),
            };
            self.expect(&Token::RParen)?;
            Ok(kind)
        } else {
            Ok(ItemType::Atomic(name))
        }
    }

    // ---- expressions ---------------------------------------------------

    /// Expr ::= ExprSingle ("," ExprSingle)*
    fn parse_expr(&mut self) -> SyntaxResult<Expr> {
        let first = self.parse_expr_single()?;
        if self.peek()? != &Token::Comma {
            return Ok(first);
        }
        let start = first.span;
        let mut items = vec![first];
        while self.eat_token(&Token::Comma)? {
            items.push(self.parse_expr_single()?);
        }
        let span = start.merge(items.last().expect("non-empty").span);
        Ok(Expr::new(ExprKind::Sequence(items), span))
    }

    fn parse_expr_single(&mut self) -> SyntaxResult<Expr> {
        self.descend()?;
        let kw = self.peek()?.as_name().map(str::to_owned);
        let expr = match kw.as_deref() {
            Some("for" | "let") if matches!(self.peek2()?, Token::VarName(_)) => self.parse_flwor(),
            Some("for") if matches!(self.peek2()?, Token::NCName(s) if s == "tumbling" || s == "sliding") => {
                self.parse_flwor()
            }
            Some(kw @ ("some" | "every")) if matches!(self.peek2()?, Token::VarName(_)) => {
                self.parse_quantified(kw)
            }
            Some("if") if self.peek2()? == &Token::LParen => self.parse_if(),
            Some(kw @ ("element" | "attribute"))
                if matches!(self.peek2()?, Token::NCName(_) | Token::QName(..)) =>
            {
                self.parse_computed_constructor(kw)
            }
            Some("text") if self.peek2()? == &Token::LBrace => {
                self.parse_computed_constructor("text")
            }
            _ => self.parse_operators(0),
        }?;
        self.depth -= 1;
        Ok(expr)
    }

    /// Enter one tree level below the current one.
    fn descend(&mut self) -> SyntaxResult<()> {
        self.depth += 1;
        self.reach(self.depth)
    }

    /// Record a node at tree level `level`; past [`MAX_PARSE_DEPTH`] the
    /// query is rejected.
    fn reach(&mut self, level: usize) -> SyntaxResult<()> {
        self.deepest = self.deepest.max(level);
        if level > MAX_PARSE_DEPTH {
            return Err(self.error_here(format!(
                "expression nesting exceeds the supported depth ({MAX_PARSE_DEPTH})"
            )));
        }
        Ok(())
    }

    fn parse_if(&mut self) -> SyntaxResult<Expr> {
        let start = self.expect_keyword("if")?;
        self.expect(&Token::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        self.expect_keyword("then")?;
        let then = self.parse_expr_single()?;
        self.expect_keyword("else")?;
        let otherwise = self.parse_expr_single()?;
        let span = start.merge(otherwise.span);
        Ok(Expr::new(
            ExprKind::If {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
            },
            span,
        ))
    }

    fn parse_quantified(&mut self, kw: &str) -> SyntaxResult<Expr> {
        let kind = if kw == "some" {
            Quantifier::Some
        } else {
            Quantifier::Every
        };
        let start = self.next()?.1; // some/every
        let mut bindings = Vec::new();
        loop {
            let (var, _) = self.expect_var()?;
            self.expect_keyword("in")?;
            let expr = self.parse_expr_single()?;
            bindings.push((var, expr));
            if !self.eat_token(&Token::Comma)? {
                break;
            }
        }
        self.expect_keyword("satisfies")?;
        let satisfies = self.parse_expr_single()?;
        let span = start.merge(satisfies.span);
        Ok(Expr::new(
            ExprKind::Quantified {
                kind,
                bindings,
                satisfies: Box::new(satisfies.clone()),
            },
            span,
        ))
    }

    fn parse_computed_constructor(&mut self, kw: &str) -> SyntaxResult<Expr> {
        let start = self.next()?.1; // element/attribute/text
        if kw == "text" {
            self.expect(&Token::LBrace)?;
            let content = if self.peek()? == &Token::RBrace {
                None
            } else {
                Some(Box::new(self.parse_expr()?))
            };
            let end = self.expect(&Token::RBrace)?;
            return Ok(Expr::new(ExprKind::ComputedText(content), start.merge(end)));
        }
        let (name, _) = self.expect_name()?;
        self.expect(&Token::LBrace)?;
        let content = if self.peek()? == &Token::RBrace {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let end = self.expect(&Token::RBrace)?;
        let span = start.merge(end);
        Ok(Expr::new(
            if kw == "element" {
                ExprKind::ComputedElement { name, content }
            } else {
                ExprKind::ComputedAttribute { name, content }
            },
            span,
        ))
    }

    // ---- FLWOR ----------------------------------------------------------

    fn parse_flwor(&mut self) -> SyntaxResult<Expr> {
        let start = self.peek_span()?;
        let mut clauses = Vec::new();
        loop {
            if self.at_keyword("for")? && matches!(self.peek2()?, Token::VarName(_)) {
                self.next()?;
                let mut bindings = Vec::new();
                loop {
                    let (var, _) = self.expect_var()?;
                    let ty = self.try_parse_type_declaration()?;
                    let at = if self.at_keyword("at")? && matches!(self.peek2()?, Token::VarName(_))
                    {
                        self.next()?;
                        Some(self.expect_var()?.0)
                    } else {
                        None
                    };
                    self.expect_keyword("in")?;
                    let expr = self.parse_expr_single()?;
                    bindings.push(ForBinding { var, at, ty, expr });
                    if !self.eat_token(&Token::Comma)? {
                        break;
                    }
                }
                clauses.push(InitialClause::For(bindings));
            } else if self.at_keyword("for")?
                && matches!(self.peek2()?, Token::NCName(s) if s == "tumbling" || s == "sliding")
            {
                self.next()?;
                clauses.push(InitialClause::Window(Box::new(self.parse_window_clause()?)));
            } else if self.at_keyword("let")? && matches!(self.peek2()?, Token::VarName(_)) {
                self.next()?;
                clauses.push(InitialClause::Let(self.parse_let_bindings()?));
            } else if self.at_keyword("count")? && matches!(self.peek2()?, Token::VarName(_)) {
                self.next()?;
                clauses.push(InitialClause::Count(self.expect_var()?.0));
            } else {
                break;
            }
        }
        if clauses.is_empty() {
            return Err(self.error_here("FLWOR expression requires at least one for/let clause"));
        }

        let where_clause = if self.eat_keyword("where")? {
            Some(self.parse_expr_single()?)
        } else {
            None
        };

        let group_by = if self.at_keyword("group")? {
            self.next()?;
            self.expect_keyword("by")?;
            Some(self.parse_group_by_body()?)
        } else {
            None
        };

        let mut post_group_clauses = Vec::new();
        let mut post_group_where = None;
        if group_by.is_some() {
            loop {
                if self.at_keyword("let")? && matches!(self.peek2()?, Token::VarName(_)) {
                    self.next()?;
                    post_group_clauses.extend(
                        self.parse_let_bindings()?
                            .into_iter()
                            .map(PostGroupClause::Let),
                    );
                } else if self.at_keyword("count")? && matches!(self.peek2()?, Token::VarName(_)) {
                    self.next()?;
                    post_group_clauses.push(PostGroupClause::Count(self.expect_var()?.0));
                } else {
                    break;
                }
            }
            if self.eat_keyword("where")? {
                post_group_where = Some(self.parse_expr_single()?);
            }
        }

        let order_by = self.try_parse_order_by()?;

        self.expect_keyword("return")?;
        let return_at = if self.at_keyword("at")? && matches!(self.peek2()?, Token::VarName(_)) {
            self.next()?;
            Some(self.expect_var()?.0)
        } else {
            None
        };
        let return_expr = self.parse_expr_single()?;
        let span = start.merge(return_expr.span);
        Ok(Expr::new(
            ExprKind::Flwor(Box::new(Flwor {
                clauses,
                where_clause,
                group_by,
                post_group_clauses,
                post_group_where,
                order_by,
                return_at,
                return_expr,
            })),
            span,
        ))
    }

    fn parse_let_bindings(&mut self) -> SyntaxResult<Vec<LetBinding>> {
        let mut bindings = Vec::new();
        loop {
            let (var, _) = self.expect_var()?;
            let ty = self.try_parse_type_declaration()?;
            self.expect(&Token::Assign)?;
            let expr = self.parse_expr_single()?;
            bindings.push(LetBinding { var, ty, expr });
            if !self.eat_token(&Token::Comma)? {
                break;
            }
        }
        Ok(bindings)
    }

    /// A window clause; `for` has been consumed, `tumbling`/`sliding`
    /// is the current token.
    fn parse_window_clause(&mut self) -> SyntaxResult<WindowClause> {
        let sliding = if self.eat_keyword("sliding")? {
            true
        } else {
            self.expect_keyword("tumbling")?;
            false
        };
        self.expect_keyword("window")?;
        let (var, _) = self.expect_var()?;
        self.expect_keyword("in")?;
        let expr = self.parse_expr_single()?;
        self.expect_keyword("start")?;
        let start = self.parse_window_condition()?;
        let mut only_end = false;
        let end = if self.at_keyword("only")?
            && matches!(self.peek2()?, Token::NCName(s) if s == "end")
        {
            self.next()?;
            self.next()?;
            only_end = true;
            Some(self.parse_window_condition()?)
        } else if self.at_keyword("end")? {
            // `end` must introduce a window condition, not be a path
            // step: peek for the condition shape.
            self.next()?;
            Some(self.parse_window_condition()?)
        } else {
            None
        };
        if sliding && end.is_none() {
            return Err(self.error_here("sliding windows require an end condition"));
        }
        Ok(WindowClause {
            sliding,
            var,
            expr,
            start,
            end,
            only_end,
        })
    }

    /// `($cur)? ("at" $p)? ("previous" $x)? ("next" $y)? "when" Expr`
    fn parse_window_condition(&mut self) -> SyntaxResult<WindowCondition> {
        let item_var = if matches!(self.peek()?, Token::VarName(_)) {
            Some(self.expect_var()?.0)
        } else {
            None
        };
        let at_var = if self.at_keyword("at")? && matches!(self.peek2()?, Token::VarName(_)) {
            self.next()?;
            Some(self.expect_var()?.0)
        } else {
            None
        };
        let previous_var =
            if self.at_keyword("previous")? && matches!(self.peek2()?, Token::VarName(_)) {
                self.next()?;
                Some(self.expect_var()?.0)
            } else {
                None
            };
        let next_var = if self.at_keyword("next")? && matches!(self.peek2()?, Token::VarName(_)) {
            self.next()?;
            Some(self.expect_var()?.0)
        } else {
            None
        };
        self.expect_keyword("when")?;
        let when = self.parse_expr_single()?;
        Ok(WindowCondition {
            item_var,
            at_var,
            previous_var,
            next_var,
            when,
        })
    }

    /// The body of `group by` (keywords `group by` already consumed).
    fn parse_group_by_body(&mut self) -> SyntaxResult<GroupByClause> {
        let mut keys = Vec::new();
        loop {
            let expr = self.parse_expr_single()?;
            self.expect_keyword("into")?;
            let (var, _) = self.expect_var()?;
            let using = if self.eat_keyword("using")? {
                Some(self.expect_name()?.0)
            } else {
                None
            };
            keys.push(GroupKey { expr, var, using });
            if !self.eat_token(&Token::Comma)? {
                break;
            }
        }
        let mut nests = Vec::new();
        if self.eat_keyword("nest")? {
            loop {
                let expr = self.parse_expr_single()?;
                let order_by = self.try_parse_order_by()?;
                self.expect_keyword("into")?;
                let (var, _) = self.expect_var()?;
                nests.push(NestBinding {
                    expr,
                    order_by,
                    var,
                });
                if !self.eat_token(&Token::Comma)? {
                    break;
                }
            }
        }
        Ok(GroupByClause { keys, nests })
    }

    fn try_parse_order_by(&mut self) -> SyntaxResult<Option<OrderByClause>> {
        let stable = if self.at_keyword("stable")?
            && matches!(self.peek2()?, Token::NCName(s) if s == "order")
        {
            self.next()?;
            true
        } else {
            false
        };
        if !self.at_keyword("order")? || !matches!(self.peek2()?, Token::NCName(s) if s == "by") {
            if stable {
                return Err(self.error_here("expected 'order by' after 'stable'"));
            }
            return Ok(None);
        }
        self.next()?; // order
        self.next()?; // by
        let mut specs = Vec::new();
        loop {
            let expr = self.parse_expr_single()?;
            let descending = if self.eat_keyword("descending")? {
                true
            } else {
                self.eat_keyword("ascending")?;
                false
            };
            let empty = if self.at_keyword("empty")?
                && matches!(self.peek2()?, Token::NCName(s) if s == "greatest" || s == "least")
            {
                self.next()?;
                if self.eat_keyword("greatest")? {
                    Some(EmptyOrder::Greatest)
                } else {
                    self.expect_keyword("least")?;
                    Some(EmptyOrder::Least)
                }
            } else {
                None
            };
            specs.push(OrderSpec {
                expr,
                descending,
                empty,
            });
            if !self.eat_token(&Token::Comma)? {
                break;
            }
        }
        Ok(Some(OrderByClause { stable, specs }))
    }

    // ---- operators ---------------------------------------------------------

    /// Operator expressions: one precedence-climbing loop over
    /// [`OPERATORS`], folding every operator that binds at least `min_bp`.
    /// A right operand is parsed one level down with a tighter minimum; a
    /// folded operator moves the left operand one level down.
    //
    // Note on the paper's §3.3 `local:set-equal`: as printed it reads
    // `... satisfies A and every $x in ... satisfies B`. Under the real
    // XQuery grammar that is a syntax error (quantified expressions are
    // not `and` operands), and any lenient parse silently moves the
    // `and` *inside* the innermost `satisfies` — changing the meaning
    // (the empty sequence would then merge into arbitrary groups). We
    // therefore keep the strict grammar; the function must be written
    // with explicit parentheses: `(every ... satisfies some ...
    // satisfies $i1 eq $i2) and (every ...)`.
    fn parse_operators(&mut self, min_bp: u8) -> SyntaxResult<Expr> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut lhs = self.parse_unary()?;
        // After a non-associative operator nothing as tight may follow.
        let mut max_bp = u8::MAX;
        while let Some((row, tokens)) = self.peek_operator()? {
            if row.bp < min_bp || row.bp > max_bp {
                break;
            }
            self.reach(self.deepest + 1)?;
            for _ in 0..tokens {
                self.next()?;
            }
            let mut span = lhs.span;
            let operand = Box::new(lhs);
            let kind = match row.op {
                Op::Infix(op) => {
                    self.depth += 1;
                    let rhs = self.parse_operators(row.bp + 1)?;
                    self.depth -= 1;
                    span = span.merge(rhs.span);
                    op.build(operand, Box::new(rhs))
                }
                Op::InstanceOf => ExprKind::InstanceOf(operand, self.parse_sequence_type()?),
                Op::CastableAs | Op::CastAs => {
                    let (name, _) = self.expect_name()?;
                    let optional = self.eat_token(&Token::Question)?;
                    if row.op == Op::CastAs {
                        ExprKind::CastAs(operand, name, optional)
                    } else {
                        ExprKind::CastableAs(operand, name, optional)
                    }
                }
            };
            lhs = Expr::new(kind, span);
            max_bp = match row.assoc {
                Assoc::Left => row.bp,
                Assoc::Non => row.bp - 1,
            };
        }
        self.deepest = self.deepest.max(outer);
        Ok(lhs)
    }

    /// The operator the next tokens spell, and how many tokens that takes.
    fn peek_operator(&mut self) -> SyntaxResult<Option<(&'static Operator, usize)>> {
        let token = self.peek()?;
        let name = token.as_name();
        let found = OPERATORS.iter().find_map(|row| {
            let spelling = row.spellings.iter().find(|s| match s {
                Spelling::Symbol(t, _) => t == token,
                // The token is the keyword or its first word.
                Spelling::Keyword(text) => name.is_some_and(|n| {
                    text.strip_prefix(n)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
                }),
            })?;
            Some((row, spelling.text()))
        });
        let Some((row, text)) = found else {
            return Ok(None);
        };
        Ok(match text.split_once(' ') {
            None => Some((row, 1)),
            Some((_, second)) => (self.peek2()?.as_name() == Some(second)).then_some((row, 2)),
        })
    }

    /// `("-" | "+")* PathExpr`, each sign one tree level.
    fn parse_unary(&mut self) -> SyntaxResult<Expr> {
        let token = self.peek()?;
        let Some(&(op, ..)) = PREFIX.iter().find(|(_, t, _)| t == token) else {
            return self.parse_path_expr();
        };
        let start = self.next()?.1;
        self.descend()?;
        let operand = self.parse_unary()?;
        self.depth -= 1;
        let span = start.merge(operand.span);
        Ok(Expr::new(ExprKind::Unary(op, Box::new(operand)), span))
    }

    // ---- paths -----------------------------------------------------------

    fn parse_path_expr(&mut self) -> SyntaxResult<Expr> {
        let start_span = self.peek_span()?;
        match self.peek()? {
            Token::Slash => {
                self.next()?;
                if self.starts_step()? {
                    self.parse_relative_path(PathStart::Root, Vec::new(), start_span, true)
                } else {
                    Ok(Expr::new(
                        ExprKind::Path(Box::new(Path {
                            start: PathStart::Root,
                            steps: Vec::new(),
                        })),
                        start_span,
                    ))
                }
            }
            Token::DoubleSlash => {
                self.next()?;
                let steps = vec![descendant_or_self_step()];
                self.parse_relative_path(PathStart::Root, steps, start_span, true)
            }
            _ => match self.parse_step()? {
                StepOrExpr::Primary { expr, predicates } => {
                    let base = self.filter(expr, predicates)?;
                    if !matches!(self.peek()?, Token::Slash | Token::DoubleSlash) {
                        return Ok(base);
                    }
                    self.parse_relative_path(PathStart::Expr(base), Vec::new(), start_span, false)
                }
                StepOrExpr::Step(step) => self.parse_relative_path(
                    PathStart::Context,
                    vec![Step::Axis(step)],
                    start_span,
                    false,
                ),
            },
        }
    }

    /// `expr[p1][p2]...`, or `expr` itself when there is no predicate.
    fn filter(&mut self, expr: Expr, predicates: Vec<Expr>) -> SyntaxResult<Expr> {
        if predicates.is_empty() {
            return Ok(expr);
        }
        self.reach(self.deepest + 1)?;
        let span = expr.span;
        let base = Box::new(expr);
        Ok(Expr::new(ExprKind::Filter { base, predicates }, span))
    }

    /// Continue a path after its start: `("/" | "//") StepExpr` repeats.
    /// `need_step` is true when the caller already consumed a leading
    /// `/` or `//`, making the first step mandatory.
    fn parse_relative_path(
        &mut self,
        start: PathStart,
        mut steps: Vec<Step>,
        start_span: Span,
        mut need_step: bool,
    ) -> SyntaxResult<Expr> {
        while need_step || matches!(self.peek()?, Token::Slash | Token::DoubleSlash) {
            if !need_step && self.next()?.0 == Token::DoubleSlash {
                steps.push(descendant_or_self_step());
            }
            need_step = false;
            steps.push(match self.parse_step()? {
                StepOrExpr::Step(s) => Step::Axis(s),
                StepOrExpr::Primary { expr, predicates } => Step::Expr { expr, predicates },
            });
        }
        // An expression start or step sits one level below the path.
        if matches!(start, PathStart::Expr(_))
            || steps.iter().any(|s| matches!(s, Step::Expr { .. }))
        {
            self.reach(self.deepest + 1)?;
        }
        let end = steps.last().map(step_span).unwrap_or(start_span);
        let span = start_span.merge(end);
        Ok(Expr::new(
            ExprKind::Path(Box::new(Path { start, steps })),
            span,
        ))
    }

    /// Can the current token begin a path step?
    fn starts_step(&mut self) -> SyntaxResult<bool> {
        Ok(matches!(
            self.peek()?,
            Token::NCName(_)
                | Token::QName(..)
                | Token::Star
                | Token::At
                | Token::Dot
                | Token::DotDot
                | Token::VarName(_)
                | Token::LParen
                | Token::StringLit(_)
                | Token::Integer(_)
                | Token::Decimal(_)
                | Token::Double(_)
        ))
    }

    fn parse_step(&mut self) -> SyntaxResult<StepOrExpr> {
        match self.peek()? {
            Token::At => {
                self.next()?;
                let test = self.parse_node_test()?;
                let predicates = self.parse_predicates()?;
                Ok(StepOrExpr::Step(AxisStep {
                    axis: Axis::Attribute,
                    test,
                    predicates,
                }))
            }
            Token::DotDot => {
                self.next()?;
                let predicates = self.parse_predicates()?;
                Ok(StepOrExpr::Step(AxisStep {
                    axis: Axis::Parent,
                    test: NodeTest::AnyKind,
                    predicates,
                }))
            }
            Token::NCName(name) => {
                let name = name.clone();
                // Explicit axis?
                if self.peek2()? == &Token::ColonColon {
                    let axis = axis_from_name(&name)
                        .ok_or_else(|| self.error_here(format!("unknown axis {name:?}")))?;
                    self.next()?; // axis
                    self.next()?; // ::
                    let test = self.parse_node_test()?;
                    let predicates = self.parse_predicates()?;
                    return Ok(StepOrExpr::Step(AxisStep {
                        axis,
                        test,
                        predicates,
                    }));
                }
                // Kind test or function call?
                if self.peek2()? == &Token::LParen {
                    if let Some(test) = self.try_parse_kind_test()? {
                        let predicates = self.parse_predicates()?;
                        let axis = default_axis_for_test(&test);
                        return Ok(StepOrExpr::Step(AxisStep {
                            axis,
                            test,
                            predicates,
                        }));
                    }
                    if RESERVED_FUNCTION_NAMES.contains(&name.as_str()) {
                        return Err(self.error_here(format!(
                            "{name:?} is reserved and cannot be called here"
                        )));
                    }
                    let expr = self.parse_function_call()?;
                    let predicates = self.parse_predicates()?;
                    return Ok(StepOrExpr::Primary { expr, predicates });
                }
                // Plain name test on the child axis.
                self.next()?;
                let predicates = self.parse_predicates()?;
                Ok(StepOrExpr::Step(AxisStep {
                    axis: Axis::Child,
                    test: NodeTest::Name(Name::local(name)),
                    predicates,
                }))
            }
            Token::QName(..) => {
                if self.peek2()? == &Token::LParen {
                    let expr = self.parse_function_call()?;
                    let predicates = self.parse_predicates()?;
                    return Ok(StepOrExpr::Primary { expr, predicates });
                }
                let (name, _) = self.expect_name()?;
                let predicates = self.parse_predicates()?;
                Ok(StepOrExpr::Step(AxisStep {
                    axis: Axis::Child,
                    test: NodeTest::Name(name),
                    predicates,
                }))
            }
            Token::Star => {
                self.next()?;
                let predicates = self.parse_predicates()?;
                Ok(StepOrExpr::Step(AxisStep {
                    axis: Axis::Child,
                    test: NodeTest::Wildcard,
                    predicates,
                }))
            }
            _ => {
                let expr = self.parse_primary()?;
                let predicates = self.parse_predicates()?;
                Ok(StepOrExpr::Primary { expr, predicates })
            }
        }
    }

    /// Try a kind test at `NCName (`; leaves the input untouched when the
    /// name is not a kind-test name.
    fn try_parse_kind_test(&mut self) -> SyntaxResult<Option<NodeTest>> {
        let name = match self.peek()? {
            Token::NCName(s) => s.clone(),
            _ => return Ok(None),
        };
        let test = match name.as_str() {
            "node" => NodeTest::AnyKind,
            "text" => NodeTest::Text,
            "comment" => NodeTest::Comment,
            "document-node" => NodeTest::Document,
            "processing-instruction" => {
                self.next()?;
                self.expect(&Token::LParen)?;
                let target = match self.peek()? {
                    Token::StringLit(s) => {
                        let s = s.clone();
                        self.next()?;
                        Some(s)
                    }
                    Token::NCName(s) => {
                        let s = s.clone();
                        self.next()?;
                        Some(s)
                    }
                    _ => None,
                };
                self.expect(&Token::RParen)?;
                return Ok(Some(NodeTest::ProcessingInstruction(target)));
            }
            "element" | "attribute" => {
                self.next()?;
                self.expect(&Token::LParen)?;
                let inner = if self.peek()? == &Token::RParen || self.eat_token(&Token::Star)? {
                    None
                } else {
                    Some(self.expect_name()?.0)
                };
                self.expect(&Token::RParen)?;
                return Ok(Some(if name == "element" {
                    NodeTest::Element(inner)
                } else {
                    NodeTest::Attribute(inner)
                }));
            }
            _ => return Ok(None),
        };
        self.next()?;
        self.expect(&Token::LParen)?;
        self.expect(&Token::RParen)?;
        Ok(Some(test))
    }

    fn parse_node_test(&mut self) -> SyntaxResult<NodeTest> {
        if self.peek()? == &Token::Star {
            self.next()?;
            return Ok(NodeTest::Wildcard);
        }
        if self.peek2()? == &Token::LParen {
            if let Some(test) = self.try_parse_kind_test()? {
                return Ok(test);
            }
        }
        let (name, _) = self.expect_name()?;
        Ok(NodeTest::Name(name))
    }

    fn parse_predicates(&mut self) -> SyntaxResult<Vec<Expr>> {
        let mut predicates = Vec::new();
        while self.eat_token(&Token::LBracket)? {
            predicates.push(self.parse_expr()?);
            self.expect(&Token::RBracket)?;
        }
        Ok(predicates)
    }

    fn parse_function_call(&mut self) -> SyntaxResult<Expr> {
        let (name, start) = self.expect_name()?;
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if self.peek()? != &Token::RParen {
            loop {
                args.push(self.parse_expr_single()?);
                if !self.eat_token(&Token::Comma)? {
                    break;
                }
            }
        }
        let end = self.expect(&Token::RParen)?;
        Ok(Expr::new(
            ExprKind::FunctionCall { name, args },
            start.merge(end),
        ))
    }

    // ---- primary expressions ----------------------------------------------

    fn parse_primary(&mut self) -> SyntaxResult<Expr> {
        let (token, span) = self.next()?;
        match token {
            Token::Integer(v) => Ok(Expr::new(ExprKind::IntegerLit(v), span)),
            Token::Decimal(s) => Ok(Expr::new(ExprKind::DecimalLit(s), span)),
            Token::Double(v) => Ok(Expr::new(ExprKind::DoubleLit(v), span)),
            Token::StringLit(s) => Ok(Expr::new(ExprKind::StringLit(s), span)),
            Token::VarName(v) => Ok(Expr::new(ExprKind::VarRef(v), span)),
            Token::Dot => Ok(Expr::new(ExprKind::ContextItem, span)),
            Token::LParen => {
                if self.eat_token(&Token::RParen)? {
                    return Ok(Expr::new(ExprKind::Sequence(Vec::new()), span));
                }
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::StartTagOpen(name) => self.parse_direct_element(name, span),
            Token::CommentStart => {
                self.assert_raw_ready();
                let text = self.lexer.raw_until("-->")?;
                Ok(Expr::new(ExprKind::DirectComment(text), span))
            }
            Token::PiStart => {
                self.assert_raw_ready();
                let target = self.lexer.raw_name()?;
                self.lexer.raw_skip_ws();
                let data = self.lexer.raw_until("?>")?;
                Ok(Expr::new(
                    ExprKind::DirectPi(target.to_string(), data),
                    span,
                ))
            }
            other => Err(SyntaxError::at(
                self.lexer.source(),
                span.start,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }

    /// Raw-mode operations require an empty token buffer — a buffered
    /// token would mean the lexer cursor has already moved past the raw
    /// text we are about to scan.
    fn assert_raw_ready(&self) {
        debug_assert!(
            self.buffer.is_empty(),
            "token lookahead must be empty before raw mode"
        );
    }

    // ---- direct constructors -----------------------------------------------

    /// Parse a direct element; the `<name` token has been consumed.
    fn parse_direct_element(&mut self, name: Name, start: Span) -> SyntaxResult<Expr> {
        self.assert_raw_ready();
        let mut attributes = Vec::new();
        // Attribute list in raw mode (whitespace significant-ish).
        loop {
            self.lexer.raw_skip_ws();
            if self.lexer.raw_eat("/>") {
                let span = Span::new(start.start, self.lexer.position());
                return Ok(Expr::new(
                    ExprKind::DirectElement(Box::new(DirectElement {
                        name,
                        attributes,
                        content: Vec::new(),
                    })),
                    span,
                ));
            }
            if self.lexer.raw_eat(">") {
                break;
            }
            let attr_name = self.lexer.raw_name()?;
            self.lexer.raw_skip_ws();
            self.lexer.raw_expect("=")?;
            self.lexer.raw_skip_ws();
            let quote = if self.lexer.raw_eat("\"") {
                '"'
            } else if self.lexer.raw_eat("'") {
                '\''
            } else {
                return Err(self.error_here("expected quoted attribute value"));
            };
            let mut parts = Vec::new();
            loop {
                let (text, end) = self.lexer.raw_attr_chunk(quote)?;
                if !text.is_empty() {
                    parts.push(AttrPart::Literal(text));
                }
                match end {
                    AttrChunkEnd::CloseQuote => break,
                    AttrChunkEnd::OpenBrace => {
                        let expr = self.parse_expr()?;
                        self.expect(&Token::RBrace)?;
                        self.assert_raw_ready();
                        parts.push(AttrPart::Enclosed(expr));
                    }
                }
            }
            attributes.push((attr_name, parts));
        }
        // Content in raw mode.
        let mut content = Vec::new();
        loop {
            let (text, end) = self.lexer.raw_content_chunk()?;
            if !text.is_empty() && !text.chars().all(|c| c.is_ascii_whitespace()) {
                content.push(ContentPart::Literal(text));
            } else if !text.is_empty() {
                // Boundary whitespace: stripped (default boundary-space
                // policy), matching the paper's examples where indented
                // constructors produce no stray text nodes.
            }
            match end {
                ContentChunkEnd::EndTagOpen => {
                    let end_name = self.lexer.raw_name()?;
                    if end_name != name {
                        return Err(self
                            .error_here(format!("mismatched end tag </{end_name}> for <{name}>")));
                    }
                    self.lexer.raw_skip_ws();
                    self.lexer.raw_expect(">")?;
                    break;
                }
                ContentChunkEnd::StartTagOpen => {
                    let child_start = Span::new(self.lexer.position(), self.lexer.position());
                    let child_name = self.lexer.raw_name()?;
                    self.descend()?;
                    let child = self.parse_direct_element(child_name, child_start)?;
                    self.depth -= 1;
                    content.push(ContentPart::Child(child));
                }
                ContentChunkEnd::OpenBrace => {
                    let expr = self.parse_expr()?;
                    self.expect(&Token::RBrace)?;
                    self.assert_raw_ready();
                    content.push(ContentPart::Enclosed(expr));
                }
                ContentChunkEnd::CommentStart => {
                    self.reach(self.depth + 1)?;
                    let text = self.lexer.raw_until("-->")?;
                    let span = Span::new(start.start, self.lexer.position());
                    content.push(ContentPart::Child(Expr::new(
                        ExprKind::DirectComment(text),
                        span,
                    )));
                }
                ContentChunkEnd::PiStart => {
                    self.reach(self.depth + 1)?;
                    let target = self.lexer.raw_name()?;
                    self.lexer.raw_skip_ws();
                    let data = self.lexer.raw_until("?>")?;
                    let span = Span::new(start.start, self.lexer.position());
                    content.push(ContentPart::Child(Expr::new(
                        ExprKind::DirectPi(target.to_string(), data),
                        span,
                    )));
                }
            }
        }
        let span = Span::new(start.start, self.lexer.position());
        Ok(Expr::new(
            ExprKind::DirectElement(Box::new(DirectElement {
                name,
                attributes,
                content,
            })),
            span,
        ))
    }
}

fn descendant_or_self_step() -> Step {
    Step::Axis(AxisStep {
        axis: Axis::DescendantOrSelf,
        test: NodeTest::AnyKind,
        predicates: Vec::new(),
    })
}

fn axis_from_name(name: &str) -> Option<Axis> {
    Some(match name {
        "child" => Axis::Child,
        "descendant" => Axis::Descendant,
        "descendant-or-self" => Axis::DescendantOrSelf,
        "attribute" => Axis::Attribute,
        "self" => Axis::SelfAxis,
        "parent" => Axis::Parent,
        "ancestor" => Axis::Ancestor,
        "ancestor-or-self" => Axis::AncestorOrSelf,
        "following-sibling" => Axis::FollowingSibling,
        "preceding-sibling" => Axis::PrecedingSibling,
        _ => return None,
    })
}

/// Attribute kind tests select from the attribute axis; all others from
/// the child axis.
fn default_axis_for_test(test: &NodeTest) -> Axis {
    match test {
        NodeTest::Attribute(_) => Axis::Attribute,
        _ => Axis::Child,
    }
}

fn step_span(step: &Step) -> Span {
    match step {
        Step::Axis(s) => s.predicates.last().map(|p| p.span).unwrap_or_default(),
        Step::Expr { expr, predicates } => predicates.last().map(|p| p.span).unwrap_or(expr.span),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> Expr {
        parse_expression(src).unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
    }

    fn query(src: &str) -> Module {
        parse_query(src).unwrap_or_else(|e| panic!("parse failed: {e}"))
    }

    #[test]
    fn literals() {
        assert!(matches!(expr("42").kind, ExprKind::IntegerLit(42)));
        assert!(matches!(expr("59.95").kind, ExprKind::DecimalLit(_)));
        assert!(matches!(expr("1e3").kind, ExprKind::DoubleLit(_)));
        assert!(matches!(expr(r#""hello""#).kind, ExprKind::StringLit(_)));
        assert!(matches!(expr("()").kind, ExprKind::Sequence(ref v) if v.is_empty()));
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        match expr("1 + 2 * 3").kind {
            ExprKind::Arith(ArithOp::Add, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Arith(ArithOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // division keyword
        assert!(matches!(
            expr("$a div $b").kind,
            ExprKind::Arith(ArithOp::Div, _, _)
        ));
        assert!(matches!(expr("-$x").kind, ExprKind::Unary(UnaryOp::Neg, _)));
    }

    #[test]
    fn comparisons() {
        assert!(matches!(
            expr("$a = 5").kind,
            ExprKind::GeneralComp(Comparison::Eq, _, _)
        ));
        assert!(matches!(
            expr("$a eq 5").kind,
            ExprKind::ValueComp(Comparison::Eq, _, _)
        ));
        assert!(matches!(
            expr("$a >= $b").kind,
            ExprKind::GeneralComp(Comparison::Ge, _, _)
        ));
        assert!(matches!(
            expr("$a is $b").kind,
            ExprKind::NodeComp(NodeComparison::Is, _, _)
        ));
        assert!(matches!(expr("$a and $b or $c").kind, ExprKind::Or(_, _)));
    }

    #[test]
    fn range_expression() {
        assert!(matches!(expr("1 to 10").kind, ExprKind::Range(_, _)));
    }

    #[test]
    fn simple_paths() {
        // //book
        match expr("//book").kind {
            ExprKind::Path(p) => {
                assert_eq!(p.start, PathStart::Root);
                assert_eq!(p.steps.len(), 2);
                assert!(matches!(
                    &p.steps[0],
                    Step::Axis(AxisStep {
                        axis: Axis::DescendantOrSelf,
                        test: NodeTest::AnyKind,
                        ..
                    })
                ));
                assert!(matches!(
                    &p.steps[1],
                    Step::Axis(AxisStep { axis: Axis::Child, test: NodeTest::Name(n), .. }) if n.local == "book"
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variable_rooted_path() {
        match expr("$b/price").kind {
            ExprKind::Path(p) => {
                assert!(
                    matches!(&p.start, PathStart::Expr(e) if matches!(e.kind, ExprKind::VarRef(_)))
                );
                assert_eq!(p.steps.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn path_with_predicate() {
        match expr(r#"//book[author = "Jim Melton"]"#).kind {
            ExprKind::Path(p) => match &p.steps[1] {
                Step::Axis(s) => assert_eq!(s.predicates.len(), 1),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parenthesized_step_and_function_step() {
        // Q3's parenthesized arithmetic step
        match expr("$region-sales/(quantity * price)").kind {
            ExprKind::Path(p) => {
                assert_eq!(p.steps.len(), 1);
                assert!(matches!(&p.steps[0], Step::Expr { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        // function call as a step
        match expr("//sale/year-from-dateTime(timestamp)").kind {
            ExprKind::Path(p) => {
                assert!(matches!(p.steps.last().unwrap(), Step::Expr { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attribute_and_parent_steps() {
        match expr("@year").kind {
            ExprKind::Path(p) => {
                assert!(matches!(
                    &p.steps[0],
                    Step::Axis(AxisStep {
                        axis: Axis::Attribute,
                        ..
                    })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        match expr("../price").kind {
            ExprKind::Path(p) => {
                assert!(matches!(
                    &p.steps[0],
                    Step::Axis(AxisStep {
                        axis: Axis::Parent,
                        ..
                    })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explicit_axes_and_kind_tests() {
        match expr("child::book/descendant::text()").kind {
            ExprKind::Path(p) => {
                assert!(matches!(
                    &p.steps[0],
                    Step::Axis(AxisStep {
                        axis: Axis::Child,
                        ..
                    })
                ));
                assert!(matches!(
                    &p.steps[1],
                    Step::Axis(AxisStep {
                        axis: Axis::Descendant,
                        test: NodeTest::Text,
                        ..
                    })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        match expr("self::node()").kind {
            ExprKind::Path(p) => {
                assert!(matches!(
                    &p.steps[0],
                    Step::Axis(AxisStep {
                        axis: Axis::SelfAxis,
                        test: NodeTest::AnyKind,
                        ..
                    })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wildcard_step() {
        match expr("$b/categories/*").kind {
            ExprKind::Path(p) => {
                assert!(matches!(
                    p.steps.last().unwrap(),
                    Step::Axis(AxisStep {
                        test: NodeTest::Wildcard,
                        ..
                    })
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn function_calls() {
        match expr("avg($netprices)").kind {
            ExprKind::FunctionCall { name, args } => {
                assert_eq!(name, Name::local("avg"));
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match expr("local:paths($b/categories/*)").kind {
            ExprKind::FunctionCall { name, .. } => {
                assert_eq!(name, Name::prefixed("local", "paths"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn filter_on_variable() {
        match expr("$items[3]").kind {
            ExprKind::Filter { predicates, .. } => assert_eq!(predicates.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn basic_flwor() {
        let e = expr("for $b in //book return $b/title");
        match e.kind {
            ExprKind::Flwor(f) => {
                assert_eq!(f.clauses.len(), 1);
                assert!(f.where_clause.is_none());
                assert!(f.group_by.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flwor_with_all_clauses() {
        let e = expr(
            "for $b at $i in //book \
             let $p := $b/price \
             where $p > 100 \
             order by $p descending, $b/title ascending empty least \
             return $b",
        );
        match e.kind {
            ExprKind::Flwor(f) => {
                assert_eq!(f.clauses.len(), 2);
                match &f.clauses[0] {
                    InitialClause::For(bs) => {
                        assert_eq!(bs[0].var, "b");
                        assert_eq!(bs[0].at.as_deref(), Some("i"));
                    }
                    other => panic!("unexpected {other:?}"),
                }
                assert!(f.where_clause.is_some());
                let ob = f.order_by.unwrap();
                assert_eq!(ob.specs.len(), 2);
                assert!(ob.specs[0].descending);
                assert!(!ob.specs[1].descending);
                assert_eq!(ob.specs[1].empty, Some(EmptyOrder::Least));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_clause_paper_q1() {
        let e = expr(
            "for $b in //book \
             group by $b/publisher into $p, $b/year into $y \
             nest $b/price - $b/discount into $netprices \
             return avg($netprices)",
        );
        match e.kind {
            ExprKind::Flwor(f) => {
                let g = f.group_by.unwrap();
                assert_eq!(g.keys.len(), 2);
                assert_eq!(g.keys[0].var, "p");
                assert_eq!(g.keys[1].var, "y");
                assert_eq!(g.nests.len(), 1);
                assert_eq!(g.nests[0].var, "netprices");
                assert!(g.nests[0].order_by.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_with_using_q2a() {
        let e = expr(
            "for $b in //book \
             group by $b/author into $a using local:set-equal \
             nest $b/price into $prices \
             return avg($prices)",
        );
        match e.kind {
            ExprKind::Flwor(f) => {
                let g = f.group_by.unwrap();
                assert_eq!(g.keys[0].using, Some(Name::prefixed("local", "set-equal")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_by_post_let_where_q4() {
        let e = expr(
            "for $b in //book \
             group by $b/publisher into $pub nest $b/price into $prices \
             let $avgprice := avg($prices) \
             where $avgprice > 100 \
             order by $avgprice descending \
             return $pub",
        );
        match e.kind {
            ExprKind::Flwor(f) => {
                assert!(f.group_by.is_some());
                assert_eq!(f.post_group_clauses.len(), 1);
                assert!(matches!(&f.post_group_clauses[0],
                    PostGroupClause::Let(b) if b.var == "avgprice"));
                assert!(f.post_group_where.is_some());
                assert!(f.order_by.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nest_with_order_by_q8() {
        let e = expr(
            "for $s in //sale \
             group by $s/region into $region \
             nest $s order by $s/timestamp into $rs \
             return $rs",
        );
        match e.kind {
            ExprKind::Flwor(f) => {
                let g = f.group_by.unwrap();
                assert!(g.nests[0].order_by.is_some());
                assert_eq!(g.nests[0].var, "rs");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn return_at_rank_q9b() {
        let e = expr(
            "for $b in //book \
             order by $b/price descending \
             return at $rank $b",
        );
        match e.kind {
            ExprKind::Flwor(f) => assert_eq!(f.return_at.as_deref(), Some("rank")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantified_expressions() {
        let e = expr("every $i1 in $arg1 satisfies some $i2 in $arg2 satisfies $i1 eq $i2");
        match e.kind {
            ExprKind::Quantified { kind, bindings, .. } => {
                assert_eq!(kind, Quantifier::Every);
                assert_eq!(bindings.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_expression() {
        let e = expr("if (empty($p)) then <publisher/> else $p");
        assert!(matches!(e.kind, ExprKind::If { .. }));
    }

    #[test]
    fn direct_constructor_simple() {
        let e = expr("<group>{$p, $y}<avg-net-price>{avg($netprices)}</avg-net-price></group>");
        match e.kind {
            ExprKind::DirectElement(el) => {
                assert_eq!(el.name, Name::local("group"));
                assert_eq!(el.content.len(), 2);
                assert!(matches!(&el.content[0], ContentPart::Enclosed(_)));
                assert!(matches!(&el.content[1], ContentPart::Child(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn direct_constructor_attribute_templates_q10() {
        let e = expr(r#"<monthly-report year="{$year}" month="{$month}">{$x}</monthly-report>"#);
        match e.kind {
            ExprKind::DirectElement(el) => {
                assert_eq!(el.attributes.len(), 2);
                let (name, parts) = &el.attributes[0];
                assert_eq!(name, &Name::local("year"));
                assert!(matches!(&parts[0], AttrPart::Enclosed(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn direct_constructor_mixed_attr_template() {
        let e = expr(r#"<r label="year {$y}!"/>"#);
        match e.kind {
            ExprKind::DirectElement(el) => {
                let (_, parts) = &el.attributes[0];
                assert_eq!(parts.len(), 3);
                assert!(matches!(&parts[0], AttrPart::Literal(s) if s == "year "));
                assert!(matches!(&parts[2], AttrPart::Literal(s) if s == "!"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn direct_constructor_literal_text_kept() {
        let e = expr("<name>Morgan Kaufmann</name>");
        match e.kind {
            ExprKind::DirectElement(el) => {
                assert!(
                    matches!(&el.content[0], ContentPart::Literal(s) if s == "Morgan Kaufmann")
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn direct_constructor_boundary_whitespace_stripped() {
        let e = expr("<a>\n  <b/>\n</a>");
        match e.kind {
            ExprKind::DirectElement(el) => {
                assert_eq!(el.content.len(), 1);
                assert!(matches!(&el.content[0], ContentPart::Child(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_direct_constructors() {
        let e = expr("<publisher><name>{string($pub)}</name><books>{$b}</books></publisher>");
        match e.kind {
            ExprKind::DirectElement(el) => assert_eq!(el.content.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn computed_constructors() {
        assert!(matches!(
            expr("element result { 1, 2 }").kind,
            ExprKind::ComputedElement { .. }
        ));
        assert!(matches!(
            expr("attribute year { 2004 }").kind,
            ExprKind::ComputedAttribute { .. }
        ));
        assert!(matches!(
            expr("text { \"hi\" }").kind,
            ExprKind::ComputedText(_)
        ));
        assert!(matches!(
            expr("element e {}").kind,
            ExprKind::ComputedElement { content: None, .. }
        ));
    }

    #[test]
    fn prolog_function_declaration() {
        let m = query(
            "declare function local:set-equal($arg1 as item()*, $arg2 as item()*) as xs:boolean \
             { every $i1 in $arg1 satisfies some $i2 in $arg2 satisfies $i1 eq $i2 }; \
             1",
        );
        assert_eq!(m.prolog.functions.len(), 1);
        let f = &m.prolog.functions[0];
        assert_eq!(f.name, Name::prefixed("local", "set-equal"));
        assert_eq!(f.params.len(), 2);
        assert_eq!(
            f.params[0].ty.as_ref().unwrap().occurrence,
            Occurrence::ZeroOrMore
        );
        assert_eq!(
            f.return_type.as_ref().unwrap().item,
            ItemType::Atomic(Name::prefixed("xs", "boolean"))
        );
    }

    #[test]
    fn prolog_variable_and_ordering() {
        let m = query("declare ordering unordered; declare variable $n := 10; $n");
        assert_eq!(m.prolog.ordering, Some(OrderingMode::Unordered));
        assert_eq!(m.prolog.variables.len(), 1);
        assert_eq!(m.prolog.variables[0].name, "n");
    }

    #[test]
    fn xquery_version_declaration() {
        let m = query("xquery version \"1.0\"; 42");
        assert!(matches!(m.body.kind, ExprKind::IntegerLit(42)));
        assert!(parse_query("xquery version \"9.9\"; 42").is_err());
    }

    #[test]
    fn recursive_function_q11_paths() {
        let m = query(
            "declare function local:paths($cats as element()*) as xs:string* { \
               for $c in $cats \
               return ( string(node-name($c)), \
                        for $p in local:paths($c/*) \
                        return concat(string(node-name($c)), \"/\", $p) ) }; \
             local:paths(//book/categories/*)",
        );
        assert_eq!(m.prolog.functions.len(), 1);
    }

    #[test]
    fn keywords_usable_as_element_names() {
        // 'for', 'order', 'group' as path steps
        match expr("$x/for/order/group").kind {
            ExprKind::Path(p) => assert_eq!(p.steps.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn instance_of_and_cast() {
        assert!(matches!(
            expr("$x instance of xs:integer").kind,
            ExprKind::InstanceOf(_, _)
        ));
        assert!(matches!(
            expr("$x cast as xs:integer?").kind,
            ExprKind::CastAs(_, _, true)
        ));
    }

    #[test]
    fn cast_binds_tighter_than_castable() {
        // XQuery 1.0 [54] CastableExpr ::= CastExpr ("castable" "as" SingleType)?
        match expr("\"5\" cast as xs:integer castable as xs:integer").kind {
            ExprKind::CastableAs(inner, _, false) => {
                assert!(matches!(inner.kind, ExprKind::CastAs(..)))
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_expression("\"5\" castable as xs:integer cast as xs:string").unwrap_err();
        assert!(err.message.contains("\"cast\" after end"), "{err}");
        // A prefix sign binds tighter still.
        assert!(matches!(
            expr("-$x cast as xs:double").kind,
            ExprKind::CastAs(ref e, ..) if matches!(e.kind, ExprKind::Unary(..))
        ));
    }

    #[test]
    fn non_associative_operators_do_not_chain() {
        for src in [
            "1 = 2 = 3",
            "1 to 2 to 3",
            "1 and 2 = 3 = 4",
            "1 + 2 eq 3 lt 4",
        ] {
            assert!(parse_expression(src).is_err(), "{src}");
        }
        assert!(parse_expression("$x instance of xs:integer instance of xs:boolean").is_err());
        // Left-associative ones fold to the left.
        match expr("1 - 2 - 3").kind {
            ExprKind::Arith(ArithOp::Sub, lhs, _) => {
                assert!(matches!(lhs.kind, ExprKind::Arith(ArithOp::Sub, ..)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_operations() {
        assert!(matches!(
            expr("$a | $b").kind,
            ExprKind::SetOp(SetOp::Union, _, _)
        ));
        assert!(matches!(
            expr("$a union $b").kind,
            ExprKind::SetOp(SetOp::Union, _, _)
        ));
        assert!(matches!(
            expr("$a intersect $b").kind,
            ExprKind::SetOp(SetOp::Intersect, _, _)
        ));
        assert!(matches!(
            expr("$a except $b").kind,
            ExprKind::SetOp(SetOp::Except, _, _)
        ));
    }

    #[test]
    fn error_cases() {
        assert!(parse_expression("for $b in").is_err());
        assert!(
            parse_expression("for $b in //book").is_err(),
            "missing return"
        );
        assert!(parse_expression("<a></b>").is_err(), "mismatched tags");
        assert!(
            parse_expression("group by $x into $y").is_err(),
            "group by without for"
        );
        assert!(parse_expression("1 +").is_err());
        assert!(parse_expression("//").is_err());
        assert!(parse_expression("$x[").is_err());
        assert!(parse_expression("1 2").is_err(), "trailing token");
    }

    #[test]
    fn group_by_without_nest_q5() {
        let e = expr(
            "for $b in //book \
             group by $b/publisher into $pub, $b/title into $title \
             order by $pub, $title \
             return <pair>{$pub, $title}</pair>",
        );
        match e.kind {
            ExprKind::Flwor(f) => {
                let g = f.group_by.unwrap();
                assert_eq!(g.keys.len(), 2);
                assert!(g.nests.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_nests() {
        let e = expr(
            "for $s in //sale \
             group by $s/region into $r \
             nest $s/quantity into $qs, $s/price order by $s/timestamp into $ps \
             return count($qs)",
        );
        match e.kind {
            ExprKind::Flwor(f) => {
                let g = f.group_by.unwrap();
                assert_eq!(g.nests.len(), 2);
                assert!(g.nests[0].order_by.is_none());
                assert!(g.nests[1].order_by.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn whole_paper_query_q10_parses() {
        let src = r#"
            for $s in //sale
            group by year-from-dateTime($s/timestamp) into $year,
                     month-from-dateTime($s/timestamp) into $month
            nest $s into $month-sales
            order by $year, $month
            return
              <monthly-report year="{$year}" month="{$month}">
                {for $ms in $month-sales
                 group by $ms/region into $region
                 nest $ms/quantity * $ms/price into $sales-amounts
                 let $sum := sum($sales-amounts)
                 order by $sum descending
                 return at $rank
                   <regional-results>
                     <rank> {$rank} </rank>
                     { $region }
                     <total-sales> {$sum} </total-sales>
                   </regional-results>}
              </monthly-report>"#;
        let e = expr(src);
        assert!(matches!(e.kind, ExprKind::Flwor(_)));
    }
}
