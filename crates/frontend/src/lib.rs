//! # xqa-frontend — XQuery lexer, AST and parser
//!
//! Parses the XQuery 1.0 subset required by *"Extending XQuery for
//! Analytics"* (SIGMOD 2005) plus the paper's proposed extensions:
//!
//! - `group by Expr into $v (using QName)?` with `nest Expr (order by
//!   ...)? into $v`, post-group `let`/`where` (§3);
//! - output numbering `return at $v Expr` (§4).
//!
//! Entry points: [`parse_query`] (prolog + body) and
//! [`parse_expression`] (body only).

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod operators;
pub mod parser;
pub mod unparse;

pub use error::{SyntaxError, SyntaxResult};
pub use parser::{parse_expression, parse_query};
pub use unparse::{unparse_expr, unparse_module};
