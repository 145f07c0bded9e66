//! Hand-written lexer for the XQuery subset.
//!
//! XQuery is not lexable with a fixed token stream: direct element
//! constructors switch the language into an XML-like character mode, and
//! most keywords are also legal names. This lexer therefore exposes two
//! interfaces:
//!
//! 1. [`Lexer::next_token`] — expression mode; skips whitespace and
//!    `(: ... :)` comments (which nest), and produces [`Token`]s.
//!    Keywords are *not* distinguished from names — the parser matches
//!    [`Token::NCName`] text contextually, as XQuery requires.
//! 2. Raw mode — a family of `raw_*` methods the parser drives while
//!    inside a direct constructor, where whitespace is significant.
//!
//! A `<` immediately followed by a name-start character is lexed as
//! [`Token::StartTagOpen`] (a direct-constructor opener); `a < b`
//! therefore needs the space, as in every practical XQuery processor.

use crate::ast::{Name, Span};
use crate::error::{SyntaxError, SyntaxResult};
use xqa_xdm::qname::{is_ncname_char, is_ncname_start};

/// Expression-mode tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A name with no colon (may be a keyword; parser decides).
    NCName(String),
    /// A prefixed name lexed as one token (`local:paths`).
    QName(String, String),
    /// `$name` or `$prefix:name`.
    VarName(String),
    /// Integer literal.
    Integer(i64),
    /// Decimal literal (kept lexical for exactness).
    Decimal(String),
    /// Double literal (had an exponent).
    Double(f64),
    /// String literal (escapes and entities resolved).
    StringLit(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `:=`
    Assign,
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `@`
    At,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Precedes,
    /// `>>`
    Follows,
    /// `|`
    Pipe,
    /// `?`
    Question,
    /// `::`
    ColonColon,
    /// `<name` — the start of a direct element constructor.
    StartTagOpen(Name),
    /// `<!--` — a direct comment constructor.
    CommentStart,
    /// `<?` — a direct PI constructor.
    PiStart,
    /// End of input.
    Eof,
}

impl Token {
    /// The NCName text if this token is a bare name.
    pub fn as_name(&self) -> Option<&str> {
        match self {
            Token::NCName(s) => Some(s),
            _ => None,
        }
    }

    /// Short description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::NCName(s) => format!("name {s:?}"),
            Token::QName(p, l) => format!("name \"{p}:{l}\""),
            Token::VarName(v) => format!("variable ${v}"),
            Token::Integer(v) => format!("integer {v}"),
            Token::Decimal(v) => format!("decimal {v}"),
            Token::Double(v) => format!("double {v}"),
            Token::StringLit(_) => "string literal".to_string(),
            Token::StartTagOpen(n) => format!("start tag <{n}"),
            Token::CommentStart => "'<!--'".to_string(),
            Token::PiStart => "'<?'".to_string(),
            Token::Eof => "end of query".to_string(),
            other => format!("'{}'", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            Token::LParen => "(",
            Token::RParen => ")",
            Token::LBracket => "[",
            Token::RBracket => "]",
            Token::LBrace => "{",
            Token::RBrace => "}",
            Token::Comma => ",",
            Token::Semicolon => ";",
            Token::Assign => ":=",
            Token::Slash => "/",
            Token::DoubleSlash => "//",
            Token::Dot => ".",
            Token::DotDot => "..",
            Token::At => "@",
            Token::Star => "*",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Eq => "=",
            Token::Ne => "!=",
            Token::Lt => "<",
            Token::Le => "<=",
            Token::Gt => ">",
            Token::Ge => ">=",
            Token::Precedes => "<<",
            Token::Follows => ">>",
            Token::Pipe => "|",
            Token::Question => "?",
            Token::ColonColon => "::",
            _ => "?",
        }
    }
}

/// The scanner. The parser owns one and drives it, switching between
/// token mode and raw mode.
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `input`.
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    /// Current byte position (for spans).
    pub fn position(&self) -> u32 {
        self.pos as u32
    }

    /// The full source (for error rendering).
    pub fn source(&self) -> &'a str {
        self.input
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek_char(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn peek_char2(&self) -> Option<char> {
        let mut it = self.rest().chars();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn error(&self, message: impl Into<String>) -> SyntaxError {
        SyntaxError::at(self.input, self.pos as u32, message)
    }

    /// Skip whitespace and nested `(: ... :)` comments.
    fn skip_trivia(&mut self) -> SyntaxResult<()> {
        loop {
            match self.peek_char() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('(') if self.rest().starts_with("(:") => {
                    let start = self.pos;
                    self.pos += 2;
                    let mut depth = 1;
                    while depth > 0 {
                        if self.eat("(:") {
                            depth += 1;
                        } else if self.eat(":)") {
                            depth -= 1;
                        } else if self.bump().is_none() {
                            self.pos = start;
                            return Err(self.error("unterminated comment"));
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Next token in expression mode, with its span.
    pub fn next_token(&mut self) -> SyntaxResult<(Token, Span)> {
        self.skip_trivia()?;
        let start = self.pos as u32;
        let token = self.scan_token()?;
        Ok((token, Span::new(start, self.pos as u32)))
    }

    fn scan_token(&mut self) -> SyntaxResult<Token> {
        let c = match self.peek_char() {
            None => return Ok(Token::Eof),
            Some(c) => c,
        };
        match c {
            '(' => {
                self.bump();
                Ok(Token::LParen)
            }
            ')' => {
                self.bump();
                Ok(Token::RParen)
            }
            '[' => {
                self.bump();
                Ok(Token::LBracket)
            }
            ']' => {
                self.bump();
                Ok(Token::RBracket)
            }
            '{' => {
                self.bump();
                Ok(Token::LBrace)
            }
            '}' => {
                self.bump();
                Ok(Token::RBrace)
            }
            ',' => {
                self.bump();
                Ok(Token::Comma)
            }
            ';' => {
                self.bump();
                Ok(Token::Semicolon)
            }
            '@' => {
                self.bump();
                Ok(Token::At)
            }
            '*' => {
                self.bump();
                Ok(Token::Star)
            }
            '+' => {
                self.bump();
                Ok(Token::Plus)
            }
            '-' => {
                self.bump();
                Ok(Token::Minus)
            }
            '|' => {
                self.bump();
                Ok(Token::Pipe)
            }
            '?' => {
                self.bump();
                Ok(Token::Question)
            }
            '=' => {
                self.bump();
                Ok(Token::Eq)
            }
            '!' => {
                self.bump();
                if self.eat("=") {
                    Ok(Token::Ne)
                } else {
                    Err(self.error("expected '=' after '!'"))
                }
            }
            ':' => {
                self.bump();
                if self.eat("=") {
                    Ok(Token::Assign)
                } else if self.eat(":") {
                    Ok(Token::ColonColon)
                } else {
                    Err(self.error("unexpected ':'"))
                }
            }
            '/' => {
                self.bump();
                if self.eat("/") {
                    Ok(Token::DoubleSlash)
                } else {
                    Ok(Token::Slash)
                }
            }
            '<' => {
                // Direct constructor? '<' + name-start with no space.
                if let Some(c2) = self.peek_char2() {
                    if is_ncname_start(c2) {
                        self.bump(); // '<'
                        let name = self.raw_name()?;
                        return Ok(Token::StartTagOpen(name));
                    }
                }
                if self.rest().starts_with("<!--") {
                    self.pos += 4;
                    return Ok(Token::CommentStart);
                }
                self.bump();
                if self.eat("=") {
                    Ok(Token::Le)
                } else if self.eat("<") {
                    Ok(Token::Precedes)
                } else if self.eat("?") {
                    Ok(Token::PiStart)
                } else {
                    Ok(Token::Lt)
                }
            }
            '>' => {
                self.bump();
                if self.eat("=") {
                    Ok(Token::Ge)
                } else if self.eat(">") {
                    Ok(Token::Follows)
                } else {
                    Ok(Token::Gt)
                }
            }
            '.' => {
                if matches!(self.peek_char2(), Some(d) if d.is_ascii_digit()) {
                    return self.scan_number();
                }
                self.bump();
                if self.eat(".") {
                    Ok(Token::DotDot)
                } else {
                    Ok(Token::Dot)
                }
            }
            '$' => {
                self.bump();
                let name = self.raw_name()?;
                Ok(Token::VarName(name.to_string()))
            }
            '"' | '\'' => self.scan_string(c),
            c if c.is_ascii_digit() => self.scan_number(),
            c if is_ncname_start(c) => {
                let name = self.raw_name()?;
                match name.prefix {
                    Some(p) => Ok(Token::QName(p, name.local)),
                    None => Ok(Token::NCName(name.local)),
                }
            }
            other => Err(self.error(format!("unexpected character {other:?}"))),
        }
    }

    fn scan_number(&mut self) -> SyntaxResult<Token> {
        let start = self.pos;
        while matches!(self.peek_char(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_decimal = false;
        if self.peek_char() == Some('.') {
            // Don't confuse `1..2` (error anyway) or `1.foo`; a decimal
            // point not followed by a digit still makes "1." a decimal.
            if self.peek_char2() != Some('.') {
                is_decimal = true;
                self.bump();
                while matches!(self.peek_char(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let mut is_double = false;
        if matches!(self.peek_char(), Some('e' | 'E')) {
            // Exponent: e [+-]? digits
            let save = self.pos;
            self.bump();
            if matches!(self.peek_char(), Some('+' | '-')) {
                self.bump();
            }
            if matches!(self.peek_char(), Some(c) if c.is_ascii_digit()) {
                is_double = true;
                while matches!(self.peek_char(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text = &self.input[start..self.pos];
        // A number immediately followed by a name char is malformed
        // ("1foo"); report it rather than silently splitting.
        if matches!(self.peek_char(), Some(c) if is_ncname_start(c)) {
            return Err(self.error(format!("invalid numeric literal {text:?}")));
        }
        if is_double {
            let v: f64 = text
                .parse()
                .map_err(|_| self.error(format!("invalid double literal {text:?}")))?;
            Ok(Token::Double(v))
        } else if is_decimal {
            Ok(Token::Decimal(text.to_string()))
        } else {
            match text.parse::<i64>() {
                Ok(v) => Ok(Token::Integer(v)),
                // Out-of-range integers become decimals (spec: integer
                // literals outside implementation limits may overflow; we
                // widen instead).
                Err(_) => Ok(Token::Decimal(text.to_string())),
            }
        }
    }

    fn scan_string(&mut self, quote: char) -> SyntaxResult<Token> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.peek_char() {
                None => return Err(self.error("unterminated string literal")),
                Some(c) if c == quote => {
                    self.bump();
                    // Doubled quote = escaped quote.
                    if self.peek_char() == Some(quote) {
                        self.bump();
                        out.push(quote);
                    } else {
                        return Ok(Token::StringLit(out));
                    }
                }
                Some('&') => out.push_str(&self.raw_entity()?),
                Some(c) => {
                    self.bump();
                    out.push(c);
                }
            }
        }
    }

    // ---- raw mode (direct constructors) ------------------------------

    /// Raw: skip XML whitespace.
    pub fn raw_skip_ws(&mut self) {
        while matches!(self.peek_char(), Some(c) if c.is_ascii_whitespace()) {
            self.bump();
        }
    }

    /// Raw: true when the input continues with `s`.
    pub fn raw_starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    /// Raw: consume `s` or fail.
    pub fn raw_expect(&mut self, s: &str) -> SyntaxResult<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected {s:?}")))
        }
    }

    /// Raw: consume `s` if present.
    pub fn raw_eat(&mut self, s: &str) -> bool {
        self.eat(s)
    }

    /// Raw: scan a (possibly prefixed) name.
    pub fn raw_name(&mut self) -> SyntaxResult<Name> {
        let local_or_prefix = self.raw_ncname()?;
        // Prefixed name only when the colon is immediately adjacent.
        if self.peek_char() == Some(':')
            && matches!(self.peek_char2(), Some(c) if is_ncname_start(c))
        {
            self.bump();
            let local = self.raw_ncname()?;
            Ok(Name::prefixed(local_or_prefix, local))
        } else {
            Ok(Name::local(local_or_prefix))
        }
    }

    fn raw_ncname(&mut self) -> SyntaxResult<String> {
        match self.peek_char() {
            Some(c) if is_ncname_start(c) => {}
            _ => return Err(self.error("expected a name")),
        }
        let start = self.pos;
        while matches!(self.peek_char(), Some(c) if is_ncname_char(c)) {
            self.bump();
        }
        Ok(self.input[start..self.pos].to_string())
    }

    /// Raw: an entity or character reference starting at `&`.
    fn raw_entity(&mut self) -> SyntaxResult<String> {
        debug_assert_eq!(self.peek_char(), Some('&'));
        self.bump();
        let start = self.pos;
        while matches!(self.peek_char(), Some(c) if c != ';') {
            self.bump();
        }
        let name = &self.input[start..self.pos];
        if self.bump() != Some(';') {
            return Err(self.error("unterminated entity reference"));
        }
        let ch = match name {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let v = u32::from_str_radix(&name[2..], 16)
                    .map_err(|_| self.error(format!("bad character reference &{name};")))?;
                char::from_u32(v).ok_or_else(|| self.error("invalid code point"))?
            }
            _ if name.starts_with('#') => {
                let v: u32 = name[1..]
                    .parse()
                    .map_err(|_| self.error(format!("bad character reference &{name};")))?;
                char::from_u32(v).ok_or_else(|| self.error("invalid code point"))?
            }
            _ => return Err(self.error(format!("unknown entity &{name};"))),
        };
        Ok(ch.to_string())
    }

    /// Raw: an attribute value template. Consumes the opening quote
    /// first; returns the literal/enclosed boundary markers.
    ///
    /// Produces `(literal_chunk, saw_open_brace)` pairs: the caller
    /// parses an enclosed expression after each `true` and resumes.
    pub fn raw_attr_chunk(&mut self, quote: char) -> SyntaxResult<(String, AttrChunkEnd)> {
        let mut out = String::new();
        loop {
            match self.peek_char() {
                None => return Err(self.error("unterminated attribute value")),
                Some(c) if c == quote => {
                    self.bump();
                    // Doubled quote escapes the quote inside the value.
                    if self.peek_char() == Some(quote) {
                        self.bump();
                        out.push(quote);
                    } else {
                        return Ok((out, AttrChunkEnd::CloseQuote));
                    }
                }
                Some('{') => {
                    self.bump();
                    if self.peek_char() == Some('{') {
                        self.bump();
                        out.push('{');
                    } else {
                        return Ok((out, AttrChunkEnd::OpenBrace));
                    }
                }
                Some('}') => {
                    self.bump();
                    if self.peek_char() == Some('}') {
                        self.bump();
                        out.push('}');
                    } else {
                        return Err(self.error("'}' must be doubled in attribute values"));
                    }
                }
                Some('<') => return Err(self.error("'<' not allowed in attribute values")),
                Some('&') => out.push_str(&self.raw_entity()?),
                Some(c) => {
                    self.bump();
                    out.push(c);
                }
            }
        }
    }

    /// Raw: one chunk of element content, ending at a significant
    /// boundary.
    pub fn raw_content_chunk(&mut self) -> SyntaxResult<(String, ContentChunkEnd)> {
        let mut out = String::new();
        loop {
            match self.peek_char() {
                None => return Err(self.error("unterminated element content")),
                Some('<') => {
                    if self.raw_starts_with("</") {
                        self.pos += 2;
                        return Ok((out, ContentChunkEnd::EndTagOpen));
                    }
                    if self.raw_starts_with("<!--") {
                        self.pos += 4;
                        return Ok((out, ContentChunkEnd::CommentStart));
                    }
                    if self.raw_starts_with("<![CDATA[") {
                        self.pos += 9;
                        let end = self
                            .rest()
                            .find("]]>")
                            .ok_or_else(|| self.error("unterminated CDATA section"))?;
                        out.push_str(&self.rest()[..end]);
                        self.pos += end + 3;
                        continue;
                    }
                    if self.raw_starts_with("<?") {
                        self.pos += 2;
                        return Ok((out, ContentChunkEnd::PiStart));
                    }
                    self.pos += 1;
                    return Ok((out, ContentChunkEnd::StartTagOpen));
                }
                Some('{') => {
                    self.bump();
                    if self.peek_char() == Some('{') {
                        self.bump();
                        out.push('{');
                    } else {
                        return Ok((out, ContentChunkEnd::OpenBrace));
                    }
                }
                Some('}') => {
                    self.bump();
                    if self.peek_char() == Some('}') {
                        self.bump();
                        out.push('}');
                    } else {
                        return Err(self.error("'}' must be doubled in element content"));
                    }
                }
                Some('&') => out.push_str(&self.raw_entity()?),
                Some(c) => {
                    self.bump();
                    out.push(c);
                }
            }
        }
    }

    /// Raw: the body of a direct comment constructor up to `-->`.
    pub fn raw_until(&mut self, marker: &str) -> SyntaxResult<String> {
        match self.rest().find(marker) {
            Some(end) => {
                let text = self.rest()[..end].to_string();
                self.pos += end + marker.len();
                Ok(text)
            }
            None => Err(self.error(format!("expected {marker:?}"))),
        }
    }
}

/// Why an attribute-value chunk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrChunkEnd {
    /// The closing quote — value complete.
    CloseQuote,
    /// `{` — an enclosed expression follows.
    OpenBrace,
}

/// Why an element-content chunk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentChunkEnd {
    /// `</` — the end tag follows.
    EndTagOpen,
    /// `<` + name — a child element follows.
    StartTagOpen,
    /// `{` — an enclosed expression follows.
    OpenBrace,
    /// `<!--` — a nested comment constructor.
    CommentStart,
    /// `<?` — a nested PI constructor.
    PiStart,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Token> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let (t, _) = lx.next_token().unwrap();
            if t == Token::Eof {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn basic_punctuation_and_operators() {
        assert_eq!(
            tokens(":= :: // / .. . @ * |"),
            vec![
                Token::Assign,
                Token::ColonColon,
                Token::DoubleSlash,
                Token::Slash,
                Token::DotDot,
                Token::Dot,
                Token::At,
                Token::Star,
                Token::Pipe,
            ]
        );
    }

    #[test]
    fn comparisons_need_space_before_names() {
        assert_eq!(
            tokens("$a < $b"),
            vec![
                Token::VarName("a".into()),
                Token::Lt,
                Token::VarName("b".into())
            ]
        );
        // '<' + name = start tag
        assert_eq!(tokens("<b"), vec![Token::StartTagOpen(Name::local("b"))]);
        assert_eq!(
            tokens("<= >= != << >>"),
            vec![
                Token::Le,
                Token::Ge,
                Token::Ne,
                Token::Precedes,
                Token::Follows
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(tokens("42"), vec![Token::Integer(42)]);
        assert_eq!(tokens("59.95"), vec![Token::Decimal("59.95".into())]);
        assert_eq!(tokens(".5"), vec![Token::Decimal(".5".into())]);
        assert_eq!(tokens("1e3"), vec![Token::Double(1000.0)]);
        assert_eq!(tokens("1.5E-2"), vec![Token::Double(0.015)]);
        // 100 div 10 — 'div' is a name token here
        assert_eq!(
            tokens("100 div 10"),
            vec![
                Token::Integer(100),
                Token::NCName("div".into()),
                Token::Integer(10)
            ]
        );
    }

    #[test]
    fn huge_integer_widens_to_decimal() {
        assert_eq!(
            tokens("99999999999999999999"),
            vec![Token::Decimal("99999999999999999999".into())]
        );
    }

    #[test]
    fn strings_with_escapes_and_entities() {
        assert_eq!(
            tokens(r#""Jim ""The"" Gray""#),
            vec![Token::StringLit(r#"Jim "The" Gray"#.into())]
        );
        assert_eq!(tokens("'it''s'"), vec![Token::StringLit("it's".into())]);
        assert_eq!(tokens(r#""a&amp;b""#), vec![Token::StringLit("a&b".into())]);
    }

    #[test]
    fn variables_and_qnames() {
        assert_eq!(
            tokens("$region-sales"),
            vec![Token::VarName("region-sales".into())]
        );
        assert_eq!(
            tokens("local:set-equal"),
            vec![Token::QName("local".into(), "set-equal".into())]
        );
        assert_eq!(
            tokens("fn:avg"),
            vec![Token::QName("fn".into(), "avg".into())]
        );
    }

    #[test]
    fn axis_colon_colon_not_confused_with_qname() {
        assert_eq!(
            tokens("child::book"),
            vec![
                Token::NCName("child".into()),
                Token::ColonColon,
                Token::NCName("book".into())
            ]
        );
    }

    #[test]
    fn comments_nest_and_are_skipped() {
        assert_eq!(
            tokens("1 (: outer (: inner :) still :) 2"),
            vec![Token::Integer(1), Token::Integer(2)]
        );
        let mut lx = Lexer::new("(: never closed");
        assert!(lx.next_token().is_err());
    }

    #[test]
    fn tag_open_lexes_name() {
        assert_eq!(
            tokens("<monthly-report"),
            vec![Token::StartTagOpen(Name::local("monthly-report"))]
        );
        assert_eq!(
            tokens("<x:r"),
            vec![Token::StartTagOpen(Name::prefixed("x", "r"))]
        );
    }

    #[test]
    fn raw_content_chunks() {
        let mut lx = Lexer::new("hello {$x} <b></b>");
        let (text, end) = lx.raw_content_chunk().unwrap();
        assert_eq!(text, "hello ");
        assert_eq!(end, ContentChunkEnd::OpenBrace);
        // caller would parse $x and the '}' in token mode
        let (t, _) = lx.next_token().unwrap();
        assert_eq!(t, Token::VarName("x".into()));
        let (t, _) = lx.next_token().unwrap();
        assert_eq!(t, Token::RBrace);
        let (text, end) = lx.raw_content_chunk().unwrap();
        assert_eq!(text, " ");
        assert_eq!(end, ContentChunkEnd::StartTagOpen);
    }

    #[test]
    fn raw_content_escaped_braces_and_entities() {
        let mut lx = Lexer::new("a{{b}}c&lt;d</");
        let (text, end) = lx.raw_content_chunk().unwrap();
        assert_eq!(text, "a{b}c<d");
        assert_eq!(end, ContentChunkEnd::EndTagOpen);
    }

    #[test]
    fn raw_attr_chunks() {
        let mut lx = Lexer::new(r#"year {$y}!" rest"#);
        let (text, end) = lx.raw_attr_chunk('"').unwrap();
        assert_eq!(text, "year ");
        assert_eq!(end, AttrChunkEnd::OpenBrace);
    }

    #[test]
    fn raw_cdata_in_content() {
        let mut lx = Lexer::new("a<![CDATA[<raw>&]]>b</");
        let (text, _) = lx.raw_content_chunk().unwrap();
        assert_eq!(text, "a<raw>&b");
    }

    #[test]
    fn error_positions_are_reported() {
        let mut lx = Lexer::new("   #");
        let err = lx.next_token().unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }
}
