//! A from-scratch, non-validating XML 1.0 parser.
//!
//! Supports the constructs that appear in data-centric documents:
//! elements, attributes (single- or double-quoted), character data,
//! the five predefined entities plus numeric character references,
//! CDATA sections, comments, processing instructions, and an optional
//! XML declaration / doctype (skipped, not validated).
//!
//! Not supported (rejected with a clear error): external entities,
//! custom entity declarations. Namespaces are *lexical only*: prefixes
//! are kept on names but no URI resolution is performed.
//!
//! The parser scans bytes, not `char`s. Every delimiter it looks for is
//! ASCII and no ASCII byte occurs inside a multi-byte UTF-8 sequence, so
//! each position it stops at is a `char` boundary of the input `&str`.
//! Text between two delimiters is appended to the document's text buffer
//! as one slice; only a run that holds a reference, a CDATA section, a
//! carriage return or a `]` is decoded piece by piece first. A name is
//! looked up by its bytes in one table and becomes a [`NameId`]; an end
//! tag is compared with its start tag as bytes.

use crate::error::{ParseError, ParseResult};
use std::collections::HashMap;
use std::sync::Arc;
use xqa_xdm::node::{Document, DocumentBuilder, NameId};
use xqa_xdm::qname::QName;

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Drop text nodes that consist entirely of XML whitespace
    /// (the "data-centric" convention; defaults to `true` so that
    /// indented test documents compare deep-equal to generated ones).
    pub strip_whitespace_only_text: bool,
    /// Keep comment nodes (default `true`).
    pub keep_comments: bool,
    /// Keep processing-instruction nodes (default `true`).
    pub keep_processing_instructions: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            strip_whitespace_only_text: true,
            keep_comments: true,
            keep_processing_instructions: true,
        }
    }
}

/// Parse a complete XML document (single root element).
///
/// ```
/// let doc = xqa_xmlparse::parse_document("<bib><book year=\"1993\"/></bib>").unwrap();
/// let bib = doc.root().children().next().unwrap();
/// assert_eq!(bib.name().unwrap().local_part(), "bib");
/// assert_eq!(bib.children().count(), 1);
/// ```
pub fn parse_document(input: &str) -> ParseResult<Arc<Document>> {
    parse_document_with(input, ParseOptions::default())
}

/// Parse a complete XML document with explicit options.
pub fn parse_document_with(input: &str, options: ParseOptions) -> ParseResult<Arc<Document>> {
    let mut p = Parser::new(input, options)?;
    p.skip_prolog()?;
    let mut roots = 0usize;
    loop {
        p.skip_ws();
        match p.peek() {
            None => break,
            Some(b'<') => roots += usize::from(p.parse_markup()?),
            Some(_) => return Err(p.error("text content is not allowed at document top level")),
        }
    }
    if roots == 0 {
        return Err(ParseError::new(0, 0, "document has no root element"));
    }
    if roots > 1 {
        return Err(ParseError::new(
            0,
            0,
            "document has more than one root element",
        ));
    }
    Ok(p.builder.finish())
}

/// Parse an XML *fragment*: zero or more elements plus bare text,
/// wrapped under a synthetic document node. Handy in tests.
pub fn parse_fragment(input: &str) -> ParseResult<Arc<Document>> {
    let mut p = Parser::new(input, ParseOptions::default())?;
    p.skip_prolog()?;
    if input[..p.pos].bytes().all(is_xml_space) {
        // No declaration or doctype: leading whitespace belongs to the
        // first run of text.
        p.pos = 0;
    }
    while let Some(b) = p.peek() {
        if b == b'<' {
            p.parse_markup()?;
        } else {
            p.parse_text()?;
        }
    }
    Ok(p.builder.finish())
}

/// Maximum element nesting depth (guards against stack overflow on
/// adversarial input; real documents stay far below this).
pub const MAX_XML_DEPTH: usize = 256;

const CDATA_START: &str = "<![CDATA[";

/// The XML `S` production.
fn is_xml_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// The XML `Char` production: what a character reference may name.
fn is_xml_char(c: char) -> bool {
    matches!(c, '\t' | '\n' | '\r' | ' '..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..)
}

/// Append `text` with `\r\n` and lone `\r` turned into `\n` (XML 1.0
/// §2.11).
fn push_eol_normalized(out: &mut String, text: &str) {
    let mut rest = text;
    while let Some(cr) = rest.find('\r') {
        out.push_str(&rest[..cr]);
        out.push('\n');
        rest = &rest[cr + 1..];
        rest = rest.strip_prefix('\n').unwrap_or(rest);
    }
    out.push_str(rest);
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    options: ParseOptions,
    builder: DocumentBuilder,
    /// Every name seen so far, as written, with its id in `builder`.
    names: HashMap<&'a str, NameId>,
    /// Decoded text of the run or attribute value being parsed, when it
    /// is not a slice of the input (reused across runs).
    scratch: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, options: ParseOptions) -> ParseResult<Parser<'a>> {
        // A document has at most one node and one byte of text per input
        // byte, so this bound keeps every node id and text offset in the
        // arena's `u32`s.
        if u32::try_from(input.len()).is_err() {
            return Err(ParseError::new(0, 0, "input is larger than 4 GiB"));
        }
        Ok(Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            options,
            builder: DocumentBuilder::new(),
            names: HashMap::new(),
            scratch: String::new(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_str(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect_str(&mut self, s: &str) -> ParseResult<()> {
        if self.peek_str(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {s:?}")))
        }
    }

    /// Advance to the first byte `stop` accepts (or the end of input) and
    /// return the slice passed over. `stop` must accept either no
    /// non-ASCII byte or all of them: then it stops on an ASCII byte or
    /// on the lead byte of a sequence, and both ends of the slice are
    /// `char` boundaries.
    fn take_until(&mut self, stop: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        self.pos = self.bytes[start..]
            .iter()
            .position(|&b| stop(b))
            .map_or(self.bytes.len(), |i| start + i);
        &self.input[start..self.pos]
    }

    /// Skip past the next occurrence of `end` and return what precedes it.
    fn take_through(&mut self, end: &str, unterminated: &str) -> ParseResult<&'a str> {
        let rest = &self.input[self.pos..];
        let len = rest.find(end).ok_or_else(|| self.error(unterminated))?;
        self.pos += len + end.len();
        Ok(&rest[..len])
    }

    fn line_col(&self) -> (u32, u32) {
        let mut line = 1u32;
        let mut col = 1u32;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.line_col();
        ParseError::new(line, col, msg)
    }

    fn skip_ws(&mut self) {
        self.take_until(|b| !is_xml_space(b));
    }

    /// Skip the XML declaration and doctype, if present.
    fn skip_prolog(&mut self) -> ParseResult<()> {
        self.skip_ws();
        if self.peek_str("<?xml") {
            self.take_through("?>", "unterminated XML declaration")?;
        }
        self.skip_ws();
        if self.peek_str("<!DOCTYPE") {
            // Skip to the matching '>' (internal subsets with nested
            // brackets are handled by bracket counting).
            let mut depth = 0i32;
            while let Some(b) = self.bump() {
                match b {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    b'>' if depth == 0 => return Ok(()),
                    _ => {}
                }
            }
            return Err(self.error("unterminated DOCTYPE"));
        }
        Ok(())
    }

    /// Parse one item starting with `<` that is not an end tag or, inside
    /// an element, a CDATA section: a comment, a PI or an element.
    /// Returns whether it was an element.
    fn parse_markup(&mut self) -> ParseResult<bool> {
        debug_assert!(self.peek() == Some(b'<'));
        if self.peek_str("<!--") {
            self.parse_comment().map(|()| false)
        } else if self.peek_str("<?") {
            self.parse_pi().map(|()| false)
        } else if self.peek_str(CDATA_START) {
            // Element content hands its CDATA sections to `parse_text`.
            Err(self.error("CDATA is not allowed at document top level"))
        } else if self.peek_str("</") {
            Err(self.error("unexpected end tag"))
        } else {
            self.parse_element().map(|()| true)
        }
    }

    /// The name at the cursor, as written.
    fn take_name(&mut self) -> &'a str {
        self.take_until(|b| {
            b.is_ascii_whitespace() || matches!(b, b'=' | b'>' | b'/' | b'<' | b'?' | b'"' | b'\'')
        })
    }

    fn invalid_name(&self, raw: &str) -> ParseError {
        self.error(format!("invalid name {raw:?}"))
    }

    /// Resolve a name as written to its id in the document, validating
    /// and interning it the first time it is seen.
    fn intern(&mut self, raw: &'a str) -> ParseResult<NameId> {
        if let Some(&id) = self.names.get(raw) {
            return Ok(id);
        }
        let name = QName::parse(raw).ok_or_else(|| self.invalid_name(raw))?;
        let id = self.builder.intern(&name);
        self.names.insert(raw, id);
        Ok(id)
    }

    fn parse_element(&mut self) -> ParseResult<()> {
        if self.depth >= MAX_XML_DEPTH {
            return Err(self.error(format!(
                "element nesting exceeds the supported depth ({MAX_XML_DEPTH})"
            )));
        }
        self.depth += 1;
        let result = self.parse_element_inner();
        self.depth -= 1;
        result
    }

    fn parse_element_inner(&mut self) -> ParseResult<()> {
        self.expect_str("<")?;
        let name = self.take_name();
        let id = self.intern(name)?;
        self.builder.start_element_id(id);
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.expect_str("/>")?;
                    self.builder.end_element();
                    return Ok(());
                }
                Some(_) => {
                    let attr = self.take_name();
                    let attr = self.intern(attr)?;
                    self.skip_ws();
                    self.expect_str("=")?;
                    self.skip_ws();
                    self.parse_attr_value(attr)?;
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }
        // Content.
        loop {
            match self.peek() {
                None => return Err(self.error(format!("unterminated element <{name}>"))),
                Some(b'<') if self.peek_str("</") => return self.parse_end_tag(name),
                Some(b'<') if !self.peek_str(CDATA_START) => {
                    self.parse_markup()?;
                }
                Some(_) => self.parse_text()?,
            }
        }
    }

    fn parse_end_tag(&mut self, open: &str) -> ParseResult<()> {
        self.expect_str("</")?;
        let name = self.take_name();
        if name != open {
            QName::parse(name).ok_or_else(|| self.invalid_name(name))?;
            return Err(self.error(format!("mismatched end tag </{name}> for <{open}>")));
        }
        self.skip_ws();
        self.expect_str(">")?;
        self.builder.end_element();
        Ok(())
    }

    /// Append a run of character data as a text node, unless it is
    /// whitespace only and those are being dropped.
    fn emit_text(&mut self, text: &str) {
        if self.options.strip_whitespace_only_text && text.bytes().all(is_xml_space) {
            return;
        }
        self.builder.text(text);
    }

    /// Parse one run of character data: everything up to the next tag,
    /// comment or PI, CDATA sections and references included.
    fn parse_text(&mut self) -> ParseResult<()> {
        let is_special = |b: u8| matches!(b, b'<' | b'&' | b'\r' | b']');
        let plain = self.take_until(is_special);
        if self.peek().is_none() || (self.peek() == Some(b'<') && !self.peek_str(CDATA_START)) {
            self.emit_text(plain);
            return Ok(());
        }
        let mut run = std::mem::take(&mut self.scratch);
        run.clear();
        run.push_str(plain);
        let result = loop {
            match self.peek() {
                Some(b'<') if self.peek_str(CDATA_START) => {
                    if self.depth == 0 {
                        break Err(self.error("CDATA is not allowed at document top level"));
                    }
                    self.pos += CDATA_START.len();
                    match self.take_through("]]>", "unterminated CDATA section") {
                        Ok(text) => push_eol_normalized(&mut run, text),
                        Err(e) => break Err(e),
                    }
                }
                None | Some(b'<') => break Ok(()),
                Some(b'&') => match self.parse_entity() {
                    Ok(c) => run.push(c),
                    Err(e) => break Err(e),
                },
                Some(b'\r') => {
                    self.pos += 1;
                    if self.peek() == Some(b'\n') {
                        self.pos += 1;
                    }
                    run.push('\n');
                }
                Some(b']') if self.peek_str("]]>") => {
                    break Err(self.error("']]>' is not allowed in character data"));
                }
                Some(b']') => {
                    self.pos += 1;
                    run.push(']');
                }
                Some(_) => run.push_str(self.take_until(is_special)),
            }
        };
        if result.is_ok() {
            self.emit_text(&run);
        }
        self.scratch = run;
        result
    }

    /// Parse a quoted attribute value and add the attribute `name` to the
    /// open element. A literal tab, newline or carriage return becomes a
    /// space (XML 1.0 §3.3.3; `\r\n` is one line end, so one space).
    fn parse_attr_value(&mut self, name: NameId) -> ParseResult<()> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected quoted attribute value")),
        };
        let is_special =
            move |b: u8| b == quote || matches!(b, b'<' | b'&' | b'\t' | b'\n' | b'\r');
        let plain = self.take_until(is_special);
        if self.peek() == Some(quote) {
            self.pos += 1;
            self.builder.attribute_id(name, plain);
            return Ok(());
        }
        let mut value = std::mem::take(&mut self.scratch);
        value.clear();
        value.push_str(plain);
        let result = loop {
            match self.peek() {
                None => break Err(self.error("unterminated attribute value")),
                Some(b) if b == quote => {
                    self.pos += 1;
                    break Ok(());
                }
                Some(b'<') => break Err(self.error("'<' is not allowed in attribute values")),
                Some(b'&') => match self.parse_entity() {
                    Ok(c) => value.push(c),
                    Err(e) => break Err(e),
                },
                Some(b'\r') if self.bytes.get(self.pos + 1) == Some(&b'\n') => self.pos += 1,
                Some(b'\t' | b'\n' | b'\r') => {
                    self.pos += 1;
                    value.push(' ');
                }
                Some(_) => value.push_str(self.take_until(is_special)),
            }
        };
        if result.is_ok() {
            self.builder.attribute_id(name, &value);
        }
        self.scratch = value;
        result
    }

    /// Parse `&name;`, `&#N;` or `&#xN;` into the character it stands for.
    fn parse_entity(&mut self) -> ParseResult<char> {
        debug_assert!(self.peek() == Some(b'&'));
        self.pos += 1;
        let name = self.take_until(|b| !(b.is_ascii_alphanumeric() || b == b'#'));
        if self.bump() != Some(b';') {
            return Err(self.error("unterminated entity reference"));
        }
        // The name scan above stops at a sign, so `from_str_radix` never
        // sees the leading `+` it would accept.
        let char_ref = |digits: &str, radix: u32| {
            let code = u32::from_str_radix(digits, radix)
                .map_err(|_| self.error(format!("invalid character reference &{name};")))?;
            char::from_u32(code)
                .filter(|&c| is_xml_char(c))
                .ok_or_else(|| self.error(format!("invalid code point &{name};")))
        };
        match name {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ if name.starts_with("#x") || name.starts_with("#X") => char_ref(&name[2..], 16),
            _ if name.starts_with('#') => char_ref(&name[1..], 10),
            _ => Err(self.error(format!(
                "unknown entity &{name}; (external entities unsupported)"
            ))),
        }
    }

    fn parse_comment(&mut self) -> ParseResult<()> {
        self.expect_str("<!--")?;
        let start = self.pos;
        let text = self.take_through("-->", "unterminated comment")?;
        if text.contains("--") {
            self.pos = start;
            return Err(self.error("'--' is not allowed inside comments"));
        }
        if self.options.keep_comments {
            self.builder.comment(text);
        }
        Ok(())
    }

    fn parse_pi(&mut self) -> ParseResult<()> {
        self.expect_str("<?")?;
        let raw = self.take_name();
        let target = QName::parse(raw).ok_or_else(|| self.invalid_name(raw))?;
        if raw.eq_ignore_ascii_case("xml") {
            return Err(self.error("'<?xml' is only allowed at the start of the document"));
        }
        self.skip_ws();
        let data = self.take_through("?>", "unterminated processing instruction")?;
        if self.options.keep_processing_instructions {
            self.builder.processing_instruction(target, data);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqa_xdm::node::NodeKind;

    #[test]
    fn parse_paper_book_instance() {
        let doc = parse_document(
            r#"<book>
                <title>Transaction Processing</title>
                <author>Jim Gray</author>
                <author>Andreas Reuter</author>
                <publisher>Morgan Kaufmann</publisher>
                <year>1993</year>
                <price>65.00</price>
                <discount>5.50</discount>
               </book>"#,
        )
        .unwrap();
        let book = doc.root().children().next().unwrap();
        assert_eq!(book.name().unwrap().local_part(), "book");
        assert_eq!(book.children().count(), 7);
        let title = book.children().next().unwrap();
        assert_eq!(title.string_value(), "Transaction Processing");
    }

    #[test]
    fn whitespace_only_text_is_stripped_by_default() {
        let doc = parse_document("<a>\n  <b>x</b>\n</a>").unwrap();
        let a = doc.root().children().next().unwrap();
        assert_eq!(a.children().count(), 1);
        let keep = ParseOptions {
            strip_whitespace_only_text: false,
            ..Default::default()
        };
        let doc2 = parse_document_with("<a>\n  <b>x</b>\n</a>", keep).unwrap();
        let a2 = doc2.root().children().next().unwrap();
        assert_eq!(a2.children().count(), 3);
    }

    #[test]
    fn attributes_both_quote_styles() {
        let doc = parse_document(r#"<r a="1" b='two' c="a&amp;b"/>"#).unwrap();
        let r = doc.root().children().next().unwrap();
        let vals: Vec<String> = r.attributes().map(|a| a.string_value()).collect();
        assert_eq!(vals, ["1", "two", "a&b"]);
    }

    #[test]
    fn entities_and_char_refs() {
        let doc = parse_document("<t>&lt;a&gt; &amp; &#65;&#x42;&apos;&quot;</t>").unwrap();
        let t = doc.root().children().next().unwrap();
        assert_eq!(t.string_value(), "<a> & AB'\"");
    }

    #[test]
    fn cdata_is_literal_text() {
        let doc = parse_document("<t><![CDATA[<not> & parsed]]></t>").unwrap();
        let t = doc.root().children().next().unwrap();
        assert_eq!(t.string_value(), "<not> & parsed");
    }

    #[test]
    fn comments_and_pis_round_trip() {
        let doc = parse_document("<r><!-- note --><?app data?></r>").unwrap();
        let r = doc.root().children().next().unwrap();
        let kinds: Vec<NodeKind> = r.children().map(|c| c.kind()).collect();
        assert_eq!(kinds, [NodeKind::Comment, NodeKind::ProcessingInstruction]);
    }

    #[test]
    fn xml_decl_and_doctype_skipped() {
        let doc = parse_document(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE r [<!ELEMENT r ANY>]>\n<r/>",
        )
        .unwrap();
        assert_eq!(doc.root().children().count(), 1);
    }

    #[test]
    fn self_closing_and_nested() {
        let doc =
            parse_document("<categories><software><db/><distributed/></software></categories>")
                .unwrap();
        let cats = doc.root().children().next().unwrap();
        let sw = cats.children().next().unwrap();
        let names: Vec<String> = sw
            .children()
            .map(|c| c.name().unwrap().local_part().to_string())
            .collect();
        assert_eq!(names, ["db", "distributed"]);
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_document("<a>\n<b></c></a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("mismatched end tag"));
    }

    #[test]
    fn reject_malformed() {
        assert!(parse_document("").is_err());
        assert!(parse_document("<a>").is_err());
        assert!(parse_document("<a></b>").is_err());
        assert!(parse_document("<a/><b/>").is_err(), "two roots");
        assert!(parse_document("text only").is_err());
        assert!(parse_document("<a b=c/>").is_err(), "unquoted attribute");
        assert!(parse_document("<a>&nbsp;</a>").is_err(), "unknown entity");
        assert!(parse_document("<1tag/>").is_err());
        assert!(parse_document("<a><!-- -- --></a>").is_err());
        // Character references outside the XML `Char` production.
        for bad in ["&#0;", "&#x1;", "&#8;", "&#xB;", "&#x1F;", "&#xD800;"] {
            let bad = format!("<a>{bad}</a>");
            assert!(parse_document(&bad).is_err(), "{bad}");
        }
        for bad in ["&#xFFFE;", "&#xFFFF;", "&#x110000;", "&#99999999999;"] {
            let bad = format!("<a b='{bad}'/>");
            assert!(parse_document(&bad).is_err(), "{bad}");
        }
        // Signed and empty forms `from_str_radix` / `parse` would take.
        for bad in ["&#x+41;", "&#+65;", "&#-65;", "&#x;", "&#;", "&#x-1;"] {
            let err = parse_document(&format!("<a>\n{bad}</a>")).unwrap_err();
            assert_eq!(err.line, 2, "{bad}: {err}");
        }
        assert_eq!(
            parse_document("<a>&#9;&#xA;&#13;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;</a>")
                .unwrap()
                .root()
                .string_value(),
            "\t\n\r \u{D7FF}\u{E000}\u{FFFD}\u{10000}"
        );
    }

    /// XML 1.0 §2.11: `\r\n` and a lone `\r` reach the application as
    /// `\n`, so a CRLF file parses deep-equal to its LF twin.
    #[test]
    fn line_ends_are_normalized() {
        let lf = "<r a='1'>\n<t>one\ntwo\n\nthree</t>\n<c><![CDATA[x\ny\n]]></c>\n</r>";
        let crlf = lf.replace('\n', "\r\n");
        let cr = lf.replace('\n', "\r");
        let expected = parse_document(lf).unwrap();
        let t = expected.root().descendants().nth(1).unwrap();
        assert_eq!(t.string_value(), "one\ntwo\n\nthree");
        for twin in [crlf, cr] {
            let doc = parse_document(&twin).unwrap();
            assert!(
                xqa_xdm::node_deep_equal(&doc.root(), &expected.root()),
                "{twin:?}"
            );
        }
        // A referenced carriage return is data, not a line end.
        let doc = parse_document("<t>a&#13;\r\nb</t>").unwrap();
        assert_eq!(doc.root().string_value(), "a\r\nb");
    }

    /// XML 1.0 §3.3.3: a literal tab or line end in an attribute value is
    /// a space; a referenced one is kept.
    #[test]
    fn attribute_values_are_normalized() {
        let doc = parse_document("<r a='x\ty\nz\r\nw\rv' b=\"&#9;&#10;&#13;\"/>").unwrap();
        let r = doc.root().children().next().unwrap();
        let values: Vec<String> = r.attributes().map(|a| a.string_value()).collect();
        assert_eq!(values, ["x y z w v", "\t\n\r"]);
    }

    #[test]
    fn whitespace_only_runs_are_judged_after_decoding() {
        // A referenced space is still whitespace; a CDATA section is part
        // of the run around it.
        let a = |xml| {
            let doc = parse_document(xml).unwrap();
            let a = doc.root().children().next().unwrap();
            a.children().map(|c| c.string_value()).collect::<Vec<_>>()
        };
        assert!(a("<a> &#32;\r\n</a>").is_empty());
        assert!(a("<a> <![CDATA[ ]]> </a>").is_empty());
        assert_eq!(a("<a> <![CDATA[x]]> </a>"), [" x "]);
        assert_eq!(a("<a>x]y]]z<![CDATA[]]]]><![CDATA[>]]></a>"), ["x]y]]z]]>"]);
        assert!(parse_document("<a>x]]>y</a>").is_err());
    }

    #[test]
    fn multibyte_text_names_and_values_survive_byte_scanning() {
        let doc = parse_document("<é ü='ö&amp;ß'>日本&lt;語\r\n𝄞]</é>").unwrap();
        let e = doc.root().children().next().unwrap();
        assert_eq!(e.name().unwrap().local_part(), "é");
        assert_eq!(e.attributes().next().unwrap().string_value(), "ö&ß");
        assert_eq!(e.string_value(), "日本<語\n𝄞]");
    }

    #[test]
    fn fragment_allows_multiple_roots_and_text() {
        let doc = parse_fragment("<a/>text<b/>").unwrap();
        assert_eq!(doc.root().children().count(), 3);
        let doc = parse_fragment(" \n<a/> text").unwrap();
        assert_eq!(doc.root().children().count(), 2);
        assert_eq!(parse_fragment(" t").unwrap().root().string_value(), " t");
    }

    #[test]
    fn prefixed_names_kept_lexically() {
        let doc = parse_document("<x:r xmlns:x='urn:x'><x:c/></x:r>").unwrap();
        let r = doc.root().children().next().unwrap();
        assert_eq!(r.name().unwrap().to_string(), "x:r");
        // xmlns:x is kept as an ordinary attribute (lexical namespaces).
        assert_eq!(r.attributes().count(), 1);
    }

    #[test]
    fn mixed_content_preserved() {
        let doc = parse_document("<p>one <b>two</b> three</p>").unwrap();
        let p = doc.root().children().next().unwrap();
        assert_eq!(p.string_value(), "one two three");
        assert_eq!(p.children().count(), 3);
    }
}
